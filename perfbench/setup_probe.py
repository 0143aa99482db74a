"""Time one library_float_warm set-up in this fresh process and print the seconds.

    python3 perfbench/setup_probe.py TMAX SEED TINY

scatterpoly must be importable (the benchmark sets PYTHONPATH to src).
"""

import sys

import jobs

if __name__ == "__main__":
    tmax, seed, tiny = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    seconds, _, _ = jobs.library_setup(tmax, seed, tiny)
    print(repr(seconds))
