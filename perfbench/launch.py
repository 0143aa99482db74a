"""Start one command, wait for it, and report its wall time, CPU and peak RSS.

    python3 -S perfbench/launch.py REPORT_FILE PROGRAM ARGS...

The kernel counts into a child's peak RSS the peak of the process it was
started from, so CLI jobs are started from this small process rather
than from the benchmark, whose memory holds parsed outputs.  The child
finds its start time in PERFBENCH_SPAWN.  Writes "seconds cpu_seconds
maxrss_kib" to REPORT_FILE and exits with the command's exit code.
"""

import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    env = dict(os.environ, PERFBENCH_SPAWN=repr(t0))
    pid = os.posix_spawn(argv[0], argv, env)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{seconds!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
