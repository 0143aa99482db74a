"""Run one scatterpoly CLI command in this fresh process with tracing on.

    python3 perfbench/cli_runner.py JOB OUT_JSON -- ARGS...

PERFBENCH_SPAWN holds the perf_counter reading taken just before this
process was started (launch.py sets it); the time from then until
``scatterpoly.cli`` has been imported is reported as ``startup_s``.  The wrappers go in after that
import, then ``scatterpoly.cli.main(ARGS)`` runs and the totals and spans
are written to OUT_JSON.  The exit code is the command's.
"""

import json
import os
import sys
import time

#: Spans one traced command keeps; its totals still count every span.
CHILD_KEPT_SPANS = 20_000


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    job, out = int(sys.argv[1]), sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: cli_runner.py JOB OUT_JSON -- ARGS...")
    import scatterpoly.cli

    startup = time.perf_counter() - spawn
    from tracer import Tracer

    tracer = Tracer(max_kept=CHILD_KEPT_SPANS)
    tracer.job = job
    tracer.install()
    try:
        code = scatterpoly.cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {"code": code, "startup_s": startup, "summary": tracer.summary(), "spans": tracer.spans},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
