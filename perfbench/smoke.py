"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one traced round of each workload at tiny size and checks that
every metric BENCHMARK.json names is produced, that no job fails, that a
deliberately wrong target is counted as a failure (library and CLI), and
that the benchmark refuses to run in a directory without the program.
Takes about half a minute; exits 0 when all hold.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import jobs
import run
import targets


class Negated(targets.DiskSum):
    """A target whose values are the negative of what its coefficients say."""

    def __call__(self, r, theta):
        return -super().__call__(r, theta)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")
    print(f"smoke: ok: {message}")


def workloads_report_every_metric(spec: dict) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    _check(set(run.END_TO_END) == e2e, "run.py and BENCHMARK.json name the same end-to-end metrics")
    for workload in spec["workloads"]:
        name = workload["name"]
        result = run.measure(name, seed=1, seconds=0, trace=True, tiny=True)
        failed = [f"{o.command}: {o.note}" for o in result["outcomes"] + result["traced"] if not o.ok]
        _check(not failed, f"{name}: no job fails {failed}")
        _check(set(result["end_to_end"]) == e2e, f"{name}: every end-to-end metric is present")
        _check(set(result["per_layer"]) == layers, f"{name}: every per-layer metric is present")
        _check(result["end_to_end"]["success_rate"] == 1.0, f"{name}: error rate is 0")


def wrong_targets_fail() -> None:
    lib_run = run.Run("smoke_library", seed=1, tiny=True)
    cli_run = run.Run("smoke_cli", seed=1, tiny=True)
    try:
        lib_run.work.mkdir(parents=True)
        library = run.LibraryWorkload(lib_run)
        library.setup()
        for command in ("analysis", "synthesis"):
            good = library.execute(jobs.LibJob(command, 6, targets.DiskSum({(1, 2): 1.0})), 0)
            bad = library.execute(jobs.LibJob(command, 6, Negated({(1, 2): 1.0})), 1)
            _check(good.ok and not bad.ok, f"library {command}: a negated target is a failure")

        cli_run.work.mkdir(parents=True)
        cli = run.CliWorkload(cli_run, jobs.cold_round, uses_csv=True)
        cli.setup()
        job = jobs.eval_job(6, "8x16", "csv", random.Random(0))
        _check(cli.execute(job, 0).ok, "cli eval of the expected index passes")
        job.args[1] = str(int(job.args[1]) + 1)
        _check(not cli.execute(job, 1).ok, "cli eval of another index is a failure")
    finally:
        shutil.rmtree(lib_run.work, ignore_errors=True)
        shutil.rmtree(cli_run.work, ignore_errors=True)


def refuses_without_program() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_float_cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        _check(proc.returncode != 0 and not proc.stdout.strip(), "no program, no result, non-zero exit")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run._import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads_report_every_metric(spec)
    wrong_targets_fail()
    refuses_without_program()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
