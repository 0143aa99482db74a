"""scatterpoly benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src``.  The timed phase is a closed loop with one client: whole rounds
of jobs (see jobs.py) run back to back, and no round starts after S
seconds.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the same untimed-pass numbers are taken, then the first
round runs again with every public function wrapped (tracer.py) and the
per-layer metrics are printed.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import jobs
import targets
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 3
TMAX = 32
#: No job starts later than this after the run began, so that a run ends
#: within three minutes even if the program has become far slower.
START_DEADLINE_S = 140.0
KILL_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

CLI_COMMANDS = ("eval", "expand", "solve", "gram", "moments", "verify", "table")


def _inclusive(name):
    return lambda t: t.inclusive.get(name, 0.0)


def _calls(name):
    return lambda t: t.calls.get(name, 0)


def _hit_ratio(name):
    return lambda t: t.hits.get(name, 0) / t.calls[name] if t.calls.get(name) else 0.0


def _self(layer):
    return lambda t: t.layer_self.get(layer, 0.0)


def _counter(name):
    return lambda t: t.counters.get(name, 0)


_MUL = "poly_algebra.BivariatePoly.__mul__"

#: Per-layer metrics read from the tracer after the traced round:
#: name -> (unit, extractor).  Values are per round of jobs.
TRACED = {
    "scattering.rodrigues_s": ("s", _inclusive("scattering.rodrigues")),
    "scattering.rodrigues_calls": ("count", _calls("scattering.rodrigues")),
    "scattering.rodrigues_hit_ratio": ("ratio", _hit_ratio("scattering.rodrigues")),
    "scattering.radial_sum_s": ("s", _inclusive("scattering.radial_sum")),
    "scattering.eigencheck_s": ("s", _inclusive("scattering.eigencheck")),
    "scattering.jacobi_form_s": ("s", _inclusive("scattering.jacobi_form")),
    "scattering.jacobi_form_calls": ("count", _calls("scattering.jacobi_form")),
    "scattering.jacobi_form_hit_ratio": ("ratio", _hit_ratio("scattering.jacobi_form")),
    "scattering.self_s": ("s", _self("scattering")),
    "poly_algebra.self_s": ("s", _self("poly_algebra")),
    "poly_algebra.mul_calls": ("count", _calls(_MUL)),
    "poly_algebra.coef_products": ("count", _counter("poly_algebra.coef_products")),
    "poly_algebra.divide_calls": (
        "count", _calls("poly_algebra.BivariatePoly.divide_by_boundary_factor")
    ),
    "jacobi.jacobi_eval_s": ("s", _inclusive("jacobi.jacobi_eval")),
    "jacobi.jacobi_eval_calls": ("count", _calls("jacobi.jacobi_eval")),
    "jacobi.recurrence_points": ("count", _counter("jacobi.recurrence_points")),
    "jacobi.gauss_legendre_s": ("s", _inclusive("jacobi.gauss_legendre")),
    "jacobi.gauss_legendre_hit_ratio": ("ratio", _hit_ratio("jacobi.gauss_legendre")),
    "jacobi.self_s": ("s", _self("jacobi")),
    "transform.expand_s": ("s", _inclusive("transform.expand")),
    "transform.reconstruct_s": ("s", _inclusive("transform.reconstruct")),
    "transform.expansion_residual_s": ("s", _inclusive("transform.expansion_residual")),
    "transform.boundary_value_check_s": ("s", _inclusive("transform.boundary_value_check")),
    "transform.self_s": ("s", _self("transform")),
    "transform.f_evals": ("count", _counter("transform.f_evals")),
    "quadrature.gram_s": ("s", _inclusive("quadrature.gram")),
    "quadrature.inner_product_basis_calls": ("count", _calls("quadrature.inner_product_basis")),
    "quadrature.inner_product_basis_s": ("s", _inclusive("quadrature.inner_product_basis")),
    "quadrature.moment_ladder_s": ("s", _inclusive("quadrature.moment_ladder")),
    "quadrature.self_s": ("s", _self("quadrature")),
    "cli.main_s": ("s", _inclusive("cli.main")),
    "cli.render_json_s": ("s", _inclusive("cli.render_json")),
    "cli.self_s": ("s", _self("cli")),
    "harness.target_s": ("s", _inclusive("harness.target")),
}


def _import_program():
    """Import scatterpoly from this checkout's src, or exit non-zero without a result."""
    if not (SRC / "scatterpoly" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC}/scatterpoly; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import scatterpoly

    if Path(scatterpoly.__file__).resolve().parent != SRC / "scatterpoly":
        sys.exit(f"error: imported scatterpoly from {scatterpoly.__file__}, not {SRC}")


@dataclass
class Outcome:
    command: str
    ok: bool
    latency: float
    note: str = ""
    coef_err: Optional[float] = None
    residual: Optional[float] = None
    cpu_s: float = 0.0
    output_bytes: int = 0
    startup_s: float = 0.0


def _self_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _finish(out: Outcome, check) -> Outcome:
    """Run a job's check; any exception there is the job's failure."""
    try:
        diagnostics = check()
    except Exception as exc:  # a crash while reading outputs means they are wrong
        out.note = f"{type(exc).__name__}: {exc}"
        return out
    out.ok = True
    out.coef_err = diagnostics.get("coef_err")
    out.residual = diagnostics.get("residual")
    return out


class Run:
    """Work directory, deadlines and child environment of one benchmark run."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.started = time.perf_counter()
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))

    def may_start(self) -> bool:
        return time.perf_counter() - self.started < START_DEADLINE_S

    def timeout(self) -> float:
        return max(1.0, KILL_DEADLINE_S - (time.perf_counter() - self.started))

    def child(self, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
        """Run argv to completion; on timeout kill its whole process group."""
        with subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=self.timeout())
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


class CliWorkload:
    """One fresh ``python -m scatterpoly`` process per job."""

    def __init__(self, run: Run, round_maker, uses_csv: bool):
        self.run, self.round_maker, self.uses_csv = run, round_maker, uses_csv
        self.csv_input = None
        self.peak_kib = 0

    def setup_once(self, rep: int) -> float:
        """Write the inputs and start one untimed process, so that bytecode
        compilation and file-cache warm-up stay out of the first timed job."""
        t0 = time.perf_counter()
        inputs = self.run.work / f"input-{rep}"
        inputs.mkdir(parents=True)
        if self.uses_csv:
            target = targets.random_disk_sum(random.Random(f"csv-{self.run.seed}"), 6)
            jobs.write_target_csv(inputs / "target.csv", target)
            self.csv_input = jobs.CsvInput(inputs / "target.csv", target)
        proc = self.run.child([sys.executable, "-m", "scatterpoly", "--help"], inputs)
        if proc.returncode != 0:
            raise RuntimeError(f"scatterpoly --help exited {proc.returncode}: {proc.stderr.strip()}")
        return time.perf_counter() - t0

    def setup(self) -> list[float]:
        return [self.setup_once(rep) for rep in range(SETUP_REPS)]

    def make_round(self, rng):
        if self.uses_csv:
            return self.round_maker(rng, self.csv_input, self.run.tiny)
        return self.round_maker(rng, self.run.tiny)

    def execute(self, job, index: int, tracer=None) -> Outcome:
        jobdir = self.run.work / f"job-{index}"
        shutil.rmtree(jobdir, ignore_errors=True)
        jobdir.mkdir(parents=True)
        report = self.run.work / f"launch-{index}.txt"
        trace_file = self.run.work / f"trace-{index}.json"
        if tracer is None:
            command = [sys.executable, "-m", "scatterpoly"]
        else:
            command = [sys.executable, str(HERE / "cli_runner.py"), str(index), str(trace_file), "--"]
        argv = [sys.executable, "-S", str(HERE / "launch.py"), str(report), *command, *job.args]
        t0 = time.perf_counter()
        try:
            proc = self.run.child(argv, jobdir)
            if not report.exists():
                return Outcome(job.command, False, time.perf_counter() - t0, "launcher wrote no report")
            seconds, cpu, rss_kib = report.read_text(encoding="utf-8").split()
            out = Outcome(job.command, False, float(seconds), cpu_s=float(cpu))
            self.peak_kib = max(self.peak_kib, int(rss_kib))
            if tracer is not None and trace_file.exists():
                data = json.loads(trace_file.read_text(encoding="utf-8"))
                tracer.merge(data["summary"], data["spans"])
                out.startup_s = data["startup_s"]
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines()
                out.note = f"exit {proc.returncode}: {lines[-1] if lines else ''}"
                return out

            def check():
                out.output_bytes = jobs.scan_outputs(jobdir)
                return job.check(jobdir)

            return _finish(out, check)
        except subprocess.TimeoutExpired:
            return Outcome(job.command, False, time.perf_counter() - t0, "timed out")
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
            report.unlink(missing_ok=True)
            trace_file.unlink(missing_ok=True)

    def peak_rss_mb(self) -> float:
        """Largest peak RSS of a job process, as launch.py measured it."""
        return self.peak_kib / 1024.0


class LibraryWorkload:
    """Jobs are API calls in this process, after a warm-up at TMAX."""

    def __init__(self, run: Run):
        self.run = run
        self.tmax = 12 if run.tiny else TMAX

    def setup(self) -> list[float]:
        """SETUP_REPS - 1 set-ups in fresh processes, then the one this run uses."""
        samples = []
        for _ in range(SETUP_REPS - 1):
            argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.tmax),
                    str(self.run.seed), "1" if self.run.tiny else "0"]
            proc = self.run.child(argv, ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        seconds, self.sp, self.grid = jobs.library_setup(self.tmax, self.run.seed, self.run.tiny)
        samples.append(seconds)
        return samples

    def make_round(self, rng):
        return jobs.library_round(rng, self.tmax, self.run.tiny)

    def execute(self, job, index: int, tracer=None) -> Outcome:
        cpu0 = _self_cpu()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = jobs.run_library(job, self.sp, self.grid)
            else:
                tracer.job = index
                result = tracer.span(f"job.{job.command}", "job", jobs.run_library, job, self.sp, self.grid)
        except Exception as exc:  # the program raising is this job's failure
            return Outcome(job.command, False, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        out = Outcome(job.command, False, time.perf_counter() - t0, cpu_s=_self_cpu() - cpu0)
        return _finish(out, lambda: jobs.check_library(job, result, self.grid))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {
    "cli_float_cold": lambda run: CliWorkload(run, jobs.cold_round, uses_csv=True),
    "library_float_warm": LibraryWorkload,
    "cli_exact_verify": lambda run: CliWorkload(run, jobs.verify_round, uses_csv=False),
}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten jobs beyond it, and that percentile.

    With fewer than eleven jobs there is no such percentile; the maximum
    is reported, as percentile 100.
    """
    ordered = sorted(latencies)
    i = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run of a workload; returns outcomes, metrics and what the summary prints."""
    run = Run(name, seed, tiny)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](run)
        setup_samples = workload.setup()
        rng = random.Random(seed)
        rounds, outcomes = [], []
        t0 = time.perf_counter()
        while run.may_start():
            rounds.append(workload.make_round(rng))
            for job in rounds[-1]:
                if not run.may_start():
                    break
                outcomes.append(workload.execute(job, len(outcomes)))
            if time.perf_counter() - t0 >= seconds:
                break
        wall = time.perf_counter() - t0
        if not outcomes:
            raise RuntimeError("no job started before the deadline")
        peak = workload.peak_rss_mb()

        traced, tracer = [], None
        if trace:
            tracer = Tracer()
            if isinstance(workload, LibraryWorkload):
                tracer.install()
            try:
                for index, job in enumerate(rounds[0]):
                    if not run.may_start():
                        break
                    traced.append(workload.execute(job, index, tracer))
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"{name}-seed{seed}.spans.csv")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    latencies = [o.latency for o in outcomes]
    passed = sum(o.ok for o in outcomes)
    tail_s, tail_pct = tail(latencies)
    result = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "wall_s": wall,
        "outcomes": outcomes,
        "traced": traced,
        "setup_samples": setup_samples,
        "tail_percentile": tail_pct,
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": passed / sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_s,
            "peak_rss_mb": peak,
            "success_rate": passed / len(outcomes),
        },
    }
    if trace:
        cli = isinstance(workload, CliWorkload)
        result["per_layer"] = per_layer(tracer, outcomes, traced, len(rounds), cli)
        result["dropped_spans"] = tracer.dropped
    return result


def per_layer(tracer, outcomes: list[Outcome], traced: list[Outcome], rounds: int,
              cli: bool) -> dict:
    """Per-layer metrics, each for one round of jobs; cli.<command>.p50_s are
    medians over the untraced pass of a CLI workload, 0 elsewhere."""
    metrics = {name: (unit, float(fn(tracer))) for name, (unit, fn) in TRACED.items()}
    first_round = outcomes[: len(traced)]
    traced_wall = sum(o.latency for o in traced)
    metrics["cli.startup_s"] = ("s", sum(o.startup_s for o in traced))
    metrics["cli.output_bytes"] = ("bytes", float(sum(o.output_bytes for o in traced)))
    for command in CLI_COMMANDS:
        runs = [o.latency for o in outcomes if cli and o.command == command] or [0.0]
        metrics[f"cli.{command}.p50_s"] = ("s", statistics.median(runs))
    metrics["process.cpu_s"] = ("s", sum(o.cpu_s for o in outcomes) / rounds)
    metrics["trace.jobs_s"] = ("s", traced_wall)
    metrics["trace.overhead_s"] = ("s", traced_wall - sum(o.latency for o in first_round))
    coef = [o.coef_err for o in outcomes if o.coef_err is not None]
    res = [o.residual for o in outcomes if o.residual is not None]
    metrics["check.max_coef_err"] = ("abs", max(coef, default=0.0))
    metrics["check.max_residual"] = ("abs", max(res, default=0.0))
    return metrics


def print_summary(result: dict) -> None:
    outcomes = result["outcomes"] + result["traced"]
    failed = [o for o in outcomes if not o.ok]
    print(f"workload {result['workload']}, seed {result['seed']}: {len(result['outcomes'])} jobs "
          f"in {result['rounds']} round(s), {result['wall_s']:.2f} s timed; "
          f"{'correct' if not failed else f'INCORRECT ({len(failed)} failed)'}")
    for o in failed[:10]:
        print(f"  failed {o.command}: {o.note}")
    e2e = result["end_to_end"]
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:>14.6g} {unit}")
    print(f"  (setup_s is the median of {len(result['setup_samples'])} set-ups; job_tail_s is "
          f"p{result['tail_percentile']:.0f} of {len(result['outcomes'])} jobs)")
    if "per_layer" not in result:
        return
    layer = result["per_layer"]
    base = layer["trace.jobs_s"][1]
    print(f"per-layer, one traced round of {len(result['traced'])} jobs "
          f"({result['dropped_spans']} spans past the in-memory cap not kept):")
    for name, (unit, value) in layer.items():
        share = f"  {100 * value / base:5.1f}% of trace.jobs_s" if name.endswith("self_s") and base else ""
        print(f"  {name:<36} {value:>14.6g} {unit}{share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(result)
    outcomes = result["outcomes"] + result["traced"]
    failed = sum(not o.ok for o in outcomes)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
