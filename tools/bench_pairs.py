"""Run the benchmark in alternating pairs: a base revision against the working tree.

Usage, from the root of a checkout:

    python tools/bench_pairs.py --base REV [--workload NAME ...] [--pairs N]
        [--first-seed S] [--seconds T] [--trace-pairs K] [--out PATH]

The base revision is checked out with ``git worktree`` under
``.bench_build/`` and removed afterwards.  Pair i runs ``perfbench/run.py
--seed S+i`` once in each tree, base first on even i and working tree
first on odd i, so a drift of the machine's speed favours neither side.
The tool refuses to run when the two ``perfbench/`` trees differ: the
benchmark must be the same program on both sides.  ``--trace-pairs K``
adds K pairs with ``--trace 1`` (seeds after the untraced ones), whose
per-layer metrics are summarised the same way.

The JSON written to ``--out`` records, for each workload and metric, each
side's median and quartiles over the pairs, the share of pairs the
working tree won (ties count for neither side), and every run, with the
seeds, the Python and numpy versions and the CPU count.  An end-to-end
metric also carries its bound from BENCHMARK.json and whether the working
tree's median stays within it; ``gain_resolved`` says whether the working
tree won nine tenths of the pairs and its median beats the base's by more
than the base's own quartile spread.

``rss_fit`` attributes memory to the jobs the harness keeps: per side, a
least-squares line of the untraced runs' ``peak_rss_mb`` against their
``attempted`` job counts, reported as MB per 1000 jobs, its intercept, and
its value at the base's median job count.  Two sides whose fitted values
there agree differ in ``peak_rss_mb`` only by the jobs each ran; a side
whose runs all ran the same number of jobs has no line (nulls).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _tree_files(root: Path) -> dict[str, Path]:
    """Every file under root by relative path, without bytecode caches."""
    return {
        str(path.relative_to(root)): path
        for path in root.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }


def _same_tree(a: Path, b: Path) -> bool:
    files_a, files_b = _tree_files(a), _tree_files(b)
    return files_a.keys() == files_b.keys() and all(
        filecmp.cmp(files_a[name], files_b[name], shallow=False) for name in files_a
    )


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in tree; its last line of output, parsed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict], name: str, spec: dict) -> dict:
    """Both sides' spread of one metric over the pairs, and the pairs won."""
    higher = spec["better"] == "higher"
    base = [run["base"]["metrics"][name] for run in runs]
    head = [run["head"]["metrics"][name] for run in runs]
    won = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    out = {"unit": spec["unit"], "better": spec["better"],
           "base": _spread(base), "head": _spread(head), "head_won": won / len(runs)}
    b, h = out["base"], out["head"]
    gain = h["median"] - b["median"] if higher else b["median"] - h["median"]
    out["median_change"] = (h["median"] - b["median"]) / b["median"] if b["median"] else None
    out["gain_resolved"] = out["head_won"] >= 0.9 and gain > b["q3"] - b["q1"]
    if "bound" in spec:
        out["bound"] = spec["bound"]
        out["within_bound"] = -gain <= spec["bound"] * abs(b["median"])
    return out


def _rss_fit(runs: list[dict], side: str, jobs: float) -> dict:
    """peak_rss_mb = intercept + slope * attempted over one side's runs, by least squares."""
    x = [run[side]["attempted"] for run in runs]
    y = [run[side]["metrics"]["peak_rss_mb"] for run in runs]
    if len(set(x)) < 2:
        return {"mb_per_1000_jobs": None, "intercept_mb": None, "mb_at_base_median_jobs": None}
    slope, intercept = map(float, np.polyfit(x, y, 1))
    return {"mb_per_1000_jobs": 1000.0 * slope, "intercept_mb": intercept,
            "mb_at_base_median_jobs": intercept + slope * jobs}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default every workload)")
    parser.add_argument("--pairs", type=int, default=10, help="untraced pairs (default 10)")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help=f"--seconds of each run (default {benchmark['run_seconds']})")
    parser.add_argument("--trace-pairs", type=int, default=0, help="traced pairs (default 0)")
    parser.add_argument("--out", default=".perfbench_out/bench_pairs.json", help="JSON path")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.trace_pairs < 0:
        parser.error("--pairs must be >= 1 and --trace-pairs >= 0")

    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    BUILD.mkdir(exist_ok=True)
    base_tree = Path(tempfile.mkdtemp(dir=BUILD)) / "base"
    _git("worktree", "add", "--detach", str(base_tree), base_rev)
    try:
        if not _same_tree(base_tree / "perfbench", ROOT / "perfbench"):
            raise SystemExit(f"error: perfbench/ differs between {args.base} and the working "
                             "tree; pairs need the same benchmark on both sides")
        seeds = list(range(args.first_seed, args.first_seed + args.pairs + args.trace_pairs))
        specs = {
            kind: {m["name"]: m for m in benchmark[kind]} for kind in ("end_to_end", "per_layer")
        }
        report = {}
        for workload in args.workload or workloads:
            runs = []
            for i, seed in enumerate(seeds):
                trace = i >= args.pairs
                sides = [("base", base_tree), ("head", ROOT)]
                if i % 2:
                    sides.reverse()
                run = {"seed": seed, "trace": trace, "first": sides[0][0]}
                for side, tree in sides:
                    run[side] = _run(tree, workload, seed, args.seconds, trace)
                    shown = "traced" if trace else json.dumps(run[side]["metrics"])
                    print(f"{workload} seed {seed} {side}: {shown}", file=sys.stderr)
                runs.append(run)
            entry = {}
            for kind, traced in (("end_to_end", False), ("per_layer", True)):
                chosen = [run for run in runs if run["trace"] == traced]
                if chosen:
                    measured = chosen[0]["base"]["metrics"]
                    entry[kind] = {name: _summary(chosen, name, spec)
                                   for name, spec in specs[kind].items() if name in measured}
            untraced = [run for run in runs if not run["trace"]]
            jobs = statistics.median(run["base"]["attempted"] for run in untraced)
            entry["rss_fit"] = {"base_median_attempted": jobs}
            for side in ("base", "head"):
                entry["rss_fit"][side] = _rss_fit(untraced, side, jobs)
            report[workload] = {**entry, "runs": runs}
    finally:
        _git("worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(base_tree.parent, ignore_errors=True)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "base": base_rev,
        "head": _git("rev-parse", "HEAD"),
        "head_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seconds": args.seconds,
        "seeds": seeds[: args.pairs],
        "trace_seeds": seeds[args.pairs:],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workloads": report,
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
