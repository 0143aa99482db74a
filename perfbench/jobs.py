"""What each workload runs, and how each job's output is checked.

A round is a fixed list of job templates.  The seed picks each job's
inputs (basis indices, target coefficients, moment exponents, cutoff
ladders) and the order within the round, never a job's size, so every
seed asks for about the same work.  Expected values come from
``targets``, which does not use scatterpoly.

A CLI job is one ``python -m scatterpoly`` process in a fresh directory;
it fails on a wrong exit code, on an output file that does not parse or
holds nan or inf, and on a missed accuracy check.  A library job calls
the public API of an already imported ``scatterpoly`` and is checked the
same way.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import targets

#: Absolute error allowed on coefficients and values of O(1) in-span inputs;
#: the float pipeline reaches about 1e-14.
TIGHT = 1e-9
#: The same for the CSV grid input, which the CLI resamples bilinearly, so
#: its expansion is of the interpolant rather than of the in-span target.
#: Over 150 seeds the worst errors were 0.025 (coefficients), 0.012
#: (residual) and 0.0024 (solution grid); a wrong sign or transposed grid
#: gives errors of order one.
CSV_COEF_TOL = 0.1
CSV_RESIDUAL_TOL = 0.05
CSV_GRID_TOL = 1e-2
#: Gram gates, as in the CLI's own verify battery.
GRAM_OFF_DIAG = 1e-11
GRAM_DIAG_REL = 1e-12

CSV_GRID = (48, 96)


class CheckFailed(Exception):
    """An output is missing, unparsable, non-finite or inaccurate."""


def indices(max_sum: int) -> list[tuple[int, int]]:
    """All (p, q) with p, q >= 1 and p + q <= max_sum, lexicographic."""
    return [(p, q) for p in range(1, max_sum) for q in range(1, max_sum - p + 1)]


def polar_nodes(n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    r = np.arange(n_radial, dtype=float) / n_radial
    theta = 2.0 * math.pi * np.arange(n_angular, dtype=float) / n_angular
    return r, theta


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- parsing outputs ---------------------------------------------------------


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite number {token}")


def load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: not JSON: {exc}") from exc


_LABEL = re.compile(r"\d+,\d+")


def load_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows; every non-label cell must be a finite number."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    _require(len(rows) >= 2, f"{path.name}: no data rows")
    for row in rows[1:]:
        for cell in row:
            if _LABEL.fullmatch(cell):
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise CheckFailed(f"{path.name}: bad cell {cell!r}") from exc
            _require(math.isfinite(value), f"{path.name}: non-finite cell {cell!r}")
    return rows[0], rows[1:]


def scan_outputs(jobdir: Path) -> int:
    """Parse every file a job wrote; return their total size in bytes."""
    total = 0
    for path in sorted(jobdir.iterdir()):
        total += path.stat().st_size
        if path.suffix == ".json":
            load_json(path)
        elif path.suffix == ".csv":
            load_csv(path)
        elif path.suffix == ".txt":
            try:
                targets.parse_poly_text(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise CheckFailed(f"{path.name}: {exc}") from exc
        else:
            raise CheckFailed(f"unexpected output {path.name}")
    return total


def read_grid(path: Path):
    """r, theta and complex values of an r,theta,re,im file (CSV or the eval JSON)."""
    if path.suffix == ".json":
        records = load_json(path)["grid"]
        cols = [np.array([rec[key] for rec in records], dtype=float) for key in ("r", "theta", "re", "im")]
    else:
        header, rows = load_csv(path)
        _require(header == ["r", "theta", "re", "im"], f"{path.name}: bad header")
        cols = list(np.array(rows, dtype=float).T)
    return cols[0], cols[1], cols[2] + 1j * cols[3]


def read_coefficients(path: Path) -> tuple[dict, dict]:
    """Coefficients {(p, q): complex} and the JSON payload ({} for CSV)."""
    if path.suffix == ".json":
        payload = load_json(path)
        coeffs = {(c["p"], c["q"]): complex(c["re"], c["im"]) for c in payload["coefficients"]}
        return coeffs, payload
    header, rows = load_csv(path)
    _require(header == ["p", "q", "re", "im"], f"{path.name}: bad header")
    return {(int(p), int(q)): complex(float(a), float(b)) for p, q, a, b in rows}, {}


def coefficient_error(coeffs: dict, expected: dict, max_sum: int) -> float:
    _require(sorted(coeffs) == indices(max_sum), "coefficient index set is wrong")
    return max(abs(c - expected.get(pq, 0.0)) for pq, c in coeffs.items())


def grid_error(r, theta, values, expected: targets.DiskSum) -> float:
    want = expected(r, theta)
    return float(np.max(np.abs(values - want))) / max(1.0, float(np.max(np.abs(want))))


def check_gram(labels: list[tuple[int, int]], entries: np.ndarray, max_sum: int) -> float:
    """Check a Gram matrix against the closed-form norms; return the off-diagonal max."""
    _require(labels == indices(max_sum), "gram index order is wrong")
    diag = np.diag(entries)
    norms = np.array([targets.norm_sq(p, q) for p, q in labels])
    diag_err = float(np.max(np.abs(diag - norms) / norms))
    off = float(np.max(np.abs(entries - np.diag(diag))))
    _require(diag_err < GRAM_DIAG_REL, f"gram diagonal off by {diag_err:.3g}")
    _require(off < GRAM_OFF_DIAG, f"gram off-diagonal {off:.3g}")
    return off


# -- CLI jobs ----------------------------------------------------------------


@dataclass
class CliJob:
    """One CLI invocation.  ``check`` raises CheckFailed or returns diagnostics."""

    command: str
    args: list[str]
    check: Callable[[Path], dict]


@dataclass(frozen=True)
class CsvInput:
    path: Path
    target: targets.DiskSum


def write_target_csv(path: Path, target: targets.DiskSum) -> None:
    """Sample target on CSV_GRID; the last radial node sits just inside the
    rim, so the CLI's bilinear resampling never clamps far from it."""
    n_radial, n_angular = CSV_GRID
    r = np.arange(n_radial, dtype=float) / (n_radial - 1)
    r[-1] = 1.0 - 1e-12
    theta = polar_nodes(n_radial, n_angular)[1]
    values = target(r[:, None], theta[None, :])
    lines = ["r,theta,re,im"]
    for i, ri in enumerate(r.tolist()):
        for j, tj in enumerate(theta.tolist()):
            v = complex(values[i, j])
            lines.append(f"{ri!r},{tj!r},{v.real!r},{v.imag!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _oriented(rng, low: int, total: int) -> tuple[int, int]:
    """(low, total - low) or its mirror image, by the seed.

    Exact construction costs grow with min{p,q} as well as p + q, and the
    two orientations cost the same, so the seed varies the input only.
    """
    pair = (low, total - low)
    return pair if rng.random() < 0.5 else pair[::-1]


def _input(kind: str, max_sum: int, rng, csv_input: Optional[CsvInput]):
    """(CLI input spec, target, coefficient tol, grid tol, residual tol).

    A builtin phi_P_Q has min{P,Q} <= 2, so sampling it costs the same
    whatever index the seed picks.
    """
    if kind == "phi":
        total = rng.randint(4, max_sum)
        p = rng.choice((1, 2, total - 2, total - 1))
        return f"builtin:phi_{p}_{total - p}", targets.phi(p, total - p), TIGHT, TIGHT, TIGHT
    if kind == "bump":
        return "builtin:radial_bump", targets.RADIAL_BUMP, TIGHT, TIGHT, TIGHT
    return str(csv_input.path), csv_input.target, CSV_COEF_TOL, CSV_GRID_TOL, CSV_RESIDUAL_TOL


def _diagnostics(tight: bool, coef_err: float, residual: Optional[float] = None) -> dict:
    """Accuracy diagnostics are kept only for in-span inputs with tight checks."""
    return {"coef_err": coef_err, "residual": residual} if tight else {}


def expand_job(kind: str, max_sum: int, fmt: str, rng, csv_input=None) -> CliJob:
    spec, target, tol, _, res_tol = _input(kind, max_sum, rng, csv_input)
    out = f"expansion.{fmt}"

    def check(jobdir: Path) -> dict:
        coeffs, payload = read_coefficients(jobdir / out)
        err = coefficient_error(coeffs, target.coefficients, max_sum)
        _require(err <= tol, f"coefficient error {err:.3g}")
        residual = None
        if payload:
            residual = payload["l2_residual"]
            _require(residual <= res_tol, f"residual {residual:.3g}")
            _require(payload["boundary_max"] == 0.0, "boundary_max is not 0")
        return _diagnostics(tol == TIGHT, err, residual)

    args = ["expand", spec, "--trunc", str(max_sum), "--format", fmt, "--out", out]
    return CliJob("expand", args, check)


def solve_job(kind: str, max_sum: int, rng, csv_input=None, grid: Optional[str] = None) -> CliJob:
    spec, target, tol, grid_tol, _ = _input(kind, max_sum, rng, csv_input)
    solution = target.solved()

    def check(jobdir: Path) -> dict:
        coeffs, payload = read_coefficients(jobdir / "solution.json")
        err = coefficient_error(coeffs, solution.coefficients, max_sum)
        _require(err <= tol, f"solve coefficient error {err:.3g}")
        _require(payload["boundary_max"] == 0.0, "boundary_max is not 0")
        if grid:
            r, theta, values = read_grid(jobdir / "solution_grid.csv")
            n_radial, n_angular = map(int, grid.split("x"))
            _require(values.size == n_radial * n_angular, "grid has the wrong size")
            g_err = grid_error(r, theta, values, solution)
            _require(g_err <= grid_tol, f"solution grid error {g_err:.3g}")
        return _diagnostics(tol == TIGHT, err)

    args = ["solve", spec, "--trunc", str(max_sum), "--format", "json", "--out", "solution.json"]
    return CliJob("solve", args + (["--grid", grid] if grid else []), check)


def eval_job(total: int, grid: str, fmt: str, rng) -> CliJob:
    """eval of phi^(p,q) with p + q = total and min{p,q} = total // 4."""
    p, q = _oriented(rng, max(1, total // 4), total)
    out = f"grid.{fmt}"

    def check(jobdir: Path) -> dict:
        r, theta, values = read_grid(jobdir / out)
        n_radial, n_angular = map(int, grid.split("x"))
        _require(values.size == n_radial * n_angular, "grid has the wrong size")
        err = grid_error(r, theta, values, targets.phi(p, q))
        _require(err <= TIGHT, f"eval error {err:.3g}")
        return {"coef_err": err}

    args = ["eval", str(p), str(q), "--grid", grid, "--format", fmt, "--out", out]
    return CliJob("eval", args, check)


def gram_job(max_sum: int, fmt: str) -> CliJob:
    out = f"gram.{fmt}"

    def check(jobdir: Path) -> dict:
        if fmt == "json":
            payload = load_json(jobdir / out)
            labels = [tuple(pq) for pq in payload["indices"]]
            entries = np.array(payload["entries"], dtype=float)
        else:
            header, rows = load_csv(jobdir / out)
            labels = [tuple(map(int, h.split(","))) for h in header[1:]]
            entries = np.array([row[1:] for row in rows], dtype=float)
        return {"residual": check_gram(labels, entries, max_sum)}

    return CliJob("gram", ["gram", str(max_sum), "--format", fmt, "--out", out], check)


def moments_job(fmt: str, rng, custom_ladder: bool) -> CliJob:
    m, n = rng.randint(0, 4), rng.randint(0, 4)
    ladder = [10.0**-k for k in range(2, 8)]
    args = ["moments", str(m), str(n), "--format", fmt, "--out", f"moments.{fmt}"]
    if custom_ladder:
        ladder = [10.0 ** rng.uniform(-8.0, -1.0) for _ in range(rng.randint(3, 6))]
        args += ["--eps-ladder", ",".join(repr(e) for e in ladder)]
    ladder.sort(reverse=True)

    def check(jobdir: Path) -> dict:
        path = jobdir / f"moments.{fmt}"
        if fmt == "json":
            payload = load_json(path)
            got = [(e["eps"], e["value"]) for e in payload["ladder"]]
        else:
            header, rows = load_csv(path)
            _require(header == ["eps", "value"], "bad moments header")
            got = [(float(a), float(b)) for a, b in rows]
        _require([e for e, _ in got] == ladder, "cutoff ladder differs from the request")
        want = [targets.truncated_moment(m, n, e) for e in ladder]
        err = max(abs(v - w) / abs(w) for (_, v), w in zip(got, want))
        _require(err <= TIGHT, f"moment error {err:.3g}")
        if fmt == "json" and len(ladder) > 1:
            slope = np.polyfit(np.log(1.0 / np.array(ladder)), np.array(want), 1)[0]
            _require(abs(payload["slope"] - slope) <= TIGHT * abs(slope), "slope differs")
        return {"coef_err": err}

    return CliJob("moments", args, check)


def verify_job(max_sum: int) -> CliJob:
    def check(jobdir: Path) -> dict:
        report = load_json(jobdir / "report.json")
        _require(report["all_pass"] is True, "verify reported a failure")
        _require(all(c["pass"] for c in report["checks"].values()), "a check failed")
        count = len(indices(max_sum))
        _require(report["checks"]["route_equivalence"]["indices_checked"] == count, "index count")
        rows = report["sign_table"]
        _require([(row["p"], row["q"]) for row in rows] == indices(max_sum), "sign table rows")
        for row in rows:
            _require(row["resolved_sign"] == (-1) ** (row["q"] + 1), f"sign of {row['p']},{row['q']}")
        worst = max(row["mismatch"] for row in rows)
        _require(worst <= 1e-12, f"factored-route mismatch {worst:.3g}")
        return {"coef_err": worst, "residual": report["checks"]["gram_diagonality"]["max_off_diagonal"]}

    return CliJob("verify", ["verify", str(max_sum), "--out", "report.json"], check)


def table_job(total: int, rng) -> CliJob:
    """table of phi^(p,q) with p + q = total and min{p,q} = total // 4."""
    p, q = _oriented(rng, max(1, total // 4), total)

    def check(jobdir: Path) -> dict:
        got = targets.parse_poly_text((jobdir / "poly.txt").read_text(encoding="utf-8"))
        want = {key: (c, 0) for key, c in targets.exact_phi(p, q).items()}
        _require(got == want, f"table {p} {q} differs from the binomial sum")
        return {"coef_err": 0.0}

    return CliJob("table", ["table", str(p), str(q), "--out", "poly.txt"], check)


def cold_round(rng, csv_input: CsvInput, tiny: bool = False) -> list[CliJob]:
    """The cli_float_cold mix: float commands, each paying cold construction.

    Twenty-three jobs in three clusters: nine bound by process start-up,
    five at truncation 12 or a 128x256 eval grid, and nine at truncation
    14 within about 10% of each other.  As many jobs sit below the middle
    cluster as above it, so the median lands in the middle cluster's
    centre.  The tail order statistic, the 11th slowest job, lands near
    the centre of the top cluster whether a run holds two rounds or
    three, so it is a middle order statistic of twenty or more similar
    jobs rather than an edge between clusters.
    """
    t = (lambda n: min(n, 6)) if tiny else (lambda n: n)
    g = (lambda spec: "8x16") if tiny else (lambda spec: spec)
    jobs = [
        moments_job("csv", rng, custom_ladder=False),
        moments_job("json", rng, custom_ladder=False),
        moments_job("csv", rng, custom_ladder=True),
        moments_job("json", rng, custom_ladder=True),
        eval_job(t(20), g("32x64"), "csv", rng),
        eval_job(t(20), g("32x64"), "json", rng),
        eval_job(t(28), g("64x128"), "csv", rng),
        eval_job(t(28), g("64x128"), "json", rng),
        eval_job(t(32), g("64x128"), "csv", rng),

        eval_job(t(24), g("128x256"), "csv", rng),
        eval_job(t(32), g("128x256"), "csv", rng),
        solve_job("bump", t(12), rng),
        expand_job("bump", t(12), "csv", rng),
        gram_job(t(12), "json"),

        gram_job(t(14), "csv"),
        expand_job("csv", t(14), "json", rng, csv_input),
        expand_job("csv", t(14), "csv", rng, csv_input),
        expand_job("phi", t(14), "json", rng),
        expand_job("phi", t(14), "csv", rng),
        solve_job("phi", t(14), rng),
        solve_job("phi", t(14), rng, grid=g("64x128")),
        solve_job("bump", t(14), rng, grid=g("64x128")),
        solve_job("csv", t(14), rng, csv_input, grid=g("64x128")),
    ]
    rng.shuffle(jobs)
    return jobs


def verify_round(rng, tiny: bool = False) -> list[CliJob]:
    """The cli_exact_verify mix: the exact layer used as an oracle.

    Twenty jobs: verify 24 once, verify 14 eight times, verify 12 twice,
    and nine tables at P+Q = 24, 26, ..., 40, which cost little above
    process start-up.  As many jobs sit above the verify 12 jobs as below
    them, so the median lands in their middle; the tail order statistic
    lands in the middle of the verify 14 jobs whether a run holds two
    rounds or three.  Exact work sets both,
    and neither falls on a gap between job kinds.
    """
    if tiny:
        sizes, totals = (5, 6), (6, 10)
    else:
        sizes, totals = (24,) + (14,) * 8 + (12,) * 2, tuple(range(24, 41, 2))
    jobs = [verify_job(n) for n in sizes] + [table_job(total, rng) for total in totals]
    rng.shuffle(jobs)
    return jobs


# -- library jobs ------------------------------------------------------------


@dataclass
class LibJob:
    """One call sequence into the public API, on a harness target."""

    command: str  # analysis | synthesis | gram
    size: int
    target: Optional[targets.DiskSum] = None


SYNTH_GRID = (128, 256)


def library_setup(tmax: int, seed: int, tiny: bool = False):
    """Import scatterpoly and warm its caches at tmax; return (seconds, module, grid).

    The warm-up calls expand, reconstruct and gram once at tmax, which
    builds every basis function the timed jobs use.
    """
    t0 = time.perf_counter()
    sp = importlib.import_module("scatterpoly")
    grid = polar_nodes(*((16, 32) if tiny else SYNTH_GRID))
    target = targets.random_disk_sum(random.Random(f"warm-{seed}"), min(tmax, 16))
    table = sp.expand(target, tmax)
    sp.reconstruct(table, *grid)
    sp.gram(sp.basis_indices(tmax))
    return time.perf_counter() - t0, sp, grid


def library_round(rng, tmax: int, tiny: bool = False) -> list[LibJob]:
    """The library_float_warm mix at truncations up to tmax, caches warm.

    Eleven jobs: analysis, synthesis and gram at tmax/2, 3tmax/4 and
    tmax, plus a second analysis at 3tmax/4 and a second gram at tmax.
    The repeats put the median inside the block of jobs costing as much
    as analysis at 3tmax/4, and the tail on gram at tmax for any run of
    six rounds or more.
    """
    sizes = (tmax // 2, 3 * tmax // 4, tmax)
    plan = [(command, size) for size in sizes for command in ("analysis", "synthesis", "gram")]
    plan += [("analysis", sizes[1]), ("gram", tmax)]
    jobs = [
        LibJob(command, size, None if command == "gram" else targets.random_disk_sum(rng, min(size, 16)))
        for command, size in plan
    ]
    rng.shuffle(jobs)
    return jobs


def run_library(job: LibJob, sp, grid) -> dict:
    """Make the job's API calls; return what the check needs."""
    if job.command == "analysis":
        table = sp.expand(job.target, job.size)
        return {"table": table, "residual": sp.expansion_residual(job.target, table)}
    if job.command == "synthesis":
        table = sp.solve_weighted_poisson(job.target, job.size)
        sample = sp.reconstruct(table, *grid)
        return {"table": table, "values": sample.values, "boundary": sp.boundary_value_check(table, 256)}
    return {"gram": sp.gram(sp.basis_indices(job.size))}


def check_library(job: LibJob, result: dict, grid) -> dict:
    if job.command == "gram":
        matrix = result["gram"]
        labels = [(idx.p, idx.q) for idx in matrix.indices]
        _require(np.all(np.isfinite(matrix.entries)), "gram is not finite")
        _require(float(np.max(np.abs(matrix.entries.imag))) == 0.0, "gram has imaginary parts")
        return {"residual": check_gram(labels, matrix.entries.real, job.size)}
    coeffs = {(idx.p, idx.q): c for idx, c in result["table"].items()}
    _require(all(np.isfinite(c) for c in coeffs.values()), "coefficients are not finite")
    if job.command == "analysis":
        err = coefficient_error(coeffs, job.target.coefficients, job.size)
        residual = result["residual"]
        _require(err <= TIGHT, f"coefficient error {err:.3g}")
        _require(0.0 <= residual <= TIGHT, f"residual {residual:.3g}")
        return {"coef_err": err, "residual": residual}
    solution = job.target.solved()
    err = coefficient_error(coeffs, solution.coefficients, job.size)
    _require(err <= TIGHT, f"solve coefficient error {err:.3g}")
    r, theta = grid
    g_err = grid_error(r[:, None], theta[None, :], result["values"], solution)
    _require(g_err <= TIGHT, f"reconstruction error {g_err:.3g}")
    _require(result["boundary"] == 0.0, "boundary_max is not 0")
    return {"coef_err": max(err, g_err)}
