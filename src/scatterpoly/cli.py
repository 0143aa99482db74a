"""Command line front end: construction, verification, Gram matrices,
moment ladders, expansion, and the diagonal solve as batch commands.

Every command writes its primary result to a file (CSV or JSON) and a
one-line summary to stdout.  One writer, :func:`_write`, serves every
file: a command describes its result once, as a :class:`Table` in a JSON
payload, and the writer emits the table's rows as CSV or the payload as
JSON, a block of rows at a time.  Every value is checked before the file
opens, so no output file ever holds a nan or an infinity, and a refused
value leaves no file.  Output is deterministic byte for byte for one machine
and numpy build, at any BLAS thread count (the synthesis behind the grid CSVs
and the residual is an inverse FFT, which runs no BLAS):
floats are always rendered through the same 17-significant-digit format,
orderings are fixed, and no timestamps leak in.  Exit codes:
0 success, 1 verification or internal failure, 2 usage error, which
includes sizes above the limits on work (:data:`MAX_TABLE_SUM`,
:data:`MAX_VERIFY_SUM`, :data:`MAX_TRUNC`, :data:`MAX_GRAM_SUM`,
:data:`MAX_GRID_CELLS`, :data:`MAX_MOMENT_SUM`) and an output path that
cannot be written.

Import boundary: this module loads only :mod:`scatterpoly.scattering`, whose
construction half needs neither numpy nor :mod:`scatterpoly.poly_algebra` at
import.  Each float command imports numpy and the float layers it uses when it
runs, after its arguments have passed every check, so ``table``, ``--help``,
usage errors, size-limit exits and bad builtin inputs never import numpy (an
input file is checked as it is read, once numpy is loaded).  The exact
polynomial layer comes in with the commands that build exact polynomials,
``table`` and ``verify``, so no float command loads it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, TextIO

from .scattering import (
    PQIndex,
    SignValidationError,
    _plan,
    basis_indices,
    eigencheck,
    factored_deviation,
    jacobi_form,
    mode_kernels,
    radial_sum_profile,
    rodrigues,
    rodrigues_profile,
    sign_resolution,
)

if TYPE_CHECKING:
    from .transform import ExpansionTable, GridSample


class CLIError(Exception):
    """Bad invocation or bad input data; maps to exit code 2."""


class NonFiniteOutputError(ArithmeticError):
    """A result to be printed or written is nan or infinite; exit code 1."""


def format_float(x: float) -> str:
    """One value through :func:`format_floats`."""
    return format_floats(x)[0]


def format_floats(a) -> list[str]:
    """Every value of a float array at 17 significant digits, in flat order:
    one finiteness check (nan or an infinity raises :class:`NonFiniteOutputError`),
    then ``"%.17g"`` over the nonzero values and ``0`` for the zeros, -0.0
    included, which a Gram matrix is almost all of."""
    values = _finite(a).ravel()
    nonzero = values.nonzero()[0]
    out = ["0"] * values.size
    for i, text in zip(nonzero.tolist(), map("%.17g".__mod__, values[nonzero].tolist())):
        out[i] = text
    return out


def _finite(a):
    """a as a float array, or :class:`NonFiniteOutputError` naming a bad value."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteOutputError(f"refusing to output non-finite value {a[~np.isfinite(a)][0]}")
    return a


#: Cells per block of rows that the writer formats and writes at a time.
_BLOCK_CELLS = 1 << 12


class Table:
    """An output table: a header over text columns (numbers already
    rendered, or labels), then the columns of the 2-D float array
    ``values``, checked finite here.  In JSON each row is an object keyed
    by the header, its text cells written as they are, or with
    ``records=False`` the array of its values alone."""

    def __init__(self, header: list[str], text: list[list[str]], values, records: bool = True):
        self.header, self.text, self.values, self.records = header, text, _finite(values), records

    def _row_blocks(self, text: list[list[str]]) -> Iterator[list[tuple[str, ...]]]:
        """Rows of the text columns ``text`` and the formatted values, a block at a time."""
        n_rows, width = self.values.shape
        step = max(1, _BLOCK_CELLS // len(self.header))
        for start in range(0, n_rows, step):
            cells = iter(format_floats(self.values[start:start + step]))
            yield list(zip(*(column[start:start + step] for column in text), *[cells] * width))

    def csv_blocks(self) -> Iterator[str]:
        """The header and the rows as CSV lines, quoted as :mod:`csv` quotes them."""
        yield ",".join(_csv_fields(self.header)) + "\r\n"
        for rows in self._row_blocks([_csv_fields(column) for column in self.text]):
            yield "\r\n".join(map(",".join, rows)) + "\r\n"

    def json_blocks(self, indent: int) -> Iterator[str]:
        """The table as a JSON value at ``indent``, a block of rows at a time."""
        if not self.records or not len(self.values):
            yield from _json_parts(self.values, indent)
            return
        pad = "  " * indent
        keys = ",\n".join(f"{pad}    {json.dumps(h).replace('%', '%%')}: %s" for h in self.header)
        record, sep = f"{pad}  {{\n{keys}\n{pad}  }}", "[\n"
        for rows in self._row_blocks(self.text):
            yield sep + ",\n".join(map(record.__mod__, rows))
            sep = ",\n"
        yield f"\n{pad}]"


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_fields(cells: list[str]) -> list[str]:
    """cells as CSV fields: quoted, with quotes doubled, where they hold a
    comma, a quote or a line break (the :mod:`csv` default dialect)."""
    if not any(map(_CSV_SPECIAL.search, set(cells))):
        return cells
    return ['"%s"' % c.replace('"', '""') if _CSV_SPECIAL.search(c) else c for c in cells]


def _json_parts(obj, indent: int = 0) -> Iterator:
    """The text of :func:`render_json` in order: strings, rendered and
    checked as they come, and for each :class:`Table` a lazy iterator of
    strings, its values being checked already.  A float array renders as
    nested lists, each innermost one in bulk."""
    pad = "  " * indent
    float_array = getattr(obj, "ndim", 0) > 0 and obj.dtype.kind == "f"
    if isinstance(obj, Table):
        yield obj.json_blocks(indent)
    elif isinstance(obj, float):
        yield format_float(obj)
    elif obj is None or isinstance(obj, (bool, int, str)):
        yield json.dumps(obj)
    elif getattr(obj, "shape", None) == ():
        # a numpy scalar (np.bool_, np.int64, np.float32, ...) as its Python value
        yield from _json_parts(obj.item(), indent)
    elif float_array and obj.ndim == 1 and len(obj):
        body = f",\n{pad}  ".join(format_floats(obj))
        yield f"[\n{pad}  {body}\n{pad}]"
    elif isinstance(obj, (dict, list, tuple)) or float_array:
        if isinstance(obj, dict):
            items, brackets = ((f"{json.dumps(str(k))}: ", v) for k, v in obj.items()), "{}"
        else:
            items, brackets = (("", item) for item in obj), "[]"
        sep = brackets[0] + "\n"
        for prefix, value in items:
            yield f"{sep}{pad}  {prefix}"
            yield from _json_parts(value, indent + 1)
            sep = ",\n"
        yield f"\n{pad}{brackets[1]}" if len(obj) else brackets
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats through :func:`format_float`."""
    return "".join(p if isinstance(p, str) else "".join(p) for p in _json_parts(obj, indent))


@contextmanager
def _opened(path: str) -> Iterator[TextIO]:
    """The one way an output file opens; an OSError exits 2 naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from exc


def _write(out: str, fmt: str, payload, key: Optional[str] = None) -> None:
    """The one writer: the :class:`Table` ``payload[key]`` as CSV rows, or
    ``payload`` as JSON.  Tables are checked when built, and the rest of a
    JSON payload renders here, so every value is checked before the file
    opens; the tables are then formatted and written a block at a time."""
    parts = [payload[key].csv_blocks()] if fmt == "csv" else list(_json_parts(payload)) + ["\n"]
    with _opened(out) as fh:
        for part in parts:
            fh.writelines([part] if isinstance(part, str) else part)


def _parse_index(p: int, q: int, max_sum: int, work: str) -> PQIndex:
    idx = PQIndex(p, q)
    if p + q > max_sum:
        raise CLIError(f"p + q must be <= {max_sum} (limit on {work} work)")
    return idx


def _parse_grid_spec(spec: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", spec)
    if not match:
        raise CLIError(f"grid must look like NRxNT, got '{spec}'")
    n_radial, n_angular = int(match.group(1)), int(match.group(2))
    if n_radial < 2 or n_angular < 2:
        raise CLIError("grid must be at least 2x2")
    if n_radial * n_angular > MAX_GRID_CELLS:
        raise CLIError(f"grid must have at most {MAX_GRID_CELLS} cells (limit on float work)")
    return n_radial, n_angular


def _grid_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per row after a grid file's header; read faults exit 2 naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            if [cell.strip() for cell in next(reader, [])] != ["r", "theta", "re", "im"]:
                raise CLIError(f"{path}: line 1: expected header r,theta,re,im")
            yield from ((reader.line_num, row) for row in reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        raise CLIError(f"{path}: line {reader.line_num}: {exc}") from exc


def _load_grid_csv(path: str) -> GridSample:
    """Read an r,theta,re,im grid file, reporting the offending line; its
    nodes must form a full rectangle of at least 2 radii by 2 angles."""
    table: dict[tuple[float, float], tuple[int, complex]] = {}
    max_lines = 2 * MAX_GRID_CELLS + 1  # room for a blank line after each data row
    for line_no, row in _grid_rows(path):
        if line_no > max_lines:
            raise CLIError(f"{path}: more than {max_lines} lines (limit on float work)")
        if not row:
            continue
        if len(table) == MAX_GRID_CELLS:
            raise CLIError(f"{path}: more than {MAX_GRID_CELLS} data rows (limit on float work)")
        if len(row) != 4:
            raise CLIError(f"{path}: line {line_no}: expected 4 fields, got {len(row)}")
        try:
            fields = [float(cell) for cell in row]
        except ValueError as exc:
            raise CLIError(f"{path}: line {line_no}: {exc}") from exc
        for name, value in zip(("r", "theta", "re", "im"), fields):
            if not math.isfinite(value):
                raise CLIError(f"{path}: line {line_no}: {name} is not finite ({value})")
        r, theta, re_part, im_part = fields
        if (r, theta) in table:
            raise CLIError(
                f"{path}: line {line_no}: repeats the node r={r}, theta={theta} "
                f"of line {table[(r, theta)][0]}"
            )
        table[(r, theta)] = line_no, complex(re_part, im_part)
    if not table:
        raise CLIError(f"{path}: no data rows")
    r_nodes = sorted({key[0] for key in table})
    theta_nodes = sorted({key[1] for key in table})
    import numpy as np

    from .transform import GridSample

    values = np.empty((len(r_nodes), len(theta_nodes)), dtype=complex)
    for i, r in enumerate(r_nodes):
        for j, theta in enumerate(theta_nodes):
            if (r, theta) not in table:
                raise CLIError(
                    f"{path}: grid is not a full rectangle; missing r={r}, theta={theta}"
                )
            values[i, j] = table[(r, theta)][1]
    try:
        sample = GridSample(np.array(r_nodes), np.array(theta_nodes), values)
    except ValueError as exc:
        raise CLIError(f"{path}: {exc}") from exc
    n_radial, n_angular = values.shape
    if n_radial < 2 or n_angular < 2:
        raise CLIError(f"{path}: grid must be at least 2x2, got {n_radial}x{n_angular}")
    return sample


_BUILTIN_PATTERN = re.compile(r"phi_(\d+)_(\d+)")


def _resolve_input(spec: str) -> tuple[Callable[[float, float], complex], str]:
    """Turn an input spec into a disk function.

    'builtin:phi_P_Q', 'builtin:radial_bump', and 'builtin:one' need no
    external data; anything else is a path to an r,theta,re,im CSV grid,
    resampled by bilinear interpolation.  Every one takes floats or
    broadcasting arrays, so it is sampled in one call per grid.  A
    builtin's name and index are checked before numpy is imported.
    """
    name = spec[len("builtin:"):] if spec.startswith("builtin:") else None
    match = _BUILTIN_PATTERN.fullmatch(name or "")
    if match:
        idx = _parse_index(int(match.group(1)), int(match.group(2)), MAX_TRUNC, "float")
    elif name not in (None, "one", "radial_bump"):
        raise CLIError(f"unknown builtin '{name}' (available: phi_P_Q, radial_bump, one)")
    import numpy as np

    from .transform import basis_function, grid_interpolant

    if name == "one":
        return (lambda r, theta: np.ones(np.broadcast(r, theta).shape, dtype=complex)), spec
    if name == "radial_bump":
        return (lambda r, theta: (1.0 - r * r) * (1.0 - r * r) + 0j), spec
    if match:
        return basis_function(idx), spec
    sample = _load_grid_csv(spec)
    try:
        return grid_interpolant(sample), spec
    except ValueError as exc:
        raise CLIError(f"{spec}: {exc}") from exc


def _grid_table(r, theta, values) -> Table:
    """r, theta, re, im per node of a polar grid, theta varying fastest;
    each node coordinate is formatted once."""
    theta_text = format_floats(theta)
    r_column = [text for text in format_floats(r) for _ in theta_text]
    re_im = values.reshape(-1, 1).view(float)  # each complex128 cell as a row (re, im)
    return Table(["r", "theta", "re", "im"], [r_column, theta_text * len(r)], re_im)


def _coefficient_table(table: ExpansionTable) -> Table:
    """p, q, re, im per coefficient, in index order."""
    p = [str(idx.p) for idx in table.indices]
    q = [str(idx.q) for idx in table.indices]
    return Table(["p", "q", "re", "im"], [p, q], table.values.reshape(-1, 1).view(float))


# -- subcommands -----------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    idx = _parse_index(args.p, args.q, MAX_TRUNC, "float")
    n_radial, n_angular = _parse_grid_spec(args.grid)
    from .transform import polar_grid

    r, theta = polar_grid(n_radial, n_angular)
    values = jacobi_form(idx).value(r[:, None], theta[None, :])
    payload = {"p": idx.p, "q": idx.q, "grid": _grid_table(r, theta, values)}
    out = args.out or f"phi_{idx.p}_{idx.q}_grid.{args.format}"
    _write(out, args.format, payload, "grid")
    print(f"wrote {out} ({n_radial}x{n_angular} polar grid of phi_{idx.p}_{idx.q})")
    return 0


#: Limits on work; a larger size exits 2 naming its limit before any float
#: layer is imported.  Values and the cold time and memory at each limit:
#: README, Performance.
#: Largest p + q that ``table`` prints and largest ``verify`` truncation;
#: the exact work grows about cubically in p + q.
MAX_TABLE_SUM = 1000
MAX_VERIFY_SUM = 64
#: Largest ``expand``/``solve --trunc``, and p + q of ``eval P Q`` and of
#: ``builtin:phi_P_Q``, whose first lookup checks its mode's members up to it.
MAX_TRUNC = 128
#: Largest ``gram N``: its matrix holds (N(N-1)/2)^2 float64 entries, 32 MB
#: at 64, and its output rows take several times that.
MAX_GRAM_SUM = 64
#: Most cells of an ``eval --grid`` or ``expand``/``solve --grid`` output or an input grid file.
MAX_GRID_CELLS = 512 * 512
#: Largest m + n for ``moments m n``: the angular constant's (2(m+n))!!
#: overflows a double beyond it.
MAX_MOMENT_SUM = 150
#: ``expand`` reports a divergent residual, not a number, for a target whose
#: largest |f| on 256 points of the rim exceeds this.
RIM_TOLERANCE = 1e-6


def cmd_table(args: argparse.Namespace) -> int:
    idx = _parse_index(args.p, args.q, MAX_TABLE_SUM, "exact")
    text = rodrigues(idx).to_text()
    if args.out:
        with _opened(args.out) as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


#: The sign table compares both routes at the radii k/11, k = 1..10.
_VERIFY_RADII = range(1, 11)
_VERIFY_RADIUS_DEN = 11


def _sign_mismatches(indices: Sequence[PQIndex]):
    """Scaled deviation of the factored route from the exact polynomial,
    per index, with every factored value from one :func:`mode_kernels` call."""
    import numpy as np

    r = np.array(_VERIFY_RADII) / _VERIFY_RADIUS_DEN
    out = np.empty(len(indices))
    for _, positions, kernel in mode_kernels(indices, r):
        profiles = (rodrigues_profile(indices[k]) for k in positions)
        values = (profile.numerators_at(_VERIFY_RADII, _VERIFY_RADIUS_DEN) for profile in profiles)
        exact = [[num / den for num in numerators] for numerators, den in values]
        deviation, scale = factored_deviation(r, kernel, exact)
        out[positions] = deviation / scale
    return out


def _sign_table(indices: Sequence[PQIndex]) -> Table:
    """``verify``'s sign table; :func:`_sign_mismatches` checks every mode before any lookup."""
    mismatches = _sign_mismatches(indices)
    records = [sign_resolution(idx) for idx in indices]
    text = [[json.dumps(record[key]) for record in records] for key in records[0]]
    return Table([*records[0], "mismatch"], text, mismatches[:, None])


def _failures(bad: list[PQIndex], **counts: int) -> dict:
    return {"pass": not bad, **counts, "failures": [[i.p, i.q] for i in bad]}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_sum > MAX_VERIFY_SUM:
        raise CLIError(f"max_sum must be <= {MAX_VERIFY_SUM} (limit on exact work)")
    indices = basis_indices(args.max_sum)
    import numpy as np

    from .poly_algebra import NotDivisibleError
    from .quadrature import gram

    route_bad = [
        i for i in indices if not rodrigues_profile(i).same_polynomial(radial_sum_profile(i))
    ]
    eigen_bad = [i for i in indices if not eigencheck(i)]
    boundary_bad = []
    for idx in indices:
        try:
            rodrigues_profile(idx).divide_by_boundary()
        except NotDivisibleError:
            boundary_bad.append(idx)

    sign_table = _sign_table(indices)
    worst_mismatch = float(sign_table.values.max())
    sign_ok = worst_mismatch <= 1e-12

    matrix = gram(indices)
    off_diag = matrix.max_off_diagonal()
    norms = _plan(tuple(indices)).norms
    diag_err = float(np.max(np.abs(matrix.diagonal() - norms) / norms))
    gram_ok = bool(off_diag < 1e-11 and diag_err < 1e-12)

    checks = {
        "route_equivalence": _failures(route_bad, indices_checked=len(indices)),
        "eigenrelation": _failures(eigen_bad),
        "boundary_vanishing": _failures(boundary_bad),
        "jacobi_sign": {"pass": sign_ok, "max_mismatch": worst_mismatch},
        "gram_diagonality": {
            "pass": gram_ok,
            "max_off_diagonal": off_diag,
            "max_diagonal_relative_error": diag_err,
        },
    }
    all_pass = all(check["pass"] for check in checks.values())
    report = {
        "max_sum": args.max_sum,
        "checks": checks,
        "sign_table": sign_table,
        "all_pass": all_pass,
    }
    out = args.out or "verify_report.json"
    _write(out, "json", report)
    for name, check in checks.items():
        print(f"{name}: {'pass' if check['pass'] else 'FAIL'}")
    print(f"wrote {out}")
    return 0 if all_pass else 1


def cmd_gram(args: argparse.Namespace) -> int:
    if args.max_sum > MAX_GRAM_SUM:
        raise CLIError(f"max_sum must be <= {MAX_GRAM_SUM} (limit on float work)")
    indices = basis_indices(args.max_sum)
    from .quadrature import gram

    matrix = gram(indices)
    labels = [f"{idx.p},{idx.q}" for idx in indices]
    payload = {
        "indices": [[idx.p, idx.q] for idx in indices],
        "entries": Table(["index"] + labels, [labels], matrix.entries, records=False),
    }
    out = args.out or f"gram_{args.max_sum}.{args.format}"
    _write(out, args.format, payload, "entries")
    off_diagonal = format_float(matrix.max_off_diagonal())
    print(f"wrote {out} ({len(labels)}x{len(labels)}); max off-diagonal {off_diagonal}")
    return 0


def _parse_eps_ladder(spec: str) -> tuple[float, ...]:
    """Cutoffs for ``--eps-ladder``: at least two distinct, each a normal
    double below 1, so 1/eps stays finite and the slope is determined."""
    try:
        values = tuple(float(part) for part in spec.split(",") if part.strip())
    except ValueError as exc:
        raise CLIError(f"bad --eps-ladder: {exc}") from exc
    if any(not sys.float_info.min <= eps < 1.0 for eps in values):
        raise CLIError(f"--eps-ladder values must lie in [{sys.float_info.min!r}, 1)")
    if len(set(values)) < 2:
        raise CLIError("--eps-ladder must list at least two distinct cutoffs")
    return values


def cmd_moments(args: argparse.Namespace) -> int:
    if args.m < 0 or args.n < 0:
        raise CLIError("moment exponents must be nonnegative")
    if args.m + args.n > MAX_MOMENT_SUM:
        raise CLIError(f"m + n must be <= {MAX_MOMENT_SUM} (limit on float range)")
    ladder = None if args.eps_ladder is None else _parse_eps_ladder(args.eps_ladder)
    from .quadrature import DEFAULT_EPS_LADDER, moment_ladder, moment_slope

    estimate = moment_ladder(args.m, args.n, ladder or DEFAULT_EPS_LADDER)
    slope = moment_slope(estimate)
    ladder = Table(["eps", "value"], [], list(zip(estimate.cutoffs, estimate.values)))
    payload = {"m": args.m, "n": args.n, "ladder": ladder, "slope": slope}
    out = args.out or f"moments_{args.m}_{args.n}.{args.format}"
    _write(out, args.format, payload, "ladder")
    print(f"wrote {out}; slope vs ln(1/eps): {format_float(slope)}")
    return 0


def cmd_expansion(args: argparse.Namespace) -> int:
    """``expand`` (coefficients of the input) and ``solve`` (of the weighted
    Poisson solution), each optionally with its reconstruction on a grid."""
    if args.trunc < 2:
        raise CLIError("--trunc must be >= 2")
    if args.trunc > MAX_TRUNC:
        raise CLIError(f"--trunc must be <= {MAX_TRUNC} (limit on float work)")
    grid = _parse_grid_spec(args.grid) if args.grid else None
    f, label = _resolve_input(args.input)
    from . import transform

    solve = args.command == "solve"
    table = (transform.solve_weighted_poisson if solve else transform.expand)(f, args.trunc)
    # the Table refuses a non-finite coefficient here, before the checks below read the table
    payload = {"input": label, "truncation": args.trunc, "coefficients": _coefficient_table(table)}
    summary = ""
    rim = 0.0 if solve else transform.rim_amplitude(f, 256)
    if rim > RIM_TOLERANCE:
        # the weighted norm of f - partial sum is infinite; print no number for it
        payload.update(l2_residual=None, l2_residual_divergent=True, rim_amplitude=rim)
        summary = f"; L2 residual divergent (rim amplitude {format_float(rim)})"
    elif not solve:
        payload["l2_residual"] = transform.expansion_residual(f, table)
        summary = f"; L2 residual {format_float(payload['l2_residual'])}"
    payload["boundary_max"] = transform.boundary_value_check(table, 256)
    out = args.out or f"{'solution' if solve else 'expansion'}.{args.format}"
    _write(out, args.format, payload, "coefficients")
    print(f"wrote {out}{summary}")
    if grid:
        r, theta = transform.polar_grid(*grid)
        sample = transform.reconstruct(table, r, theta)
        grid_out = os.path.splitext(out)[0] + "_grid.csv"
        _write(grid_out, "csv", {"grid": _grid_table(r, theta, sample.values)}, "grid")
        print(f"wrote {grid_out}")
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterpoly",
        description="Orthogonal eigenbasis of the weighted unit disk: "
        "evaluate, verify, and expand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt_default: str) -> None:
        p.add_argument("--out", help="output path (default depends on command)")
        p.add_argument(
            "--format", choices=("csv", "json"), default=fmt_default,
            help=f"output format (default {fmt_default})",
        )

    p_eval = sub.add_parser("eval", help="sample one basis function on a polar grid")
    p_eval.add_argument("p", type=int)
    p_eval.add_argument("q", type=int)
    p_eval.add_argument("--grid", default="32x64", help="NRxNT polar resolution")
    add_common(p_eval, "csv")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="print one basis polynomial exactly")
    p_table.add_argument("p", type=int)
    p_table.add_argument("q", type=int)
    p_table.add_argument("--out", help="write instead of printing")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("max_sum", type=int)
    p_verify.add_argument("--out", help="report path (default verify_report.json)")
    p_verify.set_defaults(func=cmd_verify)

    p_gram = sub.add_parser("gram", help="Gram matrix of the truncated basis")
    p_gram.add_argument("max_sum", type=int)
    add_common(p_gram, "csv")
    p_gram.set_defaults(func=cmd_gram)

    p_moments = sub.add_parser("moments", help="divergent-moment cutoff ladder")
    p_moments.add_argument("m", type=int)
    p_moments.add_argument("n", type=int)
    p_moments.add_argument("--eps-ladder", help="comma-separated cutoffs, e.g. 1e-2,1e-3,1e-4")
    add_common(p_moments, "csv")
    p_moments.set_defaults(func=cmd_moments)

    for name, blurb in (
        ("expand", "expand a disk function in the basis"),
        ("solve", "solve the weighted Poisson problem"),
    ):
        p_cmd = sub.add_parser(name, help=blurb)
        p_cmd.add_argument(
            "input", help="builtin:phi_P_Q | builtin:radial_bump | builtin:one | grid CSV path"
        )
        p_cmd.add_argument("--trunc", type=int, default=8, help="max p+q (default 8)")
        p_cmd.add_argument("--grid", help="also write a NRxNT reconstruction grid")
        add_common(p_cmd, "json")
        p_cmd.set_defaults(func=cmd_expansion)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SignValidationError, ArithmeticError) as exc:
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
