"""Expansion in the disk eigenbasis, synthesis back to grids, and the
diagonal solve it enables.

A function on the disk is projected onto every basis member with
p + q <= truncation; because the basis diagonalizes the weighted
Laplacian with eigenvalue p*q, solving -Lu = f in the truncated span
is coefficientwise division.  Truncated syntheses vanish identically on
the unit circle, so the solve respects zero Dirichlet data by
construction rather than by enforcement.

Both directions take one pass per angular mode n = q - p, whose members
share one kernel matrix K_n (:func:`scatterpoly.scattering.mode_kernels`):
projection samples f once, splits modes by FFT and applies K_n^T; synthesis
stacks the sums (1 - r^2) K_n c_n as columns of A, values = A @ e^(i n theta).
A whole basis keeps its K_n at the projection rule, at the residual rule
and at the rim r = 1 of :func:`boundary_value_check` in the one kernel
cache keyed by (T, Gauss-Legendre order or None for the rim) that
:func:`~scatterpoly.quadrature.gram` shares; caller grids and tables that
are not a whole basis build theirs per call.  A table whose keys are a
whole basis is built without per-key checks, and :func:`solve_table`
divides it by one cached eigenvalue vector.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .jacobi import gauss_legendre
from .poly_algebra import BivariatePoly, ComplexRational
from .quadrature import DiskFunction, angle_grid, inner_products, sample_polar
from .scattering import (
    PQIndex,
    _basis_size,
    _rule_kernels,
    basis_indices,
    jacobi_form,
    mode_kernels,
    norm_sq,
    radial_sum_profile,
)


@dataclass(frozen=True)
class ExpansionTable:
    """Coefficients of a truncated expansion, keyed by PQIndex.

    Every key satisfies p + q <= truncation; absent keys mean zero.
    ``coefficients`` iterates in lexicographic index order, with complex
    values.  Keys that are a whole basis p + q <= T', T' <= truncation, in
    basis order (the tables of :func:`expand` and :func:`solve_table`) are
    recognised by one tuple comparison and kept as they come: no per-key
    check, sort or rehash.  Any other keys are checked and sorted.
    """

    coefficients: Mapping[PQIndex, complex]
    truncation: int

    def __post_init__(self) -> None:
        keys = tuple(self.coefficients)
        if 0 < _basis_size(keys) <= self.truncation:
            coefficients = dict(self.coefficients)
            if not set(map(type, coefficients.values())) <= {complex}:
                coefficients = dict(zip(keys, map(complex, coefficients.values())))
        else:
            for idx in keys:
                if not isinstance(idx, PQIndex):
                    raise TypeError("coefficient keys must be PQIndex")
                if idx.p + idx.q > self.truncation:
                    raise ValueError(f"{idx} exceeds truncation {self.truncation}")
            ordered = sorted(self.coefficients.items(), key=lambda kv: kv[0])
            coefficients = {idx: complex(c) for idx, c in ordered}
        object.__setattr__(self, "coefficients", coefficients)

    def items(self) -> list[tuple[PQIndex, complex]]:
        """Coefficients in lexicographic index order."""
        return list(self.coefficients.items())

    def coefficient(self, idx: PQIndex) -> complex:
        return self.coefficients.get(idx, 0j)


@dataclass(frozen=True)
class GridSample:
    """Values on a polar tensor grid; radial nodes stay inside [0, 1)."""

    radial_nodes: np.ndarray
    angular_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.radial_nodes, dtype=float)
        theta = np.asarray(self.angular_nodes, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (r.size, theta.size):
            raise ValueError("values shape must be (radial, angular)")
        if not np.isfinite(theta).all():
            raise ValueError("angular nodes must be finite")
        if not ((r >= 0.0) & (r < 1.0)).all():
            raise ValueError("radial nodes must lie in [0, 1)")
        object.__setattr__(self, "radial_nodes", r)
        object.__setattr__(self, "angular_nodes", theta)
        object.__setattr__(self, "values", values)


def polar_grid(n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform open polar grid: r = i/n_radial, theta = 2 pi j/n_angular."""
    if n_radial < 1 or n_angular < 1:
        raise ValueError("grid sizes must be >= 1")
    return np.arange(n_radial, dtype=float) / n_radial, angle_grid(n_angular)


def basis_function(idx: PQIndex) -> DiskFunction:
    """phi^(idx) as a plain callable on (r, theta)."""
    return jacobi_form(idx).value


def expand(
    f: DiskFunction,
    truncation: int,
    radial_order: Optional[int] = None,
    angular_points: Optional[int] = None,
) -> ExpansionTable:
    """Project f onto every basis member with p + q <= truncation.

    Coefficients are <f, phi> / ||phi||^2.  Defaults follow the sampling
    policy radial order = truncation + 8, angular points =
    4 * truncation + 16, enough for every in-range angular mode and for
    polynomial targets of matching degree.
    """
    order = radial_order if radial_order is not None else truncation + 8
    points = angular_points if angular_points is not None else 4 * truncation + 16
    indices = basis_indices(truncation)
    coefficients = inner_products(f, indices, order, points) / _basis_norms(truncation)
    return ExpansionTable(dict(zip(indices, coefficients.tolist())), truncation)


@lru_cache(maxsize=8)
def _basis_norms(truncation: int) -> np.ndarray:
    """:func:`norm_sq` of every basis member, read-only, in basis order."""
    norms = np.array([norm_sq(idx) for idx in basis_indices(truncation)])
    norms.flags.writeable = False
    return norms


@lru_cache(maxsize=8)
def _basis_eigenvalues(truncation: int) -> np.ndarray:
    """The eigenvalue p*q of every basis member as a float, read-only, in basis order."""
    eigenvalues = np.array([idx.eigenvalue for idx in basis_indices(truncation)], dtype=float)
    eigenvalues.flags.writeable = False
    return eigenvalues


def _synthesize(
    table: ExpansionTable, r: np.ndarray, theta: np.ndarray, kernels: Optional[Iterable] = None
) -> np.ndarray:
    """Partial sum on the tensor grid r x theta, one column of A per mode.

    ``kernels`` are the table's :func:`mode_kernels` at r, built here when
    not given.  A nan or infinite coefficient raises ValueError naming its
    index, as :func:`synthesize_exact` does.
    """
    coeffs = _finite_coefficients(table)
    if kernels is None:
        kernels = mode_kernels(list(table.coefficients), r)
    # the (1 - r^2) factor stays explicit, so the sum is 0 at r = 1 exactly
    rim_factor = 1.0 - r * r
    ns, columns = [], []
    for n, positions, kernel in kernels:
        ns.append(n)
        columns.append(rim_factor * (kernel @ coeffs[positions]))
    radial = np.array(columns, dtype=complex).reshape(len(ns), r.size).T
    return radial @ np.exp(1j * np.array(ns, dtype=float)[:, None] * theta[None, :])


def _finite_coefficients(table: ExpansionTable) -> np.ndarray:
    """The table's coefficients in index order, or ValueError naming the
    first nan or infinite one."""
    coeffs = np.array(list(table.coefficients.values()))
    if not np.isfinite(coeffs).all():
        idx, c = next((idx, c) for idx, c in table.items() if not cmath.isfinite(c))
        raise ValueError(f"coefficient of {idx} is not finite: {c!r}")
    return coeffs


def reconstruct(
    table: ExpansionTable, radial_nodes: Sequence[float], angular_nodes: Sequence[float]
) -> GridSample:
    """Pointwise partial sum of the expansion on a polar tensor grid."""
    r = np.asarray(radial_nodes, dtype=float)
    theta = np.asarray(angular_nodes, dtype=float)
    return GridSample(radial_nodes=r, angular_nodes=theta, values=_synthesize(table, r, theta))


def boundary_value_check(table: ExpansionTable, n_theta: int) -> float:
    """Max |partial sum| over n_theta points of the unit circle.

    Every basis member carries the factor (1 - r^2), so this is zero to
    the last bit for any finite table; a nonzero return flags a synthesis
    bug, not a modeling error.  A whole-basis table reads its kernels at
    r = 1 from the kernel cache (key (T, None)); any other table builds them.
    """

    def rim_sum(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        # _rim_max samples r = 1 alone, the radius of the kept rim kernels
        return _synthesize(table, r, theta, _rule_kernels(tuple(table.coefficients), None))

    return _rim_max(rim_sum, n_theta)


def rim_amplitude(f: DiskFunction, n_theta: int) -> float:
    """Max |f| over n_theta points of the unit circle.

    The weighted norm of f is finite only if f vanishes on the rim
    (docs/math_notes.md section 5), so a target with a nonzero rim
    amplitude has no finite expansion residual.
    """
    return _rim_max(lambda r, theta: sample_polar(f, r, theta), n_theta)


def _rim_max(values: Callable[[np.ndarray, np.ndarray], np.ndarray], n_theta: int) -> float:
    """Max |values(r, theta)| at r = 1 over the n_theta points of :func:`angle_grid`."""
    if n_theta < 1:
        raise ValueError("n_theta must be >= 1")
    return float(np.max(np.abs(values(np.array([1.0]), angle_grid(n_theta)))))


def solve_table(f_table: ExpansionTable) -> ExpansionTable:
    """Divide each coefficient by its eigenvalue p*q, as one array division.

    A whole-basis table reads a cached eigenvalue vector.  Each quotient has
    the bits of the Python c / (p*q): CPython divides by the complex pq + 0j,
    giving ((re + im * 0) / pq, (im - re * 0) / pq), signed zeros, infinities
    and nans included.  numpy's complex division multiplies by a reciprocal,
    which gives other bits, so the two parts are divided here as CPython does.
    """
    keys = tuple(f_table.coefficients)
    top = _basis_size(keys)
    eigenvalues = (
        _basis_eigenvalues(top) if top else np.array([idx.eigenvalue for idx in keys], dtype=float)
    )
    c = np.array(list(f_table.coefficients.values()), dtype=complex)
    quotient = np.empty_like(c)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as in CPython, without a word
        quotient.real = (c.real + c.imag * 0.0) / eigenvalues
        quotient.imag = (c.imag - c.real * 0.0) / eigenvalues
    return ExpansionTable(dict(zip(keys, quotient.tolist())), f_table.truncation)


def solve_weighted_poisson(
    f: DiskFunction,
    truncation: int,
    radial_order: Optional[int] = None,
    angular_points: Optional[int] = None,
) -> ExpansionTable:
    """Truncated solution of -Lu = f, L the weighted Laplacian.

    Expands f, then inverts the diagonal eigenvalue p*q per coefficient.
    The synthesized u vanishes on the boundary circle identically.
    """
    return solve_table(expand(f, truncation, radial_order, angular_points))


def synthesize_exact(table: ExpansionTable) -> BivariatePoly:
    """The partial sum as an exact polynomial.

    Coefficients are binary floats, hence exact rationals; attaching them
    to the exact basis polynomials keeps the whole synthesis rational, so
    solver residuals can be checked to literal zero.
    """
    return _exact_sum(table, lambda idx: 1)


def solve_exact(f_table: ExpansionTable) -> BivariatePoly:
    """Exact polynomial solution of -Lu = f for a finite f-table.

    The division by the eigenvalue p*q happens in rational arithmetic, so
    applying the weighted Laplacian to the result and negating returns the
    synthesized f-polynomial with zero residual, literally.
    """
    return _exact_sum(f_table, lambda idx: idx.eigenvalue)


def _exact_sum(table: ExpansionTable, divisor: Callable[[PQIndex], int]) -> BivariatePoly:
    """The sum of c / divisor(idx) * phi^idx over the table, in exact rationals: each
    member's integer profile (:func:`radial_sum_profile`) is added into Fraction real and
    imaginary parts per monomial of its mode, and the sums become one BivariatePoly at the end."""
    _finite_coefficients(table)
    re, im = defaultdict(Fraction), defaultdict(Fraction)
    for idx, c in table.items():
        profile = radial_sum_profile(idx)
        den = divisor(idx) * profile.den
        for part, sums in ((c.real, re), (c.imag, im)):
            if part:
                scale = Fraction(part) / den
                for key, ck in profile.monomials():
                    sums[key] += scale * ck
    return BivariatePoly({key: ComplexRational(re[key], im[key]) for key in re.keys() | im.keys()})


def expansion_residual(
    f: DiskFunction,
    table: ExpansionTable,
    radial_order: Optional[int] = None,
    angular_points: Optional[int] = None,
) -> float:
    """Weighted L2 norm of f minus the partial sum.

    Needs no special singularity handling: the residual of any reasonable
    Dirichlet-compatible target still vanishes at the rim, and the
    Gauss-Legendre nodes keep strictly inside the disk regardless.  A table
    of a whole basis reads its kernels at the default rule, order 2T + 12,
    from the kernel cache, as :func:`expand` does at its rule.
    """
    order = radial_order if radial_order is not None else 2 * table.truncation + 12
    points = angular_points if angular_points is not None else 8 * table.truncation + 32
    if order < 1 or points < 1:
        raise ValueError("quadrature orders must be >= 1")
    rule = gauss_legendre(order)
    u = rule.nodes
    r = np.sqrt((1.0 + u) / 2.0)
    theta = angle_grid(points)
    kernels = _rule_kernels(list(table.coefficients), order)
    residual_sq = np.abs(sample_polar(f, r, theta) - _synthesize(table, r, theta, kernels)) ** 2
    radial_weights = rule.weights / (1.0 - u)
    total = (math.pi / points) * float(radial_weights @ residual_sq.sum(axis=1))
    return math.sqrt(total)


def grid_interpolant(sample: GridSample) -> DiskFunction:
    """Bilinear interpolation in (r, theta): periodic in theta, r clamped.

    Radii outside the sampled range take the nearest edge value, so the
    interpolant is defined on the whole closed disk even when the grid
    stops short of the rim.  The nodes of either axis may come in any
    order, and the angles in any window of at most one turn, such as
    [0, 2 pi), [-pi, pi) or the closed [0, 2 pi]; angles that span more
    than 2 pi raise ValueError.  The interpolant takes floats or
    broadcasting arrays, and gives the same value at a point either way.
    """
    if sample.radial_nodes.size < 1 or sample.angular_nodes.size < 1:
        raise ValueError("grid must contain at least one node per direction")
    r_nodes, theta_nodes, values = sample.radial_nodes, sample.angular_nodes, sample.values
    # reorder (a copy of the grid) only an axis that is out of order
    if (np.diff(r_nodes) < 0).any():
        rows = np.argsort(r_nodes, kind="stable")
        r_nodes, values = r_nodes[rows], values[rows]
    if (np.diff(theta_nodes) < 0).any():
        cols = np.argsort(theta_nodes, kind="stable")
        theta_nodes, values = theta_nodes[cols], values[:, cols]
    two_pi = 2.0 * math.pi
    span = float(theta_nodes[-1] - theta_nodes[0])
    if span > two_pi:
        raise ValueError(f"angular nodes span {span!r}, more than 2 pi")
    # shift by the multiple of 2 pi that puts the smallest angle in [0, 2 pi)
    theta_nodes = theta_nodes - math.floor(theta_nodes[0] / two_pi) * two_pi
    theta_ext = np.concatenate([theta_nodes, [theta_nodes[0] + two_pi]])
    values_ext = np.concatenate([values, values[:, :1]], axis=1)

    def bracket(nodes: np.ndarray, x: np.ndarray):
        # nodes[lo] <= x <= nodes[hi]; outside the nodes lo == hi is the nearest
        # end, which clamps
        i = np.searchsorted(nodes, x, side="left")
        lo, hi = np.maximum(i - 1, 0), np.minimum(i, nodes.size - 1)
        den = nodes[hi] - nodes[lo]
        t = np.where(den != 0.0, (x - nodes[lo]) / np.where(den != 0.0, den, 1.0), 0.0)
        return lo, hi, t

    def interpolate(r, theta):
        th = np.asarray(theta, dtype=float) % two_pi
        th = np.where(th < theta_ext[0], th + two_pi, th)
        i0, i1, tr = bracket(r_nodes, np.asarray(r, dtype=float))
        j0, j1, tt = bracket(theta_ext, th)
        row0 = values_ext[i0, j0] * (1 - tt) + values_ext[i0, j1] * tt
        row1 = values_ext[i1, j0] * (1 - tt) + values_ext[i1, j1] * tt
        value = row0 * (1 - tr) + row1 * tr
        return complex(value) if value.ndim == 0 else value

    return interpolate
