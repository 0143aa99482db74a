"""Expansion in the disk eigenbasis, synthesis back to grids, and the
diagonal solve it enables.

A function on the disk is projected onto every basis member with
p + q <= truncation; because the basis diagonalizes the weighted
Laplacian with eigenvalue p*q, solving -Lu = f in the truncated span
is coefficientwise division.  Truncated syntheses vanish identically on
the unit circle, so the solve respects zero Dirichlet data by
construction rather than by enforcement.

An :class:`ExpansionTable` is one tuple of indices and one read-only array
of coefficients in that order, and every float route works on the array.
Both directions take one pass per angular mode n = q - p, whose members
share one kernel matrix K_n (:func:`scatterpoly.scattering.mode_kernels`):
projection samples f once, splits modes by FFT and applies K_n^T; synthesis
forms the columns (1 - r^2) K_n c_n and, on the package's angles
(:func:`~scatterpoly.quadrature.angle_grid`), adds mode n into bin n mod N and
takes one inverse FFT along the angles, so no BLAS sum sets its bits.  Other
angles take the product A @ E, E[n, j] = e^(i n theta_j), in blocks of angles
whose E fits ``_KEPT_KERNEL_BYTES``, so only the result grows with the grid.
The indices of a whole basis keep their K_n at the projection rule, the residual
rule, the rim r = 1 and the radii a caller hands :func:`reconstruct` in the one
kernel cache that :func:`~scatterpoly.quadrature.gram` shares; other indices build
theirs per call.  The exact routes (:func:`synthesize_exact`, :func:`solve_exact`)
import the exact layer when called, so the float routes never load it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .jacobi import gauss_legendre
from .quadrature import DiskFunction, angle_grid, inner_products, sample_polar
from .scattering import (
    _KEPT_KERNEL_BYTES,
    PQIndex,
    _basis,
    _basis_plan,
    _plan,
    _rule_kernels,
    jacobi_form,
    radial_sum_profile,
)

if TYPE_CHECKING:
    from .poly_algebra import BivariatePoly


class ExpansionTable:
    """A truncated expansion, read-only: ``indices``, a tuple of PQIndex in
    ascending (p, q) order with p + q <= ``truncation``, an integer >= 0, and
    ``values``, their coefficients as one read-only complex128 array; absent
    members mean zero.
    The constructor checks and sorts a mapping {PQIndex: number} once (a str or
    bytes value is a TypeError); expand and solve_table build tables from arrays
    unchecked.  ``coefficient(idx)`` finds idx by bisection in ``indices``;
    ``coefficients`` is a read-only mapping of the members, built at first use."""

    def __init__(self, coefficients: Mapping[PQIndex, complex], truncation: int) -> None:
        truncation = operator.index(truncation)
        if truncation < 0:
            raise ValueError(f"truncation must be >= 0, not {truncation}")
        for idx, c in coefficients.items():
            if not isinstance(idx, PQIndex):
                raise TypeError("coefficient keys must be PQIndex")
            if isinstance(c, (str, bytes)):
                raise TypeError(f"the coefficient of {idx} is text, not a number: {c!r}")
            if idx.p + idx.q > truncation:
                raise ValueError(f"{idx} exceeds truncation {truncation}")
        ordered = sorted(coefficients.items(), key=lambda kv: (kv[0].p, kv[0].q))
        values = np.array([complex(c) for _, c in ordered], dtype=complex)
        _fill(self, tuple(idx for idx, _ in ordered), values, truncation)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"an ExpansionTable is read-only: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpansionTable):
            return NotImplemented
        same = self.truncation == other.truncation and self.indices == other.indices
        return same and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ExpansionTable({dict(self.items())!r}, truncation={self.truncation})"

    @cached_property
    def coefficients(self) -> Mapping[PQIndex, complex]:
        """The table as a read-only mapping {PQIndex: complex}, in index order."""
        return MappingProxyType(dict(self.items()))

    def items(self) -> list[tuple[PQIndex, complex]]:
        """(index, coefficient) pairs in index order."""
        return list(zip(self.indices, self.values.tolist()))

    def coefficient(self, idx: PQIndex) -> complex:
        i = bisect_left(self.indices, idx)
        found = i < len(self.indices) and self.indices[i] == idx
        return complex(self.values[i]) if found else 0j

    def __reduce__(self) -> tuple:
        return ExpansionTable, (dict(self.items()), self.truncation)


def _fill(table: ExpansionTable, indices: tuple, values: np.ndarray, truncation: int):
    """The table with its fields set, values made read-only, unchecked: indices must be
    PQIndex in ascending (p, q) order within truncation, values complex128 in that order."""
    values.flags.writeable = False
    table.__dict__.update(indices=indices, values=values, truncation=truncation)
    return table


@dataclass(frozen=True)
class GridSample:
    """Values on a polar tensor grid; radial nodes stay inside [0, 1)."""

    radial_nodes: np.ndarray
    angular_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        r, theta = _polar_nodes(self.radial_nodes, self.angular_nodes)
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (r.size, theta.size):
            raise ValueError("values shape must be (radial, angular)")
        self.__dict__.update(radial_nodes=r, angular_nodes=theta, values=values)


def _polar_nodes(
    radial_nodes: Sequence[float], angular_nodes: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes as float64 arrays, or ValueError, one for each rule: both are 1-D,
    both are finite, and every radius lies in [0, 1)."""
    r = np.asarray(radial_nodes, dtype=float)
    theta = np.asarray(angular_nodes, dtype=float)
    if r.ndim != 1 or theta.ndim != 1:
        raise ValueError("radial and angular nodes must be 1-D")
    if not (np.isfinite(r).all() and np.isfinite(theta).all()):
        raise ValueError("radial and angular nodes must be finite")
    if not ((r >= 0.0) & (r < 1.0)).all():
        raise ValueError("radial nodes must lie in [0, 1)")
    return r, theta


def polar_grid(n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform open polar grid: r = i/n_radial, theta = 2 pi j/n_angular; the sizes
    are taken by ``operator.index``, so a float size is a TypeError."""
    n_radial, n_angular = operator.index(n_radial), operator.index(n_angular)
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
    indices = _basis(truncation)  # ValueError below truncation 2
    values = inner_products(f, indices, order, points) / _basis_plan(truncation).norms
    return _fill(object.__new__(ExpansionTable), indices, values, truncation)


def _synthesize(
    table: ExpansionTable, r: np.ndarray, theta: np.ndarray, kernels: Iterable
) -> np.ndarray:
    """Partial sum on the tensor grid r x theta, one column a_n = (1 - r^2) K_n c_n
    per mode n.

    ``kernels`` are the :func:`~scatterpoly.scattering.mode_kernels` of
    ``table.indices`` at r.  A nan or infinite coefficient raises ValueError naming
    its index, as :func:`synthesize_exact` does.

    On the package's angles, theta equal to ``angle_grid(N)`` bit for bit, the sum
    over n of a_n e^(2 pi i n j / N) is an inverse DFT: each column is added into
    bin n mod N, aliasing modes in increasing n, and one unnormalised
    ``np.fft.ifft`` along the angles writes the values into the bins themselves, so
    no second grid is allocated.  pocketfft uses no BLAS, so the bits do not depend
    on the BLAS thread count.  Other angles take the product A @ E, E[n, j] =
    e^(i n theta_j), on any number of radii, in blocks of the most angles whose E
    fits ``_KEPT_KERNEL_BYTES`` (at least one): each block's E comes from one
    ``np.exp`` and its product is written into the result.  Each value is within
    2 eps sum_n |a_n(r)| (1 + |n theta_j|) of the exact sum at the float64 angle, the
    phase n theta being rounded before the exponential; its bits may follow the BLAS
    thread count.
    """
    coeffs = _finite_coefficients(table)
    # the (1 - r^2) factor stays explicit, so the sum is 0 at r = 1 exactly
    rim_factor = 1.0 - r * r
    ns, columns = [], []
    for n, positions, kernel in kernels:
        ns.append(n)
        columns.append(rim_factor * (kernel @ coeffs[positions]))
    values = np.zeros((r.size, theta.size), dtype=complex)
    if not ns or not values.size:
        return values
    radial = np.array(columns, dtype=complex).T
    modes = np.array(ns)
    if np.array_equal(theta, angle_grid(theta.size)):
        # the modes of one turn [kN, (k + 1)N), a run of the increasing modes, fill
        # distinct bins, so adding turn by turn adds the modes that alias in increasing n
        edges = [0, *(np.flatnonzero(np.diff(modes // theta.size)) + 1).tolist(), modes.size]
        for start, stop in zip(edges, edges[1:]):
            values[:, modes[start:stop] % theta.size] += radial[:, start:stop]
        return np.fft.ifft(values, axis=1, norm="forward", out=values)
    step = max(1, _KEPT_KERNEL_BYTES // (16 * len(ns)))  # angles whose E fits the cap
    for start in range(0, theta.size, step):
        block = slice(start, start + step)
        np.matmul(radial, np.exp(1j * modes[:, None] * theta[block]), out=values[:, block])
    return values


def _finite_coefficients(table: ExpansionTable) -> np.ndarray:
    """The table's values, or ValueError naming the first nan or infinite one."""
    finite = np.isfinite(table.values)
    if not finite.all():
        i = int(finite.argmin())  # the first False
        c = table.values[i].item()
        raise ValueError(f"coefficient of {table.indices[i]} is not finite: {c!r}")
    return table.values


def reconstruct(
    table: ExpansionTable, radial_nodes: Sequence[float], angular_nodes: Sequence[float]
) -> GridSample:
    """Pointwise partial sum of the expansion on a polar tensor grid.

    The nodes are checked first, as :class:`GridSample` checks them, so a rejected
    call builds no kernel.  A whole-basis table reads its kernels at the caller's
    radii from the kernel cache, under the key (T, r.tobytes()) that the library's
    own rules use, so a repeated call on one grid builds no Jacobi table; any other
    table, and a set above ``_KEPT_KERNEL_BYTES``, builds them per call.
    """
    r, theta = _polar_nodes(radial_nodes, angular_nodes)
    values = _synthesize(table, r, theta, _rule_kernels(_plan(table.indices), r))
    return GridSample(radial_nodes=r, angular_nodes=theta, values=values)


def boundary_value_check(table: ExpansionTable, n_theta: int) -> float:
    """Max |partial sum| over n_theta points of the unit circle.

    Every basis member carries the factor (1 - r^2), so this is zero to
    the last bit for any finite table; a nonzero return flags a synthesis
    bug, not a modeling error.  A whole-basis table reads its kernels at
    the r = [1.0] of :func:`_rim_max` from the kernel cache; any other table builds them.
    The n_theta angles are the package's angle grid, so the synthesis is one inverse
    FFT of bins that hold only zeros.
    """
    return _rim_max(
        lambda r, theta: _synthesize(table, r, theta, _rule_kernels(_plan(table.indices), r)),
        n_theta,
    )


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
    """Divide the table's ``values`` by the eigenvalues p*q of its ``indices``,
    p and q from :func:`~scatterpoly.scattering._plan` (the cached plan of a whole
    basis; any other table's modes are not grouped); the result keeps indices and
    truncation.

    Each quotient has the bits of the Python c / (p*q): CPython divides by the
    complex pq + 0j, giving ((re + im * 0) / pq, (im - re * 0) / pq), signed zeros,
    infinities and nans included.  numpy's complex division multiplies by a
    reciprocal, which gives other bits, so the parts are divided as CPython does.
    """
    c = f_table.values
    plan = _plan(f_table.indices)
    eigenvalues = plan.p * plan.q  # exact integers in float64, so each quotient keeps its bits
    quotient = np.empty_like(c)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as in CPython, without a word
        quotient.real = (c.real + c.imag * 0.0) / eigenvalues
        quotient.imag = (c.imag - c.real * 0.0) / eigenvalues
    return _fill(object.__new__(ExpansionTable), f_table.indices, quotient, f_table.truncation)


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
    from fractions import Fraction

    from .poly_algebra import BivariatePoly, ComplexRational

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
    from the kernel cache, as :func:`expand` does at its rule.  The default orders
    follow the table's largest p + q, which is its truncation for a table that
    :func:`expand` or :func:`solve_table` builds.
    """
    plan = _plan(table.indices)
    order = radial_order if radial_order is not None else 2 * plan.degree + 12
    points = angular_points if angular_points is not None else 8 * plan.degree + 32
    if order < 1 or points < 1:
        raise ValueError("quadrature orders must be >= 1")
    rule = gauss_legendre(order)
    u = rule.nodes
    r = np.sqrt((1.0 + u) / 2.0)
    theta = angle_grid(points)
    kernels = _rule_kernels(plan, r)
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
