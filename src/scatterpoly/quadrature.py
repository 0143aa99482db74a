"""Inner products against the boundary-singular weight, Gram matrices,
and the divergence of plain polynomial moments.

The measure r dr dtheta / (1 - r^2) is never sampled near its singularity:
every basis member carries a (1 - r^2) factor, so each integrand that
occurs here cancels the weight analytically before discretization.  After
the substitution u = 2 r^2 - 1 (r dr = du / 4) the radial integrands are
polynomials, which Gauss-Legendre rules of modest order integrate exactly.

Monomials x^(2m) y^(2n), by contrast, carry no such factor; their weighted
integrals diverge logarithmically, which :func:`truncated_moment` makes
quantitative by integrating up to radius 1 - eps and watching the growth
as eps shrinks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .jacobi import gauss_legendre
from .scattering import PQIndex, _frozen, _plan, _rule_kernels, jacobi_form

if TYPE_CHECKING:
    from fractions import Fraction

    from .poly_algebra import BivariatePoly

#: f(r, theta) on the disk, on floats or on arrays that broadcast together
#: (a float-only f costs one call per node, see :func:`sample_polar`).
DiskFunction = Callable[[float, float], complex]

#: Default cutoff ladder for moment divergence runs: eps = 1e-2 .. 1e-7.
DEFAULT_EPS_LADDER = tuple(10.0**-k for k in range(2, 8))

#: Fixed order for the log-substituted radial moment integral; the
#: integrand (1 - e^v)^s is entire, so this is far past convergence.
_MOMENT_RADIAL_ORDER = 64


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Pairwise inner products of basis members, in index order, as real float64
    entries: the angular integral kills imaginary parts.  ``blocks`` holds one read-only
    (positions, block) pair per angular mode; entries off the blocks are 0.  Equality
    and hashing are by identity, as the blocks are arrays."""

    indices: tuple[PQIndex, ...]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense read-only matrix, built from the blocks at its first read."""
        entries = np.zeros((len(self.indices), len(self.indices)))
        for positions, block in self.blocks:
            entries[np.ix_(positions, positions)] = block
        return _frozen(entries)

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, in index order."""
        out = np.empty(len(self.indices))
        for positions, block in self.blocks:
            out[positions] = np.diagonal(block)
        return out

    def max_off_diagonal(self) -> float:
        """Largest |entry| off the diagonal, read from the blocks; nan if any is nan."""
        return float(np.max([np.max(np.abs(b), where=~np.eye(len(b), dtype=bool), initial=0.0)
                             for _, b in self.blocks], initial=0.0))


@dataclass(frozen=True)
class MomentEstimate:
    """Truncated weighted moments of x^(2m) y^(2n) down a cutoff ladder."""

    m: int
    n: int
    cutoffs: tuple[float, ...]
    values: tuple[float, ...]


def inner_product_basis(a: PQIndex, b: PQIndex, order: Optional[int] = None) -> complex:
    """<phi^a, phi^b> in the weighted space.

    Distinct angular frequencies integrate to zero over theta, so that
    case returns exactly 0 with no quadrature.  Otherwise the value is

        (pi/2) * c_a * c_b * integral du ((1-u)/2) ((1+u)/2)^m
                                     P_(nu_a)(u) P_(nu_b)(u)

    with the product of the two radial kernels at r = sqrt((1+u)/2) as
    c_a c_b ((1+u)/2)^m P_(nu_a) P_(nu_b).  A Gauss-Legendre rule of order
    (p_a+q_a+p_b+q_b)/2 + 2 (the default) integrates it exactly; pass a
    larger ``order`` to confirm.
    """
    if a.angular_frequency != b.angular_frequency:
        return 0j
    if order is None:
        order = (a.p + a.q + b.p + b.q + 1) // 2 + 2
    rule = gauss_legendre(order)
    u = rule.nodes
    r = np.sqrt((1.0 + u) / 2.0)
    kernels = jacobi_form(a).radial_kernel(r) * jacobi_form(b).radial_kernel(r)
    return complex((math.pi / 2.0) * float(rule.weights @ ((1.0 - u) / 2.0 * kernels)))


def gram(indices: Sequence[PQIndex]) -> GramMatrix:
    """Real symmetric matrix of pairwise inner products, one block per mode.

    Block (pi/2) K^T diag(w (1-u)/2) K, with K the :func:`mode_kernels` at
    the nodes of a Gauss-Legendre rule of order max(p+q) + 2, is exact
    (docs/math_notes.md section 7); its upper triangle is mirrored through a
    cached strict-lower mask per block size, so the result is symmetric by
    construction.  Distinct modes are orthogonal: only their blocks are built,
    and ``entries`` places them in a dense matrix at its first read.  A whole
    basis keeps its K in the one kernel cache keyed by T and its radii, so a
    repeated call builds no Jacobi table.
    """
    idx = tuple(indices)
    if not idx:
        raise ValueError("index sequence must be nonempty")
    plan = _plan(idx)
    rule = gauss_legendre(plan.degree + 2)
    r = np.sqrt((1.0 + rule.nodes) / 2.0)
    weight = (math.pi / 2.0) * rule.weights * (1.0 - rule.nodes) / 2.0
    blocks = []
    for _, positions, kernel in _rule_kernels(plan, r):
        block = (kernel.T * weight) @ kernel
        np.copyto(block, block.T, where=_strict_lower(len(block)))
        blocks.append((positions, _frozen(block)))
    return GramMatrix(indices=idx, blocks=tuple(blocks))


@lru_cache(maxsize=64)
def _strict_lower(size: int) -> np.ndarray:
    """The read-only mask of the strict lower triangle of a size x size block."""
    return _frozen(np.tri(size, k=-1, dtype=bool))


def angle_grid(n: int) -> np.ndarray:
    """The n uniform angles 2 pi j / n, j = 0 .. n - 1: the one angle grid of the package.
    n is taken by ``operator.index``, so a float n is a TypeError."""
    n = operator.index(n)
    return 2.0 * math.pi * np.arange(n) / n


def sample_polar(f: DiskFunction, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """f on the tensor grid r x theta, as a complex (r.size, theta.size) array.

    f is called once, with the arrays r[:, None] and theta[None, :].  If
    that call raises, or its result does not broadcast to the grid, f is
    taken to accept only floats and is called once per node instead.
    """
    try:
        values = np.asarray(f(r[:, None], theta[None, :]), dtype=complex)
        return np.broadcast_to(values, (r.size, theta.size))
    except Exception:
        # float-only f fail on arrays in many ways; a real fault raises again below
        return np.array([[f(ri, tj) for tj in theta] for ri in r], dtype=complex)


def inner_products(
    f: DiskFunction, indices: Sequence[PQIndex], radial_order: int, angular_points: int
) -> np.ndarray:
    """<f, phi^(idx)> for every idx in indices, in order, from one sampling of f.

    Angular direction: an FFT over a uniform theta grid; bin n mod
    angular_points is the trapezoid sum of f e^(-i n theta), spectrally
    convergent and exact for the pure mode once angular_points > |n|.
    Radial direction: Gauss-Legendre in u = 2 r^2 - 1, one product
    K^T (w/4 f_n) per mode against the polynomial kernels phi / (1 - r^2)
    of :func:`mode_kernels`, the weight having cancelled; a whole basis
    keeps its K in the kernel cache keyed by T and the radii, as gram does.
    """
    if radial_order < 1 or angular_points < 1:
        raise ValueError("quadrature orders must be >= 1")
    rule = gauss_legendre(radial_order)
    r = np.sqrt((1.0 + rule.nodes) / 2.0)
    fhat = np.fft.fft(sample_polar(f, r, angle_grid(angular_points)), axis=1)
    weighted = fhat * (rule.weights / 4.0 * (2.0 * math.pi / angular_points))[:, None]
    out = np.empty(len(indices), dtype=complex)
    for n, positions, kernel in _rule_kernels(_plan(tuple(indices)), r):
        out[positions] = kernel.T @ weighted[:, n % angular_points]
    return out


def inner_product_function(
    f: DiskFunction, idx: PQIndex, radial_order: int, angular_points: int
) -> complex:
    """<f, phi^(idx)> for a black-box f(r, theta); see :func:`inner_products`."""
    return complex(inner_products(f, [idx], radial_order, angular_points)[0])


def inner_product_poly_exact(
    f: BivariatePoly, g: BivariatePoly
) -> tuple[Fraction, Fraction]:
    """Exact weighted inner product of two polynomials, as a multiple of pi.

    Returns (re, im) with <f, g> = pi * (re + i im).  Requires f * conj(g)
    to be divisible by (1 - z*zbar), i.e. the pair must cancel the weight;
    otherwise the underlying division raises NotDivisibleError.  Uses the
    exact disk integral of z^a zbar^a, which is pi / (a + 1).
    """
    from fractions import Fraction

    from .poly_algebra import ComplexRational

    quotient = (f * g.conjugate()).divide_by_boundary_factor()
    total = ComplexRational()
    for (a, b), c in quotient.terms.items():
        if a == b:
            total = total + c * Fraction(1, a + 1)
    return total.re, total.im


def inner_product_poly(f: BivariatePoly, g: BivariatePoly) -> complex:
    """Weighted inner product of two polynomials, in double precision."""
    re, im = inner_product_poly_exact(f, g)
    return complex(math.pi * float(re), math.pi * float(im))


def _double_factorial(k: int) -> int:
    """k!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial needs k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _angular_moment(m: int, n: int) -> float:
    """integral over [0, 2 pi] of cos^(2m) sin^(2n), cross-checked.

    Closed form 2 pi (2m-1)!! (2n-1)!! / (2m+2n)!!; a uniform trapezoid
    sum, exact for trigonometric polynomials of this degree, must agree
    to near machine precision or something is badly wrong internally.
    """
    closed = (
        2.0
        * math.pi
        * _double_factorial(2 * m - 1)
        * _double_factorial(2 * n - 1)
        / _double_factorial(2 * m + 2 * n)
    )
    theta = angle_grid(4 * (m + n) + 16)
    trapezoid = (
        2.0 * math.pi * float(np.mean(np.cos(theta) ** (2 * m) * np.sin(theta) ** (2 * n)))
    )
    if abs(closed - trapezoid) > 1e-10 * max(1.0, abs(closed)):
        raise ArithmeticError(
            f"angular moment cross-check failed for (m, n) = ({m}, {n})"
        )
    return closed


def truncated_moment(m: int, n: int, eps: float) -> float:
    """Weighted integral of x^(2m) y^(2n) over the disk of radius 1 - eps.

    Splits into the angular constant times the radial integral
    integral_0^(1-eps) r^(2m+2n+1) / (1 - r^2) dr.  Substituting
    t = r^2 and then t = 1 - e^v turns the radial part into
    (1/2) integral_(ln delta)^0 (1 - e^v)^(m+n) dv with
    delta = 1 - (1-eps)^2, an entire integrand on a short interval,
    so a fixed high-order rule nails it for every eps in range.
    """
    if m < 0 or n < 0:
        raise ValueError("moment exponents must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    s = m + n
    delta = eps * (2.0 - eps)
    rule = gauss_legendre(_MOMENT_RADIAL_ORDER)
    radial = rule.integrate_on(
        lambda v: 0.5 * (1.0 - np.exp(v)) ** s, math.log(delta), 0.0
    )
    return _angular_moment(m, n) * radial


def moment_ladder(
    m: int, n: int, cutoffs: Sequence[float] = DEFAULT_EPS_LADDER
) -> MomentEstimate:
    """Truncated moments down a cutoff ladder, largest eps first."""
    eps_values = tuple(sorted(cutoffs, reverse=True))
    values = tuple(truncated_moment(m, n, eps) for eps in eps_values)
    return MomentEstimate(m=m, n=n, cutoffs=eps_values, values=values)


def moment_slope(estimate: MomentEstimate) -> float:
    """Least-squares slope of M(eps) against ln(1/eps).

    For (m, n) = (0, 0) the truncated moment is -pi ln(2 eps - eps^2),
    so the slope tends to pi; positive slope witnesses divergence for
    every exponent pair.  Raises ValueError for fewer than two distinct
    cutoffs, where no slope is determined.
    """
    if len(set(estimate.cutoffs)) < 2:
        raise ValueError("moment_slope needs at least two distinct cutoffs")
    x = np.log(1.0 / np.asarray(estimate.cutoffs))
    y = np.asarray(estimate.values)
    return float(np.polyfit(x, y, 1)[0])
