"""The eigenbasis of the weighted disk: construction and verification.

Each index pair (p, q) with min{p,q} >= 1 owns one polynomial phi^(p,q),
produced here by three independent routes that must agree:

* :func:`rodrigues` applies p + q Wirtinger derivatives to a power of
  (1 - z*zbar) and rescales; exact throughout.
* :func:`radial_sum` writes the same polynomial as an explicit binomial
  coefficient sum; also exact, sharing no differentiation code.
* :func:`jacobi_form` factors the polynomial as
  coeff * (1 - r^2) * r^m * P_nu^(1,m)(2 r^2 - 1) * e^(i n theta)
  and is the fast route for pointwise evaluation.

Every phi^(p,q) has the single angular frequency n = q - p and real
rational coefficients, so both exact routes work on the integer
w-profile of :class:`~scatterpoly.poly_algebra.WProfile`: integer
coefficients in w = z*zbar over one common denominator
(docs/math_notes.md section 8).  :func:`rodrigues_profile` differentiates
that integer vector, :func:`eigencheck` checks the eigenrelation on it, and
each route becomes a :class:`BivariatePoly` only once, at the end.

Two sign conventions circulate for the factored route's prefactor:
(-1)^(q + max{p,q}) and (-1)^(q+1).  They disagree whenever max{p,q} is
even.  docs/math_notes.md section 2.1 derives coeff = (-1)^(q+1) *
max{p,q} / q, and jacobi_form takes the prefactor from that closed form.
It still checks every form at construction time, against the binomial
sum evaluated exactly in Python integers (:func:`radial_sum_values`), so
the float routes never build a Rodrigues polynomial.  The comparison with
the Rodrigues route itself lives in the ``verify`` command and the tests.

The polynomials vanish on the unit circle, carry the pure angular mode
e^(i(q-p) theta), and satisfy (1 - z*zbar) d2/dz dzbar phi = -pq phi,
all of which is checkable exactly.

Import boundary: the exact half of this module (:func:`rodrigues`,
:func:`radial_sum`, :func:`eigencheck`, the index helpers) needs neither
numpy nor :mod:`scatterpoly.jacobi`.  Only the float members import them,
when called: the :class:`RadialForm` methods, :func:`jacobi_form` and
:func:`mode_kernels`.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import TYPE_CHECKING, Sequence, Union

from .poly_algebra import BOUNDARY_FACTOR, BivariatePoly, WProfile

if TYPE_CHECKING:
    import numpy as np

    from .jacobi import JacobiParams

    ArrayLike = Union[float, np.ndarray]

#: Dyadic grid denominator for construction-time validation radii.
_RADIUS_DEN = 1024


class SignValidationError(RuntimeError):
    """The closed-form factored route disagrees with the exact binomial sum."""


@dataclass(frozen=True, order=True)
class PQIndex:
    """Index (p, q) of one basis polynomial; both entries must be >= 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if min(self.p, self.q) < 1:
            raise ValueError("min{p,q} must be >= 1")

    @property
    def m(self) -> int:
        """Radial monomial power |p - q|."""
        return abs(self.p - self.q)

    @property
    def nu(self) -> int:
        """Jacobi degree min{p,q} - 1."""
        return min(self.p, self.q) - 1

    @property
    def angular_frequency(self) -> int:
        """The Fourier mode n = q - p carried by phi^(p,q)."""
        return self.q - self.p

    @property
    def eigenvalue(self) -> int:
        """Eigenvalue p*q of the negated weighted Laplacian."""
        return self.p * self.q


@dataclass(frozen=True)
class RadialForm:
    """Factored representation coeff * (1-r^2) * r^m * P_nu^(1,m)(2r^2-1).

    The full polynomial is the radial part times e^(i * angular_frequency
    * theta).  Instances returned by :func:`jacobi_form` carry the
    closed-form prefactor and have already been checked against the exact
    binomial sum, so evaluation through here is trustworthy at double
    precision.
    """

    coeff: float
    m: int
    nu: int
    angular_frequency: int

    @property
    def params(self) -> JacobiParams:
        from .jacobi import JacobiParams

        return JacobiParams(alpha=1, beta=self.m, degree=self.nu)

    def radial_kernel(self, r: ArrayLike) -> ArrayLike:
        """The radial part divided by (1 - r^2); a polynomial in r.

        This is the quantity to integrate against when the measure carries
        1/(1 - r^2): the singular factor has been cancelled analytically.
        """
        import numpy as np

        from .jacobi import jacobi_eval

        rv = np.asarray(r, dtype=float)
        out = self.coeff * rv**self.m * jacobi_eval(self.params, 2.0 * rv * rv - 1.0)
        return float(out) if np.ndim(r) == 0 else out

    def radial_value(self, r: ArrayLike) -> ArrayLike:
        import numpy as np

        rv = np.asarray(r, dtype=float)
        out = (1.0 - rv * rv) * self.radial_kernel(rv)
        return float(out) if np.ndim(r) == 0 else out

    def value(self, r: ArrayLike, theta: ArrayLike) -> ArrayLike:
        """phi^(p,q) at polar (r, theta)."""
        import numpy as np

        phase = np.exp(1j * self.angular_frequency * np.asarray(theta, dtype=float))
        out = self.radial_value(r) * phase
        return complex(out) if np.ndim(out) == 0 else out


@lru_cache(maxsize=None)
def _boundary_power(k: int) -> WProfile:
    """(1 - w)^k at frequency 0, by repeated multiplication by (1 - w)."""
    power = WProfile(0, (1,))
    for _ in range(k):
        power = power.times_boundary()
    return power


@lru_cache(maxsize=None)
def rodrigues_profile(idx: PQIndex) -> WProfile:
    """phi^(p,q) by repeated exact differentiation, as an integer w-profile.

    (-1)^p / (q * (p+q-1)!) * (1 - z*zbar) * d^(p+q)/dz^p dzbar^q
    applied to (1 - z*zbar)^(p+q-1).  This is the normative construction;
    the other routes are validated against it.  Every step before the
    final scale is integer arithmetic on the coefficient vector, and no
    binomial closed form is used, so the route stays independent of
    :func:`radial_sum`.
    """
    p, q = idx.p, idx.q
    core = _boundary_power(p + q - 1)
    for _ in range(p):
        core = core.dz()
    for _ in range(q):
        core = core.dzbar()
    phi = core.times_boundary()
    sign = (-1) ** p
    return WProfile(
        phi.n, tuple(sign * c for c in phi.coeffs), q * math.factorial(p + q - 1)
    )


@lru_cache(maxsize=None)
def rodrigues(idx: PQIndex) -> BivariatePoly:
    """phi^(p,q) from :func:`rodrigues_profile`, in the general ring."""
    return rodrigues_profile(idx).to_poly()


@lru_cache(maxsize=None)
def radial_sum(idx: PQIndex) -> BivariatePoly:
    """phi^(p,q) as an explicit binomial-coefficient sum.

    Expanding (1 - z*zbar)^(p+q-1) binomially and differentiating each
    monomial in closed form gives

        (1 - z*zbar) * sum_{k=max{p,q}}^{p+q-1}
            (-1)^(p+k) C(p+q-1, k) (k!)^2
            / (q (p+q-1)! (k-p)! (k-q)!) * z^(k-p) zbar^(k-q)

    with every coefficient an exact rational.  Shares no code with the
    differentiation route beyond the integer profile's product with
    (1 - z*zbar) and its conversion to the general ring.
    """
    return _sum_kernel(idx).times_boundary().to_poly()


def _sum_kernel(idx: PQIndex) -> WProfile:
    """The binomial sum of :func:`radial_sum` without its (1 - w) factor.

    Term k = max{p,q} .. p+q-1 is the numerator (-1)^(p+k) C(p+q-1, k)
    (k!/(k-p)!) (k!/(k-q)!) over the common denominator q (p+q-1)!; it
    multiplies z^(k-p) zbar^(k-q), that is w^(k - max{p,q}) at frequency
    q - p.
    """
    p, q = idx.p, idx.q
    deg = p + q - 1
    numerators = tuple(
        (-1) ** (p + k) * math.comb(deg, k) * math.perm(k, p) * math.perm(k, q)
        for k in range(max(p, q), deg + 1)
    )
    return WProfile(idx.angular_frequency, numerators, q * math.factorial(deg))


def radial_profile(poly: BivariatePoly) -> tuple[int, dict[int, Fraction]]:
    """Collapse a pure-frequency, real-coefficient polynomial to radial form.

    Every monomial z^a zbar^b contributes coefficient * r^(a+b) at the
    shared frequency n = a - b; returns (n, {power: coefficient}).  Raises
    ValueError when monomial frequencies differ or a coefficient has an
    imaginary part, since then no single radial profile exists.
    """
    freq = None
    profile: dict[int, Fraction] = defaultdict(Fraction)
    for (a, b), c in sorted(poly.terms.items()):
        if c.im != 0:
            raise ValueError("radial profile requires real coefficients")
        if freq is None:
            freq = a - b
        elif a - b != freq:
            raise ValueError("polynomial mixes angular frequencies")
        profile[a + b] += c.re
    return (0 if freq is None else freq), dict(profile)


def profile_value(profile: dict[int, Fraction], r: Fraction) -> Fraction:
    """Exact value of a radial profile at a rational radius."""
    return sum((c * r**k for k, c in sorted(profile.items())), Fraction(0))


def radial_sum_values(idx: PQIndex, radii: Sequence[int]) -> tuple[list[int], int]:
    """Exact radial values of phi^(p,q) at the dyadic radii r = a/1024.

    Evaluates the binomial sum of :func:`radial_sum` in Python integers,
    with no polynomial ring.  Returns one integer numerator per radius and
    their common denominator q (p+q-1)! 1024^(p+q), so each value converts
    to the nearest double by a single int / int division.
    """
    # the factor (1 - r^2) = (1024^2 - a^2) / 1024^2 is applied per radius
    numerators, den = _sum_kernel(idx).numerators_at(radii, _RADIUS_DEN)
    den_sq = _RADIUS_DEN * _RADIUS_DEN
    return [(den_sq - a * a) * num for a, num in zip(radii, numerators)], den * den_sq


@lru_cache(maxsize=None)
def jacobi_form(idx: PQIndex) -> RadialForm:
    """Factored form of phi^(p,q), prefactor (-1)^(q+1) * max{p,q}/q.

    The prefactor is the closed form of docs/math_notes.md section 2.1.
    Each form is checked against the exact binomial sum at 20 seeded
    dyadic radii before it is returned; a deviation beyond 1e-12 of the
    profile's scale raises :class:`SignValidationError`, which would mean
    a genuine bug rather than a convention issue.
    """
    import numpy as np

    sign = (-1) ** (idx.q + 1)
    magnitude = max(idx.p, idx.q) / idx.q
    form = RadialForm(
        coeff=sign * magnitude,
        m=idx.m,
        nu=idx.nu,
        angular_frequency=idx.angular_frequency,
    )
    rng = random.Random(100003 * idx.p + idx.q)
    radii = sorted(rng.sample(range(1, _RADIUS_DEN), 20))
    numerators, den = radial_sum_values(idx, radii)
    exact = np.array([num / den for num in numerators])
    scale = max(1.0, float(np.max(np.abs(exact))))
    approx = form.radial_value(np.array(radii) / _RADIUS_DEN)
    if np.max(np.abs(approx - exact)) > 1e-12 * scale:
        raise SignValidationError(
            f"closed-form factored route disagrees with the exact polynomial for {idx}"
        )
    return form


def mode_kernels(
    indices: Sequence[PQIndex], r: np.ndarray
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Radial kernels of many basis members, one Jacobi table per angular mode.

    Groups the positions of ``indices`` by angular frequency n = q - p and
    returns (n, positions, kernel) per mode in increasing n, where column j
    of kernel is ``jacobi_form(indices[positions[j]]).radial_kernel(r)``:
    every member of a mode shares m = |n| and so one P^(1,m) recurrence.
    The prefactors come from :func:`jacobi_form`, so every member passes
    its construction-time check.
    """
    import numpy as np

    from .jacobi import jacobi_table

    r = np.asarray(r, dtype=float)
    modes: dict[int, list[int]] = defaultdict(list)
    for position, idx in enumerate(indices):
        modes[idx.angular_frequency].append(position)
    x = 2.0 * r * r - 1.0
    out = []
    for n in sorted(modes):
        positions = modes[n]
        forms = [jacobi_form(indices[k]) for k in positions]
        table = jacobi_table(abs(n), max(form.nu for form in forms), x)
        coeff = np.array([form.coeff for form in forms])
        kernel = coeff * r[:, None] ** abs(n) * table[:, [form.nu for form in forms]]
        out.append((n, np.array(positions), kernel))
    return out


def resolved_sign(idx: PQIndex) -> int:
    """The checked sign of the jacobi_form prefactor: +1 or -1."""
    return 1 if jacobi_form(idx).coeff > 0 else -1


def sign_resolution(idx: PQIndex) -> dict:
    """Record how the checked sign relates to the printed exponent rule.

    ``resolved_sign`` is the sign of the jacobi_form prefactor, the closed
    form (-1)^(q+1) checked against the exact binomial sum; ``rule_sign``
    is what the printed exponent (-1)^(q + max{p,q}) would give.
    ``agrees`` is False exactly when the two differ, which happens
    whenever max{p,q} is even (docs/math_notes.md section 2.2).
    """
    resolved = resolved_sign(idx)
    rule = (-1) ** (idx.q + max(idx.p, idx.q))
    return {
        "p": idx.p,
        "q": idx.q,
        "resolved_sign": resolved,
        "rule_sign": rule,
        "agrees": resolved == rule,
    }


def apply_modified_laplacian(poly: BivariatePoly) -> BivariatePoly:
    """(1 - z*zbar) * d^2/dz dzbar of the input, exactly."""
    return BOUNDARY_FACTOR * poly.wirtinger_dz().wirtinger_dzbar()


def eigencheck(idx: PQIndex) -> bool:
    """True iff the weighted Laplacian sends phi^(p,q) to -pq * phi^(p,q).

    Checked exactly on the integer profile: (1 - w) d2/dz dzbar phi + pq phi
    must have every coefficient zero.  Both terms share phi's denominator,
    so the numerators decide.
    """
    phi = rodrigues_profile(idx)
    image = phi.dz().dzbar().times_boundary()
    residual = (
        a + idx.eigenvalue * b
        for a, b in zip_longest(image.coeffs, phi.coeffs, fillvalue=0)
    )
    return not any(residual)


def eigenspace_indices(k: int) -> list[PQIndex]:
    """All (p, q) with p*q = k, ordered by p; one per divisor of k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [PQIndex(d, k // d) for d in range(1, k + 1) if k % d == 0]


def basis_indices(max_sum: int) -> list[PQIndex]:
    """All (p, q) with p, q >= 1 and p + q <= max_sum, lexicographic."""
    if max_sum < 2:
        raise ValueError("max_sum must be >= 2")
    return [
        PQIndex(p, q)
        for p in range(1, max_sum)
        for q in range(1, max_sum - p + 1)
    ]


def norm_sq(idx: PQIndex) -> float:
    """Squared norm of phi^(p,q) under the measure r dr dtheta / (1 - r^2).

    Closed form pi * p / (q * (p + q)).  tests/test_scattering.py gates
    this formula against the exact polynomial integral for all p + q <= 12
    before the rest of the package leans on it.
    """
    return math.pi * idx.p / (idx.q * (idx.p + idx.q))
