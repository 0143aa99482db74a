"""The eigenbasis of the weighted disk: construction and verification.

Each index pair (p, q) with min{p,q} >= 1 owns one polynomial phi^(p,q).
It vanishes on the unit circle, carries the single angular mode
e^(i n theta) with n = q - p, and satisfies (1 - z*zbar) d2/dz dzbar phi
= -pq phi.  Three independent routes build it:

* :func:`rodrigues` differentiates a power of (1 - z*zbar) p + q times;
* :func:`radial_sum` writes it as an explicit binomial coefficient sum;
* :func:`jacobi_form` factors it as coeff * (1 - r^2) * r^|n| *
  P_nu^(1,|n|)(2 r^2 - 1) * e^(i n theta), the fast float route.

Both exact routes work on integer w-profiles
(:class:`~scatterpoly.poly_algebra.WProfile`, docs/math_notes.md
section 8) and become a :class:`BivariatePoly` only at the end.  The
factored route takes its prefactor (-1)^(q+1) max{p,q}/q from the closed
form of math_notes section 2.1; the printed rule (-1)^(q + max{p,q}) is
wrong whenever max{p,q} is even.  Every form is checked once, a mode at a
time, against the binomial sum evaluated exactly in integers, so the
float routes never build a Rodrigues polynomial; ``verify`` and the tests
compare the forms with the Rodrigues route itself.

Import boundary: the exact half of this module needs neither numpy nor
:mod:`scatterpoly.jacobi`.  The float members (the :class:`RadialForm`
methods, :func:`jacobi_form`, :func:`mode_kernels`) import them when
called.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .poly_algebra import BOUNDARY_FACTOR, BivariatePoly, WProfile

if TYPE_CHECKING:
    import numpy as np

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
    * theta).  Instances from :func:`jacobi_form` have passed the
    construction-time check, so they are trustworthy at double precision.
    """

    coeff: float
    m: int
    nu: int
    angular_frequency: int

    def radial_kernel(self, r: ArrayLike) -> ArrayLike:
        """The radial part divided by (1 - r^2), which cancels the weight
        1/(1 - r^2) analytically: one column of the pass behind :func:`mode_kernels`."""
        import numpy as np

        from .jacobi import radial_kernels

        out = next(radial_kernels([_columns([self])], np.asarray(r, dtype=float)))[..., 0]
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

    (-1)^p / (q * (p+q-1)!) * (1 - z*zbar) * d^(p+q)/dz^p dzbar^q applied
    to (1 - z*zbar)^(p+q-1): the normative construction.  Integer steps
    only, and no binomial closed form, so it stays independent of
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
    return WProfile(phi.n, tuple(sign * c for c in phi.coeffs), q * math.factorial(p + q - 1))


@lru_cache(maxsize=None)
def rodrigues(idx: PQIndex) -> BivariatePoly:
    """phi^(p,q) from :func:`rodrigues_profile`, in the general ring."""
    return rodrigues_profile(idx).to_poly()


def radial_sum_profile(idx: PQIndex) -> WProfile:
    """phi^(p,q) as an explicit binomial-coefficient sum, an integer w-profile.

    Expanding (1 - z*zbar)^(p+q-1) binomially and differentiating each
    monomial in closed form gives

        (1 - z*zbar) * sum_{k=max{p,q}}^{p+q-1}
            (-1)^(p+k) C(p+q-1, k) (k!)^2
            / (q (p+q-1)! (k-p)! (k-q)!) * z^(k-p) zbar^(k-q)

    with every coefficient an exact rational; it shares with the other route
    only the profile product with (1 - z*zbar).
    """
    return _sum_kernel(idx).times_boundary()


@lru_cache(maxsize=None)
def radial_sum(idx: PQIndex) -> BivariatePoly:
    """phi^(p,q) from :func:`radial_sum_profile`, in the general ring."""
    return radial_sum_profile(idx).to_poly()


def _sum_kernel(idx: PQIndex) -> WProfile:
    """The binomial sum of :func:`radial_sum` without its (1 - w) factor.

    Term k = max{p,q} .. p+q-1, the monomial w^(k - max{p,q}) at frequency
    q - p, has the numerator N_k = (-1)^(p+k) C(p+q-1, k) (k!/(k-p)!)
    (k!/(k-q)!) over q (p+q-1)!; after the first, N_(k+1) = N_k times the
    exact integer ratio -(p+q-1-k)(k+1) / ((k+1-p)(k+1-q)).
    """
    p, q = idx.p, idx.q
    deg, top = p + q - 1, max(p, q)
    term = (-1) ** (p + top) * math.comb(deg, top) * math.perm(top, p) * math.perm(top, q)
    numerators = [term]
    for k in range(top, deg):
        term = -term * (deg - k) * (k + 1) // ((k + 1 - p) * (k + 1 - q))
        numerators.append(term)
    return WProfile(idx.angular_frequency, tuple(numerators), q * math.factorial(deg))


def radial_profile(poly: BivariatePoly) -> tuple[int, dict[int, Fraction]]:
    """Collapse a pure-frequency, real-coefficient polynomial to radial form.

    Monomial z^a zbar^b adds its coefficient at r^(a+b); returns
    (n, {power: coefficient}) with n = a - b, or raises ValueError when
    frequencies differ or a coefficient is not real.
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

    The binomial sum of :func:`radial_sum` in Python integers: one
    numerator per radius over the common denominator q (p+q-1)! 1024^(p+q),
    so each value rounds to a double by one int / int division.
    """
    # the factor (1 - r^2) = (1024^2 - a^2) / 1024^2 is applied per radius
    numerators, den = _sum_kernel(idx).numerators_at(radii, _RADIUS_DEN)
    den_sq = _RADIUS_DEN * _RADIUS_DEN
    return [(den_sq - a * a) * num for a, num in zip(radii, numerators)], den * den_sq


#: Dyadic radii per angular mode in the construction-time check.
_CHECK_RADII = 20


def _check_mode(n: int, nus: range) -> list[RadialForm]:
    """Closed-form factored forms of the members nu in nus of mode n, checked.

    Prefactor (-1)^(q+1) * max{p,q}/q (docs/math_notes.md section 2.1).
    One seeded set of dyadic radii serves the mode: one kernel table there
    against each member's exact binomial sum (:func:`radial_sum_values`).
    A deviation beyond 1e-12 of a member's scale raises
    :class:`SignValidationError` naming it: a bug, not a convention issue.
    """
    import numpy as np

    from .jacobi import radial_kernels

    p0, q0 = (1, 1 + n) if n >= 0 else (1 - n, 1)  # the member with nu = 0
    members = [PQIndex(p0 + nu, q0 + nu) for nu in nus]
    forms = [RadialForm((-1) ** (i.q + 1) * (max(i.p, i.q) / i.q), i.m, i.nu, n) for i in members]
    radii = sorted(random.Random(f"mode {n}").sample(range(1, _RADIUS_DEN), _CHECK_RADII))
    r = np.array(radii) / _RADIUS_DEN
    approx = (1.0 - r * r)[:, None] * next(radial_kernels([_columns(forms)], r))
    sums = (radial_sum_values(idx, radii) for idx in members)
    exact = np.array([[num / den for num in numerators] for numerators, den in sums]).T
    scale = np.maximum(1.0, np.max(np.abs(exact), axis=0))
    bad = np.max(np.abs(approx - exact), axis=0) > 1e-12 * scale
    for idx, failed in zip(members, bad.tolist()):
        if failed:
            raise SignValidationError(
                f"closed-form factored route disagrees with the exact polynomial for {idx}"
            )
    return forms


def _columns(forms: Sequence[RadialForm]) -> tuple[int, list[int], list[float]]:
    """Forms sharing one m as a column group of :func:`~scatterpoly.jacobi.radial_kernels`."""
    return forms[0].m, [f.nu for f in forms], [f.coeff for f in forms]


#: The checked forms of each mode n, for nu = 0, 1, ...: jacobi_form's cache.
_CHECKED: dict[int, list[RadialForm]] = defaultdict(list)
_LOOKUPS: Counter = Counter()
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


def _checked_forms(indices: Sequence[PQIndex]) -> list[RadialForm]:
    """The checked form of each index.  A mode's members are checked in
    order of nu, each once, so a growing mode checks its new members only;
    a lookup that checks nothing is a hit, each member checked a miss."""
    need: dict[int, int] = defaultdict(int)
    for idx in indices:
        need[idx.q - idx.p] = max(need[idx.q - idx.p], idx.nu + 1)
    checked = 0
    for n, count in need.items():
        have = len(_CHECKED[n])
        if have < count:
            # a slice, not an append: threads that check the same members store the same forms
            _CHECKED[n][have:count] = _check_mode(n, range(have, count))
            checked += count - have
    _LOOKUPS.update(hits=0 if checked else 1, misses=checked)
    return [_CHECKED[idx.q - idx.p][idx.nu] for idx in indices]


def jacobi_form(idx: PQIndex) -> RadialForm:
    """Factored form of phi^(p,q), prefactor (-1)^(q+1) * max{p,q}/q.

    A lookup into the checked forms that checks idx's mode up to idx first
    if need be.  ``cache_clear()`` forgets every check, so later lookups
    check again; ``cache_info()`` counts lookups and checks.
    """
    return _checked_forms([idx])[0]


def _forget_checks() -> None:
    _CHECKED.clear()
    _LOOKUPS.clear()


jacobi_form.cache_clear = _forget_checks
jacobi_form.cache_info = lambda: _CacheInfo(
    _LOOKUPS["hits"], _LOOKUPS["misses"], None, sum(map(len, _CHECKED.values()))
)


def mode_kernels(
    indices: Sequence[PQIndex], r: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Radial kernels of many basis members, from one Jacobi recurrence pass.

    Yields (n, positions, kernel) per angular frequency n = q - p in
    increasing n; column j is ``jacobi_form(indices[positions[j]])
    .radial_kernel(r)``.  The checks of new members and the one
    :func:`~scatterpoly.jacobi.radial_kernels` table over every m = |n| run
    at the call; each kernel is built as the result is iterated.
    """
    import numpy as np

    from .jacobi import radial_kernels

    modes: dict[int, list[int]] = defaultdict(list)
    for position, idx in enumerate(indices):
        modes[idx.q - idx.p].append(position)
    forms = _checked_forms(indices)
    ns = sorted(modes)
    groups = [_columns([forms[k] for k in modes[n]]) for n in ns]
    kernels = radial_kernels(groups, np.asarray(r, dtype=float))
    return zip(ns, (np.array(modes[n]) for n in ns), kernels)


def resolved_sign(idx: PQIndex) -> int:
    """The checked sign of the jacobi_form prefactor: +1 or -1."""
    return 1 if jacobi_form(idx).coeff > 0 else -1


def sign_resolution(idx: PQIndex) -> dict:
    """Record how the checked sign relates to the printed exponent rule.

    ``resolved_sign`` is the sign of the checked jacobi_form prefactor,
    ``rule_sign`` that of the printed (-1)^(q + max{p,q}); ``agrees`` is
    False exactly when max{p,q} is even (docs/math_notes.md section 2.2).
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

    Every integer coefficient of (1 - w) d2/dz dzbar phi + pq phi must be
    zero; both terms share phi's denominator, so the numerators decide.
    """
    phi = rodrigues_profile(idx)
    image = phi.dz().dzbar().times_boundary()
    pairs = zip_longest(image.coeffs, phi.coeffs, fillvalue=0)
    return not any(a + idx.eigenvalue * b for a, b in pairs)


def eigenspace_indices(k: int) -> list[PQIndex]:
    """All (p, q) with p*q = k, ordered by p; one per divisor of k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [PQIndex(d, k // d) for d in range(1, k + 1) if k % d == 0]


def basis_indices(max_sum: int) -> list[PQIndex]:
    """All (p, q) with p, q >= 1 and p + q <= max_sum, lexicographic."""
    if max_sum < 2:
        raise ValueError("max_sum must be >= 2")
    return [PQIndex(p, q) for p in range(1, max_sum) for q in range(1, max_sum - p + 1)]


def norm_sq(idx: PQIndex) -> float:
    """Squared norm pi p / (q (p + q)) of phi^(p,q) under r dr dtheta /
    (1 - r^2); tests/test_scattering.py gates it against the exact
    polynomial integral for all p + q <= 12."""
    return math.pi * idx.p / (idx.q * (idx.p + idx.q))
