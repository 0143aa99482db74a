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
wrong whenever max{p,q} is even.  Each prefactor is checked once, at
radii shared by every mode, against the binomial sum's exact values, and
cached (a form is built per lookup), so the float routes never build a
Rodrigues polynomial.  The exact values are doubles, each an exact ratio
rounded once (:func:`check_values`): for p + q <= 128 a row of the table
``check_values.npy`` that tools/check_values.py writes from the integer
sums and the tests rebuild bit for bit, memory-mapped by each check,
so a float process does no integer work up to that size; beyond it, the
sum evaluated in integers.  ``verify`` and the tests compare the forms
with the Rodrigues route itself; every comparison is :func:`factored_deviation`.

Import boundary: the exact half of this module needs neither numpy nor
:mod:`scatterpoly.jacobi`, and importing it opens no file.  The float
members (the :class:`RadialForm` methods, :func:`jacobi_form`,
:func:`mode_kernels`, :func:`factored_deviation`, :func:`check_values`)
import them when called.  Likewise the float half needs no
:mod:`scatterpoly.poly_algebra`: the functions that build w-profiles
(:func:`rodrigues_profile`, :func:`_sum_kernel` and :func:`_boundary_power`)
and :func:`apply_modified_laplacian` import it when called, so a float
process whose checks all read the table never loads the exact layer.
"""

from __future__ import annotations

import math
import operator
import os
import random
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, zip_longest
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

    from .poly_algebra import BivariatePoly, WProfile

    ArrayLike = Union[float, np.ndarray]

#: Dyadic grid denominator for construction-time validation radii.
_RADIUS_DEN = 1024


class SignValidationError(RuntimeError):
    """The closed-form factored route disagrees with the exact binomial sum."""


@dataclass(frozen=True, order=True)
class PQIndex:
    """Index (p, q) of one basis polynomial; both entries must be integers >= 1,
    stored as int (an integer type such as numpy's is taken by ``operator.index``)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", operator.index(self.p))
        object.__setattr__(self, "q", operator.index(self.q))
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

        group = (self.m, slice(self.nu, self.nu + 1), [self.coeff])
        out = next(radial_kernels([group], np.asarray(r, dtype=float)))[..., 0]
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
    from .poly_algebra import WProfile

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
    from .poly_algebra import WProfile

    p, q = idx.p, idx.q
    core = _boundary_power(p + q - 1)
    for _ in range(p):
        core = core.dz()
    for _ in range(q):
        core = core.dzbar()
    phi = core.times_boundary()
    sign = (-1) ** p
    return WProfile(phi.n, tuple(sign * c for c in phi.coeffs), q * math.factorial(p + q - 1))


def rodrigues(idx: PQIndex) -> BivariatePoly:
    """phi^(p,q) from :func:`rodrigues_profile`, converted to the general ring per call."""
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


def radial_sum(idx: PQIndex) -> BivariatePoly:
    """phi^(p,q) from :func:`radial_sum_profile`, converted to the general ring per call."""
    return radial_sum_profile(idx).to_poly()


def _sum_kernel(idx: PQIndex) -> WProfile:
    """The binomial sum of :func:`radial_sum` without its (1 - w) factor.

    Term k = max{p,q} .. p+q-1, the monomial w^(k - max{p,q}) at frequency
    q - p, has the numerator N_k = (-1)^(p+k) C(p+q-1, k) (k!/(k-p)!)
    (k!/(k-q)!) over q (p+q-1)!; after the first, N_(k+1) = N_k times the
    exact integer ratio -(p+q-1-k)(k+1) / ((k+1-p)(k+1-q)).
    """
    from .poly_algebra import WProfile

    p, q = idx.p, idx.q
    deg, top = p + q - 1, max(p, q)
    term = (-1) ** (p + top) * math.comb(deg, top) * math.perm(top, p) * math.perm(top, q)
    numerators = [term]
    for k in range(top, deg):
        term = -term * (deg - k) * (k + 1) // ((k + 1 - p) * (k + 1 - q))
        numerators.append(term)
    return WProfile(idx.angular_frequency, tuple(numerators), q * math.factorial(deg))


def radial_sum_values(idx: PQIndex, radii: Sequence[int]) -> tuple[list[int], int]:
    """Exact radial values of phi^(p,q) at the dyadic radii r = a/1024.

    :func:`radial_sum_profile` evaluated in Python integers: one numerator
    per radius over the common denominator q (p+q-1)! 1024^(p+q), so each
    value rounds to a double by one int / int division.
    """
    return radial_sum_profile(idx).numerators_at(radii, _RADIUS_DEN)


def factored_deviation(
    r: np.ndarray, kernel: np.ndarray, exact: np.ndarray | Sequence[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per column j: the largest deviation of (1 - r^2) * kernel[:, j] from
    exact[j], the exact values at r as doubles, and the scale max(1, max |exact[j]|)."""
    import numpy as np

    approx = (1.0 - r * r)[:, None] * kernel
    values = np.asarray(exact, dtype=float).reshape(-1, len(r)).T
    scale = np.maximum(1.0, np.max(np.abs(values), axis=0))
    return np.max(np.abs(approx - values), axis=0), scale


def check_values(members: Sequence[PQIndex]) -> np.ndarray:
    """The exact values of the construction check as doubles, one row per member: its
    radial values at :data:`_CHECK_RADII` / 1024, each num / den of
    :func:`radial_sum_values` rounded once.  A member with p + q <= 128 reads row
    (p + q - 1)(p + q - 2)/2 + p - 1 of :data:`_CHECK_VALUES_PATH`: little-endian float64
    rows in (p + q, p) order, so a basis T is the first T(T - 1)/2 rows.  Each call
    memory-maps the file anew and reads only its members' pages, which leave the
    process's memory with the map.  One beyond the table is evaluated exactly, by
    :func:`_computed_values`.  A file that cannot be read fails the check: it raises
    :class:`SignValidationError`."""
    import numpy as np

    try:
        table = np.load(_CHECK_VALUES_PATH, mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise SignValidationError(f"cannot read the exact check values: {exc}") from exc
    rows = np.array([(i.p + i.q - 1) * (i.p + i.q - 2) // 2 + i.p - 1 for i in members], int)
    values = table[np.minimum(rows, len(table) - 1)]
    beyond = rows >= len(table)
    values[beyond] = _computed_values([i for i, out in zip(members, beyond.tolist()) if out])
    return values


#: The package data file that tools/check_values.py writes: the rows of
#: :func:`_computed_values` for every member with p + q <= 128.
_CHECK_VALUES_PATH = os.path.join(os.path.dirname(__file__), "check_values.npy")


def _computed_values(members: Sequence[PQIndex]) -> np.ndarray:
    """The rows of :func:`check_values` computed in integers: :func:`radial_sum_values` at
    :data:`_CHECK_RADII`, each num / den one correctly rounded division."""
    import numpy as np

    exact = (radial_sum_values(i, _CHECK_RADII) for i in members)
    flat = (num / den for numerators, den in exact for num in numerators)
    return np.fromiter(flat, float).reshape(-1, len(_CHECK_RADII))


#: The checked prefactors of each mode n, for nu = 0, 1, ...: jacobi_form's cache.
_CHECKED: dict[int, list[float]] = defaultdict(list)
_LOOKUPS: Counter = Counter()
_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")
#: The construction check's radii a/1024: one seeded draw of 20 distinct a, shared by every mode.
_CHECK_RADII = tuple(sorted(random.Random("check radii").sample(range(1, _RADIUS_DEN), 20)))


def _check_modes(need: dict[int, int]) -> None:
    """Check each mode n up to nu = need[n] - 1, each member once; a lookup
    that checks nothing is a hit, each member checked a miss.  Every new
    member's prefactor (-1)^(q+1) max{p,q}/q (docs/math_notes.md section 2.1)
    is compared in one kernel table at :data:`_CHECK_RADII` with its exact
    binomial sum's values, rounded once (:func:`check_values`: the package's table up
    to p + q = 128, integer evaluation beyond), by :func:`factored_deviation`.  Beyond
    1e-12 of its scale it raises :class:`SignValidationError` naming the member, a bug,
    not a convention issue, with the modes before its mode in need order stored."""
    new = [(n, range(have, end)) for n, end in need.items() if (have := len(_CHECKED[n])) < end]
    if not new:
        _LOOKUPS["hits"] += 1
        return
    import numpy as np

    from .jacobi import radial_kernels

    members = [PQIndex(nu + 1 + max(-n, 0), nu + 1 + max(n, 0)) for n, nus in new for nu in nus]
    prefactors = ((-1) ** (i.q + 1) * (max(i.p, i.q) / i.q) for i in members)
    groups = [(abs(n), nus, list(islice(prefactors, len(nus)))) for n, nus in new]
    r = np.array(_CHECK_RADII) / _RADIUS_DEN
    kernel = np.hstack(list(radial_kernels(groups, r)))
    deviation, scale = factored_deviation(r, kernel, check_values(members))
    failed = [i for i, bad in zip(members, (deviation > 1e-12 * scale).tolist()) if bad]
    for (n, nus), (_, _, checked) in zip(new, groups):
        if failed and failed[0].angular_frequency == n:
            raise SignValidationError(
                f"closed-form factored route disagrees with the exact polynomial for {failed[0]}"
            )
        # a slice, not an append: threads that check the same members store the same values
        _CHECKED[n][nus.start:nus.stop] = checked
    _LOOKUPS["misses"] += len(members)


def jacobi_form(idx: PQIndex) -> RadialForm:
    """Factored form of phi^(p,q), prefactor (-1)^(q+1) * max{p,q}/q.

    Built per lookup from the cache of checked prefactors, checking idx's
    mode up to idx first if need be.  ``cache_clear()`` forgets every check,
    so later lookups check again; ``cache_info()`` counts lookups and checks.
    """
    n = idx.q - idx.p
    _check_modes({n: idx.nu + 1})
    return RadialForm(_CHECKED[n][idx.nu], abs(n), idx.nu, n)


def _forget_checks() -> None:
    """Forget every check, and every kept kernel set, which embeds checked prefactors."""
    _kept_kernels.cache_clear()
    _CHECKED.clear()
    _LOOKUPS.clear()


jacobi_form.cache_clear = _forget_checks
jacobi_form.cache_info = lambda: _CacheInfo(
    _LOOKUPS["hits"], _LOOKUPS["misses"], None, sum(map(len, _CHECKED.values()))
)


class _Plan:
    """What the float routes read of an index sequence, read-only: ``top``, T when the
    indices are the tuple :func:`_basis` of T, else 0; ``p`` and ``q`` of every index,
    in order, as read-only int arrays; and ``degree``, the largest p + q (0 for no
    index).  ``modes``, ``need`` and ``norms`` are built at their first read, as a
    basis plan is shared by every call on its basis."""

    def __init__(self, indices: Sequence[PQIndex], top: int = 0) -> None:
        import numpy as np

        p = _frozen(np.fromiter((idx.p for idx in indices), int, len(indices)))
        q = _frozen(np.fromiter((idx.q for idx in indices), int, len(indices)))
        self.__dict__.update(top=top, p=p, q=q, degree=int((p + q).max(initial=0)))

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"a plan is read-only: {name!r} cannot change")

    @cached_property
    def modes(self) -> tuple:
        """Per mode n = q - p in increasing n, (n, positions, degrees nu): positions a
        read-only int array, the degrees a slice when they are consecutive (every mode
        of a basis), else a read-only int array."""
        import numpy as np

        groups: dict[int, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
        for position, (p, q) in enumerate(zip(self.p.tolist(), self.q.tolist())):
            positions, nus = groups[q - p]
            positions.append(position)
            nus.append(min(p, q) - 1)
        modes = []
        for n, (positions, nus) in sorted(groups.items()):
            degrees = slice(nus[0], nus[0] + len(nus))
            if nus != list(range(degrees.start, degrees.stop)):
                degrees = _frozen(np.array(nus))
            modes.append((n, _frozen(np.array(positions)), degrees))
        return tuple(modes)

    @cached_property
    def need(self) -> MappingProxyType:
        """The check need {n: max nu + 1} of every mode."""
        return MappingProxyType({
            n: nus.stop if isinstance(nus, slice) else int(nus.max()) + 1
            for n, _, nus in self.modes
        })

    @cached_property
    def norms(self) -> np.ndarray:
        """:func:`norm_sq` of every index, in order, read-only: the bits of one
        division per index."""
        return _frozen(math.pi * self.p / (self.q * (self.p + self.q)))


def _frozen(array: np.ndarray) -> np.ndarray:
    """array, flagged read-only."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=8)
def _basis(max_sum: int) -> tuple[PQIndex, ...]:
    """The basis with p + q <= max_sum as one tuple, which :func:`basis_indices` copies."""
    if max_sum < 2:
        raise ValueError("max_sum must be >= 2")
    return tuple(PQIndex(p, q) for p in range(1, max_sum) for q in range(1, max_sum - p + 1))


@lru_cache(maxsize=8)
def _basis_plan(max_sum: int) -> _Plan:
    """The :class:`_Plan` of :func:`_basis`, built at the first float call on it."""
    return _Plan(_basis(max_sum), max_sum)


def _plan(indices: tuple) -> _Plan:
    """The plan of indices: the cached :func:`_basis_plan` of T when indices is the
    tuple :func:`_basis` of T, found by one tuple comparison, else a fresh one."""
    top = indices[-1].p + 1 if indices and isinstance(indices[-1], PQIndex) else 0
    if len(indices) == top * (top - 1) // 2 > 0 and indices == _basis(top):
        return _basis_plan(top)
    return _Plan(indices)


def mode_kernels(
    indices: Sequence[PQIndex], r: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Radial kernels of many basis members, from one Jacobi recurrence pass.

    Yields (n, positions, kernel) per angular frequency n = q - p in
    increasing n; column j is ``jacobi_form(indices[positions[j]])
    .radial_kernel(r)``, from the cached prefactors with no form built.
    A basis finds its cached plan by one tuple comparison; other indices
    are grouped anew.  New members are checked, and one table built, at the call.
    """
    plan = _plan(tuple(indices))
    _check_modes(plan.need)
    return _plan_kernels(plan.modes, r)


def _plan_kernels(modes: tuple, r: np.ndarray) -> Iterator[tuple]:
    """The kernels of the modes of a checked plan at r, from one
    :func:`~scatterpoly.jacobi.radial_kernels` table over every m = |n|; each
    kernel is built as the result is iterated."""
    import numpy as np

    from .jacobi import radial_kernels

    groups = [(abs(n), nus, np.asarray(_CHECKED[n])[nus]) for n, _, nus in modes]
    kernels = radial_kernels(groups, np.asarray(r, dtype=float))
    return ((n, positions, kernel) for (n, positions, _), kernel in zip(modes, kernels))


#: Largest kernel set, in bytes, that :func:`_kept_kernels` keeps (README, limits table).
_KEPT_KERNEL_BYTES = 2 << 20


@lru_cache(maxsize=16)
def _kept_kernels(top: int, radii: bytes) -> tuple:
    """Read-only kernels of the basis T = top at the float64 radii whose bytes are
    ``radii``; checks no member."""
    import numpy as np

    built = tuple(_plan_kernels(_basis_plan(top).modes, np.frombuffer(radii)))
    for _, _, kernel in built:
        kernel.flags.writeable = False
    return built


def _rule_kernels(plan: _Plan, r: np.ndarray) -> Iterable[tuple]:
    """:func:`mode_kernels` of the indices of plan at the float64 radii r, one axis: a
    whole basis of T gets the kept set of key (T, r.tobytes()), its members looked up
    at every call as by mode_kernels; other sequences and sets above
    :data:`_KEPT_KERNEL_BYTES` do not.  The library's radii are sqrt((1 + u) / 2) at
    the nodes u of the projection's rule T + 8, the Gram matrix's T + 2 and the
    expansion residual's 2T + 12 (kept up to T = 62), and the rim r = 1 of the
    boundary check, 8 bytes per member."""
    _check_modes(plan.need)
    if not plan.top or 8 * plan.p.size * r.size > _KEPT_KERNEL_BYTES:
        return _plan_kernels(plan.modes, r)
    return _kept_kernels(plan.top, r.tobytes())


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
    from .poly_algebra import BOUNDARY_FACTOR

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
    """All (p, q) with p, q >= 1 and p + q <= max_sum, lexicographic, in a new list."""
    return list(_basis(max_sum))


def norm_sq(idx: PQIndex) -> float:
    """Squared norm pi p / (q (p + q)) of phi^(p,q) under r dr dtheta /
    (1 - r^2); tests/test_scattering.py gates it against the exact
    polynomial integral for all p + q <= 12."""
    return math.pi * idx.p / (idx.q * (idx.p + idx.q))
