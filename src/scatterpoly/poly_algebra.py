"""Exact arithmetic on complex-rational polynomials in z and zbar.

Polynomials are stored sparsely as a map from exponent pairs (a, b) of
z^a zbar^b to complex-rational coefficients, with z and zbar treated as
independent (commuting) variables.  All ring operations and the Wirtinger
partial derivatives d/dz, d/dzbar are exact; floating point enters only
through :meth:`BivariatePoly.evaluate`.

The factor (1 - z*zbar) vanishes on the unit circle, so divisibility by it
certifies that a polynomial satisfies zero Dirichlet boundary values; the
exact long division lives in :meth:`BivariatePoly.divide_by_boundary_factor`.

:class:`WProfile` is the compact form of a polynomial with one angular
frequency n: integer coefficients in w = z*zbar over one common
denominator.  It is closed under d/dz, d/dzbar and multiplication by
(1 - w) with integer-only rules (docs/math_notes.md section 8), so the
basis is built and checked in integers and meets Fraction only when
converted to a :class:`BivariatePoly`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from operator import mul, sub
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction


class NotDivisibleError(ValueError):
    """The polynomial is not an exact multiple of (1 - z*zbar)."""


@dataclass(frozen=True)
class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value: Union["ComplexRational", Fraction, int]) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ComplexRational(Fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to ComplexRational")

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other: Union["ComplexRational", Fraction, int]) -> "ComplexRational":
        other = ComplexRational.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


ExponentPair = tuple[int, int]
CoefficientLike = Union[ComplexRational, Fraction, int]


@dataclass(frozen=True, eq=False)
class BivariatePoly:
    """Sparse polynomial in z and zbar with exact complex-rational coefficients.

    ``terms`` maps the exponent pair (a, b) of the monomial z^a zbar^b to its
    coefficient.  No stored coefficient is zero; the empty map is the zero
    polynomial.  Instances are immutable and safe to share across threads.
    """

    terms: Mapping[ExponentPair, ComplexRational]

    def __post_init__(self) -> None:
        cleaned = {}
        for (a, b), coeff in self.terms.items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term {(a, b)}")
            coeff = ComplexRational.coerce(coeff)
            if not coeff.is_zero():
                cleaned[(int(a), int(b))] = coeff
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly({})

    @staticmethod
    def constant(value: CoefficientLike) -> "BivariatePoly":
        return BivariatePoly({(0, 0): ComplexRational.coerce(value)})

    @staticmethod
    def monomial(a: int, b: int, coeff: CoefficientLike = 1) -> "BivariatePoly":
        return BivariatePoly({(a, b): ComplexRational.coerce(coeff)})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, ComplexRational()) + coeff
        return BivariatePoly(merged)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({key: -coeff for key, coeff in self.terms.items()})

    def __mul__(self, other: Union["BivariatePoly", CoefficientLike]) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            scalar = ComplexRational.coerce(other)
            return BivariatePoly({key: coeff * scalar for key, coeff in self.terms.items()})
        product: dict[ExponentPair, ComplexRational] = defaultdict(ComplexRational)
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                product[(a1 + a2, b1 + b2)] = product[(a1 + a2, b1 + b2)] + c1 * c2
        return BivariatePoly(product)

    def __rmul__(self, other: CoefficientLike) -> "BivariatePoly":
        return self * other

    def __pow__(self, exponent: int) -> "BivariatePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BivariatePoly.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max of a + b over stored terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def conjugate(self) -> "BivariatePoly":
        """Complex conjugate: swaps z with zbar and conjugates coefficients."""
        return BivariatePoly(
            {(b, a): coeff.conjugate() for (a, b), coeff in self.terms.items()}
        )

    # -- calculus ----------------------------------------------------------

    def wirtinger_dz(self) -> "BivariatePoly":
        """Partial derivative in z, holding zbar fixed."""
        return BivariatePoly(
            {(a - 1, b): coeff * a for (a, b), coeff in self.terms.items() if a > 0}
        )

    def wirtinger_dzbar(self) -> "BivariatePoly":
        """Partial derivative in zbar, holding z fixed."""
        return BivariatePoly(
            {(a, b - 1): coeff * b for (a, b), coeff in self.terms.items() if b > 0}
        )

    # -- evaluation and division -------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Substitute a complex point for z (and its conjugate for zbar)."""
        z = complex(z)
        zbar = z.conjugate()
        total = 0j
        for (a, b), coeff in sorted(self.terms.items()):
            total += complex(coeff) * z**a * zbar**b
        return total

    def divide_by_boundary_factor(self) -> "BivariatePoly":
        """Exact quotient by (1 - z*zbar), or raise :class:`NotDivisibleError`.

        Grouping terms by the angular frequency d = a - b turns each group
        into a univariate polynomial g(w) in w = z*zbar; division by (1 - w)
        is a running prefix sum whose final total must vanish.
        """
        groups: dict[int, dict[int, ComplexRational]] = defaultdict(dict)
        for (a, b), coeff in self.terms.items():
            groups[a - b][min(a, b)] = coeff
        quotient: dict[ExponentPair, ComplexRational] = {}
        for d, coeffs in groups.items():
            top = max(coeffs)
            running = ComplexRational()
            for k in range(top + 1):
                running = running + coeffs.get(k, ComplexRational())
                if k < top:
                    key = (k + d, k) if d >= 0 else (k, k - d)
                    quotient[key] = running
            if not running.is_zero():
                raise NotDivisibleError(
                    "polynomial is not a multiple of (1 - z*zbar); "
                    f"frequency class d={d} has nonzero remainder"
                )
        return BivariatePoly(quotient)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by (a, b) ascending.

        Each term renders as "(re_num/re_den,im_num/im_den) z^a zbar^b";
        the zero polynomial renders as "0".
        """
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self.terms.items()):
            parts.append(
                f"({c.re.numerator}/{c.re.denominator},"
                f"{c.im.numerator}/{c.im.denominator}) z^{a} zbar^{b}"
            )
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePoly({self.to_text()})"


ONE = BivariatePoly.constant(1)
Z = BivariatePoly.monomial(1, 0)
ZBAR = BivariatePoly.monomial(0, 1)
#: 1 - z*zbar; vanishes on the unit circle.
BOUNDARY_FACTOR = ONE - Z * ZBAR


@dataclass(frozen=True)
class WProfile:
    """(1/den) * sum_k coeffs[k] w^k times z^n (n >= 0) or zbar^-n (n < 0).

    Here w = z*zbar, so term k is the monomial z^(k+n) zbar^k for n >= 0
    and z^k zbar^(k-n) for n < 0: one angular frequency n, radial power
    2k + |n|.  Coefficients are Python integers and ``den`` is a positive
    integer that no operation below changes, so every step is integer
    arithmetic; :meth:`to_poly` converts to the general ring once.
    """

    n: int
    coeffs: tuple[int, ...]
    den: int = 1

    def dz(self) -> "WProfile":
        """d/dz, at frequency n - 1.

        Term k goes to (k+n) w^k for n >= 1 and to k w^(k-1) for n <= 0.
        """
        n, c = self.n, self.coeffs
        if n >= 1:
            out = tuple(map(mul, range(n, n + len(c)), c))
        else:
            out = tuple(map(mul, range(1, len(c)), c[1:]))
        return WProfile(n - 1, out, self.den)

    def dzbar(self) -> "WProfile":
        """d/dzbar, at frequency n + 1.

        Term k goes to (k-n) w^k for n <= -1 and to k w^(k-1) for n >= 0.
        """
        n, c = self.n, self.coeffs
        if n <= -1:
            out = tuple(map(mul, range(-n, len(c) - n), c))
        else:
            out = tuple(map(mul, range(1, len(c)), c[1:]))
        return WProfile(n + 1, out, self.den)

    def times_boundary(self) -> "WProfile":
        """The product with (1 - w): c'_k = c_k - c_(k-1)."""
        c = self.coeffs
        return WProfile(self.n, tuple(map(sub, c + (0,), (0,) + c)), self.den)

    def divide_by_boundary(self) -> "WProfile":
        """Exact quotient by (1 - w), or raise :class:`NotDivisibleError`.

        The quotient's coefficients are the running sums of the input's;
        the last running sum is the remainder and must vanish.
        """
        running, out = 0, []
        for ck in self.coeffs:
            running += ck
            out.append(running)
        if running != 0:
            raise NotDivisibleError(
                f"profile at frequency n={self.n} is not a multiple of (1 - w)"
            )
        return WProfile(self.n, tuple(out[:-1]), self.den)

    def numerators_at(self, radii: Sequence[int], radius_den: int) -> tuple[list[int], int]:
        """Exact radial values at r = a / radius_den for each integer a.

        Horner's rule in a^2 with integer weights gives one numerator per
        radius over the common denominator den * radius_den^(2K + |n|),
        K the top index, so each value converts to the nearest double by
        one correctly rounded int / int division.
        """
        top = max(len(self.coeffs) - 1, 0)
        den_sq = radius_den * radius_den
        # c_k den_sq^(top - k) from k = top down, the powers as one running product
        powers = accumulate(repeat(den_sq), mul, initial=1)
        weights = list(map(mul, reversed(self.coeffs), powers))
        m = abs(self.n)
        numerators = []
        for a in radii:
            a_sq = a * a
            acc = 0
            for weight in weights:
                acc = acc * a_sq + weight
            numerators.append(a**m * acc)
        return numerators, self.den * radius_den ** (2 * top + m)

    def same_polynomial(self, other: "WProfile") -> bool:
        """Exact equality whatever the denominators: coefficients equal after
        cross-multiplying (a missing one is 0), frequencies equal unless zero."""
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        same = all(a * other.den == b * self.den for a, b in pairs)
        return same and (self.n == other.n or not any(self.coeffs))

    def to_poly(self) -> BivariatePoly:
        """The same polynomial in the general ring."""
        a0, b0 = (self.n, 0) if self.n >= 0 else (0, -self.n)
        return BivariatePoly(
            {
                (k + a0, k + b0): ComplexRational(Fraction(ck, self.den))
                for k, ck in enumerate(self.coeffs)
                if ck
            }
        )
