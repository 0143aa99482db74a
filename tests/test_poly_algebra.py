"""Exact polynomial ring: arithmetic, Wirtinger calculus, boundary division."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterpoly.poly_algebra import (
    BOUNDARY_FACTOR,
    ONE,
    Z,
    ZBAR,
    BivariatePoly,
    ComplexRational,
    NotDivisibleError,
    WProfile,
)

from helpers import profile_value, radial_profile, random_poly, random_point


def frac_poly(terms):
    """Shorthand: build a polynomial from {(a, b): rational} pairs."""
    return BivariatePoly({k: Fraction(v) for k, v in terms.items()})


class TestArithmetic:
    def test_add_disjoint_monomials(self):
        assert Z + ZBAR == frac_poly({(1, 0): 1, (0, 1): 1})

    def test_additive_identity(self):
        p = frac_poly({(2, 1): Fraction(3, 7), (0, 0): -2})
        assert p + BivariatePoly.zero() == p

    def test_additive_inverse(self):
        assert (BOUNDARY_FACTOR + (-BOUNDARY_FACTOR)).is_zero()

    def test_square_of_boundary_factor(self):
        expected = frac_poly({(0, 0): 1, (1, 1): -2, (2, 2): 1})
        assert BOUNDARY_FACTOR * BOUNDARY_FACTOR == expected

    def test_multiplicative_identity(self):
        p = frac_poly({(3, 0): 2, (1, 2): Fraction(-1, 3)})
        assert p * ONE == p

    def test_cube_matches_binomial_theorem(self):
        expected = BivariatePoly(
            {(k, k): Fraction((-1) ** k * math.comb(3, k)) for k in range(4)}
        )
        assert BOUNDARY_FACTOR**3 == expected

    def test_higher_powers_match_binomial_theorem(self):
        for n in (5, 9, 19):
            expected = BivariatePoly(
                {(k, k): Fraction((-1) ** k * math.comb(n, k)) for k in range(n + 1)}
            )
            assert BOUNDARY_FACTOR**n == expected

    def test_scalar_multiplication(self):
        assert Z * Fraction(1, 2) + Z * Fraction(1, 2) == Z

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Z**-1

    def test_negative_exponent_term_rejected(self):
        with pytest.raises(ValueError):
            BivariatePoly({(-1, 0): Fraction(1)})


class TestRingProperties:
    def test_ring_axioms_exact(self):
        rng = random.Random(2024)
        for _ in range(40):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_total_degree(self):
        assert BivariatePoly.zero().total_degree() == -1
        assert ONE.total_degree() == 0
        assert (BOUNDARY_FACTOR**4).total_degree() == 8


class TestWirtinger:
    def test_dz_power_rule(self):
        p = frac_poly({(2, 1): 1})
        assert p.wirtinger_dz() == frac_poly({(1, 1): 2})

    def test_dz_kills_antiholomorphic(self):
        assert frac_poly({(0, 3): 1}).wirtinger_dz().is_zero()

    def test_dz_of_boundary_square(self):
        # (1 - z zbar)^2 -> -2 zbar + 2 z zbar^2
        result = (BOUNDARY_FACTOR**2).wirtinger_dz()
        assert result == frac_poly({(0, 1): -2, (1, 2): 2})

    def test_dzbar_power_rule(self):
        assert frac_poly({(1, 2): 1}).wirtinger_dzbar() == frac_poly({(1, 1): 2})

    def test_dzbar_kills_holomorphic(self):
        assert frac_poly({(3, 0): 1}).wirtinger_dzbar().is_zero()

    def test_dzbar_of_boundary_square(self):
        result = (BOUNDARY_FACTOR**2).wirtinger_dzbar()
        assert result == frac_poly({(1, 0): -2, (2, 1): 2})

    def test_mixed_partials_commute(self):
        rng = random.Random(99)
        for _ in range(40):
            p = random_poly(rng)
            assert (
                p.wirtinger_dz().wirtinger_dzbar()
                == p.wirtinger_dzbar().wirtinger_dz()
            )


class TestEvaluate:
    def test_center_of_disk(self):
        assert BOUNDARY_FACTOR.evaluate(0) == 1

    def test_boundary_factor_vanishes_on_circle(self):
        for theta in (0.0, 0.9, 2.2, 4.5):
            value = BOUNDARY_FACTOR.evaluate(cmath.exp(1j * theta))
            assert abs(value) < 1e-15

    def test_hand_value(self):
        # 2 zbar (1 - z zbar) at z = 0.5
        p = ZBAR * 2 * BOUNDARY_FACTOR
        assert abs(p.evaluate(0.5) - 0.75) < 1e-15

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(31337)
        for _ in range(30):
            p, q = random_poly(rng), random_poly(rng)
            z = random_point(rng, radius=1.2)
            lhs = (p * q).evaluate(z)
            rhs = p.evaluate(z) * q.evaluate(z)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_conjugate_evaluates_to_conjugate(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poly(rng)
            z = random_point(rng)
            assert abs(p.conjugate().evaluate(z) - p.evaluate(z).conjugate()) < 1e-12
            assert p.conjugate().conjugate() == p


class TestBoundaryDivision:
    def test_exact_factor(self):
        assert BOUNDARY_FACTOR.divide_by_boundary_factor() == ONE

    def test_long_division_example(self):
        # 2 zbar - 2 z zbar^2 = (1 - z zbar) * 2 zbar
        p = frac_poly({(0, 1): 2, (1, 2): -2})
        assert p.divide_by_boundary_factor() == frac_poly({(0, 1): 2})

    def test_nondivisible_raises(self):
        with pytest.raises(NotDivisibleError):
            Z.divide_by_boundary_factor()

    def test_roundtrip_property(self):
        rng = random.Random(777)
        for _ in range(40):
            p = random_poly(rng)
            assert (BOUNDARY_FACTOR * p).divide_by_boundary_factor() == p

    def test_gap_in_powers(self):
        # 1 - (z zbar)^2 = (1 - z zbar)(1 + z zbar)
        p = frac_poly({(0, 0): 1, (2, 2): -1})
        assert p.divide_by_boundary_factor() == frac_poly({(0, 0): 1, (1, 1): 1})


class TestSerialization:
    def test_zero_renders_as_zero(self):
        assert BivariatePoly.zero().to_text() == "0"

    def test_terms_sorted_ascending(self):
        p = BivariatePoly(
            {(1, 1): Fraction(-1), (0, 0): Fraction(1, 2), (0, 1): Fraction(3)}
        )
        assert p.to_text() == (
            "(1/2,0/1) z^0 zbar^0 + (3/1,0/1) z^0 zbar^1 + (-1/1,0/1) z^1 zbar^1"
        )

    def test_imaginary_parts_rendered(self):
        p = BivariatePoly({(2, 0): ComplexRational(Fraction(0), Fraction(-2, 3))})
        assert p.to_text() == "(0/1,-2/3) z^2 zbar^0"


#: Random pure-mode integer profiles: frequency -6..6, up to 8 coefficients.
profiles = st.builds(
    WProfile,
    n=st.integers(-6, 6),
    coeffs=st.lists(st.integers(-(10**6), 10**6), max_size=8).map(tuple),
    den=st.integers(1, 1000),
)


class TestWProfile:
    def test_monomials_of_each_sign_of_frequency(self):
        assert WProfile(2, (5, 7), 3).to_poly() == frac_poly(
            {(2, 0): Fraction(5, 3), (3, 1): Fraction(7, 3)}
        )
        assert WProfile(-1, (4,)).to_poly() == frac_poly({(0, 1): 4})
        assert WProfile(0, (1, -1)).to_poly() == BOUNDARY_FACTOR

    @given(profiles)
    @settings(max_examples=200, deadline=None)
    def test_compact_calculus_matches_the_ring(self, profile):
        poly = profile.to_poly()
        assert profile.dz().to_poly() == poly.wirtinger_dz()
        assert profile.dzbar().to_poly() == poly.wirtinger_dzbar()
        product = profile.times_boundary()
        assert product.to_poly() == BOUNDARY_FACTOR * poly
        # division by (1 - w) round-trips, in both representations
        assert product.divide_by_boundary() == profile
        assert product.to_poly().divide_by_boundary_factor() == poly
        if sum(profile.coeffs) != 0:
            with pytest.raises(NotDivisibleError):
                profile.divide_by_boundary()

    @given(profiles, st.lists(st.integers(0, 50), min_size=1, max_size=4), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_numerators_are_exact_values(self, profile, radii, radius_den):
        numerators, den = profile.numerators_at(radii, radius_den)
        _, radial = radial_profile(profile.to_poly())
        for a, num in zip(radii, numerators):
            assert Fraction(num, den) == profile_value(radial, Fraction(a, radius_den))
