"""Construction routes, eigenrelation, basis bookkeeping, sign resolution."""

import cmath
import json
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scatterpoly import cli, jacobi, scattering
from scatterpoly.jacobi import gauss_legendre
from scatterpoly.poly_algebra import BOUNDARY_FACTOR, BivariatePoly, WProfile, Z, ZBAR
from scatterpoly.quadrature import gram, inner_product_poly_exact
from scatterpoly.scattering import (
    PQIndex,
    RadialForm,
    SignValidationError,
    apply_modified_laplacian,
    basis_indices,
    eigencheck,
    eigenspace_indices,
    jacobi_form,
    mode_kernels,
    norm_sq,
    profile_value,
    radial_profile,
    radial_sum,
    radial_sum_profile,
    radial_sum_values,
    resolved_sign,
    rodrigues,
    rodrigues_profile,
    sign_resolution,
)
from scatterpoly.transform import expand, reconstruct, solve_weighted_poisson

from helpers import exact_norm_fraction, random_point, scalar_jacobi_table

#: sigma_0(k) for k = 1..30: number of divisors.
DIVISOR_COUNTS = [
    1, 2, 2, 3, 2, 4, 2, 4, 3, 4,
    2, 6, 2, 4, 4, 5, 2, 6, 2, 6,
    4, 4, 2, 8, 3, 4, 4, 6, 2, 8,
]


class TestPQIndex:
    def test_rejects_nonpositive_entries(self):
        for bad in ((0, 1), (1, 0), (-2, 3), (0, 0)):
            with pytest.raises(ValueError, match=r"min\{p,q\} must be >= 1"):
                PQIndex(*bad)

    def test_derived_quantities(self):
        idx = PQIndex(5, 2)
        assert idx.m == 3
        assert idx.nu == 1
        assert idx.angular_frequency == -3
        assert idx.eigenvalue == 10

    def test_lexicographic_ordering(self):
        assert sorted([PQIndex(2, 1), PQIndex(1, 3), PQIndex(1, 2)]) == [
            PQIndex(1, 2),
            PQIndex(1, 3),
            PQIndex(2, 1),
        ]


class TestRodrigues:
    def test_index_1_1(self):
        assert rodrigues(PQIndex(1, 1)) == BOUNDARY_FACTOR

    def test_index_2_1(self):
        assert rodrigues(PQIndex(2, 1)) == ZBAR * 2 * BOUNDARY_FACTOR

    def test_index_2_2(self):
        one_minus_3w = BivariatePoly({(0, 0): Fraction(1), (1, 1): Fraction(-3)})
        assert rodrigues(PQIndex(2, 2)) == BOUNDARY_FACTOR * one_minus_3w

    def test_index_1_2(self):
        assert rodrigues(PQIndex(1, 2)) == Z * -1 * BOUNDARY_FACTOR

    def test_angular_purity(self):
        # every monomial z^a zbar^b satisfies a - b = q - p
        for idx in basis_indices(10):
            for (a, b) in rodrigues(idx).terms:
                assert a - b == idx.q - idx.p

    def test_total_degree_is_p_plus_q(self):
        # e.g. (2,1) -> 2 zbar (1 - z zbar), degree 3
        for idx in basis_indices(10):
            assert rodrigues(idx).total_degree() == idx.p + idx.q

    def test_boundary_divisibility(self):
        for idx in basis_indices(10):
            quotient = rodrigues(idx).divide_by_boundary_factor()
            assert BOUNDARY_FACTOR * quotient == rodrigues(idx)


def ring_rodrigues(idx):
    """Reference: the Rodrigues formula differentiated in the general ring."""
    p, q = idx.p, idx.q
    core = BOUNDARY_FACTOR ** (p + q - 1)
    for _ in range(p):
        core = core.wirtinger_dz()
    for _ in range(q):
        core = core.wirtinger_dzbar()
    scale = Fraction((-1) ** p, q * math.factorial(p + q - 1))
    return BOUNDARY_FACTOR * core * scale


class TestIntegerRodrigues:
    def test_equals_the_ring_route(self):
        for idx in basis_indices(14):
            reference = ring_rodrigues(idx)
            assert rodrigues(idx) == reference
            assert rodrigues(idx).to_text() == reference.to_text()

    def test_uses_no_binomial_closed_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Rodrigues route used a binomial closed form")

        monkeypatch.setattr(math, "comb", refuse)
        monkeypatch.setattr(math, "perm", refuse)
        monkeypatch.setattr(scattering, "_sum_kernel", refuse)
        scattering._boundary_power.cache_clear()
        rodrigues_profile.cache_clear()
        rodrigues.cache_clear()
        for idx in basis_indices(8):
            assert rodrigues(idx) == ring_rodrigues(idx)
            assert eigencheck(idx)


class TestCorruptedProfile:
    """The integer checks still fail when the Rodrigues profile is wrong."""

    @pytest.fixture
    def corrupted(self, monkeypatch):
        def corrupt(idx):
            profile = reference(idx)
            coeffs = (profile.coeffs[0] + 1,) + profile.coeffs[1:]
            return type(profile)(profile.n, coeffs, profile.den)

        reference = scattering.rodrigues_profile
        monkeypatch.setattr(scattering, "rodrigues_profile", corrupt)
        monkeypatch.setattr(cli, "rodrigues_profile", corrupt)
        rodrigues.cache_clear()
        yield
        rodrigues.cache_clear()

    def test_eigencheck_fails(self, corrupted):
        for pq in ((1, 1), (2, 3), (4, 1)):
            assert not eigencheck(PQIndex(*pq))

    def test_one_unit_fails_the_route_check_at_its_index(self, tmp_path, monkeypatch, capsys):
        def corrupt(idx):
            profile = reference(idx)
            if idx != PQIndex(2, 3):
                return profile
            coeffs = profile.coeffs[:1] + (profile.coeffs[1] - 1,) + profile.coeffs[2:]
            return WProfile(profile.n, coeffs, profile.den)

        reference = scattering.rodrigues_profile
        monkeypatch.setattr(cli, "rodrigues_profile", corrupt)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "6"]) == 1
        assert "route_equivalence: FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"]["route_equivalence"]["failures"] == [[2, 3]]

    def test_verify_fails(self, corrupted, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "6"]) == 1
        out = capsys.readouterr().out
        assert "eigenrelation: FAIL" in out
        assert "route_equivalence: FAIL" in out


class TestRadialSum:
    def test_index_1_1(self):
        assert radial_sum(PQIndex(1, 1)) == BOUNDARY_FACTOR

    def test_index_1_2(self):
        assert radial_sum(PQIndex(1, 2)) == Z * -1 * BOUNDARY_FACTOR

    def test_index_2_2_radial_profile(self):
        freq, profile = radial_profile(radial_sum(PQIndex(2, 2)))
        assert freq == 0
        assert profile == {0: 1, 2: -4, 4: 3}

    def test_equals_rodrigues_exactly(self):
        for idx in basis_indices(10):
            assert radial_sum(idx) == rodrigues(idx)

    def test_profile_routes_agree(self):
        # the integer comparison that verify runs, for every p + q <= 48
        for idx in basis_indices(48):
            assert rodrigues_profile(idx).same_polynomial(radial_sum_profile(idx)), idx


class TestSamePolynomial:
    def test_denominators_cross_multiply(self):
        assert WProfile(2, (1, -3), 4).same_polynomial(WProfile(2, (3, -9), 12))
        assert not WProfile(2, (1, -3), 4).same_polynomial(WProfile(2, (3, -8), 12))

    def test_missing_coefficients_are_zero(self):
        assert WProfile(-1, (5, 0, 0), 1).same_polynomial(WProfile(-1, (5,), 1))
        assert not WProfile(-1, (5, 0, 1), 1).same_polynomial(WProfile(-1, (5,), 1))

    def test_frequency_counts_unless_zero(self):
        assert not WProfile(1, (1,), 1).same_polynomial(WProfile(-1, (1,), 1))
        assert WProfile(1, (0,), 1).same_polynomial(WProfile(-3, (), 7))


class TestJacobiForm:
    @pytest.mark.parametrize(
        "p,q,coeff,m,nu,n",
        [
            (1, 1, 1.0, 0, 0, 0),
            (2, 1, 2.0, 1, 0, -1),
            (2, 2, -1.0, 0, 1, 0),
            (1, 2, -1.0, 1, 0, 1),
        ],
    )
    def test_resolved_examples(self, p, q, coeff, m, nu, n):
        form = jacobi_form(PQIndex(p, q))
        assert form == RadialForm(coeff=coeff, m=m, nu=nu, angular_frequency=n)

    def test_matches_exact_values(self):
        rng = random.Random(8)
        for idx in basis_indices(9):
            form = jacobi_form(idx)
            poly = rodrigues(idx)
            for _ in range(10):
                z = random_point(rng)
                r, theta = abs(z), cmath.phase(z)
                approx = form.value(r, theta)
                exact = poly.evaluate(z)
                assert abs(approx - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_sign_follows_parity_of_q(self):
        # validation lands on (-1)^(q+1) every time
        for idx in basis_indices(12):
            assert resolved_sign(idx) == (-1) ** (idx.q + 1)

    def test_sign_resolution_record(self):
        record = sign_resolution(PQIndex(2, 2))
        assert record["resolved_sign"] == -1
        assert record["rule_sign"] == 1
        assert record["agrees"] is False
        # the exponent rule (-1)^(q+max) survives only at odd max{p,q}
        for idx in basis_indices(10):
            assert sign_resolution(idx)["agrees"] == (max(idx.p, idx.q) % 2 == 1)

    def test_check_reference_is_the_rodrigues_profile(self):
        # the integer binomial sum behind the construction-time check equals
        # the normative Rodrigues polynomial exactly, at dyadic radii from
        # 1/1024 to 1023/1024
        radii = range(1, 1024, 7)
        for idx in basis_indices(12):
            numerators, den = radial_sum_values(idx, radii)
            _, profile = radial_profile(rodrigues(idx))
            for k, num in zip(radii, numerators):
                assert Fraction(num, den) == profile_value(profile, Fraction(k, 1024))

    def test_check_rejects_a_wrong_reference(self, monkeypatch):
        def negated(idx, radii):
            numerators, common = reference(idx, radii)
            return [-n for n in numerators], common

        reference = scattering.radial_sum_values
        monkeypatch.setattr(scattering, "radial_sum_values", negated)
        jacobi_form.cache_clear()
        for pq in ((1, 1), (2, 2), (4, 3)):
            with pytest.raises(SignValidationError):
                jacobi_form(PQIndex(*pq))

    def test_radial_kernel_cancels_boundary_factor(self):
        form = jacobi_form(PQIndex(3, 2))
        for r in (0.1, 0.5, 0.9):
            assert form.radial_value(r) == pytest.approx(
                (1 - r * r) * form.radial_kernel(r), rel=1e-15
            )


class TestModeKernels:
    def test_columns_equal_radial_kernels(self):
        indices = basis_indices(11)
        r = [k / 17 for k in range(17)]
        seen = []
        for n, positions, kernel in mode_kernels(indices, r):
            assert kernel.shape == (17, len(positions))
            for column, k in enumerate(positions):
                idx = indices[k]
                assert idx.angular_frequency == n
                expected = jacobi_form(idx).radial_kernel(np.array(r))
                assert np.array_equal(kernel[:, column], expected)
            seen += list(positions)
        assert sorted(seen) == list(range(len(indices)))


    def test_columns_equal_the_per_index_reference_at_40(self):
        # per index: coeff * r**m (a scalar exponent) times the one-m
        # recurrence; the batched pass must give the same bits for every mode
        indices = basis_indices(40)
        r = np.sqrt((1.0 + gauss_legendre(48).nodes) / 2.0)
        x = 2.0 * r * r - 1.0
        for n, positions, kernel in mode_kernels(indices, r):
            for column, k in enumerate(positions):
                form = jacobi_form(indices[k])
                expected = form.coeff * r**form.m * scalar_jacobi_table(form.m, form.nu, x)[:, -1]
                assert np.array_equal(kernel[:, column], expected), indices[k]

    def test_one_form_kernel_is_its_mode_column(self):
        indices = basis_indices(16)
        r = np.linspace(0.0, 1.0, 9)
        for n, positions, kernel in mode_kernels(indices, r):
            for column, k in enumerate(positions):
                form = jacobi_form(indices[k])
                assert np.array_equal(form.radial_kernel(r), kernel[:, column])
                assert form.radial_kernel(0.5) == form.radial_kernel(r[4:5])[0]


class TestModeChecks:
    """The construction check runs a mode at a time, once per member."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        reference = scattering.radial_sum_values

        def counted(idx, radii):
            calls.append(idx)
            return reference(idx, radii)

        monkeypatch.setattr(scattering, "radial_sum_values", counted)
        jacobi_form.cache_clear()
        yield calls
        jacobi_form.cache_clear()

    def test_cold_gram_runs_one_table_per_node_set(self, checked, monkeypatch):
        node_sets = []
        table = jacobi.jacobi_table

        def counted(m, max_degree, x):
            node_sets.append(np.asarray(x).tobytes())
            return table(m, max_degree, x)

        monkeypatch.setattr(jacobi, "jacobi_table", counted)
        indices = basis_indices(32)
        gram(indices)
        modes = {idx.angular_frequency for idx in indices}
        # one table at each mode's check radii plus one at the Gram nodes,
        # not one per mode at the Gram nodes or one per index
        assert max(Counter(node_sets).values()) == 1
        assert len(node_sets) == len(modes) + 1
        assert sorted(checked) == sorted(indices)

    def test_growing_a_mode_checks_only_new_members(self, checked):
        small, large = basis_indices(16), basis_indices(32)
        mode_kernels(small, np.array([0.5]))
        assert sorted(checked) == sorted(small)
        checked.clear()
        mode_kernels(large, np.array([0.25, 0.75]))
        assert sorted(checked) == sorted(set(large) - set(small))
        checked.clear()
        gram(large)
        jacobi_form(PQIndex(3, 9))
        assert checked == []
        assert jacobi_form.cache_info().misses == len(large)
        assert jacobi_form.cache_info().currsize == len(large)

    def test_clearing_forces_a_recheck(self, checked):
        # the first lookup checks its mode n = 3 up to nu = 3, in order of nu
        mode = [PQIndex(1, 4), PQIndex(2, 5), PQIndex(3, 6), PQIndex(4, 7)]
        jacobi_form(PQIndex(4, 7))
        jacobi_form(PQIndex(4, 7))
        jacobi_form(PQIndex(2, 5))
        assert checked == mode
        assert jacobi_form.cache_info()[:2] == (2, 4)
        jacobi_form.cache_clear()
        assert jacobi_form.cache_info()[:2] == (0, 0)
        jacobi_form(PQIndex(4, 7))
        assert checked == mode * 2

    def test_threads_checking_one_basis_store_each_form_once(self, checked):
        indices = basis_indices(24)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: list(mode_kernels(indices, np.array([0.5]))))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert jacobi_form.cache_info().currsize == len(indices)
        for idx in indices:
            form = jacobi_form(idx)
            assert (form.m, form.nu, form.angular_frequency) == (idx.m, idx.nu, idx.q - idx.p)

    def test_failure_names_the_member(self, monkeypatch):
        reference = scattering.radial_sum_values

        def one_wrong(idx, radii):
            numerators, den = reference(idx, radii)
            if idx == PQIndex(5, 8):
                numerators = [num + den // 10**6 for num in numerators]
            return numerators, den

        monkeypatch.setattr(scattering, "radial_sum_values", one_wrong)
        jacobi_form.cache_clear()
        with pytest.raises(SignValidationError, match=r"p=5, q=8"):
            mode_kernels(basis_indices(16), np.array([0.5]))
        jacobi_form.cache_clear()


class TestFloatPathIsExactFree:
    def test_no_exact_polynomial_is_built(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("float path built an exact polynomial")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(BivariatePoly, "__post_init__", refuse)
        rodrigues.cache_clear()
        radial_sum.cache_clear()
        jacobi_form.cache_clear()

        def f(r, theta):
            return complex((1.0 - r * r) ** 2)

        table = expand(f, 10)
        solve_weighted_poisson(f, 10)
        reconstruct(table, [0.0, 0.5, 0.9], [0.0, 1.0, 2.0])
        gram(basis_indices(10))
        assert cli.main(["eval", "4", "3", "--grid", "4x4"]) == 0
        assert rodrigues.cache_info().misses == 0
        assert radial_sum.cache_info().misses == 0
        assert jacobi_form.cache_info().misses > 0


class TestReflection:
    def test_swapped_index_is_scaled_conjugate(self):
        # phi^(q,p) = (-1)^(p+q) (q/p) conj(phi^(p,q)), docs/math_notes.md 3.2
        for idx in basis_indices(12):
            p, q = idx.p, idx.q
            factor = Fraction((-1) ** (p + q) * q, p)
            assert rodrigues(PQIndex(q, p)) == rodrigues(idx).conjugate() * factor


class TestModifiedLaplacian:
    def test_boundary_factor_eigenpair(self):
        assert apply_modified_laplacian(BOUNDARY_FACTOR) == -BOUNDARY_FACTOR

    def test_kills_constants(self):
        assert apply_modified_laplacian(BivariatePoly.constant(7)).is_zero()

    def test_hand_eigenvalue_two(self):
        phi = ZBAR * 2 * BOUNDARY_FACTOR
        assert -apply_modified_laplacian(phi) == phi * 2

    def test_eigencheck_small_indices(self):
        for pq in ((1, 1), (3, 2), (2, 3), (4, 1)):
            assert eigencheck(PQIndex(*pq))

    def test_z_is_not_an_eigenfunction(self):
        # the relation with eigenvalue 1 fails for the monomial z
        assert not (apply_modified_laplacian(Z) + Z).is_zero()


class TestEnumeration:
    def test_eigenspace_k1(self):
        assert eigenspace_indices(1) == [PQIndex(1, 1)]

    def test_eigenspace_k6(self):
        assert eigenspace_indices(6) == [
            PQIndex(1, 6),
            PQIndex(2, 3),
            PQIndex(3, 2),
            PQIndex(6, 1),
        ]

    def test_eigenspace_k12_length(self):
        assert len(eigenspace_indices(12)) == 6

    def test_multiplicity_matches_divisor_count(self):
        for k, expected in enumerate(DIVISOR_COUNTS, start=1):
            found = eigenspace_indices(k)
            assert len(found) == expected
            assert all(idx.eigenvalue == k for idx in found)

    def test_eigenspace_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            eigenspace_indices(0)

    def test_basis_smallest(self):
        assert basis_indices(2) == [PQIndex(1, 1)]

    def test_basis_three(self):
        assert basis_indices(3) == [PQIndex(1, 1), PQIndex(1, 2), PQIndex(2, 1)]

    def test_basis_count_and_order(self):
        indices = basis_indices(5)
        assert len(indices) == 10
        assert indices == sorted(indices)

    def test_basis_rejects_max_sum_below_two(self):
        with pytest.raises(ValueError):
            basis_indices(1)


class TestNormClosedForm:
    def test_hand_values(self):
        assert norm_sq(PQIndex(1, 1)) == pytest.approx(math.pi / 2, rel=1e-15)
        assert norm_sq(PQIndex(2, 1)) == pytest.approx(2 * math.pi / 3, rel=1e-15)
        assert norm_sq(PQIndex(1, 2)) == pytest.approx(math.pi / 6, rel=1e-15)

    def test_gate_against_exact_integral(self):
        # rational integration of the exact polynomial, no rounding anywhere
        for idx in basis_indices(12):
            re, im = inner_product_poly_exact(rodrigues(idx), rodrigues(idx))
            assert im == 0
            assert re == exact_norm_fraction(idx)


class TestRadialProfile:
    def test_mixed_frequency_rejected(self):
        with pytest.raises(ValueError):
            radial_profile(Z + BOUNDARY_FACTOR)

    def test_profile_evaluation(self):
        freq, profile = radial_profile(rodrigues(PQIndex(2, 1)))
        assert freq == -1
        value = profile_value(profile, Fraction(1, 2))
        # 2 r (1 - r^2) at r = 1/2
        assert value == Fraction(3, 4)
