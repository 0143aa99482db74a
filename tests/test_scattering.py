"""Construction routes, eigenrelation, basis bookkeeping, sign resolution."""

import cmath
import contextlib
import json
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scatterpoly import cli, jacobi, quadrature, scattering, transform
from scatterpoly.jacobi import gauss_legendre
from scatterpoly.poly_algebra import BOUNDARY_FACTOR, BivariatePoly, WProfile, Z, ZBAR
from scatterpoly.quadrature import gram, inner_product_poly_exact, inner_products
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
    radial_sum,
    radial_sum_profile,
    radial_sum_values,
    resolved_sign,
    rodrigues,
    rodrigues_profile,
    sign_resolution,
)
from scatterpoly.transform import (
    ExpansionTable,
    boundary_value_check,
    expand,
    expansion_residual,
    polar_grid,
    reconstruct,
    solve_table,
    solve_weighted_poisson,
)

from helpers import (
    exact_norm_fraction,
    profile_value,
    radial_profile,
    random_point,
    scalar_jacobi_table,
)

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

    def test_entries_are_integers(self):
        # taken through operator.index and stored as int, so numpy integers hash alike
        idx = PQIndex(np.int64(2), np.int32(3))
        assert (type(idx.p), type(idx.q)) == (int, int)
        assert idx == PQIndex(2, 3) and hash(idx) == hash(PQIndex(2, 3))
        for bad in ((1.5, 2), (2, 2.0), (np.float64(2), 1), ("1", 1), (None, 1)):
            with pytest.raises(TypeError):
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
        def negated(members):
            return -reference(members)

        reference = scattering.check_values
        monkeypatch.setattr(scattering, "check_values", negated)
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
        # in index order; shuffled with repeats; two modes alone
        shuffled = basis_indices(11) + [PQIndex(3, 5), PQIndex(1, 1), PQIndex(7, 2)]
        random.Random(11).shuffle(shuffled)
        two_modes = [idx for idx in basis_indices(20) if idx.angular_frequency in (-3, 5)]
        r = [k / 17 for k in range(17)]
        for indices in (basis_indices(11), shuffled, two_modes):
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

    @pytest.mark.parametrize("top", [14, 32, 64])
    @pytest.mark.parametrize("nodes", ["rule", "uniform"])
    def test_columns_equal_radial_kernels_at_large_truncations(self, top, nodes):
        indices = basis_indices(top)
        r = rule_radii(2 * top + 12) if nodes == "rule" else np.linspace(0.0, 1.0, 33)
        for n, positions, kernel in mode_kernels(indices, r):
            for column, k in enumerate(positions):
                expected = jacobi_form(indices[k]).radial_kernel(r)
                assert np.array_equal(kernel[:, column].view(np.int64), expected.view(np.int64))

    def test_the_table_runs_each_m_to_its_own_degree(self, monkeypatch):
        asked = []
        table = jacobi.jacobi_table

        def recorded(m, max_degree, x):
            asked.append((list(m), list(max_degree)))
            return table(m, max_degree, x)

        mode_kernels(basis_indices(32), np.array([0.5]))  # the checks run their own table
        monkeypatch.setattr(jacobi, "jacobi_table", recorded)
        list(mode_kernels(basis_indices(32), np.array([0.25, 0.5])))
        # mode |n| = m of T = 32 has the degrees nu < (32 - m) / 2
        assert asked == [(list(range(31)), [(32 - m) // 2 - 1 for m in range(31)])]
        asked.clear()
        two_modes = [PQIndex(4, 1), PQIndex(2, 5), PQIndex(1, 4), PQIndex(7, 10)]
        list(mode_kernels(two_modes, np.array([0.5])))
        assert asked == [([3], [6])]

    def test_one_form_kernel_is_its_mode_column(self):
        indices = basis_indices(16)
        r = np.linspace(0.0, 1.0, 9)
        for n, positions, kernel in mode_kernels(indices, r):
            for column, k in enumerate(positions):
                form = jacobi_form(indices[k])
                assert np.array_equal(form.radial_kernel(r), kernel[:, column])
                assert form.radial_kernel(0.5) == form.radial_kernel(r[4:5])[0]


class TestModePlan:
    """A basis finds its cached mode plan; any other sequence groups anew,
    with the same bits."""

    def test_blocks_are_fresh_and_c_contiguous(self):
        # BLAS sums a strided view in another order than a C-contiguous block
        shuffled = basis_indices(24)
        random.Random(24).shuffle(shuffled)
        gaps = [PQIndex(3, 5), PQIndex(1, 3), PQIndex(4, 6)]  # mode 2, nu = 2, 0, 3
        r = np.sqrt((1.0 + gauss_legendre(26).nodes) / 2.0)
        for indices in (basis_indices(24), shuffled, gaps):
            for _, positions, kernel in mode_kernels(indices, r):
                assert kernel.flags.c_contiguous and kernel.flags.owndata
                assert not positions.flags.writeable  # a basis plan is shared

    def test_shuffled_basis_gives_the_same_bits(self):
        # a random order of the basis that keeps each mode's members in basis
        # order: a plan of its own, but every block sums in the same order
        indices = basis_indices(24)
        modes = [idx.q - idx.p for idx in indices]
        random.Random(5).shuffle(modes)
        members = {n: iter([idx for idx in indices if idx.q - idx.p == n]) for n in modes}
        shuffled = [next(members[n]) for n in modes]
        back = np.argsort([indices.index(idx) for idx in shuffled])
        fresh = gram(shuffled).entries
        assert np.array_equal(fresh[np.ix_(back, back)], gram(indices).entries)

        def f(r, theta):
            return (1 - r * r) * (r**3 * np.cos(3 * theta) + 1j * r * np.sin(theta) + 0.25)

        fresh = inner_products(f, shuffled, 32, 112)
        assert np.array_equal(fresh[back], inner_products(f, indices, 32, 112))
        table = expand(f, 24)
        norms = np.array([norm_sq(idx) for idx in shuffled])
        assert list(table.coefficients.values()) == (fresh / norms)[back].tolist()
        # a table sorts its keys, so a shuffled one is the basis table again
        regrouped = ExpansionTable({idx: table.coefficient(idx) for idx in shuffled}, 24)
        r, theta = polar_grid(16, 32)
        cached = reconstruct(table, r, theta).values
        hits = scattering._basis_plan.cache_info().hits
        kept = scattering._kept_kernels.cache_info().hits
        assert np.array_equal(reconstruct(regrouped, r, theta).values, cached)
        # the regrouped table finds the basis plan by one lookup and reads the set
        # that the first call keeps at r
        assert scattering._basis_plan.cache_info().hits == hits + 1
        assert scattering._kept_kernels.cache_info().hits == kept + 1

    @pytest.mark.parametrize("top", [2, 3, 17, 64])
    def test_plan_fields(self, top):
        basis = scattering._basis(top)
        gaps = (PQIndex(3, 5), PQIndex(1, 3), PQIndex(4, 6))
        for indices in (basis, basis[::-1], gaps, ()):
            plan = scattering._plan(indices)
            assert plan.top == (top if indices == basis else 0)
            assert plan.p.tolist() == [idx.p for idx in indices]
            assert plan.q.tolist() == [idx.q for idx in indices]
            assert plan.degree == max((idx.p + idx.q for idx in indices), default=0)
            expected = np.array([norm_sq(idx) for idx in indices], dtype=float)
            assert np.array_equal(plan.norms.view(np.int64), expected.view(np.int64))
            for n, positions, nus in plan.modes:
                members = [indices[k] for k in positions]
                assert all(idx.angular_frequency == n for idx in members)
                assert list(np.arange(2 * top)[nus]) == [idx.nu for idx in members]
                assert plan.need[n] == max(idx.nu for idx in members) + 1
            assert sorted(plan.need) == sorted({idx.angular_frequency for idx in indices})
            for array in (plan.p, plan.q, plan.norms):
                assert not array.flags.writeable
            with pytest.raises(AttributeError):
                plan.top = 1

    def test_a_basis_plan_is_built_once(self):
        plan = scattering._plan(scattering._basis(21))
        hits = scattering._basis_plan.cache_info().hits
        assert scattering._plan(tuple(basis_indices(21))) is plan
        assert scattering._basis_plan.cache_info().hits == hits + 1
        assert scattering._plan(tuple(basis_indices(21))[:-1]) is not plan

    def test_one_plan_lookup_per_warm_call(self, monkeypatch):
        table = expand(bump, 12)
        r, theta = polar_grid(16, 32)
        calls = {
            "expand": lambda: expand(bump, 12),
            "solve_table": lambda: solve_table(table),
            "reconstruct": lambda: reconstruct(table, r, theta),
            "boundary_value_check": lambda: boundary_value_check(table, 64),
            "expansion_residual": lambda: expansion_residual(bump, table),
            "gram": lambda: gram(table.indices),
            "inner_products": lambda: inner_products(bump, table.indices, 20, 64),
        }
        for call in calls.values():
            call()
        lookups = []
        plan = scattering._plan

        def counted(indices):
            lookups.append(indices)
            return plan(indices)

        for module in (scattering, quadrature, transform):
            monkeypatch.setattr(module, "_plan", counted)
        for name, call in calls.items():
            lookups.clear()
            call()
            assert len(lookups) == 1, name


def kept_sets():
    return scattering._kept_kernels.cache_info().currsize


def rule_radii(order):
    return np.sqrt((1.0 + gauss_legendre(order).nodes) / 2.0)


def bump(r, theta):
    return (1 - r * r) * (r * np.exp(1j * theta) + 0.5 * r * r * np.exp(-2j * theta) + 0.25)


class TestKernelStores:
    """A whole basis keeps its kernels in one cache keyed by (T, the bytes of its
    radii), at the radii the library picks, those of the projection, Gram and
    residual rules and the rim r = 1, and at the radii a caller hands reconstruct."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        jacobi_form.cache_clear()
        yield
        jacobi_form.cache_clear()

    def test_kept_sets_are_fresh_builds_and_read_only(self):
        grid, theta = polar_grid(24, 48)
        reconstruct(expand(bump, 16), grid, theta)
        gram(basis_indices(16))
        assert kept_sets() == 3
        # the projection rule T + 8, the Gram rule T + 2 and the caller's grid
        for r in (rule_radii(24), rule_radii(18), grid):
            kept = scattering._kept_kernels(16, r.tobytes())
            fresh = list(mode_kernels(basis_indices(16), r))
            assert [n for n, _, _ in kept] == [n for n, _, _ in fresh]
            for (_, positions, kernel), (_, fresh_positions, fresh_kernel) in zip(kept, fresh):
                assert np.array_equal(positions, fresh_positions)
                assert np.array_equal(kernel.view(np.int64), fresh_kernel.view(np.int64))
                assert kernel.flags.c_contiguous and kernel.flags.owndata
                assert not kernel.flags.writeable
                with pytest.raises(ValueError):
                    kernel[0, 0] = 0.0
        assert kept_sets() == 3

    def test_one_key_means_one_node_set(self):
        # gram's rule for T and a projection at order T + 2 are the same nodes
        indices = basis_indices(10)
        gram(indices)
        info = scattering._kept_kernels.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        products = inner_products(bump, indices, 12, 48)
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        # the shared set gives the bits of a per-call build at the projection rule
        assert np.array_equal(products, inner_products(bump, indices[::-1], 12, 48)[::-1])

    def test_keys_are_the_radii_of_a_warm_round(self, monkeypatch):
        # one round of the library_float_warm mix at T = 16, 24 and 32 on its 128 x 256
        # grid keeps five sets per T: projection T + 8, residual 2T + 12, rim, Gram
        # T + 2 and the caller's grid of reconstruct; 15 of the 16 keys, so a second
        # round finds every set it needs
        kept, keys = scattering._kept_kernels, []

        def recorded(top, radii):
            keys.append((top, radii))
            return kept(top, radii)

        monkeypatch.setattr(scattering, "_kept_kernels", recorded)
        r, theta = polar_grid(128, 256)

        def warm_round():
            for top in (16, 24, 32):
                expansion_residual(bump, expand(bump, top))
                solved = solve_weighted_poisson(bump, top)
                reconstruct(solved, r, theta)
                boundary_value_check(solved, 256)
                gram(basis_indices(top))

        warm_round()
        info = kept.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (15, 16, 15)
        warm_round()
        assert kept.cache_info()[1:] == (15, 16, 15)  # no miss
        rim, grid = np.array([1.0]).tobytes(), r.tobytes()
        assert set(keys) == {
            (top, radii)
            for top in (16, 24, 32)
            for radii in (
                *(rule_radii(o).tobytes() for o in (top + 8, 2 * top + 12, top + 2)), rim, grid
            )
        }
        for top, radii in set(keys):
            assert type(top) is int and type(radii) is bytes
            fresh = list(mode_kernels(basis_indices(top), np.frombuffer(radii)))
            assert len(kept(top, radii)) == len(fresh)
            for (n, positions, kernel), (fresh_n, _, fresh_kernel) in zip(kept(top, radii), fresh):
                assert n == fresh_n
                assert np.array_equal(kernel.view(np.int64), fresh_kernel.view(np.int64))

    def test_the_cache_keeps_the_last_sixteen_keys(self):
        for top in range(2, 18):
            gram(basis_indices(top))
        info = scattering._kept_kernels.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (16, 16, 16)
        gram(basis_indices(2))  # a hit makes T = 2's Gram set the most recent key
        gram(basis_indices(18))  # so the new key evicts T = 3's
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 17, 16)
        gram(basis_indices(2))
        assert scattering._kept_kernels.cache_info()[:2] == (2, 17)
        gram(basis_indices(3))
        assert scattering._kept_kernels.cache_info()[:2] == (2, 18)

    def test_threads_share_the_stores(self):
        # more threads than cores, more keys than the cache keeps, and a short
        # switch interval, so threads evict each other's keys mid-run
        sizes = range(2, 20)
        reference = {top: gram(basis_indices(top)).entries for top in sizes}
        errors, interval = [], sys.getswitchinterval()

        def work(seed):
            order = list(sizes) * 4
            random.Random(seed).shuffle(order)
            try:
                for top in order:
                    if not np.array_equal(gram(basis_indices(top)).entries, reference[top]):
                        errors.append(top)
            except Exception as exc:  # a cache corrupted by a race raises here
                errors.append(exc)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert kept_sets() == 16

    def test_per_call_node_sets_are_not_kept(self):
        table = expand(bump, 12)
        assert kept_sets() == 1
        r, theta = polar_grid(16, 32)
        mode_kernels(basis_indices(12), np.array([0.5]))
        shuffled = basis_indices(12)[::-1]
        inner_products(bump, shuffled, 20, 64)
        gram(shuffled)
        partial = ExpansionTable(dict(list(table.items())[:-1]), 12)
        expansion_residual(bump, partial)
        reconstruct(partial, r, theta)
        assert kept_sets() == 1
        # the projection set of T = 128 (8.8 MB) is above the cap and built per call
        assert 8 * len(basis_indices(128)) * 136 > scattering._KEPT_KERNEL_BYTES
        assert 8 * len(basis_indices(64)) * 72 <= scattering._KEPT_KERNEL_BYTES
        inner_products(bump, basis_indices(128), 136, 8)
        assert kept_sets() == 1
        # so is the residual set of T = 64 (order 140, 2.3 MB); T = 32's is kept
        assert 8 * len(basis_indices(64)) * 140 > scattering._KEPT_KERNEL_BYTES
        assert 8 * len(basis_indices(32)) * 76 <= scattering._KEPT_KERNEL_BYTES

    def test_the_residual_rule_is_kept(self, monkeypatch):
        table = expand(bump, 12)
        assert kept_sets() == 1
        residual = expansion_residual(bump, table)
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        kept = scattering._kept_kernels(12, rule_radii(2 * 12 + 12).tobytes())
        fresh = list(mode_kernels(basis_indices(12), rule_radii(36)))
        for (_, _, kernel), (_, _, fresh_kernel) in zip(kept, fresh):
            assert np.array_equal(kernel.view(np.int64), fresh_kernel.view(np.int64))
        # the lookup above, a second residual, and the solve's projection and
        # residual are hits
        assert expansion_residual(bump, table) == residual
        expansion_residual(bump, solve_weighted_poisson(bump, 12))
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 2, 2)
        # the bits of a residual whose kernels are built per call
        monkeypatch.setattr(scattering, "_KEPT_KERNEL_BYTES", 0)
        per_call = expansion_residual(bump, table)
        assert np.float64(per_call).view(np.int64) == np.float64(residual).view(np.int64)
        assert scattering._kept_kernels.cache_info().hits == 4

    def test_a_repeated_reconstruct_builds_no_table(self, monkeypatch):
        tables = []
        table_pass = jacobi.jacobi_table

        def counted(m, max_degree, x):
            tables.append(np.asarray(x).tobytes())
            return table_pass(m, max_degree, x)

        monkeypatch.setattr(jacobi, "jacobi_table", counted)
        table = expand(bump, 16)
        r, theta = polar_grid(24, 48)
        tables.clear()
        first = reconstruct(table, r, theta).values
        assert len(tables) == 1 and kept_sets() == 2  # the set at the caller's radii
        for again in (table, solve_weighted_poisson(bump, 16)):  # the solve's projection too
            reconstruct(again, r, theta)
        assert len(tables) == 1
        assert np.array_equal(reconstruct(table, r, theta).values.view(np.int64), first.view(np.int64))
        # the solve's projection and the three reconstructs after the first are hits
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 2, 2)
        # another grid is another key; a partial table builds its kernels at every call
        reconstruct(table, r[:-1], theta)
        partial = ExpansionTable(dict(list(table.items())[1:]), 16)
        tables.clear()
        for _ in range(2):
            reconstruct(partial, r, theta)
        assert len(tables) == 2 and kept_sets() == 3

    def test_a_rejected_reconstruct_keeps_no_set(self):
        table = expand(bump, 12)
        r, theta = polar_grid(16, 32)
        before = scattering._kept_kernels.cache_info()
        rejected = [
            ([1.5], theta, r"radial nodes must lie in \[0, 1\)"),
            ([-0.1], theta, r"radial nodes must lie in \[0, 1\)"),
            ([np.nan], theta, "radial and angular nodes must be finite"),
            (r, [0.0, np.inf], "radial and angular nodes must be finite"),
            (r[:, None], theta, "radial and angular nodes must be 1-D"),
            (r, theta[None, :], "radial and angular nodes must be 1-D"),
            (0.5, theta, "radial and angular nodes must be 1-D"),
        ]
        for radii, angles, message in rejected:
            with pytest.raises(ValueError, match=message):
                reconstruct(table, radii, angles)
        assert scattering._kept_kernels.cache_info() == before

    def test_the_rim_is_kept(self, monkeypatch):
        tables = []
        table_pass = jacobi.jacobi_table

        def counted(m, max_degree, x):
            tables.append(np.asarray(x).tobytes())
            return table_pass(m, max_degree, x)

        monkeypatch.setattr(jacobi, "jacobi_table", counted)
        table = expand(bump, 12)
        assert kept_sets() == 1
        tables.clear()
        assert boundary_value_check(table, 64) == 0.0
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        assert len(tables) == 1  # the rim set, built once
        lookups = jacobi_form.cache_info().hits
        # a repeat, and the solved table of the same basis (its projection
        # too), are hits that build no table
        assert boundary_value_check(table, 256) == 0.0
        assert boundary_value_check(solve_weighted_poisson(bump, 12), 64) == 0.0
        info = scattering._kept_kernels.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 2, 2)
        assert len(tables) == 1
        # each check still looks its members up once (the solve's projection too)
        assert jacobi_form.cache_info().hits == lookups + 3
        # the kept set is the rim kernels of a fresh build, bit for bit
        kept = scattering._kept_kernels(12, np.array([1.0]).tobytes())
        fresh = list(mode_kernels(basis_indices(12), np.array([1.0])))
        assert [n for n, _, _ in kept] == [n for n, _, _ in fresh]
        for (_, _, kernel), (_, _, fresh_kernel) in zip(kept, fresh):
            assert kernel.shape == (1, fresh_kernel.shape[1]) and not kernel.flags.writeable
            assert np.array_equal(kernel.view(np.int64), fresh_kernel.view(np.int64))
        # one T, one more entry; T = 128's rim set (65 KB) is under the cap
        boundary_value_check(expand(bump, 16), 8)
        assert kept_sets() == 4
        assert 8 * len(basis_indices(128)) <= scattering._KEPT_KERNEL_BYTES
        # a partial table builds its kernels per call
        partial = ExpansionTable(dict(list(table.items())[:-1]), 12)
        tables.clear()
        for _ in range(2):
            assert boundary_value_check(partial, 64) == 0.0
        assert len(tables) == 2 and kept_sets() == 4
        # clearing the checks empties the cache
        jacobi_form.cache_clear()
        assert kept_sets() == 0

    def test_a_kept_rim_still_checks_its_members(self, monkeypatch):
        table = expand(bump, 16)
        boundary_value_check(table, 16)
        jacobi_form.cache_clear()
        reference = scattering.check_values

        def one_wrong(members):
            values = reference(members)
            if PQIndex(5, 8) in members:
                values[members.index(PQIndex(5, 8))] += 1e-6
            return values

        monkeypatch.setattr(scattering, "check_values", one_wrong)
        with pytest.raises(SignValidationError, match=r"p=5, q=8"):
            boundary_value_check(table, 16)
        assert kept_sets() == 0

    def test_expand_keys_its_table_by_the_basis_objects(self):
        basis = scattering._basis(32)
        table = expand(bump, 32)
        for keyed in (table, solve_weighted_poisson(bump, 32)):
            assert len(keyed.coefficients) == len(basis)
            assert all(a is b for a, b in zip(keyed.coefficients, basis))
        products = inner_products(bump, list(basis), 40, 144)
        # one division by the cached norms, the bits of one division per index
        assert list(table.coefficients.values()) == [
            complex(v / norm_sq(idx)) for idx, v in zip(basis, products)
        ]

    def test_fresh_equal_keys_give_the_same_table(self):
        table = expand(bump, 12)
        fresh = {PQIndex(idx.p, idx.q): c for idx, c in reversed(table.items())}
        rebuilt = ExpansionTable(fresh, 12)
        assert rebuilt.items() == table.items()
        r, theta = polar_grid(8, 16)
        assert np.array_equal(reconstruct(rebuilt, r, theta).values, reconstruct(table, r, theta).values)
        with pytest.raises(TypeError):
            ExpansionTable({**fresh, (1, 1): 1.0}, 12)
        with pytest.raises(TypeError):
            ExpansionTable({(p, q): 1.0 for p, q in ((1, 1), (1, 2))}, 3)
        with pytest.raises(ValueError):
            ExpansionTable({**fresh, PQIndex(6, 7): 1.0}, 12)
        with pytest.raises(ValueError):
            ExpansionTable(dict(table.items()), 11)


class TestModeChecks:
    """The construction check runs once per member, every mode at one set of radii."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        reference = scattering.check_values

        def counted(members):
            calls.extend(members)
            return reference(members)

        monkeypatch.setattr(scattering, "check_values", counted)
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
        # one table at the check radii, shared by every mode, plus one at the
        # Gram nodes: not one per mode or one per index
        assert max(Counter(node_sets).values()) == 1
        assert len(node_sets) == 2
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
        reference = scattering.check_values

        def one_wrong(members):
            values = reference(members)
            if PQIndex(5, 8) in members:
                values[members.index(PQIndex(5, 8))] += 1e-6
            return values

        monkeypatch.setattr(scattering, "check_values", one_wrong)
        jacobi_form.cache_clear()
        with pytest.raises(SignValidationError, match=r"p=5, q=8"):
            mode_kernels(basis_indices(16), np.array([0.5]))
        jacobi_form.cache_clear()

    @pytest.mark.parametrize(
        "offset,outcome",
        [
            (2e-12, pytest.raises(SignValidationError, match=r"p=5, q=8")),
            (0.5e-12, contextlib.nullcontext()),
        ],
    )
    def test_threshold_is_1e_12_of_the_scale(self, offset, outcome, monkeypatch):
        # every exact value of (5, 8) moves by offset times the member's scale
        reference = scattering.check_values

        def shifted(members):
            values = reference(members)
            if PQIndex(5, 8) in members:
                row = values[members.index(PQIndex(5, 8))]
                row += offset * max(1.0, np.max(np.abs(row)))
            return values

        monkeypatch.setattr(scattering, "check_values", shifted)
        jacobi_form.cache_clear()
        with outcome:
            jacobi_form(PQIndex(5, 8))
        jacobi_form.cache_clear()


class TestCheckValues:
    """The exact values of the construction check, read from the package's table."""

    def test_table_is_the_binomial_sums_rounded_once(self):
        # rebuilt from the integer binomial sums: every entry bit-equal, so a change to
        # any one of them fails here
        members = [PQIndex(p, s - p) for s in range(2, cli.MAX_TRUNC + 1) for p in range(1, s)]
        exact = (radial_sum_values(idx, scattering._CHECK_RADII) for idx in members)
        expected = np.array([[num / den for num in numerators] for numerators, den in exact])
        table = np.load(Path(scattering.__file__).with_name("check_values.npy"))
        assert table.dtype == np.dtype("<f8") and table.shape == (8128, 20)
        assert np.array_equal(table.view(np.int64), expected.view(np.int64))
        # check_values reads each member's own row, whatever the order of the members
        order = random.Random(28).sample(range(len(members)), len(members))
        values = scattering.check_values([members[k] for k in order])
        assert np.array_equal(values.view(np.int64), expected[order].view(np.int64))

    def test_members_beyond_the_table_take_the_exact_route(self, monkeypatch):
        calls = []
        reference = scattering.radial_sum_values

        def counted(idx, radii):
            calls.append(idx)
            return reference(idx, radii)

        monkeypatch.setattr(scattering, "radial_sum_values", counted)
        jacobi_form.cache_clear()
        # mode n = 1 up to nu = 63: (1, 2) .. (63, 64) from the table, (64, 65) computed
        form = jacobi_form(PQIndex(64, 65))
        assert calls == [PQIndex(64, 65)]
        assert form.coeff == 1.0  # (-1)^(q + 1) max{p,q} / q
        assert jacobi_form.cache_info().misses == 64

        def one_wrong(idx, radii):
            numerators, den = reference(idx, radii)
            if idx == PQIndex(64, 65):
                numerators = [num + den // 10**6 for num in numerators]
            return numerators, den

        monkeypatch.setattr(scattering, "radial_sum_values", one_wrong)
        jacobi_form.cache_clear()
        with pytest.raises(SignValidationError, match=r"p=64, q=65"):
            jacobi_form(PQIndex(64, 65))
        # a mode with a failing member stores none of its checks
        assert jacobi_form.cache_info().currsize == 0
        jacobi_form.cache_clear()


class TestFloatPathIsExactFree:
    def test_no_exact_polynomial_is_built(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("float path built an exact polynomial")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(BivariatePoly, "__post_init__", refuse)
        jacobi_form.cache_clear()

        def f(r, theta):
            return complex((1.0 - r * r) ** 2)

        table = expand(f, 10)
        solve_weighted_poisson(f, 10)
        reconstruct(table, [0.0, 0.5, 0.9], [0.0, 1.0, 2.0])
        gram(basis_indices(10))
        assert cli.main(["eval", "4", "3", "--grid", "4x4"]) == 0
        assert jacobi_form.cache_info().misses > 0

    def test_no_exact_value_is_computed_up_to_max_trunc(self, monkeypatch):
        def refuse(self, radii, radius_den):
            raise AssertionError("float path evaluated an exact profile")

        monkeypatch.setattr(WProfile, "numerators_at", refuse)
        jacobi_form.cache_clear()
        table = expand(bump, cli.MAX_TRUNC)
        assert len(table.coefficients) == len(basis_indices(cli.MAX_TRUNC))
        assert jacobi_form.cache_info().misses == len(basis_indices(cli.MAX_TRUNC))
        jacobi_form.cache_clear()


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

    def test_basis_is_a_new_list_of_the_same_indices(self):
        first = basis_indices(6)
        first.append(PQIndex(9, 9))
        first[0] = PQIndex(2, 2)
        second = basis_indices(6)
        assert second == [PQIndex(p, q) for p in range(1, 6) for q in range(1, 7 - p)]
        assert second is not basis_indices(6)
        assert all(a is b for a, b in zip(second, basis_indices(6)))


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
