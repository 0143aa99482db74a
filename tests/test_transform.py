"""Expansion, synthesis, residuals, and the diagonal Poisson solve."""

import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterpoly import scattering, transform
from scatterpoly.jacobi import gauss_legendre
from scatterpoly.poly_algebra import BivariatePoly
from scatterpoly.quadrature import inner_product_function, inner_product_poly
from scatterpoly.scattering import (
    PQIndex,
    apply_modified_laplacian,
    basis_indices,
    jacobi_form,
    mode_kernels,
    norm_sq,
    rodrigues,
)
from scatterpoly.transform import (
    ExpansionTable,
    GridSample,
    basis_function,
    boundary_value_check,
    expand,
    expansion_residual,
    grid_interpolant,
    polar_grid,
    reconstruct,
    rim_amplitude,
    solve_exact,
    solve_table,
    solve_weighted_poisson,
    synthesize_exact,
)

from helpers import ring_exact_sum

#: The directory the package was imported from, for the subprocess test.
SRC = Path(transform.__file__).resolve().parent.parent


def table_as_function(table: ExpansionTable):
    poly = synthesize_exact(table)
    return lambda r, theta: complex(poly.evaluate(r * cmath.exp(1j * theta)))


def random_table(rng: random.Random, truncation: int) -> ExpansionTable:
    coefficients = {
        idx: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for idx in basis_indices(truncation)
    }
    return ExpansionTable(coefficients=coefficients, truncation=truncation)


@st.composite
def in_span_tables(draw, max_truncation: int = 10) -> ExpansionTable:
    truncation = draw(st.integers(2, max_truncation))
    indices = basis_indices(truncation)
    coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(coefficient, min_size=len(indices), max_size=len(indices)))
    return ExpansionTable(coefficients=dict(zip(indices, values)), truncation=truncation)


class TestExpansionTable:
    def test_rejects_non_index_keys(self):
        with pytest.raises(TypeError):
            ExpansionTable(coefficients={(1, 1): 1.0}, truncation=4)

    @pytest.mark.parametrize("text", ["1", "nan", b"1"])
    def test_rejects_text_values(self, text):
        # complex("1") and complex("nan") would parse; a table holds numbers only
        with pytest.raises(TypeError):
            ExpansionTable({PQIndex(1, 1): text}, 2)
        with pytest.raises(TypeError):
            ExpansionTable({PQIndex(1, 1): 1.0, PQIndex(1, 2): np.str_("2")}, 3)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            ExpansionTable(coefficients={PQIndex(3, 3): 1.0}, truncation=4)

    def test_missing_coefficient_is_zero(self):
        table = ExpansionTable(coefficients={PQIndex(1, 1): 2.0}, truncation=4)
        assert table.coefficient(PQIndex(1, 2)) == 0j
        assert table.coefficient(PQIndex(1, 1)) == 2.0 + 0j

    @pytest.mark.parametrize("truncation", [-1, -3, -10**9])
    def test_rejects_a_negative_truncation(self, truncation):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            ExpansionTable({}, truncation)
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            ExpansionTable({}, np.int64(truncation))
        # no index fits a truncation below 2, but the empty table is well formed
        assert ExpansionTable({}, 0).truncation == 0 and ExpansionTable({}, 1).indices == ()

    def test_truncation_is_an_integer(self):
        with pytest.raises(TypeError):
            ExpansionTable({PQIndex(1, 1): 1.0}, 2.5)
        table = ExpansionTable({PQIndex(1, 1): 1.0}, np.int64(3))
        assert table.truncation == 3 and type(table.truncation) is int
        assert expansion_residual(lambda r, theta: 1 - r * r, table) < 1e-12

    @pytest.mark.parametrize("build", ["constructor", "expand", "solve_table"])
    def test_tables_are_read_only(self, build):
        f = lambda r, theta: (1 - r * r) * np.cos(theta)
        table = {
            "constructor": lambda: ExpansionTable({PQIndex(1, 2): 1.0, PQIndex(1, 1): 2j}, 3),
            "expand": lambda: expand(f, 3),
            "solve_table": lambda: solve_table(expand(f, 3)),
        }[build]()
        before = table.items()
        with pytest.raises(TypeError):
            table.coefficients[PQIndex(5, 5)] = 1.0
        with pytest.raises(TypeError):
            table.coefficients[PQIndex(1, 1)] = "1"
        with pytest.raises(ValueError):
            table.values[0] = 1.0
        for name in ("indices", "values", "truncation", "coefficients"):
            with pytest.raises(AttributeError):
                setattr(table, name, None)
        assert table.items() == before and PQIndex(5, 5) not in table.coefficients
        r, theta = polar_grid(4, 8)
        assert np.array_equal(
            reconstruct(table, r, theta).values,
            reconstruct(ExpansionTable(dict(before), 3), r, theta).values,
        )

    def test_items_sorted(self):
        table = ExpansionTable(
            coefficients={PQIndex(2, 1): 1.0, PQIndex(1, 1): 2.0, PQIndex(1, 2): 3.0},
            truncation=4,
        )
        assert [idx for idx, _ in table.items()] == [
            PQIndex(1, 1),
            PQIndex(1, 2),
            PQIndex(2, 1),
        ]
        assert list(table.coefficients) == [idx for idx, _ in table.items()]

    @pytest.mark.parametrize("build", [expand, solve_weighted_poisson])
    def test_built_tables_equal_checked_ones(self, build):
        # keys PQIndex in lexicographic order, values complex, whatever order they came in
        table = build(lambda r, theta: (1 - r * r) * (1 + r * np.cos(theta)), 12)
        assert list(table.coefficients) == basis_indices(12)
        assert all(type(idx) is PQIndex and type(c) is complex for idx, c in table.items())
        shuffled = list(table.coefficients.items())
        random.Random(3).shuffle(shuffled)
        assert ExpansionTable(coefficients=dict(shuffled), truncation=12) == table


class TestWholeBasisTables:
    """Tables from the constructor, in any key order, equal the array-built
    tables of expand and solve_table, and the warm routes read the indices
    and values of either without hashing or ordering a key."""

    @pytest.mark.parametrize("values", ["complex", "mixed"])
    def test_equal_to_the_checked_table(self, values):
        rng = random.Random(12)
        basis = scattering._basis(12)
        numbers = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in basis]
        if values == "mixed":  # floats, ints and numpy scalars become complex
            numbers = [
                [c.real, int(10 * c.real), np.complex128(c), np.float64(c.imag), c][i % 5]
                for i, c in enumerate(numbers)
            ]
        whole = ExpansionTable(dict(zip(basis, numbers)), 12)
        shuffled = list(zip(basis, numbers))
        rng.shuffle(shuffled)
        checked = ExpansionTable(dict(shuffled), 12)
        assert whole == checked
        assert whole.items() == checked.items()
        assert [type(c) for _, c in whole.items()] == [complex] * len(basis)
        # a smaller basis under a larger truncation is a whole basis too
        assert ExpansionTable(dict(zip(basis, numbers)), 20).items() == checked.items()

    def test_no_key_is_compared_for_order(self, monkeypatch):
        calls = []
        less = PQIndex.__lt__

        def counted(a, b):
            calls.append((a, b))
            return less(a, b)

        monkeypatch.setattr(PQIndex, "__lt__", counted)
        basis = scattering._basis(16)
        ExpansionTable(dict.fromkeys(basis, 1.0), 16)
        table = expand(lambda r, theta: (1 - r * r) * np.cos(theta), 16)
        solve_table(table)
        assert calls == []
        reversed_keys = ExpansionTable(dict.fromkeys(reversed(basis), 1.0), 16)
        assert reversed_keys == ExpansionTable(dict.fromkeys(basis, 1.0), 16)
        assert reversed_keys.indices == basis
        assert calls == []

    def test_warm_routes_hash_and_order_no_key(self, monkeypatch):
        f = lambda r, theta: (1 - r * r) * (1 + r * np.cos(theta))
        r, theta = polar_grid(8, 16)

        def warm_round():
            for table in (expand(f, 32), solve_weighted_poisson(f, 32)):
                solve_table(table)
                reconstruct(table, r, theta)
                boundary_value_check(table, 64)
                expansion_residual(f, table)

        warm_round()
        calls = []

        def counted(name):
            method = getattr(PQIndex, name)

            def count(*args):
                calls.append(name)
                return method(*args)

            return count

        for name in ("__hash__", "__lt__"):
            monkeypatch.setattr(PQIndex, name, counted(name))
        warm_round()
        assert calls == []

    def test_coefficient_bisects_the_indices(self, monkeypatch):
        # a fresh T = 128 table, built by the array path that expand uses too:
        # coefficient hashes no key and builds no coefficients mapping
        basis = scattering._basis(128)
        table = solve_table(ExpansionTable(dict(zip(basis, range(1, len(basis) + 1))), 128))
        small = expand(lambda r, theta: (1 - r * r) * np.cos(theta), 32)
        hashes = []
        key_hash = PQIndex.__hash__

        def counted(idx):
            hashes.append(idx)
            return key_hash(idx)

        monkeypatch.setattr(PQIndex, "__hash__", counted)
        for k in (0, 1, 4000, len(basis) - 1):
            idx = PQIndex(basis[k].p, basis[k].q)
            assert table.coefficient(idx) == complex((k + 1) / idx.eigenvalue)
            assert type(table.coefficient(idx)) is complex
        assert table.coefficient(PQIndex(64, 65)) == 0j
        assert small.coefficient(PQIndex(1, 2)) == small.values[1]
        assert small.coefficient(PQIndex(100, 1)) == 0j
        assert hashes == []
        assert "coefficients" not in table.__dict__ and "coefficients" not in small.__dict__
        monkeypatch.undo()
        assert all(small.coefficient(idx) == c for idx, c in small.coefficients.items())

    def test_a_huge_truncation_builds_no_basis(self):
        # neither the constructor nor solve_table builds a basis, whatever the truncation
        basis_indices(2)
        before = scattering._basis.cache_info()
        table = ExpansionTable({PQIndex(1, 1): 1.0}, 10**9)
        solved = solve_table(table)
        after = scattering._basis.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        assert solved.items() == [(PQIndex(1, 1), 1.0 + 0j)] and solved.truncation == 10**9


#: Coefficient parts whose quotients show every rounding and sign rule.
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1e308, -1e308, 1.0, -3.5, 0.1]


def per_coefficient_quotients(table: ExpansionTable) -> np.ndarray:
    """The reference solve: one Python complex division per coefficient."""
    return np.array([c / idx.eigenvalue for idx, c in table.items()], dtype=complex)


def solved_values(table: ExpansionTable) -> np.ndarray:
    return np.array(list(solve_table(table).coefficients.values()), dtype=complex)


class TestArraySolve:
    """solve_table divides one array, with the bits of c / (p*q) per coefficient."""

    def test_special_values(self):
        pairs = [complex(re, im) for re in SPECIAL_PARTS for im in SPECIAL_PARTS]
        pairs += [complex(math.inf, 0.0), complex(-0.0, -math.inf), complex(math.inf, -math.inf)]
        pairs += [complex(math.nan, 1.0), complex(-0.0, math.nan), complex(-math.nan, -math.inf)]
        for top in (2, 5, 16):
            basis = scattering._basis(top)
            for start in range(0, len(pairs), len(basis)):
                chunk = pairs[start:start + len(basis)]
                table = ExpansionTable(dict(zip(basis, chunk)), top)
                sparse = ExpansionTable(dict(zip(basis[1::2], chunk)), top)
                for t in (table, sparse):
                    assert np.array_equal(
                        solved_values(t).view(np.int64), per_coefficient_quotients(t).view(np.int64)
                    )

    @pytest.mark.parametrize("top", range(2, 65))
    def test_random_whole_basis_tables(self, top):
        rng = random.Random(top)
        basis = scattering._basis(top)
        parts = [
            rng.choice(SPECIAL_PARTS) if rng.random() < 0.1 else rng.uniform(-9, 9)
            for _ in range(2 * len(basis))
        ]
        table = ExpansionTable(dict(zip(basis, map(complex, parts[::2], parts[1::2]))), top)
        expected = per_coefficient_quotients(table).view(np.int64)
        assert np.array_equal(solved_values(table).view(np.int64), expected)
        members = rng.sample(list(basis), k=max(1, len(basis) // 3))
        sparse = ExpansionTable({idx: table.coefficient(idx) for idx in members}, top)
        expected = per_coefficient_quotients(sparse).view(np.int64)
        assert np.array_equal(solved_values(sparse).view(np.int64), expected)

    def test_empty_table(self):
        assert solve_table(ExpansionTable({}, 5)).items() == []


class TestPartialTableSolve:
    """A table that is not a whole basis is solved from its own indices, its modes
    not grouped."""

    @pytest.fixture
    def plans(self, monkeypatch):
        built = []
        plan = transform._plan

        def recorded(indices):
            built.append(plan(indices))
            return built[-1]

        monkeypatch.setattr(transform, "_plan", recorded)
        return built

    @pytest.mark.parametrize("top", [3, 5, 32, 128])
    def test_builds_no_mode_plan(self, top, plans):
        rng = random.Random(top)
        basis = scattering._basis(top)
        # without phi^(1,1), no subset is the whole basis of any truncation
        for members in (basis[1:], basis[1::3], rng.sample(basis[1:], k=len(basis) // 2)):
            parts = [rng.choice(SPECIAL_PARTS) for _ in range(2 * len(members))]
            table = ExpansionTable(dict(zip(members, map(complex, parts[::2], parts[1::2]))), top)
            solved = solve_table(table)
            expected = per_coefficient_quotients(table).view(np.int64)
            assert np.array_equal(solved.values.view(np.int64), expected)
        assert len(plans) == 3
        for plan in plans:
            assert plan.top == 0 and "modes" not in plan.__dict__

    def test_whole_basis_reads_the_cached_plan(self, plans):
        table = expand(lambda r, theta: (1.0 - r * r) * np.cos(theta), 9)
        hits = scattering._basis_plan.cache_info().hits
        solve_table(table)
        assert plans == [scattering._basis_plan(9)]
        assert scattering._basis_plan.cache_info().hits == hits + 2


class TestExpand:
    def test_basis_member_expands_to_itself(self):
        idx = PQIndex(2, 3)
        table = expand(basis_function(idx), 8)
        assert abs(table.coefficient(idx) - 1.0) < 1e-10
        for other, value in table.items():
            if other != idx:
                assert abs(value) < 1e-10

    def test_linearity(self):
        f = lambda r, t: 3.0 * basis_function(PQIndex(1, 1))(r, t) - 2j * basis_function(
            PQIndex(2, 1)
        )(r, t)
        table = expand(f, 6)
        assert table.coefficient(PQIndex(1, 1)) == pytest.approx(3.0 + 0j, abs=1e-10)
        assert table.coefficient(PQIndex(2, 1)) == pytest.approx(-2j, abs=1e-10)
        for idx, value in table.items():
            if idx not in (PQIndex(1, 1), PQIndex(2, 1)):
                assert abs(value) < 1e-10

    def test_radial_square_lives_on_the_diagonal(self):
        # (1 - r^2)^2 = 2/3 phi^(1,1) + 1/3 phi^(2,2): zero angular mode only
        f = lambda r, t: (1.0 - r * r) ** 2 + 0j
        table = expand(f, 8)
        assert table.coefficient(PQIndex(1, 1)) == pytest.approx(2 / 3, abs=1e-12)
        assert table.coefficient(PQIndex(2, 2)) == pytest.approx(1 / 3, abs=1e-12)
        for idx, value in table.items():
            if idx.p != idx.q:
                assert abs(value) < 1e-12

    def test_matches_per_index_projection(self):
        # the shared-grid fft route must reproduce one-at-a-time projection
        # on the identical sampling grid
        f = lambda r, t: (1.0 - r * r) * cmath.exp(1j * t) * math.cos(2.0 * r)
        table = expand(f, 6, radial_order=14, angular_points=40)
        for idx in basis_indices(6):
            direct = inner_product_function(f, idx, 14, 40) / norm_sq(idx)
            assert abs(table.coefficient(idx) - direct) < 1e-12

    def test_rejects_fractional_angular_points(self):
        with pytest.raises(TypeError):
            expand(lambda r, t: 0j, 4, None, 20.5)

    @pytest.mark.parametrize("truncation", [1, 0, -2])
    def test_rejects_small_truncation(self, truncation):
        with pytest.raises(ValueError, match="max_sum must be >= 2"):
            expand(lambda r, t: 0j, truncation)


class TestReconstruct:
    def test_no_radial_nodes(self):
        # an empty radial node set synthesizes an empty grid of the right shape
        table = expand(lambda r, theta: (1 - r * r) * np.cos(theta), 6)
        theta = polar_grid(1, 5)[1]
        sample = reconstruct(table, [], theta)
        assert sample.values.shape == (0, 5) and sample.radial_nodes.shape == (0,)
        assert reconstruct(table, np.array([]), []).values.shape == (0, 0)

    def test_radial_kernel_of_no_radii(self):
        form = jacobi_form(PQIndex(3, 5))
        assert form.radial_kernel(np.array([])).shape == (0,)
        assert form.radial_kernel(np.empty((0, 3))).shape == (0, 3)

    def test_basis_function_of_no_points(self):
        values = basis_function(PQIndex(3, 5))(np.array([]), np.array([]))
        assert values.shape == (0,) and values.dtype == complex

    def test_single_index_profile(self):
        table = ExpansionTable(coefficients={PQIndex(1, 1): 1.0}, truncation=2)
        r, theta = polar_grid(8, 8)
        sample = reconstruct(table, r, theta)
        expected = np.outer(1.0 - r * r, np.ones_like(theta))
        assert np.max(np.abs(sample.values - expected)) < 1e-12

    def test_round_trip_pointwise(self):
        idx = PQIndex(3, 2)
        table = expand(basis_function(idx), 8)
        r, theta = polar_grid(6, 10)
        sample = reconstruct(table, r, theta)
        exact = np.array(
            [[basis_function(idx)(ri, tj) for tj in theta] for ri in r], dtype=complex
        )
        assert np.max(np.abs(sample.values - exact)) < 1e-9

    def test_reexpansion_returns_same_table(self):
        rng = random.Random(77)
        table = random_table(rng, 6)
        again = expand(table_as_function(table), 6)
        for idx in basis_indices(6):
            assert abs(again.coefficient(idx) - table.coefficient(idx)) < 1e-9


    @given(in_span_tables())
    @settings(max_examples=25, deadline=timedelta(seconds=2))
    def test_expand_inverts_synthesis(self, table):
        # the float synthesis as a disk function, sampled on expand's tensor grid
        def synthesis(r, theta):
            return reconstruct(table, np.ravel(r), np.ravel(theta)).values

        again = expand(synthesis, table.truncation)
        for idx in basis_indices(table.truncation):
            assert abs(again.coefficient(idx) - table.coefficient(idx)) <= 1e-12


class TestParseval:
    def test_norm_identity(self):
        rng = random.Random(3)
        table = random_table(rng, 8)
        poly = synthesize_exact(table)
        direct = inner_product_poly(poly, poly).real
        summed = sum(abs(c) ** 2 * norm_sq(idx) for idx, c in table.items())
        assert direct == pytest.approx(summed, rel=1e-10)


class TestBoundary:
    def test_random_synthesis_vanishes_exactly(self):
        rng = random.Random(41)
        table = random_table(rng, 7)
        assert boundary_value_check(table, 64) == 0.0

    def test_empty_table(self):
        assert boundary_value_check(ExpansionTable(coefficients={}, truncation=4), 16) == 0.0

    def test_single_scaled_member(self):
        table = ExpansionTable(coefficients={PQIndex(1, 1): 5.0}, truncation=2)
        assert boundary_value_check(table, 100) == 0.0

    def test_rejects_empty_circle(self):
        with pytest.raises(ValueError):
            boundary_value_check(ExpansionTable(coefficients={}, truncation=2), 0)
        with pytest.raises(ValueError):
            rim_amplitude(lambda r, theta: 1.0, 0)

    def test_rejects_a_fractional_circle(self):
        # np.arange(2.5) has three angles, which are not a uniform grid
        with pytest.raises(TypeError):
            boundary_value_check(ExpansionTable(coefficients={}, truncation=2), 2.5)
        with pytest.raises(TypeError):
            rim_amplitude(lambda r, theta: 1.0, 1.5)

    def test_rim_amplitude(self):
        assert rim_amplitude(lambda r, theta: 1.0, 64) == 1.0
        assert rim_amplitude(lambda r, theta: (1.0 - r * r) * np.exp(1j * theta), 64) == 0.0


def radial_columns(table: ExpansionTable, r: np.ndarray) -> tuple[list, np.ndarray]:
    """The modes n of the table, in increasing order, and the columns (1 - r^2) K_n c_n
    as the rows of one (modes, r.size) array, formed as the synthesis forms them."""
    ns, columns = [], []
    for n, positions, kernel in mode_kernels(table.indices, r):
        ns.append(n)
        columns.append((1.0 - r * r) * (kernel @ table.values[positions]))
    return ns, np.array(columns, dtype=complex).reshape(len(ns), r.size)


def reference_synthesis(table: ExpansionTable, r: np.ndarray, n_angles: int):
    """The partial sum on r x angle_grid(n_angles) summed in long double, each phase
    e^(2 pi i n j / N) taken at the exactly reduced residue (n j) mod N, and the
    scale sum_n |a_n(r)| of each radius, a_n the float64 column of mode n."""
    ns, columns = radial_columns(table, r)
    two_pi = 8 * np.arctan(np.longdouble(1))
    j = np.arange(n_angles)
    reference = np.zeros((r.size, n_angles), dtype=np.clongdouble)
    for n, column in zip(ns, columns):
        angle = two_pi * ((n * j) % n_angles).astype(np.longdouble) / n_angles
        reference += column.astype(np.clongdouble)[:, None] * np.exp(1j * angle)[None, :]
    return reference, np.abs(columns).sum(axis=0)


def assert_near_reference(values: np.ndarray, table: ExpansionTable, r: np.ndarray) -> None:
    """|value - reference| <= 16 eps sum_n |a_n(r)| at every point, and exactly 0 on a
    radius where every a_n(r) is 0."""
    reference, scale = reference_synthesis(table, r, values.shape[1])
    error = np.abs(values.astype(np.clongdouble) - reference).astype(float)
    assert (error <= 16 * np.finfo(float).eps * scale[:, None]).all(), error.max()
    assert not values[scale == 0].any()


def assert_near_product_reference(values: np.ndarray, table: ExpansionTable, r, theta) -> None:
    """|value - reference| <= 2 eps sum_n |a_n(r)| (1 + |n theta_j|) at every point, the
    reference summed in long double at the float64 angles, and exactly 0 where every
    a_n(r) is 0: the phase n theta is rounded to float64 before the exponential."""
    ns, columns = radial_columns(table, r)
    reference = np.zeros((r.size, theta.size), dtype=np.clongdouble)
    scale = np.zeros((r.size, theta.size))
    for n, column in zip(ns, columns):
        angle = n * theta.astype(np.longdouble)
        reference += column.astype(np.clongdouble)[:, None] * np.exp(1j * angle)[None, :]
        scale += np.abs(column)[:, None] * (1.0 + np.abs(n * theta))[None, :]
    error = np.abs(values.astype(np.clongdouble) - reference).astype(float)
    assert (error <= 2 * np.finfo(float).eps * scale).all(), (error / scale).max()
    assert not values[scale == 0].any()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def modes_table(modes, truncation: int = 24, seed: int = 0) -> ExpansionTable:
    """Random coefficients on every member of the basis at truncation whose mode is in modes."""
    rng = random.Random(seed)
    members = [idx for idx in basis_indices(truncation) if idx.angular_frequency in modes]
    return ExpansionTable(
        {idx: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for idx in members}, truncation
    )


PHASE_TABLES = {
    "whole": lambda: modes_table(range(-22, 23)),
    "negative modes": lambda: modes_table(range(-22, 0)),
    "positive modes": lambda: modes_table(range(1, 23)),
    "modes -5 and 7": lambda: modes_table({-5, 7}),
    "mode 0": lambda: modes_table({0}),
    "empty": lambda: ExpansionTable({}, 24),
}

#: Grids on the package's angles, angle_grid(N) bit for bit: the inverse FFT route.
FFT_GRIDS = {
    "polar": lambda: polar_grid(6, 37),
    "one angle": lambda: polar_grid(3, 1),
    "no radii": lambda: (np.array([]), polar_grid(1, 16)[1]),
    "one radius": lambda: (np.array([0.45]), polar_grid(1, 53)[1]),
    "prime 12007": lambda: polar_grid(2, 12007),
    "prime 23003": lambda: polar_grid(3, 23003),
}


def off_grid(n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """A polar grid whose angles are shifted off the package's angle grid."""
    r, theta = polar_grid(n_radial, n_angular)
    return r, theta + 0.25


#: Grids off the package's angles: the product A @ E in blocks of angles.
PRODUCT_GRIDS = {
    "shifted polar": lambda: off_grid(6, 37),
    "one angle": lambda: (np.array([0.2, 0.7]), np.array([1.3])),
    "signed unsorted angles": lambda: (
        np.array([0.9, 0.1, 0.5]), np.array([-3.0, 2.5, -0.25, 6.0, -7.5, 0.0, 1e-9])
    ),
    "no angles": lambda: (np.array([0.3, 0.6]), np.array([])),
    "no radii": lambda: (np.array([]), polar_grid(1, 16)[1] + 0.25),
    "one radius": lambda: (np.array([0.45]), polar_grid(1, 53)[1] + 0.25),
    "blocks of 2x12007": lambda: off_grid(2, 12007),
}


class TestFFTSynthesis:
    """On the package's angles the synthesis is one inverse FFT of per-mode bins."""

    @pytest.mark.parametrize("grid", sorted(FFT_GRIDS))
    @pytest.mark.parametrize("kind", sorted(PHASE_TABLES))
    def test_matches_the_long_double_reference(self, kind, grid):
        table = PHASE_TABLES[kind]()
        r, theta = FFT_GRIDS[grid]()
        values = reconstruct(table, r, theta).values
        assert values.shape == (r.size, theta.size)
        assert_near_reference(values, table, r)
        if kind == "empty":
            assert not values.any()

    @pytest.mark.parametrize("grid", sorted(FFT_GRIDS))
    @pytest.mark.parametrize("kind", sorted(PHASE_TABLES))
    def test_the_in_place_transform_has_the_bits_of_a_fresh_one(self, kind, grid, monkeypatch):
        # the inverse FFT writes into its bins; a transform into a new array gives the
        # same bits
        table = PHASE_TABLES[kind]()
        r, theta = FFT_GRIDS[grid]()
        ifft, fresh = np.fft.ifft, []

        def recorded(a, *args, out=None, **kwargs):
            assert out is a
            fresh.append(ifft(a.copy(), *args, **kwargs))
            return ifft(a, *args, out=out, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", recorded)
        values = reconstruct(table, r, theta).values
        assert len(fresh) == int(kind != "empty" and r.size > 0)
        for transformed in fresh:
            assert same_bits(values, transformed)

    @pytest.mark.parametrize("n_angles", [64, 65, 200])
    def test_aliased_modes_share_a_bin(self, n_angles):
        # mode 2048 lands in bin 2048 mod N, beside mode 0 on 64 angles, 33 on 65 and
        # 48 on 200; r^2048 is visible only near the rim
        coefficients = {PQIndex(1, 1): 0.5j, PQIndex(1, 34): -0.25, PQIndex(1, 49): 0.75j}
        table = ExpansionTable({**coefficients, PQIndex(1, 2049): 1.0}, 2050)
        r, theta = np.array([0.0, 0.5, 0.99, 0.999]), polar_grid(1, n_angles)[1]
        assert_near_reference(reconstruct(table, r, theta).values, table, r)

    @pytest.mark.parametrize("radii", [[0.0, 0.5], [0.3]])
    def test_wide_grid_stays_small(self, radii):
        # T = 64 has 127 modes: a whole phase matrix on 65536 angles takes 133 MB, and
        # the inverse FFT builds none
        table = random_table(random.Random(64), 64)
        r, theta = np.array(radii), polar_grid(1, 65536)[1]
        reconstruct(table, r, polar_grid(1, 8)[1])  # construction checks, outside the trace
        tracemalloc.start()
        try:
            values = reconstruct(table, r, theta).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert_near_reference(values, table, r)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS product A @ E over the 253 modes of T = 128, -126 .. 126, on 64 x 128
        # splits its sums over the modes at another place at 2 OpenBLAS threads than at 1
        script = (
            "import hashlib, random\n"
            "from scatterpoly.scattering import PQIndex\n"
            "from scatterpoly.transform import ExpansionTable, polar_grid, reconstruct\n"
            "rng = random.Random(253)\n"
            "members = [PQIndex(1, q) for q in range(1, 128)]"
            " + [PQIndex(p, 1) for p in range(2, 128)]\n"
            "table = ExpansionTable({idx: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))"
            " for idx in members}, 128)\n"
            "values = reconstruct(table, *polar_grid(64, 128)).values\n"
            "print(hashlib.sha256(values.tobytes()).hexdigest())\n"
        )
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.strip())
        assert hashes[0] == hashes[1]

    def test_rim_is_exactly_zero(self):
        for table in (random_table(random.Random(3), 24), modes_table({-5, 7})):
            for n_theta in (1, 37, 20002):
                assert boundary_value_check(table, n_theta) == 0.0


class TestBlockedProduct:
    """Off the package's angles the synthesis is A @ E in blocks of angles whose E fits
    the kernel cap, on any number of radii."""

    @pytest.mark.parametrize("grid", sorted(PRODUCT_GRIDS))
    @pytest.mark.parametrize("kind", sorted(PHASE_TABLES) + ["mode 2048"])
    def test_matches_the_long_double_reference(self, kind, grid):
        # r^2048 is visible only near the rim, so the mode-2048 table adds two radii there
        if kind == "mode 2048":
            table = ExpansionTable({PQIndex(1, 1): 0.5j, PQIndex(1, 2049): 1.0}, 2050)
        else:
            table = PHASE_TABLES[kind]()
        r, theta = PRODUCT_GRIDS[grid]()
        if kind == "mode 2048" and r.size:
            r = np.append(r, [0.99, 0.9999])
        values = reconstruct(table, r, theta).values
        assert values.shape == (r.size, theta.size)
        assert_near_product_reference(values, table, r, theta)
        if kind == "empty":
            assert not values.any()

    def test_one_radius_stays_small(self):
        # at most _KEPT_KERNEL_BYTES of phases beside the 1 MB result: the whole phase
        # matrix of the 127 modes of T = 64 on 65536 angles takes 133 MB
        table = random_table(random.Random(64), 64)
        r, theta = np.array([0.3]), polar_grid(1, 65536)[1] + 0.25
        reconstruct(table, r, theta[:8])  # construction checks, outside the trace
        tracemalloc.start()
        try:
            values = reconstruct(table, r, theta).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert_near_product_reference(values, table, r, theta)


class TestSolve:
    def test_divides_by_eigenvalue(self):
        table = ExpansionTable(coefficients={PQIndex(2, 3): 1.0}, truncation=5)
        solved = solve_table(table)
        assert solved.coefficient(PQIndex(2, 3)) == pytest.approx(1.0 / 6.0)

    def test_pipeline_on_basis_member(self):
        u = solve_weighted_poisson(basis_function(PQIndex(2, 3)), 6)
        assert abs(u.coefficient(PQIndex(2, 3)) - 1.0 / 6.0) < 1e-10
        for idx, value in u.items():
            if idx != PQIndex(2, 3):
                assert abs(value) < 1e-10

    def test_exact_solve_residual_is_literally_zero(self):
        rng = random.Random(99)
        f_table = random_table(rng, 6)
        u = solve_exact(f_table)
        residual = apply_modified_laplacian(u) + synthesize_exact(f_table)
        assert residual.is_zero()

    def test_float_solve_close_to_exact(self):
        rng = random.Random(5)
        f_table = random_table(rng, 5)
        u_float = solve_table(f_table)
        u_exact = solve_exact(f_table)
        diff = synthesize_exact(u_float) - u_exact
        worst = max(
            (abs(complex(c)) for c in diff.terms.values()), default=0.0
        )
        assert worst < 1e-13


class TestSynthesizeExact:
    def test_unit_table_is_basis_polynomial(self):
        table = ExpansionTable(coefficients={PQIndex(1, 1): 1.0}, truncation=2)
        assert synthesize_exact(table) == rodrigues(PQIndex(1, 1))

    def test_empty_table_is_zero(self):
        assert synthesize_exact(ExpansionTable(coefficients={}, truncation=3)).is_zero()

    def test_matches_float_synthesis(self):
        rng = random.Random(8)
        table = random_table(rng, 5)
        poly = synthesize_exact(table)
        r, theta = polar_grid(5, 7)
        sample = reconstruct(table, r, theta)
        for i, ri in enumerate(r):
            for j, tj in enumerate(theta):
                direct = complex(poly.evaluate(ri * cmath.exp(1j * tj)))
                assert abs(direct - sample.values[i, j]) < 1e-12 * max(
                    1.0, abs(direct)
                )


def _random_coefficients(seed: int, truncation: int, real=True, imag=True) -> dict:
    rng = random.Random(seed)
    return {
        idx: complex(rng.uniform(-3, 3) if real else 0.0, rng.uniform(-3, 3) if imag else 0.0)
        for idx in basis_indices(truncation)
    }


#: Each exact route with the divisor of its term-by-term ring reference.
EXACT_ROUTES = [
    pytest.param(synthesize_exact, lambda idx: 1, id="synthesize"),
    pytest.param(solve_exact, lambda idx: idx.eigenvalue, id="solve"),
]

EXACT_TABLES = [
    pytest.param(
        {PQIndex(2, 5): 1.5 - 2j, PQIndex(5, 2): -0.25j, PQIndex(3, 3): 2.0}, id="both-signs-of-n"
    ),
    pytest.param(
        {PQIndex(1, 2): 0.0, PQIndex(2, 1): -0.0, PQIndex(1, 1): 1.0}, id="zero-coefficients"
    ),
    pytest.param({PQIndex(2, 2): 0j, PQIndex(4, 1): 0.0}, id="all-zero"),
    pytest.param({PQIndex(1, 1): 1.0, PQIndex(2, 2): -1.0}, id="cancelling-monomial"),
    pytest.param(_random_coefficients(3, 9, imag=False), id="purely-real"),
    pytest.param(_random_coefficients(4, 9, real=False), id="purely-imaginary"),
    pytest.param(
        {PQIndex(3, 1): 5e-324, PQIndex(1, 3): 1e300j, PQIndex(2, 2): complex(1e300, -5e-324)},
        id="extreme-doubles",
    ),
    pytest.param(_random_coefficients(5, 12), id="random-T12"),
    pytest.param(_random_coefficients(6, 20), id="random-T20"),
]


class TestExactSum:
    """The per-mode integer-profile sum behind synthesize_exact and solve_exact."""

    @pytest.mark.parametrize("coefficients", EXACT_TABLES)
    @pytest.mark.parametrize("route, divisor", EXACT_ROUTES)
    def test_equals_the_ring_reference(self, route, divisor, coefficients):
        truncation = max((idx.p + idx.q for idx in coefficients), default=2)
        table = ExpansionTable(coefficients, truncation)
        poly = route(table)
        reference = ring_exact_sum(table, divisor)
        assert poly == reference
        assert poly.to_text() == reference.to_text()

    @pytest.mark.parametrize("truncation", [2, 8])
    @pytest.mark.parametrize("route", [synthesize_exact, solve_exact])
    def test_builds_one_polynomial(self, route, truncation, monkeypatch):
        built = []
        post_init = BivariatePoly.__post_init__

        def counted(poly):
            built.append(poly)
            post_init(poly)

        table = ExpansionTable(_random_coefficients(7, truncation), truncation)
        monkeypatch.setattr(BivariatePoly, "__post_init__", counted)
        poly = route(table)
        assert len(built) == 1 and built[0] is poly
        built.clear()
        assert route(ExpansionTable({}, truncation)).is_zero()
        assert len(built) == 1

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, math.inf)]
    )
    @pytest.mark.parametrize("route", [synthesize_exact, solve_exact])
    def test_non_finite_coefficient_raises(self, route, value):
        table = ExpansionTable({PQIndex(1, 1): 1.0, PQIndex(2, 3): value}, 5)
        with pytest.raises(ValueError):
            route(table)


class TestNonFiniteTables:
    """The float routes refuse a nan or infinite coefficient, as the exact routes do."""

    ROUTES = {
        "reconstruct": lambda table: reconstruct(table, *polar_grid(4, 8)),
        "boundary_value_check": lambda table: boundary_value_check(table, 8),
        "expansion_residual": lambda table: expansion_residual(
            lambda r, theta: (1.0 - r * r) * r * np.exp(1j * theta), table
        ),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_refused_naming_the_index(self, route, value):
        sparse = ExpansionTable({PQIndex(1, 1): 1.0, PQIndex(2, 1): value}, 3)
        # a whole basis, whose residual reads the kept kernels
        whole = ExpansionTable({**expand(lambda r, theta: 1.0 - r * r, 3).coefficients,
                                PQIndex(2, 1): value}, 3)
        for table in (sparse, whole):
            with pytest.raises(ValueError) as exact:
                synthesize_exact(table)
            with pytest.raises(ValueError) as solved:
                solve_exact(table)
            with pytest.raises(ValueError) as refused:
                self.ROUTES[route](table)
            assert str(refused.value) == str(exact.value) == str(solved.value)
            assert str(refused.value).startswith(f"coefficient of {PQIndex(2, 1)} is not finite")


class TestFirstNonFinite:
    """A float route names the first nan or infinite coefficient without walking the
    table's members."""

    @pytest.mark.parametrize("first", [0, 1, 150, 275])
    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)],
    )
    def test_the_first_is_named(self, first, value, monkeypatch):
        basis = scattering._basis(24)  # 276 members
        coefficients = {idx: complex(k, -k) for k, idx in enumerate(basis)}
        for later in basis[first::97]:
            coefficients[later] = complex(math.inf, math.nan)
        coefficients[basis[first]] = value
        table = ExpansionTable(coefficients, 24)

        def refuse(table):
            raise AssertionError("the table's members were walked")

        monkeypatch.setattr(ExpansionTable, "items", refuse)
        with pytest.raises(ValueError) as refused:
            reconstruct(table, *polar_grid(2, 4))
        expected = f"coefficient of {basis[first]} is not finite: {complex(value)!r}"
        assert str(refused.value) == expected


class TestResidual:
    def test_vanishes_for_in_span_target(self):
        idx = PQIndex(2, 2)
        table = expand(basis_function(idx), 6)
        assert expansion_residual(basis_function(idx), table) < 1e-10

    def test_decreases_with_truncation(self):
        f = lambda r, t: (1.0 - r * r) * r * cmath.exp(1j * t) * math.exp(-r * r)
        res = []
        for trunc in (10, 14):
            table = expand(f, trunc)
            res.append(expansion_residual(f, table, radial_order=40, angular_points=128))
        assert res[1] < res[0]

    @pytest.mark.parametrize("truncation", [2, 3, 8, 17])
    def test_default_rule_of_a_built_table_follows_its_truncation(self, truncation):
        f = lambda r, t: (1.0 - r * r) * np.exp(r * np.cos(t) - 1j * r * r * np.sin(2 * t))
        for table in (expand(f, truncation), solve_weighted_poisson(f, truncation)):
            orders = (2 * truncation + 12, 8 * truncation + 32)
            assert expansion_residual(f, table) == expansion_residual(f, table, *orders)

    def test_default_rule_follows_the_members(self, monkeypatch):
        # phi^(1,1) alone in a table of truncation 10**9: the default rule is that of its
        # largest p + q, 2, not an order 2 * 10**9 + 12 whose nodes would take 16 GB
        f = lambda r, t: (1.0 - r * r) * (1.0 + r * np.cos(t))
        sized = {2: ExpansionTable({PQIndex(1, 1): 1.0}, 2)}
        sized[5] = ExpansionTable({PQIndex(1, 1): 1.0, PQIndex(2, 3): 0.5j}, 5)
        expected = {degree: expansion_residual(f, table) for degree, table in sized.items()}
        rule, grid = transform.gauss_legendre, transform.angle_grid

        def bounded(size, build):
            if size > 10_000:
                raise AssertionError(f"a rule of {size} points")
            return build(size)

        monkeypatch.setattr(transform, "gauss_legendre", lambda n: bounded(n, rule))
        monkeypatch.setattr(transform, "angle_grid", lambda n: bounded(n, grid))
        for degree, table in sized.items():
            huge = ExpansionTable(table.coefficients, 10**9)
            assert expansion_residual(f, huge) == expected[degree]
        assert expansion_residual(f, ExpansionTable({}, 10**9)) > 0.0

    @pytest.mark.parametrize(
        "orders",
        [{"angular_points": 0}, {"angular_points": -4}, {"radial_order": 0}, {"radial_order": -3}],
    )
    def test_rejects_orders_below_one(self, orders):
        f = lambda r, t: (1.0 - r * r) * math.exp(-r * r)
        table = expand(f, 6)
        assert expansion_residual(f, table) > 1e-6  # the table is inexact
        with pytest.raises(ValueError, match="quadrature orders must be >= 1"):
            expansion_residual(f, table, **orders)


class TestPolarGrid:
    def test_shapes_and_ranges(self):
        r, theta = polar_grid(4, 6)
        assert r.shape == (4,) and theta.shape == (6,)
        assert r[0] == 0.0 and r[-1] == 0.75
        assert theta[0] == 0.0
        assert theta[-1] == pytest.approx(2 * math.pi * 5 / 6)

    @pytest.mark.parametrize("nr,nt", [(0, 4), (4, 0), (-1, 4)])
    def test_rejects_empty(self, nr, nt):
        with pytest.raises(ValueError):
            polar_grid(nr, nt)

    @pytest.mark.parametrize("nr,nt", [(2.5, 4), (4, 2.5), (4.0, 4)])
    def test_rejects_fractional_sizes(self, nr, nt):
        with pytest.raises(TypeError):
            polar_grid(nr, nt)

    def test_takes_numpy_integer_sizes(self):
        r, theta = polar_grid(np.int64(4), np.int32(6))
        assert r.shape == (4,) and theta.shape == (6,)


class TestGridSample:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridSample(
                radial_nodes=np.array([0.0, 0.5]),
                angular_nodes=np.array([0.0]),
                values=np.zeros((1, 2)),
            )

    def test_rejects_boundary_node(self):
        with pytest.raises(ValueError):
            GridSample(
                radial_nodes=np.array([0.0, 1.0]),
                angular_nodes=np.array([0.0]),
                values=np.zeros((2, 1)),
            )

    @pytest.mark.parametrize(
        "r,theta",
        [
            ([0.0, math.nan], [0.0, 1.0]),
            ([0.0, 0.5], [0.0, math.nan]),
            ([0.0, 0.5], [0.0, math.inf]),
            ([0.0, 0.5], [-math.inf, 1.0]),
        ],
    )
    def test_rejects_non_finite_nodes(self, r, theta):
        with pytest.raises(ValueError, match="nodes must"):
            GridSample(radial_nodes=np.array(r), angular_nodes=np.array(theta), values=np.ones((2, 2)))


class TestGridInterpolant:
    def make_sample(self):
        r = np.array([0.0, 0.5])
        theta = np.array([0.0, math.pi])
        values = np.array([[1.0, 2.0], [3.0, 5.0]], dtype=complex)
        return GridSample(radial_nodes=r, angular_nodes=theta, values=values)

    def test_exact_at_nodes(self):
        sample = self.make_sample()
        interp = grid_interpolant(sample)
        assert interp(0.0, 0.0) == 1.0
        assert interp(0.5, math.pi) == 5.0

    def test_midpoint_average(self):
        interp = grid_interpolant(self.make_sample())
        assert interp(0.25, math.pi / 2) == pytest.approx((1 + 2 + 3 + 5) / 4)

    def test_angular_wraparound(self):
        interp = grid_interpolant(self.make_sample())
        # three-quarter turn sits halfway between theta = pi and theta = 2 pi
        assert interp(0.5, 1.5 * math.pi) == pytest.approx((5 + 3) / 2)
        assert interp(0.5, -0.5 * math.pi) == pytest.approx((5 + 3) / 2)

    def test_radial_clamp(self):
        interp = grid_interpolant(self.make_sample())
        assert interp(0.9, 0.0) == 3.0
        assert interp(-0.2, 0.0) == 1.0

    def test_signed_angles_match_the_unsigned_grid(self):
        # theta in [-pi, pi) is shifted by one turn; before, theta in
        # (pi, 2 pi) took the value at the last node
        f = lambda r, t: (1.0 - r * r) * r * np.exp(1j * t)
        r, theta = polar_grid(48, 96)
        unsigned = grid_interpolant(GridSample(r, theta, f(r[:, None], theta[None, :])))
        signed_theta = theta - math.pi
        signed = grid_interpolant(GridSample(r, signed_theta, f(r[:, None], signed_theta[None, :])))
        rng = np.random.default_rng(7)
        rr, tt = rng.uniform(0.0, 0.95, 200), rng.uniform(-7.0, 7.0, 200)
        assert np.max(np.abs(signed(rr, tt) - unsigned(rr, tt))) < 1e-12
        assert abs(signed(0.3, 4.0) - f(0.3, 4.0)) < 1e-3

    def test_permuted_axes_are_sorted_with_their_values(self):
        f = lambda r, t: (1.0 - r * r) * (r * np.exp(1j * t) + 0.5 * r * r * np.exp(-2j * t))
        r, theta = polar_grid(16, 32)
        values = f(r[:, None], theta[None, :])
        rows, cols = np.random.default_rng(3).permutation(16), np.random.default_rng(4).permutation(32)
        sorted_interp = grid_interpolant(GridSample(r, theta, values))
        permuted = grid_interpolant(GridSample(r[rows], theta[cols], values[np.ix_(rows, cols)]))
        rr, tt = np.linspace(0.0, 0.99, 23)[:, None], np.linspace(-4.0, 9.0, 41)[None, :]
        assert np.array_equal(permuted(rr, tt), sorted_interp(rr, tt))
        assert abs(permuted(0.3, 1.0) - f(0.3, 1.0)) < 1e-2

    @pytest.mark.parametrize("shuffled", ["radial", "angular", "both", "neither"])
    def test_shuffled_and_sorted_axes_give_the_same_values(self, shuffled):
        # a sorted axis is read in place, a shuffled one is reordered with its values
        f = lambda r, t: (1.0 - r * r) * (r * np.exp(1j * t) + 0.25)
        r, theta = polar_grid(12, 20)
        rng = np.random.default_rng(5)
        rows = rng.permutation(12) if shuffled in ("radial", "both") else np.arange(12)
        cols = rng.permutation(20) if shuffled in ("angular", "both") else np.arange(20)
        values = f(r[:, None], theta[None, :])
        sorted_interp = grid_interpolant(GridSample(r, theta, values))
        interp = grid_interpolant(GridSample(r[rows], theta[cols], values[np.ix_(rows, cols)]))
        rr, tt = np.linspace(-0.1, 1.0, 19)[:, None], np.linspace(-7.0, 7.0, 37)[None, :]
        assert np.array_equal(interp(rr, tt), sorted_interp(rr, tt))
        assert interp(0.42, 2.5) == sorted_interp(0.42, 2.5)

    def test_closed_grid_holds_both_ends_of_the_turn(self):
        f = lambda r, t: (1.0 - r * r) * r * np.exp(1j * t)
        r = polar_grid(16, 32)[0]
        closed = 2.0 * math.pi * np.arange(33) / 32  # 0 .. 2 pi inclusive
        interp = grid_interpolant(GridSample(r, closed, f(r[:, None], closed[None, :])))
        open_interp = grid_interpolant(GridSample(r, closed[:-1], f(r[:, None], closed[None, :-1])))
        rr, tt = np.linspace(0.0, 0.9, 7)[:, None], np.linspace(-7.0, 7.0, 57)[None, :]
        assert np.max(np.abs(interp(rr, tt) - open_interp(rr, tt))) < 1e-15

    def test_rejects_angles_over_one_turn(self):
        theta = np.array([0.0, 3.5, 7.0])
        with pytest.raises(ValueError, match="more than 2 pi"):
            grid_interpolant(GridSample(np.array([0.0]), theta, np.ones((1, 3))))

    def test_smooth_target_accuracy(self):
        f = lambda r, t: (1.0 - r * r) * cmath.exp(1j * t)
        r, theta = polar_grid(64, 128)
        values = np.array([[f(ri, tj) for tj in theta] for ri in r], dtype=complex)
        interp = grid_interpolant(GridSample(radial_nodes=r, angular_nodes=theta, values=values))
        rng = random.Random(6)
        for _ in range(25):
            rr = rng.uniform(0.0, 0.98)
            tt = rng.uniform(0.0, 2 * math.pi)
            assert abs(interp(rr, tt) - f(rr, tt)) < 5e-3


def per_index_coefficients(samples, truncation, rule, theta):
    """Projection one index at a time with an explicit phase sum: the
    reference for the per-mode route."""
    r = np.sqrt((1.0 + rule.nodes) / 2.0)
    out = {}
    for idx in basis_indices(truncation):
        form = jacobi_form(idx)
        phase = np.exp(-1j * form.angular_frequency * theta)
        angular = samples @ phase * (2.0 * math.pi / theta.size)
        out[idx] = complex((rule.weights / 4.0 * form.radial_kernel(r)) @ angular) / norm_sq(idx)
    return out


def counting(f):
    calls = []

    def wrapped(r, theta):
        calls.append(np.shape(r))
        return f(r, theta)

    return wrapped, calls


SPARSE_MODES = ExpansionTable(
    coefficients={
        # only the modes n = -3 and n = 5, neither adjacent to the other
        PQIndex(4, 1): 1 - 2j, PQIndex(6, 3): 0.5j, PQIndex(1, 6): 1.5, PQIndex(3, 8): -0.25 + 1j,
    },
    truncation=11,
)


class TestPerModeRoute:
    def test_reconstruct_matches_per_index_outer_sum(self):
        r, theta = polar_grid(16, 32)
        for table in (random_table(random.Random(19), 8), SPARSE_MODES):
            expected = np.zeros((16, 32), dtype=complex)
            for idx, c in table.items():
                form = jacobi_form(idx)
                expected += c * np.outer(
                    form.radial_value(r), np.exp(1j * form.angular_frequency * theta)
                )
            assert np.max(np.abs(reconstruct(table, r, theta).values - expected)) < 1e-14

    def test_float_only_target_matches_per_index_reference(self):
        # math.exp rejects arrays, so f is sampled one node at a time
        def f(r, t):
            return complex((1.0 - r * r) * math.exp(r * math.cos(t)), r * math.sin(2 * t))

        f, calls = counting(f)
        table = expand(f, 8, radial_order=16, angular_points=48)
        assert calls.count(()) == 16 * 48
        rule = gauss_legendre(16)
        r = np.sqrt((1.0 + rule.nodes) / 2.0)
        theta = 2.0 * math.pi * np.arange(48) / 48
        samples = np.array([[f(ri, tj) for tj in theta] for ri in r], dtype=complex)
        reference = per_index_coefficients(samples, 8, rule, theta)
        for idx, value in table.items():
            assert abs(value - reference[idx]) < 1e-14

    def test_array_target_called_once_per_grid(self):
        f, calls = counting(basis_function(PQIndex(2, 3)))
        table = expand(f, 10)
        assert calls == [(18, 1)]
        expansion_residual(f, table)
        assert calls[1:] == [(32, 1)]
        solve_weighted_poisson(f, 6)
        assert len(calls) == 3

    def test_array_and_float_sampling_agree(self):
        idx = PQIndex(3, 1)
        array_table = expand(basis_function(idx), 7)
        float_only = lambda r, t: complex(basis_function(idx)(float(r), float(t)))
        float_table = expand(float_only, 7)
        for key, value in array_table.items():
            assert abs(value - float_table.coefficient(key)) < 1e-14


def scalar_interpolant(sample: GridSample):
    """Point-at-a-time bilinear interpolant, the reference for grid_interpolant."""
    r_nodes = sample.radial_nodes
    two_pi = 2.0 * math.pi
    theta_ext = np.concatenate([sample.angular_nodes, [sample.angular_nodes[0] + two_pi]])
    values_ext = np.concatenate([sample.values, sample.values[:, :1]], axis=1)

    def interpolate(r, theta):
        rr = min(max(float(r), float(r_nodes[0])), float(r_nodes[-1]))
        i = bisect_left(r_nodes, rr)
        if i == 0:
            i0, i1, tr = 0, 0, 0.0
        else:
            i0, i1 = i - 1, min(i, r_nodes.size - 1)
            den = r_nodes[i1] - r_nodes[i0]
            tr = (rr - r_nodes[i0]) / den if den else 0.0
        th = float(theta) % two_pi
        if th < theta_ext[0]:
            th += two_pi
        j = bisect_left(theta_ext, th)
        if j == 0:
            j0, j1, tt = 0, 0, 0.0
        else:
            j0, j1 = j - 1, min(j, theta_ext.size - 1)
            den = theta_ext[j1] - theta_ext[j0]
            tt = (th - theta_ext[j0]) / den if den else 0.0
        row0 = values_ext[i0, j0] * (1 - tt) + values_ext[i0, j1] * tt
        row1 = values_ext[i1, j0] * (1 - tt) + values_ext[i1, j1] * tt
        return complex(row0 * (1 - tr) + row1 * tr)

    return interpolate


class TestArrayInterpolant:
    @pytest.mark.parametrize("theta0", [0.0, 0.3])
    def test_bit_identical_to_scalar_reference(self, theta0):
        rng = random.Random(2024)
        r_nodes = np.sort(np.array([rng.uniform(0.05, 0.95) for _ in range(9)]))
        theta_nodes = theta0 + np.sort(
            np.array([rng.uniform(0.0, 2 * math.pi - 0.4) for _ in range(11)])
        )
        values = np.array(
            [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in theta_nodes] for _ in r_nodes]
        )
        sample = GridSample(radial_nodes=r_nodes, angular_nodes=theta_nodes, values=values)
        reference = scalar_interpolant(sample)
        interp = grid_interpolant(sample)
        # below the first node, above the last, theta >= 2 pi, negative theta,
        # and the nodes themselves
        radii = [rng.uniform(-0.2, 1.2) for _ in range(200)] + [0.0, 1.0] + list(r_nodes)
        angles = [rng.uniform(-9.0, 15.0) for _ in range(200)] + [2 * math.pi, -2 * math.pi]
        angles += list(theta_nodes)
        r = np.array(radii)
        theta = np.array(angles)
        grid = interp(r[:, None], theta[None, :])
        expected = np.array([[reference(ri, tj) for tj in theta] for ri in r])
        assert grid.shape == expected.shape
        assert np.array_equal(grid.view(np.int64), expected.view(np.int64))
        for ri, tj in zip(radii[:20], angles[:20]):
            value = interp(ri, tj)
            assert isinstance(value, complex)
            assert value == reference(ri, tj)
