"""Weighted inner products, Gram matrices, and the divergent moment ladder."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from scatterpoly.quadrature import (
    DEFAULT_EPS_LADDER,
    GramMatrix,
    MomentEstimate,
    gram,
    inner_product_basis,
    inner_product_function,
    inner_product_poly,
    inner_product_poly_exact,
    moment_ladder,
    moment_slope,
    truncated_moment,
)
from scatterpoly import jacobi
from scatterpoly.scattering import (
    PQIndex,
    apply_modified_laplacian,
    basis_indices,
    jacobi_form,
    norm_sq,
    rodrigues,
)
from scatterpoly.transform import basis_function

from helpers import ix_gram


class TestInnerProductBasis:
    def test_norm_of_first_index(self):
        value = inner_product_basis(PQIndex(1, 1), PQIndex(1, 1))
        assert value.imag == 0.0
        assert value.real == pytest.approx(math.pi / 2, abs=1e-13)

    def test_opposite_frequencies_exactly_zero(self):
        assert inner_product_basis(PQIndex(1, 2), PQIndex(2, 1)) == 0j

    def test_equal_eigenvalue_different_frequency_exactly_zero(self):
        # (1,4) and (4,1) share pq = 4 but carry modes +3 and -3
        assert inner_product_basis(PQIndex(1, 4), PQIndex(4, 1)) == 0j

    def test_same_frequency_cross_terms_vanish_numerically(self):
        for a, b in (((1, 2), (2, 3)), ((1, 1), (2, 2)), ((1, 1), (3, 3)), ((2, 4), (3, 5))):
            value = inner_product_basis(PQIndex(*a), PQIndex(*b))
            assert abs(value) < 1e-12

    def test_invariant_under_order_doubling(self):
        for a, b in (((1, 1), (1, 1)), ((2, 3), (3, 4)), ((5, 2), (5, 2))):
            ia, ib = PQIndex(*a), PQIndex(*b)
            base_order = (ia.p + ia.q + ib.p + ib.q + 1) // 2 + 2
            v1 = inner_product_basis(ia, ib)
            v2 = inner_product_basis(ia, ib, order=2 * base_order)
            assert abs(v1 - v2) <= 1e-13 * max(1.0, abs(v1))

    def test_matches_exact_rational_route(self):
        for a, b in (((1, 1), (2, 2)), ((2, 3), (3, 4)), ((4, 2), (4, 2))):
            ia, ib = PQIndex(*a), PQIndex(*b)
            numeric = inner_product_basis(ia, ib)
            exact = inner_product_poly(rodrigues(ia), rodrigues(ib))
            assert abs(numeric - exact) <= 1e-13 * max(1.0, abs(exact))


class TestGram:
    def test_single_index(self):
        matrix = gram([PQIndex(1, 1)])
        assert matrix.entries.shape == (1, 1)
        assert matrix.entries[0, 0].real == pytest.approx(math.pi / 2, abs=1e-13)

    def test_diagonal_of_basis_three(self):
        matrix = gram(basis_indices(3))
        diag = np.real(np.diag(matrix.entries))
        expected = [math.pi / 2, math.pi / 6, 2 * math.pi / 3]
        assert np.allclose(diag, expected, rtol=1e-12)
        assert matrix.max_off_diagonal() < 1e-13

    def test_basis_eight_orthogonality(self):
        matrix = gram(basis_indices(8))
        assert matrix.max_off_diagonal() < 1e-11
        for i, idx in enumerate(matrix.indices):
            assert matrix.entries[i, i].real == pytest.approx(norm_sq(idx), rel=1e-12)

    def test_hermitian(self):
        matrix = gram(basis_indices(6))
        assert np.array_equal(matrix.entries, matrix.entries.conj().T)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gram([])

    def test_rejects_empty_iterator(self):
        with pytest.raises(ValueError, match="index sequence must be nonempty"):
            gram(iter([]))

    def test_max_off_diagonal_ignores_only_the_diagonal(self):
        pair = np.array([[9.0, -3.0], [-3.0, -8.0]])
        blocks = ((np.array([0, 2]), pair), (np.array([1]), np.array([[7.0]])))
        matrix = GramMatrix(indices=tuple(basis_indices(3)), blocks=blocks)
        assert matrix.max_off_diagonal() == 3.0
        assert pair[0, 0] == 9.0 and pair[1, 1] == -8.0
        assert np.array_equal(matrix.diagonal(), [9.0, 7.0, -8.0])
        assert np.array_equal(matrix.entries, [[9.0, 0.0, -3.0], [0.0, 7.0, 0.0], [-3.0, 0.0, -8.0]])
        single = GramMatrix((PQIndex(1, 1),), ((np.array([0]), np.array([[5.0]])),))
        assert single.max_off_diagonal() == 0.0
        big = gram(basis_indices(12))
        reference = np.max(np.abs(big.entries - np.diag(np.diag(big.entries))))
        assert big.max_off_diagonal() == reference
        assert np.array_equal(big.diagonal(), np.diag(big.entries))

    def test_max_off_diagonal_propagates_nan(self):
        # modes -2 .. 2 only, so the last block, n = 2, holds (1, 3), (2, 4) and (3, 5)
        matrix = gram([idx for idx in basis_indices(8) if abs(idx.q - idx.p) <= 2])
        *kept, (positions, last) = matrix.blocks
        assert len(last) == 3
        for cell, expect_nan in (((0, 1), True), ((1, 0), True), ((1, 1), False)):
            poisoned = np.array(last)
            poisoned[cell] = math.nan
            blocks = (*kept, (positions, poisoned))
            off = GramMatrix(matrix.indices, blocks).max_off_diagonal()
            assert math.isnan(off) == expect_nan

    def test_max_off_diagonal_counts_a_repeated_index(self):
        # the two copies of (2, 3) share a block; their product is off the diagonal
        matrix = gram([PQIndex(2, 3), PQIndex(1, 1), PQIndex(2, 3)])
        assert matrix.max_off_diagonal() == matrix.entries[0, 2]
        assert matrix.max_off_diagonal() == pytest.approx(norm_sq(PQIndex(2, 3)), rel=1e-12)

    def test_blocks_need_no_dense_matrix(self):
        # the dense T = 96 matrix alone is 164 MiB; its blocks take about 1 MiB
        indices = basis_indices(96)
        gram(indices)  # construction checks, outside the trace
        tracemalloc.start()
        try:
            matrix = gram(indices)
            matrix.max_off_diagonal(), matrix.diagonal()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert "entries" not in vars(matrix)

    def test_type_fields(self):
        matrix = gram(basis_indices(3))
        assert isinstance(matrix, GramMatrix)
        assert matrix.indices == tuple(basis_indices(3))
        assert all(not block.flags.writeable for _, block in matrix.blocks)


class TestKeptGramKernels:
    """gram keeps the kernels of a whole basis at its rule, per T."""

    @pytest.fixture
    def tables(self, monkeypatch):
        node_sets = []
        table = jacobi.jacobi_table

        def counted(m, max_degree, x):
            node_sets.append(np.asarray(x).tobytes())
            return table(m, max_degree, x)

        monkeypatch.setattr(jacobi, "jacobi_table", counted)
        jacobi_form.cache_clear()
        yield node_sets
        jacobi_form.cache_clear()

    def test_cleared_checks_build_the_tables_again(self, tables):
        indices = basis_indices(24)
        first = gram(indices).entries
        assert len(tables) == 2  # the check radii and the Gram nodes
        assert np.array_equal(gram(indices).entries, first)
        assert len(tables) == 2  # the kept set: no table
        jacobi_form.cache_clear()
        assert np.array_equal(gram(indices).entries, first)
        assert len(tables) == 4
        assert jacobi_form.cache_info().misses == len(indices)
        gram(indices)
        assert jacobi_form.cache_info().hits == 1  # a kept set still looks its members up

    def test_other_sequences_are_built_per_call(self, tables):
        indices = basis_indices(12)
        reordered = indices[1:] + indices[:1]
        back = np.argsort([indices.index(idx) for idx in reordered])
        kept = gram(indices).entries
        tables.clear()
        for _ in range(2):
            assert np.allclose(gram(reordered).entries[np.ix_(back, back)], kept, atol=1e-15)
        assert len(tables) == 2


class TestBlockGram:
    def test_matches_pairwise_inner_products(self):
        indices = basis_indices(12)
        entries = gram(indices).entries
        pairwise = np.array([[inner_product_basis(a, b) for b in indices] for a in indices])
        assert np.max(np.abs(entries - pairwise)) < 1e-14

    def test_entries_real_and_symmetric(self):
        entries = gram(basis_indices(9)).entries
        assert entries.dtype == np.float64
        assert np.array_equal(entries, entries.T)

    def test_index_order_and_repeats(self):
        # entries follow the caller's order, repeats included
        indices = [PQIndex(2, 3), PQIndex(1, 1), PQIndex(2, 3), PQIndex(3, 2)]
        entries = gram(indices).entries
        for i, a in enumerate(indices):
            for j, b in enumerate(indices):
                assert abs(entries[i, j] - inner_product_basis(a, b)) < 1e-14


class TestGramPlacement:
    """``entries`` holds every mode block with the bits of a per-mode ``np.ix_``
    scatter of kernels built per call."""

    @pytest.mark.parametrize("top", range(2, 65))
    def test_whole_bases(self, top):
        entries = gram(basis_indices(top)).entries
        assert np.array_equal(entries.view(np.int64), ix_gram(basis_indices(top)).view(np.int64))

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_subsets_and_repeats(self, seed):
        rng = random.Random(seed)
        pool = basis_indices(rng.randint(4, 40))
        indices = rng.sample(pool, k=rng.randint(1, len(pool)))
        indices += rng.choices(indices, k=rng.randint(0, 5))  # repeated members
        rng.shuffle(indices)
        entries = gram(indices).entries
        assert entries.flags.c_contiguous and not entries.flags.writeable
        assert np.array_equal(entries.view(np.int64), ix_gram(indices).view(np.int64))


class TestSelfAdjointness:
    def test_weighted_laplacian_symmetric_on_basis(self):
        indices = basis_indices(8)
        polys = {idx: rodrigues(idx) for idx in indices}
        images = {idx: apply_modified_laplacian(polys[idx]) for idx in indices}
        rng = random.Random(12)
        pairs = [(a, b) for a in indices for b in indices]
        rng.shuffle(pairs)
        for a, b in pairs[:60]:
            lhs = inner_product_poly(images[a], polys[b])
            rhs = inner_product_poly(polys[a], images[b])
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))

    def test_exact_symmetry(self):
        # the rational route makes the symmetry literal, not approximate
        a, b = PQIndex(2, 2), PQIndex(3, 3)
        lhs = inner_product_poly_exact(apply_modified_laplacian(rodrigues(a)), rodrigues(b))
        rhs = inner_product_poly_exact(rodrigues(a), apply_modified_laplacian(rodrigues(b)))
        assert lhs == rhs


class TestInnerProductFunction:
    def test_self_projection_equals_norm(self):
        idx = PQIndex(2, 3)
        value = inner_product_function(basis_function(idx), idx, 13, 36)
        assert abs(value - norm_sq(idx)) < 1e-10

    def test_cross_projection_vanishes(self):
        value = inner_product_function(basis_function(PQIndex(2, 3)), PQIndex(3, 2), 13, 36)
        assert abs(value) < 1e-10

    def test_constant_against_first_basis_member(self):
        value = inner_product_function(lambda r, t: 1.0 + 0j, PQIndex(1, 1), 12, 24)
        assert abs(value - math.pi) < 1e-12

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            inner_product_function(lambda r, t: 0j, PQIndex(1, 1), 0, 8)


def closed_form_moment(m: int, n: int, eps: float) -> float:
    """Antiderivative oracle for the truncated moment.

    Radial part: integral_0^(R^2) t^s/(1-t) dt
               = -sum_(k=1)^s R^(2k)/k - ln(1 - R^2), s = m + n.
    """
    s = m + n
    big_r = 1.0 - eps
    radial = -sum(big_r ** (2 * k) / k for k in range(1, s + 1)) - math.log(
        1.0 - big_r * big_r
    )
    df = lambda k: 1.0 if k <= 0 else math.prod(range(k, 0, -2))
    angular = 2.0 * math.pi * df(2 * m - 1) * df(2 * n - 1) / df(2 * m + 2 * n)
    return angular * radial / 2.0


class TestTruncatedMoment:
    def test_log_antiderivative_for_0_0(self):
        for eps in (1e-2, 1e-4, 1e-6):
            expected = -math.pi * math.log(2 * eps - eps * eps)
            assert abs(truncated_moment(0, 0, eps) - expected) < 1e-8

    def test_closed_form_oracle_small_exponents(self):
        for m in range(0, 3):
            for n in range(0, 3):
                for eps in (1e-2, 1e-3, 1e-5):
                    value = truncated_moment(m, n, eps)
                    assert value == pytest.approx(closed_form_moment(m, n, eps), rel=1e-9)

    def test_log_growth_between_decades(self):
        jump = truncated_moment(0, 0, 1e-6) - truncated_moment(0, 0, 1e-3)
        assert jump == pytest.approx(math.pi * math.log(1000), rel=0.01)

    def test_monotone_increasing_down_the_ladder(self):
        for m in range(0, 4):
            for n in range(0, 4 - m):
                estimate = moment_ladder(m, n)
                assert list(estimate.values) == sorted(estimate.values)
                assert all(b > a for a, b in zip(estimate.values, estimate.values[1:]))

    def test_slope_for_0_0_is_pi(self):
        slope = moment_slope(moment_ladder(0, 0))
        assert abs(slope - math.pi) <= 0.01 * math.pi

    def test_slope_positive_for_1_0(self):
        assert moment_slope(moment_ladder(1, 0)) > 0

    @pytest.mark.parametrize("cutoffs", [(1e-3,), (1e-3, 1e-3)])
    def test_slope_needs_two_distinct_cutoffs(self, cutoffs):
        with pytest.raises(ValueError, match="two distinct cutoffs"):
            moment_slope(moment_ladder(0, 0, cutoffs))

    def test_estimate_fields(self):
        estimate = moment_ladder(1, 2, (1e-2, 1e-4, 1e-3))
        assert isinstance(estimate, MomentEstimate)
        assert estimate.cutoffs == (1e-2, 1e-3, 1e-4)
        assert len(estimate.values) == 3

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            truncated_moment(0, 0, 0.0)
        with pytest.raises(ValueError):
            truncated_moment(0, 0, 1.0)
        with pytest.raises(ValueError):
            truncated_moment(-1, 0, 0.5)

    def test_default_ladder(self):
        assert DEFAULT_EPS_LADDER == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
