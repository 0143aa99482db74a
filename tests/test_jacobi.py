"""Jacobi evaluation, the norm gate, Q functions, and Gauss-Legendre rules."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_jacobi

from helpers import scalar_jacobi_table

from scatterpoly.jacobi import (
    ConvergenceError,
    JacobiParams,
    QuadratureRule,
    gauss_legendre,
    jacobi_eval,
    jacobi_norm_sq,
    jacobi_table,
    quasipolynomial_q,
)


class TestJacobiEval:
    def test_degree_zero_is_one(self):
        for m in (0, 1, 5):
            for x in (-1.0, -0.3, 0.8, 1.0):
                assert jacobi_eval(JacobiParams(1, m, 0), x) == 1.0

    @pytest.mark.parametrize("x", [-1.0, -0.25, 0.0, 0.6, 1.0])
    def test_degree_one_closed_form(self, x):
        # P_1^(1,0)(x) = (3x + 1)/2
        value = jacobi_eval(JacobiParams(1, 0, 1), x)
        assert abs(value - (3 * x + 1) / 2) < 1e-15

    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    @pytest.mark.parametrize("nu", [0, 1, 2, 5, 12])
    def test_endpoint_value(self, nu, m):
        # P_nu^(1,m)(1) = nu + 1
        assert abs(jacobi_eval(JacobiParams(1, m, nu), 1.0) - (nu + 1)) < 1e-11

    def test_three_term_recurrence_consistency(self):
        rng = random.Random(4242)
        for _ in range(120):
            nu = rng.randint(2, 30)
            m = rng.randint(0, 15)
            x = rng.uniform(-1.0, 1.0)
            values = [jacobi_eval(JacobiParams(1, m, d), x) for d in (nu - 2, nu - 1, nu)]
            a, b = 1, m
            s = 2 * nu + a + b
            lhs = 2 * nu * (nu + a + b) * (s - 2) * values[2]
            rhs = (s - 1) * ((a * a - b * b) + s * (s - 2) * x) * values[1] - (
                2 * (nu + a - 1) * (nu + b - 1) * s
            ) * values[0]
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_against_scipy(self):
        rng = random.Random(11)
        for _ in range(60):
            nu = rng.randint(0, 25)
            m = rng.randint(0, 10)
            x = rng.uniform(-1.0, 1.0)
            mine = jacobi_eval(JacobiParams(1, m, nu), x)
            ref = float(eval_jacobi(nu, 1, m, x))
            assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_vectorized_matches_scalar(self):
        params = JacobiParams(1, 2, 7)
        xs = np.linspace(-1, 1, 17)
        vec = jacobi_eval(params, xs)
        for x, v in zip(xs, vec):
            assert v == jacobi_eval(params, float(x))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            JacobiParams(2, 0, 0)
        with pytest.raises(ValueError):
            JacobiParams(1, -1, 0)
        with pytest.raises(ValueError):
            JacobiParams(1, 0, -1)

    def test_params_are_integers(self):
        with pytest.raises(TypeError):
            JacobiParams(1, 2.5, 3)
        with pytest.raises(TypeError):
            JacobiParams(1, 2, 3.0)
        with pytest.raises(TypeError):
            JacobiParams(1.0, 2, 3)
        params = JacobiParams(np.int64(1), np.int64(2), np.int32(3))
        assert (params.alpha, params.beta, params.degree) == (1, 2, 3)
        assert type(params.beta) is int and type(params.degree) is int
        assert jacobi_eval(params, 0.25) == jacobi_eval(JacobiParams(1, 2, 3), 0.25)


class TestJacobiTable:
    def test_columns_equal_jacobi_eval(self):
        xs = np.linspace(-1.0, 1.0, 23)
        for m in range(0, 9):
            (table,) = jacobi_table([m], [12], xs)
            assert table.shape == (23, 13)
            for nu in range(0, 13):
                assert np.array_equal(table[:, nu], jacobi_eval(JacobiParams(1, m, nu), xs))

    @pytest.mark.parametrize("nodes", ["gauss", "uniform"])
    def test_all_modes_equal_the_scalar_recurrence(self, nodes):
        # every m <= 126 and nu <= 63 (the largest at MAX_TRUNC) in one pass,
        # bit for bit the one-m recurrence with Python-integer coefficients
        if nodes == "gauss":
            xs = np.concatenate([[-1.0], gauss_legendre(66).nodes, [1.0]])
        else:
            xs = np.linspace(-1.0, 1.0, 41)
        ms = list(range(127))
        tables = jacobi_table(ms, [63] * len(ms), xs)
        assert len(tables) == 127
        for m in ms:
            assert tables[m].shape == (xs.size, 64)
            assert np.array_equal(tables[m], scalar_jacobi_table(m, 63, xs))

    def test_modes_in_any_order_and_with_repeats(self):
        xs = np.linspace(-1.0, 1.0, 9)
        tables = jacobi_table([5, 0, 5, 2], [7] * 4, xs)
        for table, m in zip(tables, [5, 0, 5, 2]):
            assert np.array_equal(table, scalar_jacobi_table(m, 7, xs))

    def test_scalar_m_and_scalar_x(self):
        (table,) = jacobi_table([3], [4], 0.3)
        assert table.shape == (5,)
        assert np.array_equal(table, scalar_jacobi_table(3, 4, 0.3))
        assert [t.shape for t in jacobi_table([1, 2], [0, 0], 0.5)] == [(1,), (1,)]
        with pytest.raises(ValueError):
            jacobi_table([1, -1], [3, 3], 0.5)

    def test_keeps_the_shape_of_x(self):
        xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        (table,) = jacobi_table([2], [5], xs)
        assert table.shape == (3, 4, 6)
        assert np.array_equal(table[..., 5], jacobi_eval(JacobiParams(1, 2, 5), xs))

    def test_one_top_degree_per_m(self):
        xs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            jacobi_table([1, 2, 3], [2, 2], xs)
        with pytest.raises(ValueError):
            jacobi_table([1], [2, 2], xs)
        with pytest.raises(TypeError):  # one m or one degree is not a sequence
            jacobi_table(3, 4, xs)

    def test_no_nodes(self):
        # an empty node set gives empty tables and values, of the shapes of x
        tables = jacobi_table([0, 3], [2, 4], np.array([]))
        assert [t.shape for t in tables] == [(0, 3), (0, 5)]
        assert jacobi_eval(JacobiParams(1, 2, 3), np.array([])).shape == (0,)
        assert jacobi_eval(JacobiParams(1, 2, 3), np.empty((0, 4))).shape == (0, 4)


class TestRaggedJacobiTable:
    """One degree per m: each m runs only to its own degree, bit for bit."""

    def test_each_m_to_its_own_degree(self):
        xs = np.concatenate([[-1.0], gauss_legendre(66).nodes, [1.0]])
        ms = list(range(127))
        tops = [(128 - m) // 2 - 1 for m in ms]  # the degrees of T = 128
        tables = jacobi_table(ms, tops, xs)
        assert len(tables) == len(ms)
        for m, top, table in zip(ms, tops, tables):
            assert table.shape == (xs.size, top + 1)
            expected = scalar_jacobi_table(m, top, xs)
            assert np.array_equal(table.view(np.int64), expected.view(np.int64))

    def test_any_order_repeats_and_degree_zero(self):
        xs = np.linspace(-1.0, 1.0, 9)
        ms, tops = [5, 0, 5, 2, 7], [3, 9, 6, 0, 9]
        for m, top, table in zip(ms, tops, jacobi_table(ms, tops, xs)):
            assert np.array_equal(table, scalar_jacobi_table(m, top, xs))
        assert jacobi_table([], [], xs) == []
        # ragged degrees of T = 24 with a repeated m, bit for bit
        ms = [5, 0, 17, 2, 9, 1, 22, 3, 3]
        tops = [(24 - m) // 2 - 1 for m in ms]
        for m, top, table in zip(ms, tops, jacobi_table(ms, tops, xs)):
            assert table.shape == (9, top + 1)
            expected = scalar_jacobi_table(m, top, xs)
            assert np.array_equal(table.view(np.int64), expected.view(np.int64))

    def test_keeps_the_shape_of_x(self):
        xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        low, high = jacobi_table([2, 1], [3, 5], xs)
        assert low.shape == (3, 4, 4) and high.shape == (3, 4, 6)
        assert np.array_equal(high[..., 5], jacobi_eval(JacobiParams(1, 1, 5), xs))
        (scalar,) = jacobi_table([3], [4], 0.3)
        assert np.array_equal(scalar, scalar_jacobi_table(3, 4, 0.3))

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError):
            jacobi_table([1, 2], [3, -1], 0.5)
        with pytest.raises(ValueError):
            jacobi_table([1, 2], [-1, -1], 0.5)

    def test_rejects_non_integer_m_and_degrees(self):
        xs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(TypeError):
            jacobi_table([2.5], [3], xs)
        with pytest.raises(TypeError):
            jacobi_table([2], [3.0], xs)
        (table,) = jacobi_table([np.int64(2)], [np.int32(3)], xs)
        assert np.array_equal(table, scalar_jacobi_table(2, 3, xs))

    def test_peak_memory_is_near_the_store(self):
        # the T = 128 degrees at 268 nodes: the table's own rows and little more
        ms = list(range(127))
        tops = [(128 - m) // 2 - 1 for m in ms]
        xs = np.linspace(-1.0, 1.0, 268)
        store = sum(t + 1 for t in tops) * xs.size * 8
        tracemalloc.start()
        try:
            tables = jacobi_table(ms, tops, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables) == len(ms)
        assert peak < 1.25 * store


class TestNormGate:
    """The closed-form norm must match direct quadrature before anything
    else is allowed to rely on it."""

    def test_closed_form_against_quadrature_full_grid(self):
        for m in range(0, 9):
            for nu in range(0, 13):
                params = JacobiParams(1, m, nu)
                rule = gauss_legendre(nu + m + 2)
                u = rule.nodes
                integrand = (1 - u) * (1 + u) ** m * jacobi_eval(params, u) ** 2
                numeric = float(rule.weights @ integrand)
                closed = jacobi_norm_sq(params)
                assert abs(numeric - closed) <= 1e-12 * closed

    def test_hand_integrals(self):
        # integral of (1-u) over [-1,1] is 2
        assert jacobi_norm_sq(JacobiParams(1, 0, 0)) == pytest.approx(2.0, abs=1e-15)
        # integral of (1-u)(1+u) over [-1,1] is 4/3
        assert jacobi_norm_sq(JacobiParams(1, 1, 0)) == pytest.approx(4 / 3, abs=1e-15)

    def test_orthogonality_under_weight(self):
        for m in (0, 3, 8):
            for nu in range(0, 13):
                for mu in range(0, 13):
                    if nu == mu:
                        continue
                    rule = gauss_legendre(nu + mu + m + 2)
                    u = rule.nodes
                    integrand = (
                        (1 - u)
                        * (1 + u) ** m
                        * jacobi_eval(JacobiParams(1, m, nu), u)
                        * jacobi_eval(JacobiParams(1, m, mu), u)
                    )
                    assert abs(float(rule.weights @ integrand)) < 1e-10


class TestQuasipolynomials:
    def test_value_at_minus_one(self):
        assert quasipolynomial_q(JacobiParams(1, 0, 0), -1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("nu", [0, 2, 7])
    def test_vanishes_at_plus_one(self, nu, m):
        assert quasipolynomial_q(JacobiParams(1, m, nu), 1.0) == 0.0

    def test_plain_l2_orthogonality(self):
        # Q_nu Q_mu at equal m is a polynomial of degree nu + mu + m + 1,
        # so Gauss-Legendre integrates the product exactly.
        for m in (0, 2, 5, 8):
            for nu in range(0, 13):
                for mu in range(nu + 1, 13):
                    rule = gauss_legendre(nu + mu + m + 2)
                    product = quasipolynomial_q(
                        JacobiParams(1, m, nu), rule.nodes
                    ) * quasipolynomial_q(JacobiParams(1, m, mu), rule.nodes)
                    assert abs(float(rule.weights @ product)) < 1e-10

    def test_squared_integral_matches_weighted_norm(self):
        # integral of Q_nu^2 du = norm / 2^(m+1)
        for m, nu in ((0, 0), (1, 3), (4, 6)):
            params = JacobiParams(1, m, nu)
            rule = gauss_legendre(2 * nu + m + 3)
            numeric = float(rule.weights @ quasipolynomial_q(params, rule.nodes) ** 2)
            assert numeric == pytest.approx(
                jacobi_norm_sq(params) / 2 ** (m + 1), rel=1e-12
            )


class TestGaussLegendre:
    def test_order_one_is_midpoint(self):
        rule = gauss_legendre(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_order_two_classical_nodes(self):
        rule = gauss_legendre(2)
        assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)

    def test_quartic_with_order_three(self):
        rule = gauss_legendre(3)
        assert abs(rule.integrate(lambda u: u**4) - 2 / 5) < 1e-14

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 40])
    def test_exact_for_monomials(self, order):
        rule = gauss_legendre(order)
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2 / (k + 1)
            assert abs(rule.integrate(lambda u, k=k: u**k) - exact) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 33, 64])
    def test_structure_invariants(self, order):
        rule = gauss_legendre(order)
        assert rule.order == order
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.nodes.min() > -1 and rule.nodes.max() < 1
        assert abs(rule.weights.sum() - 2.0) < 1e-13

    @pytest.mark.parametrize("order", [2, 7, 20, 64])
    def test_against_numpy_leggauss(self, order):
        rule = gauss_legendre(order)
        ref_nodes, ref_weights = leggauss(order)
        assert np.allclose(rule.nodes, ref_nodes, atol=1e-14)
        assert np.allclose(rule.weights, ref_weights, atol=1e-14)

    def test_affine_interval_map(self):
        rule = gauss_legendre(6)
        # integral of e^v over [ln(1/2), 0] = 1/2
        value = rule.integrate_on(np.exp, math.log(0.5), 0.0)
        assert value == pytest.approx(0.5, rel=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    def test_order_is_an_integer(self):
        rule = gauss_legendre(np.int64(5))
        assert rule.order == 5 and type(rule.order) is int
        with pytest.raises(TypeError):  # not answered by the rule cached for np.int64(5)
            gauss_legendre(5.0)
        with pytest.raises(TypeError):  # not "order must be >= 1"
            gauss_legendre(0.5)

    def test_error_type_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)
        assert issubclass(ConvergenceError, ArithmeticError)  # the CLI exits 1 on it

    def test_rule_is_cached_and_frozen(self):
        assert gauss_legendre(9) is gauss_legendre(9)
        rule = gauss_legendre(9)
        assert isinstance(rule, QuadratureRule)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
