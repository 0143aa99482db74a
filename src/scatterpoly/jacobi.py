"""Jacobi polynomials P_nu^(1,m), their weighted norms, the square-root
weighted variants Q, and Gauss-Legendre quadrature.

Everything here lives on [-1, 1] in the variable u; the disk modules reach
this interval through the substitution u = 2r^2 - 1, under which every
radial integrand of interest becomes a plain polynomial.  Evaluation is in
double precision; exact values, where a test needs them, come from the
rational polynomial route in :mod:`scatterpoly.scattering`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


class ConvergenceError(RuntimeError, ArithmeticError):
    """Newton iteration for quadrature nodes failed to converge."""


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (alpha, beta, degree) of a Jacobi polynomial.

    Only alpha = 1 occurs in this package; beta is the angular power m and
    the degree is written nu elsewhere.
    """

    alpha: int
    beta: int
    degree: int

    def __post_init__(self) -> None:
        if self.alpha != 1:
            raise ValueError("only alpha = 1 is supported")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")


def jacobi_table(m: Union[int, Sequence[int]], max_degree: int, x: ArrayLike) -> np.ndarray:
    """Every P_nu^(1,m)(x) for nu = 0 .. max_degree, in one recurrence pass.

    ``m`` is one angular power or a sequence of them; every m runs in the
    same pass.  Returns an array of shape x.shape + shape(m) +
    (max_degree + 1,) whose last axis is the degree.  Seeds are P_0 = 1
    and P_1 = (alpha+1) + (alpha+beta+2)(x-1)/2 with alpha = 1, beta = m.
    The recurrence coefficients are integers, formed exactly in float64
    while s = 2 nu + 1 + m stays below 2^17 (docs/math_notes.md section
    7), so each m's values are bit for bit those of a pass with that m
    alone.
    """
    b = np.asarray(m, dtype=float)
    if max_degree < 0 or (b.size and b.min() < 0):
        raise ValueError("m and max_degree must be nonnegative")
    a = 1
    shape = np.shape(x) + b.shape
    xv = np.asarray(x, dtype=float).reshape(np.shape(x) + (1,) * b.ndim)
    # degree-major storage: each step writes one contiguous slab
    out = np.empty((max_degree + 1,) + shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = (a + 1) + (a + b + 2) * (xv - 1.0) / 2.0
    # the integer coefficients of every step k >= 2 at once, one row per step
    k = np.arange(2.0, max_degree + 1).reshape((-1,) + (1,) * b.ndim)
    s = 2 * k + a + b
    c_x = (s - 1) * s * (s - 2)
    c_const = (s - 1) * (a * a - b * b)
    c_prev = 2 * (k + a - 1) * (k + b - 1) * s
    c_norm = 2 * k * (k + a + b) * (s - 2)
    rows = [out[i, ...] for i in range(max_degree + 1)]
    step, prev_term = np.empty(shape), np.empty(shape)
    for i, (cx, cc, cp, cn) in enumerate(zip(c_x, c_const, c_prev, c_norm)):
        # ((c_const + c_x x) P_(k-1) - c_prev P_(k-2)) / c_norm in reused buffers
        np.multiply(cx, xv, out=step)
        step += cc
        step *= rows[i + 1]
        np.multiply(cp, rows[i], out=prev_term)
        step -= prev_term
        np.divide(step, cn, out=rows[i + 2])
    return np.moveaxis(out, 0, -1)


def radial_kernels(
    groups: Sequence[tuple[int, Sequence[int], Sequence[float]]], r: np.ndarray, max_nu: int
) -> Iterator[np.ndarray]:
    """c * r^m * P_nu^(1,m)(2 r^2 - 1) for groups of columns (m, nus, cs).

    Runs one :func:`jacobi_table` pass over the groups' distinct m, up to
    degree ``max_nu``, at least the largest nu of the groups, then
    yields one array of shape r.shape + (len(nus),) per group as it is
    iterated, so only one group's array and its r^m exist next to the
    table.  Each r^m takes a scalar exponent and is applied as
    (c * r^m) * P, the order of a one-column call, so a column has the
    same bits in any batch.
    """
    ms = sorted({m for m, _, _ in groups})
    table = jacobi_table(ms, max_nu, 2.0 * r * r - 1.0)
    slot = {m: j for j, m in enumerate(ms)}

    def kernel(group: tuple[int, Sequence[int], Sequence[float]]) -> np.ndarray:
        m, nus, cs = group
        return np.asarray(cs, dtype=float) * (r**m)[..., None] * table[..., slot[m], nus]

    return map(kernel, groups)


def jacobi_eval(params: JacobiParams, x: ArrayLike) -> ArrayLike:
    """Evaluate P_nu^(alpha,beta) at x: the last column of :func:`jacobi_table`.

    Accepts a scalar or an ndarray; the recurrence is run vectorized.
    """
    value = jacobi_table(params.beta, params.degree, x)[..., -1]
    return float(value) if np.ndim(x) == 0 else value


def jacobi_norm_sq(params: JacobiParams) -> float:
    """Squared norm of P_nu^(1,m) under the weight (1-u)(1+u)^m on [-1,1].

    Closed form 2^(m+2) (nu+1) / ((2 nu + m + 2)(nu + m + 1)).  The gate
    test in tests/test_jacobi.py checks this against direct quadrature of
    the defining integral for all nu <= 12, m <= 8 before anything else
    relies on it.
    """
    m, nu = params.beta, params.degree
    return 2.0 ** (m + 2) * (nu + 1) / ((2 * nu + m + 2) * (nu + m + 1))


def quasipolynomial_q(params: JacobiParams, u: ArrayLike) -> ArrayLike:
    """((1-u)/2)^(1/2) ((1+u)/2)^(m/2) P_nu^(1,m)(u).

    The square-root prefactors fold the weight (1-u)(1+u)^m into the
    function itself, so distinct degrees at fixed m are orthogonal in
    plain L^2([-1,1], du).  Vanishes at u = 1 for every degree.
    """
    m = params.beta
    uv = np.asarray(u, dtype=float)
    value = (
        np.sqrt((1.0 - uv) / 2.0)
        * ((1.0 + uv) / 2.0) ** (0.5 * m)
        * jacobi_eval(params, uv)
    )
    return float(value) if np.ndim(u) == 0 else value


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on (-1, 1), exact through degree 2*order - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of f over [-1, 1]."""
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))

    def integrate_on(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
        """Integral of f over [a, b] via the affine map from [-1, 1]."""
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(self.weights @ np.asarray(f(mid + half * self.nodes), dtype=float))


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the Legendre three-term recurrence."""
    p_prev = np.ones_like(x)
    p_curr = x.copy()
    for k in range(2, n + 1):
        p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k - 1) * p_prev) / k
    return p_curr, p_prev


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with the given number of nodes.

    Nodes are Newton-refined from the Chebyshev initial guesses
    cos(pi (k + 3/4) / (order + 1/2)); tolerance 1e-15 on the update,
    100-iteration cap.  Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    k = np.arange(order, dtype=float)
    x = np.cos(math.pi * (k + 0.75) / (order + 0.5))
    for _ in range(100):
        p_n, p_nm1 = _legendre_pair(order, x)
        # dP_n = n (x P_n - P_{n-1}) / (x^2 - 1); interior nodes keep x^2 < 1
        dp = order * (x * p_n - p_nm1) / (x * x - 1.0)
        step = p_n / dp
        x -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise ConvergenceError(f"Legendre roots of order {order} did not converge")
    p_n, p_nm1 = _legendre_pair(order, x)
    dp = order * (x * p_n - p_nm1) / (x * x - 1.0)
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = x[::-1].copy()
    weights = weights[::-1].copy()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, order=order)
