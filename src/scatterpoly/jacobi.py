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
import operator
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
    the degree is written nu elsewhere.  All three are integers, stored as
    int (an integer type such as numpy's is taken by ``operator.index``).
    """

    alpha: int
    beta: int
    degree: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "degree"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.alpha != 1:
            raise ValueError("only alpha = 1 is supported")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")


def jacobi_table(ms: Sequence[int], tops: Sequence[int], x: ArrayLike) -> list[np.ndarray]:
    """Every P_nu^(1,m)(x) for nu = 0 .. tops[j], for each m = ms[j], in one recurrence.

    One top degree per m: each m runs only to its own degree, so the table
    holds no degree that no m asked for.  Entry j of the result has shape
    x.shape + (tops[j] + 1,), its last axis the degree.  Seeds are P_0 = 1
    and P_1 = (alpha+1) + (alpha+beta+2)(x-1)/2 with alpha = 1, beta = m.
    The recurrence coefficients are integers, formed exactly in float64
    while s = 2 nu + 1 + m stays below 2^17 (docs/math_notes.md section 7),
    so each m's values are bit for bit those of a recurrence with that m
    alone, to any degree.  The m and the top degrees are taken by
    ``operator.index``, so a float is a TypeError.

    Each m owns one block of consecutive rows of a single m-major store,
    the m in decreasing top degree, so the ones still running at degree k
    are a prefix; each degree's rows of that prefix are written into the
    store at once, and each result is a view of its block.
    """
    if len(ms) != len(tops):
        raise ValueError(f"{len(ms)} values of m but {len(tops)} top degrees")
    ms, tops = [operator.index(m) for m in ms], [operator.index(t) for t in tops]
    if min(tops, default=0) < 0 or min(ms, default=0) < 0:
        raise ValueError("m and the top degrees must be nonnegative")
    xv = np.asarray(x, dtype=float).reshape(1, -1)
    order = sorted(range(len(tops)), key=tops.__getitem__, reverse=True)
    a, top = 1, max(tops, default=0)
    b = np.array([ms[i] for i in order], dtype=float)[:, None]
    top_s = np.array([tops[i] for i in order], dtype=int)
    rows = top_s + 1
    first = np.cumsum(rows) - rows
    # degree k of the j-th m is row at[k, j]; the first running[k] m reach degree k
    at = first + np.arange(top + 2)[:, None]
    running = np.searchsorted(-top_s, -np.arange(top + 2), side="right").tolist()
    store = np.empty((int(rows.sum()), xv.size))
    # P_(k-2), P_(k-1) and P_k of the running m, rotated at each degree
    p2, p0 = np.ones((len(b), xv.size)), np.empty((len(b), xv.size))
    p1 = (a + 1) + (a + b + 2) * (xv - 1.0) / 2.0
    store[at[0]] = p2
    store[at[1, :running[1]]] = p1[:running[1]]
    # the integer coefficients of every step k >= 2 at once: axes (k, m, 1)
    k = np.arange(2.0, top + 1)[:, None, None]
    s = 2 * k + a + b
    s1, s2 = s - 1, s - 2
    c_x, c_const = s1 * s * s2, s1 * (a * a - b * b)
    c_prev = 2 * (k + a - 1) * (k + b - 1) * s
    c_norm = 2 * k * (k + a + b) * s2
    # ((c_x x + c_const) P_(k-1) - c_prev P_(k-2)) / c_norm for the running m
    for deg, cx, cc, cp, cn in zip(range(2, top + 1), c_x, c_const, c_prev, c_norm):
        c = running[deg]
        step = p0[:c]
        np.multiply(cx[:c], xv, out=step)
        step += cc[:c]
        step *= p1[:c]
        p2[:c] *= cp[:c]
        step -= p2[:c]
        step /= cn[:c]
        store[at[deg, :c]] = step
        p2, p1, p0 = p1, p0, p2
    out: list[np.ndarray] = [None] * len(tops)
    shape = np.shape(x)
    for i, f, t in zip(order, first.tolist(), top_s.tolist()):
        out[i] = store[f:f + t + 1].T.reshape(shape + (t + 1,))
    return out


def radial_kernels(
    groups: Sequence[tuple[int, Union[Sequence[int], slice], Sequence[float]]], r: np.ndarray
) -> Iterator[np.ndarray]:
    """c * r^m * P_nu^(1,m)(2 r^2 - 1) for groups of columns (m, nus, cs).

    Makes one :func:`jacobi_table` call for the groups' distinct m, each m
    up to the largest nu of its groups, then yields one array of shape
    r.shape + (len(nus),) per group as it is iterated; ``nus`` may be a
    slice, which reads the table as a view.  Each r^m takes a scalar
    exponent, one m at a time, is kept for the group of -n, and is applied
    as (c * r^m) * P, the order of a one-column call, so a column has the
    same bits in any batch.
    """
    tops: dict[int, int] = {}
    for m, nus, _ in groups:
        top = nus.stop - 1 if isinstance(nus, slice) else int(np.max(nus))
        tops[m] = max(tops.get(m, 0), top)
    ms = sorted(tops)
    table = dict(zip(ms, jacobi_table(ms, [tops[m] for m in ms], 2.0 * r * r - 1.0)))
    powers: dict[int, np.ndarray] = {}

    def kernel(group: tuple[int, Union[Sequence[int], slice], Sequence[float]]) -> np.ndarray:
        m, nus, cs = group
        if m not in powers:
            powers[m] = (r**m)[..., None]
        return np.asarray(cs, dtype=float) * powers[m] * table[m][..., nus]

    return map(kernel, groups)


def jacobi_eval(params: JacobiParams, x: ArrayLike) -> ArrayLike:
    """Evaluate P_nu^(alpha,beta) at x: the last column of :func:`jacobi_table`.

    Accepts a scalar or an ndarray; the recurrence is run vectorized.
    """
    value = jacobi_table([params.beta], [params.degree], x)[0][..., -1]
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


@lru_cache(maxsize=None, typed=True)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with the given number of nodes.

    Nodes are Newton-refined from the Chebyshev initial guesses
    cos(pi (k + 3/4) / (order + 1/2)); tolerance 1e-15 on the update,
    100-iteration cap.  Exact for polynomials of degree <= 2*order - 1.
    The order is taken by ``operator.index``, so a float order is a
    TypeError; the cache keeps argument types apart, so a float is never
    answered by a rule cached for an equal integer.
    """
    order = operator.index(order)
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
