"""Closed forms the benchmark checks scatterpoly against.

Nothing here imports scatterpoly.  The basis is written from the factored
form of docs/math_notes.md section 2,

    phi^(p,q)(r, theta) = c (1 - r^2) r^m P_nu^(1,m)(2 r^2 - 1) e^(i n theta),
    c = (-1)^(q+1) max{p,q} / q,  m = |p-q|,  nu = min{p,q} - 1,  n = q - p,

with the Jacobi polynomial from its own three-term recurrence, and the
exact polynomials from the binomial sum of section 1.  Targets accept
plain floats (a few microseconds per call, so sampling cost stays the
program's) and numpy arrays that broadcast against each other.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

import numpy as np


def prefactor(p: int, q: int) -> float:
    return (-1) ** (q + 1) * max(p, q) / q


def norm_sq(p: int, q: int) -> float:
    """Squared weighted norm pi p / (q (p + q)) (math_notes section 3.2)."""
    return math.pi * p / (q * (p + q))


def _recurrence(nu: int, beta: int) -> list[tuple[float, float, float]]:
    """(A_k, B_k, C_k) with P_k = (A_k x + B_k) P_(k-1) - C_k P_(k-2), alpha = 1."""
    steps = []
    for k in range(2, nu + 1):
        s = 2 * k + 1 + beta
        den = 2 * k * (k + 1 + beta) * (s - 2)
        steps.append(
            (
                (s - 1) * s * (s - 2) / den,
                (s - 1) * (1 - beta * beta) / den,
                2 * k * (k + beta - 1) * s / den,
            )
        )
    return steps


class DiskSum:
    """sum_j a_j phi^(p_j, q_j) as a callable f(r, theta).

    Scalars in give a complex out; arrays broadcast and give an array.
    ``harness_target`` lets the tracer tell these apart from the
    program's own functions.
    """

    harness_target = True

    def __init__(self, coefficients: dict[tuple[int, int], complex]):
        self.coefficients = dict(coefficients)
        self._terms = []
        for (p, q), a in sorted(self.coefficients.items()):
            m, nu = abs(p - q), min(p, q) - 1
            self._terms.append(
                (a * prefactor(p, q), m, nu, q - p, 0.5 * (m + 3), _recurrence(nu, m))
            )

    def __call__(self, r, theta):
        if isinstance(r, np.ndarray) or isinstance(theta, np.ndarray):
            return self._array(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
        x = 2.0 * r * r - 1.0
        rim = 1.0 - r * r
        total = 0j
        for scale, m, nu, n, p1, steps in self._terms:
            prev, curr = 1.0, 1.0
            if nu:
                curr = 2.0 + p1 * (x - 1.0)
                for a, b, c in steps:
                    prev, curr = curr, (a * x + b) * curr - c * prev
            total += scale * rim * r**m * curr * cmath.exp(1j * n * theta)
        return total

    def _array(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        x = 2.0 * r * r - 1.0
        rim = 1.0 - r * r
        total = np.zeros(np.broadcast_shapes(r.shape, theta.shape), dtype=complex)
        for scale, m, nu, n, p1, steps in self._terms:
            prev, curr = np.ones_like(x), np.ones_like(x)
            if nu:
                curr = 2.0 + p1 * (x - 1.0)
                for a, b, c in steps:
                    prev, curr = curr, (a * x + b) * curr - c * prev
            total = total + scale * rim * r**m * curr * np.exp(1j * n * theta)
        return total

    def solved(self) -> "DiskSum":
        """The solution of -L u = self: each a_j divided by p_j q_j."""
        return DiskSum({(p, q): a / (p * q) for (p, q), a in self.coefficients.items()})


def phi(p: int, q: int) -> DiskSum:
    return DiskSum({(p, q): 1.0})


#: (1 - r^2)^2, the CLI's builtin:radial_bump, is (2/3) phi^(1,1) + (1/3) phi^(2,2):
#: phi^(1,1) = 1 - r^2 and phi^(2,2) = (1 - r^2)(1 - 3 r^2).
RADIAL_BUMP = DiskSum({(1, 1): 2.0 / 3.0, (2, 2): 1.0 / 3.0})


def random_disk_sum(rng, max_sum: int) -> DiskSum:
    """A seeded in-span target with one term per Jacobi degree nu = 0, 1, 2.

    The seed picks each term's m, the sign of q - p and the coefficient;
    fixing the degrees fixes the cost of a call, whatever the seed.
    Needs max_sum >= 6.
    """
    coefficients = {}
    for nu in (0, 1, 2):
        m = rng.randint(0, max_sum - 2 * nu - 2)
        p, q = (nu + 1, nu + 1 + m) if rng.random() < 0.5 else (nu + 1 + m, nu + 1)
        coefficients[(p, q)] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return DiskSum(coefficients)


def exact_phi(p: int, q: int) -> dict[tuple[int, int], Fraction]:
    """phi^(p,q) as {(a, b): coefficient of z^a zbar^b}, exactly (math_notes section 1)."""
    deg = p + q - 1
    inner = {}
    for k in range(max(p, q), deg + 1):
        num = (-1) ** (p + k) * math.comb(deg, k) * math.factorial(k) ** 2
        den = q * math.factorial(deg) * math.factorial(k - p) * math.factorial(k - q)
        inner[(k - p, k - q)] = Fraction(num, den)
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in inner.items():
        out[(a, b)] = out.get((a, b), 0) + c
        out[(a + 1, b + 1)] = out.get((a + 1, b + 1), 0) - c
    return {key: c for key, c in out.items() if c}


_TERM = re.compile(r"\((-?\d+)/(\d+),(-?\d+)/(\d+)\) z\^(\d+) zbar\^(\d+)")


def parse_poly_text(text: str) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """Parse the ``table`` command's canonical text into exact coefficients.

    Returns {(a, b): (re, im)}; raises ValueError on any text that is not
    a " + "-joined list of terms.
    """
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for part in text.split(" + "):
        match = _TERM.fullmatch(part)
        if not match:
            raise ValueError(f"unparsable term {part!r}")
        rn, rd, im_n, im_d, a, b = match.groups()
        out[(int(a), int(b))] = (Fraction(int(rn), int(rd)), Fraction(int(im_n), int(im_d)))
    return out


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def truncated_moment(m: int, n: int, eps: float) -> float:
    """Weighted integral of x^(2m) y^(2n) over r <= 1 - eps, in closed form.

    Angular part by Wallis; radial part, with t = r^2 and t1 = (1 - eps)^2,
    (1/2) integral_0^t1 t^s / (1 - t) dt = (1/2) (-ln(1 - t1) - sum_(k<=s) t1^k / k).
    """
    s = m + n
    angular = (
        2.0 * math.pi * _double_factorial(2 * m - 1) * _double_factorial(2 * n - 1)
        / _double_factorial(2 * s)
    )
    t1 = (1.0 - eps) ** 2
    radial = 0.5 * (-math.log(eps * (2.0 - eps)) - sum(t1**k / k for k in range(1, s + 1)))
    return angular * radial
