"""Shared fixtures-in-spirit: seeded generators and exact oracles."""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction

from scatterpoly.poly_algebra import BivariatePoly, ComplexRational
from scatterpoly.scattering import PQIndex, radial_sum


def random_poly(
    rng: random.Random,
    max_terms: int = 6,
    max_exponent: int = 4,
    max_numerator: int = 5,
) -> BivariatePoly:
    """Small random polynomial with exact rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = rng.randint(0, max_exponent)
        b = rng.randint(0, max_exponent)
        coeff = ComplexRational(
            Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, 3)),
            Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, 3)),
        )
        terms[(a, b)] = coeff
    return BivariatePoly(terms)


def random_point(rng: random.Random, radius: float = 0.95) -> complex:
    """Uniformish point inside the disk of the given radius."""
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def exact_norm_fraction(idx: PQIndex) -> Fraction:
    """The closed-form squared norm as a multiple of pi."""
    return Fraction(idx.p, idx.q * (idx.p + idx.q))


def radial_profile(poly: BivariatePoly) -> tuple[int, dict[int, Fraction]]:
    """Collapse a pure-frequency, real-coefficient polynomial to radial form.

    Monomial z^a zbar^b adds its coefficient at r^(a+b); returns
    (n, {power: coefficient}) with n = a - b, or raises ValueError when
    frequencies differ or a coefficient is not real.
    """
    freq = None
    profile: dict[int, Fraction] = defaultdict(Fraction)
    for (a, b), c in sorted(poly.terms.items()):
        if c.im != 0:
            raise ValueError("radial profile requires real coefficients")
        if freq is None:
            freq = a - b
        elif a - b != freq:
            raise ValueError("polynomial mixes angular frequencies")
        profile[a + b] += c.re
    return (0 if freq is None else freq), dict(profile)


def profile_value(profile: dict[int, Fraction], r: Fraction) -> Fraction:
    """Exact value of a radial profile at a rational radius."""
    return sum((c * r**k for k, c in sorted(profile.items())), Fraction(0))


def ring_exact_sum(table, divisor) -> BivariatePoly:
    """Reference for the exact synthesis: the sum of c / divisor(idx) *
    radial_sum(idx) over the table, one general-ring addition per member."""
    total = BivariatePoly.zero()
    for idx, c in table.items():
        k = divisor(idx)
        scalar = ComplexRational(Fraction(c.real) / k, Fraction(c.imag) / k)
        total = total + radial_sum(idx) * scalar
    return total


def scalar_jacobi_table(m: int, max_degree: int, x):
    """Reference P_nu^(1,m)(x), nu = 0 .. max_degree, for one m at a time.

    The three-term recurrence with Python-integer coefficients, written
    out independently of :func:`scatterpoly.jacobi.jacobi_table`; the
    package's batched pass must reproduce it bit for bit.
    """
    import numpy as np

    a, b = 1, m
    xv = np.asarray(x, dtype=float)
    out = np.empty(xv.shape + (max_degree + 1,))
    prev = np.ones_like(xv)
    out[..., 0] = prev
    if max_degree == 0:
        return out
    curr = (a + 1) + (a + b + 2) * (xv - 1.0) / 2.0
    out[..., 1] = curr
    for k in range(2, max_degree + 1):
        s = 2 * k + a + b
        c_norm = 2 * k * (k + a + b) * (s - 2)
        c_x = (s - 1) * s * (s - 2)
        c_const = (s - 1) * (a * a - b * b)
        c_prev = 2 * (k + a - 1) * (k + b - 1) * s
        prev, curr = curr, ((c_const + c_x * xv) * curr - c_prev * prev) / c_norm
        out[..., k] = curr
    return out


def ix_gram(indices):
    """Reference for :func:`scatterpoly.quadrature.gram`: each mode block from
    kernels built per call, its upper triangle mirrored through ``np.tri`` and
    the block placed with ``np.ix_``, one mode at a time."""
    import math

    import numpy as np

    from scatterpoly.jacobi import gauss_legendre
    from scatterpoly.scattering import mode_kernels

    indices = tuple(indices)
    order = max(i.p + i.q for i in indices) + 2
    rule = gauss_legendre(order)
    weight = (math.pi / 2.0) * rule.weights * (1.0 - rule.nodes) / 2.0
    entries = np.zeros((len(indices), len(indices)))
    for _, positions, kernel in mode_kernels(indices, np.sqrt((1.0 + rule.nodes) / 2.0)):
        block = (kernel.T * weight) @ kernel
        np.copyto(block, block.T, where=np.tri(len(block), k=-1, dtype=bool))
        entries[np.ix_(positions, positions)] = block
    return entries
