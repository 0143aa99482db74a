"""Acceptance battery: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines
alongside the pytest verdicts.  Every tolerance here is a release gate, not
a unit-test convenience; do not loosen them to make a change land.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np

from scatterpoly.jacobi import JacobiParams, gauss_legendre, jacobi_eval, quasipolynomial_q
from scatterpoly.poly_algebra import NotDivisibleError
from scatterpoly.quadrature import (
    gram,
    inner_product_basis,
    inner_product_poly_exact,
    moment_ladder,
    moment_slope,
)
from scatterpoly.scattering import (
    PQIndex,
    apply_modified_laplacian,
    basis_indices,
    eigencheck,
    eigenspace_indices,
    jacobi_form,
    norm_sq,
    radial_sum,
    resolved_sign,
    rodrigues,
    sign_resolution,
)
from scatterpoly.transform import (
    ExpansionTable,
    basis_function,
    boundary_value_check,
    expand,
    expansion_residual,
    polar_grid,
    reconstruct,
    solve_exact,
    solve_weighted_poisson,
    synthesize_exact,
)

from helpers import profile_value, radial_profile

# number of positive divisors of k, k = 1..30
DIVISOR_COUNTS = [
    1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6, 2, 4, 4, 5, 2, 6, 2, 6,
    4, 4, 2, 8, 3, 4, 4, 6, 2, 8,
]


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    return ok


def random_table(seed: int, truncation: int) -> ExpansionTable:
    rng = random.Random(seed)
    coefficients = {
        idx: complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for idx in basis_indices(truncation)
    }
    return ExpansionTable(coefficients=coefficients, truncation=truncation)


def test_01_route_equivalence():
    indices = basis_indices(16)
    start = time.perf_counter()
    mismatched = [idx for idx in indices if rodrigues(idx) != radial_sum(idx)]
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 30.0
    assert report(
        1,
        "route equivalence, differential vs explicit sum",
        ok,
        f"{len(indices)} indices exact-equal, {elapsed:.2f}s < 30s",
    )


def test_02_eigenrelation_and_multiplicities():
    indices = basis_indices(16)
    eigen_bad = [idx for idx in indices if not eigencheck(idx)]
    count_bad = [
        k
        for k, expected in enumerate(DIVISOR_COUNTS, start=1)
        if len(eigenspace_indices(k)) != expected
    ]
    ok = not eigen_bad and not count_bad
    assert report(
        2,
        "eigenrelation and eigenspace multiplicities",
        ok,
        f"{len(indices)} indices exact, divisor counts match for k <= 30",
    )


def test_03_factored_route_sign_resolution():
    indices = basis_indices(16)
    worst = 0.0
    disagreements = 0
    for idx in indices:
        _, profile = radial_profile(rodrigues(idx))
        form = jacobi_form(idx)
        rng = random.Random(7919 * idx.p + 104729 * idx.q)
        exact_values = []
        points = []
        for _ in range(50):
            r = Fraction(rng.randrange(1, 1024), 1024)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            exact_values.append(
                float(profile_value(profile, r))
                * cmath.exp(1j * form.angular_frequency * theta)
            )
            points.append((float(r), theta))
        scale = max(1.0, max(abs(v) for v in exact_values))
        for (r, theta), target in zip(points, exact_values):
            worst = max(worst, abs(form.value(r, theta) - target) / scale)
        entry = sign_resolution(idx)
        assert entry["resolved_sign"] == resolved_sign(idx)
        if not entry["agrees"]:
            disagreements += 1
        # the resolved sign disagrees with the printed rule exactly when
        # max{p, q} is even
        assert entry["agrees"] == (max(idx.p, idx.q) % 2 == 1)
    ok = worst <= 1e-12 and disagreements > 0
    assert report(
        3,
        "factored route with resolved sign",
        ok,
        f"max scaled deviation {worst:.2e} over {len(indices)}x50 points; "
        f"{disagreements} indices contradict the printed sign rule",
    )


def test_04_gram_orthogonality():
    indices = basis_indices(12)
    assert len(indices) == 66
    start = time.perf_counter()
    matrix = gram(indices)
    elapsed = time.perf_counter() - start
    off_diag = matrix.max_off_diagonal()
    diag_err = max(
        abs(matrix.entries[i, i].real - norm_sq(idx)) / norm_sq(idx)
        for i, idx in enumerate(matrix.indices)
    )
    ok = off_diag < 1e-11 and diag_err < 1e-12 and elapsed < 60.0
    assert report(
        4,
        "orthogonality of the 66-function basis",
        ok,
        f"max off-diagonal {off_diag:.2e}, diagonal rel err {diag_err:.2e}, "
        f"{elapsed:.2f}s < 60s",
    )


def test_05_norm_closed_form_gate():
    worst_rel = 0.0
    exact_bad = []
    for idx in basis_indices(12):
        re, im = inner_product_poly_exact(rodrigues(idx), rodrigues(idx))
        if im != 0 or re != Fraction(idx.p, idx.q * (idx.p + idx.q)):
            exact_bad.append(idx)
        numeric = inner_product_basis(idx, idx).real
        worst_rel = max(worst_rel, abs(numeric - norm_sq(idx)) / norm_sq(idx))
    ok = not exact_bad and worst_rel < 1e-12
    assert report(
        5,
        "norm closed form against independent oracles",
        ok,
        f"exact rational norms all match, quadrature rel err {worst_rel:.2e}",
    )


def test_06_boundary_vanishing():
    not_divisible = []
    for idx in basis_indices(16):
        try:
            rodrigues(idx).divide_by_boundary_factor()
        except NotDivisibleError:
            not_divisible.append(idx)
    numeric_worst = 0.0
    for seed in (1, 2, 3):
        table = random_table(seed, 8)
        numeric_worst = max(numeric_worst, boundary_value_check(table, 257))
    circle_worst = 0.0
    for idx in basis_indices(10):
        poly = rodrigues(idx)
        for k in range(16):
            z = cmath.exp(2j * math.pi * k / 16)
            circle_worst = max(circle_worst, abs(complex(poly.evaluate(z))))
    ok = not not_divisible and numeric_worst < 1e-12 and circle_worst < 1e-12
    assert report(
        6,
        "boundary vanishing",
        ok,
        f"120 indices exactly divisible; random-table rim max {numeric_worst:.2e}, "
        f"pointwise rim max {circle_worst:.2e}",
    )


def test_07_divergent_moments():
    slope = moment_slope(moment_ladder(0, 0))
    slope_ok = abs(slope - math.pi) <= 0.01 * math.pi
    monotone_ok = True
    for m in range(4):
        for n in range(4 - m):
            values = moment_ladder(m, n).values
            monotone_ok = monotone_ok and all(
                b > a for a, b in zip(values, values[1:])
            )
    ok = slope_ok and monotone_ok
    assert report(
        7,
        "divergent moment ladder",
        ok,
        f"(0,0) slope {slope:.6f} vs pi within 1%; all ladders with "
        f"m+n <= 3 strictly increasing",
    )


def test_08_quasipolynomial_orthogonality():
    worst = 0.0
    for m in range(9):
        for nu in range(13):
            for mu in range(nu + 1, 13):
                rule = gauss_legendre((1 + m + nu + mu) // 2 + 2)
                values = quasipolynomial_q(
                    JacobiParams(1, m, nu), rule.nodes
                ) * quasipolynomial_q(JacobiParams(1, m, mu), rule.nodes)
                worst = max(worst, abs(float(rule.weights @ values)))
    ok = worst < 1e-10
    assert report(
        8,
        "quasipolynomial orthogonality in plain L2",
        ok,
        f"max |integral| {worst:.2e} over m <= 8, nu != mu <= 12",
    )


def test_09_completeness_surrogate():
    targets = [
        ("radial gaussian", lambda r, t: complex((1 - r * r) * math.exp(-2 * r * r))),
        (
            "exponential of x",
            lambda r, t: complex((1 - r * r) * math.exp(r * math.cos(t))),
        ),
        (
            "sine of 3x",
            lambda r, t: complex((1 - r * r) * math.sin(3 * r * math.cos(t))),
        ),
        (
            "rotating gaussian",
            lambda r, t: (1 - r * r) * r * cmath.exp(1j * t) * math.exp(-r * r),
        ),
        ("rational bump", lambda r, t: complex((1 - r * r) / (2 - r * r))),
    ]
    decreasing = True
    details = []
    for name, f in targets:
        residuals = []
        for trunc in (6, 10, 14):
            table = expand(f, trunc)
            residuals.append(
                expansion_residual(f, table, radial_order=44, angular_points=128)
            )
        decreasing = decreasing and residuals[0] > residuals[1] > residuals[2]
        details.append(f"{name} {residuals[0]:.1e}>{residuals[1]:.1e}>{residuals[2]:.1e}")
    idx = PQIndex(2, 3)
    table = expand(basis_function(idx), 10)
    self_ok = abs(table.coefficient(idx) - 1.0) <= 1e-10 and all(
        abs(c) <= 1e-10 for other, c in table.items() if other != idx
    )
    ok = decreasing and self_ok
    assert report(
        9,
        "strictly decreasing residuals plus self-expansion",
        ok,
        "; ".join(details) + f"; unit coefficient err {abs(table.coefficient(idx) - 1):.1e}",
    )


def test_10_spectral_solve():
    exact_ok = True
    for seed in (11, 12):
        f_table = random_table(seed, 6)
        u = solve_exact(f_table)
        residual = apply_modified_laplacian(u) + synthesize_exact(f_table)
        exact_ok = exact_ok and residual.is_zero()

    f = lambda r, t: 3.0 * basis_function(PQIndex(1, 2))(r, t) + basis_function(
        PQIndex(2, 2)
    )(r, t)
    u_table = solve_weighted_poisson(f, 8)
    r, theta = polar_grid(24, 48)
    got = reconstruct(u_table, r, theta).values
    expected = np.array(
        [
            [
                3.0 / 2.0 * basis_function(PQIndex(1, 2))(ri, tj)
                + 1.0 / 4.0 * basis_function(PQIndex(2, 2))(ri, tj)
                for tj in theta
            ]
            for ri in r
        ],
        dtype=complex,
    )
    grid_worst = float(np.max(np.abs(got - expected)))
    ok = exact_ok and grid_worst < 1e-9
    assert report(
        10,
        "diagonal solve, exact residual and numeric grid",
        ok,
        f"exact residual identically zero; grid deviation {grid_worst:.2e}",
    )
