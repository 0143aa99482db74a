"""Orthogonal polynomial basis of the unit disk for the weight
1/(1 - x^2 - y^2): exact construction, verification, singular-weight
quadrature, spectral expansion, and a Dirichlet-compatible solve.

Import boundary: ``import scatterpoly`` loads no submodule.  Each public
name is resolved from the module that defines it on first access
(PEP 562), and that module is imported then.  The exact layer
(``poly_algebra`` and the construction half of ``scattering``) and the
command line front end run without numpy; numpy comes in with the float
layers ``jacobi``, ``quadrature`` and ``transform``, so ``table``,
``--help``, usage errors and size-limit exits never import it.  The
boundary holds the other way too: the float layers import ``poly_algebra``
and ``fractions`` only inside the exact functions that use them, so the
float commands (``eval``, ``expand``, ``solve``, ``gram``, ``moments``)
never load the exact layer, nor do the float routes on members with
p + q <= 128, whose check values come from the package's table.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every public name, once, under the module that defines it.
_EXPORTS = {
    "poly_algebra": (
        "BOUNDARY_FACTOR",
        "ONE",
        "Z",
        "ZBAR",
        "BivariatePoly",
        "ComplexRational",
        "NotDivisibleError",
    ),
    "jacobi": (
        "ConvergenceError",
        "JacobiParams",
        "QuadratureRule",
        "gauss_legendre",
        "jacobi_eval",
        "jacobi_norm_sq",
        "quasipolynomial_q",
    ),
    "scattering": (
        "PQIndex",
        "RadialForm",
        "SignValidationError",
        "apply_modified_laplacian",
        "basis_indices",
        "eigencheck",
        "eigenspace_indices",
        "jacobi_form",
        "norm_sq",
        "radial_sum",
        "rodrigues",
    ),
    "quadrature": (
        "GramMatrix",
        "MomentEstimate",
        "gram",
        "inner_product_basis",
        "inner_product_function",
        "inner_product_poly",
        "moment_ladder",
        "moment_slope",
        "truncated_moment",
    ),
    "transform": (
        "ExpansionTable",
        "GridSample",
        "basis_function",
        "boundary_value_check",
        "expand",
        "expansion_residual",
        "polar_grid",
        "reconstruct",
        "solve_exact",
        "solve_weighted_poisson",
        "synthesize_exact",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not cached: the name always reads the defining module's current object
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
