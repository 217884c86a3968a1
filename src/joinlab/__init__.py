"""Exact computations with joinings of finite measure-preserving systems.

Everything is rational arithmetic end to end: measures, Markov operator
kernels, linear programs over joining polytopes, cocycle statistics.  No
floats enter or leave any public interface.

The public names are listed once, in ``_EXPORTS`` by defining module, and
each is imported on first access (PEP 562): ``import joinlab`` loads no
submodule, so a command line run loads only the modules its subcommand
calls.
"""

_EXPORTS = {
    "errors": (
        "InvalidInputError", "JoinlabError", "JoinlabInternalError",
        "PreconditionError", "ResourceLimitError",
    ),
    "joinings": (
        "EquivariantField", "JoiningTensor", "ProductMeasure",
        "diagonal_invariance_defect", "disintegrate", "equivariance_defect",
        "face_independence_defect", "has_standard_projections",
        "joining_from_operator", "marginal", "operator_from_joining",
        "product_convergence_trace", "product_joining", "push_by_automorphisms",
        "push_joining", "reassemble", "sup_distance",
    ),
    "mixing": (
        "correlation", "fiber_projection", "mixed_set_correlation",
        "mixing_deviation_sweep_detail", "offset_joining",
        "relative_mixing_deviation",
    ),
    "operators": (
        "ClosureProbe", "MarkovOperator", "affine_combination",
        "averaging_operator", "compose_operators", "dist_w", "identity_operator",
        "koopman", "operator_power", "weak_closure_probe",
    ),
    "polytope": (
        "LpOutcome", "PolytopeSpec", "TrivialityCertificate",
        "certify_triviality", "optimize",
    ),
    "rationals": ("as_fraction", "format_rational", "parse_rational"),
    "simplex": ("LpSolution", "RationalSimplex"),
    "skew": (
        "RigiditySequence", "SkewProduct", "as_automorphism",
        "coboundary_extension", "cocycle_product", "is_ergodic", "power_skew",
        "relative_mixing_fraction", "relative_product",
        "relative_weak_mixing_average", "rigidity_statistic",
        "sample_random_extension",
    ),
    "spaces": (
        "ActionGenerators", "Automorphism", "FiniteSpace", "MeasurableSet",
        "compose", "halmos_distance", "orbit_count", "product_space",
    ),
    "torus": (
        "Z2kContext", "character_coefficient", "fourier_joining", "full_action",
        "permutation_automorphism", "shift_automorphism", "triple_sum_joining",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
