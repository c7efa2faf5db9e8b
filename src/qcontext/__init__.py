"""Quantum-like amplitude and operator representations of finite contextual
probability models.

The package takes a finite probability space with exact rational weights plus
two incompatible dichotomous random variables and provides: the disturbance
decomposition of contextual total probability with exact trigonometric /
hyperbolic classification, complex amplitudes for trigonometric contexts with
Born's rule in one or both bases, Hermitian 2x2 operator representations with
their commutator and spectral calculus, and a deterministic report CLI.

Importing the package loads none of its modules: each exported name loads
the module that defines it on first use, so a CLI start compiles only the
layers its subcommand runs.
"""

import importlib as _importlib

# Each exported name and the module that defines it; a module's own name
# stands for the module.
_MODULE_OF = {
    name: module
    for module, names in {
        "errors": (
            "DegenerateRadicalError", "DuplicatePointError", "FloatRangeError",
            "ForeignPointError", "MalformedDocumentError", "ModelError",
            "NotAContextError", "NotDoubleStochasticError",
            "NotTrigonometricError", "PartialAssignmentError",
            "QOutOfRangeError", "SingularBasisError", "WeightSumNotOneError",
            "ZeroConditionError",
        ),
        "interference": (
            "Classification", "ContextAnalysis", "DisturbanceReport",
            "LambdaCoefficient", "analyze_context", "classify", "delta",
            "delta_outcome_sum", "lambda_coefficient", "pairwise_delta",
            "reconstruct_total_probability",
        ),
        "hilbert": (
            "BasisPair", "ContextAtlas", "StateVector", "TransitionMatrix",
            "amplitude", "context_basis", "dual_inner_products", "image_set",
            "is_double_stochastic", "mappable_contexts", "nonsensitive_contexts",
            "phase_gap", "transition_matrix",
        ),
        "model_io": (
            "ModelSpec", "SweepResult", "SweepRow", "emit_report", "kq_model",
            "parse_model", "serialize_model", "sweep",
        ),
        "operators": (
            "CompositeObservable", "DispersionFreeReport", "HermitianOperator",
            "MismatchReport", "SpectralDecomposition", "a_operator",
            "b_operator", "commutator", "dispersion_free_search",
            "distribution_mismatch", "hamiltonian_observable",
            "mean_preservation_gap", "quantum_mean", "spectral_decomposition",
            "symmetrized_product",
        ),
        "prob": (
            "CoverOverlapReport", "DichotomousVariable", "Event",
            "FiniteProbabilitySpace", "Partition", "conditional", "contexts_of",
            "cover_overlap_report", "is_context", "probability",
            "variables_incompatible",
        ),
        "verify": (
            "CheckResult", "born_in_a_basis_check", "cell_duality_check",
            "phase_gap_constancy_check", "run_checks", "unitarity_check",
        ),
    }.items()
    for name in (module, *names)
}

# Sorted, with the check suite's names last.
_SUITE = ["CheckResult", "run_checks", "verify"]
__all__ = sorted(_MODULE_OF.keys() - _SUITE) + _SUITE


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
