"""Quantum-like amplitude and operator representations of finite contextual
probability models.

The package takes a finite probability space with exact rational weights plus
two incompatible dichotomous random variables and provides: the disturbance
decomposition of contextual total probability with exact trigonometric /
hyperbolic classification, complex amplitudes for trigonometric contexts with
Born's rule in one or both bases, Hermitian 2x2 operator representations with
their commutator and spectral calculus, and a deterministic report CLI.
"""

import importlib as _importlib

from .errors import (
    DegenerateRadicalError,
    DuplicatePointError,
    FloatRangeError,
    ForeignPointError,
    MalformedDocumentError,
    ModelError,
    NotAContextError,
    NotDoubleStochasticError,
    NotTrigonometricError,
    PartialAssignmentError,
    QOutOfRangeError,
    SingularBasisError,
    WeightSumNotOneError,
    ZeroConditionError,
)
from .interference import (
    Classification,
    ContextAnalysis,
    DisturbanceReport,
    LambdaCoefficient,
    analyze_context,
    classify,
    delta,
    delta_outcome_sum,
    lambda_coefficient,
    pairwise_delta,
    reconstruct_total_probability,
)
from .hilbert import (
    BasisPair,
    ContextAtlas,
    SignConvention,
    StateVector,
    TransitionMatrix,
    a_basis,
    amplitude,
    born_in_a_basis_check,
    cell_duality_check,
    context_basis,
    dual_inner_products,
    extend_to_cells,
    image_set,
    is_double_stochastic,
    mappable_contexts,
    nonsensitive_contexts,
    phase_gap,
    phase_gap_constancy_check,
    transition_matrix,
    unitarity_check,
)
from .model_io import (
    ModelSpec,
    SweepResult,
    SweepRow,
    emit_report,
    kq_model,
    parse_model,
    serialize_model,
    sweep,
)
from .operators import (
    CompositeObservable,
    DispersionFreeReport,
    HermitianOperator,
    MismatchReport,
    SpectralDecomposition,
    a_operator,
    b_operator,
    classical_distribution,
    classical_mean,
    commutator,
    conditional_variance,
    dispersion,
    dispersion_free_search,
    distribution_mismatch,
    hamiltonian,
    hamiltonian_observable,
    mean_preservation_gap,
    observable_distribution,
    quantum_mean,
    spectral_decomposition,
    symmetrized_product,
    to_operator,
)
from .prob import (
    CoverOverlapReport,
    DichotomousVariable,
    Event,
    FiniteProbabilitySpace,
    Partition,
    conditional,
    contexts_of,
    cover_overlap_report,
    is_context,
    probability,
    variables_incompatible,
)

# The check suite loads on first use, so that a CLI start that runs no
# checks does not compile it.
_LAZY = ("CheckResult", "run_checks", "verify")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        verify = _importlib.import_module(f"{__name__}.verify")
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
