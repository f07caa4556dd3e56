"""Operational-category verification toolkit.

Finite-dimensional quantum theory on one side, finite measurable spaces
with (signed) Markov kernels on the other, and the machinery to check the
translations between them: ontological-model validation, exact
anti-distinguishability decisions, the compression/exclusion pipeline for
product states, the discrete-Wigner functor with its functoriality and
monoidality properties, and quantum-measure validators.
"""

from .antidist import (
    AntidistCertificate,
    AntidistProblem,
    antidist_classical,
    antidist_quantum_check,
    compression_channel,
    pbr_demo,
    pbr_measurement,
)
from .errors import OntokitError
from .kernels import (
    TWO,
    UNIT_SPACE,
    Distribution,
    FiniteSpace,
    ResponseFunction,
    SignedKernel,
    dtensor,
    evaluate,
    kcompose,
    ktensor,
    variational_distance,
)
from .linalg import trace_norm
from .ontomodel import (
    FunctorFragment,
    OntModel,
    check_operational_model,
    classify_model,
    maximal_predicates,
    validate_model,
)
from .qmeasure import (
    DecoherenceFunctional,
    QuantumMeasure,
    measure_from_decoherence,
    validate_decoherence,
    validate_quantum_measure,
)
from .quantum import (
    Channel,
    DensityMatrix,
    ProjectiveMeasurement,
    TwoOutcomeMeasurement,
    apply_channel,
    born,
    compose,
    measurement_channel,
    overlap,
    preparation_channel,
    tensor,
)
from .sampling import rng_for
from .wigner import (
    Algebra,
    WignerFrame,
    commutative_algebra,
    epistemic_report,
    functor_morphism,
    matrix_algebra,
    monoidality_check,
    phase_point_operators,
    transfer_matrix,
    wigner_vector,
)

__version__ = "0.1.0"
