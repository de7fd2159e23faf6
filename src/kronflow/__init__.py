"""kronflow: exact algebraic invariants of linear torus flows, truncated to
desk scale, plus the numerics that witness their dynamical consequences.

The float numerics live in ``kronflow.dynamics``, whose float paths load
numpy and mpmath; its names below resolve on first use, so ``import
kronflow`` does not load it.
"""

from .errors import KronError, UnsupportedStructureError, ValidationError
from .exact_linalg import (
    IntVecFin,
    RowFiniteIntMatrix,
    format_rational,
    gcd_of_vector,
    integer_kernel,
    parse_rational,
    rational_gcd,
)
from .frequency import (
    DEFAULT_DEPTH,
    UNIT,
    BoRule,
    FrequencyVector,
    Generator,
    RationalSequenceSpec,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    build_product_vector,
    clamp_depth,
    finite_vector,
    parse_frequency_spec,
    pi_power_generator,
    rational_vector,
    sqrt_prime_generator,
)
from .classification import (
    BaerType,
    ModuleDescriptor,
    SupernaturalNumber,
    baer_isomorphic,
    baer_to_qa,
    classification_report,
    decompose_module,
    free_baer_type,
    is_free,
    qa_to_baer,
)
from .resonance_reduction import (
    FlowReduction,
    ReductionCertificate,
    ResonanceBasis,
    apply_automorphism,
    reduce_flow,
    reduce_vector,
    resonance_basis,
)
from .solenoid_geometry import (
    GeometricWeights,
    SolenoidCoords,
    TorusPoint,
    is_member,
    local_chart,
    product_metric,
    times_and_target,
    to_coordinates,
)
from .benjamin_ono import (
    BoModuleReport,
    bo_tail_module,
)

__version__ = "0.1.0"

_DYNAMICS_EXPORTS = frozenset({
    "TrigPolynomial",
    "equidistribution_report",
    "flow",
    "haar_average",
    "minimality_probe",
    "time_average",
})


def __getattr__(name: str):
    if name in _DYNAMICS_EXPORTS:
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
