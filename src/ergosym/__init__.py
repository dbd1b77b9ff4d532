"""Ergodic averaging in fully symmetric spaces of measurable functions.

Atomic measure spaces, decreasing rearrangements and Hardy-Littlewood
majorization, the symmetric norms built on them, positive Dunford-Schwartz
contractions, streaming Cesaro / weighted / twisted averaging, return-time
product averages, and a constructive divergence certificate for averages
sampled along lacunary times.
"""

from .averaging import (
    AveragingReport,
    cesaro,
    geometric_checkpoints,
    majorization_trace,
    weighted,
)
from .divergence import (
    DivergenceCertificate,
    StageCheck,
    VerificationResult,
    construct_certificate,
    direct_averages,
    probe_points,
    verify_certificate,
)
from .errors import (
    BudgetError,
    CapabilityError,
    ConsistencyError,
    ErgosymError,
    InputError,
    NumericError,
    WindowError,
)
from .operators import (
    CompositionOperator,
    DSReport,
    KernelOperator,
    adjoint,
    adjoint_modulus_commutation,
    apply,
    ds_certificate,
    linear_modulus,
    pairing,
    signed_shift_operator,
)
from .return_times import (
    PointSystem,
    ProductAverageReport,
    SweepResult,
    product_average,
    rotation_closed_form,
    rotation_q,
    wiener_wintner_sweep,
)
from .spaces import (
    AtomicMeasureSpace,
    LorentzWeight,
    MajorizationResult,
    MeasurableFunction,
    OrliczFunction,
    Rearrangement,
    lorentz_norm,
    luxemburg_norm,
    majorizes,
    norm,
    rearrangement,
)
from .weights import (
    TrigPolynomial,
    TrigTerm,
    WeightSequence,
    besicovitch_deviation,
    dft_interpolant,
    unit_powers_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasureSpace",
    "AveragingReport",
    "BudgetError",
    "CapabilityError",
    "CompositionOperator",
    "ConsistencyError",
    "DivergenceCertificate",
    "DSReport",
    "ErgosymError",
    "InputError",
    "KernelOperator",
    "LorentzWeight",
    "MajorizationResult",
    "MeasurableFunction",
    "NumericError",
    "OrliczFunction",
    "PointSystem",
    "ProductAverageReport",
    "Rearrangement",
    "StageCheck",
    "SweepResult",
    "TrigPolynomial",
    "TrigTerm",
    "VerificationResult",
    "WeightSequence",
    "WindowError",
    "adjoint",
    "adjoint_modulus_commutation",
    "apply",
    "besicovitch_deviation",
    "cesaro",
    "construct_certificate",
    "dft_interpolant",
    "direct_averages",
    "ds_certificate",
    "geometric_checkpoints",
    "linear_modulus",
    "lorentz_norm",
    "luxemburg_norm",
    "majorization_trace",
    "majorizes",
    "norm",
    "pairing",
    "probe_points",
    "product_average",
    "rearrangement",
    "rotation_closed_form",
    "rotation_q",
    "signed_shift_operator",
    "unit_powers_matrix",
    "verify_certificate",
    "weighted",
    "wiener_wintner_sweep",
]
