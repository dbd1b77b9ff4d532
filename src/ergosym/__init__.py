"""Ergodic averaging in fully symmetric spaces of measurable functions.

Atomic measure spaces, decreasing rearrangements and Hardy-Littlewood
majorization, the symmetric norms built on them, positive Dunford-Schwartz
contractions, streaming Cesaro / weighted / twisted averaging, return-time
product averages, and a constructive divergence certificate for averages
sampled along lacunary times.
"""

import os as _os

# pin BLAS thread pools to ERGOSYM_THREADS (default 1) unless they are set
# already; single-threaded BLAS keeps runs bit-reproducible. Must happen
# before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _os.environ.get("ERGOSYM_THREADS", "1"))
del _os, _var

from .averaging import (
    AveragingReport,
    cesaro,
    geometric_checkpoints,
    majorization_trace,
    oscillation,
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
    TruncationWarning,
    WindowError,
)
from .operators import (
    CompositionOperator,
    DominationResult,
    DSReport,
    KernelOperator,
    adjoint,
    adjoint_modulus_commutation,
    apply,
    ds_certificate,
    linear_modulus,
    modulus_domination_check,
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
    decompose,
    lorentz_norm,
    luxemburg_norm,
    majorizes,
    norm,
    r_mu_tail,
    rearrangement,
)
from .weights import (
    TrigPolynomial,
    TrigTerm,
    WeightSequence,
    besicovitch_deviation,
    dft_interpolant,
    limsup_deviation,
    unit_powers,
    unit_powers_matrix,
    validate_bound,
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
    "DominationResult",
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
    "TruncationWarning",
    "VerificationResult",
    "WeightSequence",
    "WindowError",
    "adjoint",
    "adjoint_modulus_commutation",
    "apply",
    "besicovitch_deviation",
    "cesaro",
    "construct_certificate",
    "decompose",
    "dft_interpolant",
    "direct_averages",
    "ds_certificate",
    "geometric_checkpoints",
    "limsup_deviation",
    "linear_modulus",
    "lorentz_norm",
    "luxemburg_norm",
    "majorization_trace",
    "majorizes",
    "modulus_domination_check",
    "norm",
    "oscillation",
    "pairing",
    "probe_points",
    "product_average",
    "r_mu_tail",
    "rearrangement",
    "rotation_closed_form",
    "rotation_q",
    "signed_shift_operator",
    "unit_powers",
    "unit_powers_matrix",
    "validate_bound",
    "verify_certificate",
    "weighted",
    "wiener_wintner_sweep",
]
