"""Key rates for photon-subtracted two-mode squeezed coherent states.

Asymptotic secret key rates for measurement-device-independent CV-QKD
where Alice's source is a displaced two-mode squeezed state with k photons
subtracted from the transmitted mode. Closed-form phase-space moments feed
a Gaussian key-rate pipeline; a truncated Fock-space oracle independently
validates every closed form.
"""

from .channel import (
    ChannelParams,
    NoiseBreakdown,
    gain,
    link_transmittances,
    noise_breakdown,
    thermal_excess,
    transmittance,
)
from .errors import (
    NonFiniteError,
    NoSecureRegionError,
    PsqkdError,
    TargetUnreachableError,
    TruncationError,
    UnphysicalStateError,
    ZeroProbabilityError,
)
from .keyrate import (
    KeyRateResult,
    conditional_cm_after_heterodyne,
    effective_cm,
    entropy_G,
    holevo_bound,
    mutual_information,
    secret_key_rate,
    symplectic_eigenvalues,
)
from .moments import (
    TwoModeCM,
    low_order_moment,
    pstmsc_covariance,
    subtraction_probability,
)
from .phase_space import SqueezedSourceParams, scaled_laguerre
from .sweep import (
    SweepRow,
    SweepSpec,
    max_secure_distance,
    optimize_scalar,
    resolve_family,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "NoiseBreakdown",
    "gain",
    "link_transmittances",
    "noise_breakdown",
    "thermal_excess",
    "transmittance",
    "NonFiniteError",
    "NoSecureRegionError",
    "PsqkdError",
    "TargetUnreachableError",
    "TruncationError",
    "UnphysicalStateError",
    "ZeroProbabilityError",
    "KeyRateResult",
    "conditional_cm_after_heterodyne",
    "effective_cm",
    "entropy_G",
    "holevo_bound",
    "mutual_information",
    "secret_key_rate",
    "symplectic_eigenvalues",
    "TwoModeCM",
    "low_order_moment",
    "pstmsc_covariance",
    "subtraction_probability",
    "SqueezedSourceParams",
    "scaled_laguerre",
    "SweepRow",
    "SweepSpec",
    "max_secure_distance",
    "optimize_scalar",
    "resolve_family",
    "run_sweep",
    "__version__",
]
