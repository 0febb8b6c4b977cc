"""Key rates for photon-subtracted two-mode squeezed coherent states.

Asymptotic secret key rates for measurement-device-independent CV-QKD
where Alice's source is a displaced two-mode squeezed state with k photons
subtracted from the transmitted mode. Closed-form phase-space moments feed
a Gaussian key-rate pipeline; a truncated Fock-space oracle independently
validates every closed form.
"""

from .channel import ChannelParams, NoiseBreakdown, breakdown
from .errors import (
    NonFiniteError,
    NoSecureRegionError,
    PsqkdError,
    TargetUnreachableError,
    TruncationError,
    UnphysicalStateError,
    ZeroProbabilityError,
)
from .keyrate import KeyRateResult, channel_stage, entropy_G, secret_key_rate
from .phase_space import SqueezedSourceParams, TwoModeCM, scaled_laguerre, source_stage
from .sweep import max_secure_distance, optimize_scalar, resolve_family

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "NoiseBreakdown",
    "breakdown",
    "NonFiniteError",
    "NoSecureRegionError",
    "PsqkdError",
    "TargetUnreachableError",
    "TruncationError",
    "UnphysicalStateError",
    "ZeroProbabilityError",
    "KeyRateResult",
    "channel_stage",
    "entropy_G",
    "secret_key_rate",
    "TwoModeCM",
    "source_stage",
    "SqueezedSourceParams",
    "scaled_laguerre",
    "max_secure_distance",
    "optimize_scalar",
    "resolve_family",
    "__version__",
]
