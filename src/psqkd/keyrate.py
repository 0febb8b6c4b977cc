"""Secret key rate under reverse reconciliation and collective attacks.

Pipeline: source covariance -> effective Alice-Bob covariance after the
equivalent one-way channel -> mutual information (homodyne readout on both
sides, conditioned through Bob's heterodyne-penalized variance) and Holevo
bound -> rate K = P_detect * (beta * I_AB - chi_BE), in bits per pulse.

All covariance matrices here have the diagonal-block sparsity of the
source states (zeros on every x-p cross term), so conditioning needs only
scalar divisions, never a general Schur complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, NoiseBreakdown, noise_breakdown
from .errors import NonFiniteError, UnphysicalStateError
from .moments import DEFAULT_SUBTRACTION_CAP, TwoModeCM, source_stage
from .phase_space import SqueezedSourceParams

__all__ = [
    "KeyRateResult",
    "effective_cm",
    "mutual_information",
    "symplectic_eigenvalues",
    "conditional_cm_after_heterodyne",
    "entropy_G",
    "holevo_bound",
    "secret_key_rate",
]

# eigenvalues below 1 + this are treated as numerically pure
_PURITY_EPS = 1e-9


@dataclass(frozen=True)
class KeyRateResult:
    """One key-rate evaluation with its diagnostic intermediates."""

    p_ps: float
    i_ab: float
    chi_be: float
    key_rate: float
    lambda1: float
    lambda2: float
    lambda3: float
    noise: NoiseBreakdown


def effective_cm(source_cm: TwoModeCM, noise: NoiseBreakdown) -> TwoModeCM:
    """Alice-Bob covariance after the equivalent one-way channel.

    Alice's block is untouched, correlations scale by sqrt(T), and Bob's
    block becomes T * (V_B + chi_tot). Means ride along for completeness
    (Bob's scaled by sqrt(T)); nothing downstream consumes them.
    """
    t, chi = noise.t, noise.chi_tot
    st = math.sqrt(t)
    return TwoModeCM(
        vax=source_cm.vax,
        vap=source_cm.vap,
        vbx=t * (source_cm.vbx + chi),
        vbp=t * (source_cm.vbp + chi),
        vcx=st * source_cm.vcx,
        vcp=st * source_cm.vcp,
        mean_x1=source_cm.mean_x1,
        mean_x2=st * source_cm.mean_x2,
    )


def conditional_cm_after_heterodyne(cm: TwoModeCM) -> tuple[float, float]:
    """Alice's variances conditioned on Bob's heterodyne outcome.

    The heterodyne vacuum unit shows up as the +1 in the denominator:
    V_{A|B} = V_A - V_C^2 / (V_B + 1), separately per quadrature.
    """
    vx = cm.vax - cm.vcx * cm.vcx / (cm.vbx + 1.0)
    vp = cm.vap - cm.vcp * cm.vcp / (cm.vbp + 1.0)
    if vx <= 0.0 or vp <= 0.0:
        raise UnphysicalStateError(
            f"non-positive conditional variance ({vx}, {vp}); CM is unphysical"
        )
    return vx, vp


def _mutual_information(cm: TwoModeCM, vx: float, vp: float) -> float:
    return 0.5 * (
        math.log2((cm.vax + 1.0) / (vx + 1.0))
        + math.log2((cm.vap + 1.0) / (vp + 1.0))
    )


def mutual_information(cm: TwoModeCM) -> float:
    """I_AB in bits for homodyne readouts of the effective state.

    Measured variances are (V+1)/2 (heterodyne-style vacuum penalty), so
    per quadrature I = log2[(V_A + 1) / (V_{A|B} + 1)] / 2.
    """
    return _mutual_information(cm, *conditional_cm_after_heterodyne(cm))


def symplectic_eigenvalues(cm: TwoModeCM) -> tuple[float, float]:
    """The two symplectic eigenvalues of a diagonal-block two-mode CM.

    Uses the invariant form lambda^2 = (Delta +/- sqrt(Delta^2 - 4 det)) / 2
    with Delta = det A + det B + 2 det C. Both are >= 1 iff the CM is
    physical.
    """
    det_a = cm.vax * cm.vap
    det_b = cm.vbx * cm.vbp
    det_c = cm.vcx * cm.vcp
    det_s = (cm.vax * cm.vbx - cm.vcx**2) * (cm.vap * cm.vbp - cm.vcp**2)
    delta = det_a + det_b + 2.0 * det_c
    # factored discriminant: algebraically equal to delta^2 - 4 det_s but
    # free of the near-total cancellation that form suffers when the two
    # eigenvalues nearly coincide (e.g. weakly squeezed pure states)
    disc = (det_a - det_b) ** 2 + 4.0 * (cm.vax * cm.vcp + cm.vbp * cm.vcx) * (
        cm.vap * cm.vcx + cm.vbx * cm.vcp
    )
    if disc < -1e-9:
        raise UnphysicalStateError(
            f"symplectic discriminant {disc} is negative beyond tolerance"
        )
    root = math.sqrt(max(disc, 0.0))
    lam1_sq = (delta + root) / 2.0
    lam1 = math.sqrt(max(lam1_sq, 0.0))
    # the smaller root via the product form: subtracting root from delta
    # cancels catastrophically for near-pure states
    lam2 = math.sqrt(max(det_s, 0.0) / lam1_sq) if lam1_sq > 0.0 else 0.0
    return lam1, lam2


def entropy_G(x: float) -> float:
    """Thermal-state von Neumann entropy (x + 1) log2(x + 1) - x log2 x.

    G(0) = 0 by continuity; tiny negative arguments from float noise are
    clamped to 0.

    >>> entropy_G(0.0)
    0.0
    >>> entropy_G(1.0)
    2.0
    """
    if x < -1e-12:
        raise ValueError(f"entropy argument must be >= 0, got {x}")
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _holevo_bound(lam1: float, lam2: float, lam3: float) -> float:
    if lam1 < 1.0 + _PURITY_EPS and lam2 < 1.0 + _PURITY_EPS:
        return 0.0
    return (
        entropy_G(max(0.0, (lam1 - 1.0) / 2.0))
        + entropy_G(max(0.0, (lam2 - 1.0) / 2.0))
        - entropy_G(max(0.0, (lam3 - 1.0) / 2.0))
    )


def holevo_bound(cm: TwoModeCM) -> float:
    """Eavesdropper information bound chi_BE for reverse reconciliation.

    chi_BE = G((l1-1)/2) + G((l2-1)/2) - G((l3-1)/2) with l1, l2 from the
    joint CM and l3 from Alice's heterodyne-conditioned block. A numerically
    pure joint state leaks nothing and short-circuits to 0; eigenvalue
    excursions below 1 are float noise and enter the G terms as 0.
    """
    lam1, lam2 = symplectic_eigenvalues(cm)
    vx, vp = conditional_cm_after_heterodyne(cm)
    return _holevo_bound(lam1, lam2, math.sqrt(vx * vp))


def _channel_stage(
    p_ps: float, cm: TwoModeCM, noise: NoiseBreakdown, beta: float
) -> KeyRateResult:
    """The channel half of the pipeline: the source stage's (p_ps, cm) sent
    through the equivalent one-way channel `noise`, with efficiency beta.

    Raises NonFiniteError when the arithmetic overflows or a reported value
    is not finite.
    """
    try:
        eff = effective_cm(cm, noise)
        vx, vp = conditional_cm_after_heterodyne(eff)
        lam1, lam2 = symplectic_eigenvalues(eff)
        lam3 = math.sqrt(vx * vp)
        i_ab = _mutual_information(eff, vx, vp)
        chi_be = _holevo_bound(lam1, lam2, lam3)
        key = p_ps * (beta * i_ab - chi_be)
        # named fields: vars(noise) would give the instance a dict of its own
        values = (
            key, i_ab, chi_be, lam1, lam2, lam3,
            noise.t_a, noise.t_b, noise.g, noise.t, noise.eps_th,
            noise.chi_line, noise.chi_homo, noise.chi_tot,
        )
        finite = all(map(math.isfinite, values))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError(
            f"channel stage overflows at T={noise.t:g}, chi_tot={noise.chi_tot:g}"
        )
    return KeyRateResult(
        p_ps=p_ps,
        i_ab=i_ab,
        chi_be=chi_be,
        key_rate=key,
        lambda1=lam1,
        lambda2=lam2,
        lambda3=lam3,
        noise=noise,
    )


def secret_key_rate(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    max_k: int = DEFAULT_SUBTRACTION_CAP,
) -> KeyRateResult:
    """Full pipeline for one configuration: the source stage, the channel
    reduction, then the channel stage.

    K = P_detect * (beta * I_AB - chi_BE); negative K (insecure regime) is
    returned as-is. channel.v_a should normally equal source.variance; the
    sweep and CLI layers keep the two in sync.

    Raises ZeroProbabilityError when the subtraction event cannot occur, and
    NonFiniteError when a stage overflows or yields a non-finite value.
    """
    p_ps, cm = source_stage(source, max_k)
    return _channel_stage(p_ps, cm, noise_breakdown(channel), channel.beta)
