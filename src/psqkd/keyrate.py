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
import operator
from dataclasses import dataclass

from .channel import ChannelParams, NoiseBreakdown, _breakdown_at
from .errors import NonFiniteError, UnphysicalStateError
from .moments import DEFAULT_SUBTRACTION_CAP, TwoModeCM, _source_stage
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


_variances = operator.attrgetter("vax", "vap", "vbx", "vbp", "vcx", "vcp")


def _effective(vax, vap, vbx, vbp, vcx, vcp, t, chi) -> tuple[float, ...]:
    st = math.sqrt(t)
    return vax, vap, t * (vbx + chi), t * (vbp + chi), st * vcx, st * vcp


def effective_cm(source_cm: TwoModeCM, noise: NoiseBreakdown) -> TwoModeCM:
    """Alice-Bob covariance after the equivalent one-way channel.

    Alice's block is untouched, correlations scale by sqrt(T), and Bob's
    block becomes T * (V_B + chi_tot). Means ride along for completeness
    (Bob's scaled by sqrt(T)); nothing downstream consumes them.
    """
    return TwoModeCM(
        *_effective(*_variances(source_cm), noise.t, noise.chi_tot),
        source_cm.mean_x1,
        math.sqrt(noise.t) * source_cm.mean_x2,
    )


def _conditional(vax, vap, vbx, vbp, vcx, vcp) -> tuple[float, float]:
    vx = vax - vcx * vcx / (vbx + 1.0)
    vp = vap - vcp * vcp / (vbp + 1.0)
    if vx <= 0.0 or vp <= 0.0:
        raise UnphysicalStateError(
            f"non-positive conditional variance ({vx}, {vp}); CM is unphysical"
        )
    return vx, vp


def conditional_cm_after_heterodyne(cm: TwoModeCM) -> tuple[float, float]:
    """Alice's variances conditioned on Bob's heterodyne outcome.

    The heterodyne vacuum unit shows up as the +1 in the denominator:
    V_{A|B} = V_A - V_C^2 / (V_B + 1), separately per quadrature.
    """
    return _conditional(*_variances(cm))


def _mutual_information(vax: float, vap: float, vx: float, vp: float) -> float:
    return 0.5 * (math.log2((vax + 1.0) / (vx + 1.0)) + math.log2((vap + 1.0) / (vp + 1.0)))


def mutual_information(cm: TwoModeCM) -> float:
    """I_AB in bits for homodyne readouts of the effective state.

    Measured variances are (V+1)/2 (heterodyne-style vacuum penalty), so
    per quadrature I = log2[(V_A + 1) / (V_{A|B} + 1)] / 2.
    """
    return _mutual_information(cm.vax, cm.vap, *conditional_cm_after_heterodyne(cm))


def _eigenvalues(vax, vap, vbx, vbp, vcx, vcp) -> tuple[float, float]:
    det_a = vax * vap
    det_b = vbx * vbp
    det_c = vcx * vcp
    det_s = (vax * vbx - vcx**2) * (vap * vbp - vcp**2)
    delta = det_a + det_b + 2.0 * det_c
    # factored discriminant: algebraically equal to delta^2 - 4 det_s but
    # free of the near-total cancellation that form suffers when the two
    # eigenvalues nearly coincide (e.g. weakly squeezed pure states)
    disc = (det_a - det_b) ** 2 + 4.0 * (vax * vcp + vbp * vcx) * (vap * vcx + vbx * vcp)
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


def symplectic_eigenvalues(cm: TwoModeCM) -> tuple[float, float]:
    """The two symplectic eigenvalues of a diagonal-block two-mode CM.

    Uses the invariant form lambda^2 = (Delta +/- sqrt(Delta^2 - 4 det)) / 2
    with Delta = det A + det B + 2 det C. Both are >= 1 iff the CM is
    physical.
    """
    return _eigenvalues(*_variances(cm))


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
    stage: tuple[float, ...], noise: tuple[float, ...], beta: float
) -> tuple[float, ...]:
    """The channel half of the pipeline on floats: the source stage (p_ps,
    then the TwoModeCM fields) through the channel reduction `noise` (the
    NoiseBreakdown fields), with efficiency beta. Returns the KeyRateResult
    fields i_ab to lambda3. Raises NonFiniteError when the arithmetic
    overflows or one of these or of `noise` is not finite.
    """
    p_ps, vax, vap, vbx, vbp, vcx, vcp, _, _ = stage
    t, chi_tot = noise[3], noise[7]
    try:
        eff = _effective(vax, vap, vbx, vbp, vcx, vcp, t, chi_tot)
        vx, vp = _conditional(*eff)
        lam1, lam2 = _eigenvalues(*eff)
        lam3 = math.sqrt(vx * vp)
        i_ab = _mutual_information(vax, vap, vx, vp)  # Alice's block is the source's
        chi_be = _holevo_bound(lam1, lam2, lam3)
        rate = (i_ab, chi_be, p_ps * (beta * i_ab - chi_be), lam1, lam2, lam3)
        finite = all(map(math.isfinite, rate + noise))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError(f"channel stage overflows at T={t:g}, chi_tot={chi_tot:g}")
    return rate


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
    stage = _source_stage(source, max_k)
    noise = _breakdown_at(channel, channel.l_ac)
    rate = _channel_stage(stage, noise, channel.beta)
    return KeyRateResult(stage[0], *rate, NoiseBreakdown(*noise))
