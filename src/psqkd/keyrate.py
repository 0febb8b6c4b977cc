"""Secret key rate under reverse reconciliation and collective attacks.

Three stages on floats: `phase_space.source_stage`, the channel reduction
`channel.breakdown`, then `channel_stage` below; `secret_key_rate` runs
them and builds the one record, a KeyRateResult. `channel_stage` is one
straight-line kernel on the covariance fields (the source states have
zeros on every x-p cross term, so conditioning needs only scalar
divisions, never a Schur complement): the Alice-Bob covariance after the
one-way channel, Alice's variances given Bob's heterodyne outcome, the
symplectic eigenvalues, I_AB for homodyne readouts and chi_BE through
`entropy_G` (Weedbrook et al., RMP 84, 621 (2012)), then
K = P_detect * (beta * I_AB - chi_BE), in bits per pulse.
`tests/keyrate_reference.py` keeps one function per formula as the
reference that pins the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, NoiseBreakdown, breakdown
from .errors import NonFiniteError, UnphysicalStateError
from .phase_space import SqueezedSourceParams, source_stage

__all__ = [
    "KeyRateResult",
    "entropy_G",
    "channel_stage",
    "secret_key_rate",
]

_LN2 = math.log(2.0)


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


def entropy_G(x: float) -> float:
    """Thermal-state von Neumann entropy (x + 1) log2(x + 1) - x log2 x.

    G(0) = 0 by continuity; tiny negative arguments from float noise are
    clamped to 0. Above x = 1e4, where the two terms cancel, it is
    log2(x + 1) + x log1p(1/x) / ln 2.

    >>> entropy_G(0.0)
    0.0
    >>> entropy_G(1.0)
    2.0
    """
    if x <= 0.0:
        if x < -1e-12:
            raise ValueError(f"entropy argument must be >= 0, got {x}")
        return 0.0
    if x > 1e4:
        return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def channel_stage(
    stage: tuple[float, ...], noise: tuple[float, ...], beta: float
) -> tuple[float, ...]:
    """The channel half of the pipeline on floats: the source stage (p_ps,
    then the TwoModeCM fields) through the channel reduction `noise` (the
    NoiseBreakdown fields, which `breakdown` has checked), with
    efficiency beta. Returns the KeyRateResult fields i_ab to lambda3.
    Raises ValueError for a beta outside (0, 1], in ChannelParams' words,
    or a T or chi_tot no `breakdown` returns; UnphysicalStateError; or
    NonFiniteError when the arithmetic overflows or one of these is not
    finite.

    >>> noise = breakdown(ChannelParams("asymmetric", 0.0, 3.0, 1.0), 0.0)
    >>> channel_stage(source_stage(0.0, 0.0, 1.0, 0), noise, 1.0)
    (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    """
    if not 0.0 < beta <= 1.0:
        ChannelParams._check({"beta": beta})
    p_ps, vax, vap, vbx, vbp, vcx, vcp, _, _ = stage
    t, chi_tot = noise[3], noise[7]
    if not 0.0 < t < math.inf:
        raise ValueError(f"noise t must be finite and > 0, got {t}")
    if not 0.0 <= chi_tot < math.inf:
        raise ValueError(f"noise chi_tot must be finite and >= 0, got {chi_tot}")
    try:
        # the one-way channel leaves Alice's block, scales the correlations
        # by sqrt(T), and makes Bob's block T * (V_B + chi_tot)
        st = math.sqrt(t)
        vbx = t * (vbx + chi_tot)
        vbp = t * (vbp + chi_tot)
        vcx = st * vcx
        vcp = st * vcp
        # Alice's variances given Bob's heterodyne outcome; the +1 is its
        # vacuum unit
        vx = vax - vcx * vcx / (vbx + 1.0)
        vp = vap - vcp * vcp / (vbp + 1.0)
        if vx <= 0.0 or vp <= 0.0:
            raise UnphysicalStateError(
                f"non-positive conditional variance ({vx}, {vp}); CM is unphysical"
            )
        # symplectic eigenvalues: lambda^2 = (Delta +/- sqrt(disc)) / 2
        det_a = vax * vap
        det_b = vbx * vbp
        det_c = vcx * vcp
        det_s = (vax * vbx - vcx**2) * (vap * vbp - vcp**2)
        delta = det_a + det_b + 2.0 * det_c
        # disc = delta^2 - 4 det_s, factored: that form cancels almost
        # totally when the eigenvalues nearly coincide (weakly squeezed
        # pure states)
        disc = (det_a - det_b) ** 2 + 4.0 * (vax * vcp + vbp * vcx) * (vap * vcx + vbx * vcp)
        if disc < -1e-9:
            raise UnphysicalStateError(
                f"symplectic discriminant {disc} is negative beyond tolerance"
            )
        root = math.sqrt(0.0 if 0.0 > disc else disc)
        lam1_sq = (delta + root) / 2.0
        lam1 = math.sqrt(0.0 if 0.0 > lam1_sq else lam1_sq)
        # the smaller root from the product det_s: delta - root cancels
        # catastrophically for near-pure states
        det_s = 0.0 if 0.0 > det_s else det_s
        lam2 = math.sqrt(det_s / lam1_sq) if lam1_sq > 0.0 else 0.0
        lam3 = math.sqrt(vx * vp)
        # I_AB in bits; measured variances are (V + 1) / 2
        i_ab = 0.5 * (math.log2((vax + 1.0) / (vx + 1.0)) + math.log2((vap + 1.0) / (vp + 1.0)))
        # chi_BE; eigenvalue excursions below 1 are float noise, G(0) = 0
        x1 = (lam1 - 1.0) / 2.0
        x2 = (lam2 - 1.0) / 2.0
        x3 = (lam3 - 1.0) / 2.0
        chi_be = (
            entropy_G(x1 if x1 > 0.0 else 0.0)
            + entropy_G(x2 if x2 > 0.0 else 0.0)
            - entropy_G(x3 if x3 > 0.0 else 0.0)
        )
        rate = (i_ab, chi_be, p_ps * (beta * i_ab - chi_be), lam1, lam2, lam3)
        finite = all(map(math.isfinite, rate))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError(f"channel stage overflows at T={t:g}, chi_tot={chi_tot:g}")
    return rate


def secret_key_rate(source: SqueezedSourceParams, channel: ChannelParams) -> KeyRateResult:
    """Full pipeline for one configuration: the source stage, the channel
    reduction, then the channel stage.

    K = P_detect * (beta * I_AB - chi_BE); negative K (insecure regime) is
    returned as-is. channel.v_a should normally equal the source's cosh 2r;
    the sweep and CLI layers keep the two in sync.

    Raises ZeroProbabilityError when the subtraction event cannot occur, and
    NonFiniteError when a stage overflows or yields a non-finite value.
    """
    stage = source_stage(source.r, source.d, source.tau, source.k)
    noise = breakdown(channel, channel.l_ac)
    rate = channel_stage(stage, noise, channel.beta)
    return KeyRateResult(stage[0], *rate, NoiseBreakdown(*noise))
