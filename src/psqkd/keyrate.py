"""Secret key rate under reverse reconciliation and collective attacks.

`secret_key_rate` is the one entry that builds a KeyRateResult: the source
stage of `moments`, the channel reduction of `channel`, then the channel
stage below. That stage is one straight-line kernel on the covariance
fields (the source states have zeros on every x-p cross term, so
conditioning needs only scalar divisions, never a Schur complement): the
Alice-Bob covariance after the one-way channel, Alice's variances given
Bob's heterodyne outcome, the symplectic eigenvalues, I_AB for homodyne
readouts and chi_BE through `entropy_G` (Weedbrook et al., RMP 84, 621
(2012)), then K = P_detect * (beta * I_AB - chi_BE), in bits per pulse.
`tests/keyrate_reference.py` keeps one function per formula as the
reference that pins the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, NoiseBreakdown, _breakdown_at
from .errors import NonFiniteError, UnphysicalStateError
from .moments import _source_stage
from .phase_space import SqueezedSourceParams

__all__ = [
    "KeyRateResult",
    "entropy_G",
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


def _channel_stage(
    stage: tuple[float, ...], noise: tuple[float, ...], beta: float
) -> tuple[float, ...]:
    """The channel half of the pipeline on floats: the source stage (p_ps,
    then the TwoModeCM fields) through the channel reduction `noise` (the
    NoiseBreakdown fields, which `_breakdown_at` has checked), with
    efficiency beta. Returns the KeyRateResult fields i_ab to lambda3.
    Raises UnphysicalStateError, or NonFiniteError when the arithmetic
    overflows or one of these is not finite.
    """
    p_ps, vax, vap, vbx, vbp, vcx, vcp, _, _ = stage
    t, chi_tot = noise[3], noise[7]
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
        # chi_BE: a numerically pure joint state leaks nothing, and
        # eigenvalue excursions below 1 are float noise, G(0) = 0
        if lam1 < 1.0 + _PURITY_EPS and lam2 < 1.0 + _PURITY_EPS:
            chi_be = 0.0
        else:
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
    stage = _source_stage(source.r, source.d, source.tau, source.k)
    noise = _breakdown_at(channel, channel.l_ac)
    rate = _channel_stage(stage, noise, channel.beta)
    return KeyRateResult(stage[0], *rate, NoiseBreakdown(*noise))
