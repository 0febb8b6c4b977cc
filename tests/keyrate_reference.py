"""One function per formula of the key-rate channel stage.

`psqkd.keyrate.channel_stage` writes these formulas inline as one
straight-line kernel. The functions below keep each formula apart, under its
own name, and `composed_stage` composes them in the kernel's order, with the
finiteness check the kernel and the channel reduction split between them;
the tests pin the kernel against that composition bit for bit, exceptions
included.
Reference for the formulas: Weedbrook et al., RMP 84, 621 (2012).
"""

from __future__ import annotations

import math

from psqkd.errors import NonFiniteError, UnphysicalStateError
from psqkd.keyrate import entropy_G

# the KeyRateResult fields the channel stage returns, in its order: the cell
RATE_FIELDS = ["p_ps", "i_ab", "chi_be", "key_rate", "lambda1", "lambda2", "lambda3"]


def effective_cm(vax, vap, vbx, vbp, vcx, vcp, t, chi_tot) -> tuple[float, ...]:
    """Alice-Bob covariance fields (vax to vcp) after the equivalent one-way
    channel of transmittance t and added noise chi_tot.

    Alice's block is untouched, correlations scale by sqrt(T), and Bob's
    block becomes T * (V_B + chi_tot).
    """
    st = math.sqrt(t)
    return vax, vap, t * (vbx + chi_tot), t * (vbp + chi_tot), st * vcx, st * vcp


def conditional_cm_after_heterodyne(vax, vap, vbx, vbp, vcx, vcp) -> tuple[float, float]:
    """Alice's variances conditioned on Bob's heterodyne outcome.

    The heterodyne vacuum unit shows up as the +1 in the denominator:
    V_{A|B} = V_A - V_C^2 / (V_B + 1), separately per quadrature.
    """
    vx = vax - vcx * vcx / (vbx + 1.0)
    vp = vap - vcp * vcp / (vbp + 1.0)
    if vx <= 0.0 or vp <= 0.0:
        raise UnphysicalStateError(
            f"non-positive conditional variance ({vx}, {vp}); CM is unphysical"
        )
    return vx, vp


def mutual_information(vax: float, vap: float, vx: float, vp: float) -> float:
    """I_AB in bits from Alice's variances and their conditioned values.

    Measured variances are (V+1)/2 (heterodyne-style vacuum penalty), so
    per quadrature I = log2[(V_A + 1) / (V_{A|B} + 1)] / 2.
    """
    return 0.5 * (math.log2((vax + 1.0) / (vx + 1.0)) + math.log2((vap + 1.0) / (vp + 1.0)))


def symplectic_eigenvalues(vax, vap, vbx, vbp, vcx, vcp) -> tuple[float, float]:
    """The two symplectic eigenvalues of a diagonal-block two-mode CM.

    Uses the invariant form lambda^2 = (Delta +/- sqrt(Delta^2 - 4 det)) / 2
    with Delta = det A + det B + 2 det C, the discriminant in factored form
    and the smaller root from the product lambda1^2 lambda2^2 = det. Both
    are >= 1 iff the CM is physical.
    """
    det_a = vax * vap
    det_b = vbx * vbp
    det_c = vcx * vcp
    det_s = (vax * vbx - vcx**2) * (vap * vbp - vcp**2)
    delta = det_a + det_b + 2.0 * det_c
    disc = (det_a - det_b) ** 2 + 4.0 * (vax * vcp + vbp * vcx) * (vap * vcx + vbx * vcp)
    if disc < -1e-9:
        raise UnphysicalStateError(
            f"symplectic discriminant {disc} is negative beyond tolerance"
        )
    root = math.sqrt(max(disc, 0.0))
    lam1_sq = (delta + root) / 2.0
    lam1 = math.sqrt(max(lam1_sq, 0.0))
    lam2 = math.sqrt(max(det_s, 0.0) / lam1_sq) if lam1_sq > 0.0 else 0.0
    return lam1, lam2


def holevo_bound(lam1: float, lam2: float, lam3: float) -> float:
    """Eavesdropper information bound chi_BE for reverse reconciliation.

    chi_BE = G((l1-1)/2) + G((l2-1)/2) - G((l3-1)/2) with l1, l2 the
    symplectic eigenvalues of the joint CM and l3 = sqrt(V_{A|B,x} V_{A|B,p})
    that of Alice's heterodyne-conditioned block. Eigenvalue excursions
    below 1 enter as 0.
    """
    return (
        entropy_G(max(0.0, (lam1 - 1.0) / 2.0))
        + entropy_G(max(0.0, (lam2 - 1.0) / 2.0))
        - entropy_G(max(0.0, (lam3 - 1.0) / 2.0))
    )


def channel_stage_fields(stage, t: float, chi_tot: float, beta: float) -> tuple[float, ...]:
    """The formulas above composed as the channel stage, unchecked: the
    source stage (p_ps, then the TwoModeCM fields) through a channel of
    transmittance t and added noise chi_tot. Returns the KeyRateResult
    fields p_ps to lambda3."""
    p_ps, vax, vap, vbx, vbp, vcx, vcp = stage[:7]
    eff = effective_cm(vax, vap, vbx, vbp, vcx, vcp, t, chi_tot)
    vx, vp = conditional_cm_after_heterodyne(*eff)
    lam1, lam2 = symplectic_eigenvalues(*eff)
    lam3 = math.sqrt(vx * vp)
    i_ab = mutual_information(vax, vap, vx, vp)  # Alice's block is the source's
    chi_be = holevo_bound(lam1, lam2, lam3)
    return p_ps, i_ab, chi_be, p_ps * (beta * i_ab - chi_be), lam1, lam2, lam3


def composed_stage(stage, noise, beta: float) -> tuple[float, ...]:
    """`channel_stage_fields` at the reduction `noise` (the NoiseBreakdown
    fields), checked: raises NonFiniteError on an overflow or on a
    non-finite value among the outputs and `noise`.
    """
    t, chi_tot = noise[3], noise[7]
    try:
        rate = channel_stage_fields(stage, t, chi_tot, beta)
        finite = all(map(math.isfinite, rate + noise))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError(f"channel stage overflows at T={t:g}, chi_tot={chi_tot:g}")
    return rate
