"""The key-rate channel stage in mpmath at 50 digits.

One plain form per formula, on the float inputs of
`psqkd.keyrate._channel_stage` taken exactly, so the difference from the
kernel is the kernel's own rounding. The symplectic eigenvalues come from an
eigensolver, not from the discriminant the kernel factors: with no x-p
correlations, they are the square roots of the eigenvalues of
sigma_x sigma_p, the product of the x block and the p block. Eigenvalue
excursions below 1 enter the entropy terms as 0, as the model defines them.
Reference for the formulas: Weedbrook et al., RMP 84, 621 (2012).
"""

from __future__ import annotations

import mpmath
from mpmath import mpf


def _entropy_g(x):
    """(x + 1) log2(x + 1) - x log2 x, and 0 for x <= 0."""
    if x <= 0:
        return mpf(0)
    return (x + 1) * mpmath.log(x + 1, 2) - x * mpmath.log(x, 2)


def channel_stage(stage, t: float, chi_tot: float, beta: float) -> tuple:
    """The KeyRateResult fields i_ab to lambda3, as mpf, of the source stage
    `stage` (p_ps, then the TwoModeCM fields) through a channel of
    transmittance t and added noise chi_tot."""
    with mpmath.workdps(50):
        p_ps, vax, vap, vbx, vbp, vcx, vcp = map(mpf, stage[:7])
        t, chi_tot, beta = mpf(t), mpf(chi_tot), mpf(beta)
        vbx, vbp = t * (vbx + chi_tot), t * (vbp + chi_tot)
        vcx, vcp = mpmath.sqrt(t) * vcx, mpmath.sqrt(t) * vcp
        vx = vax - vcx**2 / (vbx + 1)
        vp = vap - vcp**2 / (vbp + 1)
        sigma_x = mpmath.matrix([[vax, vcx], [vcx, vbx]])
        sigma_p = mpmath.matrix([[vap, vcp], [vcp, vbp]])
        eigenvalues, _ = mpmath.eig(sigma_x * sigma_p)
        lam2, lam1 = sorted(mpmath.sqrt(mpmath.re(e)) for e in eigenvalues)
        lam3 = mpmath.sqrt(vx * vp)
        i_ab = (mpmath.log((vax + 1) / (vx + 1), 2) + mpmath.log((vap + 1) / (vp + 1), 2)) / 2
        chi_be = (
            _entropy_g((lam1 - 1) / 2) + _entropy_g((lam2 - 1) / 2) - _entropy_g((lam3 - 1) / 2)
        )
        return i_ab, chi_be, p_ps * (beta * i_ab - chi_be), lam1, lam2, lam3
