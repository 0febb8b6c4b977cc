"""The key-rate pipeline and the truncated Fock oracle in mpmath at 50 digits.

One plain form per formula, on the float inputs of
`psqkd.phase_space.source_stage`, `psqkd.channel.breakdown`,
`psqkd.keyrate.channel_stage` or of the Fock oracle taken exactly, so the
difference from the float code is its own rounding. The source stage is
the textbook form: the moments with their 1/nu^2 factors and each Laguerre
polynomial from `mpmath.laguerre`, however large its argument. The symplectic
eigenvalues come from an eigensolver, not from the discriminant the kernel
factors: with no x-p correlations, they are the square roots of the
eigenvalues of sigma_x sigma_p, the product of the x block and the p
block. Eigenvalue excursions below 1 enter the entropy terms as 0, as the
model defines them.
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


def source_stage(r: float, d: float, tau: float, k: int) -> tuple:
    """p_ps, then the TwoModeCM fields, as mpf, of the k-photon-subtracted
    state at (r, d, tau). With mu = cosh r, nu = sinh r, D = 1 + (1 - tau)
    nu^2, E = mu^2 + tau nu^2, y = d^2 (mu + nu)^2 / (4 nu^2 D) and
    A = (1 - tau) nu^2 / D, p_ps = exp(-(1 - tau) d^2 (mu + nu)^2 / (4 D))
    A^k L_k(-y) / D, and the moments take R1 = L^1_{k-1}(-y) / L_k(-y) and
    R2 = L^2_{k-2}(-y) / L_k(-y). At r = 0 the source is a coherent product
    state, of which the tap counts are Poisson with mean (1 - tau) d^2 / 4."""
    with mpmath.workdps(50):
        r, d, tau = mpf(r), mpf(d), mpf(tau)
        st = mpmath.sqrt(tau)
        if r == 0:
            mean_n = (1 - tau) * d**2 / 4
            p_ps = mpmath.exp(-mean_n) * mean_n**k / mpmath.factorial(k)
            return p_ps, mpf(1), mpf(1), mpf(1), mpf(1), mpf(0), mpf(0), d, st * d
        mu, nu = mpmath.cosh(r), mpmath.sinh(r)
        er = mu + nu
        big_d = 1 + (1 - tau) * nu**2
        big_e = mu**2 + tau * nu**2
        y = d**2 * er**2 / (4 * nu**2 * big_d)
        l0 = mpmath.laguerre(k, 0, -y)
        p_ps = (mpmath.exp(-(1 - tau) * d**2 * er**2 / (4 * big_d))
                * ((1 - tau) * nu**2 / big_d) ** k * l0 / big_d)
        r1 = mpmath.laguerre(k - 1, 1, -y) / l0 if k >= 1 else mpf(0)
        r2 = mpmath.laguerre(k - 2, 2, -y) / l0 if k >= 2 else mpf(0)
        cur = r2 - r1**2
        vap = (big_e + 2 * mu**2 * r1) / big_d
        vbp = (big_e + 2 * tau * nu**2 * r1) / big_d
        vcp = -2 * mu * nu * st * (1 + r1) / big_d
        return (
            p_ps,
            vap + d**2 * mu**2 * er**2 / (nu**2 * big_d**2) * cur,
            vap,
            vbp + d**2 * tau * er**2 / big_d**2 * cur,
            vbp,
            -vcp + d**2 * mu * er**2 * st / (nu * big_d**2) * cur,
            vcp,
            d * (mu + tau * nu) / big_d + d * mu * er / (nu * big_d) * r1,
            d * st * er * (1 + r1) / big_d,
        )


def breakdown(channel, l_ac: float) -> tuple:
    """The NoiseBreakdown fields, as mpf, of `channel` (a ChannelParams)
    with its Alice-relay length set to l_ac: T_A = 10^(-loss L_AC / 10),
    T_B = T_A (symmetric) or 1 (asymmetric), the noise-minimizing gain
    g = sqrt(2 (V_A - 1) / (T_B (V_A + 1))), T = T_A g^2 / 2,
    eps_th = (T_B / T_A)(eps_B - 2) + eps_A + 2 / T_A,
    chi_line = (1 - T) / T + eps_th, chi_homo = (v_el + 1 - eta) / eta and
    chi_tot = chi_line + 2 chi_homo / T_A."""
    with mpmath.workdps(50):
        t_a = mpf(10) ** (-mpf(channel.loss_db_per_km) * mpf(l_ac) / 10)
        t_b = t_a if channel.geometry == "symmetric" else mpf(1)
        v_a = mpf(channel.v_a)
        g = mpmath.sqrt(2 * (v_a - 1) / (t_b * (v_a + 1)))
        t = t_a * g**2 / 2
        eps_th = (t_b / t_a) * (mpf(channel.eps_b) - 2) + mpf(channel.eps_a) + 2 / t_a
        chi_line = (1 - t) / t + eps_th
        chi_homo = (mpf(channel.v_el) + 1 - mpf(channel.eta)) / mpf(channel.eta)
        return t_a, t_b, g, t, eps_th, chi_line, chi_homo, chi_line + 2 * chi_homo / t_a


def channel_stage(stage, t: float, chi_tot: float, beta: float) -> tuple:
    """The KeyRateResult fields p_ps to lambda3, as mpf, of the source stage
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
        return p_ps, i_ab, chi_be, p_ps * (beta * i_ab - chi_be), lam1, lam2, lam3


def _quadratures(rows: list) -> tuple[list, list]:
    """x = a + a' and w = a' - a on the first index of a list of rows."""
    zero = [mpf(0)] * len(rows[0])
    lowered = [[mpmath.sqrt(n) * a for a in row] for n, row in enumerate(rows[1:], 1)]
    raised = [[mpmath.sqrt(n) * a for a in row] for n, row in enumerate(rows[:-1], 1)]
    pairs = list(zip(lowered + [zero], [zero] + raised))
    x = [[b + a for a, b in zip(lo, hi)] for lo, hi in pairs]
    w = [[b - a for a, b in zip(lo, hi)] for lo, hi in pairs]
    return x, w


def _dot(u: list, v: list):
    return mpmath.fdot(a for row in zip(u, v) for a in zip(*row))


def _normalized(rows: list) -> list:
    norm = mpmath.sqrt(_dot(rows, rows))
    return [[a / norm for a in row] for row in rows]


def _transpose(rows: list) -> list:
    return [list(col) for col in zip(*rows)]


def fock_oracle_50(r: float, d: float, tau: float, k: int, n_max: int) -> tuple:
    """The truncated Fock oracle at 50 digits, on the float inputs taken exactly.

    Returns (built, prob, projected, cm): the normalized source amplitudes as
    rows, the k-photon detection probability, the normalized post-detection
    amplitudes, and the TwoModeCM fields in field order. The source comes
    from the two-term row recurrence psi(0, 0) = exp(-alpha^2 (1 + tanh r))
    / cosh r, psi(0, n+1) = alpha psi(0, n) / (cosh r sqrt(n+1)),
    psi(n1+1, n2) = (alpha psi(n1, n2) + sinh r sqrt(n2) psi(n1, n2-1))
    / (cosh r sqrt(n1+1)), alpha = d/2; the beam splitter from its
    vacuum-ancilla column sqrt(C(j+k, k)) sqrt(tau)^j (-sqrt(1-tau))^k; the
    moments from x = a + a' and w = a' - a applied once per mode. Every
    amplitude is real, so the p means vanish and the p moments are those
    of w.
    """
    with mpmath.workdps(50):
        r, d, tau = mpf(r), mpf(d), mpf(tau)
        alpha, ch, sh = d / 2, mpmath.cosh(r), mpmath.sinh(r)
        dim = n_max + 1
        first = [mpmath.exp(-alpha**2 * (1 + mpmath.tanh(r))) / ch]
        for n in range(n_max):
            first.append(alpha * first[-1] / (ch * mpmath.sqrt(n + 1)))
        rows = [first]
        for n1 in range(n_max):
            prev, scale = rows[-1], ch * mpmath.sqrt(n1 + 1)
            rows.append([
                (alpha * prev[n2] + (sh * mpmath.sqrt(n2) * prev[n2 - 1] if n2 else 0)) / scale
                for n2 in range(dim)
            ])
        built = _normalized(rows)
        kept = max(0, n_max - k + 1)
        column = [
            mpmath.sqrt(mpmath.binomial(j + k, k)) * mpmath.sqrt(tau) ** j
            * (-mpmath.sqrt(1 - tau)) ** k
            for j in range(kept)
        ]
        out = [[row[k + j] * column[j] for j in range(kept)] + [mpf(0)] * (dim - kept)
               for row in built]
        prob = _dot(out, out)
        psi = _normalized(out)
        x1, w1 = _quadratures(psi)
        x2, w2 = map(_transpose, _quadratures(_transpose(psi)))
        mean_x1, mean_x2 = _dot(psi, x1), _dot(psi, x2)
        cm = (
            _dot(x1, x1) - mean_x1**2,
            _dot(w1, w1),
            _dot(x2, x2) - mean_x2**2,
            _dot(w2, w2),
            _dot(x1, x2) - mean_x1 * mean_x2,
            _dot(w1, w2),
            mean_x1,
            mean_x2,
        )
        return built, prob, psi, cm
