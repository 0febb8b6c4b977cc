"""Closed-form statistics of the k-photon-subtracted squeezed coherent state.

Everything here follows from the state's moment generating function: the
subtraction probability, the two nonzero quadrature means, and the six
covariance entries. The formulas involve ratios of generalized Laguerre
polynomials at the non-positive argument

    w = -y,   y = d^2 (mu+nu)^2 / (4 nu^2 D),   D = mu^2 - tau nu^2,

where every polynomial is an all-positive sum, so the evaluations below are
cancellation-free. All of them are one term sum, `scaled_laguerre`, of
a**n L_n^alpha from a and a*x: a = A keeps the r -> 0 limit finite, and
a = 1/y, taken exactly when y > 1, keeps every term bounded. The moment
terms that grow like y carry no 1/nu^2, so nu^2 may leave the float range.
Stable algebraic rewrites used throughout:

    D = 1 + (1-tau) nu^2            E = mu^2 + tau nu^2 = cosh 2r - (1-tau) nu^2
    mu + nu = e^r                   A = nu^2 (1-tau) / D
    A*y = (1-tau) d^2 (mu+nu)^2 / (4 D^2)   (finite as nu -> 0)

One formula per quantity: `subtraction_probability` for the heralding
probability, and `pstmsc_covariance`, the one entry that builds a
TwoModeCM, for the means and covariance. Sweeps, searches and the Fock
oracle call `_source_stage(r, d, tau, k)`, floats in and out; it computes
cosh r, sinh r and D once for all its terms, the probability's included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteError, ZeroProbabilityError
from .phase_space import SqueezedSourceParams, scaled_laguerre

__all__ = ["SUBTRACTION_CAP", "TwoModeCM", "subtraction_probability", "pstmsc_covariance"]

# the source stage rejects subtraction orders above this; their probabilities
# are negligible for the parameter ranges of interest
SUBTRACTION_CAP = 16

# past this argument (r -> 0 at fixed d > 0) the three moment terms that grow
# like y are taken at their y -> inf limits
_LIMIT_Y = 1e200


@dataclass(frozen=True)
class TwoModeCM:
    """Two-mode covariance data: diagonal-block variances plus x means.

    The covariance matrix over (x1, p1, x2, p2) has zeros on every x-p
    cross term, so these six entries are all of it. Means along p vanish
    identically; the x means are carried separately because the security
    analysis consumes centered moments only.
    """

    vax: float
    vap: float
    vbx: float
    vbp: float
    vcx: float
    vcp: float
    mean_x1: float = 0.0
    mean_x2: float = 0.0


def _laguerre_ratios(k: int, y: float) -> tuple[float, float]:
    """(R1, R2) = (L^1_{k-1} / L_k, L^2_{k-2} / L_k), all at argument -y.

    R1 drives the first-derivative terms of the moment formulas and R2 the
    second-derivative ones; R2 - R1^2 <= 0 always. Each polynomial is the
    positive sum a**n L_n^alpha(-y), with a = 1/y when y > 1 and a = 1
    otherwise, so every term is at most C(n+alpha, n-j) and none overflows
    however large y gets.
    """
    if k == 0:
        return 0.0, 0.0
    a, ay = (1.0 / y, 1.0) if y > 1.0 else (1.0, y)
    l0 = scaled_laguerre(k, a, -ay)
    r1 = scaled_laguerre(k - 1, a, -ay, alpha=1) * a / l0
    r2 = scaled_laguerre(k - 2, a, -ay, alpha=2) * a * a / l0 if k >= 2 else 0.0
    return r1, r2


def subtraction_probability(params: SqueezedSourceParams) -> float:
    """Probability of detecting exactly k photons on the subtraction tap.

    Evaluates A^k L_k(-y) as a joint positive sum in A and A*y so the
    r -> 0 limits come out exactly: a coherent-only source gives Poisson
    weights with mean (1-tau) d^2 / 4, and the empty source gives 1 for
    k = 0 and 0 otherwise.
    """
    r, d, tau, k = params.r, params.d, params.tau, params.k
    nu = math.sinh(r)
    return _probability(r, d, tau, k, nu, 1.0 + (1.0 - tau) * nu * nu)


def _probability(r: float, d: float, tau: float, k: int, nu: float, big_d: float) -> float:
    """`subtraction_probability` from nu = sinh r and D, which the source
    stage computes once for all its terms."""
    a_coef = nu * nu * (1.0 - tau) / big_d
    er2 = math.exp(2.0 * r)  # (mu + nu)^2
    ay = (1.0 - tau) * d * d * er2 / (4.0 * big_d * big_d)
    expo = -d * d * (1.0 - tau) * er2 / (4.0 * big_d)
    weight = math.exp(expo)
    if weight == 0.0:  # p underflows; skip the sum, whose ay may be inf / inf
        return 0.0
    p = weight / big_d * scaled_laguerre(k, a_coef, -ay)
    return min(max(p, 0.0), 1.0)


def pstmsc_covariance(params: SqueezedSourceParams) -> TwoModeCM:
    """Means and covariance matrix of the k-photon-subtracted state.

    Raises ValueError when k exceeds SUBTRACTION_CAP, ZeroProbabilityError
    when the conditioning event has probability zero (tau = 1 with k >= 1,
    or r = 0 and d = 0 with k >= 1), and NonFiniteError when the arithmetic
    overflows or a moment is not finite.
    """
    return TwoModeCM(*_source_stage(params.r, params.d, params.tau, params.k)[1:])


def _source_stage(r: float, d: float, tau: float, k: int) -> tuple[float, ...]:
    """The source half of the key-rate pipeline, on the fields of a checked
    SqueezedSourceParams: p_ps, then the TwoModeCM fields. Raises as
    `pstmsc_covariance` does."""
    try:
        stage = _source_moments(r, d, tau, k)
        finite = all(map(math.isfinite, stage))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError(f"source stage overflows at {SqueezedSourceParams(r, d, tau, k)}")
    return stage


def _capped(k: int) -> int:
    if k > SUBTRACTION_CAP:
        raise ValueError(f"subtraction order k={k} exceeds the stability cap {SUBTRACTION_CAP}")
    return k


def _source_moments(r: float, d: float, tau: float, k: int) -> tuple[float, ...]:
    if k > SUBTRACTION_CAP:
        _capped(k)  # raises
    mu, nu = math.cosh(r), math.sinh(r)
    tap_nu2 = (1.0 - tau) * nu * nu
    big_d = 1.0 + tap_nu2
    p_ps = _probability(r, d, tau, k, nu, big_d)
    if p_ps <= 0.0:
        raise ZeroProbabilityError(
            f"{k}-photon subtraction has probability 0 at r={r}, d={d}, tau={tau}"
        )
    st = math.sqrt(tau)
    if r == 0.0:
        # coherent product state: the tap sees a coherent beam, of which
        # photon subtraction is an eigen-operation, so the state is unchanged
        return p_ps, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, d, st * d

    big_e = math.cosh(2.0 * r) - tap_nu2
    er = math.exp(r)  # mu + nu
    g = d * er / (2.0 * nu)  # sqrt(y D), with no nu^2 to underflow
    y = g * g / big_d
    if y > _LIMIT_Y:
        # r -> 0 at fixed d > 0, where R1 = k/y and y cur = -k/y to double
        # precision: the terms below at their y -> inf limits
        r1 = cur = y_cur = 0.0
        g_r1 = k * big_d / g
    else:
        r1, r2 = _laguerre_ratios(k, y)
        cur = r2 - r1 * r1
        y_cur, g_r1 = y * cur, g * r1
    # the three terms that grow like y, as 4 mu^2 (y cur) / D,
    # 4 mu nu st (y cur) / D and 2 mu (g R1) / D, without 1/nu^2
    ax = 4.0 * mu * mu * y_cur / big_d
    cx = 4.0 * mu * nu * st * y_cur / big_d
    x1 = 2.0 * mu * g_r1 / big_d

    vap = (big_e + 2.0 * mu * mu * r1) / big_d
    vax = vap + ax
    vbp = (big_e + 2.0 * tau * nu * nu * r1) / big_d
    vbx = vbp + d * d * tau * er * er / (big_d * big_d) * cur
    vcp = -2.0 * mu * nu * st * (1.0 + r1) / big_d
    vcx = -vcp + cx
    mean_x1 = d * (mu + tau * nu) / big_d + x1
    mean_x2 = d * st * er * (1.0 + r1) / big_d
    return p_ps, vax, vap, vbx, vbp, vcx, vcp, mean_x1, mean_x2

