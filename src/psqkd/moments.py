"""Closed-form statistics of the k-photon-subtracted squeezed coherent state.

Everything here follows from the state's moment generating function: the
subtraction probability, the two nonzero quadrature means, and the six
covariance entries. The formulas involve ratios of generalized Laguerre
polynomials at the non-positive argument

    w = -y,   y = d^2 (mu+nu)^2 / (4 nu^2 D),   D = mu^2 - tau nu^2,

where every polynomial is an all-positive sum, so the evaluations below are
cancellation-free. All of them are one term sum, `scaled_laguerre`, of
a**n L_n^alpha from a and a*x: a = A keeps the r -> 0 limit finite, and
a = 1/y keeps the terms bounded where y is large. Stable algebraic rewrites
used throughout:

    D = 1 + (1-tau) nu^2            E = mu^2 + tau nu^2 = cosh 2r - (1-tau) nu^2
    mu + nu = e^r                   A = nu^2 (1-tau) / D
    A*y = (1-tau) d^2 (mu+nu)^2 / (4 D^2)   (finite as nu -> 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteError, ZeroProbabilityError
from .phase_space import SqueezedSourceParams, scaled_laguerre

__all__ = [
    "DEFAULT_SUBTRACTION_CAP",
    "TwoModeCM",
    "subtraction_probability",
    "source_stage",
    "pstmsc_covariance",
    "low_order_moment",
]

# subtraction orders above this are rejected unless the caller raises the cap;
# probabilities beyond it are negligible for the parameter ranges of interest
DEFAULT_SUBTRACTION_CAP = 16

# above this argument (or degree, once y > 1) the plain term sums of the
# Laguerre ratios could overflow, so each sum is scaled by a = 1/y; below it
# the plain sums are left as they are, which keeps the golden outputs exact
_SCALE_Y = 1e8
_SCALE_K = 24

# three moment terms carry 1/nu^2 and grow like y; where nu < _NU_MIN (nu^2
# leaves the normal range) or y > _LIMIT_Y they are evaluated without 1/nu^2,
# and for y > _LIMIT_Y (r -> 0 at fixed d > 0) at their y -> inf limits;
# elsewhere the 1/nu^2 forms stay, as they give the golden outputs bit for bit
_NU_MIN = 1e-150
_LIMIT_Y = 1e200


@dataclass(frozen=True)
class TwoModeCM:
    """Two-mode covariance data: diagonal-block variances plus x means.

    The 4x4 matrix over (x1, p1, x2, p2), `as_matrix`, has zeros on every
    x-p cross term. Means along p vanish identically; the x means are
    carried separately because the security analysis consumes centered
    moments only.
    """

    vax: float
    vap: float
    vbx: float
    vbp: float
    vcx: float
    vcp: float
    mean_x1: float = 0.0
    mean_x2: float = 0.0

    def _rows(self) -> tuple[tuple[float, ...], ...]:
        return (
            (self.vax, 0.0, self.vcx, 0.0),
            (0.0, self.vap, 0.0, self.vcp),
            (self.vcx, 0.0, self.vbx, 0.0),
            (0.0, self.vcp, 0.0, self.vbp),
        )

    def as_matrix(self) -> np.ndarray:
        """The full 4x4 covariance matrix over (x1, p1, x2, p2)."""
        import numpy as np

        return np.array(self._rows())

    def mean_vector(self) -> np.ndarray:
        import numpy as np

        return np.array([self.mean_x1, 0.0, self.mean_x2, 0.0])


def _laguerre_ratios(k: int, y: float) -> tuple[float, float]:
    """(R1, R2) = (L^1_{k-1} / L_k, L^2_{k-2} / L_k), all at argument -y.

    R1 drives the first-derivative terms of the moment formulas and R2 the
    second-derivative ones; R2 - R1^2 <= 0 always. Each polynomial is the
    positive sum a**n L_n^alpha(-y); with a = 1/y every term is at most
    C(n+alpha, n-j), so no term overflows however large y gets.
    """
    if k == 0:
        return 0.0, 0.0
    scaled = y > _SCALE_Y or (k > _SCALE_K and y > 1.0)
    a, ay = (1.0 / y, 1.0) if scaled else (1.0, y)
    l0 = scaled_laguerre(k, a, -ay)
    r1 = scaled_laguerre(k - 1, a, -ay, alpha=1) * a / l0
    r2 = scaled_laguerre(k - 2, a, -ay, alpha=2) * a * a / l0 if k >= 2 else 0.0
    return r1, r2


def subtraction_probability(
    params: SqueezedSourceParams, max_k: int = DEFAULT_SUBTRACTION_CAP
) -> float:
    """Probability of detecting exactly k photons on the subtraction tap.

    Evaluates A^k L_k(-y) as a joint positive sum in A and A*y so the
    r -> 0 limits come out exactly: a coherent-only source gives Poisson
    weights with mean (1-tau) d^2 / 4, and the empty source gives 1 for
    k = 0 and 0 otherwise.
    """
    if params.k > max_k:
        raise ValueError(
            f"subtraction order k={params.k} exceeds the stability cap {max_k}; "
            "raise max_k explicitly if you really need it"
        )
    nu = params.nu
    tau, d, k = params.tau, params.d, params.k
    big_d = 1.0 + (1.0 - tau) * nu * nu
    a_coef = nu * nu * (1.0 - tau) / big_d
    er2 = math.exp(2.0 * params.r)  # (mu + nu)^2
    ay = (1.0 - tau) * d * d * er2 / (4.0 * big_d * big_d)
    expo = -d * d * (1.0 - tau) * er2 / (4.0 * big_d)
    p = math.exp(expo) / big_d * scaled_laguerre(k, a_coef, -ay)
    return min(max(p, 0.0), 1.0)


def source_stage(
    params: SqueezedSourceParams, max_k: int = DEFAULT_SUBTRACTION_CAP
) -> tuple[float, TwoModeCM]:
    """(p_ps, cm): the source half of the key-rate pipeline, from one
    probability evaluation; it depends on the source parameters only.

    Raises ZeroProbabilityError when the conditioning event has probability
    zero (tau = 1 with k >= 1, or r = 0 and d = 0 with k >= 1), and
    NonFiniteError when the arithmetic overflows or a moment is not finite.
    """
    p_ps, *moments = _source_stage(params, max_k)
    return p_ps, TwoModeCM(*moments)


def _source_stage(
    params: SqueezedSourceParams, max_k: int = DEFAULT_SUBTRACTION_CAP
) -> tuple[float, ...]:
    try:
        stage = _source_moments(params, max_k)
        finite = all(map(math.isfinite, stage))
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteError(f"source stage overflows at {params}")
    return stage


def _source_moments(params: SqueezedSourceParams, max_k: int) -> tuple[float, ...]:
    p_ps = subtraction_probability(params, max_k)
    if p_ps <= 0.0:
        raise ZeroProbabilityError(
            f"{params.k}-photon subtraction has probability 0 at "
            f"r={params.r}, d={params.d}, tau={params.tau}"
        )
    tau, d, k = params.tau, params.d, params.k
    st = math.sqrt(tau)
    if params.r == 0.0:
        # coherent product state: the tap sees a coherent beam, of which
        # photon subtraction is an eigen-operation, so the state is unchanged
        return p_ps, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, d, st * d

    mu, nu = params.mu, params.nu
    big_d = 1.0 + (1.0 - tau) * nu * nu
    big_e = math.cosh(2.0 * params.r) - (1.0 - tau) * nu * nu
    er = math.exp(params.r)  # mu + nu
    g = d * er / (2.0 * nu)  # sqrt(y D), with no nu^2 to underflow
    if nu >= _NU_MIN and g * g <= _LIMIT_Y * big_d:
        y = d * d * er * er / (4.0 * nu * nu * big_d)
        r1, r2 = _laguerre_ratios(k, y)
        cur = r2 - r1 * r1
        ax = d * d * mu * mu * er * er / (nu * nu * big_d * big_d) * cur
        cx = d * d * mu * er * er * st / (nu * big_d * big_d) * cur
        x1 = d * mu * er / (nu * big_d) * r1
    else:
        # the same three terms without 1/nu^2, as 4 mu^2 (y cur) / D,
        # 4 mu nu st (y cur) / D and 2 mu (g R1) / D; past _LIMIT_Y, where
        # R1 = k/y and y cur = -k/y to double precision, at their limits
        y = g * g / big_d
        if y > _LIMIT_Y:
            r1 = cur = y_cur = 0.0
            g_r1 = k * big_d / g
        else:
            r1, r2 = _laguerre_ratios(k, y)
            cur = r2 - r1 * r1
            y_cur, g_r1 = y * cur, g * r1
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


def pstmsc_covariance(
    params: SqueezedSourceParams, max_k: int = DEFAULT_SUBTRACTION_CAP
) -> TwoModeCM:
    """Means and covariance matrix of the k-photon-subtracted state.

    Raises ZeroProbabilityError as `source_stage` does.
    """
    return source_stage(params, max_k)[1]


def low_order_moment(
    params: SqueezedSourceParams, i: int, j: int, m: int, n: int
) -> float:
    """Raw moment <x1^i p1^j x2^m p2^n> for total order i+j+m+n <= 2.

    Higher orders are not expressible through the covariance data; they are
    available only via the Fock-space oracle.
    """
    orders = (i, j, m, n)
    if any(o < 0 for o in orders):
        raise ValueError("moment orders must be non-negative")
    total = sum(orders)
    if total > 2:
        raise ValueError(f"unsupported order {orders}: total must be <= 2")
    if total == 0:
        return 1.0
    cm = pstmsc_covariance(params)
    mean = (cm.mean_x1, 0.0, cm.mean_x2, 0.0)
    active = [axis for axis, o in enumerate(orders) for _ in range(o)]
    if total == 1:
        return mean[active[0]]
    a, b = active
    return cm._rows()[a][b] + mean[a] * mean[b]
