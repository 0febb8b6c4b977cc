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

`source_stage(r, d, tau, k)` is the one entry, floats in and out: the
heralding probability, then the TwoModeCM fields. It computes cosh r,
sinh r and D once for all its terms, the probability's included, and
checks them as the SqueezedSourceParams record does.

Conventions (shot-noise units, SNU): vacuum quadrature variance is 1, so
x = a + a', p = i(a' - a); `d` is the x-quadrature mean of each mode's
coherent input before the two-mode squeezer (coherent amplitude d/2).

The k-photon-subtracted state is produced by tapping the second squeezer
output on a beam splitter of transmittance tau and detecting exactly k
photons on the tap with a photon-number-resolving detector.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import NonFiniteError, ZeroProbabilityError

__all__ = [
    "SUBTRACTION_CAP", "SqueezedSourceParams", "TwoModeCM", "scaled_laguerre", "source_stage"
]

# the source stage rejects subtraction orders above this; their probabilities
# are negligible for the parameter ranges of interest
SUBTRACTION_CAP = 16


@dataclass(frozen=True)
class SqueezedSourceParams:
    """Source-side parameters of the k-photon-subtracted squeezed coherent state.

    Attributes:
        r: two-mode squeezing parameter (>= 0).
        d: x displacement of each mode before squeezing (SNU, >= 0).
        tau: transmittance of the subtraction beam splitter, in [0, 1].
        k: number of photons detected on the tap (integer >= 0).
    """

    r: float
    d: float
    tau: float
    k: int

    def __post_init__(self) -> None:
        self._check(vars(self))

    @staticmethod
    def _check(fields: dict) -> None:
        """Check the given fields in one fixed order, whatever their order in
        `fields`: every bool among r, d and tau, then each range."""
        for name in ("r", "d", "tau"):  # bool is an int subclass
            if type(fields.get(name)) is bool:
                raise ValueError(f"{name} must be a number, got {fields[name]!r}")
        for name in ("r", "d"):  # written so that NaN and inf fail it
            if name in fields and not 0 <= fields[name] < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {fields[name]}")
        if "tau" in fields and not 0.0 <= fields["tau"] <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {fields['tau']}")
        # k=True is a caller mistake too
        if "k" in fields and not (type(fields["k"]) is int and fields["k"] >= 0):
            raise ValueError(f"k must be a non-negative integer, got {fields['k']!r}")


def scaled_laguerre(k: int, a: float, ax, alpha: int = 0):
    """a**k * L_k^alpha(x) evaluated from a and the product a*x.

    Needed where a -> 0 while x diverges with a*x finite (the r -> 0 limit of
    subtracted-state formulas). Terms are binomial:

        a**k * L_k^alpha(x) = sum_j C(k+alpha, k-j) a**(k-j) (-a*x)**j / j!

    At a negative argument x every term is positive, so the sum has no
    cancellation. `a` is a scalar >= 0; `ax` may be a scalar or numpy array.

    >>> scaled_laguerre(2, 1.0, 1.0)  # L_2(1) = (1 - 4 + 2) / 2
    -0.5
    >>> scaled_laguerre(1, 2.0, 1.0, alpha=1)  # 2 * L_1^1(0.5) = 2 * (2 - 0.5)
    3.0
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    total = 0.0
    neg_ax = -ax
    for j, (binom, fact) in enumerate(_laguerre_table(k, alpha)):
        total = total + binom * a ** (k - j) / fact * neg_ax**j
    return total


@functools.cache
def _laguerre_table(k: int, alpha: int) -> tuple[tuple[int, int], ...]:
    """The exact integers (C(k+alpha, k-j), j!) of each term j of
    `scaled_laguerre`."""
    return tuple((math.comb(k + alpha, k - j), math.factorial(j)) for j in range(k + 1))


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


def _probability(r: float, d: float, tau: float, k: int, nu: float, big_d: float) -> float:
    """Probability of detecting exactly k photons on the subtraction tap,
    from nu = sinh r and D, which `source_stage` computes once.

    Evaluates A^k L_k(-y) as a joint positive sum in A and A*y so the
    r -> 0 limits come out exactly: a coherent-only source gives Poisson
    weights with mean (1-tau) d^2 / 4, and the empty source gives 1 for
    k = 0 and 0 otherwise.
    """
    a_coef = nu * nu * (1.0 - tau) / big_d
    er2 = math.exp(2.0 * r)  # (mu + nu)^2
    ay = (1.0 - tau) * d * d * er2 / (4.0 * big_d * big_d)
    expo = -d * d * (1.0 - tau) * er2 / (4.0 * big_d)
    weight = math.exp(expo)
    if weight >= sys.float_info.min:
        p = weight / big_d * scaled_laguerre(k, a_coef, -ay)
    elif expo == -math.inf:  # p underflows, and ay may be inf / inf
        return 0.0
    else:
        # e^expo is subnormal or 0 while p may be normal: the product in
        # logs, the sum scaled by ay^-k when ay > 1 as in `_laguerre_ratios`
        s = ay if ay > 1.0 else 1.0
        sum_s = scaled_laguerre(k, a_coef / s, -ay / s)
        p = math.exp(expo + k * math.log(s) + math.log(sum_s / big_d))
    return min(max(p, 0.0), 1.0)


def source_stage(r: float, d: float, tau: float, k: int) -> tuple[float, ...]:
    """The source half of the key-rate pipeline, on the fields of a
    SqueezedSourceParams: p_ps, then the TwoModeCM fields.

    Raises ValueError, in SqueezedSourceParams' words, for an r or d that
    is negative or not finite, a tau outside [0, 1] or a k that is not an
    int (a bool included) from 0 to SUBTRACTION_CAP; ZeroProbabilityError
    when the conditioning event has probability zero (tau = 1 with k >= 1,
    or r = 0 and d = 0 with k >= 1); and NonFiniteError when the arithmetic
    overflows or a moment is not finite.

    >>> source_stage(0.0, 0.0, 1.0, 0)
    (1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    >>> source_stage(0.5, 1.0, 1.5, 1)
    Traceback (most recent call last):
    ValueError: tau must lie in [0, 1], got 1.5
    """
    # one range test on the way through, the record's check only to raise
    # (a bool r, d or tau passes here as the number it is)
    if not (
        0.0 <= r < math.inf and 0.0 <= d < math.inf and 0.0 <= tau <= 1.0
        and type(k) is int and 0 <= k <= SUBTRACTION_CAP
    ):
        SqueezedSourceParams._check({"r": r, "d": d, "tau": tau, "k": k})
        _capped(k)
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
    if y == math.inf:
        # r -> 0 at fixed d > 0, where y overflows and y cur would be
        # inf * 0: the terms below at their y -> inf limits, from
        # R1 = k/y and y cur = -k/y
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

