"""Phase-space primitives for displaced two-mode squeezed light.

Conventions (shot-noise units, SNU):
  * vacuum quadrature variance is 1, so x = a + a', p = i(a' - a);
  * the phase-space measure is dx dp / (4*pi) per mode, which makes every
    Wigner function here a probability density with respect to it;
  * `d` is the x-quadrature mean of each mode's coherent input before the
    two-mode squeezer (coherent amplitude d/2).

The k-photon-subtracted state is produced by tapping the second squeezer
output on a beam splitter of transmittance tau and detecting exactly k
photons on the tap with a photon-number-resolving detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroProbabilityError

__all__ = [
    "SqueezedSourceParams",
    "PhasePoint",
    "laguerre",
    "scaled_laguerre",
    "wigner_fock",
    "wigner_tmsc",
    "wigner_pstmsc",
    "bs_symplectic",
]


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
        for name in ("r", "d"):  # written so that NaN and inf fail it
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError(f"k must be a non-negative integer, got {self.k!r}")

    @property
    def mu(self) -> float:
        """cosh r."""
        return math.cosh(self.r)

    @property
    def nu(self) -> float:
        """sinh r."""
        return math.sinh(self.r)

    @property
    def variance(self) -> float:
        """Quadrature variance cosh 2r of each squeezer output (SNU)."""
        return math.cosh(2.0 * self.r)


@dataclass(frozen=True)
class PhasePoint:
    """A point (x1, p1, x2, p2) in two-mode phase space.

    Fields may also hold broadcastable numpy arrays for batched evaluation.
    """

    x1: float
    p1: float
    x2: float
    p2: float


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x) by the three-term recurrence.

    Degrees n < 0 return 0 (the convention that makes subtracted-state moment
    formulas valid at small k).

    >>> laguerre(0, 0.0, 3.7)
    1.0
    >>> laguerre(-1, 1.0, 2.0)
    0.0
    >>> laguerre(2, 0.0, 1.0)  # (x^2 - 4x + 2) / 2 at x=1
    -0.5
    """
    if n < 0:
        return 0.0
    prev = 1.0
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m - 1 + alpha - x) * cur - (m - 1 + alpha) * prev) / m
    return cur


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
    for j in range(k + 1):
        coef = math.comb(k + alpha, k - j) * a ** (k - j) / math.factorial(j)
        total = total + coef * (-ax) ** j
    return total


def wigner_fock(n: int, x: float, p: float) -> float:
    """Wigner density of the n-photon Fock state at (x, p).

    >>> wigner_fock(0, 0.0, 0.0)
    2.0
    >>> wigner_fock(1, 0.0, 0.0)
    -2.0
    """
    if n < 0:
        raise ValueError("photon number must be >= 0")
    s = x * x + p * p
    return 2.0 * (-1.0) ** n * math.exp(-0.5 * s) * laguerre(n, 0.0, s)


def wigner_tmsc(pt: PhasePoint, params: SqueezedSourceParams):
    """Wigner density of the two-mode squeezed coherent state (no subtraction).

    Both modes carry the same pre-squeeze x displacement d; the squeezer
    amplifies the mean to d*(mu+nu) on each x quadrature.
    """
    import numpy as np

    mu, nu, d = params.mu, params.nu, params.d
    x1, p1, x2, p2 = pt.x1, pt.p1, pt.x2, pt.p2
    quad = (
        -0.5 * (mu * mu + nu * nu) * (x1 * x1 + p1 * p1 + x2 * x2 + p2 * p2)
        + 2.0 * mu * nu * (x1 * x2 - p1 * p2)
        + d * (mu - nu) * (x1 + x2)
        - d * d
    )
    return 4.0 * np.exp(quad)


def bs_symplectic(tau: float) -> np.ndarray:
    """Symplectic matrix of a beam splitter of transmittance tau.

    Acts on (x_b, p_b, x_c, p_c); the reflected port carries the minus sign.
    The matrix is orthogonal and symplectic.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    import numpy as np

    t = math.sqrt(tau)
    rfl = math.sqrt(1.0 - tau)
    eye = np.eye(2)
    return np.block([[t * eye, rfl * eye], [-rfl * eye, t * eye]])


def wigner_pstmsc(pt: PhasePoint, params: SqueezedSourceParams):
    """Normalized Wigner density of the k-photon-subtracted state.

    Raises ZeroProbabilityError when the k-photon detection event cannot
    occur (tau = 1 with k >= 1, or r = 0 and d = 0 with k >= 1).
    """
    import numpy as np

    from .moments import subtraction_probability

    p_ps = subtraction_probability(params)
    if p_ps <= 0.0:
        raise ZeroProbabilityError(
            f"{params.k}-photon subtraction has probability 0 at "
            f"r={params.r}, d={params.d}, tau={params.tau}"
        )
    mu, nu, d, tau, k = params.mu, params.nu, params.d, params.tau, params.k
    x1, p1, x2, p2 = pt.x1, pt.p1, pt.x2, pt.p2
    big_d = 1.0 + (1.0 - tau) * nu * nu  # mu^2 - tau nu^2, cancellation-free
    a_coef = nu * nu * (1.0 - tau) / big_d
    st = math.sqrt(tau)

    xi_re = nu * nu * st * x2 - mu * nu * x1 - 0.5 * d * (mu - nu)
    xi_im = nu * nu * st * p2 + mu * nu * p1
    xi_sq = xi_re * xi_re + xi_im * xi_im

    # all exponential pieces combined before exponentiation: individually the
    # positive |xi|^2 piece overflows where the Gaussian part underflows
    quad = (
        -0.5 * (mu * mu + nu * nu) * (x1 * x1 + p1 * p1)
        - 0.5 * (mu * mu - (1.0 - 2.0 * tau) * nu * nu) * (x2 * x2 + p2 * p2)
        + 2.0 * mu * nu * st * (x1 * x2 - p1 * p2)
        + d * (mu - nu) * (x1 + st * x2)
        + (1.0 - tau) * xi_sq / big_d
        - d * d
    )
    gauss = (4.0 / big_d) * np.exp(quad)
    # (-A)^k L_k(|xi|^2 / (nu^2 D)) assembled from A and A*|xi|^2/(nu^2 D),
    # which stays finite as nu -> 0
    aq = (1.0 - tau) * xi_sq / (big_d * big_d)
    lag = (-1.0) ** k * scaled_laguerre(k, a_coef, aq)
    return gauss * lag / p_ps
