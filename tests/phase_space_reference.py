"""Wigner densities of the source states, and a quadrature reference for
the closed-form moments.

Conventions (shot-noise units, SNU):
  * vacuum quadrature variance is 1, so x = a + a', p = i(a' - a);
  * the phase-space measure is dx dp / (4*pi) per mode, which makes every
    Wigner function here a probability density with respect to it;
  * `d` is the x-quadrature mean of each mode's coherent input before the
    two-mode squeezer (coherent amplitude d/2).

The k-photon-subtracted Wigner density is a Gaussian times a polynomial of
degree 2k, so Gauss-Hermite quadrature fitted to that Gaussian integrates
its means and second moments exactly. `gauss_hermite_moments` does that;
the tests pin `psqkd.moments.pstmsc_covariance` against it at squeezing,
displacement and subtraction orders past the Fock oracle's truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from psqkd.errors import ZeroProbabilityError
from psqkd.moments import TwoModeCM, subtraction_probability
from psqkd.phase_space import SqueezedSourceParams, scaled_laguerre


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
    mu, nu, d = math.cosh(params.r), math.sinh(params.r), params.d
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
    t = math.sqrt(tau)
    rfl = math.sqrt(1.0 - tau)
    eye = np.eye(2)
    return np.block([[t * eye, rfl * eye], [-rfl * eye, t * eye]])


def _laguerre_factor(x1, p1, x2, p2, params: SqueezedSourceParams):
    """(-A)^k L_k(|xi|^2 / (nu^2 D)), the polynomial factor of the
    subtracted density, and (1-tau)|xi|^2 / D, which enters its Gaussian."""
    mu, nu = math.cosh(params.r), math.sinh(params.r)
    d, tau, k = params.d, params.tau, params.k
    big_d = 1.0 + (1.0 - tau) * nu * nu  # mu^2 - tau nu^2, cancellation-free
    a_coef = nu * nu * (1.0 - tau) / big_d
    st = math.sqrt(tau)

    xi_re = nu * nu * st * x2 - mu * nu * x1 - 0.5 * d * (mu - nu)
    xi_im = nu * nu * st * p2 + mu * nu * p1
    xi_sq = xi_re * xi_re + xi_im * xi_im
    # assembled from A and A*|xi|^2/(nu^2 D), which stays finite as nu -> 0
    aq = (1.0 - tau) * xi_sq / (big_d * big_d)
    return (-1.0) ** k * scaled_laguerre(k, a_coef, aq), (1.0 - tau) * xi_sq / big_d


def wigner_pstmsc(pt: PhasePoint, params: SqueezedSourceParams):
    """Normalized Wigner density of the k-photon-subtracted state.

    Raises ZeroProbabilityError when the k-photon detection event cannot
    occur (tau = 1 with k >= 1, or r = 0 and d = 0 with k >= 1).
    """
    p_ps = subtraction_probability(params)
    if p_ps <= 0.0:
        raise ZeroProbabilityError(
            f"{params.k}-photon subtraction has probability 0 at "
            f"r={params.r}, d={params.d}, tau={params.tau}"
        )
    mu, nu = math.cosh(params.r), math.sinh(params.r)
    d, tau = params.d, params.tau
    x1, p1, x2, p2 = pt.x1, pt.p1, pt.x2, pt.p2
    big_d = 1.0 + (1.0 - tau) * nu * nu
    st = math.sqrt(tau)
    lag, xi_term = _laguerre_factor(x1, p1, x2, p2, params)

    # all exponential pieces combined before exponentiation: individually the
    # positive |xi|^2 piece overflows where the Gaussian part underflows
    quad = (
        -0.5 * (mu * mu + nu * nu) * (x1 * x1 + p1 * p1)
        - 0.5 * (mu * mu - (1.0 - 2.0 * tau) * nu * nu) * (x2 * x2 + p2 * p2)
        + 2.0 * mu * nu * st * (x1 * x2 - p1 * p2)
        + d * (mu - nu) * (x1 + st * x2)
        + xi_term
        - d * d
    )
    gauss = (4.0 / big_d) * np.exp(quad)
    return gauss * lag / p_ps


def cm_matrix(cm: TwoModeCM) -> np.ndarray:
    """The 4x4 covariance matrix over (x1, p1, x2, p2); x-p terms vanish."""
    return np.array(
        [
            [cm.vax, 0.0, cm.vcx, 0.0],
            [0.0, cm.vap, 0.0, cm.vcp],
            [cm.vcx, 0.0, cm.vbx, 0.0],
            [0.0, cm.vcp, 0.0, cm.vbp],
        ]
    )


def cm_means(cm: TwoModeCM) -> np.ndarray:
    """The mean vector over (x1, p1, x2, p2); both p means vanish."""
    return np.array([cm.mean_x1, 0.0, cm.mean_x2, 0.0])


def _hermite_block(lam_u: float, lam_v: float, lin_u: float, lin_v: float, nodes: int):
    """Gauss-Hermite product rule for the weight exp(-(lam_u u^2 + lam_v v^2)/2
    + lin_u u + lin_v v) on one 2-d block, written in its principal axes
    u = (q1 + q2)/sqrt(2), v = (q1 - q2)/sqrt(2). Returns the centre and the
    node offsets from it in (q1, q2), and the weights."""
    z, w = np.polynomial.hermite.hermgauss(nodes)
    cu, cv = lin_u / lam_u, lin_v / lam_v
    u = math.sqrt(2.0 / lam_u) * z[:, None]
    v = math.sqrt(2.0 / lam_v) * z[None, :]
    half = math.sqrt(0.5)
    centre = ((cu + cv) * half, (cu - cv) * half)
    offsets = (((u + v) * half).ravel(), ((u - v) * half).ravel())
    return centre, offsets, np.outer(w, w).ravel()


def gauss_hermite_moments(params: SqueezedSourceParams) -> TwoModeCM:
    """Means and covariances of `wigner_pstmsc` by Gauss-Hermite quadrature.

    The density's exponent `quad` splits into an x block (x1, x2) and a p
    block (p1, p2). Their precision matrices are

        (1/D) [[E, -2 mu nu sqrt(tau)], [-2 mu nu sqrt(tau), E]]   (x),
        (1/D) [[E, +2 mu nu sqrt(tau)], [+2 mu nu sqrt(tau), E]]   (p),

    both of determinant 1, with D = mu^2 - tau nu^2 and E = mu^2 + tau nu^2:
    expand (1-tau)|xi|^2 / D in `quad` and use (1-tau) nu^2 / D = 1 - 1/D.
    Both blocks are diagonal in the principal axes (q1 + q2)/sqrt(2) and
    (q1 - q2)/sqrt(2). Along them the x block has the eigenvalues
    (mu - sqrt(tau) nu)^2 / D and (mu + sqrt(tau) nu)^2 / D, and the p block
    the same two in the other order; the small one is written without
    cancellation, as mu - sqrt(tau) nu = e^-r + (1-tau) nu / (1 + sqrt(tau)).
    Inverting the matrices themselves would lose digits as tau -> 1 at large
    r, where the determinant E^2 - 4 tau mu^2 nu^2 = D^2 cancels down to about
    1. Only the x block has a linear term,

        b = d (mu - nu) (1 + (1-tau) nu (mu + nu), sqrt(tau)) / D.

    The polynomial factor has degree 2k, so k + 3 nodes per axis integrate
    every moment up to second order exactly. Means and central second
    moments are ratios to the zeroth moment, so p_ps and the Gaussian's
    normalisation cancel.
    """
    nu, d, tau, k = math.sinh(params.r), params.d, params.tau, params.k
    er = math.exp(params.r)  # mu + nu
    st = math.sqrt(tau)
    big_d = 1.0 + (1.0 - tau) * nu * nu
    small = (math.exp(-params.r) + (1.0 - tau) / (1.0 + st) * nu) ** 2 / big_d
    large = (math.cosh(params.r) + st * nu) ** 2 / big_d
    b1 = d / (er * big_d) * (1.0 + (1.0 - tau) * nu * er)
    b2 = d / (er * big_d) * st
    half = math.sqrt(0.5)

    x_centre, x_off, x_w = _hermite_block(
        small, large, (b1 + b2) * half, (b1 - b2) * half, k + 3
    )
    _, p_off, p_w = _hermite_block(large, small, 0.0, 0.0, k + 3)
    # (x1, p1, x2, p2) offsets on the (x node, p node) product grid
    offsets = (x_off[0][:, None], p_off[0][None, :], x_off[1][:, None], p_off[1][None, :])
    centre = (x_centre[0], 0.0, x_centre[1], 0.0)
    lag, _ = _laguerre_factor(*(c + u for c, u in zip(centre, offsets)), params)
    weight = np.outer(x_w, p_w) * lag
    weight /= weight.sum()
    shift = [float((weight * u).sum()) for u in offsets]
    dev = [u - s for u, s in zip(offsets, shift)]

    def second(a: int, b: int) -> float:
        return float((weight * dev[a] * dev[b]).sum())

    return TwoModeCM(
        vax=second(0, 0),
        vap=second(1, 1),
        vbx=second(2, 2),
        vbp=second(3, 3),
        vcx=second(0, 2),
        vcp=second(1, 3),
        mean_x1=centre[0] + shift[0],
        mean_x2=centre[2] + shift[2],
    )
