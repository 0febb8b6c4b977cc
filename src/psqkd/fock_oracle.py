"""Truncated Fock-space brute force for the subtraction pipeline.

Everything in this module recomputes the closed forms of `phase_space` from
first principles: prepare the displaced two-mode squeezed state as its
amplitude array (a state here is that ndarray), mix one mode with a vacuum
ancilla on a beam splitter, project the ancilla on a photon-number outcome,
and read moments off the surviving amplitudes with quadrature operators
x = a + a', p = i(a' - a).

The state is a closed-form product of non-negative terms (build_tmsc_fock)
and the beam splitter's vacuum-ancilla column is real, so it stays float64:
p moments are read off w = a' - a = -ip (state_covariance), and a complex
state takes the same code. x and w act on one tensor axis as shifted slices
scaled by sqrt(n), and every moment is an inner product of the applied
tensors. That is exact in the truncated space: truncated x and p are still
Hermitian, so <psi|Q^2|psi> = ||Q psi||^2, and operators on different modes
commute, so <psi|Q1 Q2|psi> = <Q1 psi|Q2 psi>. The tests pin each step to
matrix exponentials or a Weyl-ordered reference, and to a 50-digit oracle.

Test-time only; the production key-rate path never calls into here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError, ZeroProbabilityError
from .phase_space import SqueezedSourceParams, TwoModeCM, source_stage

__all__ = [
    "build_tmsc_fock",
    "apply_bs_and_project",
    "state_covariance",
    "oracle_covariance",
    "suggested_truncation",
    "OracleComparison",
    "compare_random_grid",
]

_LEAK_LEVELS = 5
_LEAK_TOL = 1e-8
_GEMM_SIZE = 64**3
_DOT_SIZE = 10_000


def _vdot(a: np.ndarray, b: np.ndarray):
    """np.vdot(a, b) in chunks of fewer than 10,000 elements, which OpenBLAS
    keeps on one thread, as the GEMM blocks below; a smaller array is one call."""
    if a.size < _DOT_SIZE:
        return np.vdot(a, b)
    a, b, step = a.ravel(), b.ravel(), _DOT_SIZE - 1
    return sum(np.vdot(a[i : i + step], b[i : i + step]) for i in range(0, a.size, step))


def _leakage(amps: np.ndarray) -> float:
    """Probability mass in the top 5 retained Fock levels of either mode."""
    top, right = amps[-_LEAK_LEVELS:], amps[:, -_LEAK_LEVELS:]
    return float(_vdot(top, top).real + _vdot(right, right).real)


def build_tmsc_fock(r: float, d: float, n_max: int) -> np.ndarray:
    """Displaced two-mode squeezed state, truncated at n_max per mode: the
    normalized (n_max+1) x (n_max+1) amplitude tensor.

    The displacement d is the x-quadrature mean of each mode before
    squeezing, i.e. coherent amplitude alpha = d/2 in x = a + a' units. The
    state S(r) D(alpha) D(alpha)|00>, r >= 0, is annihilated by
    a1 cosh r - a2' sinh r - alpha and by its mode-swapped twin; the
    two-term recurrence these fix (Miatto & Quesada, Quantum 4, 366 (2020))
    solves to psi = Q Q^T with
    Q[n, j] = c sqrt(C(n, j)) tanh(r)^(j/2) b^(n-j) / sqrt((n-j)!),
    b = alpha / cosh r and c^2 = psi(0, 0) = exp(-alpha^2 (1 + tanh r)) / cosh r.
    One cumprod runs column j down from c tanh(r)^(j/2) by the ratios
    b sqrt(n) / (n - j); as all terms are non-negative and
    sum_j Q[n, j]^2 = psi(n, n) <= 1, no partial product exceeds 1. The
    product runs in blocks of at most 64^3 multiply-adds, below which
    OpenBLAS keeps a GEMM on one thread (idle BLAS threads spin on CPU):
    blocks of whole rows up to n_max 511, single rows split by columns
    above.

    Raises ValueError for an r or d the source record refuses, and
    TruncationError when psi(0, 0) underflows or more than 1e-8 of
    probability lies above n_max or sits in the top 5 retained levels.
    """
    if not (0.0 <= r < math.inf and 0.0 <= d < math.inf):
        SqueezedSourceParams._check({"r": r, "d": d})
    if n_max < _LEAK_LEVELS:
        raise ValueError(f"n_max={n_max} is too small to be meaningful")
    alpha, th, dim = d / 2.0, math.tanh(r), n_max + 1
    cosh = math.cosh(r) if r < 710.0 else math.inf  # it overflows past r = 710.47
    c = math.exp(-alpha * alpha * (1.0 + th) / 2.0) / math.sqrt(cosh)
    if c == 0.0:  # a factor of every term of Q: no n_max holds the state
        raise TruncationError(f"psi(0, 0) underflows at r={r}, d={d}")
    level = np.arange(2.0 * dim)
    step = level.itemsize
    # ratio[j, m] = b sqrt(j + m) / m takes Q[j + m - 1, j] to Q[j + m, j]
    ratio = np.empty((dim, dim))
    view = np.ndarray((dim, dim - 1), float, np.sqrt(level), step, (step, step))
    np.multiply(view, (alpha / cosh) / level[1:dim], out=ratio[:, 1:])
    ratio[:, 0] = c * math.sqrt(th) ** level[:dim]
    # skew[j, m] = Q[j + m, j]; a row stride one short of skew's reads Q^T,
    # with the zero padding above the diagonal
    skew = np.zeros((dim, 2 * dim))
    np.cumprod(ratio, axis=1, out=skew[:, :dim])
    qt = np.ndarray((dim, dim), float, skew, 0, ((2 * dim - 1) * step, step))
    amps = np.empty((dim, dim))
    rows = max(1, _GEMM_SIZE // (dim * dim))
    cols = min(dim, _GEMM_SIZE // (rows * dim))  # below dim once a row exceeds it
    for top in range(0, dim, rows):
        end = min(top + rows, dim)  # rows n < end need only columns j < end
        for left in range(0, dim, cols):
            right = left + cols
            amps[top:end, left:right] = qt[:end, top:end].T @ qt[:end, left:right]
    kept = math.sqrt(_vdot(amps, amps))
    cropped = abs(1.0 - kept * kept)
    if kept > 0.0:  # 0 where all of psi underflows, as at r = 700
        amps /= kept
    if not cropped + _leakage(amps) <= _LEAK_TOL:  # NaN fails
        raise TruncationError(
            f"truncation insufficient at n_max={n_max} for r={r}, d={d}: "
            f"mass above n_max {cropped:.3e}, top-level mass {_leakage(amps):.3e}"
        )
    return amps


def apply_bs_and_project(amps: np.ndarray, tau: float, k: int) -> tuple[np.ndarray, float]:
    """Tap mode 2 with a vacuum ancilla and detect exactly k tap photons.

    Returns the normalized post-detection amplitudes and their probability.
    With the ancilla in vacuum only the beam splitter's |n, 0> input column
    acts: mode-2 level j + k keeps j photons with amplitude
    sqrt(C(j+k, j)) sqrt(tau)^j (-sqrt(1-tau))^k.
    """
    # one range test on the way through, the record's check only to raise
    if not (0.0 <= tau <= 1.0 and type(k) is int and k >= 0):
        SqueezedSourceParams._check({"tau": tau, "k": k})
    out = np.zeros_like(amps)
    kept = max(0, amps.shape[0] - k)  # output levels j reachable from j + k
    binom = np.array([math.comb(j + k, k) for j in range(kept)], dtype=float)
    column = np.sqrt(binom) * math.sqrt(tau) ** np.arange(kept) * (-math.sqrt(1.0 - tau)) ** k
    out[:, :kept] = amps[:, k : k + kept] * column
    prob = float(_vdot(out, out).real)
    if prob < 1e-300:
        raise ZeroProbabilityError(
            f"{k}-photon detection has probability {prob:.1e} (treated as zero)"
        )
    out /= math.sqrt(prob)
    return out, prob


def state_covariance(amps: np.ndarray) -> TwoModeCM:
    """Means and covariance of a two-mode Fock state, x and w once per mode.

    P = iW gives ||P psi|| = ||W psi||, <P1 psi|P2 psi> = <W1 psi|W2 psi>
    and <P> = -Im <psi|W psi>; with <psi|X psi>, ||X psi||^2 and
    <X1 psi|X2 psi> these are the Weyl-ordered moments. The p means enter
    the p variances only; TwoModeCM carries the x means.
    """
    root = np.sqrt(np.arange(amps.shape[0] + 1.0))
    border = np.zeros((amps.shape[0] + 2,) * 2, amps.dtype)
    border[1:-1, 1:-1] = amps
    # results go into spent operands: fewer fresh pages to fault in per call
    up, down = root[:-1, None] * border[:-2, 1:-1], root[1:, None] * border[2:, 1:-1]
    x1, w1 = up + down, np.subtract(up, down, out=up)
    up, down = root[:-1] * border[1:-1, :-2], np.multiply(root[1:], border[1:-1, 2:], out=down)
    x2, w2 = up + down, np.subtract(up, down, out=up)
    mean_x1, mean_x2 = _vdot(amps, x1).real, _vdot(amps, x2).real
    mean_p1, mean_p2 = -_vdot(amps, w1).imag, -_vdot(amps, w2).imag
    return TwoModeCM(
        vax=float(_vdot(x1, x1).real - mean_x1**2),
        vap=float(_vdot(w1, w1).real - mean_p1**2),
        vbx=float(_vdot(x2, x2).real - mean_x2**2),
        vbp=float(_vdot(w2, w2).real - mean_p2**2),
        vcx=float(_vdot(x1, x2).real - mean_x1 * mean_x2),
        vcp=float(_vdot(w1, w2).real - mean_p1 * mean_p2),
        mean_x1=float(mean_x1),
        mean_x2=float(mean_x2),
    )


def oracle_covariance(r: float, d: float, tau: float, k: int, n_max: int) -> TwoModeCM:
    """Means and covariance of the k-subtracted state, straight from Fock space."""
    state, _ = apply_bs_and_project(build_tmsc_fock(r, d, n_max), tau, k)
    return state_covariance(state)


def suggested_truncation(r: float, d: float) -> int:
    """Photon-number cutoff that keeps state leakage under the check limit.

    Linear in r + d with a flat safety offset, calibrated so the leakage
    guard in build_tmsc_fock stays silent over r <= 1, d <= 2. Outside that
    box it can fall short; build_tmsc_fock then raises TruncationError.
    """
    if not (0.0 <= r < math.inf and 0.0 <= d < math.inf):
        SqueezedSourceParams._check({"r": r, "d": d})
    return 20 + math.ceil(24.0 * (r + d))


@dataclass(frozen=True)
class OracleComparison:
    """Worst relative deviations of the closed forms from the Fock oracle."""

    points: int
    seed: int
    rel_tol: float
    max_dev_probability: float
    max_dev_covariance: float
    max_dev_means: float
    worst_params: tuple[float, float, float, int]

    @property
    def passed(self) -> bool:
        devs = (self.max_dev_probability, self.max_dev_covariance, self.max_dev_means)
        return all(dev <= self.rel_tol for dev in devs)  # NaN fails


def _rel_dev(closed: float, oracle: float) -> float:
    # unit floor: CM entries are O(1) or larger, so this stays a relative
    # measure except for exact zeros (d=0 means), where it avoids 0/0
    return abs(closed - oracle) / max(abs(oracle), 1.0)


def _rank(dev: float) -> float:
    # sort key under which NaN outranks every deviation: max() drops a NaN
    # that is not its first argument, and so would pass a broken point
    return math.inf if math.isnan(dev) else dev


def compare_random_grid(
    points: int = 50, seed: int = 20240817, rel_tol: float = 1e-5
) -> OracleComparison:
    """Closed-form probability, covariance and means vs the Fock oracle.

    Draws (r, d, tau, k) uniformly from r in [0.05, 1], d in [0, 2],
    tau in [0.3, 0.95], k in {0, 1, 2} and compares every entry the
    closed forms produce. Probabilities compare fully relatively; CM and
    means use a unit-floored denominator. A NaN deviation ranks as the
    worst and fails the report. Each point's state is built and projected
    once. Raises ValueError when points < 1, so that no report passes over
    an empty grid, when seed is negative, and when rel_tol is negative or
    NaN.
    """
    if points < 1 or seed < 0 or not rel_tol >= 0:
        raise ValueError(
            "need points >= 1, seed >= 0 and rel_tol >= 0, "
            f"got points={points}, seed={seed}, rel_tol={rel_tol:g}"
        )
    rng = np.random.default_rng(seed)
    # probability, covariance, means; the first point outranks them
    worst = (-math.inf,) * 3
    for _ in range(points):
        r = rng.uniform(0.05, 1.0)
        d = rng.uniform(0.0, 2.0)
        tau = rng.uniform(0.3, 0.95)
        k = int(rng.integers(0, 3))
        n_max = suggested_truncation(r, d)

        state, prob = apply_bs_and_project(build_tmsc_fock(r, d, n_max), tau, k)
        closed_p, *closed = source_stage(r, d, tau, k)
        dev_p = abs(closed_p - prob) / abs(prob)
        oracle = vars(state_covariance(state)).values()  # in field order
        devs = list(map(_rel_dev, closed, oracle))
        point = (dev_p, max(devs[:6], key=_rank), max(devs[6:], key=_rank))
        if max(map(_rank, point)) > max(map(_rank, worst)):
            worst_params = (r, d, tau, k)
        worst = tuple(max(pair, key=_rank) for pair in zip(worst, point))
    return OracleComparison(
        points=points,
        seed=seed,
        rel_tol=rel_tol,
        max_dev_probability=worst[0],
        max_dev_covariance=worst[1],
        max_dev_means=worst[2],
        worst_params=worst_params,
    )
