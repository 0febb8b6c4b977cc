"""Truncated Fock-space brute force for the subtraction pipeline.

Everything in this module recomputes the closed forms of `moments` from
first principles: prepare the displaced two-mode squeezed state as an
amplitude tensor, mix one mode with a vacuum ancilla on a beam splitter,
project the ancilla on a photon-number outcome, and read moments off the
surviving amplitudes with quadrature operators x = a + a', p = i(a' - a).

The state comes from an exact two-term amplitude recurrence (see
build_tmsc_fock). Because the ancilla starts in vacuum, the beam splitter
is needed only on its |n, 0> input column, which has the binomial form
<j, n-j| U |n, 0> = sqrt(C(n, j)) sqrt(tau)^j (-sqrt(1 - tau))^(n-j),
so detecting k photons is one scaled slice of the amplitude tensor.

Moments need each quadrature applied once: x and p act on one tensor axis
as shifted slices scaled by sqrt(n), and every mean, variance and cross
term is an inner product of the applied tensors. This is exact in the
truncated space, not only as n_max grows: truncated x and p are still
Hermitian matrices, so <psi|Q^2|psi> = ||Q psi||^2, and operators on
different modes commute, so <psi|Q1 Q2|psi> = <Q1 psi|Q2 psi>. No step
exponentiates a generator; the tests pin the recurrence and the column
against matrix exponentials and the moments against a general-order
Weyl-ordered reference.

Test-time only; the production key-rate path never calls into here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError, ZeroProbabilityError
from .moments import TwoModeCM, _source_stage

__all__ = [
    "FockTwoModeState",
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


@dataclass
class FockTwoModeState:
    """Normalized two-mode state as an (N+1) x (N+1) amplitude tensor."""

    amps: np.ndarray

    @property
    def n_max(self) -> int:
        return self.amps.shape[0] - 1

    def leakage(self) -> float:
        """Probability mass in the top 5 retained Fock levels of either mode."""
        probs = np.abs(self.amps) ** 2
        cut = self.n_max - _LEAK_LEVELS
        return float(probs[cut + 1 :, :].sum() + probs[:, cut + 1 :].sum())


def build_tmsc_fock(r: float, d: float, n_max: int) -> FockTwoModeState:
    """Displaced two-mode squeezed state, truncated at n_max per mode.

    The displacement d is the x-quadrature mean of each mode before
    squeezing, i.e. coherent amplitude alpha = d/2 in x = a + a' units. The
    state S(r) D(alpha) D(alpha)|00> is annihilated by
    a1 cosh r - a2' sinh r - alpha and by its mode-swapped twin, which fix
    the amplitudes exactly from psi(0, 0) = exp(-alpha^2 (1 + tanh r)) / cosh r:
    psi(0, n+1) = alpha psi(0, n) / (cosh r sqrt(n+1)) along the first row,
    then psi(n1+1, n2) = (alpha psi(n1, n2) + sinh r sqrt(n2) psi(n1, n2-1))
    / (cosh r sqrt(n1+1)) row by row. Every term is non-negative, so nothing
    cancels (the two-mode case of Miatto & Quesada, Quantum 4, 366 (2020)).

    Raises TruncationError when more than 1e-8 of probability lies above
    n_max or sits in the top 5 retained levels.
    """
    if n_max < _LEAK_LEVELS:
        raise ValueError(f"n_max={n_max} is too small to be meaningful")
    alpha = d / 2.0
    ch, sh = math.cosh(r), math.sinh(r)
    root = np.sqrt(np.arange(n_max + 1.0))
    raise_coef, scale = sh * root[1:], ch * root
    amps = np.empty((n_max + 1, n_max + 1))
    amps[0, 0] = math.exp(-alpha * alpha * (1.0 + math.tanh(r))) / ch
    amps[0, 1:] = amps[0, 0] * np.cumprod(alpha / scale[1:])
    for n1 in range(n_max):
        row = alpha * amps[n1]
        row[1:] += raise_coef * amps[n1, :-1]
        amps[n1 + 1] = row / scale[n1 + 1]
    kept = float(np.linalg.norm(amps))
    cropped = abs(1.0 - kept * kept)
    state = FockTwoModeState(amps / kept)
    if cropped + state.leakage() > _LEAK_TOL:
        raise TruncationError(
            f"truncation insufficient at n_max={n_max} for r={r}, d={d}: "
            f"mass above n_max {cropped:.3e}, top-level mass {state.leakage():.3e}"
        )
    return state


def apply_bs_and_project(
    state: FockTwoModeState, tau: float, k: int
) -> tuple[FockTwoModeState, float]:
    """Tap mode 2 with a vacuum ancilla and detect exactly k tap photons.

    Returns the normalized post-detection two-mode state and the detection
    probability. Because the ancilla starts in vacuum, only the |n, 0>
    input column of each fixed-photon-number beam-splitter block is needed,
    and it has the closed binomial form: mode-2 level j + k keeps j photons
    with amplitude sqrt(C(j+k, j)) sqrt(tau)^j (-sqrt(1-tau))^k.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if k < 0:
        raise ValueError("k must be >= 0")
    n_max = state.n_max
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    kept = max(0, n_max - k + 1)  # output levels j reachable from j + k
    binom = np.array([math.comb(level + k, k) for level in range(kept)], dtype=float)
    kept_amp = math.sqrt(tau) ** np.arange(kept)
    column = np.sqrt(binom) * kept_amp * (-math.sqrt(1.0 - tau)) ** k
    out[:, :kept] = state.amps[:, k : k + kept] * column
    prob = float(np.linalg.norm(out) ** 2)
    if prob < 1e-300:
        raise ZeroProbabilityError(
            f"{k}-photon detection has probability {prob:.1e} (treated as zero)"
        )
    return FockTwoModeState(out / math.sqrt(prob)), prob


def _quadrature(v: np.ndarray, op: str, root: np.ndarray) -> np.ndarray:
    """x = a + a' or p = i(a' - a) on the first axis of v, truncated at the top.

    root[n] = sqrt(n + 1), shaped to broadcast over the remaining axis.
    """
    lowered = np.zeros_like(v)
    lowered[:-1] = root * v[1:]
    raised = np.zeros_like(v)
    raised[1:] = root * v[:-1]
    return lowered + raised if op == "x" else 1j * (raised - lowered)


def _pair_moments(amps: np.ndarray, op: str, root: np.ndarray) -> tuple[float, ...]:
    """Means, variances and cross term of quadrature op on both modes.

    Returns (var1, var2, cov12, mean1, mean2). Applies op once per mode, so
    only the two applied tensors are alive besides amps.
    """
    q1 = _quadrature(amps, op, root)
    q2 = _quadrature(amps.T, op, root).T
    mean1, mean2 = np.vdot(amps, q1).real, np.vdot(amps, q2).real
    return (
        float(np.vdot(q1, q1).real - mean1**2),
        float(np.vdot(q2, q2).real - mean2**2),
        float(np.vdot(q1, q2).real - mean1 * mean2),
        float(mean1),
        float(mean2),
    )


def state_covariance(state: FockTwoModeState) -> TwoModeCM:
    """Means and covariance of a two-mode Fock state, four quadratures in all.

    Applies x1, x2 and then p1, p2 once each and reads every moment as an
    inner product: means <psi|Q psi>, second moments ||Q psi||^2, and cross
    terms <X1 psi|X2 psi> and <P1 psi|P2 psi>. These equal the
    Weyl-ordered moments exactly in the truncated space, because the
    truncated quadratures are Hermitian and act on different modes. The p
    means enter the p variances only; TwoModeCM carries the x means.
    """
    amps = np.asarray(state.amps, dtype=complex)
    root = np.sqrt(np.arange(1.0, state.n_max + 1))[:, None]
    vax, vbx, vcx, mean_x1, mean_x2 = _pair_moments(amps, "x", root)
    vap, vbp, vcp, _, _ = _pair_moments(amps, "p", root)
    return TwoModeCM(vax, vap, vbx, vbp, vcx, vcp, mean_x1, mean_x2)


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
    worst = (0.0, 0.0, 0.0)  # probability, covariance, means
    worst_params = (0.0, 0.0, 0.0, 0)
    for _ in range(points):
        r = rng.uniform(0.05, 1.0)
        d = rng.uniform(0.0, 2.0)
        tau = rng.uniform(0.3, 0.95)
        k = int(rng.integers(0, 3))
        n_max = suggested_truncation(r, d)

        state, prob = apply_bs_and_project(build_tmsc_fock(r, d, n_max), tau, k)
        closed_p, *closed = _source_stage(r, d, tau, k)
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
