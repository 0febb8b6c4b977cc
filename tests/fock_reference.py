"""Slow, direct references for the Fock oracle.

The oracle builds its state as one closed-form product, applies the beam
splitter through its closed-form vacuum-ancilla column, and reads the
covariance off x and w = a' - a applied once per mode. The row recurrence
below is the two-term recurrence that product solves; the dense and sparse
exponentials compute the same states from the generators themselves; and
fock_moment computes any symmetric-ordered moment up to total order 4 by
applying its operator words term by term. The tests pin the fast forms
against them.
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from psqkd.phase_space import TwoModeCM

# levels carried above n_max through the squeeze exponential, then cropped;
# with 10, the truncated generator bends the top kept levels by up to 6e-9 at r = 1
_PAD = 40


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def recurrence_tmsc_fock(r: float, d: float, n_max: int) -> np.ndarray:
    """Unnormalized amplitudes of S(r) D(d/2) D(d/2)|00> by the row recurrence.

    psi(0, 0) = exp(-alpha^2 (1 + tanh r)) / cosh r with alpha = d/2, then
    psi(0, n+1) = alpha psi(0, n) / (cosh r sqrt(n+1)) along the first row
    and psi(n1+1, n2) = (alpha psi(n1, n2) + sinh r sqrt(n2) psi(n1, n2-1))
    / (cosh r sqrt(n1+1)) row by row, from the annihilators
    a1 cosh r - a2' sinh r - alpha and its mode-swapped twin. Every term is
    non-negative, so nothing cancels.
    """
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
    return amps


def expm_tmsc_fock(r: float, d: float, n_max: int) -> np.ndarray:
    """Displaced two-mode squeezed state by exponentiating the squeezer.

    Coherent amplitude d/2 in both modes, then exp(r (a1' a2' - a1 a2)) on a
    space padded by 40 levels per mode, cropped back to n_max and
    renormalized.
    """
    dim = n_max + 1 + _PAD
    coherent = np.empty(dim)
    coherent[0] = math.exp(-d * d / 8.0)
    for n in range(1, dim):
        coherent[n] = coherent[n - 1] * (d / 2.0) / math.sqrt(n)
    vec = np.kron(coherent, coherent).astype(complex)
    if r != 0.0:
        a = scipy.sparse.csc_matrix(destroy(dim))
        adag = a.conj().T
        gen = r * (scipy.sparse.kron(adag, adag) - scipy.sparse.kron(a, a)).tocsc()
        vec = expm_multiply(gen, vec)
    amps = vec.reshape(dim, dim)[: n_max + 1, : n_max + 1]
    return amps / np.linalg.norm(amps)


def bs_block(total_n: int, tau: float, lo: int, hi: int) -> np.ndarray:
    """Beam-splitter unitary restricted to total photon number total_n.

    Basis is |j photons kept, total_n - j tapped> for j in [lo, hi]. The
    generator theta (b' c - c' b) with cos(theta) = sqrt(tau) is exponentiated
    directly; the result is real orthogonal with the minus sign on the
    reflected port.
    """
    theta = math.acos(math.sqrt(tau))
    size = hi - lo + 1
    gen = np.zeros((size, size))
    for idx, j in enumerate(range(lo, hi)):
        step = theta * math.sqrt((j + 1) * (total_n - j))
        gen[idx + 1, idx] = step
        gen[idx, idx + 1] = -step
    return scipy.linalg.expm(gen)


def bs_pair_unitary(tau: float, n_max: int) -> np.ndarray:
    """Full beam-splitter unitary on a truncated two-mode space.

    Returns the (n_max+1)^2 square matrix over basis |n2, n3>, exactly
    orthogonal by construction (block exponentials of antisymmetric
    generators); physically exact for total photon number <= n_max.
    """
    dim = n_max + 1
    u = np.zeros((dim * dim, dim * dim))
    for total_n in range(2 * n_max + 1):
        lo, hi = max(0, total_n - n_max), min(total_n, n_max)
        block = bs_block(total_n, tau, lo, hi)
        idx = [j * dim + (total_n - j) for j in range(lo, hi + 1)]
        u[np.ix_(idx, idx)] = block
    return u


def quadrature(v: np.ndarray, op: str, root: np.ndarray) -> np.ndarray:
    """x = a + a' or p = i(a' - a) on the first axis of v, truncated at the top.

    root[n] = sqrt(n + 1), shaped to broadcast over the remaining axis.
    """
    lowered = np.zeros_like(v)
    lowered[:-1] = root * v[1:]
    raised = np.zeros_like(v)
    raised[1:] = root * v[:-1]
    return lowered + raised if op == "x" else 1j * (raised - lowered)


def _weyl_apply(v: np.ndarray, n_x: int, n_p: int, root: np.ndarray) -> np.ndarray:
    """Symmetric (Weyl) ordered x^n_x p^n_p on the first axis of v.

    Averages the operator word over its distinct orderings; the rightmost
    operator of a word acts first.
    """
    words = set(itertools.permutations("x" * n_x + "p" * n_p))
    acc = np.zeros_like(v)
    for word in words:
        term = v
        for op in reversed(word):
            term = quadrature(term, op, root)
        acc += term
    return acc / len(words)


def fock_moment(state: np.ndarray, i: int, j: int, m: int, n: int) -> float:
    """Phase-space moment <x1^i p1^j x2^m p2^n> of a two-mode Fock state.

    Uses symmetric operator ordering, which is what moments of a Wigner
    density mean. Total order is capped at 4 so operator powers stay inside
    the truncation margin.
    """
    orders = (i, j, m, n)
    if any(o < 0 for o in orders):
        raise ValueError("moment orders must be non-negative")
    if sum(orders) > 4:
        raise ValueError(f"order {orders} too high for the truncation margin")
    amps = np.asarray(state, dtype=complex)
    root = np.sqrt(np.arange(1.0, state.shape[0]))[:, None]
    applied = _weyl_apply(_weyl_apply(amps, i, j, root).T, m, n, root).T
    val = np.vdot(amps, applied)
    assert abs(val.imag) < 1e-10, f"non-real moment {val}"
    return float(val.real)


def moment_covariance(state: np.ndarray) -> TwoModeCM:
    """Means and covariance of a two-mode Fock state from ten fock_moment calls."""
    m_x1 = fock_moment(state, 1, 0, 0, 0)
    m_p1 = fock_moment(state, 0, 1, 0, 0)
    m_x2 = fock_moment(state, 0, 0, 1, 0)
    m_p2 = fock_moment(state, 0, 0, 0, 1)
    return TwoModeCM(
        vax=fock_moment(state, 2, 0, 0, 0) - m_x1**2,
        vap=fock_moment(state, 0, 2, 0, 0) - m_p1**2,
        vbx=fock_moment(state, 0, 0, 2, 0) - m_x2**2,
        vbp=fock_moment(state, 0, 0, 0, 2) - m_p2**2,
        vcx=fock_moment(state, 1, 0, 1, 0) - m_x1 * m_x2,
        vcp=fock_moment(state, 0, 1, 0, 1) - m_p1 * m_p2,
        mean_x1=m_x1,
        mean_x2=m_x2,
    )
