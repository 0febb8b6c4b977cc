"""Matrix-exponential references for the Fock oracle.

The oracle builds its state by an amplitude recurrence and applies the
beam splitter through its closed-form vacuum-ancilla column. The dense and
sparse exponentials below compute the same objects the slow, direct way,
from the generators themselves; the tests pin the fast forms against them.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from psqkd.fock_oracle import FockTwoModeState

# levels carried above n_max through the squeeze exponential, then cropped;
# with 10, the truncated generator bends the top kept levels by up to 6e-9 at r = 1
_PAD = 40


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def expm_tmsc_fock(r: float, d: float, n_max: int) -> FockTwoModeState:
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
    return FockTwoModeState(amps / np.linalg.norm(amps))


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
