"""Wigner densities, Laguerre recurrence, and beam-splitter matrix checks.

The Wigner layer and the recurrence live in `phase_space_reference`, next
to these tests; the package keeps only the source parameters and
`scaled_laguerre`. The independent routes used here:
  * Laguerre recurrence vs. the explicit binomial term sum.
  * Fock-state Wigner vs. a numerically integrated Hermite-function
    Wigner transform.
  * Two-mode Wigner values at the phase-space origin vs. the photon-number
    parity of the truncated Fock-basis state (W(0) = 4 <parity>).
  * Normalization vs. a Gauss-Legendre product rule over a +-10 sigma box
    in the 45-degree principal axes of the squeezing.
"""

import math

import numpy as np
import pytest

from phase_space_reference import (
    PhasePoint,
    bs_symplectic,
    laguerre,
    wigner_fock,
    wigner_pstmsc,
    wigner_tmsc,
)
from psqkd.errors import ZeroProbabilityError
from psqkd.fock_oracle import apply_bs_and_project, build_tmsc_fock
from psqkd.phase_space import SqueezedSourceParams, TwoModeCM, scaled_laguerre, source_stage

ORIGIN = PhasePoint(0.0, 0.0, 0.0, 0.0)

# symplectic form over (x1, p1, x2, p2)
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def laguerre_direct_sum(n: int, alpha: int, x: float) -> float:
    """Explicit binomial series, the second route for the recurrence test."""
    if n < 0:
        return 0.0
    return sum(
        (-1.0) ** j * math.comb(n + alpha, n - j) * x**j / math.factorial(j)
        for j in range(n + 1)
    )


def origin_wigner_parity(r: float, d: float, tau: float, k: int, n_max: int) -> float:
    """W(0,0,0,0) from the Fock state: 4 * expectation of (-1)^(n1+n2)."""
    state = build_tmsc_fock(r, d, n_max)
    if not (tau == 1.0 and k == 0):
        state, _ = apply_bs_and_project(state, tau, k)
    n1, n2 = np.indices(state.shape)
    return 4.0 * float(np.sum((-1.0) ** (n1 + n2) * np.abs(state) ** 2))


def hermite_wigner(n: int, x: float, p: float) -> float:
    """Single-mode Wigner of |n> by direct transform of the wavefunction."""

    def psi(u):
        h = np.polynomial.hermite.hermval(u / math.sqrt(2.0), [0.0] * n + [1.0])
        norm = (2.0 * math.pi) ** (-0.25) / math.sqrt(2.0**n * math.factorial(n))
        return norm * h * np.exp(-u * u / 4.0)

    ys = np.linspace(-16.0, 16.0, 4001)
    return 2.0 * float(np.trapezoid(psi(x + ys) * psi(x - ys) * np.cos(p * ys), ys))


def box_normalization(fn, params: SqueezedSourceParams, nodes: int = 48) -> float:
    """Integral over the +-10 sigma box, measure dx dp / (4 pi) per mode.

    The grid lives in the rotated axes u,v = (x1 +- x2)/sqrt2 and
    s,q = (p1 +- p2)/sqrt2 where the squeezing is axis-aligned, with the
    half-width set to ten standard deviations of each rotated quadrature.
    """
    cm = TwoModeCM(*source_stage(params.r, params.d, params.tau, params.k)[1:])
    sig = {
        "u": math.sqrt((cm.vax + cm.vbx + 2 * cm.vcx) / 2),
        "v": math.sqrt((cm.vax + cm.vbx - 2 * cm.vcx) / 2),
        "s": math.sqrt((cm.vap + cm.vbp + 2 * cm.vcp) / 2),
        "q": math.sqrt((cm.vap + cm.vbp - 2 * cm.vcp) / 2),
    }
    ctr = {
        "u": (cm.mean_x1 + cm.mean_x2) / math.sqrt(2),
        "v": (cm.mean_x1 - cm.mean_x2) / math.sqrt(2),
        "s": 0.0,
        "q": 0.0,
    }
    x, w = np.polynomial.legendre.leggauss(nodes)
    ax = {key: ctr[key] + 10.0 * sig[key] * x for key in sig}
    ww = {key: 10.0 * sig[key] * w for key in sig}
    inv = 1.0 / math.sqrt(2.0)
    total = 0.0
    for i, u in enumerate(ax["u"]):
        s, v, q = np.meshgrid(ax["s"], ax["v"], ax["q"], indexing="ij")
        pt = PhasePoint(inv * (u + v), inv * (s + q), inv * (u - v), inv * (s - q))
        total += ww["u"][i] * np.einsum(
            "i,j,k,ijk->", ww["s"], ww["v"], ww["q"], fn(pt, params)
        )
    return total / (4.0 * math.pi) ** 2


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 0.0, 3.7) == 1.0

    def test_negative_degree_is_zero(self):
        assert laguerre(-1, 1.0, 0.5) == 0.0
        assert laguerre(-2, 2.0, -3.0) == 0.0

    def test_degree_two_closed_form(self):
        # (x^2 - 4x + 2) / 2 at x = -1
        assert laguerre(2, 0.0, -1.0) == pytest.approx(3.5, abs=1e-14)

    def test_value_at_zero_is_binomial(self):
        assert laguerre(1, 1.0, 0.0) == pytest.approx(2.0, abs=1e-14)
        for n in range(6):
            for alpha in range(3):
                assert laguerre(n, float(alpha), 0.0) == pytest.approx(
                    math.comb(n + alpha, n), rel=1e-13
                )

    def test_recurrence_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(0, 11))
            alpha = int(rng.integers(0, 3))
            x = float(rng.uniform(-50.0, 50.0))
            direct = laguerre_direct_sum(n, alpha, x)
            rec = laguerre(n, float(alpha), x)
            assert rec == pytest.approx(direct, rel=1e-9, abs=1e-9)


def term_by_term(k: int, a: float, ax, alpha: int):
    """`scaled_laguerre` as it was before its coefficients were tabled: each
    term's binomial and factorial recomputed. The tabled form must equal it
    bit for bit."""
    total = 0.0
    for j in range(k + 1):
        coef = math.comb(k + alpha, k - j) * a ** (k - j) / math.factorial(j)
        total = total + coef * (-ax) ** j
    return total


class TestScaledLaguerre:
    def test_matches_plain_laguerre_when_a_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(0, 6))
            a = float(rng.uniform(0.05, 2.0))
            x = float(rng.uniform(-30.0, 30.0))
            expect = a**k * laguerre(k, 0.0, x)
            assert scaled_laguerre(k, a, a * x) == pytest.approx(expect, rel=1e-11)

    def test_a_zero_limit(self):
        # only the j = k term survives: (-ax)^k / k!
        assert scaled_laguerre(0, 0.0, 0.0) == 1.0
        assert scaled_laguerre(2, 0.0, -3.0) == pytest.approx(4.5)

    def test_array_argument(self):
        ax = np.array([0.0, -1.0, -2.0])
        vals = scaled_laguerre(1, 0.5, ax)
        assert np.allclose(vals, 0.5 - ax)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            scaled_laguerre(-1, 1.0, 0.0)

    def test_tabled_coefficients_match_the_term_by_term_sum_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        for k in range(41):
            for alpha in (0, 1, 2):
                for a in (0.0, 1.0, float(rng.uniform(0.0, 3.0))):
                    ax = rng.uniform(-40.0, 40.0, 6)
                    ax[0] = 0.0
                    got = scaled_laguerre(k, a, ax, alpha=alpha)
                    assert np.array_equal(got, term_by_term(k, a, ax, alpha)), (k, alpha, a)
                    for x in ax.tolist():
                        got = scaled_laguerre(k, a, x, alpha=alpha)
                        assert got == term_by_term(k, a, x, alpha), (k, alpha, a, x)


class TestWignerFock:
    def test_vacuum_peak(self):
        assert wigner_fock(0, 0.0, 0.0) == 2.0

    def test_single_photon_negativity(self):
        assert wigner_fock(1, 0.0, 0.0) == -2.0

    def test_against_hermite_transform(self):
        for n, x, p in [(2, 1.0, 1.0), (0, 0.3, -0.7), (1, 1.2, 0.4), (3, 0.7, -1.2)]:
            assert wigner_fock(n, x, p) == pytest.approx(
                hermite_wigner(n, x, p), abs=1e-10
            )

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError):
            wigner_fock(-1, 0.0, 0.0)


class TestWignerTmsc:
    def test_vacuum_origin(self):
        params = SqueezedSourceParams(r=0.0, d=0.0, tau=1.0, k=0)
        assert wigner_tmsc(ORIGIN, params) == pytest.approx(4.0, rel=1e-14)

    def test_displaced_vacuum_peak_at_mean(self):
        params = SqueezedSourceParams(r=0.0, d=1.0, tau=1.0, k=0)
        peak = PhasePoint(1.0, 0.0, 1.0, 0.0)
        assert wigner_tmsc(peak, params) == pytest.approx(4.0, rel=1e-14)

    def test_origin_value_against_fock_parity(self):
        params = SqueezedSourceParams(r=0.5, d=0.3, tau=1.0, k=0)
        expect = origin_wigner_parity(0.5, 0.3, 1.0, 0, 30)
        assert wigner_tmsc(ORIGIN, params) == pytest.approx(expect, abs=1e-8)

    def test_normalization(self):
        for r, d in [(0.5, 0.3), (1.0, 2.0)]:
            params = SqueezedSourceParams(r=r, d=d, tau=1.0, k=0)
            assert box_normalization(wigner_tmsc, params) == pytest.approx(
                1.0, abs=1e-6
            )


class TestBeamSplitterMatrix:
    def test_full_transmission_is_identity(self):
        assert np.allclose(bs_symplectic(1.0), np.eye(4))

    def test_full_reflection_is_signed_swap(self):
        eye = np.eye(2)
        zero = np.zeros((2, 2))
        expect = np.block([[zero, eye], [-eye, zero]])
        assert np.allclose(bs_symplectic(0.0), expect)

    def test_balanced_is_orthogonal_and_symplectic(self):
        s = bs_symplectic(0.5)
        assert np.allclose(s.T @ s, np.eye(4), atol=1e-12)
        assert np.allclose(s @ OMEGA @ s.T, OMEGA, atol=1e-12)

    def test_symplectic_at_random_tau(self):
        rng = np.random.default_rng(3)
        for tau in rng.uniform(0.0, 1.0, size=20):
            s = bs_symplectic(float(tau))
            assert np.allclose(s @ OMEGA @ s.T, OMEGA, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bs_symplectic(1.5)
        with pytest.raises(ValueError):
            bs_symplectic(-0.1)


class TestWignerPstmsc:
    def test_collapses_to_tmsc_without_subtraction(self):
        params = SqueezedSourceParams(r=0.7, d=1.3, tau=1.0, k=0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            pt = PhasePoint(*rng.uniform(-4.0, 4.0, size=4))
            assert wigner_pstmsc(pt, params) == pytest.approx(
                wigner_tmsc(pt, params), rel=1e-12, abs=1e-300
            )

    def test_origin_against_fock_parity_k1(self):
        params = SqueezedSourceParams(r=0.5, d=0.0, tau=0.8, k=1)
        expect = origin_wigner_parity(0.5, 0.0, 0.8, 1, 30)
        assert wigner_pstmsc(ORIGIN, params) == pytest.approx(expect, abs=1e-7)

    def test_origin_against_fock_parity_k2(self):
        params = SqueezedSourceParams(r=0.5, d=1.0, tau=0.8, k=2)
        expect = origin_wigner_parity(0.5, 1.0, 0.8, 2, 35)
        assert wigner_pstmsc(ORIGIN, params) == pytest.approx(expect, abs=1e-7)

    def test_normalization(self):
        cases = [
            (0.5, 1.0, 0.8, 1),
            (0.8, 2.0, 0.6, 2),
            (1.0, 0.0, 0.9, 1),
            (1.0, 2.0, 0.5, 2),
        ]
        for r, d, tau, k in cases:
            params = SqueezedSourceParams(r=r, d=d, tau=tau, k=k)
            assert box_normalization(wigner_pstmsc, params) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_zero_probability_event_raises(self):
        with pytest.raises(ZeroProbabilityError):
            wigner_pstmsc(ORIGIN, SqueezedSourceParams(r=0.5, d=1.0, tau=1.0, k=1))
        with pytest.raises(ZeroProbabilityError):
            wigner_pstmsc(ORIGIN, SqueezedSourceParams(r=0.0, d=0.0, tau=0.5, k=2))


class TestSourceParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SqueezedSourceParams(r=-0.1, d=0.0, tau=1.0, k=0)
        with pytest.raises(ValueError):
            SqueezedSourceParams(r=0.5, d=-1.0, tau=1.0, k=0)
        with pytest.raises(ValueError):
            SqueezedSourceParams(r=0.5, d=0.0, tau=1.2, k=0)
        with pytest.raises(ValueError):
            SqueezedSourceParams(r=0.5, d=0.0, tau=1.0, k=-1)
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            SqueezedSourceParams(r=0.5, d=0.0, tau=1.0, k=True)
