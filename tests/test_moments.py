"""Subtraction probability and closed-form covariance tests.

Frozen numbers below were produced by the truncated-Fock oracle
(`psqkd.fock_oracle.oracle_covariance`), which builds the state by brute
force and measures quadrature operators directly; the closed forms must
reproduce them.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from psqkd.errors import ZeroProbabilityError
from psqkd.fock_oracle import (
    _rel_dev,
    apply_bs_and_project,
    build_tmsc_fock,
    oracle_covariance,
    suggested_truncation,
)
from fock_reference import fock_moment
from keyrate_reference import symplectic_eigenvalues
from phase_space_reference import cm_matrix, cm_means, gauss_hermite_moments
from psqkd.phase_space import (
    SUBTRACTION_CAP,
    SqueezedSourceParams,
    TwoModeCM,
    _laguerre_ratios,
    _probability,
    source_stage,
)


def params(r=0.5, d=1.0, tau=0.8, k=1) -> SqueezedSourceParams:
    return SqueezedSourceParams(r=r, d=d, tau=tau, k=k)


def covariance(p: SqueezedSourceParams) -> TwoModeCM:
    return TwoModeCM(*source_stage(*dataclasses.astuple(p))[1:])


def probability(p: SqueezedSourceParams) -> float:
    """p_ps by the source stage's own formula, with nu and D computed
    afresh; 0.0 where `source_stage` raises ZeroProbabilityError."""
    nu = math.sinh(p.r)
    return _probability(p.r, p.d, p.tau, p.k, nu, 1.0 + (1.0 - p.tau) * nu * nu)


CM_FIELDS = ("vax", "vap", "vbx", "vbp", "vcx", "vcp", "mean_x1", "mean_x2")

# oracle_covariance(0.4, 1.0, 0.8, 1, n_max=40)
ORACLE_FROZEN = TwoModeCM(
    vax=0.9790759717923958,
    vap=1.8007755668538383,
    vbx=1.2285614477804203,
    vbp=1.3234586885961583,
    vcx=0.6725626137247827,
    vcp=-0.9518062785602457,
    mean_x1=2.2701360647742432,
    mean_x2=1.5988273271491416,
)


class TestSubtractionProbability:
    def test_tau_one_keeps_everything(self):
        assert probability(params(tau=1.0, k=0)) == 1.0
        assert probability(params(r=1.3, d=2.0, tau=1.0, k=0)) == 1.0

    def test_tau_one_cannot_subtract(self):
        assert probability(params(tau=1.0, k=1)) == 0.0
        assert probability(params(tau=1.0, k=3)) == 0.0

    def test_known_value_without_displacement(self):
        # closed form reduces to (1-tau) nu^2 / D^2 at k=1, d=0
        p = probability(params(r=0.5, d=0.0, tau=0.8, k=1))
        nu2 = math.sinh(0.5) ** 2
        big_d = 1.0 + 0.2 * nu2
        assert p == pytest.approx(0.2 * nu2 / big_d**2, rel=1e-12)
        assert p == pytest.approx(0.0489, abs=5e-5)

    def test_matches_oracle_with_displacement(self):
        state = build_tmsc_fock(0.5, 1.0, 40)
        _, prob = apply_bs_and_project(state, 0.8, 1)
        assert probability(params(r=0.5, d=1.0, tau=0.8, k=1)) == (
            pytest.approx(prob, rel=1e-7)
        )

    def test_empty_source_limit(self):
        # nothing in the tap: k=0 certain, k>=1 impossible
        assert probability(params(r=0.0, d=0.0, tau=0.5, k=0)) == 1.0
        assert probability(params(r=0.0, d=0.0, tau=0.5, k=2)) == 0.0

    def test_coherent_only_source_is_poissonian(self):
        # r=0: the tap sees a coherent beam of mean photon number
        # (1-tau) d^2 / 4, so counts are Poisson
        d, tau = 1.4, 0.6
        mean_n = (1.0 - tau) * d * d / 4.0
        for k in range(5):
            expect = math.exp(-mean_n) * mean_n**k / math.factorial(k)
            got = probability(params(r=0.0, d=d, tau=tau, k=k))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_completeness_over_k(self):
        for r, d, tau in [(0.5, 1.0, 0.8), (1.0, 2.0, 0.3), (0.8, 0.0, 0.5)]:
            total = sum(
                probability(params(r=r, d=d, tau=tau, k=k))
                for k in range(41)
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_each_probability_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = probability(
                params(
                    r=float(rng.uniform(0.0, 1.5)),
                    d=float(rng.uniform(0.0, 3.0)),
                    tau=float(rng.uniform(0.0, 1.0)),
                    k=int(rng.integers(0, 5)),
                )
            )
            assert 0.0 <= p <= 1.0

    def test_source_stage_reads_the_same_probability_bit_for_bit(self):
        # the stage shares cosh r, sinh r and D with the probability formula;
        # sharing them must not move p_ps by one bit, in any branch
        rng = np.random.default_rng(20261018)
        box = [
            params(
                r=float(rng.uniform(0.0, 4.0)),
                d=float(rng.uniform(0.0, 20.0)),
                tau=float(rng.uniform(0.0, 1.0)),
                k=int(rng.integers(0, SUBTRACTION_CAP + 1)),
            )
            for _ in range(500)
        ]
        r_zero = [params(r=0.0, d=d, tau=0.6, k=k) for d in (0.5, 2.0) for k in (0, 1, 3)]
        tau_one = [params(r=r, d=d, tau=1.0, k=0) for r in (0.0, 0.7) for d in (0.0, 2.0)]
        # a subnormal nu^2 with y = 1e308, and y past the float range
        small_nu = [params(r=1e-160, d=2e-6, tau=0.9, k=k) for k in (0, 1, 2)]
        large_y = [params(r=1e-160, d=1.0, tau=0.9, k=k) for k in (0, 1, 2)]
        for p in [*small_nu, *large_y]:
            g = p.d / (2.0 * math.sinh(p.r))
            assert (g * g == math.inf) == (p in large_y)
        for p in [*box, *r_zero, *tau_one, *small_nu, *large_y]:
            try:
                stage = source_stage(*dataclasses.astuple(p))
            except ZeroProbabilityError:
                assert probability(p) == 0.0
                continue
            assert stage[0] == probability(p), p

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="stability cap"):
            covariance(params(k=SUBTRACTION_CAP + 1))


# both sides of 1, where the sums switch to a = 1/y, and of 1e8 and 1e16, and
# on to where R2 underflows
RATIO_ARGS = (
    0.0, 1e-12, 1e-3, 0.5, 0.999, 1.0, 1.001, 7.0, 1e4,
    9.9e7, 1e8, 1.01e8, 1e12, 9.9e15, 1e16, 1.01e16, 1e30, 1e100, 1e200,
)


@pytest.mark.parametrize("k", [*range(1, 17), 20, 24, 25, 30, 40])
def test_laguerre_ratios_match_mpmath(k):
    with mpmath.workdps(60):
        for y in RATIO_ARGS:
            l0 = mpmath.laguerre(k, 0, -y)
            ref1 = mpmath.laguerre(k - 1, 1, -y) / l0
            ref2 = mpmath.laguerre(k - 2, 2, -y) / l0 if k >= 2 else mpmath.mpf(0)
            r1, r2 = _laguerre_ratios(k, y)
            for got, ref in ((r1, ref1), (r2, ref2)):
                if ref < 1e-300:  # the float result underflows
                    continue
                assert abs(got - ref) <= 1e-12 * ref, (k, y, got, float(ref))
            if k == 1:
                assert r2 == 0.0


def test_source_stage_matches_gauss_hermite_past_the_fock_box():
    # the Fock oracle's checked box stops at r <= 1.5, d <= 3. The reference
    # integrates the Wigner density itself, in the squeezing's principal
    # axes, so its rounding stays small as tau -> 1
    rng = np.random.default_rng(20261018)

    def box(tau_lo: float, count: int) -> list:
        return [
            (
                4.0 - float(rng.uniform(0.0, 4.0)),  # r in (0, 4]
                float(rng.uniform(0.0, 20.0)),
                float(rng.uniform(tau_lo, 0.999)),
                int(rng.integers(0, 9)),
            )
            for _ in range(count)
        ]

    # the whole box, then its tau -> 1 edge, where the squeezing is least damped
    seeded = box(0.3, 100) + box(0.99, 50)
    corners = [
        (4.0, 20.0, 0.5, 5), (1.5, 3.0, 0.3, 8), (4.0, 20.0, 0.999, 8), (4.0, 0.0, 0.999, 8)
    ]
    for r, d, tau, k in [*corners, *seeded]:
        p = params(r=r, d=d, tau=tau, k=k)
        closed, ref = covariance(p), gauss_hermite_moments(p)
        for field in CM_FIELDS:
            dev = _rel_dev(getattr(closed, field), getattr(ref, field))
            assert dev <= 1e-10, (p, field, dev)


class TestCovariance:
    def test_no_subtraction_is_tmsv(self):
        for r in (0.2, 0.6, 1.1):
            cm = covariance(params(r=r, d=0.7, tau=1.0, k=0))
            ch, sh = math.cosh(2 * r), math.sinh(2 * r)
            assert cm.vax == pytest.approx(ch, abs=1e-9)
            assert cm.vap == pytest.approx(ch, abs=1e-9)
            assert cm.vbx == pytest.approx(ch, abs=1e-9)
            assert cm.vbp == pytest.approx(ch, abs=1e-9)
            assert cm.vcx == pytest.approx(sh, abs=1e-9)
            assert cm.vcp == pytest.approx(-sh, abs=1e-9)

    def test_tmsc_mean_is_amplified_displacement(self):
        cm = covariance(params(r=0.6, d=0.9, tau=1.0, k=0))
        assert cm.mean_x1 == pytest.approx(0.9 * math.exp(0.6), rel=1e-12)
        assert cm.mean_x2 == pytest.approx(0.9 * math.exp(0.6), rel=1e-12)

    def test_tau_to_one_limit_is_continuous(self):
        exact = covariance(params(r=0.8, d=1.2, tau=1.0, k=0))
        near = covariance(params(r=0.8, d=1.2, tau=1.0 - 1e-11, k=0))
        for field in CM_FIELDS:
            assert getattr(near, field) == pytest.approx(
                getattr(exact, field), abs=1e-9
            )

    def test_subtracted_tmsv_closed_form(self):
        # d=0: Laguerre ratios collapse to constants, variances to
        # (E + 2 mu^2 k) / D and friends
        r, tau, k = 0.5, 0.8, 1
        cm = covariance(params(r=r, d=0.0, tau=tau, k=k))
        mu2, nu2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        big_d = mu2 - tau * nu2
        big_e = mu2 + tau * nu2
        assert cm.vax == pytest.approx((big_e + 2 * mu2 * k) / big_d, rel=1e-12)
        assert cm.vax == cm.vap
        assert cm.vbx == pytest.approx((big_e + 2 * tau * nu2 * k) / big_d, rel=1e-12)
        assert cm.vbx == cm.vbp
        assert cm.vcx == pytest.approx(
            2 * math.cosh(r) * math.sinh(r) * math.sqrt(tau) * (1 + k) / big_d,
            rel=1e-12,
        )
        assert cm.vcx == -cm.vcp
        assert cm.mean_x1 == 0.0
        assert cm.mean_x2 == 0.0

    def test_subtracted_tmsv_matches_oracle(self):
        for k, n_max in ((1, 30), (2, 35)):
            closed = covariance(params(r=0.5, d=0.0, tau=0.8, k=k))
            oracle = oracle_covariance(0.5, 0.0, 0.8, k, n_max)
            for field in CM_FIELDS:
                assert getattr(closed, field) == pytest.approx(
                    getattr(oracle, field), abs=1e-7
                )

    def test_frozen_oracle_values(self):
        closed = covariance(params(r=0.4, d=1.0, tau=0.8, k=1))
        for field in CM_FIELDS:
            assert getattr(closed, field) == pytest.approx(
                getattr(ORACLE_FROZEN, field), abs=1e-9
            )

    def test_k2_with_displacement_matches_oracle(self):
        closed = covariance(params(r=0.5, d=1.0, tau=0.8, k=2))
        oracle = oracle_covariance(0.5, 1.0, 0.8, 2, 35)
        for field in CM_FIELDS:
            assert getattr(closed, field) == pytest.approx(
                getattr(oracle, field), abs=1e-6
            )

    def test_no_squeezing_leaves_coherent_state_unchanged(self):
        # subtracting from a coherent tap is an eigen-operation
        cm = covariance(params(r=0.0, d=1.5, tau=0.64, k=2))
        assert (cm.vax, cm.vap, cm.vbx, cm.vbp) == (1.0, 1.0, 1.0, 1.0)
        assert (cm.vcx, cm.vcp) == (0.0, 0.0)
        assert cm.mean_x1 == pytest.approx(1.5)
        assert cm.mean_x2 == pytest.approx(0.8 * 1.5)

    def test_no_squeezing_branch_matches_oracle(self):
        closed = covariance(params(r=0.0, d=1.5, tau=0.64, k=1))
        oracle = oracle_covariance(0.0, 1.5, 0.64, 1, 30)
        for field in CM_FIELDS:
            assert getattr(closed, field) == pytest.approx(
                getattr(oracle, field), abs=1e-8
            )

    @pytest.mark.parametrize("k", [1, 2])
    def test_vanishing_squeezing_tends_to_the_coherent_product(self, k):
        # 1/nu^2 underflows below r ~ 1e-162 and y overflows below ~1e-154
        ref = source_stage(0.0, 2.0, 0.9, k)
        for j in range(301):
            got = source_stage(10.0**-j, 2.0, 0.9, k)
            assert all(map(math.isfinite, got)), j
            if j >= 14:  # the moments leave the limit at O(r)
                for value, expect in zip(got, ref):
                    assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect)), j

    def test_zero_probability_event_raises(self):
        with pytest.raises(ZeroProbabilityError):
            covariance(params(tau=1.0, k=1))
        with pytest.raises(ZeroProbabilityError):
            covariance(params(r=0.0, d=0.0, tau=0.5, k=1))
        # d^2 e^{2r} and D^2 both overflow, so exp(-y D A) underflows to 0
        # where y A = inf / inf; p_ps is 0, not NaN
        for r, d in ((345.73, 1e5), (354.0, 20.0)):
            with pytest.raises(ZeroProbabilityError):
                source_stage(r, d, 0.9, 1)
            assert probability(params(r=r, d=d, tau=0.9, k=1)) == 0.0

    def test_physicality_on_random_grid(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            p = params(
                r=float(rng.uniform(0.05, 2.5)),
                d=float(rng.uniform(0.0, 4.0)),
                tau=float(rng.uniform(0.05, 1.0)),
                k=int(rng.integers(0, 4)),
            )
            if probability(p) <= 0.0:
                continue
            cm = covariance(p)
            # uncertainty products; single diagonals may dip below vacuum
            # (see test_conditional_squeezing_below_vacuum)
            assert cm.vax * cm.vap >= 1.0 - 1e-9
            assert cm.vbx * cm.vbp >= 1.0 - 1e-9
            lam1, lam2 = symplectic_eigenvalues(*dataclasses.astuple(cm)[:6])
            assert lam2 >= 1.0 - 1e-9
            assert lam1 >= lam2
            if p.d == 0.0 or p.k == 0:
                # without the displacement-conditioning effect every
                # diagonal stays at or above the vacuum level
                assert min(cm.vax, cm.vap, cm.vbx, cm.vbp) >= 1.0 - 1e-9

    def test_conditional_squeezing_below_vacuum(self):
        # subtracting photons from a displaced squeezed source can push one
        # x variance below vacuum while the uncertainty product stays legal;
        # the Fock oracle confirms the closed form at this point
        p = params(r=0.3827, d=1.0047, tau=0.7818, k=2)
        closed = covariance(p)
        assert closed.vax < 1.0
        oracle = oracle_covariance(p.r, p.d, p.tau, p.k, 60)
        assert closed.vax == pytest.approx(oracle.vax, abs=1e-8)
        assert closed.vax * closed.vap >= 1.0
        assert symplectic_eigenvalues(*dataclasses.astuple(closed)[:6])[1] >= 1.0 - 1e-9

    def test_x_variances_survive_p_reflection(self):
        # flipping p -> -p conjugates Fock amplitudes; every second moment
        # is even in p, so the reflected oracle must still match
        state = build_tmsc_fock(0.5, 1.0, suggested_truncation(0.5, 1.0))
        state, _ = apply_bs_and_project(state, 0.8, 1)
        reflected = np.conj(state)
        closed = covariance(params(r=0.5, d=1.0, tau=0.8, k=1))
        mean1 = fock_moment(reflected, 1, 0, 0, 0)
        mean2 = fock_moment(reflected, 0, 0, 1, 0)
        assert fock_moment(reflected, 2, 0, 0, 0) - mean1**2 == pytest.approx(
            closed.vax, abs=1e-7
        )
        assert fock_moment(reflected, 0, 0, 2, 0) - mean2**2 == pytest.approx(
            closed.vbx, abs=1e-7
        )
        assert fock_moment(reflected, 0, 2, 0, 0) == pytest.approx(
            closed.vap, abs=1e-7
        )
        assert fock_moment(reflected, 0, 0, 0, 2) == pytest.approx(
            closed.vbp, abs=1e-7
        )

    def test_matrix_layout(self):
        cm = covariance(params())
        mat = cm_matrix(cm)
        assert np.allclose(mat, mat.T)
        # x-p cross terms vanish
        assert mat[0, 1] == mat[0, 3] == mat[2, 1] == mat[2, 3] == 0.0
        assert np.allclose(cm_means(cm), [cm.mean_x1, 0.0, cm.mean_x2, 0.0])


class TestLowOrderMoments:
    def test_x1x2_matches_oracle(self):
        # the raw moment <x1 x2> is the covariance entry plus the means' product
        state = build_tmsc_fock(0.5, 1.0, suggested_truncation(0.5, 1.0))
        state, _ = apply_bs_and_project(state, 0.8, 1)
        oracle = fock_moment(state, 1, 0, 1, 0)
        cm = covariance(params())
        assert cm.vcx + cm.mean_x1 * cm.mean_x2 == pytest.approx(
            oracle, abs=1e-7
        )
