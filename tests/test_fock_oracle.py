"""Self-checks for the truncated photon-number reference implementation."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import psqkd.fock_oracle as fock_oracle
from fock_reference import (
    bs_block,
    bs_pair_unitary,
    destroy,
    expm_tmsc_fock,
    fock_moment,
    moment_covariance,
    recurrence_tmsc_fock,
)
from mp_reference import fock_oracle_50
from psqkd.errors import TruncationError, ZeroProbabilityError
from psqkd.fock_oracle import (
    _rel_dev,
    apply_bs_and_project,
    build_tmsc_fock,
    compare_random_grid,
    oracle_covariance,
    state_covariance,
    suggested_truncation,
)
from psqkd.phase_space import TwoModeCM, source_stage

CM_FIELDS = ("vax", "vap", "vbx", "vbp", "vcx", "vcp", "mean_x1", "mean_x2")


class TestBuildState:
    def test_vacuum(self):
        state = build_tmsc_fock(0.0, 0.0, 5)
        assert state.shape == (6, 6)
        assert state[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert np.sum(np.abs(state)) == pytest.approx(1.0, rel=1e-14)

    def test_two_mode_squeezing_gives_schmidt_diagonal(self):
        r = 0.5
        state = build_tmsc_fock(r, 0.0, 30)
        th = math.tanh(r)
        for n in range(6):
            assert state[n, n].real == pytest.approx(
                th**n / math.cosh(r), rel=1e-10
            )
        off = state - np.diag(np.diag(state))
        assert np.max(np.abs(off)) < 1e-12

    def test_normalized(self):
        state = build_tmsc_fock(0.7, 1.5, suggested_truncation(0.7, 1.5))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert fock_oracle._leakage(state) < 1e-8

    def test_truncation_guard_fires_when_too_small(self):
        with pytest.raises(TruncationError):
            build_tmsc_fock(1.2, 1.0, 16)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            build_tmsc_fock(0.3, 0.0, 3)

    @pytest.mark.parametrize(
        "r, d, error, message",
        [
            (math.nan, 1.0, ValueError, "r must be finite and >= 0, got nan"),
            (math.inf, 1.0, ValueError, "r must be finite and >= 0, got inf"),
            (-0.5, 1.0, ValueError, "r must be finite and >= 0, got -0.5"),
            (0.5, math.nan, ValueError, "d must be finite and >= 0, got nan"),
            # psi(0, 0) underflows: d^2 overflows, or cosh r past r = 710.47
            (0.5, 1e200, TruncationError, r"psi\(0, 0\) underflows"),
            (0.5, 1.7e308, TruncationError, r"psi\(0, 0\) underflows"),
            (800.0, 1.0, TruncationError, r"psi\(0, 0\) underflows"),
            # psi(0, 0) > 0, but every retained amplitude squared underflows
            (700.0, 0.0, TruncationError, r"mass above n_max 1\.000e\+00"),
            (0.0, 70.0, TruncationError, r"mass above n_max 1\.000e\+00"),
        ],
    )
    def test_refuses_a_state_it_cannot_hold(self, r, d, error, message):
        # a ValueError in the record's words or a TruncationError, never a
        # NaN state, a RuntimeWarning or a math error
        with pytest.raises(error, match=message):
            build_tmsc_fock(r, d, 30)

    @pytest.mark.parametrize(
        "r, d", [(0.0, 1.3), (0.05, 0.0), (0.4, 0.7), (1.0, 0.0), (1.0, 2.0)]
    )
    def test_product_matches_squeezer_exponential(self, r, d):
        n_max = suggested_truncation(r, d)
        got = build_tmsc_fock(r, d, n_max)
        reference = expm_tmsc_fock(r, d, n_max)
        assert np.max(np.abs(got - reference)) < 1e-12

    def test_product_matches_row_recurrence(self):
        rng = np.random.default_rng(20261020)
        edges = [(0.0, 0.0), (0.0, 1.7), (0.8, 0.0), (1e-9, 0.0), (1e-9, 1.2), (1.5, 3.0)]
        box = [(rng.uniform(0.0, 1.5), rng.uniform(0.0, 3.0)) for _ in range(40)]
        for r, d in edges + box:
            n_max = suggested_truncation(r, d)
            while True:  # the wide box's corner outgrows suggested_truncation
                try:
                    got = build_tmsc_fock(r, d, n_max)
                    break
                except TruncationError:
                    assert n_max < 500, (r, d, n_max)
                    n_max += n_max // 2
            reference = recurrence_tmsc_fock(r, d, n_max)
            reference /= np.linalg.norm(reference)
            assert np.max(np.abs(got - reference)) <= 1e-15, (r, d, n_max)

    @pytest.mark.parametrize("r, d", [(1.0, 2.0), (0.05, 2.0), (1.0, 0.0), (1e-9, 0.5)])
    def test_large_cutoffs_are_finite_and_silent(self, r, d):
        # the product's partial products are entries of Q, never above 1, so
        # no cutoff overflows where the recurrence stays finite
        base = suggested_truncation(r, d)
        for n_max in (base, 2 * base, 400):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = build_tmsc_fock(r, d, n_max)
            reference = recurrence_tmsc_fock(r, d, n_max)
            reference /= np.linalg.norm(reference)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - reference)) <= 1e-15, n_max

    def test_column_blocks_match_row_recurrence(self):
        # from n_max 512 one row exceeds 64^3 multiply-adds, and each row's
        # product is split by columns
        got = build_tmsc_fock(1.0, 2.0, 520)
        reference = recurrence_tmsc_fock(1.0, 2.0, 520)
        reference /= np.linalg.norm(reference)
        assert np.max(np.abs(got - reference)) <= 1e-15


class TestBeamSplitterUnitary:
    def test_orthogonal(self):
        for tau in (0.3, 0.7):
            u = bs_pair_unitary(tau, 12)
            assert np.max(np.abs(u @ u.T - np.eye(u.shape[0]))) < 1e-10

    def test_transmits_everything_at_tau_one(self):
        u = bs_pair_unitary(1.0, 6)
        assert np.max(np.abs(np.abs(u) - np.eye(u.shape[0]))) < 1e-12


def _projected_columns(tau, n_max):
    """cols[n, j] = <j, n-j| U |n, 0> as apply_bs_and_project applies it.

    Projects the state sum_n |n, n> / sqrt(n_max + 1), whose first mode labels
    the second mode's input level, so that k tap photons leave the
    unnormalized amplitude cols[j + k, j] / sqrt(n_max + 1) at [j + k, j].
    """
    dim = n_max + 1
    diagonal = np.eye(dim, dtype=complex) / math.sqrt(dim)
    cols = np.zeros((dim, dim))
    for k in range(dim):
        try:
            out, prob = apply_bs_and_project(diagonal, tau, k)
        except ZeroProbabilityError:
            continue
        for j in range(dim - k):
            cols[j + k, j] = out[j + k, j].real * math.sqrt(prob * dim)
    return cols


class TestClosedFormColumn:
    @pytest.mark.parametrize("tau", [0.3, 0.77, 1.0])
    def test_matches_expm_blocks_up_to_96(self, tau):
        cols = _projected_columns(tau, 96)
        for n in range(97):
            reference = bs_block(n, tau, 0, n)[:, n]
            assert np.max(np.abs(cols[n, : n + 1] - reference)) < 1e-13, n

    @pytest.mark.parametrize("tau", [0.3, 0.77, 1.0])
    def test_matches_pair_unitary(self, tau):
        n_max = 16
        dim = n_max + 1
        u = bs_pair_unitary(tau, n_max)
        cols = _projected_columns(tau, n_max)
        for n in range(dim):
            reference = [u[j * dim + (n - j), n * dim] for j in range(n + 1)]
            assert np.max(np.abs(cols[n, : n + 1] - reference)) < 1e-13, n


class TestProjection:
    def test_more_tap_photons_than_levels(self):
        state = np.ones((9, 9), dtype=complex) / 9.0
        _, prob = apply_bs_and_project(state, 0.5, 8)
        assert prob > 0.0
        for k in (9, 20):
            with pytest.raises(ZeroProbabilityError):
                apply_bs_and_project(state, 0.5, k)

    @pytest.mark.parametrize(
        "tau, k, message",
        [
            (1.5, 1, r"tau must lie in \[0, 1\], got 1.5"),
            (0.5, -1, "k must be a non-negative integer, got -1"),
            (0.5, True, "k must be a non-negative integer, got True"),
            (0.5, 1.5, "k must be a non-negative integer, got 1.5"),
        ],
    )
    def test_rejects_an_impossible_tap(self, tau, k, message):
        # in SqueezedSourceParams' words
        with pytest.raises(ValueError, match=message):
            apply_bs_and_project(build_tmsc_fock(0.5, 0.8, 40), tau, k)

    def test_full_transmission_keeps_all_mass(self):
        state = build_tmsc_fock(0.5, 0.8, 40)
        _, prob = apply_bs_and_project(state, 1.0, 0)
        assert prob == pytest.approx(1.0, abs=1e-10)

    def test_full_transmission_never_scatters_photons(self):
        state = build_tmsc_fock(0.5, 0.0, 30)
        with pytest.raises(ZeroProbabilityError):
            apply_bs_and_project(state, 1.0, 1)

    def test_probability_matches_closed_form(self):
        for r, d, tau, k in [(0.5, 0.0, 0.8, 1), (0.4, 1.0, 0.7, 2), (0.3, 0.5, 0.9, 0)]:
            state = build_tmsc_fock(r, d, suggested_truncation(r, d))
            _, prob = apply_bs_and_project(state, tau, k)
            assert prob == pytest.approx(source_stage(r, d, tau, k)[0], rel=1e-8)

    def test_probabilities_sum_to_one(self):
        state = build_tmsc_fock(0.4, 0.6, 40)
        total = 0.0
        for k in range(30):
            try:
                _, prob = apply_bs_and_project(state, 0.75, k)
            except ZeroProbabilityError:
                break
            total += prob
        assert total == pytest.approx(1.0, abs=1e-9)


def _subtracted_state() -> np.ndarray:
    state, _ = apply_bs_and_project(build_tmsc_fock(0.5, 1.0, 50), 0.7, 2)
    return state


def _rotated_state() -> np.ndarray:
    """A subtracted state with both modes rotated in phase space.

    The rotation makes the amplitudes complex, so that moments odd in p do
    not vanish.
    """
    state = _subtracted_state()
    levels = np.arange(state.shape[0])
    return state * np.exp(0.4j * levels)[:, None] * np.exp(-0.7j * levels)


def _assert_matches_moment_reference(state, context=None):
    got, reference = state_covariance(state), moment_covariance(state)
    for field in CM_FIELDS:
        dev = _rel_dev(getattr(got, field), getattr(reference, field))
        assert dev <= 1e-12, (field, context)


class TestMoments:
    def test_vacuum_quadrature_variance(self):
        vac = build_tmsc_fock(0.0, 0.0, 8)
        assert fock_moment(vac, 2, 0, 0, 0) == pytest.approx(1.0, rel=1e-12)
        assert fock_moment(vac, 0, 2, 0, 0) == pytest.approx(1.0, rel=1e-12)
        assert fock_moment(vac, 1, 0, 0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_cross_correlation(self):
        r = 0.5
        state = build_tmsc_fock(r, 0.0, 40)
        assert fock_moment(state, 1, 0, 1, 0) == pytest.approx(
            math.sinh(2 * r), rel=1e-10
        )
        assert fock_moment(state, 0, 1, 0, 1) == pytest.approx(
            -math.sinh(2 * r), rel=1e-10
        )

    def test_displaced_mean_matches_closed_form(self):
        state = build_tmsc_fock(0.4, 1.0, 40)
        state, _ = apply_bs_and_project(state, 0.8, 1)
        cm = TwoModeCM(*source_stage(0.4, 1.0, 0.8, 1)[1:])
        assert fock_moment(state, 1, 0, 0, 0) == pytest.approx(cm.mean_x1, abs=1e-8)
        assert fock_moment(state, 0, 0, 1, 0) == pytest.approx(cm.mean_x2, abs=1e-8)

    def test_matches_dense_weyl_reference(self):
        state = _rotated_state()
        dim = state.shape[0]
        a = destroy(dim)
        x = a + a.T
        p = 1j * (a.T - a)

        def weyl(n_x, n_p):
            words = set(itertools.permutations("x" * n_x + "p" * n_p))
            acc = np.zeros((dim, dim), dtype=complex)
            for word in words:
                prod = np.eye(dim, dtype=complex)
                for op in word:
                    prod = prod @ (x if op == "x" else p)
                acc += prod
            return acc / len(words)

        for orders in itertools.product(range(5), repeat=4):
            if sum(orders) > 4:
                continue
            i, j, m, n = orders
            w1, w2 = weyl(i, j), weyl(m, n)
            reference = np.vdot(state, w1 @ state @ w2.T).real
            got = fock_moment(state, *orders)
            assert abs(got - reference) <= 1e-12 * max(1.0, abs(reference)), orders

    def test_order_cap(self):
        vac = build_tmsc_fock(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            fock_moment(vac, 3, 2, 0, 0)
        with pytest.raises(ValueError):
            fock_moment(vac, -1, 0, 0, 0)


class TestStateCovariance:
    def test_matches_moment_reference_on_oracle_box(self):
        # the box and truncation of compare_random_grid
        rng = np.random.default_rng(20261019)
        for _ in range(50):
            r = rng.uniform(0.05, 1.0)
            d = rng.uniform(0.0, 2.0)
            tau = rng.uniform(0.3, 0.95)
            k = int(rng.integers(0, 3))
            state = build_tmsc_fock(r, d, suggested_truncation(r, d))
            state, _ = apply_bs_and_project(state, tau, k)
            _assert_matches_moment_reference(state, (r, d, tau, k))

    def test_matches_moment_reference_on_rotated_state(self):
        state = _rotated_state()
        assert abs(fock_moment(state, 0, 1, 0, 0)) > 0.1
        assert abs(fock_moment(state, 0, 0, 0, 1)) > 0.1
        _assert_matches_moment_reference(state)

    @pytest.mark.parametrize("rotated", [False, True], ids=["real", "complex"])
    def test_applies_four_quadratures(self, monkeypatch, rotated):
        # x and w once per mode, in the state's own dtype: float64 for the
        # real subtracted state, complex for the rotated one; four means and
        # six second moments, each one inner product
        state = _rotated_state() if rotated else _subtracted_state()
        calls = []
        inner = fock_oracle._vdot

        def counting(a, b):
            calls.append((a.dtype, b.dtype))
            return inner(a, b)

        monkeypatch.setattr(fock_oracle, "_vdot", counting)
        state_covariance(state)
        dtype = np.dtype(complex if rotated else float)
        assert calls == [(dtype, dtype)] * 10

    def test_real_state_stays_float64(self):
        state = build_tmsc_fock(0.5, 1.0, 50)
        assert state.dtype == np.float64
        state, prob = apply_bs_and_project(state, 0.7, 2)
        assert state.dtype == np.float64
        assert type(prob) is float
        cm = state_covariance(state)
        assert all(type(getattr(cm, field)) is float for field in CM_FIELDS)


class TestFiftyDigitOracle:
    # the README grid's and the seed-11 grid's worst points, and one d = 0 point
    @pytest.mark.parametrize(
        "r, d, tau, k",
        [
            (0.9885354810038335, 0.34832581573940136, 0.7520199599580126, 1),
            (0.17328525192933308, 1.8966569065835501, 0.7042243353176487, 2),
            (0.6, 0.0, 0.8, 1),
        ],
    )
    def test_build_projection_and_covariance(self, r, d, tau, k):
        n_max = suggested_truncation(r, d)
        built, prob, projected, cm = fock_oracle_50(r, d, tau, k, n_max)
        state = build_tmsc_fock(r, d, n_max)
        assert np.max(np.abs(state - np.array(built, dtype=float))) <= 1e-14
        state, got_prob = apply_bs_and_project(state, tau, k)
        assert _rel_dev(got_prob, float(prob)) <= 1e-14
        assert np.max(np.abs(state - np.array(projected, dtype=float))) <= 1e-14
        got = state_covariance(state)
        for field, value in zip(CM_FIELDS, cm):
            assert _rel_dev(getattr(got, field), float(value)) <= 1e-14, field


class TestOracleCovariance:
    def test_tmsv_closed_form(self):
        cm = oracle_covariance(0.3, 0.0, 1.0, 0, 30)
        ch, sh = math.cosh(0.6), math.sinh(0.6)
        assert cm.vax == pytest.approx(ch, rel=1e-10)
        assert cm.vap == pytest.approx(ch, rel=1e-10)
        assert cm.vbx == pytest.approx(ch, rel=1e-10)
        assert cm.vbp == pytest.approx(ch, rel=1e-10)
        assert cm.vcx == pytest.approx(sh, rel=1e-10)
        assert cm.vcp == pytest.approx(-sh, rel=1e-10)
        assert cm.mean_x1 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "r, d, tau, k",
        [
            (0.6, 1.2, 0.7, 3),
            (0.9, 0.5, 0.45, 4),
            (0.3, 2.0, 0.85, 4),
            (1.0, 1.0, 0.6, 3),
        ],
    )
    def test_three_and_four_photon_subtraction(self, r, d, tau, k):
        n_max = suggested_truncation(r, d)
        closed_p, *closed = source_stage(r, d, tau, k)
        _, prob = apply_bs_and_project(build_tmsc_fock(r, d, n_max), tau, k)
        assert prob == pytest.approx(closed_p, rel=1e-8)
        oracle = oracle_covariance(r, d, tau, k, n_max)
        closed = TwoModeCM(*closed)
        for field in CM_FIELDS:
            assert getattr(closed, field) == pytest.approx(
                getattr(oracle, field), rel=1e-8
            ), field

    def test_wide_random_grid(self):
        # beyond compare_random_grid's box: k <= 4, r <= 1.5, d <= 3, where
        # suggested_truncation can fall short and the cutoff grows until the
        # leakage guard passes (the corner r = 1.5, d = 3 needs ~300 levels)
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            r = rng.uniform(0.05, 1.5)
            d = rng.uniform(0.0, 3.0)
            tau = rng.uniform(0.3, 0.95)
            k = int(rng.integers(0, 5))
            n_max = suggested_truncation(r, d)
            while True:
                try:
                    state = build_tmsc_fock(r, d, n_max)
                    break
                except TruncationError:
                    assert n_max < 300, (r, d, n_max)
                    n_max += n_max // 2
            state, prob = apply_bs_and_project(state, tau, k)
            closed_p, *closed = source_stage(r, d, tau, k)
            assert prob == pytest.approx(closed_p, rel=1e-7)
            oracle = state_covariance(state)
            closed = TwoModeCM(*closed)
            for field in CM_FIELDS:
                dev = _rel_dev(getattr(closed, field), getattr(oracle, field))
                assert dev < 1e-7, (field, r, d, tau, k, n_max)
            _assert_matches_moment_reference(state, (r, d, tau, k, n_max))

    def test_covariance_at_the_configs_base_point(self):
        # V_A = 50 (r = 2.30), d = 2, tau = 0.9: measured 4.8e-15 (k = 1) and
        # 9.1e-15 (k = 2). p_ps is not pinned: the 1e-8 mass guard accepts
        # n_max 1000, where p_ps is still 8.6e-10 off (ROADMAP item 9's
        # cutoff rule is to bound it); the covariance is renormalized after
        # the tap and hides that
        r = math.acosh(50.0) / 2.0
        amps = build_tmsc_fock(r, 2.0, 1000)
        for k in (1, 2):
            state, _ = apply_bs_and_project(amps, 0.9, k)
            oracle = vars(state_covariance(state)).values()
            for field, closed, got in zip(CM_FIELDS, source_stage(r, 2.0, 0.9, k)[1:], oracle):
                assert _rel_dev(closed, got) <= 1e-12, (field, k)

    def test_stable_under_truncation_doubling(self):
        lo = oracle_covariance(0.4, 1.0, 0.8, 1, 40)
        hi = oracle_covariance(0.4, 1.0, 0.8, 1, 60)
        for field in CM_FIELDS:
            assert getattr(lo, field) == pytest.approx(
                getattr(hi, field), abs=1e-8
            ), field


class TestSuggestedTruncation:
    def test_floor_and_linear_growth(self):
        assert suggested_truncation(0.0, 0.0) == 20
        assert suggested_truncation(1.0, 2.0) == 92
        assert suggested_truncation(5.0, 5.0) == 260

    def test_monotone(self):
        values = [suggested_truncation(r, 0.5) for r in (0.1, 0.5, 1.0)]
        assert values == sorted(values)

    @pytest.mark.parametrize(
        "r, d, message",
        [
            (math.inf, 0.0, "r must be finite and >= 0, got inf"),
            (math.nan, 0.0, "r must be finite and >= 0, got nan"),
            (0.5, -1.0, "d must be finite and >= 0, got -1.0"),
        ],
    )
    def test_checks_r_and_d_as_the_source_record(self, r, d, message):
        with pytest.raises(ValueError, match=message):
            suggested_truncation(r, d)

    # 24 (r + d) overflows for finite r and d past 7.49e306; just below,
    # the cutoff keeps its value
    @pytest.mark.parametrize("r, d", [(1e308, 1e308), (1e307, 0.0), (0.0, 7.5e306)])
    def test_refuses_a_state_no_cutoff_holds(self, r, d):
        with pytest.raises(TruncationError, match="no photon-number cutoff holds"):
            suggested_truncation(r, d)
        assert suggested_truncation(0.0, 7.4e306) == 20 + math.ceil(24.0 * 7.4e306)


class TestRandomGridComparison:
    def test_small_grid_passes(self):
        report = compare_random_grid(points=8, seed=7, rel_tol=1e-5)
        assert report.passed
        assert report.points == 8
        assert report.max_dev_covariance <= 1e-5

    def test_impossible_tolerance_fails(self):
        report = compare_random_grid(points=3, seed=7, rel_tol=1e-18)
        assert not report.passed

    @pytest.mark.parametrize("points", [0, -3])
    def test_empty_grid_rejected(self, points):
        with pytest.raises(ValueError):
            compare_random_grid(points=points)

    @pytest.mark.parametrize("rel_tol", [-1.0, math.nan])
    def test_tolerance_no_deviation_can_meet_is_rejected(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            compare_random_grid(points=1, rel_tol=rel_tol)

    @pytest.mark.parametrize("field", CM_FIELDS)
    def test_nan_deviation_fails(self, monkeypatch, field):
        # NaN on the first of three points only, so later finite deviations
        # must not displace it
        inner = fock_oracle.state_covariance
        first = iter([True])

        def nan_first(state):
            cm = inner(state)
            if next(first, False):
                cm = dataclasses.replace(cm, **{field: math.nan})
            return cm

        monkeypatch.setattr(fock_oracle, "state_covariance", nan_first)
        report = compare_random_grid(points=3, seed=7)
        assert not report.passed
        means = field.startswith("mean")
        assert math.isnan(report.max_dev_means if means else report.max_dev_covariance)

    def test_worst_params_are_the_point_of_the_largest_deviation(self, monkeypatch):
        # each point's (r, d, tau, k), closed forms and oracle values, as
        # the grid passes them along; the deviations recomputed here
        points = []
        project = fock_oracle.apply_bs_and_project
        stage, covariance = fock_oracle.source_stage, fock_oracle.state_covariance

        def projected(amps, tau, k):
            state, prob = project(amps, tau, k)
            points.append({"prob": prob})
            return state, prob

        def staged(*params):
            points[-1].update(params=params, closed=stage(*params))
            return points[-1]["closed"]

        def read(state):
            cm = covariance(state)
            points[-1]["oracle"] = list(vars(cm).values())
            return cm

        monkeypatch.setattr(fock_oracle, "apply_bs_and_project", projected)
        monkeypatch.setattr(fock_oracle, "source_stage", staged)
        monkeypatch.setattr(fock_oracle, "state_covariance", read)
        report = compare_random_grid(points=5, seed=7)
        devs = []
        for point in points:
            closed_p, *closed = point["closed"]
            devs.append(max(
                abs(closed_p - point["prob"]) / point["prob"],
                *(abs(c - o) / max(abs(o), 1.0) for c, o in zip(closed, point["oracle"])),
            ))
        worst = devs.index(max(devs))
        assert worst == 2  # neither end of the grid
        assert report.worst_params == points[worst]["params"]
        assert max(devs) == max(
            report.max_dev_probability, report.max_dev_covariance, report.max_dev_means
        )

    @pytest.mark.parametrize("dev", [0.0, 1e-9])
    def test_worst_params_are_the_first_point_on_ties(self, monkeypatch, dev):
        # every point deviates by `dev` alone: the exact probability, and
        # each covariance and mean entry `dev` off
        project = fock_oracle.apply_bs_and_project
        probs, params = [], []

        def projected(amps, tau, k):
            state, prob = project(amps, tau, k)
            probs.append(prob)
            return state, prob

        def staged(*point):
            params.append(point)
            return (probs[-1], *[0.0] * 8)

        monkeypatch.setattr(fock_oracle, "apply_bs_and_project", projected)
        monkeypatch.setattr(fock_oracle, "source_stage", staged)
        monkeypatch.setattr(fock_oracle, "_rel_dev", lambda closed, oracle: dev)
        report = compare_random_grid(points=3, seed=7)
        assert len(set(params)) == 3
        assert report.worst_params == params[0]
        assert report.max_dev_covariance == report.max_dev_means == dev

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 20240817, 2**32 - 1])
    def test_builds_at_the_truncation_of_the_first_two_draws(self, monkeypatch, seed):
        # the benchmark replays the first two draws of default_rng(seed) to
        # learn each op's n_max before running it
        rng = np.random.default_rng(seed)
        r, d = rng.uniform(0.05, 1.0), rng.uniform(0.0, 2.0)
        cutoffs = []
        inner = fock_oracle.build_tmsc_fock

        def recording(r, d, n_max):
            cutoffs.append(n_max)
            return inner(r, d, n_max)

        monkeypatch.setattr(fock_oracle, "build_tmsc_fock", recording)
        compare_random_grid(points=1, seed=seed)
        assert cutoffs == [suggested_truncation(r, d)]

    def test_each_point_built_and_projected_once(self, monkeypatch):
        calls = {"build_tmsc_fock": 0, "apply_bs_and_project": 0}

        def counting(name):
            inner = getattr(fock_oracle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fock_oracle, name, counting(name))
        assert compare_random_grid(points=3, seed=7).passed
        assert calls == {"build_tmsc_fock": 3, "apply_bs_and_project": 3}
