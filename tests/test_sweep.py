"""Grid sweeps, secure-distance search, and scalar optimization."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import psqkd.sweep as sweep
from psqkd.channel import GEOMETRIES, ChannelParams, NoiseBreakdown
from psqkd.config import build_sweep_spec, load_run_config
from psqkd.errors import NoSecureRegionError, PsqkdError, TargetUnreachableError
from psqkd.keyrate import KeyRateResult, secret_key_rate
from psqkd.phase_space import SqueezedSourceParams
from psqkd.sweep import (
    DEFAULT_FAMILIES,
    SWEEP_VARIABLES,
    SweepSpec,
    max_secure_distance,
    optimize_scalar,
    resolve_family,
    run_sweep,
)

R50 = 0.5 * math.acosh(50.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_source(**kw) -> SqueezedSourceParams:
    params = dict(r=R50, d=2.0, tau=0.9, k=1)
    params.update(kw)
    return SqueezedSourceParams(**params)


def base_channel(**kw) -> ChannelParams:
    params = dict(
        geometry="asymmetric",
        l_ac=20.0,
        v_a=50.0,
        beta=0.96,
        eps_a=0.002,
        eps_b=0.002,
    )
    params.update(kw)
    return ChannelParams(**params)


class TestResolveFamily:
    def test_tmsv_pins_everything(self):
        out = resolve_family("tmsv", base_source())
        assert (out.d, out.tau, out.k) == (0.0, 1.0, 0)
        assert out.r == R50

    def test_pstmsv_pins_displacement_only(self):
        out = resolve_family("2-pstmsv", base_source())
        assert (out.d, out.tau, out.k) == (0.0, 0.9, 2)

    def test_pstmsc_sets_k(self):
        out = resolve_family("3-pstmsc", base_source())
        assert (out.d, out.tau, out.k) == (2.0, 0.9, 3)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            resolve_family("epr", base_source())


class TestSweepSpecValidation:
    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown sweep variable"):
            SweepSpec("L", 0, 1, 2, base_source(), base_channel())

    def test_negative_points(self):
        with pytest.raises(ValueError, match="points"):
            SweepSpec("L_AC", 0, 1, -1, base_source(), base_channel())

    def test_reversed_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            SweepSpec("L_AC", 5, 1, 3, base_source(), base_channel())

    def test_single_point_ignores_hi(self):
        spec = SweepSpec("L_AC", 5, 1, 1, base_source(), base_channel())
        assert list(spec.grid()) == [5.0]

    def test_zero_points_is_empty(self):
        spec = SweepSpec("L_AC", 0, 1, 0, base_source(), base_channel())
        assert spec.grid() == []

    def test_empty_families(self):
        with pytest.raises(ValueError, match="family list"):
            SweepSpec("L_AC", 0, 1, 2, base_source(), base_channel(), families=())

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError, match="names a family twice"):
            SweepSpec(
                "L_AC", 0, 1, 2, base_source(), base_channel(),
                families=("tmsv", "1-pstmsc", "tmsv"),
            )

    def test_bad_family_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown family"):
            SweepSpec(
                "L_AC", 0, 1, 2, base_source(), base_channel(), families=("qq",)
            )

    def test_variable_catalogue(self):
        assert SWEEP_VARIABLES == ("L_AC", "V_A", "d", "tau", "eta")
        assert set(DEFAULT_FAMILIES) == {
            "tmsv",
            "1-pstmsv",
            "2-pstmsv",
            "1-pstmsc",
            "2-pstmsc",
        }


class TestGrid:
    def test_fixture_grids_match_linspace(self):
        for path in sorted(CONFIGS.glob("fig*.cfg")):
            spec = build_sweep_spec(load_run_config(str(path)))
            expect = np.linspace(spec.lo, spec.hi, spec.points).tolist()
            assert spec.grid() == expect, path.name

    def test_random_grids_match_linspace(self):
        rng = np.random.default_rng(20240817)
        for _ in range(2000):
            lo = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-8, 8))
            hi = lo + float(rng.exponential(10.0)) * 10.0 ** int(rng.integers(-8, 8))
            points = int(rng.integers(0, 300))
            expect = np.linspace(lo, hi, points).tolist()
            assert sweep._grid(lo, hi, points) == expect, (lo, hi, points)


class TestRunSweep:
    def test_single_point_matches_direct_evaluation(self):
        spec = SweepSpec(
            "L_AC", 20.0, 20.0, 1, base_source(), base_channel(),
            families=("1-pstmsc",),
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        got = rows[0].results["1-pstmsc"].result
        expect = secret_key_rate(base_source(), base_channel())
        assert got.key_rate == expect.key_rate
        assert got.p_ps == expect.p_ps

    def test_thread_count_does_not_change_results(self):
        spec = SweepSpec("L_AC", 0.0, 40.0, 9, base_source(), base_channel())
        seq = run_sweep(spec)
        par = run_sweep(spec)
        assert len(seq) == len(par) == 9
        for a, b in zip(seq, par):
            assert a.swept_value == b.swept_value
            for fam in spec.families:
                ra, rb = a.results[fam], b.results[fam]
                assert ra.error == rb.error
                if ra.result is not None:
                    assert ra.result.key_rate == rb.result.key_rate

    def test_errors_recorded_per_point_not_raised(self):
        # tau sweep hitting 1.0: subtraction is impossible there for k >= 1
        spec = SweepSpec(
            "tau", 0.8, 1.0, 3, base_source(), base_channel(),
            families=("tmsv", "1-pstmsc"),
        )
        rows = run_sweep(spec)
        last = rows[-1]
        assert last.swept_value == 1.0
        assert last.results["1-pstmsc"].result is None
        assert last.results["1-pstmsc"].error  # message, not an exception
        assert last.results["tmsv"].result is not None
        # interior points untouched
        assert rows[0].results["1-pstmsc"].result is not None

    def test_v_a_sweep_rewires_squeezing_and_gain(self):
        spec = SweepSpec(
            "V_A", 30.0, 30.0, 1, base_source(), base_channel(),
            families=("1-pstmsc",),
        )
        rows = run_sweep(spec)
        expect = secret_key_rate(
            base_source(r=0.5 * math.acosh(30.0)), base_channel(v_a=30.0)
        )
        assert rows[0].results["1-pstmsc"].result.key_rate == expect.key_rate

    def test_v_a_below_one_is_an_in_row_error(self):
        spec = SweepSpec(
            "V_A", 0.5, 0.5, 1, base_source(), base_channel(),
            families=("tmsv",),
        )
        rows = run_sweep(spec)
        assert rows[0].results["tmsv"].result is None
        assert "V_A" in rows[0].results["tmsv"].error


def _unstaged_row(spec, value):
    """One grid row the way the unstaged pipeline computes it, cell by cell."""
    out = {}
    for name in spec.families:
        try:
            src, ch = sweep._apply_value(spec.source, spec.channel, spec.variable, value)
            out[name] = (secret_key_rate(resolve_family(name, src), ch), None)
        except (PsqkdError, ValueError) as exc:
            out[name] = (None, str(exc))
    return out


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sweep, name, counted)
    return calls


@pytest.mark.parametrize(
    "variable, value",
    [("L_AC", 12.5), ("L_AC", -1.0), ("V_A", 30.0), ("d", 1.5), ("d", math.inf),
     ("tau", 0.7), ("tau", 1.5), ("eta", 0.8), ("eta", 0.0)],
)
def test_apply_value_rebuilds_each_record_as_replace_does(variable, value):
    source, channel = base_source(), base_channel(eta=0.9)
    try:
        if variable == "V_A":
            expect = replace(source, r=0.5 * math.acosh(value)), replace(channel, v_a=value)
        elif variable in ("d", "tau"):
            expect = replace(source, **{variable: value}), channel
        else:
            expect = source, replace(channel, **{variable.lower(): value})
    except ValueError as exc:
        with pytest.raises(ValueError) as error:
            sweep._apply_value(source, channel, variable, value)
        assert str(error.value) == str(exc)
    else:
        got = sweep._apply_value(source, channel, variable, value)
        assert got == expect
        # the record the variable leaves alone is passed through, not copied
        assert (got[0] is source) == (expect[0] is source)
        assert (got[1] is channel) == (expect[1] is channel)


class TestStagedSweep:
    @pytest.mark.parametrize(
        "variable, lo, hi, channel",
        [
            # L_AC = 250000 km: the fiber transmittance underflows to 0
            ("L_AC", 0.0, 1e6, base_channel()),
            ("V_A", 0.5, 200.0, base_channel()),  # V_A < 1 is rejected
            ("d", 0.0, 1e150, base_channel()),  # the source stage overflows
            # tau = 1: zero-probability subtraction for every k >= 1 family
            ("tau", 0.0, 1.0, base_channel(geometry="symmetric")),
            # source and channel fail together: the source error wins
            ("tau", 0.0, 1.0, base_channel(l_ac=1e6)),
            ("eta", 0.0, 1.0, base_channel(v_el=0.01)),  # eta = 0 is rejected
        ],
    )
    def test_matches_cell_by_cell_pipeline(self, variable, lo, hi, channel):
        spec = SweepSpec(variable, lo, hi, 5, base_source(), channel)
        rows = run_sweep(spec)
        assert [row.swept_value for row in rows] == list(spec.grid())
        errors = 0
        for row in rows:
            expect = _unstaged_row(spec, row.swept_value)
            assert list(row.results) == list(spec.families)
            for name, cell in row.results.items():
                assert (cell.result, cell.error) == expect[name]
                errors += cell.error is not None
        assert errors > 0

    def test_l_ac_sweep_runs_each_stage_once(self, monkeypatch):
        sources = _counting(monkeypatch, "_source_stage")
        channels = _counting(monkeypatch, "_breakdown_at")
        spec = SweepSpec("L_AC", 0.0, 40.0, 9, base_source(), base_channel())
        rows = run_sweep(spec)
        assert all(cell.result for row in rows for cell in row.results.values())
        assert len(sources) == 5
        assert len(channels) == 9

    def test_tmsv_source_is_shared_across_a_tau_sweep(self, monkeypatch):
        sources = _counting(monkeypatch, "_source_stage")
        spec = SweepSpec(
            "tau", 0.5, 0.9, 5, base_source(), base_channel(),
            families=("tmsv", "1-pstmsc"),
        )
        run_sweep(spec)
        assert len(sources) == 1 + 5

    @pytest.mark.parametrize("variable, lo, hi", [("d", 0.0, 3.0), ("tau", 0.5, 0.99)])
    def test_source_sweep_runs_the_channel_reduction_once(self, monkeypatch, variable, lo, hi):
        channels = _counting(monkeypatch, "_breakdown_at")
        rows = run_sweep(SweepSpec(variable, lo, hi, 7, base_source(), base_channel()))
        assert all(cell.result for row in rows for cell in row.results.values())
        assert channels == [(base_channel(), base_channel().l_ac)]

    def test_search_runs_the_source_stage_once(self, monkeypatch):
        sources = _counting(monkeypatch, "_source_stage")
        channels = _counting(monkeypatch, "_breakdown_at")
        max_secure_distance(base_source(), base_channel())
        assert sources == [(base_source(),)]
        assert len(channels) > 50

    def test_search_probes_build_no_records(self, monkeypatch):
        built = []
        for record in (NoiseBreakdown, KeyRateResult):
            def counted(self, *args, _init=record.__init__):
                built.append(type(self).__name__)
                _init(self, *args)

            monkeypatch.setattr(record, "__init__", counted)
        max_secure_distance(base_source(), base_channel())
        assert built == []
        secret_key_rate(base_source(), base_channel())  # the count does count
        assert sorted(built) == ["KeyRateResult", "NoiseBreakdown"]

    def test_every_probe_rate_is_the_pipeline_rate_bit_for_bit(self, monkeypatch):
        probes = []
        probe = sweep._rate_at_distance

        def recorded(stage, channel, l_ac):
            probes.append((channel, l_ac, probe(stage, channel, l_ac)))
            return probes[-1][2]

        monkeypatch.setattr(sweep, "_rate_at_distance", recorded)
        rng = np.random.default_rng(11)
        for i in range(12):
            v_a = float(rng.uniform(5.0, 100.0))
            source = SqueezedSourceParams(
                0.5 * math.acosh(v_a), float(rng.uniform(0.0, 3.0)),
                float(rng.uniform(0.5, 0.99)), i % 3,
            )
            channel = base_channel(geometry=GEOMETRIES[i % 2], l_ac=0.0, v_a=v_a)
            try:
                max_secure_distance(source, channel, k_target=(0.0, 1e-4)[i // 2 % 2])
            except TargetUnreachableError:
                pass
            for ch, l_ac, key in probes:
                assert key == secret_key_rate(source, replace(ch, l_ac=l_ac)).key_rate
            probes.clear()


class TestMaxSecureDistance:
    def test_tmsv_anchor(self):
        dist = max_secure_distance(
            resolve_family("tmsv", base_source()), base_channel()
        )
        assert dist == pytest.approx(44.742, abs=0.02)

    def test_subtracted_displaced_anchor(self):
        dist = max_secure_distance(base_source(), base_channel())
        assert dist == pytest.approx(68.070, abs=0.02)

    def test_certified_against_sweep_sign_change(self):
        source = resolve_family("tmsv", base_source())
        dist = max_secure_distance(source, base_channel())
        assert secret_key_rate(source, base_channel(l_ac=dist)).key_rate >= 0.0
        assert (
            secret_key_rate(source, base_channel(l_ac=dist + 0.011)).key_rate < 0.0
        )

    def test_positive_target_shortens_range(self):
        source = resolve_family("tmsv", base_source())
        d0 = max_secure_distance(source, base_channel())
        d1 = max_secure_distance(source, base_channel(), k_target=1e-3)
        assert 0.0 < d1 < d0
        assert (
            secret_key_rate(source, base_channel(l_ac=d1)).key_rate >= 1e-3
        )

    def test_stops_at_first_downward_crossing(self, monkeypatch):
        # secure up to 12.3 km, insecure until 40 km, secure again beyond
        def rate(source, channel, l_ac):
            return 1.0 if l_ac <= 12.3 or l_ac >= 40.0 else -1.0

        monkeypatch.setattr(sweep, "_rate_at_distance", rate)
        dist = max_secure_distance(base_source(), base_channel())
        assert 12.3 - 0.01 <= dist <= 12.3

    def test_unreachable_target(self):
        with pytest.raises(TargetUnreachableError):
            max_secure_distance(
                resolve_family("tmsv", base_source()), base_channel(), k_target=10.0
            )

    def test_nan_target_is_a_caller_error(self):
        # no rate compares >= NaN, so a search would certify nothing
        with pytest.raises(ValueError, match="k_target"):
            max_secure_distance(base_source(), base_channel(), k_target=math.nan)

    def test_detector_efficiency_monotonicity(self):
        source = resolve_family("tmsv", base_source())
        dists = [
            max_secure_distance(source, base_channel(eta=eta, v_el=0.01))
            for eta in (0.90, 0.95, 1.0)
        ]
        assert dists[0] < dists[1] < dists[2]


class TestOptimizeScalar:
    def test_flat_objective_resolves_to_lowest_value(self):
        # the tmsv family pins tau, so sweeping tau changes nothing
        v, s = optimize_scalar(
            base_source(), base_channel(), "tau", 0.5, 1.0, family="tmsv"
        )
        assert v == 0.5
        expect = secret_key_rate(
            resolve_family("tmsv", base_source()), base_channel()
        ).key_rate
        assert s == pytest.approx(expect, rel=1e-12)

    def test_displacement_for_maximum_range(self):
        v, s = optimize_scalar(
            base_source(d=1.0),
            base_channel(),
            "d",
            0.0,
            3.0,
            objective="max_distance",
            k_target=1e-4,
        )
        assert v == pytest.approx(1.708, abs=0.01)
        assert s == pytest.approx(63.570, abs=0.02)

    def test_interior_modulation_optimum(self):
        channel = base_channel(geometry="symmetric", l_ac=2.0)
        v, s = optimize_scalar(
            base_source(), channel, "V_A", 2.0, 200.0, family="tmsv"
        )
        assert 2.0 < v < 200.0
        assert s == pytest.approx(0.48771866006767617, rel=1e-6)
        for edge in (2.0, 200.0):
            edge_rate = secret_key_rate(
                resolve_family("tmsv", base_source(r=0.5 * math.acosh(edge))),
                replace(channel, v_a=edge),
            ).key_rate
            assert s > edge_rate

    def test_no_secure_region(self):
        with pytest.raises(NoSecureRegionError):
            optimize_scalar(
                base_source(),
                base_channel(geometry="symmetric", l_ac=50.0),
                "tau",
                0.5,
                0.99,
            )

    def test_nan_scoring_grid_point_is_not_chosen(self, monkeypatch):
        # a NaN at the grid's last point must neither win the grid nor move
        # the result; np.argmax picked it
        expect = optimize_scalar(base_source(), base_channel(), "d", 0.0, 3.0)

        def rate(source, channel):
            result = secret_key_rate(source, channel)
            if source.d == 3.0:
                return replace(result, key_rate=float("nan"))
            return result

        monkeypatch.setattr(sweep, "secret_key_rate", rate)
        v, s = optimize_scalar(base_source(), base_channel(), "d", 0.0, 3.0)
        assert (v, s) == expect
        assert not math.isnan(s)

    def test_rejects_unknown_variable_and_objective(self):
        with pytest.raises(ValueError, match="cannot optimize"):
            optimize_scalar(base_source(), base_channel(), "L_AC", 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown objective"):
            optimize_scalar(
                base_source(), base_channel(), "d", 0.0, 1.0, objective="x"
            )
        with pytest.raises(ValueError, match="lo < hi"):
            optimize_scalar(base_source(), base_channel(), "d", 1.0, 0.0)

    def test_nan_target_is_rejected_up_front(self, monkeypatch):
        searches = _counting(monkeypatch, "max_secure_distance")
        with pytest.raises(ValueError, match="k_target"):
            optimize_scalar(
                base_source(), base_channel(), "d", 0.0, 3.0,
                objective="max_distance", k_target=math.nan,
            )
        assert searches == []

    def test_score_improves_on_grid_winner(self):
        # golden refinement should do at least as well as the coarse grid
        v, s = optimize_scalar(base_source(), base_channel(), "d", 0.0, 3.0)
        grid_best = max(
            secret_key_rate(base_source(d=val), base_channel()).key_rate
            for val in np.linspace(0.0, 3.0, 41)
        )
        assert s >= grid_best
        assert 0.0 <= v <= 3.0
