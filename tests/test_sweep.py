"""Grid sweeps, secure-distance search, and scalar optimization."""

import json
import math
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import psqkd.sweep as sweep
from psqkd import cli
from psqkd.channel import GEOMETRIES, ChannelParams, NoiseBreakdown, breakdown
from psqkd.cli import load_run_config
from psqkd.errors import NoSecureRegionError, PsqkdError, TargetUnreachableError
from psqkd.keyrate import KeyRateResult, secret_key_rate
from psqkd.phase_space import SqueezedSourceParams
from psqkd.sweep import (
    DEFAULT_FAMILIES,
    SWEEP_VARIABLES,
    max_secure_distance,
    optimize_scalar,
    resolve_family,
)
from sweep_reference import point_records

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
        # one spelling per family: ASCII digits, no leading zeros
        for name in ("epr", "01-pstmsc", "00-pstmsv", "\u0661-pstmsc", "1-pstmsc\n"):
            with pytest.raises(ValueError, match="unknown family"):
                resolve_family(name, base_source())


class TestSweepArguments:
    # `_evaluate` checks its arguments before the first grid point
    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown sweep variable"):
            sweep._evaluate(base_source(), base_channel(), "L", 0, 1, 2)

    def test_negative_points(self):
        # a float or a bool is no point count either; 2.5 once failed in
        # grid() with a bare TypeError, and True gave a one-point grid
        for points in (-1, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="points"):
                sweep._evaluate(base_source(), base_channel(), "L_AC", 0, 1, points)

    def test_reversed_bounds(self):
        with pytest.raises(ValueError, match="lo < hi"):
            sweep._evaluate(base_source(), base_channel(), "L_AC", 5, 1, 3)

    @pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (0.0, math.inf), (-math.inf, 0.0)])
    def test_overflowing_width_is_rejected(self, lo, hi):
        # lo + i * (hi - lo) / (points - 1) would give nan and inf swept values
        with pytest.raises(ValueError, match="hi - lo overflows"):
            sweep._evaluate(base_source(), base_channel(), "d", lo, hi, 3)
        # the widest finite range still gives finite values
        rows = sweep._evaluate(base_source(), base_channel(), "d", -8.9e307, 8.9e307, 3, ("tmsv",))
        assert sweep._grid(-8.9e307, 8.9e307, 3) == [-8.9e307, 0.0, 8.9e307]
        assert [value for value, _, _ in rows] == [-8.9e307, 0.0, 8.9e307]

    def test_single_point_ignores_hi(self):
        rows = sweep._evaluate(base_source(), base_channel(), "L_AC", 5, 1, 1, ("tmsv",))
        assert sweep._grid(5, 1, 1) == [5.0]
        assert [value for value, _, _ in rows] == [5.0]

    def test_zero_points_is_empty(self):
        assert sweep._grid(0, 1, 0) == []
        assert sweep._evaluate(base_source(), base_channel(), "L_AC", 0, 1, 0) == []

    def test_empty_families(self):
        with pytest.raises(ValueError, match="family list"):
            sweep._evaluate(base_source(), base_channel(), "L_AC", 0, 1, 2, families=())

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError, match="names a family twice"):
            sweep._evaluate(
                base_source(), base_channel(), "L_AC", 0, 1, 2,
                families=("tmsv", "1-pstmsc", "tmsv"),
            )
        # a second spelling of the same family is no longer a second label
        with pytest.raises(ValueError, match="unknown family '01-pstmsc'"):
            sweep._evaluate(
                base_source(), base_channel(), "L_AC", 0, 1, 2,
                families=("1-pstmsc", "01-pstmsc"),
            )

    def test_bad_family_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown family"):
            sweep._evaluate(base_source(), base_channel(), "L_AC", 0, 1, 2, families=("qq",))

    def test_family_check_builds_no_source_record(self, monkeypatch):
        source = base_source()
        built = _counting_inits(monkeypatch, SqueezedSourceParams)
        sweep._evaluate(source, base_channel(), "L_AC", 0, 1, 2, families=DEFAULT_FAMILIES)
        assert built == []

    def test_cli_sweep_parses_the_families_once(self, monkeypatch, tmp_path):
        parsed = _counting(monkeypatch, "_parse_families")
        argv = ["sweep", "--config", str(CONFIGS / "fig7.cfg"), "--out", str(tmp_path / "f.csv")]
        assert cli.main(argv + ["--set", "sweep.families=" + ",".join(DEFAULT_FAMILIES)]) == 0
        assert parsed == [(DEFAULT_FAMILIES,)]

    def test_cli_max_distance_stages_each_family_once(self, monkeypatch, capsys):
        built = _counting_inits(monkeypatch, SqueezedSourceParams)
        parsed = _counting(monkeypatch, "_parse_families")
        stages = _counting(monkeypatch, "source_stage")
        argv = ["max-distance", "--config", str(CONFIGS / "fig7.cfg")]
        assert cli.main(argv + ["--set", "sweep.families=" + ",".join(DEFAULT_FAMILIES)]) == 0
        assert parsed == [(DEFAULT_FAMILIES,)]
        assert len(stages) == len(DEFAULT_FAMILIES)
        assert built == ["SqueezedSourceParams"]  # the config's source only
        assert set(json.loads(capsys.readouterr().out)) == set(DEFAULT_FAMILIES)

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
            grid = load_run_config(str(path)).section("sweep")
            lo, hi, points = grid["lo"], grid["hi"], grid["points"]
            expect = np.linspace(lo, hi, points).tolist()
            assert sweep._grid(lo, hi, points) == expect, path.name

    def test_random_grids_match_linspace(self):
        rng = np.random.default_rng(20240817)
        for _ in range(2000):
            lo = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-8, 8))
            hi = lo + float(rng.exponential(10.0)) * 10.0 ** int(rng.integers(-8, 8))
            points = int(rng.integers(0, 300))
            expect = np.linspace(lo, hi, points).tolist()
            assert sweep._grid(lo, hi, points) == expect, (lo, hi, points)


class TestEvaluate:
    def test_single_point_matches_direct_evaluation(self):
        [(value, family, cell)] = sweep._evaluate(
            base_source(), base_channel(), "L_AC", 20.0, 20.0, 1, families=("1-pstmsc",)
        )
        assert (value, family) == (20.0, "1-pstmsc")
        assert cell == astuple(secret_key_rate(base_source(), base_channel()))[:7]

    def test_two_runs_of_one_sweep_are_identical(self):
        args = (base_source(), base_channel(), "L_AC", 0.0, 40.0, 9)
        first, second = sweep._evaluate(*args), sweep._evaluate(*args)
        assert len(first) == 9 * len(DEFAULT_FAMILIES)
        assert first == second

    def test_errors_recorded_per_point_not_raised(self):
        # tau sweep hitting 1.0: subtraction is impossible there for k >= 1
        rows = sweep._evaluate(
            base_source(), base_channel(), "tau", 0.8, 1.0, 3, families=("tmsv", "1-pstmsc")
        )
        (value, _, tmsv), (_, _, pstmsc) = rows[-2:]
        assert value == 1.0
        with pytest.raises(PsqkdError) as error:
            secret_key_rate(base_source(tau=1.0), base_channel())
        assert pstmsc == str(error.value)  # message, not an exception
        tmsv_source = resolve_family("tmsv", base_source(tau=1.0))
        assert tmsv == astuple(secret_key_rate(tmsv_source, base_channel()))[:7]
        # interior points untouched
        assert all(isinstance(cell, tuple) for _, _, cell in rows[:-2])

    def test_v_a_sweep_rewires_squeezing_and_gain(self):
        [(_, _, cell)] = sweep._evaluate(
            base_source(), base_channel(), "V_A", 30.0, 30.0, 1, families=("1-pstmsc",)
        )
        expect = secret_key_rate(
            base_source(r=0.5 * math.acosh(30.0)), base_channel(v_a=30.0)
        )
        assert cell == astuple(expect)[:7]

    def test_v_a_below_one_is_an_in_row_error(self):
        # V_A = 1 is refused too, in the channel's words
        for v_a in (0.5, 1.0):
            [(_, _, cell)] = sweep._evaluate(
                base_source(), base_channel(), "V_A", v_a, v_a, 1, families=("tmsv",)
            )
            assert cell == f"v_a must be finite and exceed 1 SNU, got {v_a}"
            with pytest.raises(ValueError) as error:
                sweep._apply_value(base_source(), base_channel(), "V_A", v_a)
            assert cell == str(error.value)


def _unstaged_rows(source, channel, variable, lo, hi, points, families=DEFAULT_FAMILIES):
    """`_evaluate`'s rows the way the unstaged pipeline computes them, cell
    by cell: the KeyRateResult fields p_ps to lambda3, or the error message."""
    rows = []
    for value in sweep._grid(lo, hi, points):
        for name in families:
            try:
                src, ch = point_records(source, channel, variable, value)
                cell = astuple(secret_key_rate(resolve_family(name, src), ch))[:7]
            except (PsqkdError, ValueError) as exc:
                cell = str(exc)
            rows.append((value, name, cell))
    return rows


def _succeeds(*args):
    """Whether every cell of the sweep of `args` is a result, not a message."""
    return all(isinstance(cell, tuple) for _, _, cell in sweep._evaluate(*args))


def _counting_inits(monkeypatch, *records):
    """The class name of each record of `records` built from now on."""
    built = []
    for record in records:
        def counted(self, *args, _init=record.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
    return built


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sweep, name, counted)
    return calls


def _raising(monkeypatch, name):
    """The arguments of each call to sweep's `name` that raises, from now on."""
    calls = []
    inner = getattr(sweep, name)

    def recorded(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except Exception:
            calls.append(args)
            raise

    monkeypatch.setattr(sweep, name, recorded)
    return calls


@pytest.mark.parametrize(
    "variable, value",
    [("L_AC", 12.5), ("L_AC", -1.0), ("V_A", 30.0), ("d", 1.5), ("d", math.inf),
     ("tau", 0.7), ("tau", 1.5), ("eta", 0.8), ("eta", 0.0)],
)
def test_apply_value_returns_the_fields_of_the_records_replace_builds(variable, value):
    source, channel = base_source(), base_channel(eta=0.9)
    try:
        src, ch = point_records(source, channel, variable, value)
    except ValueError as exc:
        if variable == "L_AC":  # passed through; the reduction checks it
            got_src, got_ch, l_ac = sweep._apply_value(source, channel, variable, value)
            assert (got_src, got_ch, l_ac) == ((source.r, source.d, source.tau), channel, value)
            with pytest.raises(ValueError) as error:
                breakdown(got_ch, l_ac)
        else:
            with pytest.raises(ValueError) as error:
                sweep._apply_value(source, channel, variable, value)
        assert str(error.value) == str(exc)
    else:
        got_src, got_ch, l_ac = sweep._apply_value(source, channel, variable, value)
        assert got_src == (src.r, src.d, src.tau)
        assert (got_ch.l_ac, l_ac) == (channel.l_ac, ch.l_ac)
        assert replace(got_ch, l_ac=l_ac) == ch
        # only a V_A or eta value builds a channel; L_AC moves in as a float
        assert (got_ch is channel) == (variable in ("L_AC", "d", "tau"))


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
        args = (base_source(), channel, variable, lo, hi, 5)
        rows = sweep._evaluate(*args)
        assert [value for value, _, _ in rows[:: len(DEFAULT_FAMILIES)]] == sweep._grid(lo, hi, 5)
        assert rows == _unstaged_rows(*args)
        assert any(isinstance(cell, str) for _, _, cell in rows)

    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_seeded_sweeps_match_cell_by_cell_pipeline(self, variable):
        # random base points; every range but L_AC's also runs into failed
        # cells (V_A < 1, zero-probability subtraction at large d or at
        # tau = 1, eta = 0), and those must keep their messages
        span = {"L_AC": (0.0, 300.0), "V_A": (0.5, 300.0), "d": (0.0, 60.0),
                "tau": (0.0, 1.0), "eta": (0.0, 1.0)}[variable]
        families = DEFAULT_FAMILIES + ("0-pstmsc", "3-pstmsv", "4-pstmsc")
        rng = np.random.default_rng(SWEEP_VARIABLES.index(variable))
        errors = 0
        for _ in range(4):
            v_a = float(rng.uniform(1.5, 200.0))
            source = SqueezedSourceParams(
                0.5 * math.acosh(v_a), float(rng.choice([0.0, rng.uniform(0.0, 5.0)])),
                float(rng.uniform(0.3, 1.0)), int(rng.integers(0, 4)),
            )
            channel = base_channel(
                geometry=GEOMETRIES[int(rng.integers(0, 2))], l_ac=float(rng.uniform(0, 80)),
                v_a=v_a, beta=float(rng.uniform(0.8, 1.0)), eta=float(rng.uniform(0.5, 1.0)),
                v_el=float(rng.uniform(0.0, 0.1)),
            )
            args = (source, channel, variable, *span, 9, families)
            rows = sweep._evaluate(*args)
            assert rows == _unstaged_rows(*args)
            errors += sum(isinstance(cell, str) for _, _, cell in rows)
        assert (errors > 0) == (variable != "L_AC")

    def test_families_are_parsed_once_and_sources_built_on_a_miss(self, monkeypatch):
        v_a_sweep = (base_source(), base_channel(), "V_A", 5.0, 100.0, 51)
        d_sweep = (base_source(), base_channel(), "d", 0.5, 3.0, 41)
        parsed = _counting(monkeypatch, "_family_pins")
        built = _counting(monkeypatch, "source_stage")
        assert _succeeds(*v_a_sweep)
        assert parsed == [(name,) for name in DEFAULT_FAMILIES]
        assert len(built) == 51 * 5  # r moves at every point
        parsed.clear()
        built.clear()
        assert _succeeds(*d_sweep)
        assert len(parsed) == 5
        # (k, d pinned to 0) of each built source: tmsv, 1-pstmsv and
        # 2-pstmsv do not move with d, the pstmsc sources do
        per_family = Counter((k, d == 0.0) for r, d, tau, k in built)
        assert per_family == {(0, True): 1, (1, True): 1, (2, True): 1,
                              (1, False): 41, (2, False): 41}

    def test_l_ac_sweep_runs_each_stage_once(self, monkeypatch):
        sources = _counting(monkeypatch, "source_stage")
        channels = _counting(monkeypatch, "breakdown")
        assert _succeeds(base_source(), base_channel(), "L_AC", 0.0, 40.0, 9)
        assert len(sources) == 5
        assert len(channels) == 9

    def test_tmsv_source_is_shared_across_a_tau_sweep(self, monkeypatch):
        sources = _counting(monkeypatch, "source_stage")
        sweep._evaluate(
            base_source(), base_channel(), "tau", 0.5, 0.9, 5, families=("tmsv", "1-pstmsc")
        )
        assert len(sources) == 1 + 5

    @pytest.mark.parametrize("variable, lo, hi", [("d", 0.0, 3.0), ("tau", 0.5, 0.99)])
    def test_source_sweep_runs_the_channel_reduction_once(self, monkeypatch, variable, lo, hi):
        channels = _counting(monkeypatch, "breakdown")
        assert _succeeds(base_source(), base_channel(), variable, lo, hi, 7)
        assert channels == [(base_channel(), base_channel().l_ac)]

    def test_max_distance_families_share_a_source_stage(self, monkeypatch, capsys):
        # at tau = 1, 0-pstmsv pins the tmsv source (r, 0, 1, 0)
        argv = ["max-distance", "--config", str(CONFIGS / "fig7.cfg"),
                "--set", "sweep.families=tmsv, 0-pstmsv", "--set", "source.tau=1"]
        parsed = _counting(monkeypatch, "_parse_families")
        sources = _counting(monkeypatch, "source_stage")
        assert cli.main(argv) == 0
        assert len(parsed) == len(sources) == 1
        assert sources[0][1:] == (0.0, 1.0, 0)
        distances = json.loads(capsys.readouterr().out)
        assert distances["tmsv"] == distances["0-pstmsv"] > 0.0
        # the target is checked after the families, before any stage
        parsed.clear()
        sources.clear()
        assert cli.main(argv + ["--set", "max_distance.k_target=-0.5"]) == 1
        assert (len(parsed), sources) == (1, [])
        assert "k_target must be >= 0" in capsys.readouterr().err

    def test_max_distance_families_share_a_search(self, monkeypatch, capsys):
        # the two families' one stage is searched once, in as many probes
        # as tmsv alone takes
        argv = ["max-distance", "--config", str(CONFIGS / "fig7.cfg"),
                "--set", "source.tau=1", "--set"]
        probes = _counting(monkeypatch, "_rate_at_distance")
        assert cli.main(argv + ["sweep.families=tmsv"]) == 0
        assert len(probes) == 12
        probes.clear()
        capsys.readouterr()
        assert cli.main(argv + ["sweep.families=tmsv, 0-pstmsv"]) == 0
        assert len(probes) == 12
        assert json.loads(capsys.readouterr().out) == {"0-pstmsv": 3.0391, "tmsv": 3.0391}

    def test_search_runs_the_source_stage_once(self, monkeypatch):
        sources = _counting(monkeypatch, "source_stage")
        channels = _counting(monkeypatch, "breakdown")
        max_secure_distance(base_source(), base_channel())
        assert sources == [(R50, 2.0, 0.9, 1)]
        assert len(channels) > 50

    @pytest.mark.parametrize(
        "variable, lo, hi",
        [("L_AC", 0.0, 40.0), ("d", 0.5, 3.0), ("tau", 0.5, 0.99), ("V_A", 5.0, 100.0),
         ("eta", 0.5, 1.0)],
    )
    def test_sweep_builds_a_channel_record_only_per_v_a_or_eta_value(
        self, monkeypatch, variable, lo, hi
    ):
        args = (base_source(), base_channel(), variable, lo, hi, 51)
        built = _counting_inits(monkeypatch, SqueezedSourceParams, ChannelParams)
        assert _succeeds(*args)
        # V_A and eta move into a replaced channel; no source record, none
        # per (r, d, tau, k) key
        assert Counter(built) == ({"ChannelParams": 51} if variable in ("V_A", "eta") else {})

    def test_cli_sweep_builds_no_per_cell_record(self, monkeypatch, tmp_path):
        records = (KeyRateResult, NoiseBreakdown, SqueezedSourceParams, ChannelParams)
        built = _counting_inits(monkeypatch, *records)
        argv = ["sweep", "--config", str(CONFIGS / "fig7.cfg"), "--out", str(tmp_path / "v.csv")]
        for item in ("variable=V_A", "lo=5", "hi=100", "points=51"):
            argv += ["--set", "sweep." + item]
        assert cli.main(argv) == 0
        # the config builds one source and one channel; each grid point
        # replaces the channel once
        assert Counter(built) == {"SqueezedSourceParams": 1, "ChannelParams": 1 + 51}
        assert len((tmp_path / "v.csv").read_text().splitlines()) == 1 + 51 * 5

    def test_search_probes_build_no_records(self, monkeypatch):
        built = _counting_inits(monkeypatch, NoiseBreakdown, KeyRateResult)
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

    def test_negative_target_is_a_caller_error(self):
        # tmsv's K falls below -0.012 near 100 km and climbs back above it
        # past 150 km, so the first crossing (50.84 km) is not the largest
        # L_AC with K >= k_target that the search promises
        source = resolve_family("tmsv", base_source())
        channel = base_channel(l_ac=0.0)
        assert secret_key_rate(source, replace(channel, l_ac=100.0)).key_rate < -0.012
        assert secret_key_rate(source, replace(channel, l_ac=300.0)).key_rate > -0.012
        with pytest.raises(ValueError, match="k_target must be >= 0, got -0.012"):
            max_secure_distance(source, channel, k_target=-0.012)
        # a negative zero is no rate floor below zero
        assert max_secure_distance(source, channel, -0.0) == max_secure_distance(source, channel)

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
        last = sweep.source_stage(R50, 3.0, 0.9, 1)  # the source at d = 3
        kernel = sweep.channel_stage

        def rate(stage, noise, beta):
            p_ps, i_ab, chi_be, key, *eigenvalues = kernel(stage, noise, beta)
            return p_ps, i_ab, chi_be, float("nan") if stage == last else key, *eigenvalues

        monkeypatch.setattr(sweep, "channel_stage", rate)
        v, s = optimize_scalar(base_source(), base_channel(), "d", 0.0, 3.0)
        assert (v, s) == expect
        assert not math.isnan(s)

    def test_invalid_grid_points_score_minus_inf(self, monkeypatch):
        # tau above 1 is no source: the grid's upper half raises inside the
        # score, and the optimum comes from the valid half
        config = load_run_config(str(CONFIGS / "fig4.cfg"))
        raised = _raising(monkeypatch, "_apply_value")
        v, s = optimize_scalar(config.source, config.channel, "tau", 0.5, 1.5)
        grid = sweep._grid(0.5, 1.5, 41)
        assert [args[3] for args in raised] == [tau for tau in grid if tau > 1.0]
        assert v == 0.9384048277799238
        assert s == secret_key_rate(replace(config.source, tau=v), config.channel).key_rate
        assert s >= max(
            secret_key_rate(replace(config.source, tau=tau), config.channel).key_rate
            for tau in grid if tau < 1.0  # no subtraction at tau = 1
        )

    def test_unreachable_grid_points_score_minus_inf(self, monkeypatch):
        # at k_target 0.01, K(0) falls below the target from d ~ 2.5 on
        config = load_run_config(str(CONFIGS / "fig4.cfg"))
        raised = _raising(monkeypatch, "_search")
        v, s = optimize_scalar(
            config.source, config.channel, "d", 0.0, 3.0,
            objective="max_distance", k_target=0.01,
        )
        unreachable = len(raised)
        distances = {}
        for d in sweep._grid(0.0, 3.0, 41):
            source = replace(config.source, d=d)
            try:
                distances[d] = max_secure_distance(source, config.channel, 0.01)
            except TargetUnreachableError:
                pass
        assert 0 < len(distances) < 41
        assert unreachable == 41 - len(distances)
        assert s == max_secure_distance(replace(config.source, d=v), config.channel, 0.01)
        assert s >= max(distances.values())

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
        searches = _counting(monkeypatch, "_search")
        with pytest.raises(ValueError, match="k_target"):
            optimize_scalar(
                base_source(), base_channel(), "d", 0.0, 3.0,
                objective="max_distance", k_target=math.nan,
            )
        assert searches == []

    def test_negative_target_is_rejected_up_front(self, monkeypatch):
        searches = _counting(monkeypatch, "_search")
        with pytest.raises(ValueError, match="k_target must be >= 0"):
            optimize_scalar(
                base_source(), base_channel(), "d", 0.0, 3.0,
                objective="max_distance", k_target=-0.012,
            )
        assert searches == []

    def test_key_rate_objective_reduces_a_fixed_channel_once(self, monkeypatch):
        channels = _counting(monkeypatch, "breakdown")
        optimize_scalar(base_source(), base_channel(), "tau", 0.5, 0.99)
        assert channels == [(base_channel(), base_channel().l_ac)]

    def test_distance_objective_stages_a_pinned_source_once(self, monkeypatch):
        # tmsv pins d, so every point of a d search has the same source
        sources = _counting(monkeypatch, "source_stage")
        optimize_scalar(
            base_source(), base_channel(), "d", 0.0, 3.0,
            objective="max_distance", family="tmsv",
        )
        assert sources == [(R50, 0.0, 1.0, 0)]

    def test_key_rate_objective_builds_no_records(self, monkeypatch):
        built = _counting_inits(monkeypatch, KeyRateResult, NoiseBreakdown)
        resolved = _counting(monkeypatch, "resolve_family")
        optimize_scalar(base_source(), base_channel(), "d", 0.0, 3.0, family="1-pstmsc")
        assert built == []
        assert resolved == []

    def test_distance_objective_reduces_only_at_its_probes(self, monkeypatch, capsys):
        # the README example; no reduction at the config's own L_AC, which
        # no search reads
        channels = _counting(monkeypatch, "breakdown")
        probes = _counting(monkeypatch, "_rate_at_distance")
        argv = ["optimize", "--config", str(CONFIGS / "fig4.cfg")]
        for item in ("variable=d", "lo=0", "hi=3", "objective=max_distance", "k_target=1e-4"):
            argv += ["--set", "optimize." + item]
        assert cli.main(argv) == 0
        assert len(channels) == len(probes) == 8572

    def test_score_improves_on_grid_winner(self):
        # golden refinement should do at least as well as the coarse grid
        v, s = optimize_scalar(base_source(), base_channel(), "d", 0.0, 3.0)
        grid_best = max(
            secret_key_rate(base_source(d=val), base_channel()).key_rate
            for val in np.linspace(0.0, 3.0, 41)
        )
        assert s >= grid_best
        assert 0.0 <= v <= 3.0
