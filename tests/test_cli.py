"""Config parsing, CSV rendering, exit codes, and golden-file stability."""

import argparse
import ast
import contextlib
import dataclasses
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import types
import warnings
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import libm_shim
from psqkd import cli
from psqkd.channel import GEOMETRIES, ChannelParams
from psqkd.cli import (
    _CHANNEL_RENAMES,
    _KNOWN_KEYS,
    CSV_HEADER,
    ConfigError,
    load_run_config,
    main,
    render_csv,
)
from psqkd.errors import PsqkdError
from psqkd.fock_oracle import compare_random_grid
from psqkd.keyrate import secret_key_rate
from psqkd.phase_space import SqueezedSourceParams
from psqkd.sweep import (
    DEFAULT_FAMILIES,
    SWEEP_VARIABLES,
    _evaluate,
    _family_distances,
    _grid,
    optimize_scalar,
    resolve_family,
)
from sweep_reference import point_records

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(p.stem for p in (REPO / "configs").glob("fig*.cfg"))

# argv, exit code, stdout and stderr of each pinned command line, as
# tests/golden/capture_cli_corpus.py wrote them
CORPUS = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))
# the 50-digit value of every golden cell and corpus keyrate number, as
# tests/golden/capture_truth_table.py wrote it from the inputs alone
TRUTH = json.loads((GOLDEN / "truth_table.json").read_text(encoding="utf-8"))
# golden cells that do not print as the correctly rounded 12 digits of their
# 50-digit value; a change may lower this count, never raise it
NOT_CORRECTLY_ROUNDED = 177

BASE_CFG = """\
# reference point used across the CLI tests
source.variance = 50
source.d = 2
source.tau = 0.9
source.k = 1
channel.geometry = asymmetric
channel.l_ac = 20
channel.eps_A = 0.002
channel.eps_B = 0.002
channel.beta = 0.96
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


class TestConfigParsing:
    def test_roundtrip(self, base_cfg):
        config = load_run_config(base_cfg)
        assert config.source.d == 2.0
        assert config.source.tau == 0.9
        assert config.source.k == 1
        assert config.source.r == pytest.approx(0.5 * math.acosh(50.0))
        assert config.channel.v_a == 50.0
        assert config.channel.l_ac == 20.0
        assert config.channel.eta == 1.0  # default

    def test_comments_and_blank_lines_ignored(self, base_cfg, tmp_path):
        path = tmp_path / "c.cfg"
        text = BASE_CFG.replace("source.d = 2", "source.d = 1 # trailing")
        path.write_text("\n# full-line comment\n" + text)
        values = load_run_config(base_cfg).values
        assert load_run_config(str(path)).values == {**values, "source.d": 1.0}

    def test_unknown_key_carries_line_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("source.d = 1\nsource.dd = 2\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*unknown key"):
            load_run_config(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("source.d = 1\nsource.d = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_run_config(str(path))

    def test_type_mismatch(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sweep.points = 2.5\n")
        with pytest.raises(ConfigError, match="expected int"):
            load_run_config(str(path))

    def test_missing_required_keys(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("source.variance = 3\nsource.d = 0\nsource.tau = 1\n")
        with pytest.raises(ConfigError, match="missing required keys: channel.geometry"):
            load_run_config(str(path))
        path.write_text(BASE_CFG.replace("source.variance = 50", ""))
        assert main(["keyrate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: missing required keys: source.variance\n"

    def test_squeezing_is_set_by_variance_only(self, tmp_path, capsys):
        # source.r = x is written source.variance = cosh(2x)
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CFG.replace("source.variance = 50", "source.r = 1"))
        assert main(["keyrate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: unknown key 'source.r'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_float_rejected(self, base_cfg, tmp_path, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"source.d = 1\nchannel.l_ac = {value}\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*channel\.l_ac.*finite"):
            load_run_config(str(path))
        with pytest.raises(ConfigError, match="source.variance.*finite"):
            load_run_config(base_cfg, [f"source.variance={value}"])

    @pytest.mark.parametrize(
        "text, override, error",
        [
            ("source.variance = 50\nsource.d 2\n", None,
             "{cfg}:2: expected 'key = value', got 'source.d 2'"),
            ("source.variance = 50\nsource.d = 2\nsource.tau = 1\nchannel.geometry =\n", None,
             "{cfg}:4: empty value for 'channel.geometry'"),
            (BASE_CFG, "sweep.families=",
             "--set sweep.families: empty value for 'sweep.families'"),
            # an empty number is reported as empty, not as a failed conversion
            (BASE_CFG, "source.d=", "--set source.d: empty value for 'source.d'"),
            (BASE_CFG + "sweep.points =\n", None, "{cfg}:11: empty value for 'sweep.points'"),
            (BASE_CFG, "source.variance=0.5", "v_a must be finite and exceed 1 SNU, got 0.5"),
            (BASE_CFG, "source.variance=1", "v_a must be finite and exceed 1 SNU, got 1.0"),
        ],
    )
    def test_config_mistake_is_one_usage_error_line(self, tmp_path, capsys, text, override, error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        overrides = ["--set", override] if override else []
        assert main(["max-distance", "--config", str(cfg), *overrides]) == 1
        assert capsys.readouterr() == ("", f"error: {error.format(cfg=cfg)}\n")

    def test_overrides_validated(self, base_cfg):
        with pytest.raises(ConfigError, match="expected key=value"):
            load_run_config(base_cfg, ["source.d"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(base_cfg, ["nope=1"])
        config = load_run_config(base_cfg, ["source.d=3"])
        assert config.values["source.d"] == config.source.d == 3.0

    def test_sweep_requires_grid_keys(self, base_cfg, tmp_path):
        out = argparse.Namespace(out=str(tmp_path / "s.csv"))
        config = load_run_config(base_cfg)
        with pytest.raises(ConfigError, match="sweep.variable"):
            cli.cmd_sweep(config, out)
        config = load_run_config(
            base_cfg, ["sweep.variable=L_AC", "sweep.lo=0", "sweep.hi=10"]
        )
        with pytest.raises(ConfigError, match="sweep.points"):
            cli.cmd_sweep(config, out)
        assert not (tmp_path / "s.csv").exists()

    def test_sweep_families_list(self, base_cfg):
        config = load_run_config(
            base_cfg,
            [
                "sweep.variable=L_AC",
                "sweep.lo=0",
                "sweep.hi=10",
                "sweep.points=3",
                "sweep.families=tmsv, 1-pstmsc",
            ],
        )
        assert config.section("sweep")["families"] == ("tmsv", "1-pstmsc")


# the library call each config section configures
SECTION_CALLS = {
    "source": SqueezedSourceParams,
    "channel": ChannelParams,
    "sweep": _evaluate,
    "max_distance": _family_distances,
    "optimize": optimize_scalar,
    "oracle": compare_random_grid,
}


def test_every_config_key_is_a_keyword_of_its_library_call():
    for key in _KNOWN_KEYS:
        if key == "source.variance":  # resolved here into r and the channel's v_a
            continue
        prefix, name = key.split(".")
        if prefix == "channel":
            name = _CHANNEL_RENAMES.get(name, name)
        assert name in inspect.signature(SECTION_CALLS[prefix]).parameters, key


class TestRenderCsv:
    def make_points(self, base_cfg, points=3, families=("tmsv", "1-pstmsc")):
        config = load_run_config(
            base_cfg,
            [
                "sweep.variable=tau",
                "sweep.lo=0.8",
                "sweep.hi=1.0",
                f"sweep.points={points}",
                "sweep.families=" + ",".join(families),
            ],
        )
        return _evaluate(config.source, config.channel, **config.section("sweep"))

    def test_header_and_shape(self, base_cfg):
        text = render_csv(self.make_points(base_cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        assert text.endswith("\n")

    def test_rows_sorted_by_value_then_family(self, base_cfg):
        lines = render_csv(self.make_points(base_cfg)).strip().split("\n")[1:]
        keys = [(float(l.split(",")[0]), l.split(",")[1]) for l in lines]
        assert keys == sorted(keys)

    def test_failed_cells_render_as_nan(self, base_cfg):
        lines = render_csv(self.make_points(base_cfg)).strip().split("\n")
        tau_one = [l for l in lines if l.startswith("1,1-pstmsc")]
        assert tau_one == ["1,1-pstmsc" + ",nan" * 7]

    def test_twelve_significant_digits(self, base_cfg):
        lines = render_csv(self.make_points(base_cfg)).strip().split("\n")
        row = next(l for l in lines if l.startswith("0.8,1-pstmsc"))
        p_ps = row.split(",")[2]
        assert len(p_ps.replace("0.", "")) >= 11


def _records(source, channel, variable, lo, hi, points, families) -> list[tuple]:
    """(swept value, family, KeyRateResult or None where it fails) of each
    cell of the sweep, from `secret_key_rate` cell by cell."""
    cells = []
    for value in _grid(lo, hi, points):
        for family in families:
            try:
                src, ch = point_records(source, channel, variable, value)
                result = secret_key_rate(resolve_family(family, src), ch)
            except (PsqkdError, ValueError):
                result = None
            cells.append((value, family, result))
    return cells


def _csv_of_records(cells) -> str:
    """The CSV of `_records`, formatted field by field."""
    lines = [CSV_HEADER]
    cells = sorted(cells, key=lambda cell: cell[:2])
    for value, family, result in cells:
        fields = [getattr(result, name, math.nan) for name in cli._CSV_FIELDS]
        lines.append(",".join(["%.12g" % value, family] + ["%.12g" % x for x in fields]))
    return "\n".join(lines) + "\n"


def _seeded_sweeps(variable):
    """`_evaluate`'s arguments for sweeps of `variable` from seeded base
    points, with 0, 1 and 9 points.
    Each 9-point range runs into failed cells: an underflowing fiber
    transmittance, V_A < 1, an overflowing source stage, a zero-probability
    subtraction at tau = 1, eta = 0. The last sweep repeats grid values."""
    lo, hi = {"L_AC": (0.0, 1e6), "V_A": (0.5, 300.0), "d": (0.0, 60.0),
              "tau": (0.0, 1.0), "eta": (0.0, 1.0)}[variable]
    families = DEFAULT_FAMILIES + ("0-pstmsc", "3-pstmsv", "4-pstmsc")
    rng = np.random.default_rng(100 + SWEEP_VARIABLES.index(variable))
    for points in (0, 1, 9, 9, 9):
        v_a = float(rng.uniform(1.5, 200.0))
        source = SqueezedSourceParams(
            0.5 * math.acosh(v_a), float(rng.choice([0.0, rng.uniform(0.0, 5.0)])),
            float(rng.uniform(0.3, 1.0)), int(rng.integers(0, 4)),
        )
        channel = ChannelParams(
            geometry=GEOMETRIES[int(rng.integers(0, 2))], l_ac=float(rng.uniform(0, 80)),
            v_a=v_a, beta=float(rng.uniform(0.8, 1.0)), eps_a=0.002, eps_b=0.002,
            eta=float(rng.uniform(0.5, 1.0)), v_el=float(rng.uniform(0.0, 0.1)),
        )
        yield source, channel, variable, lo, hi, points, families
    # 1e17 + 2 i rounds to 1e17 or 1e17 + 16: the rows of equal values interleave
    yield source, channel, variable, 1e17, 100000000000000016, 9, families


class TestSweepCells:
    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_float_cells_are_the_record_fields(self, variable):
        # the cells themselves are checked against the records in
        # test_sweep.py's test_seeded_sweeps_match_cell_by_cell_pipeline
        failed = succeeded = 0
        for args in _seeded_sweeps(variable):
            records = _records(*args)
            assert render_csv(_evaluate(*args)) == _csv_of_records(records)
            failed += sum(result is None for _, _, result in records)
            succeeded += sum(result is not None for _, _, result in records)
        assert failed > 0
        assert succeeded > 0

    def test_repeated_grid_values_interleave_by_family(self):
        grid = _grid(1e17, 100000000000000016, 9)
        low = grid.count(1e17)
        assert 1 < low < 9 and set(grid) == {1e17, 100000000000000016}
        rows = _evaluate(
            SqueezedSourceParams(1.0, 2.0, 0.9, 1),
            ChannelParams("asymmetric", 20.0, 50.0, 0.96, 0.002, 0.002),
            "V_A", 1e17, 100000000000000016, 9,
        )
        families = [line.split(",")[1] for line in render_csv(rows).splitlines()[1:]]
        # each family's rows of the lower value, then the next family's
        assert families[: 5 * low] == sorted(DEFAULT_FAMILIES * low)
        assert families[5 * low :] == sorted(DEFAULT_FAMILIES * (9 - low))


class TestMainExitCodes:
    # the exact argv, exit code and output of each exit path are corpus
    # cases (tests/golden/cli_corpus.json); these keep the relations and
    # error shapes that must survive a re-capture of the corpus
    def test_set_override_changes_output(self, base_cfg, capsys):
        assert main(["keyrate", "--config", base_cfg, "--set", "channel.l_ac=0"]) == 0
        near = json.loads(capsys.readouterr().out)
        assert main(["keyrate", "--config", base_cfg]) == 0
        far = json.loads(capsys.readouterr().out)
        assert near["key_rate"] > far["key_rate"]

    def test_unknown_override_key_is_usage_error(self, base_cfg, capsys):
        assert main(["keyrate", "--config", base_cfg, "--set", "bogus=1"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["keyrate", "--config", "/nonexistent.cfg"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file_is_usage_error_with_its_path(self, tmp_path, capsys):
        # the position is the byte's offset in the file, also past the
        # reader's first 8 KiB
        path = tmp_path / "latin1.cfg"
        for text, position in [
            (b"source.variance = 50\xff\n", 20),
            (b"#" * 9999 + b"\nsource.d = 1\xff\n", 10012),
        ]:
            path.write_bytes(text)
            assert main(["keyrate", "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: cannot read config: 'utf-8' codec can't decode byte 0xff "
                f"in position {position}: invalid start byte\n"
            )

    def test_domain_failure_is_exit_two(self, base_cfg, capsys):
        code = main(["keyrate", "--config", base_cfg, "--set", "source.tau=1"])
        assert code == 2
        assert "probability" in capsys.readouterr().err

    def test_sweep_range_whose_width_overflows_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "wide.csv"
        argv = ["sweep", "--config", str(REPO / "configs" / "fig7.cfg"), "--out", str(out)]
        for item in ("lo=-1.7e308", "hi=1.7e308", "points=3"):
            argv += ["--set", "sweep." + item]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: grid width hi - lo overflows, got [-1.7e+308, 1.7e+308]\n"
        )
        assert not out.exists()

    def test_optimize_missing_keys_is_usage_error(self, base_cfg, capsys):
        assert main(["optimize", "--config", base_cfg]) == 1
        assert "optimize.variable" in capsys.readouterr().err

    def test_oracle_check_small_grid(self, base_cfg, capsys):
        code = main(
            [
                "oracle-check",
                "--config",
                base_cfg,
                "--set",
                "oracle.points=5",
                "--set",
                "oracle.seed=11",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle check: PASS" in out

    @pytest.mark.parametrize(
        "setting",
        ["oracle.points=0", "oracle.points=-3", "oracle.seed=-1", "oracle.rel_tol=-1"],
    )
    def test_oracle_check_bad_grid_is_usage_error(self, base_cfg, setting, capsys):
        assert main(["oracle-check", "--config", base_cfg, "--set", setting]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_overflowing_channel_is_one_domain_error_line(self, base_cfg, capsys):
        code = main(["keyrate", "--config", base_cfg, "--set", "channel.eps_A=1e150"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: channel stage overflows")
        assert captured.err.count("\n") == 1

    def test_fiber_underflow_names_the_distance_and_loss(self, base_cfg, capsys):
        assert main(["keyrate", "--config", base_cfg, "--set", "channel.l_ac=1e6"]) == 1
        err = capsys.readouterr().err
        assert "L_AC = 1e+06 km" in err and "0.2 dB/km" in err

    def test_calls_in_one_process_share_no_parsed_state(self, base_cfg, tmp_path, capsys):
        # the parser is built once per process; --set must not leak across calls
        assert main(["keyrate", "--config", base_cfg, "--set", "channel.l_ac=0"]) == 0
        near = json.loads(capsys.readouterr().out)
        assert main(["keyrate", "--config", base_cfg]) == 0
        again = json.loads(capsys.readouterr().out)
        expect = load_run_config(base_cfg)
        assert again["key_rate"] == secret_key_rate(expect.source, expect.channel).key_rate
        assert again["key_rate"] < near["key_rate"]
        args = ["sweep", "--config", base_cfg, "--set", "sweep.variable=L_AC",
                "--set", "sweep.lo=0", "--set", "sweep.hi=1", "--set", "sweep.points=1"]
        assert main(args + ["--out", str(tmp_path / "g.csv"), "--threads", "3"]) == 0

    def test_non_finite_result_is_not_printed_as_json(self, base_cfg, monkeypatch, capsys):
        def nan_rate(source, channel):
            result = secret_key_rate(source, channel)
            return dataclasses.replace(result, key_rate=float("nan"))

        monkeypatch.setattr(cli, "secret_key_rate", nan_rate)
        assert main(["keyrate", "--config", base_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


FUZZ_CFG = BASE_CFG + (
    "optimize.variable = d\noptimize.lo = 0\noptimize.hi = 3\n"
    "sweep.variable = L_AC\nsweep.lo = 0\nsweep.hi = 40\nsweep.points = 3\n"
)
HOSTILE_VALUES = ("nan", "inf", "-1", "0", "1e400", "1e300", "1e-300", "1e150", "20", "foo")


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def fuzz_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    path.write_text(FUZZ_CFG)
    return str(path)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(["keyrate", "max-distance", "optimize", "sweep"]),
    overrides=st.lists(
        st.tuples(st.sampled_from(sorted(_KNOWN_KEYS)), st.sampled_from(HOSTILE_VALUES)),
        max_size=3,
    ),
)
# the overflow and non-finite cases the stage guards turn into typed errors
@example(command="keyrate", overrides=[("channel.eps_A", "1e150")])
@example(command="keyrate", overrides=[("channel.v_el", "1e300")])
@example(command="keyrate", overrides=[("channel.eta", "1e-300")])
@example(command="keyrate", overrides=[("source.variance", "1e300")])
@example(command="max-distance", overrides=[("channel.eps_B", "1e150")])
@example(command="max-distance", overrides=[("source.d", "1e150")])
@example(command="sweep", overrides=[("source.d", "1e150")])
def test_fuzzed_overrides_end_in_a_clean_exit(fuzz_cfg, command, overrides):
    argv = [command, "--config", fuzz_cfg]
    grid = Path(fuzz_cfg).with_name("grid.csv")
    if command == "sweep":
        argv += ["--out", str(grid)]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and command == "sweep":
        assert grid.read_text().startswith(CSV_HEADER + "\n")
    elif code == 0:
        json.loads(out.getvalue(), parse_constant=_strict_constant)


ARGV_MISTAKES = (
    "no command", "unknown command", "missing flag", "repeated flag", "unknown flag",
    "bad threads",
)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    mistake=st.sampled_from(ARGV_MISTAKES),
    data=st.data(),
)
def test_malformed_argv_is_one_usage_error_line(fuzz_cfg, command, mistake, data):
    pairs = [["--config", fuzz_cfg]]
    if command == "sweep":
        pairs += [["--out", str(Path(fuzz_cfg).with_name("argv.csv"))], ["--threads", "2"]]
    required = pairs[: 1 + (command == "sweep")]
    if mistake == "missing flag":
        pairs.remove(data.draw(st.sampled_from(required)))
    elif mistake == "repeated flag":
        pairs.append(list(data.draw(st.sampled_from(required))))
    elif mistake == "unknown flag":
        # a lone --set lacks its value
        pairs.append(data.draw(st.sampled_from([["--bogus"], ["-x", "1"], ["--set"]])))
    elif mistake == "bad threads":  # an unknown flag outside `sweep`
        pairs.append(["--threads", data.draw(st.sampled_from(["x", "1.5", "", "nan", "0x10"]))])
    argv = [arg for pair in data.draw(st.permutations(pairs)) for arg in pair]
    if mistake == "unknown command":
        argv.insert(0, data.draw(st.sampled_from(["bogus", "key-rate", "Keyrate", ""])))
    elif mistake != "no command":
        argv.insert(0, command)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1, argv
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["keyrate", "-h"], ["sweep", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: psqkd")


class TestSweepCommand:
    def test_writes_csv(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "sweep",
                "--config",
                base_cfg,
                "--set",
                "sweep.variable=L_AC",
                "--set",
                "sweep.lo=0",
                "--set",
                "sweep.hi=10",
                "--set",
                "sweep.points=3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 5  # five default families

    def test_zero_points_writes_header_only(self, base_cfg, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "sweep",
                "--config",
                base_cfg,
                "--set",
                "sweep.variable=L_AC",
                "--set",
                "sweep.lo=0",
                "--set",
                "sweep.hi=0",
                "--set",
                "sweep.points=0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == CSV_HEADER + "\n"

    def test_thread_count_output_is_byte_identical(self, base_cfg, tmp_path):
        args = [
            "sweep",
            "--config",
            base_cfg,
            "--set",
            "sweep.variable=L_AC",
            "--set",
            "sweep.lo=0",
            "--set",
            "sweep.hi=40",
            "--set",
            "sweep.points=9",
        ]
        one = tmp_path / "one.csv"
        many = tmp_path / "many.csv"
        assert main(args + ["--out", str(one), "--threads", "1"]) == 0
        assert main(args + ["--out", str(many), "--threads", "8"]) == 0
        assert one.read_bytes() == many.read_bytes()

    def test_overflowing_cells_are_nan_rows_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        args = ["sweep", "--config", str(REPO / "configs" / "fig8.cfg"),
                "--set", "source.d=1e150", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 41 * 5
        for line in lines[1:]:
            family, fields = line.split(",")[1], line.split(",")[2:]
            if family.endswith("pstmsc"):  # d = 1e150 only reaches these
                assert fields == ["nan"] * 7
            else:
                assert "nan" not in fields

    def test_unwritable_output_is_usage_error(self, base_cfg, capsys):
        args = [
            "sweep",
            "--config",
            base_cfg,
            "--set",
            "sweep.variable=L_AC",
            "--set",
            "sweep.lo=0",
            "--set",
            "sweep.hi=1",
            "--set",
            "sweep.points=1",
            "--out",
            "/nonexistent-dir/grid.csv",
        ]
        assert main(args) == 1
        assert "cannot write" in capsys.readouterr().err


class TestGoldenFixtures:
    def test_fixture_catalogue_complete(self):
        assert sorted(FIXTURES) == sorted(f"fig{n}" for n in range(2, 11))
        for name in FIXTURES:
            assert (GOLDEN / f"{name}.csv").exists(), name

    @pytest.mark.parametrize("name", FIXTURES)
    def test_regeneration_is_byte_identical(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(REPO / "configs" / f"{name}.cfg"),
                "--out",
                str(out),
                "--threads",
                "4",
            ]
        )
        assert code == 0
        golden = (GOLDEN / f"{name}.csv").read_bytes()
        assert out.read_bytes() == golden, f"{name} drifted from its golden file"

    def test_corpus_holds_the_capture_scripts_cases_in_order(self):
        spec = importlib.util.spec_from_file_location(
            "capture_cli_corpus", GOLDEN / "capture_cli_corpus.py"
        )
        capture = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(capture)
        assert [(case["name"], case["argv"]) for case in CORPUS] == capture.cases()

    @pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
    def test_cli_corpus(self, case, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        assert main(case["argv"]) == case["exit"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["stdout"], case["stderr"])


def _misses(got: dict, ref: dict, beta: float = 0.0) -> list[str]:
    """The fields of `ref` (the table's strings) whose value in `got`
    (decimal strings or floats) is outside its bound: 1e-10 relative, and
    for K, which cancels at the security edge, 1e-10 * p_ps * (beta I_AB +
    chi_BE) absolute."""
    ref = {name: Decimal(text) for name, text in ref.items()}
    if "key_rate" in ref:
        k_bound = Decimal("1e-10") * ref["p_ps"] * (Decimal(beta) * ref["i_ab"] + ref["chi_be"])
    return [
        name for name, exact in ref.items()
        if abs(Decimal(got[name]) - exact)
        > (k_bound if name == "key_rate" else Decimal("1e-10") * abs(exact))
    ]


_FIELDS = CSV_HEADER.split(",")[2:]


def _golden_csv(fig: str) -> str:
    return (GOLDEN / f"{fig}.csv").read_text(encoding="utf-8")


def _fresh_csv(fig: str) -> str:
    """The CSV that `psqkd sweep` writes for the figure's config, computed now."""
    config = load_run_config(str(REPO / "configs" / f"{fig}.cfg"))
    return render_csv(_evaluate(config.source, config.channel, **config.section("sweep")))


def _golden_rows(csv_of=_golden_csv):
    """(figure, beta, CSV row, the row's table entry) of every golden row,
    the rows read from `csv_of(figure)`."""
    for fig, rows in TRUTH["sweeps"].items():
        beta = load_run_config(str(REPO / "configs" / f"{fig}.cfg")).channel.beta
        lines = csv_of(fig).splitlines()[1:]
        assert len(lines) == len(rows), fig
        for line, row in zip(lines, rows):
            yield fig, beta, line.split(","), row


def _cell_misses(rows) -> tuple[int, list]:
    """(cells checked, cells outside their bound) of the `_golden_rows`."""
    checked, misses = 0, []
    for fig, beta, (head, family, *cells), (value, ref_family, ref) in rows:
        assert (head, family) == ("%.12g" % value, ref_family)
        if ref is None:  # a failed row prints nan, and only there
            assert cells == ["nan"] * len(cells)
            continue
        assert "nan" not in cells
        misses += [
            (fig, head, family, name)
            for name in _misses(dict(zip(_FIELDS, cells)), dict(zip(_FIELDS, ref)), beta)
        ]
        checked += len(cells)
    return checked, misses


def _keyrate_misses(stdout_of) -> tuple[int, list]:
    """(numbers checked, numbers outside their bound) of the `keyrate`
    corpus cases that exit 0, each case printing `stdout_of(case)`."""
    cases = [case for case in CORPUS if case["argv"][0] == "keyrate" and case["exit"] == 0]
    assert sorted(case["name"] for case in cases) == sorted(TRUTH["keyrate"])
    checked, misses = 0, []
    for case in cases:
        got, ref = json.loads(stdout_of(case)), dict(TRUTH["keyrate"][case["name"]])
        got_noise, ref_noise = got.pop("noise"), ref.pop("noise")
        args = cli._build_parser().parse_args(case["argv"])
        beta = load_run_config(args.config, args.set).channel.beta
        misses += [(case["name"], name) for name in _misses(got, ref, beta)]
        misses += [(case["name"], name) for name in _misses(got_noise, ref_noise)]
        checked += len(got) + len(got_noise)
    return checked, misses


def _fresh_stdout(case: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(case["argv"]) == 0
    return out.getvalue()


def _correctly_rounded(text: str, ref: str) -> bool:
    """Whether `text` is the 12-significant-digit rounding of `ref`."""
    exact = Decimal(ref)
    if not exact:
        return Decimal(text) == 0
    quantum = Decimal(1).scaleb(exact.adjusted() - 11)
    return Decimal(text) == exact.quantize(quantum, rounding=ROUND_HALF_EVEN)


class TestTruthTable:
    def test_every_golden_cell_is_within_its_bound(self):
        assert _cell_misses(_golden_rows()) == (11_116, [])

    def test_correctly_rounded_cells_do_not_drop(self):
        wrong = sum(
            not _correctly_rounded(text, ref)
            for *_, (_, _, *cells), (_, _, refs) in _golden_rows()
            if refs is not None
            for text, ref in zip(cells, refs)
        )
        assert wrong <= NOT_CORRECTLY_ROUNDED

    def test_every_keyrate_number_in_the_corpus(self, monkeypatch):
        monkeypatch.chdir(REPO)
        assert _keyrate_misses(lambda case: case["stdout"]) == (150, [])

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_hold_under_a_libm_one_ulp_off(self, seed, monkeypatch):
        # the golden and corpus bytes are this platform's libm; the table's
        # bound is the verdict that must hold on any libm within 1 ulp of it
        shim = libm_shim.perturbed(seed)
        for module in ("phase_space", "channel", "keyrate", "sweep", "cli"):
            monkeypatch.setattr(f"psqkd.{module}.math", shim)
        monkeypatch.chdir(REPO)
        assert _cell_misses(_golden_rows(_fresh_csv)) == (11_116, [])
        assert _keyrate_misses(_fresh_stdout) == (150, [])
        # the stand-in reaches the numbers: some cells print differently
        rows = zip(_golden_rows(_fresh_csv), _golden_rows())
        assert any(fresh[2] != golden[2] for fresh, golden in rows)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process, with this checkout's package."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )


class TestImports:
    # fresh interpreters: this one has scipy loaded by the test references
    def test_cli_import_leaves_scipy_unloaded(self):
        proc = _fresh_python(
            "-c", "import sys, psqkd.cli; assert 'scipy' not in sys.modules"
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_graph(self):
        # every import statement at any scope, as absolute or dotted names
        imported = {}
        for path in sorted((REPO / "src" / "psqkd").glob("*.py")):
            names = imported[path.name] = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    names.add("." * node.level + (node.module or ""))
        numpy_users = {
            name for name, mods in imported.items()
            if any(mod.split(".")[0] == "numpy" for mod in mods)
        }
        assert numpy_users == {"fock_oracle.py"}
        # the source module needs the standard library and the package only
        absolute = {name for name in imported["phase_space.py"] if not name.startswith(".")}
        assert absolute <= sys.stdlib_module_names

    def test_reference_formulas_stay_out_of_the_package(self):
        # the channel stage is one kernel; its per-formula twins live only in
        # the test reference that pins it
        def defined(path):
            return {
                node.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }

        reference = defined(REPO / "tests" / "keyrate_reference.py")
        assert "symplectic_eigenvalues" in reference
        package = set().union(*map(defined, (REPO / "src" / "psqkd").glob("*.py")))
        assert reference & package == set()

    def test_benchmark_names_resolve(self):
        # a name the benchmark's workloads or its own tests take from psqkd,
        # by `from psqkd.m import name` or as `psqkd.m.name`, must still
        # exist there
        bench = REPO / "perfbench"
        paths = [bench / "workloads.py", *sorted((bench / "tests").glob("*.py"))]
        used = set()
        for node in (n for path in paths for n in ast.walk(ast.parse(path.read_text()))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("psqkd"):
                used.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "psqkd"
            ):
                used.add((f"psqkd.{node.value.attr}", node.attr))
        assert used, "no psqkd names found in the workloads"
        assert ("psqkd.sweep", "secret_key_rate") in used  # the tracer's test reads it

        def defines(module: str, name: str) -> bool:
            # a module that no longer exists defines none of its names
            try:
                return hasattr(importlib.import_module(module), name)
            except ModuleNotFoundError:
                return False

        missing = [
            f"{module}.{name}" for module, name in sorted(used) if not defines(module, name)
        ]
        assert missing == []
        # the tracer wraps each name of its TRACED dict and skips a missing
        # one without a word; the dict is read without importing perfbench
        (traced,) = [
            ast.literal_eval(node.value)
            for node in ast.parse((bench / "tracer.py").read_text()).body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]
        ]
        # by span name, as the tracer names them: module, without the
        # package, and function
        missing = {
            f"{module.rsplit('.', 1)[1]}.{name}"
            for module, names in traced.items() for name in names
            if not defines(module, name)
        }
        # already dark: the keyrate and oracle names moved to the test
        # references, run_sweep went with the sweep's record layer (`psqkd
        # sweep` runs `_evaluate`), and the moments and channel names went
        # with the record-returning twins of the stages, which no pipeline
        # called (the moments module itself is now part of phase_space), and
        # load_run_config went with the config module into psqkd.cli;
        # ROADMAP item 1 re-points the tracer at the stages that run
        assert missing == {
            "config.load_run_config",
            "sweep.run_sweep",
            "keyrate.holevo_bound",
            "keyrate.symplectic_eigenvalues",
            "keyrate.conditional_cm_after_heterodyne",
            "moments.pstmsc_covariance",
            "moments.subtraction_probability",
            "channel.noise_breakdown",
            "fock_oracle.fock_moment",
        }

    def test_benchmark_warmup_ops_pass_their_checks(self, tmp_path):
        # each workload's fixed warm-up op, run against this tree and judged
        # by the workload's own check; the module is read, not imported, so
        # nothing is written beside it. oracle_grid's set-up only draws the
        # timed ops' seeds, which the warm-up does not need
        path = REPO / "perfbench" / "workloads.py"
        workloads = types.ModuleType("workloads")
        workloads.__file__ = str(path)
        exec(compile(path.read_text(), str(path), "exec"), vars(workloads))
        figures = workloads.Figures(0, 0, str(tmp_path))
        figures.setup()
        for workload in (figures, workloads.OracleGrid(0, 0, str(tmp_path))):
            op = workload.warmup
            assert workload.check(op, workload.run(op)) is None, type(workload).__name__

    def test_exported_names_resolve(self):
        # a name retired from a module must leave its __all__ too
        package = importlib.import_module("psqkd")
        modules = [package] + [
            importlib.import_module(f"psqkd.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        missing = [
            f"{module.__name__}.{name}" for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert missing == []
        exec("from psqkd import *", {})

    def test_channel_params_takes_dataclasses_replace(self):
        # perfbench/workloads.py:95-102 (_distance_failure) probes each
        # certified distance through dataclasses.replace(channel, l_ac=...)
        channel = ChannelParams("asymmetric", 20.0, 50.0, 0.96)
        assert dataclasses.replace(channel, l_ac=30.0) == ChannelParams(
            "asymmetric", 30.0, 50.0, 0.96
        )

    def test_cli_runs_leave_numpy_unloaded(self, tmp_path):
        # numpy is loaded only by the Fock oracle behind oracle-check
        cfg = REPO / "configs" / "fig6.cfg"
        code = f"""
import math, sys, psqkd, psqkd.cli
from psqkd.cli import main
base = ["--config", {str(cfg)!r}]
opt = ["--set", "optimize.variable=tau", "--set", "optimize.lo=0.5",
       "--set", "optimize.hi=0.95"]
assert main(["keyrate", *base]) == 0
assert main(["sweep", *base, "--out", {str(tmp_path / "fig6.csv")!r}]) == 0
assert main(["max-distance", *base]) == 0
assert main(["optimize", *base, *opt]) == 0
source = psqkd.SqueezedSourceParams(r=0.5, d=1.0, tau=0.9, k=1)
psqkd.source_stage(source.r, source.d, source.tau, source.k)
channel = psqkd.ChannelParams("asymmetric", 20.0, math.cosh(2.0 * source.r), 0.96)
psqkd.secret_key_rate(source, channel)
assert "numpy" not in sys.modules, "numpy loaded"
assert main(["oracle-check", *base, "--set", "oracle.points=2"]) == 0
assert "numpy" in sys.modules
"""
        proc = _fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert "oracle check: PASS" in proc.stdout

    def test_fock_oracle_runs_without_scipy(self):
        code = (
            "import sys, psqkd, psqkd.fock_oracle; "
            "psqkd.fock_oracle.compare_random_grid(points=1); "
            "assert 'scipy' not in sys.modules"
        )
        proc = _fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr


class TestFreshRuns:
    def test_optimize_over_overflowing_grid_writes_no_warnings(self):
        # grid values near 1e300 overflow in the moments arithmetic; as numpy
        # scalars they printed RuntimeWarnings on stderr
        proc = _fresh_python(
            "-m", "psqkd.cli", "optimize",
            "--config", str(REPO / "configs" / "fig6.cfg"),
            "--set", "optimize.variable=d",
            "--set", "optimize.lo=0",
            "--set", "optimize.hi=1e300",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["best_value"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["keyrate", "--config", "configs/fig6.cfg"],
            ["max-distance", "--config", "configs/fig7.cfg"],
        ],
    )
    def test_closed_stdout_exits_1_without_a_traceback(self, argv):
        read, write = os.pipe()
        os.close(read)  # before the child starts, so its every write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "psqkd.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
                env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ""  # no traceback, no "Exception ignored" line
