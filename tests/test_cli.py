"""Config parsing, CSV rendering, exit codes, and golden-file stability."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psqkd import cli
from psqkd.cli import CSV_HEADER, main, render_csv
from psqkd.channel import ChannelParams
from psqkd.config import (
    _CHANNEL_RENAMES,
    _KNOWN_KEYS,
    ConfigError,
    apply_overrides,
    build_sweep_spec,
    load_run_config,
    parse_config_file,
)
from psqkd.fock_oracle import compare_random_grid
from psqkd.keyrate import secret_key_rate
from psqkd.phase_space import SqueezedSourceParams
from psqkd.sweep import SweepSpec, max_secure_distance, optimize_scalar, run_sweep

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(p.stem for p in (REPO / "configs").glob("fig*.cfg"))

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

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# full-line comment\nsource.d = 1 # trailing\n")
        assert parse_config_file(str(path)) == {"source.d": "1"}

    def test_unknown_key_carries_line_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("source.d = 1\nsource.dd = 2\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*unknown key"):
            parse_config_file(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("source.d = 1\nsource.d = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(str(path))

    def test_type_mismatch(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("sweep.points = 2.5\n")
        with pytest.raises(ConfigError, match="expected int"):
            parse_config_file(str(path))

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("source.r = 1\nsource.d = 0\nsource.tau = 1\n")
        with pytest.raises(ConfigError, match="missing required keys"):
            load_run_config(str(path))

    def test_r_and_variance_are_mutually_exclusive(self, base_cfg):
        with pytest.raises(ConfigError, match="exactly one"):
            load_run_config(base_cfg, ["source.r=1.0"])

    def test_overflowing_squeezing_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CFG.replace("source.variance = 50", "source.r = 1000"))
        with pytest.raises(ConfigError, match="source.r = 1000 overflows"):
            load_run_config(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_float_rejected(self, tmp_path, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"source.d = 1\nchannel.l_ac = {value}\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*channel\.l_ac.*finite"):
            parse_config_file(str(path))
        with pytest.raises(ConfigError, match="source.variance.*finite"):
            apply_overrides({}, [f"source.variance={value}"])

    def test_overrides_validated(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            apply_overrides({}, ["source.d"])
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides({}, ["nope=1"])
        assert apply_overrides({"source.d": "1"}, ["source.d=2"]) == {
            "source.d": "2"
        }

    def test_build_sweep_spec_requires_grid_keys(self, base_cfg):
        config = load_run_config(base_cfg)
        with pytest.raises(ConfigError, match="sweep.variable"):
            build_sweep_spec(config)
        config = load_run_config(
            base_cfg, ["sweep.variable=L_AC", "sweep.lo=0", "sweep.hi=10"]
        )
        with pytest.raises(ConfigError, match="sweep.points"):
            build_sweep_spec(config)

    def test_build_sweep_spec_families_list(self, base_cfg):
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
        spec = build_sweep_spec(config)
        assert spec.families == ("tmsv", "1-pstmsc")


# the library call each config section configures
SECTION_CALLS = {
    "source": SqueezedSourceParams,
    "channel": ChannelParams,
    "sweep": SweepSpec,
    "max_distance": max_secure_distance,
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
    def make_rows(self, base_cfg, points=3, families=("tmsv", "1-pstmsc")):
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
        return run_sweep(build_sweep_spec(config))

    def test_header_and_shape(self, base_cfg):
        text = render_csv(self.make_rows(base_cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        assert text.endswith("\n")

    def test_rows_sorted_by_value_then_family(self, base_cfg):
        lines = render_csv(self.make_rows(base_cfg)).strip().split("\n")[1:]
        keys = [(float(l.split(",")[0]), l.split(",")[1]) for l in lines]
        assert keys == sorted(keys)

    def test_failed_cells_render_as_nan(self, base_cfg):
        lines = render_csv(self.make_rows(base_cfg)).strip().split("\n")
        tau_one = [l for l in lines if l.startswith("1,1-pstmsc")]
        assert tau_one == ["1,1-pstmsc" + ",nan" * 7]

    def test_twelve_significant_digits(self, base_cfg):
        lines = render_csv(self.make_rows(base_cfg)).strip().split("\n")
        row = next(l for l in lines if l.startswith("0.8,1-pstmsc"))
        p_ps = row.split(",")[2]
        assert len(p_ps.replace("0.", "")) >= 11


class TestMainExitCodes:
    def test_keyrate_json(self, base_cfg, capsys):
        assert main(["keyrate", "--config", base_cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        config = load_run_config(base_cfg)
        # KeyRateResult field for field, the NoiseBreakdown nested under "noise"
        assert payload == dataclasses.asdict(secret_key_rate(config.source, config.channel))

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

    def test_domain_failure_is_exit_two(self, base_cfg, capsys):
        code = main(["keyrate", "--config", base_cfg, "--set", "source.tau=1"])
        assert code == 2
        assert "probability" in capsys.readouterr().err

    def test_max_distance_json(self, base_cfg, capsys):
        code = main(
            [
                "max-distance",
                "--config",
                base_cfg,
                "--set",
                "sweep.families=tmsv,1-pstmsc",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tmsv"] == pytest.approx(44.7422, abs=0.01)
        assert payload["1-pstmsc"] == pytest.approx(68.0703, abs=0.01)

    def test_max_distance_unreachable_family_is_null_and_exit_two(
        self, base_cfg, capsys
    ):
        code = main(
            [
                "max-distance",
                "--config",
                base_cfg,
                "--set",
                "sweep.families=tmsv,1-pstmsc",
                "--set",
                "max_distance.k_target=10",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"tmsv": None, "1-pstmsc": None}
        assert captured.err == (
            "error: tmsv: target unreachable\nerror: 1-pstmsc: target unreachable\n"
        )

    def test_optimize_json(self, base_cfg, capsys):
        code = main(
            [
                "optimize",
                "--config",
                base_cfg,
                "--set",
                "optimize.variable=d",
                "--set",
                "optimize.lo=0",
                "--set",
                "optimize.hi=3",
                "--set",
                "optimize.objective=max_distance",
                "--set",
                "optimize.k_target=1e-4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variable"] == "d"
        assert payload["best_value"] == pytest.approx(1.708, abs=0.01)
        assert payload["objective_value"] == pytest.approx(63.570, abs=0.02)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["keyrate", "--set", "source.k=20"],
            ["keyrate", "--set", "channel.l_ac=inf"],
            ["keyrate", "--set", "source.variance=nan"],
            ["max-distance", "--set", "sweep.families=foo"],
            ["optimize", "--set", "optimize.variable=eta",
             "--set", "optimize.lo=0.5", "--set", "optimize.hi=1"],
            ["optimize", "--set", "optimize.variable=d", "--set", "optimize.lo=0",
             "--set", "optimize.hi=3", "--set", "optimize.family=foo"],
            ["max-distance", "--set", "sweep.families=tmsv,tmsv"],
        ],
    )
    def test_caller_error_is_one_error_line(self, base_cfg, argv, capsys):
        assert main([argv[0], "--config", base_cfg, *argv[1:]]) == 1
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

    def test_cli_runs_leave_numpy_unloaded(self, tmp_path):
        # numpy is loaded only by the array helpers and the Fock oracle
        cfg = REPO / "configs" / "fig6.cfg"
        code = f"""
import sys, psqkd, psqkd.cli
from psqkd.cli import main
base = ["--config", {str(cfg)!r}]
opt = ["--set", "optimize.variable=tau", "--set", "optimize.lo=0.5",
       "--set", "optimize.hi=0.95"]
assert main(["keyrate", *base]) == 0
assert main(["sweep", *base, "--out", {str(tmp_path / "fig6.csv")!r}]) == 0
assert main(["max-distance", *base]) == 0
assert main(["optimize", *base, *opt]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
import numpy as np
source = psqkd.SqueezedSourceParams(r=0.5, d=1.0, tau=0.9, k=1)
arrays = (
    psqkd.pstmsc_covariance(source).as_matrix(),
    psqkd.wigner_tmsc(psqkd.PhasePoint(0.1, 0.2, 0.3, np.zeros(3)), source),
    psqkd.bs_symplectic(0.9),
)
assert all(isinstance(a, np.ndarray) for a in arrays)
assert main(["oracle-check", *base, "--set", "oracle.points=2"]) == 0
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
