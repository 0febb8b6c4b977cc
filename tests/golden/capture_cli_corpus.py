"""Write tests/golden/cli_corpus.json: argv, exit code, stdout and stderr of
every pinned command line, each run through `psqkd.cli.main` in-process from
the repository root, so that the paths in messages are stable.

    python3 tests/golden/capture_cli_corpus.py

A diff in the corpus is reviewed like a golden CSV diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"
FIGURES = [f"fig{n}" for n in range(2, 11)]

# the ranges each optimize variable is searched over
_RANGES = {"d": ("0", "3"), "tau": ("0.5", "0.99"), "V_A": ("2", "200")}

# the caller mistakes each command rejects with one `error:` line and exit 1
_ERRORS = [
    ["keyrate", "--set", "source.k=20"],
    ["keyrate", "--set", "channel.l_ac=inf"],
    ["keyrate", "--set", "source.variance=nan"],
    ["max-distance", "--set", "sweep.families=foo"],
    ["optimize", "--set", "optimize.variable=eta",
     "--set", "optimize.lo=0.5", "--set", "optimize.hi=1"],
    ["optimize", "--set", "optimize.variable=d", "--set", "optimize.lo=0",
     "--set", "optimize.hi=3", "--set", "optimize.family=foo"],
    ["max-distance", "--set", "sweep.families=tmsv,tmsv"],
    ["sweep", "--set", "sweep.variable=L_AC", "--set", "sweep.lo=0",
     "--set", "sweep.hi=1", "--set", "sweep.points=2",
     "--set", "sweep.families=1-pstmsc,01-pstmsc", "--out", os.devnull],
]

# one subtraction order above the stability cap, in every command
_ABOVE_CAP = [
    ["keyrate", "--set", "source.k=17"],
    ["max-distance", "--set", "sweep.families=17-pstmsc"],
    ["sweep", "--set", "sweep.families=17-pstmsc", "--out", os.devnull],
    ["optimize", "--set", "source.k=17", "--set", "optimize.variable=d",
     "--set", "optimize.lo=0", "--set", "optimize.hi=3"],
    ["optimize", "--set", "optimize.family=17-pstmsc", "--set", "optimize.variable=d",
     "--set", "optimize.lo=0", "--set", "optimize.hi=3"],
]

_FIG4 = ["--config", "configs/fig4.cfg"]

# further outcomes, each pinned with its full text: an override that moves the
# result, usage errors (exit 1) and domain outcomes (exit 2)
_OUTCOMES = [
    ("keyrate-fig4-l_ac-0", ["keyrate", *_FIG4, "--set", "channel.l_ac=0"]),
    ("unknown-key", ["keyrate", *_FIG4, "--set", "bogus=1"]),
    ("missing-config", ["keyrate", "--config", "configs/missing.cfg"]),
    ("zero-probability", ["keyrate", *_FIG4, "--set", "source.tau=1"]),
    ("channel-overflow", ["keyrate", *_FIG4, "--set", "channel.eps_A=1e150"]),
    ("fiber-underflow", ["keyrate", *_FIG4, "--set", "channel.l_ac=1e6"]),
    ("max-distance-unreachable",
     ["max-distance", *_FIG4, "--set", "sweep.families=tmsv,1-pstmsc",
      "--set", "max_distance.k_target=10"]),
    ("max-distance-negative-target",
     ["max-distance", *_FIG4, "--set", "max_distance.k_target=-0.012"]),
    ("optimize-negative-target",
     ["optimize", *_FIG4, "--set", "optimize.variable=d", "--set", "optimize.lo=0",
      "--set", "optimize.hi=3", "--set", "optimize.objective=max_distance",
      "--set", "optimize.k_target=-0.012"]),
    ("optimize-width-overflows",
     ["optimize", *_FIG4, "--set", "optimize.variable=d",
      "--set", "optimize.lo=-1.7e308", "--set", "optimize.hi=1.7e308"]),
    ("optimize-missing-keys", ["optimize", *_FIG4]),
    ("above-cap-l_ac-sweep",
     ["sweep", *_FIG4, "--set", "sweep.variable=L_AC", "--set", "sweep.lo=0",
      "--set", "sweep.hi=1", "--set", "sweep.points=2",
      "--set", "sweep.families=17-pstmsc", "--out", os.devnull]),
    ("oracle-check-5-points",
     ["oracle-check", *_FIG4, "--set", "oracle.points=5", "--set", "oracle.seed=11"]),
    *((f"oracle-check-bad-{i}", ["oracle-check", *_FIG4, "--set", setting])
      for i, setting in enumerate(("oracle.points=0", "oracle.points=-3", "oracle.seed=-1",
                                   "oracle.rel_tol=-1"))),
    # the benchmark's figures workload passes --threads 2 to every sweep
    # (perfbench/workloads.py:159), so the flag must keep exiting 0
    ("sweep-fig4-threads-2", ["sweep", *_FIG4, "--out", os.devnull, "--threads", "2"]),
]


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) of every case, in corpus order."""
    out = []
    for fig in FIGURES:
        config = ["--config", f"configs/{fig}.cfg"]
        out.append((f"keyrate-{fig}", ["keyrate", *config]))
        out.append((f"max-distance-{fig}", ["max-distance", *config]))
        out.append((f"max-distance-{fig}-1e-4",
                    ["max-distance", *config, "--set", "max_distance.k_target=1e-4"]))
    for fig in ("fig4", "fig7"):
        for variable, (lo, hi) in _RANGES.items():
            for objective in ("key_rate", "max_distance"):
                for family in (None, "tmsv", "1-pstmsv", "2-pstmsc"):
                    argv = ["optimize", "--config", f"configs/{fig}.cfg"]
                    for item in (f"variable={variable}", f"lo={lo}", f"hi={hi}",
                                 f"objective={objective}", "k_target=1e-4"):
                        argv += ["--set", "optimize." + item]
                    if family is not None:
                        argv += ["--set", "optimize.family=" + family]
                    out.append((f"optimize-{fig}-{variable}-{objective}-{family or 'source'}",
                                argv))
    out.append(("oracle-check-readme",
                ["oracle-check", "--config", "configs/fig2.cfg", "--set", "oracle.points=50"]))
    for prefix, group in (("error", _ERRORS), ("above-cap", _ABOVE_CAP)):
        for i, (command, *rest) in enumerate(group):
            out.append((f"{prefix}-{i}-{command}",
                        [command, *_FIG4, *rest]))
    out += _OUTCOMES
    return out


def run(argv: list[str]) -> dict:
    from psqkd.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def capture() -> None:
    sys.path.insert(0, str(REPO / "src"))
    os.chdir(REPO)
    corpus = [{"name": name, "argv": argv, **run(argv)} for name, argv in cases()]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} cases -> {CORPUS.relative_to(REPO)}")


if __name__ == "__main__":
    capture()
