"""Write tests/golden/truth_table.json: the 50-digit value of every numeric
cell of the golden CSVs and of every `keyrate` number in the CLI corpus,
computed from the inputs alone.

    python3 tests/golden/capture_truth_table.py

Each input comes from config parsing: for a sweep, the config's source and
channel with the swept value moved in by `sweep._apply_value` and each
family pinned by `sweep._family_pins`; for a `keyrate` case, its argv. From
there `tests/mp_reference.py` computes the source stage, the channel
reduction and the channel stage at 50 digits. The float pipeline
(`_source_stage`, `_breakdown_at`, `_channel_stage`) is never called, so
the table says what is true, not what the code printed. Each value is kept
to 25 significant digits, enough to decide 12-digit rounding and every
bound. A row whose subtraction event has probability 0 is `null`, as the
golden CSV prints it `nan`.

A re-capture of the table is reviewed like a golden diff.
"""

import json
import os
import sys
from pathlib import Path

import mpmath

REPO = Path(__file__).resolve().parents[2]
TABLE = Path(__file__).resolve().parent / "truth_table.json"
FIGURES = [f"fig{n}" for n in range(2, 11)]
DIGITS = 25
RATE_FIELDS = ("p_ps", "i_ab", "chi_be", "key_rate", "lambda1", "lambda2", "lambda3")
NOISE_FIELDS = ("t_a", "t_b", "g", "t", "eps_th", "chi_line", "chi_homo", "chi_tot")


def _text(values) -> list[str]:
    return [mpmath.nstr(v, DIGITS) for v in values]


def _cells(key: tuple, noise: tuple, beta: float) -> list[str] | None:
    """The KeyRateResult fields p_ps to lambda3 of the source `key` (r, d,
    tau, k) through the reduction `noise`, or None where p_ps is 0."""
    import mp_reference

    stage = mp_reference.source_stage(*key)
    if stage[0] == 0:
        return None
    return _text((stage[0], *mp_reference.channel_stage(stage, noise[3], noise[7], beta)))


def _sweep_rows(fig: str) -> list:
    """[swept value, family, the seven CSV cells or null] per CSV row, in
    the CSV's order."""
    from psqkd.config import load_run_config
    from psqkd.sweep import DEFAULT_FAMILIES, _apply_value, _family_pins, _grid, _pinned

    import mp_reference

    config = load_run_config(f"configs/{fig}.cfg")
    grid = config.section("sweep")
    families = grid.get("families", DEFAULT_FAMILIES)
    pins = [_family_pins(name) for name in families]
    rows = []
    for value in _grid(grid["lo"], grid["hi"], grid["points"]):
        src, ch = _apply_value(config.source, config.channel, grid["variable"], value)
        noise = mp_reference.breakdown(ch, ch.l_ac)
        for family, pin in zip(families, pins):
            rows.append([value, family, _cells(_pinned(src, pin), noise, ch.beta)])
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _keyrate_numbers(argv: list[str]) -> dict:
    """The `keyrate` JSON of `argv` at 50 digits, nested as it prints."""
    from psqkd.cli import _build_parser
    from psqkd.config import load_run_config

    import mp_reference

    args = _build_parser().parse_args(argv)
    config = load_run_config(args.config, args.set)
    source, channel = config.source, config.channel
    noise = mp_reference.breakdown(channel, channel.l_ac)
    key = source.r, source.d, source.tau, source.k
    return {**dict(zip(RATE_FIELDS, _cells(key, noise, channel.beta))),
            "noise": dict(zip(NOISE_FIELDS, _text(noise)))}


def _dumps(table: dict) -> str:
    """`table` as JSON with one sweep row or keyrate case per line."""
    def block(items) -> str:
        return "{\n" + ",\n".join(f"{json.dumps(key)}: {body}" for key, body in items) + "\n}"

    sweeps = block(
        (fig, "[\n" + ",\n".join(map(json.dumps, rows)) + "\n]")
        for fig, rows in table["sweeps"].items()
    )
    keyrate = block((name, json.dumps(numbers)) for name, numbers in table["keyrate"].items())
    return block((("sweeps", sweeps), ("keyrate", keyrate))) + "\n"


def capture() -> None:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    os.chdir(REPO)
    corpus = json.loads((TABLE.parent / "cli_corpus.json").read_text(encoding="utf-8"))
    table = {
        "sweeps": {fig: _sweep_rows(fig) for fig in FIGURES},
        "keyrate": {
            case["name"]: _keyrate_numbers(case["argv"])
            for case in corpus
            if case["argv"][0] == "keyrate" and case["exit"] == 0
        },
    }
    TABLE.write_text(_dumps(table), encoding="utf-8")
    rows = sum(len(rows) for rows in table["sweeps"].values())
    print(f"{rows} sweep rows, {len(table['keyrate'])} keyrate cases -> "
          f"{TABLE.relative_to(REPO)}")


if __name__ == "__main__":
    capture()
