"""Command-line front end and the run configuration it reads.

Subcommands wrap the library one-to-one: `keyrate` prints a single
KeyRateResult as JSON, `sweep` writes the grid CSV straight from the
sweep's float cells, `max-distance` and `optimize` report search results
as JSON, and `oracle-check` runs the closed-form vs Fock-space comparison.
Exit codes: 0 success, 1 usage/config error, 2 domain error (insecure
region, unreachable target, zero-probability event, overflow).

A run is one flat dotted-key config file: UTF-8 text, one `key = value`
per line, `#` starts a comment. Keys are whitelisted; anything unknown is
rejected with its line number so fixture typos fail loudly instead of
silently using defaults. `--set` overrides go through the same checks with
a synthetic source location.

Each section configures one library call: `source`, `channel`, `sweep`,
`max_distance`, `optimize` and `oracle` configure SqueezedSourceParams,
ChannelParams, the sweep (`sweep._evaluate`), the per-family distance
searches (`sweep._family_distances`), optimize_scalar and
compare_random_grid. `prefix.name` is keyword `name` of that call, an
absent key takes that call's default, and the call checks the value. The
exceptions: `source.variance` is resolved here into r and the channel's
v_a; `source.k` and `channel.l_ac`, which the calls require, default to 0
here; `channel.eps_A`/`eps_B` are `eps_a`/`eps_b`; and `max-distance`
takes its family list from `sweep.families`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import operator
import os
import sys

from .channel import ChannelParams
from .errors import PsqkdError
from .keyrate import secret_key_rate
from .phase_space import SqueezedSourceParams
from .sweep import DEFAULT_FAMILIES, _evaluate, _family_distances, optimize_scalar

__all__ = ["ConfigError", "RunConfig", "load_run_config", "main"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; message carries file:line."""


# key -> type tag, which names the conversion of its raw value
_KNOWN_KEYS: dict[str, str] = {
    "source.variance": "float",
    "source.d": "float",
    "source.tau": "float",
    "source.k": "int",
    "channel.geometry": "str",
    "channel.l_ac": "float",
    "channel.eps_A": "float",
    "channel.eps_B": "float",
    "channel.beta": "float",
    "channel.eta": "float",
    "channel.v_el": "float",
    "channel.loss_db_per_km": "float",
    "sweep.variable": "str",
    "sweep.lo": "float",
    "sweep.hi": "float",
    "sweep.points": "int",
    "sweep.families": "list",
    "max_distance.k_target": "float",
    "optimize.variable": "str",
    "optimize.lo": "float",
    "optimize.hi": "float",
    "optimize.objective": "str",
    "optimize.family": "str",
    "optimize.k_target": "float",
    "oracle.points": "int",
    "oracle.seed": "int",
    "oracle.rel_tol": "float",
}

# type tag -> conversion of a raw value
_CONVERT = {
    "float": float,
    "int": int,
    "str": str,
    "list": lambda raw: tuple(name.strip() for name in raw.split(",") if name.strip()),
}

_CHANNEL_RENAMES = {"eps_A": "eps_a", "eps_B": "eps_b"}


def _section(
    values: dict[str, object], prefix: str, required: tuple[str, ...] = ()
) -> dict[str, object]:
    head = prefix + "."
    missing = [head + name for name in required if head + name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return {key[len(head):]: value for key, value in values.items() if key.startswith(head)}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated physical parameters plus every entry, converted by its type tag."""

    source: SqueezedSourceParams
    channel: ChannelParams
    values: dict[str, object]

    def section(self, prefix: str, required: tuple[str, ...] = ()) -> dict[str, object]:
        """The `prefix.*` entries as keyword arguments; raises ConfigError
        when a `required` name is absent."""
        return _section(self.values, prefix, required)


def _check_entry(key: str, value: str, where: str) -> object:
    """`value` converted by the type tag of `key`, or a ConfigError at `where`."""
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if not value:
        raise ConfigError(f"{where}: empty value for {key!r}")
    kind = _KNOWN_KEYS[key]
    try:
        converted = _CONVERT[kind](value)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind} for {key!r}, got {value!r}") from None
    if kind == "float" and not math.isfinite(converted):
        raise ConfigError(f"{where}: {key!r} must be finite, got {value!r}")
    return converted


def load_run_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    """The run of the config file `path`, each `key=value` of `overrides`
    (the `--set`s) replacing its entry. A mistake in the text raises
    ConfigError with its file and line, or its `--set`, before any record
    is built; a value the records refuse raises it in their words."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")  # whole: a bad byte's offset is the file's
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        where = f"{path}:{lineno}"
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = _check_entry(key, value, where)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        values[key] = _check_entry(key, value, f"--set {key}")
    source = _section(values, "source", required=("variance", "d", "tau"))
    channel = _section(values, "channel", required=("geometry", "eps_A", "eps_B", "beta"))
    v_a = source.pop("variance")
    channel = {_CHANNEL_RENAMES.get(name, name): value for name, value in channel.items()}
    try:
        ChannelParams._check({"v_a": v_a})
        return RunConfig(
            SqueezedSourceParams(r=0.5 * math.acosh(v_a), **{"k": 0, **source}),
            ChannelParams(v_a=v_a, **{"l_ac": 0.0, **channel}),
            values,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# the KeyRateResult fields of each CSV row, after the swept value and family
_CSV_FIELDS = ("p_ps", "i_ab", "chi_be", "key_rate", "lambda1", "lambda2", "lambda3")
CSV_HEADER = ",".join(("swept_value", "family") + _CSV_FIELDS)
_CELL = ",%.12g" * len(_CSV_FIELDS)
_FAILED = ",nan" * len(_CSV_FIELDS)

_USAGE_EXIT = 1
_DOMAIN_EXIT = 2


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def cmd_keyrate(config: RunConfig, args: argparse.Namespace) -> int:
    result = secret_key_rate(config.source, config.channel)
    _print_json(dataclasses.asdict(result))
    return 0


def render_csv(rows: list[tuple]) -> str:
    """Deterministic CSV of the rows of `sweep._evaluate`: 12 significant
    digits, sorted by (value, family); a failed cell prints nan."""
    lines = [CSV_HEADER]
    for value, family, cell in sorted(rows, key=operator.itemgetter(0, 1)):
        tail = _FAILED if isinstance(cell, str) else _CELL % cell
        lines.append("%.12g,%s%s" % (value, family, tail))
    return "\n".join(lines) + "\n"


def cmd_sweep(config: RunConfig, args: argparse.Namespace) -> int:
    rows = _evaluate(
        config.source,
        config.channel,
        **config.section("sweep", required=("variable", "lo", "hi", "points")),
    )
    text = render_csv(rows)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return 0


def cmd_max_distance(config: RunConfig, args: argparse.Namespace) -> int:
    families = config.section("sweep").get("families", DEFAULT_FAMILIES)
    distances = _family_distances(
        config.source, config.channel, families, **config.section("max_distance")
    )
    payload: dict[str, float | None] = {}
    for family, km in zip(families, distances):
        failed = isinstance(km, str)
        if failed:
            print(f"error: {family}: {km}", file=sys.stderr)
        payload[family] = None if failed else round(km, 4)
    _print_json(payload)
    return _DOMAIN_EXIT if None in payload.values() else 0


def cmd_optimize(config: RunConfig, args: argparse.Namespace) -> int:
    call = inspect.signature(optimize_scalar).bind(
        config.source,
        config.channel,
        **config.section("optimize", required=("variable", "lo", "hi")),
    )
    call.apply_defaults()  # the JSON reports the objective actually used
    best, value = optimize_scalar(*call.args, **call.kwargs)
    _print_json(
        {
            "variable": call.arguments["variable"],
            "best_value": best,
            "objective": call.arguments["objective"],
            "objective_value": value,
        }
    )
    return 0


def cmd_oracle_check(config: RunConfig, args: argparse.Namespace) -> int:
    # imported here so that only this subcommand loads the oracle
    from .fock_oracle import compare_random_grid

    report = compare_random_grid(**config.section("oracle"))
    status = "PASS" if report.passed else "FAIL"
    print(f"points: {report.points}  seed: {report.seed}  rel_tol: {report.rel_tol:g}")
    print(f"max deviation probability: {report.max_dev_probability:.3e}")
    print(f"max deviation covariance:  {report.max_dev_covariance:.3e}")
    print(f"max deviation means:       {report.max_dev_means:.3e}")
    print(f"oracle check: {status}")
    return 0 if report.passed else _DOMAIN_EXIT


# each handler takes the loaded config and the parsed arguments
_COMMANDS = {
    "keyrate": cmd_keyrate,
    "sweep": cmd_sweep,
    "max-distance": cmd_max_distance,
    "optimize": cmd_optimize,
    "oracle-check": cmd_oracle_check,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a caller mistake: exit 1, not argparse's exit 2
        raise ConfigError(message)


class _Once(argparse.Action):
    def __call__(self, parser, namespace, value, option=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option} given twice")
        setattr(namespace, self.dest, value)


# parsing leaves the parser unchanged, so one parser per process serves every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psqkd",
        description="Key-rate calculator for photon-subtracted squeezed-state QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, action=_Once, help="dotted-key config file")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        if name == "sweep":
            cmd.add_argument("--out", required=True, action=_Once, help="output CSV path")
            cmd.add_argument("--threads", type=int, default=4, help="ignored")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_run_config(args.config, args.set)
        code = _COMMANDS[args.command](config, args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except (ValueError, PsqkdError) as exc:  # a caller mistake or a domain outcome
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT if isinstance(exc, PsqkdError) else _USAGE_EXIT
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so that
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
