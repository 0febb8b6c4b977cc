"""Command-line front end.

Subcommands wrap the library one-to-one: `keyrate` prints a single
KeyRateResult as JSON, `sweep` writes the grid CSV straight from the
sweep's float cells, `max-distance` and `optimize` report search results
as JSON, and `oracle-check` runs the closed-form vs Fock-space comparison.
Exit codes: 0 success, 1 usage/config error, 2 domain error (insecure
region, unreachable target, zero-probability event, overflow).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import operator
import os
import sys

from .config import ConfigError, RunConfig, load_run_config
from .errors import PsqkdError
from .keyrate import secret_key_rate
from .sweep import (
    DEFAULT_FAMILIES,
    _evaluate,
    max_secure_distance,
    optimize_scalar,
    resolve_families,
)

__all__ = ["main"]

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
    sources = resolve_families(families, config.source)
    search = config.section("max_distance")
    payload: dict[str, float | None] = {}
    failures = []
    for family, source in zip(families, sources):
        try:
            km = max_secure_distance(source, config.channel, **search)
            payload[family] = round(km, 4)
        except PsqkdError as exc:
            payload[family] = None
            failures.append(f"error: {family}: {exc}")
    # after every search: a caller error of a later family stays the only line
    for line in failures:
        print(line, file=sys.stderr)
    _print_json(payload)
    return _DOMAIN_EXIT if failures else 0


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
