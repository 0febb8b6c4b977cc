"""Command-line front end.

Subcommands wrap the library one-to-one: `keyrate` prints a single
KeyRateResult as JSON, `sweep` writes the grid CSV consumed by plotting
and the golden-file tests, `max-distance` and `optimize` report search
results as JSON, and `oracle-check` runs the closed-form vs Fock-space
comparison. Exit codes: 0 success, 1 usage/config error, 2 domain error
(insecure region, unreachable target, zero-probability event, overflow).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

from .config import RunConfig, build_sweep_spec, load_run_config
from .errors import PsqkdError
from .keyrate import KeyRateResult, secret_key_rate
from .sweep import (
    DEFAULT_FAMILIES,
    SweepRow,
    max_secure_distance,
    optimize_scalar,
    resolve_families,
    run_sweep,
)

__all__ = ["main"]

CSV_HEADER = "swept_value,family,p_ps,i_ab,chi_be,key_rate,lambda1,lambda2,lambda3"

_USAGE_EXIT = 1
_DOMAIN_EXIT = 2


def _fmt(value: float) -> str:
    return "%.12g" % value


def _result_payload(result: KeyRateResult) -> dict:
    noise = result.noise
    return {
        "p_ps": result.p_ps,
        "i_ab": result.i_ab,
        "chi_be": result.chi_be,
        "key_rate": result.key_rate,
        "lambda1": result.lambda1,
        "lambda2": result.lambda2,
        "lambda3": result.lambda3,
        "noise": {
            "t_a": noise.t_a,
            "t_b": noise.t_b,
            "g": noise.g,
            "t": noise.t,
            "eps_th": noise.eps_th,
            "chi_line": noise.chi_line,
            "chi_homo": noise.chi_homo,
            "chi_tot": noise.chi_tot,
        },
    }


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def cmd_keyrate(config: RunConfig) -> int:
    result = secret_key_rate(config.source, config.channel)
    _print_json(_result_payload(result))
    return 0


def render_csv(rows: list[SweepRow]) -> str:
    """Deterministic CSV: 12 significant digits, sorted by (value, family)."""
    lines = [CSV_HEADER]
    flat = []
    for row in rows:
        for family, cell in row.results.items():
            flat.append((row.swept_value, family, cell))
    flat.sort(key=lambda item: (item[0], item[1]))
    for value, family, cell in flat:
        if cell.result is None:
            fields = ["nan"] * 7
        else:
            res = cell.result
            fields = [
                _fmt(res.p_ps),
                _fmt(res.i_ab),
                _fmt(res.chi_be),
                _fmt(res.key_rate),
                _fmt(res.lambda1),
                _fmt(res.lambda2),
                _fmt(res.lambda3),
            ]
        lines.append(",".join([_fmt(value), family] + fields))
    return "\n".join(lines) + "\n"


def cmd_sweep(config: RunConfig, out_path: str) -> int:
    spec = build_sweep_spec(config)
    rows = run_sweep(spec)
    text = render_csv(rows)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return 0


def cmd_max_distance(config: RunConfig) -> int:
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


def cmd_optimize(config: RunConfig) -> int:
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


def cmd_oracle_check(config: RunConfig) -> int:
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


# parsing leaves the parser unchanged, so one parser per process serves every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psqkd",
        description="Key-rate calculator for photon-subtracted squeezed-state QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("keyrate", "sweep", "max-distance", "optimize", "oracle-check"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="dotted-key config file")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        if name == "sweep":
            cmd.add_argument("--out", required=True, help="output CSV path")
            cmd.add_argument("--threads", type=int, default=4, help="ignored")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_run_config(args.config, args.set)
        if args.command == "keyrate":
            return cmd_keyrate(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.out)
        if args.command == "max-distance":
            return cmd_max_distance(config)
        if args.command == "optimize":
            return cmd_optimize(config)
        return cmd_oracle_check(config)
    except ValueError as exc:  # caller mistakes, ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except PsqkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
