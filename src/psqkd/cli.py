"""Command-line front end.

Subcommands wrap the library one-to-one: `keyrate` prints a single
KeyRateResult as JSON, `sweep` writes the grid CSV consumed by plotting
and the golden-file tests, `max-distance` and `optimize` report search
results as JSON, and `oracle-check` runs the closed-form vs Fock-space
comparison. Exit codes: 0 success, 1 usage/config error, 2 domain error
(insecure region, unreachable target, zero-probability event).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, RunConfig, build_sweep_spec, load_run_config
from .errors import PsqkdError
from .keyrate import KeyRateResult, secret_key_rate
from .sweep import (
    SweepRow,
    max_secure_distance,
    optimize_scalar,
    resolve_family,
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
    families = config.families()
    k_target = config.get_float("max_distance.k_target", 0.0)
    payload: dict[str, float | None] = {}
    failed = False
    for family in families:
        source = resolve_family(family, config.source)
        try:
            km = max_secure_distance(source, config.channel, k_target)
            payload[family] = round(km, 4)
        except PsqkdError:
            payload[family] = None
            failed = True
    _print_json(payload)
    return _DOMAIN_EXIT if failed else 0


def cmd_optimize(config: RunConfig) -> int:
    variable = config.get("optimize.variable")
    if variable is None:
        raise ConfigError("missing required key: optimize.variable")
    if config.get("optimize.lo") is None or config.get("optimize.hi") is None:
        raise ConfigError("missing required keys: optimize.lo, optimize.hi")
    best, value = optimize_scalar(
        config.source,
        config.channel,
        variable,
        lo=config.get_float("optimize.lo", 0.0),
        hi=config.get_float("optimize.hi", 1.0),
        objective=config.get("optimize.objective", "key_rate") or "key_rate",
        family=config.get("optimize.family"),
        k_target=config.get_float("optimize.k_target", 0.0),
    )
    _print_json(
        {
            "variable": variable,
            "best_value": best,
            "objective": config.get("optimize.objective", "key_rate"),
            "objective_value": value,
        }
    )
    return 0


def cmd_oracle_check(config: RunConfig) -> int:
    # imported here so that only this subcommand pays for scipy
    from .fock_oracle import compare_random_grid

    points = config.get_int("oracle.points", 50)
    seed = config.get_int("oracle.seed", 20240817)
    try:
        report = compare_random_grid(
            points=points, seed=seed, rel_tol=config.get_float("oracle.rel_tol", 1e-5)
        )
    except ValueError as exc:  # an empty grid or an unusable seed
        raise ConfigError(f"oracle.points={points}, oracle.seed={seed}: {exc}") from exc
    status = "PASS" if report.passed else "FAIL"
    print(f"points: {report.points}  seed: {report.seed}  rel_tol: {report.rel_tol:g}")
    print(f"max deviation probability: {report.max_dev_probability:.3e}")
    print(f"max deviation covariance:  {report.max_dev_covariance:.3e}")
    print(f"max deviation means:       {report.max_dev_means:.3e}")
    print(f"oracle check: {status}")
    return 0 if report.passed else _DOMAIN_EXIT


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
