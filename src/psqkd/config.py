"""Flat dotted-key run configuration.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment.
Keys are whitelisted; anything unknown is rejected with its line number so
fixture typos fail loudly instead of silently using defaults. `--set`
overrides reuse the same validation with a synthetic source location.

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

import math
from dataclasses import dataclass

from .channel import ChannelParams
from .phase_space import SqueezedSourceParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_file",
    "apply_overrides",
    "load_run_config",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; message carries file:line."""


# key -> type tag, used both for validation and conversion
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
    values: dict[str, str], prefix: str, required: tuple[str, ...] = ()
) -> dict[str, object]:
    head = prefix + "."
    missing = [head + name for name in required if head + name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return {
        key[len(head):]: _CONVERT[_KNOWN_KEYS[key]](raw)
        for key, raw in values.items()
        if key.startswith(head)
    }


@dataclass(frozen=True)
class RunConfig:
    """Validated physical parameters plus typed access to command sections."""

    source: SqueezedSourceParams
    channel: ChannelParams
    values: dict[str, str]

    def section(self, prefix: str, required: tuple[str, ...] = ()) -> dict[str, object]:
        """The `prefix.*` entries as keyword arguments, each converted by its
        type tag; raises ConfigError when a `required` name is absent."""
        return _section(self.values, prefix, required)


def _check_entry(key: str, value: str, where: str) -> None:
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kind = _KNOWN_KEYS[key]
    try:
        converted = _CONVERT[kind](value)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind} for {key!r}, got {value!r}") from None
    if kind == "float" and not math.isfinite(converted):
        raise ConfigError(f"{where}: {key!r} must be finite, got {value!r}")
    if not value:
        raise ConfigError(f"{where}: empty value for {key!r}")


def parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    values: dict[str, str] = {}
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
        _check_entry(key, value, where)
        values[key] = value
    return values


def apply_overrides(values: dict[str, str], overrides: list[str]) -> dict[str, str]:
    merged = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        _check_entry(key, value, f"--set {key}")
        merged[key] = value
    return merged


def _build_source_channel(
    values: dict[str, str],
) -> tuple[SqueezedSourceParams, ChannelParams]:
    source = _section(values, "source", required=("variance", "d", "tau"))
    channel = _section(values, "channel", required=("geometry", "eps_A", "eps_B", "beta"))
    v_a = source.pop("variance")
    channel = {_CHANNEL_RENAMES.get(name, name): value for name, value in channel.items()}
    try:
        ChannelParams._check({"v_a": v_a})
        return (
            SqueezedSourceParams(r=0.5 * math.acosh(v_a), **{"k": 0, **source}),
            ChannelParams(v_a=v_a, **{"l_ac": 0.0, **channel}),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    values = parse_config_file(path)
    if overrides:
        values = apply_overrides(values, overrides)
    source, channel = _build_source_channel(values)
    return RunConfig(source=source, channel=channel, values=values)
