"""Flat dotted-key run configuration.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment.
Keys are whitelisted; anything unknown is rejected with its line number so
fixture typos fail loudly instead of silently using defaults. `--set`
overrides reuse the same validation with a synthetic source location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import GEOMETRIES, ChannelParams
from .phase_space import SqueezedSourceParams
from .sweep import DEFAULT_FAMILIES, SWEEP_VARIABLES, SweepSpec, resolve_family

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_file",
    "apply_overrides",
    "load_run_config",
    "build_sweep_spec",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; message carries file:line."""


# key -> expected type tag, used both for validation and parsing
_KNOWN_KEYS: dict[str, str] = {
    "source.r": "float",
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

_REQUIRED = (
    "source.d",
    "source.tau",
    "channel.geometry",
    "channel.eps_A",
    "channel.eps_B",
    "channel.beta",
)


@dataclass(frozen=True)
class RunConfig:
    """Validated physical parameters plus raw access to command sections."""

    source: SqueezedSourceParams
    channel: ChannelParams
    values: dict[str, str]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        return default if raw is None else float(raw)

    def get_int(self, key: str, default: int) -> int:
        raw = self.values.get(key)
        return default if raw is None else int(raw)

    def families(self) -> tuple[str, ...]:
        """The `sweep.families` list (default: all five), each name validated."""
        raw = self.values.get("sweep.families", ",".join(DEFAULT_FAMILIES))
        names = tuple(name.strip() for name in raw.split(",") if name.strip())
        if not names:
            raise ConfigError("sweep.families must name at least one family")
        for name in names:
            try:
                resolve_family(name, self.source)
            except ValueError as exc:
                raise ConfigError(f"sweep.families: {exc}") from None
        return names


def _check_entry(key: str, value: str, where: str) -> None:
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kind = _KNOWN_KEYS[key]
    finite = True
    try:
        if kind == "float":
            finite = math.isfinite(float(value))
        elif kind == "int":
            int(value)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind} for {key!r}, got {value!r}") from None
    if not finite:
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
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    has_r = "source.r" in values
    has_v = "source.variance" in values
    if has_r == has_v:
        raise ConfigError("exactly one of source.r or source.variance is required")
    if has_r:
        r = float(values["source.r"])
        v_a = math.cosh(2.0 * r)
    else:
        v_a = float(values["source.variance"])
        if v_a < 1.0:
            raise ConfigError(f"source.variance must be >= 1, got {v_a}")
        r = 0.5 * math.acosh(v_a)
    geometry = values["channel.geometry"]
    if geometry not in GEOMETRIES:
        raise ConfigError(
            f"channel.geometry must be one of {GEOMETRIES}, got {geometry!r}"
        )
    try:
        source = SqueezedSourceParams(
            r=r,
            d=float(values["source.d"]),
            tau=float(values["source.tau"]),
            k=int(values.get("source.k", "0")),
        )
        channel = ChannelParams(
            geometry=geometry,
            l_ac=float(values.get("channel.l_ac", "0")),
            v_a=v_a,
            beta=float(values["channel.beta"]),
            eps_a=float(values["channel.eps_A"]),
            eps_b=float(values["channel.eps_B"]),
            eta=float(values.get("channel.eta", "1")),
            v_el=float(values.get("channel.v_el", "0")),
            loss_db_per_km=float(values.get("channel.loss_db_per_km", "0.2")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return source, channel


def load_run_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    values = parse_config_file(path)
    if overrides:
        values = apply_overrides(values, overrides)
    source, channel = _build_source_channel(values)
    return RunConfig(source=source, channel=channel, values=values)


def build_sweep_spec(config: RunConfig) -> SweepSpec:
    values = config.values
    if "sweep.variable" not in values:
        raise ConfigError("missing required key: sweep.variable")
    variable = values["sweep.variable"]
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep.variable must be one of {SWEEP_VARIABLES}, got {variable!r}"
        )
    for key in ("sweep.lo", "sweep.hi", "sweep.points"):
        if key not in values:
            raise ConfigError(f"missing required key: {key}")
    try:
        return SweepSpec(
            variable=variable,
            lo=float(values["sweep.lo"]),
            hi=float(values["sweep.hi"]),
            points=int(values["sweep.points"]),
            source=config.source,
            channel=config.channel,
            families=config.families(),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
