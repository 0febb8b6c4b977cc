"""Parameter sweeps, secure-distance search, and scalar optimization.

A sweep evaluates the key-rate pipeline over a grid of one variable for a
list of state families. Families are realized as limits of the same source
parametrization: "tmsv" pins (k=0, tau=1, d=0), "<k>-pstmsv" pins d=0, and
"<k>-pstmsc" uses the source values as-is. Per-point failures (for example
a zero-probability subtraction at tau=1) are recorded in the row rather
than aborting the sweep, so grid output shape is always predictable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams
from .errors import (
    NoSecureRegionError,
    PsqkdError,
    TargetUnreachableError,
)
from .keyrate import KeyRateResult, secret_key_rate
from .phase_space import SqueezedSourceParams

__all__ = [
    "SWEEP_VARIABLES",
    "DEFAULT_FAMILIES",
    "SweepSpec",
    "FamilyResult",
    "SweepRow",
    "resolve_family",
    "run_sweep",
    "max_secure_distance",
    "optimize_scalar",
]

SWEEP_VARIABLES = ("L_AC", "V_A", "d", "tau", "eta")
DEFAULT_FAMILIES = ("tmsv", "1-pstmsv", "2-pstmsv", "1-pstmsc", "2-pstmsc")

_FAMILY_RE = re.compile(r"^(\d+)-pstms([cv])$")

# distance search: 1 km pre-scan cap and bisection tolerance
_SCAN_LIMIT_KM = 1000.0
_DISTANCE_TOL_KM = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """One-variable grid over the key-rate pipeline."""

    variable: str
    lo: float
    hi: float
    points: int
    source: SqueezedSourceParams
    channel: ChannelParams
    families: tuple[str, ...] = DEFAULT_FAMILIES

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.variable!r}; expected one of {SWEEP_VARIABLES}"
            )
        if self.points < 0:
            raise ValueError(f"points must be >= 0, got {self.points}")
        if self.points > 1 and not self.lo < self.hi:
            raise ValueError(f"need lo < hi for a multi-point grid, got [{self.lo}, {self.hi}]")
        if not self.families:
            raise ValueError("family list must not be empty")
        for name in self.families:
            resolve_family(name, self.source)

    def grid(self) -> np.ndarray:
        if self.points == 0:
            return np.array([])
        if self.points == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class FamilyResult:
    """Key-rate output for one family at one grid point, or its failure."""

    result: KeyRateResult | None
    error: str | None = None


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    results: dict[str, FamilyResult]


def resolve_family(name: str, source: SqueezedSourceParams) -> SqueezedSourceParams:
    """Pin source parameters to the requested state family.

    >>> base = SqueezedSourceParams(r=1.0, d=2.0, tau=0.9, k=3)
    >>> resolve_family("tmsv", base)
    SqueezedSourceParams(r=1.0, d=0.0, tau=1.0, k=0)
    >>> resolve_family("1-pstmsv", base).d
    0.0
    >>> resolve_family("2-pstmsc", base).k
    2
    """
    if name == "tmsv":
        return replace(source, d=0.0, tau=1.0, k=0)
    m = _FAMILY_RE.match(name)
    if m is None:
        raise ValueError(
            f"unknown family {name!r}; expected 'tmsv', '<k>-pstmsv' or '<k>-pstmsc'"
        )
    k = int(m.group(1))
    if m.group(2) == "v":
        return replace(source, d=0.0, k=k)
    return replace(source, k=k)


def _apply_value(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    variable: str,
    value: float,
) -> tuple[SqueezedSourceParams, ChannelParams]:
    """Move one swept variable into the parameter pair.

    V_A drives both the squeezing (r = acosh(V_A)/2) and the relay gain,
    which keeps the source variance and the channel reduction consistent.
    """
    if variable == "L_AC":
        return source, replace(channel, l_ac=value)
    if variable == "V_A":
        if value < 1.0:
            raise ValueError(f"V_A must be >= 1, got {value}")
        return (
            replace(source, r=0.5 * math.acosh(value)),
            replace(channel, v_a=value),
        )
    if variable == "d":
        return replace(source, d=value), channel
    if variable == "tau":
        return replace(source, tau=value), channel
    if variable == "eta":
        return source, replace(channel, eta=value)
    raise ValueError(f"unknown sweep variable {variable!r}")


def _evaluate_point(spec: SweepSpec, value: float) -> SweepRow:
    out: dict[str, FamilyResult] = {}
    for name in spec.families:
        try:
            src, ch = _apply_value(spec.source, spec.channel, spec.variable, value)
            src = resolve_family(name, src)
            out[name] = FamilyResult(secret_key_rate(src, ch))
        except (PsqkdError, ValueError) as exc:
            out[name] = FamilyResult(None, str(exc))
    return SweepRow(float(value), out)


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate the grid in order. `threads` is accepted and ignored: the
    pipeline holds the GIL, so a thread pool only added CPU time."""
    return [_evaluate_point(spec, v) for v in spec.grid()]


def _rate_at_distance(
    source: SqueezedSourceParams, channel: ChannelParams, l_ac: float
) -> float:
    return secret_key_rate(source, replace(channel, l_ac=l_ac)).key_rate


def max_secure_distance(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    k_target: float = 0.0,
) -> float:
    """Largest L_AC (km) with key rate >= k_target, to 0.01 km.

    A 1 km pre-scan stops at the first integer km where K < k_target, and
    bisection then refines that first downward crossing; a secure region
    beyond it is not searched. The returned endpoint is certified:
    K(result) >= k_target.
    """
    if _rate_at_distance(source, channel, 0.0) <= k_target:
        raise TargetUnreachableError("target unreachable")
    last_ok = 0.0
    first_bad = None
    l_km = 1.0
    while l_km <= _SCAN_LIMIT_KM:
        if _rate_at_distance(source, channel, l_km) >= k_target:
            last_ok = l_km
        else:
            first_bad = l_km
            break
        l_km += 1.0
    if first_bad is None:
        raise PsqkdError(
            f"key rate never drops below target within {_SCAN_LIMIT_KM:.0f} km"
        )
    lo, hi = last_ok, first_bad
    while hi - lo > _DISTANCE_TOL_KM:
        mid = 0.5 * (lo + hi)
        if _rate_at_distance(source, channel, mid) >= k_target:
            lo = mid
        else:
            hi = mid
    return lo


_GRID_POINTS = 41
_GOLDEN_ITERS = 80
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_scalar(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    variable: str,
    lo: float,
    hi: float,
    objective: str = "key_rate",
    family: str | None = None,
    k_target: float = 0.0,
) -> tuple[float, float]:
    """Maximize key rate or secure distance over one of {tau, d, V_A}.

    Coarse 41-point grid then golden-section refinement around the grid
    winner; insecure or invalid points score -inf. Deterministic: ties
    resolve to the lowest variable value.
    """
    if variable not in ("tau", "d", "V_A"):
        raise ValueError(f"cannot optimize over {variable!r}; use tau, d or V_A")
    if objective not in ("key_rate", "max_distance"):
        raise ValueError(f"unknown objective {objective!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if family is not None:
        resolve_family(family, source)  # an unknown name must not score -inf

    def score(value: float) -> float:
        try:
            src, ch = _apply_value(source, channel, variable, value)
            if family is not None:
                src = resolve_family(family, src)
            if objective == "key_rate":
                return secret_key_rate(src, ch).key_rate
            return max_secure_distance(src, ch, k_target)
        except (PsqkdError, ValueError):
            return float("-inf")

    # plain floats: an overflow in the math code of moments is then an inf,
    # not a numpy RuntimeWarning on stderr
    grid = np.linspace(lo, hi, _GRID_POINTS).tolist()
    scores = [score(v) for v in grid]
    best_i = int(np.argmax(scores))
    best_v, best_s = grid[best_i], scores[best_i]
    insecure = best_s == float("-inf") or (objective == "key_rate" and best_s <= 0.0)
    if insecure:
        raise NoSecureRegionError("no secure region")

    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, _GRID_POINTS - 1)]
    c = b - _INVPHI * (b - a)
    d_ = a + _INVPHI * (b - a)
    fc, fd = score(c), score(d_)
    for _ in range(_GOLDEN_ITERS):
        if fc >= fd:
            b, d_, fd = d_, c, fc
            c = b - _INVPHI * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _INVPHI * (b - a)
            fd = score(d_)
    for v, s in ((c, fc), (d_, fd)):
        if s > best_s or (s == best_s and v < best_v):
            best_v, best_s = float(v), s
    return best_v, best_s
