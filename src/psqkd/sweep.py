"""Parameter sweeps, secure-distance search, and scalar optimization.

A sweep evaluates the key-rate pipeline over a grid of one variable for a
list of state families. Families are realized as limits of the same source
parametrization: "tmsv" pins (k=0, tau=1, d=0), "<k>-pstmsv" pins d=0, and
"<k>-pstmsc" uses the source values as-is. Per-point failures (for example
a zero-probability subtraction at tau=1) are recorded in the row rather
than aborting the sweep, so grid output shape is always predictable.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .channel import ChannelParams, NoiseBreakdown, _breakdown_at
from .errors import (
    NoSecureRegionError,
    PsqkdError,
    TargetUnreachableError,
)
from .keyrate import KeyRateResult, _channel_stage, secret_key_rate
from .moments import _source_stage
from .phase_space import SqueezedSourceParams

__all__ = [
    "SWEEP_VARIABLES",
    "DEFAULT_FAMILIES",
    "SweepSpec",
    "FamilyResult",
    "SweepRow",
    "resolve_family",
    "resolve_families",
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
        resolve_families(self.families, self.source)

    def grid(self) -> list[float]:
        return _grid(self.lo, self.hi, self.points)


def _grid(lo: float, hi: float, points: int) -> list[float]:
    """np.linspace(lo, hi, points) bit for bit, in plain floats: lo + i*step,
    the last point hi."""
    if points < 2:
        return [float(lo)] * points
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points - 1)] + [float(hi)]


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
        return SqueezedSourceParams(source.r, 0.0, 1.0, 0)
    m = _FAMILY_RE.match(name)
    if m is None:
        raise ValueError(
            f"unknown family {name!r}; expected 'tmsv', '<k>-pstmsv' or '<k>-pstmsc'"
        )
    d = 0.0 if m.group(2) == "v" else source.d
    return SqueezedSourceParams(source.r, d, source.tau, int(m.group(1)))


def resolve_families(
    names: tuple[str, ...], source: SqueezedSourceParams
) -> list[SqueezedSourceParams]:
    """`resolve_family` of each name; the list must be non-empty and name
    each family once."""
    if not names:
        raise ValueError("family list must not be empty")
    if len(set(names)) < len(names):
        raise ValueError(f"family list names a family twice: {', '.join(names)}")
    return [resolve_family(name, source) for name in names]


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
        return source, _rebuilt(channel, l_ac=value)
    if variable == "V_A":
        if value < 1.0:
            raise ValueError(f"V_A must be >= 1, got {value}")
        return _rebuilt(source, r=0.5 * math.acosh(value)), _rebuilt(channel, v_a=value)
    if variable == "d":
        return _rebuilt(source, d=value), channel
    if variable == "tau":
        return _rebuilt(source, tau=value), channel
    if variable == "eta":
        return source, _rebuilt(channel, eta=value)
    raise ValueError(f"unknown sweep variable {variable!r}")


def _rebuilt(record, **changes):
    """dataclasses.replace, cheaper; __post_init__ still checks every value."""
    return type(record)(**vars(record) | changes)


def _or_failure(fn, *args):
    """fn(*args), or the failed cell its caller-mistake or domain error
    makes. Only the message is kept: a stored exception would keep its
    traceback's frames, and with them the whole sweep, alive."""
    try:
        return fn(*args)
    except (PsqkdError, ValueError) as exc:
        return FamilyResult(None, str(exc))


def _cell(stage, noise, record: NoiseBreakdown, beta: float) -> FamilyResult:
    """One family at one point; the first failure in pipeline order wins:
    the source stage's, then the channel reduction's, then the channel stage's."""
    for part in (stage, noise):
        if isinstance(part, FamilyResult):
            return part
    rate = _or_failure(_channel_stage, stage, noise, beta)
    if isinstance(rate, FamilyResult):
        return rate
    return FamilyResult(KeyRateResult(stage[0], *rate, record))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid in order.

    The source stage runs once per distinct family source (a tau sweep
    shares the tmsv stage), the channel reduction once per distinct channel
    (once per d or tau sweep), and the families are resolved only if the
    point's source changed. Per cell, the channel stage runs on floats. A
    cell reports its pipeline's first error: the swept value's, the
    source's, the channel's.
    """
    stage_of = functools.cache(functools.partial(_or_failure, _source_stage))
    rows = []
    src_of_stages = stages = ch_of_noise = None
    for value in spec.grid():
        point = _or_failure(_apply_value, spec.source, spec.channel, spec.variable, value)
        if isinstance(point, FamilyResult):
            rows.append(SweepRow(value, dict.fromkeys(spec.families, point)))
            continue
        src, ch = point
        if src is not src_of_stages:
            src_of_stages = src
            stages = [stage_of(fam) for fam in resolve_families(spec.families, src)]
        if ch is not ch_of_noise:
            ch_of_noise = ch
            noise = _or_failure(_breakdown_at, ch, ch.l_ac)
            record = None if isinstance(noise, FamilyResult) else NoiseBreakdown(*noise)
        cells = [_cell(stage, noise, record, ch.beta) for stage in stages]
        rows.append(SweepRow(value, dict(zip(spec.families, cells))))
    return rows


def _rate_at_distance(stage: tuple[float, ...], channel: ChannelParams, l_ac: float) -> float:
    return _channel_stage(stage, _breakdown_at(channel, l_ac), channel.beta)[2]


def _check_k_target(k_target: float) -> None:
    if math.isnan(k_target):
        raise ValueError("k_target must be a number, got nan")


def max_secure_distance(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    k_target: float = 0.0,
) -> float:
    """Largest L_AC (km) with key rate >= k_target, to 0.01 km.

    The source stage is computed once per search; each probe computes only
    the channel reduction at its L_AC and the channel stage, on floats, and
    builds no record. A 1 km pre-scan stops at the first integer km where
    K < k_target, and bisection then refines that first downward crossing;
    a secure region beyond it is not searched. The returned endpoint is
    certified: K(result) >= k_target. Raises ValueError for a NaN k_target,
    which no rate can meet.
    """
    _check_k_target(k_target)
    stage = _source_stage(source)
    if _rate_at_distance(stage, channel, 0.0) <= k_target:
        raise TargetUnreachableError("target unreachable")
    hi = 1.0
    while _rate_at_distance(stage, channel, hi) >= k_target:
        hi += 1.0
        if hi > _SCAN_LIMIT_KM:
            raise PsqkdError(
                f"key rate never drops below target within {_SCAN_LIMIT_KM:.0f} km"
            )
    lo = hi - 1.0
    while hi - lo > _DISTANCE_TOL_KM:
        mid = 0.5 * (lo + hi)
        if _rate_at_distance(stage, channel, mid) >= k_target:
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
    _check_k_target(k_target)  # nor may a NaN target

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

    grid = _grid(lo, hi, _GRID_POINTS)
    scores = [score(v) for v in grid]
    # first maximum; a NaN score compares false and never wins
    best_i, best_s = 0, float("-inf")
    for i, s in enumerate(scores):
        if s > best_s:
            best_i, best_s = i, s
    best_v = grid[best_i]
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
