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

from .channel import ChannelParams, NoiseBreakdown, noise_breakdown
from .errors import (
    NoSecureRegionError,
    PsqkdError,
    TargetUnreachableError,
)
from .keyrate import KeyRateResult, _channel_stage, secret_key_rate
from .moments import TwoModeCM, source_stage
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
    # the constructor, not dataclasses.replace: this runs once per sweep cell
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


def _stage_or_failure(fn, arg):
    """fn(arg), or the failed cell that its caller-mistake or domain error
    makes. Only the message is kept: a stored exception would keep its
    traceback's frames, and with them the whole sweep, alive."""
    try:
        return fn(arg)
    except (PsqkdError, ValueError) as exc:
        return FamilyResult(None, str(exc))


_Stage = tuple[float, TwoModeCM] | FamilyResult


def _evaluate_point(
    spec: SweepSpec, value: float, stages: dict[SqueezedSourceParams, _Stage]
) -> SweepRow:
    try:
        src, ch = _apply_value(spec.source, spec.channel, spec.variable, value)
    except (PsqkdError, ValueError) as exc:
        return SweepRow(value, dict.fromkeys(spec.families, FamilyResult(None, str(exc))))
    noise = _stage_or_failure(noise_breakdown, ch)
    out: dict[str, FamilyResult] = {}
    for name in spec.families:
        fam = resolve_family(name, src)
        stage = stages.get(fam)
        if stage is None:
            stage = stages[fam] = _stage_or_failure(source_stage, fam)
        out[name] = _cell(stage, noise, ch.beta)
    return SweepRow(value, out)


def _cell(
    stage: _Stage, noise: NoiseBreakdown | FamilyResult, beta: float
) -> FamilyResult:
    """One family at one point; the first failure in pipeline order wins:
    the source stage's, then the channel reduction's, then the channel stage's."""
    for part in (stage, noise):
        if isinstance(part, FamilyResult):
            return part
    try:
        return FamilyResult(_channel_stage(*stage, noise, beta))
    except (PsqkdError, ValueError) as exc:
        return FamilyResult(None, str(exc))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid in order.

    The swept value is applied and the channel reduction (`noise_breakdown`)
    computed once per grid point; the source stage (`source_stage`) once per
    distinct family source in the sweep, so an L_AC or eta sweep computes it
    once per family; and the channel stage once per cell. Each cell reports
    the first error of its own pipeline: the swept value's, then its
    source's, then the channel's.
    """
    stages: dict[SqueezedSourceParams, _Stage] = {}
    return [_evaluate_point(spec, v, stages) for v in spec.grid()]


def _rate_at_distance(
    stage: tuple[float, TwoModeCM], channel: ChannelParams, l_ac: float
) -> float:
    ch = replace(channel, l_ac=l_ac)
    return _channel_stage(*stage, noise_breakdown(ch), ch.beta).key_rate


def max_secure_distance(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    k_target: float = 0.0,
) -> float:
    """Largest L_AC (km) with key rate >= k_target, to 0.01 km.

    The source stage is computed once per search; each probed distance
    computes only the channel reduction and the channel stage. A 1 km
    pre-scan stops at the first integer km where K < k_target, and
    bisection then refines that first downward crossing; a secure region
    beyond it is not searched. The returned endpoint is certified:
    K(result) >= k_target.
    """
    stage = source_stage(source)
    if _rate_at_distance(stage, channel, 0.0) <= k_target:
        raise TargetUnreachableError("target unreachable")
    last_ok = 0.0
    first_bad = None
    l_km = 1.0
    while l_km <= _SCAN_LIMIT_KM:
        if _rate_at_distance(stage, channel, l_km) >= k_target:
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
