"""Parameter sweeps, secure-distance search, and scalar optimization.

A sweep evaluates the key-rate pipeline over a grid of one variable for a
list of state families. Families are realized as limits of the same source
parametrization: "tmsv" pins (k=0, tau=1, d=0), "<k>-pstmsv" pins d=0, and
"<k>-pstmsc" uses the source values as-is. `_evaluate` checks its
arguments, then runs the grid on floats and keeps a failed cell's message
rather than aborting, so the output shape is always predictable; `psqkd
sweep` writes its CSV straight from those floats. Sweeps, `optimize_scalar`
and `psqkd max-distance` stage alike, through `_Staged`.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

from .channel import ChannelParams, breakdown
from .errors import NoSecureRegionError, PsqkdError, TargetUnreachableError
# secret_key_rate stays for perfbench's tracer
from .keyrate import channel_stage, secret_key_rate
from .phase_space import SqueezedSourceParams, _capped, source_stage

__all__ = [
    "SWEEP_VARIABLES",
    "DEFAULT_FAMILIES",
    "resolve_family",
    "max_secure_distance",
    "optimize_scalar",
]

SWEEP_VARIABLES = ("L_AC", "V_A", "d", "tau", "eta")
DEFAULT_FAMILIES = ("tmsv", "1-pstmsv", "2-pstmsv", "1-pstmsc", "2-pstmsc")

# ASCII digits without leading zeros, so each family has one spelling
_FAMILY_RE = re.compile(r"(0|[1-9][0-9]*)-pstms([cv])")

# distance search: 1 km pre-scan cap and bisection tolerance
_SCAN_LIMIT_KM = 1000.0
_DISTANCE_TOL_KM = 0.01


def _check_width(lo: float, hi: float) -> None:
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid width hi - lo overflows, got [{lo}, {hi}]")


def _grid(lo: float, hi: float, points: int) -> list[float]:
    """np.linspace(lo, hi, points) bit for bit, in plain floats: lo + i*step,
    the last point hi."""
    if points < 2:
        return [float(lo)] * points
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points - 1)] + [float(hi)]


def _family_pins(name: str) -> tuple[bool, bool, int]:
    """(keep d, keep tau, k) of a family name; a dropped d is pinned to 0
    and a dropped tau to 1."""
    if name == "tmsv":
        return False, False, 0
    m = _FAMILY_RE.fullmatch(name)
    if m is None:
        raise ValueError(
            f"unknown family {name!r}; expected 'tmsv', '<k>-pstmsv' or '<k>-pstmsc'"
        )
    return m.group(2) == "c", True, _capped(int(m.group(1)))


def _pinned(src: tuple[float, float, float], pins: tuple[bool, bool, int]) -> tuple:
    """The (r, d, tau, k) of a family's source, from its (r, d, tau) `src`."""
    (r, d, tau), (keep_d, keep_tau, k) = src, pins
    return r, d if keep_d else 0.0, tau if keep_tau else 1.0, k


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
    return SqueezedSourceParams(*_pinned((source.r, source.d, source.tau), _family_pins(name)))


def _parse_families(names: tuple[str, ...]) -> list[tuple[bool, bool, int]]:
    """`_family_pins` of each name; the list must be non-empty and name
    each family once."""
    if not names:
        raise ValueError("family list must not be empty")
    if len(set(names)) < len(names):
        raise ValueError(f"family list names a family twice: {', '.join(names)}")
    return [_family_pins(name) for name in names]


def _apply_value(source, channel, variable: str, value: float) -> tuple:
    """The source's (r, d, tau), the channel and the L_AC of its reduction
    at one value of a checked sweep variable, checked as its record checks
    it; an L_AC is checked by the reduction. V_A sets the channel's v_a,
    then r = acosh(V_A)/2."""
    r, d, tau = source.r, source.d, source.tau
    if variable == "L_AC":
        return (r, d, tau), channel, value
    if variable == "V_A":
        channel = replace(channel, v_a=value)
        return (0.5 * math.acosh(value), d, tau), channel, channel.l_ac
    if variable == "eta":
        return (r, d, tau), replace(channel, eta=value), channel.l_ac
    SqueezedSourceParams._check({variable: value})  # d or tau
    return ((r, value, tau) if variable == "d" else (r, d, value)), channel, channel.l_ac


class _Staged:
    """Staging for one call: family pins parsed once, a source stage per
    distinct (r, d, tau, k), the reduction of the last (channel, L_AC); a
    failure is kept as its message, as a kept exception holds its traceback."""

    def __init__(self, families):
        self.pins = _parse_families(families)
        self.table = {}
        self.src = self.ch = None

    def sources(self, src):
        """Each family's source stage at the (r, d, tau) `src`."""
        if src != self.src:
            self.src, self.stages = src, []
            for pins in self.pins:
                key = _pinned(src, pins)
                if key not in self.table:
                    try:
                        self.table[key] = source_stage(*key)
                    except (PsqkdError, ValueError) as exc:
                        self.table[key] = str(exc)
                self.stages.append(self.table[key])
        return self.stages

    def reduction(self, ch, l_ac):
        if ch is not self.ch or l_ac != self.l_ac:
            self.ch, self.l_ac = ch, l_ac
            try:
                self.noise = breakdown(ch, l_ac)
            except (PsqkdError, ValueError) as exc:
                self.noise = str(exc)
        return self.noise


def _cell(stage, noise, beta: float):
    """The channel stage's cell, or the first error message: the source
    stage's, the channel reduction's, the channel stage's."""
    if isinstance(stage, str):
        return stage
    if isinstance(noise, str):
        return noise
    try:
        return channel_stage(stage, noise, beta)
    except (PsqkdError, ValueError) as exc:
        return str(exc)


def _evaluate(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    variable: str,
    lo: float,
    hi: float,
    points: int,
    families: tuple[str, ...] = DEFAULT_FAMILIES,
) -> list[tuple]:
    """(swept value, family, `_cell`) of each family at each grid point, on
    floats; the arguments are checked before the first point."""
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}; expected one of {SWEEP_VARIABLES}")
    if not (type(points) is int and points >= 0):
        raise ValueError(f"points must be a non-negative integer, got {points!r}")
    if points > 1:
        if not lo < hi:
            raise ValueError(f"need lo < hi for a multi-point grid, got [{lo}, {hi}]")
        _check_width(lo, hi)
    staged = _Staged(families)
    rows = []
    for value in _grid(lo, hi, points):
        try:
            src, ch, l_ac = _apply_value(source, channel, variable, value)
        except ValueError as exc:
            rows += [(value, family, str(exc)) for family in families]
            continue
        noise = staged.reduction(ch, l_ac)
        rows += [
            (value, family, _cell(stage, noise, ch.beta))
            for family, stage in zip(families, staged.sources(src))
        ]
    return rows


def _rate_at_distance(stage: tuple[float, ...], channel: ChannelParams, l_ac: float) -> float:
    return channel_stage(stage, breakdown(channel, l_ac), channel.beta)[3]


def _check_k_target(k_target: float) -> None:
    if math.isnan(k_target):
        raise ValueError("k_target must be a number, got nan")
    if k_target < 0.0:
        raise ValueError(f"k_target must be >= 0, got {k_target}")


def max_secure_distance(
    source: SqueezedSourceParams,
    channel: ChannelParams,
    k_target: float = 0.0,
) -> float:
    """Largest L_AC (km) with key rate >= k_target, to 0.01 km.

    The source stage is computed once per search (once per distinct source
    in `optimize_scalar`); each probe computes only the channel reduction
    at its L_AC and the channel stage, on floats, and builds no record. A
    1 km pre-scan stops at the first integer km where K < k_target, and
    bisection then refines that first downward crossing; a secure region
    beyond it is not searched. The returned endpoint is certified:
    K(result) >= k_target. Raises ValueError for a NaN k_target, which no
    rate meets, or a negative one, which K can meet again past it.
    """
    _check_k_target(k_target)
    return _search(source_stage(source.r, source.d, source.tau, source.k), channel, k_target)


def _family_distances(source, channel, families, k_target: float = 0.0) -> list:
    """`max_secure_distance` of each family's source, or the message of its
    failed stage or search; staged as a sweep, all checks first, and one
    search per distinct stage."""
    staged = _Staged(families)
    _check_k_target(k_target)
    stages = staged.sources((source.r, source.d, source.tau))
    kms = {}
    for stage in stages:
        if stage not in kms:
            try:
                kms[stage] = stage if isinstance(stage, str) else _search(stage, channel, k_target)
            except PsqkdError as exc:
                kms[stage] = str(exc)
    return [kms[stage] for stage in stages]


def _search(stage, channel: ChannelParams, k_target: float) -> float:
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
    resolve to the lowest variable value. Points share stages as a sweep's
    do; a distance search starts from its point's source stage.
    """
    if variable not in ("tau", "d", "V_A"):
        raise ValueError(f"cannot optimize over {variable!r}; use tau, d or V_A")
    if objective not in ("key_rate", "max_distance"):
        raise ValueError(f"unknown objective {objective!r}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    _check_width(lo, hi)
    if family is None:  # the source as is: its own <k>-pstmsc
        family = f"{source.k}-pstmsc"
    # a bad family or target must not score -inf
    staged = _Staged((family,))
    _check_k_target(k_target)

    def score(value: float) -> float:
        try:
            src, ch, l_ac = _apply_value(source, channel, variable, value)
            (stage,) = staged.sources(src)
            if objective == "key_rate":
                cell = _cell(stage, staged.reduction(ch, l_ac), ch.beta)
                return -math.inf if isinstance(cell, str) else cell[3]  # key_rate
            return -math.inf if isinstance(stage, str) else _search(stage, ch, k_target)
        except (PsqkdError, ValueError):
            return -math.inf

    grid = _grid(lo, hi, _GRID_POINTS)
    scores = [score(v) for v in grid]
    # first maximum; a NaN score compares false and never wins
    best_i, best_s = 0, -math.inf
    for i, s in enumerate(scores):
        if s > best_s:
            best_i, best_s = i, s
    best_v = grid[best_i]
    if best_s == -math.inf or (objective == "key_rate" and best_s <= 0.0):
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
