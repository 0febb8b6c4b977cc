"""The records of one sweep grid point, built the plain way.

`point_records` moves a swept value into the source and channel records
with `dataclasses.replace`, which checks every field of the new record, so
the tests that compare `sweep._evaluate` with the pipeline cell by cell do
not build their inputs with the sweep's own `_apply_value`.
"""

from __future__ import annotations

import math
from dataclasses import replace


def point_records(source, channel, variable: str, value: float) -> tuple:
    """(source, channel) with `variable` set to `value`. V_A sets both the
    squeezing r = acosh(V_A)/2 and the channel's v_a; L_AC and eta are
    channel fields, d and tau source fields. Raises ValueError where a
    record rejects the value; a V_A is checked by the channel first."""
    if variable == "V_A":
        channel = replace(channel, v_a=value)
        return replace(source, r=0.5 * math.acosh(value)), channel
    if variable in ("d", "tau"):
        return replace(source, **{variable: value}), channel
    return source, replace(channel, **{variable.lower(): value})
