"""The channel-stage kernel against its references.

`keyrate._channel_stage` is one straight-line kernel. `keyrate_reference`
keeps its formulas one function each, and the kernel must match that
composition bit for bit, exceptions included. `mp_reference` recomputes it
at 50 digits, which bounds the kernel's rounding at its branch switches.
"""

import math
import random
from pathlib import Path

import pytest

import mp_reference
import psqkd.sweep as sweep
from keyrate_reference import RATE_FIELDS, channel_stage
from psqkd.channel import GEOMETRIES, ChannelParams, _breakdown_at
from psqkd.config import build_sweep_spec, load_run_config
from psqkd.errors import PsqkdError
from psqkd.keyrate import _PURITY_EPS, _channel_stage
from psqkd.moments import _source_stage

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("fig*.cfg"))
# L_AC (km) past which 0.2 dB/km of fiber transmits 0.0 in floats
UNDERFLOW_KM = 16180.36


def _outcome(stage_fn, stage, noise, beta):
    """repr of the result or of (error type, text): repr tells -0.0 from 0.0."""
    try:
        return repr(stage_fn(stage, noise, beta))
    except (PsqkdError, ValueError) as exc:
        return repr((type(exc), str(exc)))


def _mismatches(pairs):
    return [
        pair for pair in pairs
        if _outcome(_channel_stage, *pair) != _outcome(channel_stage, *pair)
    ]


def _box(seed: int, n: int) -> list[tuple]:
    """n (source stage, reduction, beta) that reach the channel stage: both
    geometries, k 0 to 4, V_A up to 1e4, L_AC up to the underflow edge, and
    an excess noise up to 1e300, where the stage overflows."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        v_a = 10.0 ** rng.uniform(0.01, 4.0)
        key = (
            0.5 * math.acosh(v_a),
            rng.choice((0.0, rng.uniform(0.0, 4.0))),
            rng.choice((1.0, rng.uniform(0.3, 1.0))),
            rng.randrange(5),
        )
        l_ac = rng.choice((rng.uniform(0.0, 100.0), rng.uniform(0.0, UNDERFLOW_KM)))
        channel = ChannelParams(
            rng.choice(GEOMETRIES), l_ac, v_a, rng.uniform(0.5, 1.0),
            eps_a=rng.choice(
                (0.0, 10.0 ** rng.uniform(-4.0, 0.5), 10.0 ** rng.uniform(0.5, 300.0))
            ),
            eps_b=rng.choice((0.0, 10.0 ** rng.uniform(-4.0, 0.5))),
            eta=rng.choice((1.0, rng.uniform(0.5, 1.0))),
            v_el=rng.choice((0.0, rng.uniform(0.0, 0.1))),
        )
        try:
            pairs.append((_source_stage(*key), _breakdown_at(channel, l_ac), channel.beta))
        except (PsqkdError, ValueError):
            continue
    return pairs


def _golden_cells() -> list[tuple]:
    """(source stage, reduction, beta) of every cell of the golden sweeps
    that reaches the channel stage."""
    pairs = []
    for path in CONFIGS:
        spec = build_sweep_spec(load_run_config(str(path)))
        pins = [sweep._family_pins(name) for name in spec.families]
        for value in spec.grid():
            try:
                src, ch = sweep._apply_value(spec.source, spec.channel, spec.variable, value)
                noise = _breakdown_at(ch, ch.l_ac)
            except (PsqkdError, ValueError):
                continue
            for family in pins:
                try:
                    pairs.append((_source_stage(*sweep._pinned(src, family)), noise, ch.beta))
                except (PsqkdError, ValueError):
                    continue
    return pairs


def _stage(p_ps, vax, vap, vbx, vbp, vcx, vcp):
    return (p_ps, vax, vap, vbx, vbp, vcx, vcp, 0.0, 0.0)


def _noise(t, chi_tot):
    return (1.0, 1.0, 1.0, t, 0.0, 0.0, 0.0, chi_tot)  # the stage reads T and chi_tot


TMSV50 = _source_stage(0.5 * math.acosh(50.0), 0.0, 1.0, 0)


class TestPinnedToReference:
    def test_seeded_box(self):
        pairs = _box(seed=2012, n=10_000)
        assert _mismatches(pairs) == []
        failed = {_outcome(_channel_stage, *pair).startswith("(<class") for pair in pairs}
        assert failed == {False, True}  # results and errors both

    def test_every_golden_cell(self):
        pairs = _golden_cells()
        assert len(pairs) > 1500
        assert _mismatches(pairs) == []

    @pytest.mark.parametrize(
        "stage, noise, expect",
        [
            # conditional variance <= 0
            (_stage(1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 0.0), _noise(1.0, 0.0), "conditional"),
            # V_C * V_C overflows to inf, so V_{A|B} = -inf (V_C**2 would raise)
            (_stage(1.0, 1.0, 1.0, 1.0, 1.0, 1e200, 0.0), _noise(1.0, 0.0), "conditional"),
            # discriminant -0.18, below the -1e-9 tolerance
            (_stage(1.0, 1.0, 1.0, -2.0, -0.5, 0.1, -0.1), _noise(1.0, 0.0), "discriminant"),
            # discriminant -4.5e-10, clamped to 0
            (_stage(1.0, 1.0, 1.0, -2.0, -0.5, 5e-6, -5e-6), _noise(1.0, 0.0), "clamped"),
            # Delta < 0 with a zero discriminant: lambda1^2 <= 0
            (_stage(1.0, 1.0, 1.0, 1.0, 1.0, 1.3, -1.3), _noise(1.0, 0.0), "lambda1 = 0"),
            # lambda1 - 1 = 2.6e-10, inside _PURITY_EPS: chi_BE short-circuits to 0
            (TMSV50, _noise(1.0, 1e-11), "pure"),
            # lambda1 - 1 = 2.5e-9, outside it
            (TMSV50, _noise(1.0, 1e-10), "mixed"),
            # (det A - det B)^2 overflows
            (TMSV50, _noise(1.0, 1e100), "channel stage overflows"),
        ],
    )
    def test_each_branch(self, stage, noise, expect):
        assert _mismatches([(stage, noise, 0.96)]) == []
        try:
            i_ab, chi_be, _, lam1, lam2, _ = _channel_stage(stage, noise, 0.96)
        except PsqkdError as exc:
            assert expect in str(exc)
            return
        if expect == "lambda1 = 0":
            assert lam1 == lam2 == 0.0
        elif expect == "pure":
            assert 1.0 < lam1 < 1.0 + _PURITY_EPS and chi_be == 0.0
        elif expect == "mixed":
            assert lam1 > 1.0 + _PURITY_EPS and chi_be > 0.0
        else:
            assert lam1 > 0.0


def _within_bounds(stage, t, chi_tot, beta=0.96) -> dict[str, bool]:
    """Per output field, whether the kernel is within its bound of the
    50-digit reference: 1e-10 relative, and for K, which cancels at the
    security edge, 1e-10 * p_ps * (beta I_AB + chi_BE) absolute."""
    got = _channel_stage(stage, _noise(t, chi_tot), beta)
    ref = mp_reference.channel_stage(stage, t, chi_tot, beta)
    k_bound = 1e-10 * stage[0] * (beta * ref[0] + ref[1])
    return {
        name: abs(g - r) <= (k_bound if name == "key_rate" else 1e-10 * abs(r))
        for name, g, r in zip(RATE_FIELDS, got, ref)
    }


# weakly squeezed pure states: tmsv, and 1-pstmsc at d = 2, which tends to a
# coherent state as r -> 0; both have near-coincident eigenvalues near 1
WEAK_SOURCES = [(0.0, 1.0, 0), (2.0, 0.9, 1)]
WEAK_CHANNELS = [(1.0, 0.0), (0.38, 1.62)]  # identity; the 20 km asymmetric channel
# chi_tot added to the V_A = 50 tmsv on either side of _PURITY_EPS:
# lambda1 - 1 = 2.6e-10 and 7.6e-10 below it, 2.5e-9 to 2.5e-7 above it
PURE_SIDE = [1e-11, 3e-11]
MIXED_SIDE = [1e-10, 1e-9, 1e-8]


class TestFiftyDigitReference:
    @pytest.mark.parametrize("r", [10.0**e for e in range(-8, -1)])
    @pytest.mark.parametrize("source", WEAK_SOURCES)
    @pytest.mark.parametrize("t, chi_tot", WEAK_CHANNELS)
    def test_eigenvalues_of_weakly_squeezed_pure_states(self, r, source, t, chi_tot):
        ok = _within_bounds(_source_stage(r, *source), t, chi_tot)
        assert [ok["lambda1"], ok["lambda2"], ok["lambda3"]] == [True] * 3

    @pytest.mark.xfail(
        strict=True,
        reason="I_AB = log2 of a ratio that rounds near 1 loses its digits "
        "as r -> 0 (see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize("r", [1e-8, 1e-6, 1e-4])
    def test_information_of_weakly_squeezed_states(self, r):
        ok = _within_bounds(_source_stage(r, 0.0, 1.0, 0), 1.0, 0.0)
        assert ok["i_ab"] and ok["key_rate"]

    @pytest.mark.parametrize("chi_tot", PURE_SIDE + MIXED_SIDE)
    def test_both_sides_of_purity_eps(self, chi_tot):
        lam1 = _channel_stage(TMSV50, _noise(1.0, chi_tot), 0.96)[3]
        assert (lam1 < 1.0 + _PURITY_EPS) == (chi_tot in PURE_SIDE)
        ok = _within_bounds(TMSV50, 1.0, chi_tot)
        assert [ok[name] for name in ("i_ab", "lambda1", "lambda2", "lambda3")] == [True] * 4
        if chi_tot in MIXED_SIDE:
            assert ok["key_rate"]

    @pytest.mark.xfail(
        strict=True,
        reason="the _PURITY_EPS short-circuit drops a chi_BE of up to ~3e-8 "
        "(see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize("chi_tot", PURE_SIDE)
    def test_key_rate_inside_purity_eps(self, chi_tot):
        assert _within_bounds(TMSV50, 1.0, chi_tot)["key_rate"]

    @pytest.mark.xfail(
        strict=True,
        reason="chi_BE = G + G - G cancels near purity and keeps ~5 digits "
        "(see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize("chi_tot", MIXED_SIDE)
    def test_holevo_bound_outside_purity_eps(self, chi_tot):
        assert _within_bounds(TMSV50, 1.0, chi_tot)["chi_be"]
