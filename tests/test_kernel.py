"""The key-rate kernels against their references.

`keyrate.channel_stage` is one straight-line kernel. `keyrate_reference`
keeps its formulas one function each, and the kernel must match that
composition bit for bit, exceptions included. `mp_reference` recomputes it
at 50 digits, which bounds the kernel's rounding at its branch switches,
and recomputes the source stage (`phase_space.source_stage`) and the channel
reduction (`channel.breakdown`) in their textbook forms, which pins
those on a seeded box and on both sides of each of their switches.
"""

import dataclasses
import math
import random
import sys
from pathlib import Path

import pytest

import mp_reference
import psqkd.sweep as sweep
from keyrate_reference import RATE_FIELDS, composed_stage
from sweep_reference import point_records
from psqkd.channel import GEOMETRIES, ChannelParams, NoiseBreakdown, breakdown
from psqkd.cli import load_run_config
from psqkd.errors import PsqkdError, UnphysicalStateError, ZeroProbabilityError
from psqkd.keyrate import channel_stage
from psqkd.phase_space import SUBTRACTION_CAP, TwoModeCM, source_stage

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
        if _outcome(channel_stage, *pair) != _outcome(composed_stage, *pair)
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
            pairs.append((source_stage(*key), breakdown(channel, l_ac), channel.beta))
        except (PsqkdError, ValueError):
            continue
    return pairs


def _golden_cells() -> list[tuple]:
    """(source stage, reduction, beta) of every cell of the golden sweeps
    that reaches the channel stage."""
    pairs = []
    for path in CONFIGS:
        config = load_run_config(str(path))
        grid = config.section("sweep")
        families = grid.get("families", sweep.DEFAULT_FAMILIES)
        for value in sweep._grid(grid["lo"], grid["hi"], grid["points"]):
            try:
                src, ch = point_records(config.source, config.channel, grid["variable"], value)
                noise = breakdown(ch, ch.l_ac)
            except (PsqkdError, ValueError):
                continue
            for family in families:
                fam = sweep.resolve_family(family, src)
                try:
                    pairs.append((source_stage(fam.r, fam.d, fam.tau, fam.k), noise, ch.beta))
                except (PsqkdError, ValueError):
                    continue
    return pairs


def _stage(p_ps, vax, vap, vbx, vbp, vcx, vcp):
    return (p_ps, vax, vap, vbx, vbp, vcx, vcp, 0.0, 0.0)


def _noise(t, chi_tot):
    return (1.0, 1.0, 1.0, t, 0.0, 0.0, 0.0, chi_tot)  # the stage reads T and chi_tot


TMSV50 = source_stage(0.5 * math.acosh(50.0), 0.0, 1.0, 0)


class TestPinnedToReference:
    def test_seeded_box(self):
        pairs = _box(seed=2012, n=10_000)
        assert _mismatches(pairs) == []
        failed = {_outcome(channel_stage, *pair).startswith("(<class") for pair in pairs}
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
            # lambda1 - 1 = 2.6e-10: a near-pure state still leaks
            (TMSV50, _noise(1.0, 1e-11), "pure"),
            # (det A - det B)^2 overflows
            (TMSV50, _noise(1.0, 1e100), "channel stage overflows"),
        ],
    )
    def test_each_branch(self, stage, noise, expect):
        assert _mismatches([(stage, noise, 0.96)]) == []
        try:
            _, i_ab, chi_be, _, lam1, lam2, _ = channel_stage(stage, noise, 0.96)
        except PsqkdError as exc:
            assert expect in str(exc)
            return
        if expect == "lambda1 = 0":
            assert lam1 == lam2 == 0.0
        elif expect == "pure":
            assert lam1 > 1.0 and chi_be > 0.0
        else:
            assert lam1 > 0.0


def _within_bounds(stage, t, chi_tot, beta=0.96) -> dict[str, bool]:
    """Per output field, whether the kernel is within its bound of the
    50-digit reference: 1e-10 relative, and for K, which cancels at the
    security edge, 1e-10 * p_ps * (beta I_AB + chi_BE) absolute."""
    got = channel_stage(stage, _noise(t, chi_tot), beta)
    ref = mp_reference.channel_stage(stage, t, chi_tot, beta)
    k_bound = 1e-10 * stage[0] * (beta * ref[1] + ref[2])
    return {
        name: abs(g - r) <= (k_bound if name == "key_rate" else 1e-10 * abs(r))
        for name, g, r in zip(RATE_FIELDS, got, ref)
    }


# weakly squeezed pure states: tmsv, and 1-pstmsc at d = 2, which tends to a
# coherent state as r -> 0; both have near-coincident eigenvalues near 1
WEAK_SOURCES = [(0.0, 1.0, 0), (2.0, 0.9, 1)]
WEAK_CHANNELS = [(1.0, 0.0), (0.38, 1.62)]  # identity; the 20 km asymmetric channel
# chi_tot added to the V_A = 50 tmsv: a pure state, then lambda1 - 1 from
# 2.6e-11 to 2.5e-7
NEAR_PURE = [0.0, 1e-12, 1e-11, 3e-11, 1e-10, 1e-9, 1e-8]
NEAR_PURE_SOURCES = [*WEAK_SOURCES, (0.0, 0.9, 1)]  # and 1-pstmsv


def _near_pure_box(seed: int, n: int) -> list[tuple]:
    """n (source stage, T, chi_tot): r from 0.1 to 2.3, the identity, a
    lossy and the 20 km asymmetric transmittance, and half of them with a
    chi_tot from 1e-14 to 1e-8, the others with none."""
    rng = random.Random(seed)
    return [
        (
            source_stage(rng.uniform(0.1, 2.3), *rng.choice(NEAR_PURE_SOURCES)),
            rng.choice((1.0, 0.9, 0.38)),
            rng.choice((0.0, 10.0 ** rng.uniform(-14.0, -8.0))),
        )
        for _ in range(n)
    ]


class TestFiftyDigitReference:
    @pytest.mark.parametrize("r", [10.0**e for e in range(-8, -1)])
    @pytest.mark.parametrize("source", WEAK_SOURCES)
    @pytest.mark.parametrize("t, chi_tot", WEAK_CHANNELS)
    def test_eigenvalues_of_weakly_squeezed_pure_states(self, r, source, t, chi_tot):
        ok = _within_bounds(source_stage(r, *source), t, chi_tot)
        assert [ok["lambda1"], ok["lambda2"], ok["lambda3"]] == [True] * 3

    @pytest.mark.xfail(
        reason="I_AB = log2 of a ratio that rounds near 1 loses its digits "
        "as r -> 0 (see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize("r", [1e-8, 1e-6, 1e-4])
    def test_information_of_weakly_squeezed_states(self, r):
        ok = _within_bounds(source_stage(r, 0.0, 1.0, 0), 1.0, 0.0)
        assert ok["i_ab"] and ok["key_rate"]

    @pytest.mark.parametrize("chi_tot", NEAR_PURE)
    def test_near_pure_states(self, chi_tot):
        ok = _within_bounds(TMSV50, 1.0, chi_tot)
        fields = ("key_rate", "i_ab", "lambda1", "lambda2", "lambda3")
        assert [ok[name] for name in fields] == [True] * 5

    @pytest.mark.xfail(
        reason="chi_BE = G + G - G cancels near purity and keeps ~5 digits "
        "(see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize("chi_tot", [chi_tot for chi_tot in NEAR_PURE if chi_tot])
    def test_holevo_bound_near_purity(self, chi_tot):
        assert _within_bounds(TMSV50, 1.0, chi_tot)["chi_be"]

    def test_key_rate_on_a_near_pure_box(self):
        misses = []
        for stage, t, chi_tot in _near_pure_box(seed=7, n=400):
            ok = _within_bounds(stage, t, chi_tot)
            chi_be = channel_stage(stage, _noise(t, chi_tot), 0.96)[2]
            if not ok["key_rate"] or chi_be < 0.0:
                misses.append((stage[:2], t, chi_tot))
        assert misses == []

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("l_ac, v_a", [(0.0, 1e4), (2.0, 1e6), (20.0, 1e6)])
    def test_key_rate_of_a_strongly_squeezed_tmsv(self, geometry, l_ac, v_a):
        assert _tmsv_within_bounds(geometry, l_ac, v_a)["key_rate"]

    @pytest.mark.xfail(
        raises=(AssertionError, UnphysicalStateError),
        reason="Delta = det A + det B + 2 det C cancels (det C < 0) at large "
        "V_A (see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize(
        "geometry, l_ac, v_a",
        [
            ("symmetric", 2.0, 1e8),  # lambda1 2e-4 relative off
            ("asymmetric", 20.0, 1e12),
            # `psqkd keyrate --config configs/fig7.cfg --set source.variance=3.2e7
            # --set source.d=0 --set source.tau=1` exits 2: disc < -1e-9
            ("symmetric", 0.0, 3.2e7),
            ("asymmetric", 0.0, 3.2e7),
        ],
    )
    def test_key_rate_of_a_tmsv_past_the_discriminant(self, geometry, l_ac, v_a):
        assert _tmsv_within_bounds(geometry, l_ac, v_a)["key_rate"]


def _tmsv_within_bounds(geometry, l_ac, v_a) -> dict[str, bool]:
    """`_within_bounds` of the tmsv of variance v_a through the channel at
    l_ac, with the reference point's excess noises."""
    noise = breakdown(ChannelParams(geometry, l_ac, v_a, 0.96, 0.002, 0.002), l_ac)
    return _within_bounds(source_stage(0.5 * math.acosh(v_a), 0.0, 1.0, 0), noise[3], noise[7])


STAGE_FIELDS = ("p_ps", *(field.name for field in dataclasses.fields(TwoModeCM)))
NOISE_FIELDS = tuple(field.name for field in dataclasses.fields(NoiseBreakdown))


def _off(fields, got, ref) -> list[str]:
    """The fields where the float `got` is more than 1e-10 relative off the
    50-digit `ref`."""
    return [name for name, g, x in zip(fields, got, ref) if abs(g - x) > 1e-10 * abs(x)]


def _stage_off(key) -> list[str]:
    return _off(STAGE_FIELDS, source_stage(*key), mp_reference.source_stage(*key))


def _reduction_off(channel, l_ac) -> list[str]:
    return _off(NOISE_FIELDS, breakdown(channel, l_ac), mp_reference.breakdown(channel, l_ac))


def _y(r, d, tau):
    """The Laguerre argument y as `_source_moments` rounds it."""
    nu = math.sinh(r)
    g = d * math.exp(r) / (2.0 * nu)
    return g * g / (1.0 + (1.0 - tau) * nu * nu)


def _d_at(y, r, tau):
    """The d that puts the Laguerre argument at y, for r > 0."""
    nu = math.sinh(r)
    return 2.0 * nu * math.sqrt(y * (1.0 + (1.0 - tau) * nu * nu)) / math.exp(r)


def _d_at_expo(expo, r, tau):
    """The d that puts the exponent of p_ps's weight e^expo at expo < 0."""
    big_d = 1.0 + (1.0 - tau) * math.sinh(r) ** 2
    return math.sqrt(-4.0 * big_d * expo / ((1.0 - tau) * math.exp(2.0 * r)))


def _source_box(seed: int, n: int) -> list[tuple]:
    """n source keys (r, d, tau, k): r up to 4 or down to 1e-8, d up to 20,
    any tau (a third of them 1), every k up to the cap."""
    rng = random.Random(seed)
    return [
        (
            rng.choice((rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(-8.0, 0.0))),
            rng.choice((0.0, rng.uniform(0.0, 20.0))),
            rng.choice((1.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))),
            rng.randrange(SUBTRACTION_CAP + 1),
        )
        for _ in range(n)
    ]


def _reduction_box(seed: int, n: int) -> list[tuple]:
    """n (channel, L_AC): both geometries, V_A up to 1e4, a loss of 0.1 to
    1 dB/km, L_AC up to 1500 km, noisy links and detectors or clean ones."""
    rng = random.Random(seed)
    return [
        (
            ChannelParams(
                rng.choice(GEOMETRIES), 0.0, 10.0 ** rng.uniform(0.01, 4.0),
                rng.uniform(0.5, 1.0),
                eps_a=rng.choice((0.0, 10.0 ** rng.uniform(-4.0, 0.5))),
                eps_b=rng.choice((0.0, 10.0 ** rng.uniform(-4.0, 0.5))),
                eta=rng.choice((1.0, rng.uniform(0.5, 1.0))),
                v_el=rng.choice((0.0, rng.uniform(0.0, 0.1))),
                loss_db_per_km=rng.choice((0.2, rng.uniform(0.1, 1.0))),
            ),
            rng.choice((0.0, rng.uniform(0.0, 100.0), rng.uniform(0.0, 1500.0))),
        )
        for _ in range(n)
    ]


def _bob_side_cancels(channel) -> bool:
    """Whether eps_th is rebuilt from -2/T_A + 2/T_A: the asymmetric
    geometry with eps_B = 0 (see the strict xfail below)."""
    return channel.geometry == "asymmetric" and channel.eps_b == 0.0


R_SUBNORMAL_NU = 1e-160  # sinh r is subnormal, so 1/nu^2 would overflow


class TestSourceAndReductionReference:
    def test_source_stage_on_a_seeded_box(self):
        pinned, misses = 0, []
        for key in _source_box(seed=1588, n=600):
            try:
                misses += [(key, name) for name in _stage_off(key)]
                pinned += 1
            except ZeroProbabilityError:
                # tau = 1 with k >= 1, or a probability below the float range
                assert mp_reference.source_stage(*key)[0] < 1e-300, key
        assert misses == []
        assert pinned > 400

    # each switch of `_source_moments`, with r, d, tau and k on each side
    @pytest.mark.parametrize(
        "key, y_side",
        [
            *(((1.0, _d_at(1.0, 1.0, 0.9) * (1.0 + s * 1e-12), 0.9, k), s)
              for s in (-1, 1) for k in (1, 2, 5, SUBTRACTION_CAP)),
            *(((1e-154, _d_at(sys.float_info.max, 1e-154, 0.9) * (1.0 + s * 1e-3), 0.9, k), s)
              for s in (-1, 1) for k in (0, 1, 2, 5, SUBTRACTION_CAP)),
            *(((0.0, 2.0, 0.9, k), None) for k in (0, 1, 2)),
            *(((1e-300, 2.0, 0.9, k), None) for k in (0, 1, 2)),
            # y = 1e308 and 1e320: either side of where y overflows
            *(((R_SUBNORMAL_NU, d, 0.9, k), None) for d in (2e-6, 2.0) for k in (0, 1, 2)),
            # p_ps's weight e^expo normal, subnormal, then 0: p_ps = 2.7e-276,
            # 2.7e-293, 7.7e-296 and 8.5e-302
            *(((1.0, _d_at_expo(expo, 1.0, 0.5), 0.5, SUBTRACTION_CAP), None)
              for expo in (-700.0, -740.0, -746.0, -760.0)),
        ],
    )
    def test_source_stage_on_both_sides_of_each_switch(self, key, y_side):
        r, d, tau, _ = key
        if y_side is not None:  # -1: below the switch, 1: above it
            switch = 1.0 if r == 1.0 else sys.float_info.max
            assert (_y(r, d, tau) > switch) == (y_side > 0)
        assert _stage_off(key) == []

    def test_source_stage_is_finite_at_v_a_1e300(self):
        # d^2 mu^2 e^{2r} and nu^2 D^2 both overflow here, so no moment term
        # may carry 1/nu^2
        key = (0.5 * math.acosh(1e300), 2.0, 0.9, 1)
        p_ps, vax, *_ = source_stage(*key)
        assert p_ps == pytest.approx(3.663e-301, rel=1e-3)
        assert vax == pytest.approx(39.0)
        assert _stage_off(key) == []

    def test_reduction_on_a_seeded_box(self):
        misses = [
            (channel, l_ac, name)
            for channel, l_ac in _reduction_box(seed=1588, n=600)
            for name in _reduction_off(channel, l_ac)
            if not (name == "eps_th" and _bob_side_cancels(channel))
        ]
        assert misses == []

    # T = 1.006e-30 and 9.97e-31; a symmetric T is (V_A - 1) / (V_A + 1) at
    # any length
    @pytest.mark.parametrize("l_ac", [1499.0, 1499.2])
    def test_reduction_on_both_sides_of_tiny_t(self, l_ac):
        channel = ChannelParams("asymmetric", l_ac, 50.0, 0.96, eps_a=0.002, eps_b=0.002,
                                eta=0.9, v_el=0.01)
        assert (breakdown(channel, l_ac)[3] < 1e-30) == (l_ac > 1499.1)
        assert _reduction_off(channel, l_ac) == []

    @pytest.mark.xfail(
        reason="eps_th = (T_B/T_A)(eps_B - 2) + eps_A + 2/T_A cancels 2/T_A "
        "when T_B = 1 and eps_B = 0 (see CHANGES.md, FOUND)",
    )
    @pytest.mark.parametrize("l_ac", [200.0, 500.0, 1000.0])
    def test_thermal_excess_without_excess_noise_at_bob(self, l_ac):
        channel = ChannelParams("asymmetric", l_ac, 50.0, 0.96, eps_a=0.002, eps_b=0.0)
        assert "eps_th" not in _reduction_off(channel, l_ac)
