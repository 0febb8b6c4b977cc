"""Effective covariance, information quantities, and the key-rate pipeline."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psqkd.phase_space as phase_space
from keyrate_reference import (
    RATE_FIELDS,
    channel_stage_fields,
    conditional_cm_after_heterodyne,
    effective_cm,
    holevo_bound,
    mutual_information,
    symplectic_eigenvalues,
)
from phase_space_reference import cm_matrix
from psqkd.channel import GEOMETRIES, ChannelParams, NoiseBreakdown, breakdown
from psqkd.errors import (
    NonFiniteError,
    PsqkdError,
    UnphysicalStateError,
    ZeroProbabilityError,
)
from psqkd.keyrate import channel_stage, entropy_G, secret_key_rate
from psqkd.phase_space import SqueezedSourceParams, TwoModeCM, source_stage

OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def tmsv_cm(r: float) -> TwoModeCM:
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return TwoModeCM(vax=ch, vap=ch, vbx=ch, vbp=ch, vcx=sh, vcp=-sh)


def fields(cm: TwoModeCM) -> tuple[float, ...]:
    """The six covariance entries of a TwoModeCM, vax to vcp."""
    return dataclasses.astuple(cm)[:6]


def info(*cm: float) -> float:
    """I_AB of the covariance entries vax to vcp."""
    return mutual_information(cm[0], cm[1], *conditional_cm_after_heterodyne(*cm))


def chi_be(*cm: float) -> float:
    """chi_BE of the covariance entries vax to vcp."""
    vx, vp = conditional_cm_after_heterodyne(*cm)
    return holevo_bound(*symplectic_eigenvalues(*cm), math.sqrt(vx * vp))


def tmsv_source(v_a: float) -> SqueezedSourceParams:
    return SqueezedSourceParams(r=0.5 * math.acosh(v_a), d=0.0, tau=1.0, k=0)


def reference_channel(**kw) -> ChannelParams:
    base = dict(
        geometry="asymmetric",
        l_ac=20.0,
        v_a=50.0,
        beta=0.96,
        eps_a=0.002,
        eps_b=0.002,
    )
    base.update(kw)
    return ChannelParams(**base)


class TestEntropyG:
    def test_zero_by_continuity(self):
        assert entropy_G(0.0) == 0.0

    def test_one(self):
        assert entropy_G(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_half(self):
        assert entropy_G(0.5) == pytest.approx(1.3774437510817343, rel=1e-12)
        assert entropy_G(0.5) == pytest.approx(1.377444, abs=1e-6)

    def test_tiny_negative_clamped(self):
        assert entropy_G(-1e-13) == 0.0

    def test_clearly_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy_G(-0.01)

    # (x, relative bound): (x + 1) log2(x + 1) - x log2 x up to the switch at
    # 1e4, where it keeps ~13 digits; log2(x + 1) + x log1p(1/x) / ln 2 above
    @pytest.mark.parametrize(
        "x, rel",
        [(150.6, 1e-12), (1e4, 1e-12), (math.nextafter(1e4, math.inf), 1e-15)]
        + [(x, 1e-15) for x in (1e6, 1e8, 1e12, 1e15, 1e300)],
    )
    def test_fifty_digits_on_both_sides_of_the_switch(self, x, rel):
        # x + 1 must not round at the working precision
        with mpmath.workdps(50 + int(math.log10(x))):
            xm = mpmath.mpf(x)
            ref = (xm + 1) * mpmath.log(xm + 1, 2) - xm * mpmath.log(xm, 2)
        assert abs(entropy_G(x) - ref) <= rel * ref


class TestSymplecticEigenvalues:
    def test_thermal_state(self):
        cm = TwoModeCM(vax=3.0, vap=3.0, vbx=3.0, vbp=3.0, vcx=0.0, vcp=0.0)
        assert symplectic_eigenvalues(*fields(cm)) == pytest.approx((3.0, 3.0), rel=1e-12)

    def test_pure_tmsv_has_unit_eigenvalues(self):
        for r in (0.1, 0.6, 1.5):
            lam1, lam2 = symplectic_eigenvalues(*fields(tmsv_cm(r)))
            assert lam1 == pytest.approx(1.0, abs=1e-9)
            assert lam2 == pytest.approx(1.0, abs=1e-9)

    def test_matches_generic_eigensolver(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            # random physical CM: thermal TMSV-like state plus noise
            r = float(rng.uniform(0.05, 1.2))
            n1 = float(rng.uniform(0.0, 2.0))
            n2 = float(rng.uniform(0.0, 2.0))
            scale = float(rng.uniform(0.3, 1.0))
            base = tmsv_cm(r)
            cm = TwoModeCM(
                vax=base.vax + n1,
                vap=base.vap + n1,
                vbx=base.vbx + n2,
                vbp=base.vbp + n2,
                vcx=scale * base.vcx,
                vcp=scale * base.vcp,
            )
            expect = np.abs(np.linalg.eigvals(1j * OMEGA @ cm_matrix(cm)))
            expect = np.sort(expect)  # each eigenvalue appears twice
            lam1, lam2 = symplectic_eigenvalues(*fields(cm))
            assert lam2 == pytest.approx(expect[0], rel=1e-9)
            assert lam1 == pytest.approx(expect[3], rel=1e-9)
            # symplectic invariant: product equals sqrt(det)
            det = np.linalg.det(cm_matrix(cm))
            assert lam1 * lam2 == pytest.approx(math.sqrt(det), rel=1e-9)

    def test_product_form_stable_for_near_pure_states(self):
        # weakly squeezed pure state: lam1 and lam2 nearly coincide at 1 and
        # naive use of Delta^2 - 4 det(Sigma) loses almost every digit
        lam1, lam2 = symplectic_eigenvalues(*fields(tmsv_cm(1e-6)))
        assert abs(lam1 - 1.0) < 1e-10
        assert abs(lam2 - 1.0) < 1e-10


class TestEffectiveCm:
    def test_identity_channel_is_noop(self):
        cm = TwoModeCM(*source_stage(0.5, 1.0, 0.8, 1)[1:])
        out = effective_cm(*fields(cm), 1.0, 0.0)
        assert out == fields(cm)

    def test_direct_substitution(self):
        vax, _, vbx, vbp, vcx, vcp = effective_cm(*fields(tmsv_cm(0.6)), 0.5, 1.0)
        assert vax == pytest.approx(math.cosh(1.2))
        assert vbx == pytest.approx(0.5 * (math.cosh(1.2) + 1.0), rel=1e-14)
        assert vbp == vbx
        assert vcx == pytest.approx(
            math.sqrt(0.5) * math.sinh(1.2), rel=1e-14
        )
        assert vcp == -vcx


class TestMutualInformation:
    def test_uncorrelated_modes_share_nothing(self):
        cm = TwoModeCM(vax=3.0, vap=3.0, vbx=2.0, vbp=2.0, vcx=0.0, vcp=0.0)
        assert info(*fields(cm)) == 0.0

    def test_tmsv_reference_value(self):
        v = math.cosh(1.2)
        s = math.sinh(1.2)
        cond = v - s * s / (v + 1.0)
        expect = math.log2((v + 1.0) / (cond + 1.0))  # x and p contribute equally
        assert info(*fields(tmsv_cm(0.6))) == pytest.approx(expect, rel=1e-12)

    def test_symmetric_cm_splits_evenly(self):
        cm = tmsv_cm(0.8)
        half = 0.5 * math.log2((cm.vax + 1.0) / (
            cm.vax - cm.vcx**2 / (cm.vbx + 1.0) + 1.0
        ))
        assert info(*fields(cm)) == pytest.approx(2 * half, rel=1e-12)

    def test_unphysical_conditioning_rejected(self):
        cm = TwoModeCM(vax=1.0, vap=1.0, vbx=1.0, vbp=1.0, vcx=3.0, vcp=0.0)
        with pytest.raises(UnphysicalStateError):
            info(*fields(cm))


class TestConditionalCm:
    def test_no_correlations_leave_alice_unchanged(self):
        cm = TwoModeCM(vax=2.5, vap=1.7, vbx=4.0, vbp=4.0, vcx=0.0, vcp=0.0)
        assert conditional_cm_after_heterodyne(*fields(cm)) == (2.5, 1.7)

    def test_pure_tmsv_conditional_purity_bound(self):
        vx, vp = conditional_cm_after_heterodyne(*fields(tmsv_cm(0.6)))
        assert math.sqrt(vx * vp) >= 1.0 - 1e-12


class TestHolevoBound:
    def test_pure_state_leaks_nothing(self):
        # cosh 2r = 5/4 and sinh 2r = 3/4, exact in floats, so the state is
        # pure to the last bit (tmsv_cm rounds cosh and sinh, and its
        # chi_BE is ~1e-14, at 50 digits too)
        cm = TwoModeCM(vax=1.25, vap=1.25, vbx=1.25, vbp=1.25, vcx=0.75, vcp=-0.75)
        assert chi_be(*fields(cm)) == 0.0

    def test_grows_with_excess_noise(self):
        source = tmsv_source(50.0)
        values = []
        for eps in (0.0, 0.01, 0.05, 0.1):
            ch = reference_channel(l_ac=10.0, eps_a=eps, eps_b=eps)
            noise = NoiseBreakdown(*breakdown(ch, ch.l_ac))
            cm = effective_cm(
                *source_stage(*dataclasses.astuple(source))[1:7], noise.t, noise.chi_tot
            )
            values.append(chi_be(*cm))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[1] > 0.0


class TestSecretKeyRate:
    def test_tmsv_zero_distance_independent_recompute(self):
        v_a = 50.0
        result = secret_key_rate(
            tmsv_source(v_a), reference_channel(l_ac=0.0)
        )
        # rebuild the whole chain with nothing but doubles and math.*
        t_a = t_b = 1.0
        g = math.sqrt(2.0 * (v_a - 1.0) / (t_b * (v_a + 1.0)))
        t = t_a * g * g / 2.0
        eps_th = (t_b / t_a) * (0.002 - 2.0) + 0.002 + 2.0 / t_a
        chi_tot = (1.0 - t) / t + eps_th
        v = v_a
        s = math.sqrt(v * v - 1.0)
        vb = t * (v + chi_tot)
        vc = math.sqrt(t) * s
        cond = v - vc * vc / (vb + 1.0)
        i_ab = math.log2((v + 1.0) / (cond + 1.0))
        det_a, det_b, det_c = v * v, vb * vb, -vc * vc
        delta = det_a + det_b + 2 * det_c
        det_s = (v * vb - vc * vc) ** 2
        lam1 = math.sqrt((delta + math.sqrt(delta**2 - 4 * det_s)) / 2.0)
        lam2 = math.sqrt((delta - math.sqrt(delta**2 - 4 * det_s)) / 2.0)
        lam3 = cond

        def g_ent(x):
            return (x + 1) * math.log2(x + 1) - x * math.log2(x) if x > 0 else 0.0

        chi_be = g_ent((lam1 - 1) / 2) + g_ent((lam2 - 1) / 2) - g_ent((lam3 - 1) / 2)
        expect = 0.96 * i_ab - chi_be
        assert result.key_rate == pytest.approx(expect, rel=1e-9)
        assert result.key_rate == pytest.approx(2.527952708578501, rel=1e-9)
        assert result.p_ps == 1.0

    def test_result_invariants(self):
        result = secret_key_rate(
            SqueezedSourceParams(r=0.5 * math.acosh(50.0), d=2.0, tau=0.9, k=1),
            reference_channel(),
        )
        assert result.key_rate == pytest.approx(
            result.p_ps * (0.96 * result.i_ab - result.chi_be), abs=1e-12
        )
        assert result.lambda1 >= result.lambda2 >= 1.0 - 1e-9
        assert result.lambda3 >= 1.0 - 1e-9
        assert result.i_ab >= 0.0
        assert result.chi_be >= 0.0

    def test_frozen_pipeline_anchor(self):
        # 1-photon subtraction, d=2, tau=0.9, asymmetric 20 km
        result = secret_key_rate(
            SqueezedSourceParams(r=0.5 * math.acosh(50.0), d=2.0, tau=0.9, k=1),
            reference_channel(),
        )
        assert result.p_ps == pytest.approx(0.02476713091715511, rel=1e-9)
        assert result.i_ab == pytest.approx(1.9660444612683268, rel=1e-9)
        assert result.chi_be == pytest.approx(1.6592330475628572, rel=1e-9)
        assert result.key_rate == pytest.approx(0.005651107227673752, rel=1e-9)
        assert result.lambda1 == pytest.approx(10.692321706757182, rel=1e-9)
        assert result.lambda2 == pytest.approx(1.0040137889115275, rel=1e-9)
        assert result.lambda3 == pytest.approx(3.478412757413497, rel=1e-9)
        assert result.noise.g == pytest.approx(1.3862065601673441, rel=1e-12)
        assert result.noise.t == pytest.approx(0.3824951246494385, rel=1e-12)
        assert result.noise.eps_th == pytest.approx(0.00702377286301914, rel=1e-9)
        assert result.noise.chi_tot == pytest.approx(1.6214361811689086, rel=1e-12)

    def test_insecure_regime_is_negative_not_clamped(self):
        result = secret_key_rate(tmsv_source(50.0), reference_channel(l_ac=60.0))
        assert result.key_rate < 0.0

    def test_zero_probability_event_propagates(self):
        with pytest.raises(ZeroProbabilityError):
            secret_key_rate(
                SqueezedSourceParams(r=0.5, d=0.0, tau=1.0, k=1),
                reference_channel(),
            )
        # exp(-y D A) underflows to 0: p_ps is 0, not an overflow of the
        # Laguerre sum, nor NaN where d^2 e^{2r} and D^2 both overflow
        for source, channel in [
            (SqueezedSourceParams(r=1.0, d=1e150, tau=0.9, k=2), reference_channel()),
            (
                SqueezedSourceParams(r=0.5 * math.acosh(1e300), d=1e5, tau=0.9, k=1),
                reference_channel(v_a=1e300),
            ),
        ]:
            with pytest.raises(ZeroProbabilityError):
                secret_key_rate(source, channel)

    @pytest.mark.parametrize(
        "source, channel",
        [
            # OverflowError in the source stage: e^{2r} overflows
            (SqueezedSourceParams(r=400.0, d=1.0, tau=0.9, k=2), reference_channel()),
            # OverflowError in the symplectic eigenvalues
            (tmsv_source(50.0), reference_channel(eps_a=1e150)),
            # a NaN key rate
            (tmsv_source(50.0), reference_channel(eps_a=1e300)),
            (tmsv_source(50.0), reference_channel(eta=1e-300)),
        ],
    )
    def test_overflow_and_non_finite_values_are_typed_errors(self, source, channel):
        with pytest.raises(NonFiniteError):
            secret_key_rate(source, channel)

    def test_rate_decreases_with_distance_on_secure_tail(self):
        acosh50 = 0.5 * math.acosh(50.0)
        families = [
            SqueezedSourceParams(r=acosh50, d=0.0, tau=1.0, k=0),
            SqueezedSourceParams(r=acosh50, d=0.0, tau=0.9, k=1),
            SqueezedSourceParams(r=acosh50, d=0.0, tau=0.9, k=2),
            SqueezedSourceParams(r=acosh50, d=2.0, tau=0.9, k=1),
            SqueezedSourceParams(r=acosh50, d=2.0, tau=0.9, k=2),
        ]
        for source in families:
            rates = [
                secret_key_rate(source, reference_channel(l_ac=l)).key_rate
                for l in np.linspace(1.0, 40.0, 14)
            ]
            secure = [k for k in rates if k > 0]
            assert all(a > b for a, b in zip(secure, secure[1:]))

    def test_zero_distance_rate_grows_with_modulation(self):
        rates = [
            secret_key_rate(
                tmsv_source(v),
                reference_channel(l_ac=0.0, v_a=v, eps_a=0.0, eps_b=0.0),
            ).key_rate
            for v in (8.0, 50.0, 200.0)
        ]
        assert 0.0 < rates[0] < rates[1] < rates[2]


class TestStageGuards:
    """Each finiteness guard must cover every value it guards."""

    SOURCE = SqueezedSourceParams(r=0.5 * math.acosh(50.0), d=2.0, tau=0.9, k=1)
    KEY = dataclasses.astuple(SOURCE)  # the (r, d, tau, k) the source stage takes

    SOURCE_FIELDS = ["p_ps"] + [f.name for f in dataclasses.fields(TwoModeCM)]

    @pytest.mark.parametrize("field", SOURCE_FIELDS)
    def test_source_stage_rejects_inf_in_any_field(self, monkeypatch, field):
        stage = list(source_stage(*self.KEY))
        assert len(stage) == len(self.SOURCE_FIELDS)
        stage[self.SOURCE_FIELDS.index(field)] = math.inf
        monkeypatch.setattr(phase_space, "_source_moments", lambda *params: tuple(stage))
        with pytest.raises(NonFiniteError, match="source stage"):
            source_stage(*self.KEY)

    @pytest.mark.parametrize(
        "name, value",
        [("r", -1.0), ("d", -2.0), ("tau", 1.5), ("tau", -0.5), ("k", True), ("k", 1.5)]
        + [(name, math.nan) for name in ("r", "d", "tau")]
        + [("r", math.inf), ("d", math.inf), ("k", -1), ("k", False)],
    )
    def test_source_stage_checks_its_arguments_as_the_record_does(self, name, value):
        args = dict(zip(("r", "d", "tau", "k"), self.KEY), **{name: value})
        with pytest.raises(ValueError) as record:
            SqueezedSourceParams(**args)
        with pytest.raises(ValueError) as stage:
            source_stage(**args)
        assert type(stage.value) is ValueError
        assert str(stage.value) == str(record.value)

    @pytest.mark.parametrize("beta", [1.5, 0.0, -1.0, math.nan, math.inf, False])
    def test_channel_stage_checks_beta_as_the_record_does(self, beta):
        with pytest.raises(ValueError) as record:
            reference_channel(beta=beta)
        channel = reference_channel()
        with pytest.raises(ValueError) as stage:
            channel_stage(source_stage(*self.KEY), breakdown(channel, channel.l_ac), beta)
        assert type(stage.value) is ValueError
        assert str(stage.value) == str(record.value)

    # hand-made reductions no `breakdown` returns: a math domain error, a
    # result with lambda2 = 0, and a division by zero (V_B + chi_tot = -1)
    BAD_NOISE = [(-0.5, 0.0, "noise t"), (0.0, 0.0, "noise t"), (1.0, None, "noise chi_tot")]

    @pytest.mark.parametrize("t, chi_tot, field", BAD_NOISE)
    def test_channel_stage_checks_the_noise_it_reads(self, t, chi_tot, field):
        stage = source_stage(1.15, 2.0, 0.9, 1)
        if chi_tot is None:
            chi_tot = -stage[3] - 1.0  # -V_B - 1
        noise = (1.0, 1.0, 1.0, t, 0.0, 0.0, 0.0, chi_tot)  # the stage reads T and chi_tot
        with pytest.raises(ValueError, match=f"^{field} must be finite and ") as error:
            channel_stage(stage, noise, 0.96)
        assert type(error.value) is ValueError

    @pytest.mark.parametrize(
        "channel",
        [
            # symmetric: t_b = t_a near the underflow edge, so the gain overflows
            reference_channel(geometry="symmetric", l_ac=16000.0),
            # 2 (v_a - 1) overflows, and so does the gain
            reference_channel(v_a=1e308),
            # the detector noise overflows
            reference_channel(eta=1e-300, v_el=1e10),
        ],
    )
    def test_reduction_rejects_an_overflow(self, channel):
        match = r"^channel reduction overflows at T=\S+, chi_tot=\S+$"
        with pytest.raises(NonFiniteError, match=match):
            breakdown(channel, channel.l_ac)

    # (output, source stage fields p_ps..vcp, T, chi_tot): inputs at which
    # that output of the unchecked formulas is not finite; the first three
    # make it the only one
    NON_FINITE_OUTPUTS = [
        ("key_rate", (math.inf, 50.0, 50.0, 50.0, 50.0, 49.0, -49.0), 0.38, 1.62),
        ("lambda1", (0.5, 50.0, 1e-300, math.inf, 0.0, 1e-300, 0.0), 1e-300, 1.6),
        ("lambda2", (1.0, 1e-300, 1.7e308, -1e300, 1.0, 1e-300, 1.0), 1.0, 1e300),
        ("chi_be", (0.5, 2.0, 5.7, math.inf, 50.0, 0.0, 50.0), 1e-300, 1.6),
        ("i_ab", (1.0, 50.0, -1e300, -1e300, 1e200, 1e200, 1.7e308), 1e300, 1.6),
        ("lambda3", (1.0, 50.0, -1e300, -1e300, 1e200, 1e200, 1.7e308), 1e300, 1.6),
    ]

    @pytest.mark.parametrize("output, cm, t, chi_tot", NON_FINITE_OUTPUTS)
    def test_channel_stage_rejects_a_non_finite_output(self, output, cm, t, chi_tot):
        rate = channel_stage_fields(cm, t, chi_tot, 0.96)
        assert not math.isfinite(rate[RATE_FIELDS.index(output)])
        if output in ("key_rate", "lambda1", "lambda2"):
            assert sum(map(math.isfinite, rate)) == 5
        noise = (1.0, 1.0, 1.0, t, 0.0, 0.0, 0.0, chi_tot)  # the stage reads T and chi_tot
        with pytest.raises(NonFiniteError, match="channel stage overflows"):
            channel_stage(cm + (0.0, 0.0), noise, 0.96)


_RECORD_FIELDS = [
    (record, f.name)
    for record in (SqueezedSourceParams, ChannelParams)
    for f in dataclasses.fields(record)
    if f.name != "geometry"
]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    field=st.sampled_from(_RECORD_FIELDS),
    exponent=st.floats(-300.0, 300.0),
    geometry=st.sampled_from(GEOMETRIES),
)
def test_any_field_at_any_magnitude_gives_a_finite_rate_or_a_typed_error(
    field, exponent, geometry
):
    record, name = field
    records = {
        SqueezedSourceParams: dict(r=0.5 * math.acosh(50.0), d=2.0, tau=0.9, k=1),
        ChannelParams: dict(
            geometry=geometry, l_ac=20.0, v_a=50.0, beta=0.96,
            eps_a=0.002, eps_b=0.002, eta=0.9, v_el=0.01,
        ),
    }
    records[record][name] = 10.0**exponent
    try:
        result = secret_key_rate(
            SqueezedSourceParams(**records[SqueezedSourceParams]),
            ChannelParams(**records[ChannelParams]),
        )
    except (PsqkdError, ValueError):
        return
    values = dataclasses.astuple(result)
    assert all(map(math.isfinite, values[:-1] + values[-1]))
