"""Effective covariance, information quantities, and the key-rate pipeline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psqkd.moments as moments
from psqkd.channel import (
    GEOMETRIES,
    ChannelParams,
    NoiseBreakdown,
    _breakdown_at,
    gain,
    link_transmittances,
    noise_breakdown,
)
from psqkd.errors import (
    NonFiniteError,
    PsqkdError,
    UnphysicalStateError,
    ZeroProbabilityError,
)
from psqkd.keyrate import (
    KeyRateResult,
    _channel_stage,
    conditional_cm_after_heterodyne,
    effective_cm,
    entropy_G,
    holevo_bound,
    mutual_information,
    secret_key_rate,
    symplectic_eigenvalues,
)
from psqkd.moments import TwoModeCM, pstmsc_covariance, source_stage
from psqkd.phase_space import SqueezedSourceParams

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


def plain_noise(t: float, chi_tot: float) -> NoiseBreakdown:
    """A breakdown carrying just the fields effective_cm consumes."""
    return NoiseBreakdown(
        t_a=1.0,
        t_b=1.0,
        g=math.sqrt(2.0 * t),
        t=t,
        eps_th=0.0,
        chi_line=chi_tot,
        chi_homo=0.0,
        chi_tot=chi_tot,
    )


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


class TestSymplecticEigenvalues:
    def test_thermal_state(self):
        cm = TwoModeCM(vax=3.0, vap=3.0, vbx=3.0, vbp=3.0, vcx=0.0, vcp=0.0)
        assert symplectic_eigenvalues(cm) == pytest.approx((3.0, 3.0), rel=1e-12)

    def test_pure_tmsv_has_unit_eigenvalues(self):
        for r in (0.1, 0.6, 1.5):
            lam1, lam2 = symplectic_eigenvalues(tmsv_cm(r))
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
            expect = np.abs(np.linalg.eigvals(1j * OMEGA @ cm.as_matrix()))
            expect = np.sort(expect)  # each eigenvalue appears twice
            lam1, lam2 = symplectic_eigenvalues(cm)
            assert lam2 == pytest.approx(expect[0], rel=1e-9)
            assert lam1 == pytest.approx(expect[3], rel=1e-9)
            # symplectic invariant: product equals sqrt(det)
            det = np.linalg.det(cm.as_matrix())
            assert lam1 * lam2 == pytest.approx(math.sqrt(det), rel=1e-9)

    def test_product_form_stable_for_near_pure_states(self):
        # weakly squeezed pure state: lam1 and lam2 nearly coincide at 1 and
        # naive use of Delta^2 - 4 det(Sigma) loses almost every digit
        lam1, lam2 = symplectic_eigenvalues(tmsv_cm(1e-6))
        assert abs(lam1 - 1.0) < 1e-10
        assert abs(lam2 - 1.0) < 1e-10


class TestEffectiveCm:
    def test_identity_channel_is_noop(self):
        cm = pstmsc_covariance(SqueezedSourceParams(r=0.5, d=1.0, tau=0.8, k=1))
        out = effective_cm(cm, plain_noise(t=1.0, chi_tot=0.0))
        assert out == cm

    def test_direct_substitution(self):
        out = effective_cm(tmsv_cm(0.6), plain_noise(t=0.5, chi_tot=1.0))
        assert out.vax == pytest.approx(math.cosh(1.2))
        assert out.vbx == pytest.approx(0.5 * (math.cosh(1.2) + 1.0), rel=1e-14)
        assert out.vbp == out.vbx
        assert out.vcx == pytest.approx(
            math.sqrt(0.5) * math.sinh(1.2), rel=1e-14
        )
        assert out.vcp == -out.vcx


class TestMutualInformation:
    def test_uncorrelated_modes_share_nothing(self):
        cm = TwoModeCM(vax=3.0, vap=3.0, vbx=2.0, vbp=2.0, vcx=0.0, vcp=0.0)
        assert mutual_information(cm) == 0.0

    def test_tmsv_reference_value(self):
        v = math.cosh(1.2)
        s = math.sinh(1.2)
        cond = v - s * s / (v + 1.0)
        expect = math.log2((v + 1.0) / (cond + 1.0))  # x and p contribute equally
        assert mutual_information(tmsv_cm(0.6)) == pytest.approx(expect, rel=1e-12)

    def test_symmetric_cm_splits_evenly(self):
        cm = tmsv_cm(0.8)
        half = 0.5 * math.log2((cm.vax + 1.0) / (
            cm.vax - cm.vcx**2 / (cm.vbx + 1.0) + 1.0
        ))
        assert mutual_information(cm) == pytest.approx(2 * half, rel=1e-12)

    def test_unphysical_conditioning_rejected(self):
        cm = TwoModeCM(vax=1.0, vap=1.0, vbx=1.0, vbp=1.0, vcx=3.0, vcp=0.0)
        with pytest.raises(UnphysicalStateError):
            mutual_information(cm)


class TestConditionalCm:
    def test_no_correlations_leave_alice_unchanged(self):
        cm = TwoModeCM(vax=2.5, vap=1.7, vbx=4.0, vbp=4.0, vcx=0.0, vcp=0.0)
        assert conditional_cm_after_heterodyne(cm) == (2.5, 1.7)

    def test_pure_tmsv_conditional_purity_bound(self):
        vx, vp = conditional_cm_after_heterodyne(tmsv_cm(0.6))
        assert math.sqrt(vx * vp) >= 1.0 - 1e-12


class TestHolevoBound:
    def test_pure_state_leaks_nothing(self):
        assert holevo_bound(tmsv_cm(0.7)) == 0.0

    def test_grows_with_excess_noise(self):
        source = tmsv_source(50.0)
        values = []
        for eps in (0.0, 0.01, 0.05, 0.1):
            ch = reference_channel(l_ac=10.0, eps_a=eps, eps_b=eps)
            cm = effective_cm(
                pstmsc_covariance(source), noise_breakdown(ch)
            )
            values.append(holevo_bound(cm))
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

    @pytest.mark.parametrize(
        "source, channel",
        [
            # OverflowError in the source stage's Laguerre terms
            (SqueezedSourceParams(r=1.0, d=1e150, tau=0.9, k=2), reference_channel()),
            # a NaN source covariance
            (
                SqueezedSourceParams(r=0.5 * math.acosh(1e300), d=2.0, tau=0.9, k=1),
                reference_channel(v_a=1e300),
            ),
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
    """The finiteness guards list their fields by hand; each field must be in."""

    SOURCE = SqueezedSourceParams(r=0.5 * math.acosh(50.0), d=2.0, tau=0.9, k=1)

    SOURCE_FIELDS = ["p_ps"] + [f.name for f in dataclasses.fields(TwoModeCM)]
    NOISE_FIELDS = [f.name for f in dataclasses.fields(NoiseBreakdown)]

    @pytest.mark.parametrize("field", SOURCE_FIELDS)
    def test_source_stage_rejects_inf_in_any_field(self, monkeypatch, field):
        p_ps, cm = source_stage(self.SOURCE)
        stage = [p_ps] + [getattr(cm, name) for name in self.SOURCE_FIELDS[1:]]
        assert tuple(stage) == moments._source_stage(self.SOURCE)  # in field order
        stage[self.SOURCE_FIELDS.index(field)] = math.inf
        monkeypatch.setattr(moments, "_source_moments", lambda params, max_k: tuple(stage))
        with pytest.raises(NonFiniteError, match="source stage"):
            source_stage(self.SOURCE)

    @pytest.mark.parametrize("field", NOISE_FIELDS)
    def test_channel_stage_rejects_inf_in_any_noise_field(self, field):
        record = noise_breakdown(reference_channel())
        noise = [getattr(record, name) for name in self.NOISE_FIELDS]
        assert tuple(noise) == _breakdown_at(reference_channel(), reference_channel().l_ac)
        noise[self.NOISE_FIELDS.index(field)] = math.inf
        with pytest.raises(NonFiniteError, match="channel stage"):
            _channel_stage(moments._source_stage(self.SOURCE), tuple(noise), 0.96)


def _composed(source: SqueezedSourceParams, channel: ChannelParams) -> KeyRateResult:
    """secret_key_rate spelled out through the public stage functions."""
    p_ps, cm = source_stage(source)
    noise = noise_breakdown(channel)
    eff = effective_cm(cm, noise)
    vx, vp = conditional_cm_after_heterodyne(eff)
    lam1, lam2 = symplectic_eigenvalues(eff)
    i_ab, chi_be = mutual_information(eff), holevo_bound(eff)
    key = p_ps * (channel.beta * i_ab - chi_be)
    return KeyRateResult(p_ps, i_ab, chi_be, key, lam1, lam2, math.sqrt(vx * vp), noise)


def test_channel_stage_equals_the_public_composition_bit_for_bit():
    rng = np.random.default_rng(2024)
    for i in range(300):
        v_a = float(rng.uniform(3.0, 200.0))
        geometry = GEOMETRIES[i % 2]
        l_ac = float(rng.uniform(0.0, 60.0))
        channel = reference_channel(
            geometry=geometry,
            l_ac=l_ac,
            v_a=v_a,
            eps_a=float(rng.uniform(0.0, 0.05)),
            eps_b=float(rng.uniform(0.0, 0.05)),
            eta=float(rng.uniform(0.5, 0.99)),
            v_el=float(rng.uniform(0.001, 0.1)),
        )
        if i % 3 == 0:
            g = gain(v_a, link_transmittances(channel)[1]) * float(rng.uniform(0.8, 1.2))
            channel = dataclasses.replace(channel, gain_override=g)
        source = SqueezedSourceParams(
            r=0.5 * math.acosh(v_a),
            d=float(rng.uniform(0.0, 3.0)),
            tau=float(rng.uniform(0.5, 0.99)),
            k=i % 5,
        )
        assert secret_key_rate(source, channel) == _composed(source, channel), (source, channel)


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
