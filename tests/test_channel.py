"""Equivalent one-way channel: transmittance, gain, and noise breakdown."""

import math

import numpy as np
import pytest

import psqkd.channel as channel_module
from psqkd.channel import (
    ChannelParams,
    NoiseBreakdown,
    gain,
    noise_breakdown,
    transmittance,
)
from psqkd.phase_space import SqueezedSourceParams


def thermal_excess_at_gain(params: ChannelParams, g: float) -> float:
    """Thermal excess noise of the equivalent channel at displacement gain g.

    The general form: relay-quadrature variance S plus the displacement
    cross term. Its minimum over g is at `gain(v_a, T_B)`, where it reduces
    to the closed form that `noise_breakdown` evaluates.
    """
    nb = noise_breakdown(params)
    t_a, t_b, v = nb.t_a, nb.t_b, params.v_a
    s = 0.5 * (
        t_b * (v + params.eps_b) + 1.0 - t_b + t_a * (v + params.eps_a) + 1.0 - t_a
    )
    return (
        2.0 * (v - 1.0) / (g * g * t_a)
        + 2.0 * s / t_a
        - 2.0 * math.sqrt(2.0 * t_b * (v * v - 1.0)) / (g * t_a)
        + 1.0
        - v
    )


def channel(geometry="asymmetric", l_ac=20.0, v_a=50.0, beta=0.96, **kw):
    return ChannelParams(geometry=geometry, l_ac=l_ac, v_a=v_a, beta=beta, **kw)


class TestTransmittance:
    def test_zero_length(self):
        assert transmittance(0.0, 0.2) == 1.0

    def test_fifty_km_is_ten_db(self):
        assert transmittance(50.0, 0.2) == pytest.approx(0.1, rel=1e-14)

    def test_fifteen_km(self):
        assert transmittance(15.0, 0.2) == pytest.approx(0.5011872336272722, rel=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            transmittance(-1.0, 0.2)

    def test_nan_arguments_rejected(self):
        with pytest.raises(ValueError):
            transmittance(math.nan)
        with pytest.raises(ValueError):
            transmittance(1.0, math.nan)


class TestGain:
    def test_no_squeezing_gives_zero(self):
        assert gain(1.0, 1.0) == 0.0

    def test_reference_value(self):
        assert gain(50.0, 1.0) == pytest.approx(1.38621, abs=1e-5)

    def test_monotone_saturation(self):
        values = [gain(v, 0.5) for v in (2.0, 10.0, 100.0, 1e6, 1e12)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(2.0, abs=1e-6)  # limit sqrt(2 / t_b)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gain(0.5, 1.0)
        with pytest.raises(ValueError):
            gain(50.0, 0.0)
        with pytest.raises(ValueError):
            gain(math.nan, 1.0)


class TestGeometry:
    def test_asymmetric_bob_link_is_lossless(self):
        nb = noise_breakdown(channel(geometry="asymmetric", l_ac=37.0))
        t_a, t_b = nb.t_a, nb.t_b
        assert t_b == 1.0
        assert t_a == pytest.approx(transmittance(37.0, 0.2))

    def test_symmetric_links_are_equal(self):
        nb = noise_breakdown(channel(geometry="symmetric", l_ac=12.5))
        t_a, t_b = nb.t_a, nb.t_b
        assert t_a == t_b

    def test_unknown_geometry_rejected(self):
        with pytest.raises(ValueError):
            channel(geometry="diagonal")


class TestThermalExcess:
    def test_lossless_noiseless_channel(self):
        ch = channel(geometry="asymmetric", l_ac=0.0)
        assert noise_breakdown(ch).eps_th == pytest.approx(0.0, abs=1e-14)

    def test_ten_db_alice_link(self):
        # T_A = 0.1, T_B = 1, both excess noises 0.002
        ch = channel(geometry="asymmetric", l_ac=50.0, eps_a=0.002, eps_b=0.002)
        assert noise_breakdown(ch).eps_th == pytest.approx(0.022, rel=1e-9)

    def test_lossless_with_excess(self):
        ch = channel(geometry="asymmetric", l_ac=0.0, eps_a=0.002, eps_b=0.002)
        assert noise_breakdown(ch).eps_th == pytest.approx(0.004, rel=1e-12)

    def test_override_at_minimizer_matches_closed_form(self):
        base = channel(geometry="symmetric", l_ac=8.0, eps_a=0.002, eps_b=0.002)
        t_b = noise_breakdown(base).t_b
        pinned = thermal_excess_at_gain(base, gain(base.v_a, t_b))
        assert pinned == pytest.approx(
            noise_breakdown(base).eps_th, rel=1e-12
        )

    def test_default_gain_minimizes_thermal_excess(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            ch = channel(
                geometry=("symmetric", "asymmetric")[int(rng.integers(0, 2))],
                l_ac=float(rng.uniform(0.0, 40.0)),
                v_a=float(rng.uniform(2.0, 200.0)),
                eps_a=float(rng.uniform(0.0, 0.05)),
                eps_b=float(rng.uniform(0.0, 0.05)),
            )
            g_star = noise_breakdown(ch).g
            best = noise_breakdown(ch).eps_th
            for bump in (1.0 - 1e-3, 1.0 + 1e-3):
                perturbed = thermal_excess_at_gain(ch, g_star * bump)
                assert perturbed >= best - 1e-12


class TestNoiseBreakdown:
    def test_perfect_detector_adds_nothing(self):
        nb = noise_breakdown(channel(eta=1.0, v_el=0.0))
        assert nb.chi_homo == 0.0
        assert nb.chi_tot == nb.chi_line

    def test_noisy_detector_value(self):
        nb = noise_breakdown(channel(eta=0.995, v_el=0.01))
        assert nb.chi_homo == pytest.approx(0.0150754, abs=1e-6)

    def test_full_breakdown_independent_recompute(self):
        # asymmetric, 20 km, V_A = 50, excess 0.002: every intermediate
        # rebuilt from scratch here, then compared field by field
        ch = channel(l_ac=20.0, eps_a=0.002, eps_b=0.002)
        nb = noise_breakdown(ch)
        t_a = 10.0 ** (-0.2 * 20.0 / 10.0)
        t_b = 1.0
        g = math.sqrt(2.0 * 49.0 / (t_b * 51.0))
        t = t_a * g * g / 2.0
        eps_th = (t_b / t_a) * (0.002 - 2.0) + 0.002 + 2.0 / t_a
        chi_line = (1.0 - t) / t + eps_th
        assert nb.t_a == pytest.approx(t_a, rel=1e-14)
        assert nb.t_b == t_b
        assert nb.g == pytest.approx(g, rel=1e-14)
        assert nb.t == pytest.approx(t, rel=1e-14)
        assert nb.eps_th == pytest.approx(eps_th, rel=1e-12)
        assert nb.chi_line == pytest.approx(chi_line, rel=1e-12)
        assert nb.chi_homo == 0.0
        assert nb.chi_tot == pytest.approx(chi_line, rel=1e-12)

    def test_chi_tot_identity(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            nb = noise_breakdown(
                channel(
                    geometry=("symmetric", "asymmetric")[int(rng.integers(0, 2))],
                    l_ac=float(rng.uniform(0.0, 60.0)),
                    v_a=float(rng.uniform(1.5, 300.0)),
                    eps_a=float(rng.uniform(0.0, 0.1)),
                    eps_b=float(rng.uniform(0.0, 0.1)),
                    eta=float(rng.uniform(0.5, 1.0)),
                    v_el=float(rng.uniform(0.0, 0.2)),
                )
            )
            assert nb.chi_tot == pytest.approx(
                nb.chi_line + 2.0 * nb.chi_homo / nb.t_a, abs=1e-12
            )
            assert nb.t > 0.0
            assert nb.chi_tot >= nb.chi_line

    def test_chi_line_grows_with_distance(self):
        values = [
            noise_breakdown(channel(l_ac=l, eps_a=0.002, eps_b=0.002)).chi_line
            for l in (0.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            channel(v_a=1.0)
        with pytest.raises(ValueError):
            channel(eta=0.0)
        with pytest.raises(ValueError):
            channel(beta=0.0)
        with pytest.raises(ValueError):
            channel(l_ac=-3.0)
        with pytest.raises(ValueError):
            channel(v_el=-0.1)
        # T = T_A g^2 / 2 underflows for a subnormal T_A at the smallest gain
        underflow = channel(geometry="asymmetric", l_ac=15500.0, v_a=1.0000000000000002)
        with pytest.raises(ValueError, match="transmittance"):
            noise_breakdown(underflow)

    @pytest.mark.parametrize(
        "record, field",
        [(SqueezedSourceParams, f) for f in ("r", "d", "tau", "k")]
        + [
            (ChannelParams, f)
            for f in ("l_ac", "v_a", "beta", "eps_a", "eps_b", "eta", "v_el", "loss_db_per_km")
        ],
    )
    def test_nan_in_any_parameter_field_is_rejected(self, record, field):
        valid = {
            SqueezedSourceParams: dict(r=0.5, d=1.0, tau=0.9, k=1),
            ChannelParams: dict(geometry="symmetric", l_ac=5.0, v_a=50.0, beta=0.96),
        }[record]
        with pytest.raises(ValueError, match="must"):
            record(**{**valid, field: math.nan})

    @pytest.mark.parametrize(
        "record, field",
        [(SqueezedSourceParams, f) for f in ("r", "d")]
        + [
            (ChannelParams, f)
            for f in ("l_ac", "v_a", "eps_a", "eps_b", "v_el", "loss_db_per_km")
        ],
    )
    def test_inf_in_any_parameter_field_is_rejected(self, record, field):
        valid = {
            SqueezedSourceParams: dict(r=0.5, d=1.0, tau=0.9, k=1),
            ChannelParams: dict(geometry="symmetric", l_ac=5.0, v_a=50.0, beta=0.96),
        }[record]
        with pytest.raises(ValueError, match="finite"):
            record(**{**valid, field: math.inf})

    @pytest.mark.parametrize(
        "record, field",
        [(SqueezedSourceParams, f) for f in ("r", "d", "tau", "k")]
        + [
            (ChannelParams, f)
            for f in ("l_ac", "v_a", "beta", "eps_a", "eps_b", "eta", "v_el", "loss_db_per_km")
        ],
    )
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_in_any_number_field_is_rejected(self, record, field, flag):
        # True passes every range check as 1, False as 0
        valid = {
            SqueezedSourceParams: dict(r=0.5, d=1.0, tau=0.9, k=1),
            ChannelParams: dict(geometry="symmetric", l_ac=5.0, v_a=50.0, beta=0.96),
        }[record]
        with pytest.raises(ValueError, match="must be"):
            record(**{**valid, field: flag})

    @pytest.mark.parametrize("k", [1.0, 2.5, "1"])
    def test_non_integer_k_is_rejected(self, k):
        with pytest.raises(ValueError, match="non-negative integer"):
            SqueezedSourceParams(r=0.5, d=1.0, tau=0.9, k=k)

    def test_transmittances_computed_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return transmittance(*args)

        monkeypatch.setattr(channel_module, "transmittance", counted)
        noise_breakdown(channel(geometry="symmetric", l_ac=12.0))
        assert len(calls) == 2  # one per link

    def test_breakdown_is_plain_data(self):
        nb = noise_breakdown(channel())
        assert isinstance(nb, NoiseBreakdown)
        assert nb.t_b == 1.0
