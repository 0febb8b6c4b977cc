"""Equivalent one-way channel for the two-link untrusted-relay geometry.

Alice and Bob each send one mode over fiber to the relay (losses over
L_AC and L_BC at `loss_db_per_km`); the relay's Bell-type measurement plus
Bob's conditional displacement reduce the pair of links to a single
effective channel with transmittance T and total added noise chi_tot
referred to the channel input.

Two geometries:
  * symmetric: the relay sits midway, L_BC = L_AC;
  * asymmetric: the relay is at Bob's site, L_BC = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GEOMETRIES",
    "ChannelParams",
    "NoiseBreakdown",
    "transmittance",
    "gain",
    "link_transmittances",
    "thermal_excess",
    "noise_breakdown",
]

GEOMETRIES = ("symmetric", "asymmetric")


@dataclass(frozen=True)
class ChannelParams:
    """Link and detector parameters of one protocol configuration.

    Attributes:
        geometry: "symmetric" or "asymmetric".
        l_ac: Alice-relay fiber length in km (>= 0). The Bob-relay length
            follows from the geometry.
        v_a: source quadrature variance cosh 2r in SNU (> 1); sets the
            noise-minimizing displacement gain.
        beta: reconciliation efficiency in (0, 1].
        eps_a, eps_b: thermal excess noise of each link (SNU, >= 0).
        eta: relay homodyne detector efficiency in (0, 1].
        v_el: relay detector electronic noise (SNU, >= 0).
        loss_db_per_km: fiber loss (default 0.2 dB/km).
        gain_override: fix the displacement gain instead of the
            noise-minimizing value (sensitivity studies only).
    """

    geometry: str
    l_ac: float
    v_a: float
    beta: float
    eps_a: float = 0.0
    eps_b: float = 0.0
    eta: float = 1.0
    v_el: float = 0.0
    loss_db_per_km: float = 0.2
    gain_override: float | None = None

    def __post_init__(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ValueError(
                f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}"
            )
        # each check is written so that NaN and inf fail it
        for name in ("l_ac", "eps_a", "eps_b", "v_el", "loss_db_per_km"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 1.0 < self.v_a < math.inf:
            raise ValueError(f"v_a must be finite and exceed 1 SNU, got {self.v_a}")
        for name in ("beta", "eta"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")

    @property
    def l_bc(self) -> float:
        """Bob-relay fiber length implied by the geometry."""
        return _bob_length(self.geometry, self.l_ac)


def _bob_length(geometry: str, l_ac: float) -> float:
    return l_ac if geometry == "symmetric" else 0.0


@dataclass(frozen=True)
class NoiseBreakdown:
    """Every intermediate of the one-way reduction, for reporting and tests."""

    t_a: float
    t_b: float
    g: float
    t: float
    eps_th: float
    chi_line: float
    chi_homo: float
    chi_tot: float


def transmittance(length_km: float, loss_db_per_km: float = 0.2) -> float:
    """Fiber power transmittance 10^(-loss * L / 10).

    >>> transmittance(0.0)
    1.0
    >>> transmittance(50.0, 0.2)
    0.1
    """
    if not length_km >= 0:
        raise ValueError(f"length must be >= 0 km, got {length_km}")
    if not loss_db_per_km >= 0:
        raise ValueError("loss must be >= 0 dB/km")
    return 10.0 ** (-loss_db_per_km * length_km / 10.0)


def gain(v_a: float, t_b: float) -> float:
    """Displacement gain minimizing the equivalent thermal noise.

    >>> gain(1.0, 1.0)
    0.0
    """
    if not v_a >= 1.0:
        raise ValueError(f"v_a must be >= 1 SNU, got {v_a}")
    if not 0.0 < t_b <= 1.0:
        raise ValueError(f"t_b must lie in (0, 1], got {t_b}")
    return math.sqrt(2.0 * (v_a - 1.0) / (t_b * (v_a + 1.0)))


def link_transmittances(params: ChannelParams) -> tuple[float, float]:
    """(T_A, T_B) of the two fiber links."""
    return (
        transmittance(params.l_ac, params.loss_db_per_km),
        transmittance(params.l_bc, params.loss_db_per_km),
    )


def thermal_excess(params: ChannelParams) -> float:
    """Thermal excess noise of the equivalent one-way channel.

    At the noise-minimizing gain this is the closed form
    (T_B/T_A)(eps_B - 2) + eps_A + 2/T_A, which grows as 2/T_A once the
    Alice link dominates. With a gain override the general form is used
    (relay-quadrature variance S plus the displacement cross term); it
    reduces to the closed form exactly at the minimizer.
    """
    return _thermal_excess(params, *link_transmittances(params))


def _thermal_excess(params: ChannelParams, t_a: float, t_b: float) -> float:
    if params.gain_override is None:
        return (t_b / t_a) * (params.eps_b - 2.0) + params.eps_a + 2.0 / t_a
    g = params.gain_override
    if not 0 < g < math.inf:
        raise ValueError("gain override must be finite and positive")
    v = params.v_a
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


def noise_breakdown(params: ChannelParams) -> NoiseBreakdown:
    """All derived channel quantities for one configuration, one
    `transmittance` call per link."""
    return NoiseBreakdown(*_breakdown_at(params, params.l_ac))


def _breakdown_at(params: ChannelParams, l_ac: float) -> tuple[float, ...]:
    loss = params.loss_db_per_km
    t_a = transmittance(l_ac, loss)
    t_b = transmittance(_bob_length(params.geometry, l_ac), loss)
    if t_a == 0.0:
        raise ValueError(
            f"fiber transmittance underflows to 0 over L_AC = {l_ac:g} km "
            f"at {loss:g} dB/km"
        )
    g = params.gain_override if params.gain_override is not None else gain(
        params.v_a, t_b
    )
    t = t_a * g * g / 2.0
    if t <= 0.0:
        raise ValueError("effective transmittance T must be positive; raise v_a")
    eps_th = _thermal_excess(params, t_a, t_b)
    chi_line = (1.0 - t) / t + eps_th
    chi_homo = (params.v_el + 1.0 - params.eta) / params.eta
    chi_tot = chi_line + 2.0 * chi_homo / t_a
    return t_a, t_b, g, t, eps_th, chi_line, chi_homo, chi_tot
