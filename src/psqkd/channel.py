"""Equivalent one-way channel for the two-link untrusted-relay geometry.

Alice and Bob each send one mode over fiber to the relay (losses over
L_AC and L_BC at `loss_db_per_km`); the relay's Bell-type measurement plus
Bob's conditional displacement reduce the pair of links to a single
effective channel with transmittance T and total added noise chi_tot
referred to the channel input.

Two geometries:
  * symmetric: the relay sits midway, L_BC = L_AC;
  * asymmetric: the relay is at Bob's site, L_BC = 0.

One straight-line kernel, `breakdown`, computes the reduction as the
NoiseBreakdown fields: the fiber transmittances T_A = 10^(-loss * L_AC / 10)
and T_B (T_A or 1), the noise-minimizing displacement gain
g = sqrt(2 (V_A - 1) / (T_B (V_A + 1))), T = T_A g^2 / 2, the thermal
excess at that gain (T_B/T_A)(eps_B - 2) + eps_A + 2/T_A and the added
noises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteError

__all__ = [
    "GEOMETRIES",
    "ChannelParams",
    "NoiseBreakdown",
    "breakdown",
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

    def __post_init__(self) -> None:
        self._check(vars(self))

    @staticmethod
    def _check(fields: dict) -> None:
        """Check the given fields in one fixed order, whatever their order in
        `fields`: the geometry, every bool, then each range."""
        if "geometry" in fields and fields["geometry"] not in GEOMETRIES:
            raise ValueError(
                f"geometry must be one of {GEOMETRIES}, got {fields['geometry']!r}"
            )
        for name in ChannelParams.__dataclass_fields__:  # bool is an int subclass
            if type(fields.get(name)) is bool:
                raise ValueError(f"{name} must be a number, got {fields[name]!r}")
        # each check is written so that NaN and inf fail it
        for name in ("l_ac", "eps_a", "eps_b", "v_el", "loss_db_per_km"):
            if name in fields and not 0 <= fields[name] < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {fields[name]}")
        if "v_a" in fields and not 1.0 < fields["v_a"] < math.inf:
            raise ValueError(f"v_a must be finite and exceed 1 SNU, got {fields['v_a']}")
        for name in ("beta", "eta"):
            if name in fields and not 0.0 < fields[name] <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {fields[name]}")


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


def breakdown(params: ChannelParams, l_ac: float) -> tuple[float, ...]:
    """The NoiseBreakdown fields at L_AC = l_ac. Raises ValueError for an
    l_ac outside [0, inf), in ChannelParams' words, or when T_A or T
    underflows to 0, and NonFiniteError when a quantity overflows.

    >>> breakdown(ChannelParams("asymmetric", 0.0, 3.0, 1.0), 0.0)
    (1.0, 1.0, 1.0, 0.5, 0.0, 1.0, 0.0, 1.0)
    """
    if not 0.0 <= l_ac < math.inf:
        ChannelParams._check({"l_ac": l_ac})
    loss = params.loss_db_per_km
    t_a = math.pow(10.0, -loss * l_ac / 10.0)
    t_b = t_a if params.geometry == "symmetric" else 1.0
    if t_a == 0.0:
        raise ValueError(
            f"fiber transmittance underflows to 0 over L_AC = {l_ac:g} km "
            f"at {loss:g} dB/km"
        )
    g = math.sqrt(2.0 * (params.v_a - 1.0) / (t_b * (params.v_a + 1.0)))
    t = t_a * g * g / 2.0
    if t <= 0.0:
        raise ValueError("effective transmittance T must be positive; raise v_a")
    eps_th = (t_b / t_a) * (params.eps_b - 2.0) + params.eps_a + 2.0 / t_a
    chi_line = (1.0 - t) / t + eps_th
    chi_homo = (params.v_el + 1.0 - params.eta) / params.eta
    chi_tot = chi_line + 2.0 * chi_homo / t_a
    noise = t_a, t_b, g, t, eps_th, chi_line, chi_homo, chi_tot
    if not all(map(math.isfinite, noise)):
        raise NonFiniteError(f"channel reduction overflows at T={t:g}, chi_tot={chi_tot:g}")
    return noise
