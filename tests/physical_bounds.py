"""What physics allows a key rate, independent of the model's formulas.

No protocol beats the secret-key capacity of the link it runs over.
`link_bound` is the repeaterless (PLOB) bound -log2(1 - T) per use of a
lossy channel of transmittance T (Pirandola, Laurenza, Ottaviani & Banchi,
Nat. Commun. 8, 15043 (2017)). Alice's fiber has T_A = 10^(-loss L_AC / 10),
and Bob's has T_B: T_A in the symmetric geometry, 1 with the relay at his
site. `link_transmittances` takes both from the channel record, so these
bounds do not use the relay reduction.

`thermal_loss_bound` is the same paper's bound for the reduction's
effective channel: a thermal-loss channel of transmittance T and mean
thermal number n = (T chi_tot / (1 - T) - 1) / 2, which allows
-log2[(1 - T) T^n] - h(n) while n < T / (1 - T), and no key beyond.
`thermal_entropy` is h. This bound relies on the reduction.
"""

from __future__ import annotations

import math


def thermal_entropy(n: float) -> float:
    """h(n) = (n + 1) log2(n + 1) - n log2 n, the entropy in bits of a
    thermal state of mean photon number n >= 0; h(0) = 0."""
    if n == 0.0:
        return 0.0
    return (n + 1.0) * math.log2(n + 1.0) - n * math.log2(n)


def link_bound(t: float) -> float:
    """-log2(1 - t) bits per use of a lossy channel of transmittance t; a
    lossless link (t = 1) bounds nothing."""
    return math.inf if t >= 1.0 else -math.log1p(-t) / math.log(2.0)


def link_transmittances(channel) -> tuple[float, float]:
    """(T_A, T_B) of the channel record's fibers."""
    t_a = 10.0 ** (-channel.loss_db_per_km * channel.l_ac / 10.0)
    return t_a, t_a if channel.geometry == "symmetric" else 1.0


def thermal_loss_bound(t: float, chi_tot: float) -> float:
    """The key-rate bound of a thermal-loss channel of transmittance t < 1
    that adds chi_tot at its input. A thermal number below 0 can come only
    from rounding (every added noise of the reduction is >= 0), and it is
    read as 0, the pure-loss channel."""
    n = max(0.0, (t * chi_tot / (1.0 - t) - 1.0) / 2.0)
    if n >= t / (1.0 - t):
        return 0.0
    return link_bound(t) - n * math.log2(t) - thermal_entropy(n)
