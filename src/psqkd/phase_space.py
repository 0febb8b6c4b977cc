"""Source parameters of displaced two-mode squeezed light, and the one
Laguerre term sum that the closed-form moments are built from.

Conventions (shot-noise units, SNU): vacuum quadrature variance is 1, so
x = a + a', p = i(a' - a); `d` is the x-quadrature mean of each mode's
coherent input before the two-mode squeezer (coherent amplitude d/2).

The k-photon-subtracted state is produced by tapping the second squeezer
output on a beam splitter of transmittance tau and detecting exactly k
photons on the tap with a photon-number-resolving detector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = ["SqueezedSourceParams", "scaled_laguerre"]


@dataclass(frozen=True)
class SqueezedSourceParams:
    """Source-side parameters of the k-photon-subtracted squeezed coherent state.

    Attributes:
        r: two-mode squeezing parameter (>= 0).
        d: x displacement of each mode before squeezing (SNU, >= 0).
        tau: transmittance of the subtraction beam splitter, in [0, 1].
        k: number of photons detected on the tap (integer >= 0).
    """

    r: float
    d: float
    tau: float
    k: int

    def __post_init__(self) -> None:
        self._check(vars(self))

    @staticmethod
    def _check(fields: dict) -> None:
        """Check the given fields in one fixed order, whatever their order in
        `fields`: every bool among r, d and tau, then each range."""
        for name in ("r", "d", "tau"):  # bool is an int subclass
            if type(fields.get(name)) is bool:
                raise ValueError(f"{name} must be a number, got {fields[name]!r}")
        for name in ("r", "d"):  # written so that NaN and inf fail it
            if name in fields and not 0 <= fields[name] < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {fields[name]}")
        if "tau" in fields and not 0.0 <= fields["tau"] <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {fields['tau']}")
        # k=True is a caller mistake too
        if "k" in fields and not (type(fields["k"]) is int and fields["k"] >= 0):
            raise ValueError(f"k must be a non-negative integer, got {fields['k']!r}")


def scaled_laguerre(k: int, a: float, ax, alpha: int = 0):
    """a**k * L_k^alpha(x) evaluated from a and the product a*x.

    Needed where a -> 0 while x diverges with a*x finite (the r -> 0 limit of
    subtracted-state formulas). Terms are binomial:

        a**k * L_k^alpha(x) = sum_j C(k+alpha, k-j) a**(k-j) (-a*x)**j / j!

    At a negative argument x every term is positive, so the sum has no
    cancellation. `a` is a scalar >= 0; `ax` may be a scalar or numpy array.

    >>> scaled_laguerre(2, 1.0, 1.0)  # L_2(1) = (1 - 4 + 2) / 2
    -0.5
    >>> scaled_laguerre(1, 2.0, 1.0, alpha=1)  # 2 * L_1^1(0.5) = 2 * (2 - 0.5)
    3.0
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    total = 0.0
    neg_ax = -ax
    for j, (binom, fact) in enumerate(_laguerre_table(k, alpha)):
        total = total + binom * a ** (k - j) / fact * neg_ax**j
    return total


@functools.cache
def _laguerre_table(k: int, alpha: int) -> tuple[tuple[int, int], ...]:
    """The exact integers (C(k+alpha, k-j), j!) of each term j of
    `scaled_laguerre`."""
    return tuple((math.comb(k + alpha, k - j), math.factorial(j)) for j in range(k + 1))
