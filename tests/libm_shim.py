"""A `math` stand-in whose transcendental functions are 1 ulp off.

Libms disagree on the last bit of `cosh`, `sinh`, `acosh`, `exp`, `log`,
`log1p`, `log2` and `pow`: glibc versions, musl, macOS and Windows all
differ. `perturbed(seed)` returns a module that moves each inexact result of
those eight functions one ulp up or down. The direction is fixed per
(function, argument, seed), so a run repeats and equal calls agree. An
integer result, such as log2(1) = 0 or exp(0) = 1, is exact and stays as it
is, as every libm returns it; so does an infinity. Every other name is
`math`'s own. Patched in as a module's `math`, it shows what
the code could print on a platform whose libm rounds differently.
"""

import math
import types
import zlib

PERTURBED = ("cosh", "sinh", "acosh", "exp", "log", "log1p", "log2", "pow")


def _one_ulp_off(name: str, func, seed: int):
    def call(*args):
        result = func(*args)
        if not math.isfinite(result) or result.is_integer():
            return result
        up = zlib.crc32(repr((seed, name, args)).encode()) & 1
        return math.nextafter(result, math.inf if up else -math.inf)

    return call


def perturbed(seed: int) -> types.ModuleType:
    """A copy of `math` with the PERTURBED functions 1 ulp off under `seed`."""
    shim = types.ModuleType("math")
    shim.__dict__.update(vars(math))
    for name in PERTURBED:
        setattr(shim, name, _one_ulp_off(name, getattr(math, name), seed))
    return shim
