"""End-to-end acceptance gate.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (visible in the
pytest output even without -s) and then asserts, so a failure is both
machine-checked and human-readable. Numbers and tolerances are the
project's published targets; 5b is currently expected to fail — see the
"Known discrepancies" section of the README for the analysis.
"""

import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from keyrate_reference import symplectic_eigenvalues
from phase_space_reference import laguerre
from psqkd.channel import ChannelParams
from psqkd.cli import render_csv
from psqkd.fock_oracle import compare_random_grid
from psqkd.keyrate import secret_key_rate
from psqkd.phase_space import SqueezedSourceParams, TwoModeCM, scaled_laguerre, source_stage
from psqkd.sweep import (
    DEFAULT_FAMILIES,
    _evaluate,
    max_secure_distance,
    resolve_family,
)

R50 = 0.5 * math.acosh(50.0)
SOURCE = SqueezedSourceParams(r=R50, d=2.0, tau=0.9, k=1)
ASYM = ChannelParams(
    geometry="asymmetric", l_ac=20.0, v_a=50.0, beta=0.96, eps_a=0.002, eps_b=0.002
)
SYM = replace(ASYM, geometry="symmetric", l_ac=2.0)

CM_FIELDS = ("vax", "vap", "vbx", "vbp", "vcx", "vcp", "mean_x1", "mean_x2")


def report(tag: str, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")


def rate(source: SqueezedSourceParams, channel: ChannelParams, **over) -> float:
    return secret_key_rate(source, replace(channel, **over)).key_rate


def eta_threshold(
    source: SqueezedSourceParams, channel: ChannelParams, lo=0.5, hi=1.0
) -> float:
    """Smallest detector efficiency that still gives a positive key rate."""
    assert rate(source, channel, eta=hi) > 0.0
    assert rate(source, channel, eta=lo) <= 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if rate(source, channel, eta=mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_acceptance_1_oracle_equivalence(capsys):
    t0 = time.monotonic()
    grid = compare_random_grid(points=50, seed=20240817, rel_tol=1e-5)
    elapsed = time.monotonic() - t0
    ok = grid.passed and elapsed < 120.0
    report(
        "1",
        ok,
        f"closed forms vs Fock oracle on 50 random points: worst dev "
        f"P {grid.max_dev_probability:.1e}, CM {grid.max_dev_covariance:.1e}, "
        f"means {grid.max_dev_means:.1e} (tol 1e-5), {elapsed:.1f}s (<120s)",
        capsys,
    )
    assert grid.passed
    assert elapsed < 120.0


def test_acceptance_2_limit_recovery(capsys):
    worst_tmsv = 0.0
    for r in (0.2, 0.6, 1.0):
        cm = TwoModeCM(*source_stage(r, 0.0, 1.0, 0)[1:])
        ch2, sh2 = math.cosh(2 * r), math.sinh(2 * r)
        devs = [
            abs(cm.vax - ch2), abs(cm.vap - ch2),
            abs(cm.vbx - ch2), abs(cm.vbp - ch2),
            abs(cm.vcx - sh2), abs(cm.vcp + sh2),
            abs(cm.mean_x1), abs(cm.mean_x2),
        ]
        worst_tmsv = max(worst_tmsv, max(devs))

    # d -> 0 continuously recovers photon subtraction from the undisplaced
    # state: variances approach quadratically, means linearly
    p_zero, *at_zero = source_stage(0.5, 0.0, 0.8, 1)
    p_small, *small = source_stage(0.5, 1e-8, 0.8, 1)
    at_zero, small = TwoModeCM(*at_zero), TwoModeCM(*small)
    worst_limit = max(
        abs(getattr(small, f) - getattr(at_zero, f))
        for f in ("vax", "vap", "vbx", "vbp", "vcx", "vcp")
    )
    worst_limit = max(worst_limit, abs(p_small - p_zero))
    mean_leak = max(abs(small.mean_x1), abs(small.mean_x2))
    undisplaced_isotropy = max(
        abs(at_zero.vax - at_zero.vap),
        abs(at_zero.vbx - at_zero.vbp),
        abs(at_zero.vcx + at_zero.vcp),
    )

    ok = (
        worst_tmsv < 1e-9
        and worst_limit < 1e-9
        and mean_leak < 1e-7
        and undisplaced_isotropy < 1e-12
    )
    report(
        "2",
        ok,
        f"k=0, tau=1 recovers the TMSV matrix (worst dev {worst_tmsv:.1e} < 1e-9); "
        f"d->0 recovers undisplaced subtraction (worst dev {worst_limit:.1e})",
        capsys,
    )
    assert worst_tmsv < 1e-9
    assert worst_limit < 1e-9
    assert mean_leak < 1e-7
    assert undisplaced_isotropy < 1e-12


def test_acceptance_3_secure_distance_asymmetric(capsys):
    t0 = time.monotonic()
    dist_c = max_secure_distance(resolve_family("1-pstmsc", SOURCE), ASYM)
    dist_v = max_secure_distance(resolve_family("1-pstmsv", SOURCE), ASYM)
    elapsed = time.monotonic() - t0
    gap = dist_c - dist_v
    ok = abs(dist_c - 70.0) <= 5.0 and abs(gap - 10.0) <= 5.0 and elapsed < 60.0
    report(
        "3",
        ok,
        f"1-pstmsc secure to {dist_c:.2f} km (target 70±5), "
        f"{gap:.2f} km beyond 1-pstmsv (target 10±5), {elapsed:.1f}s",
        capsys,
    )
    assert abs(dist_c - 70.0) <= 5.0
    assert abs(gap - 10.0) <= 5.0
    assert elapsed < 60.0


def test_acceptance_4_displacement_gain_symmetric(capsys):
    channel = replace(SYM, l_ac=0.0)
    undisplaced = max_secure_distance(
        resolve_family("1-pstmsv", SOURCE), channel, k_target=1e-4
    )
    displaced = max_secure_distance(
        resolve_family("1-pstmsc", SOURCE), channel, k_target=1e-4
    )
    # the per-arm gain doubles on the total Alice-to-Bob length
    gain = 2.0 * (displaced - undisplaced)
    ok = abs(gain - 0.5) <= 0.3
    report(
        "4",
        ok,
        f"displacement extends the 1e-4 bits/pulse contour by {gain:.3f} km "
        f"total (target 0.5±0.3)",
        capsys,
    )
    assert abs(gain - 0.5) <= 0.3


def test_acceptance_5a_symmetric_tmsv_dominance(capsys):
    checked = 0
    violations = []
    for v_a in np.linspace(5.0, 200.0, 27):
        r = 0.5 * math.acosh(v_a)
        src = replace(SOURCE, r=r)
        ch = replace(SYM, v_a=float(v_a))
        rates = {
            fam: secret_key_rate(resolve_family(fam, src), ch).key_rate
            for fam in DEFAULT_FAMILIES
        }
        if max(rates.values()) <= 0.0:
            continue  # entirely insecure: not part of the plotted region
        checked += 1
        for fam, k in rates.items():
            if fam != "tmsv" and k > rates["tmsv"]:
                violations.append((float(v_a), fam))
    dist = {
        fam: max_secure_distance(resolve_family(fam, SOURCE), replace(SYM, v_a=50.0))
        for fam in DEFAULT_FAMILIES
    }
    range_ok = all(dist["tmsv"] > dist[f] for f in DEFAULT_FAMILIES if f != "tmsv")
    ok = not violations and checked >= 20 and range_ok
    report(
        "5a",
        ok,
        f"symmetric 2 km arms: tmsv has the best rate at all {checked} secure "
        f"grid points and the longest range ({dist['tmsv']:.3f} km)",
        capsys,
    )
    assert not violations, violations
    assert checked >= 20
    assert range_ok, dist


def crossover_variance(fam: str, lo=50.0, hi=4000.0) -> float:
    """V_A above which the family's rate exceeds the tmsv rate at 20 km."""

    def margin(v_a: float) -> float:
        r = 0.5 * math.acosh(v_a)
        src = replace(SOURCE, r=r)
        ch = replace(ASYM, v_a=v_a)
        return (
            secret_key_rate(resolve_family(fam, src), ch).key_rate
            - secret_key_rate(resolve_family("tmsv", src), ch).key_rate
        )

    assert margin(lo) < 0.0 < margin(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_acceptance_5b_asymmetric_crossover_qualitative(capsys):
    subtracted = [f for f in DEFAULT_FAMILIES if f != "tmsv"]
    crossings = {fam: crossover_variance(fam) for fam in subtracted}
    sign_changes_ok = True
    for fam, v_star in crossings.items():
        grid = np.geomspace(50.0, 4000.0, 40)
        signs = []
        for v_a in grid:
            src = replace(SOURCE, r=0.5 * math.acosh(float(v_a)))
            ch = replace(ASYM, v_a=float(v_a))
            m = (
                secret_key_rate(resolve_family(fam, src), ch).key_rate
                - secret_key_rate(resolve_family("tmsv", src), ch).key_rate
            )
            signs.append(math.copysign(1.0, m))
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        if flips != 1:
            sign_changes_ok = False
    ok = sign_changes_ok and all(50.0 < v < 4000.0 for v in crossings.values())
    summary = ", ".join(f"{fam} {v:.0f}" for fam, v in crossings.items())
    report(
        "5b-qualitative",
        ok,
        f"asymmetric 20 km: each subtracted family overtakes tmsv exactly "
        f"once as V_A grows (at V_A ≈ {summary})",
        capsys,
    )
    assert sign_changes_ok
    assert all(50.0 < v < 4000.0 for v in crossings.values())


def test_acceptance_5b_asymmetric_crossover_quantitative(capsys):
    crossings = {
        fam: crossover_variance(fam) for fam in DEFAULT_FAMILIES if fam != "tmsv"
    }
    lo, hi = 250.0 * 0.85, 250.0 * 1.15
    ok = all(lo <= v <= hi for v in crossings.values())
    summary = ", ".join(f"{fam} {v:.0f}" for fam, v in crossings.items())
    report(
        "5b-quantitative",
        ok,
        f"crossover V_A within 250±15%: measured {summary}",
        capsys,
    )
    assert ok, (
        f"measured crossover variances ({summary}) sit at the tmsv security "
        f"edge, far above the nominal 250±15% window [{lo}, {hi}]; this is a "
        "model-level discrepancy, not a numerical one — see 'Known "
        "discrepancies' in the README"
    )


def test_acceptance_6_noisy_relay_detectors(capsys):
    noisy = replace(ASYM, eta=0.995, v_el=0.01)
    dist = max_secure_distance(resolve_family("1-pstmsc", SOURCE), noisy)
    thr_zero = eta_threshold(
        resolve_family("1-pstmsc", SOURCE), replace(ASYM, l_ac=0.0, v_el=0.01)
    )
    thr_20 = eta_threshold(
        resolve_family("1-pstmsc", SOURCE), replace(ASYM, l_ac=20.0, v_el=0.01)
    )
    ok = (
        abs(dist - 30.0) <= 5.0
        and abs(thr_zero - 0.86) <= 0.03
        and thr_zero < thr_20 < 1.0
    )
    report(
        "6",
        ok,
        f"eta=0.995, v_el=0.01: 1-pstmsc range {dist:.2f} km (target 30±5); "
        f"minimum tolerable eta {thr_zero:.4f} at 0 km (target 0.86±0.03), "
        f"{thr_20:.4f} at 20 km",
        capsys,
    )
    assert abs(dist - 30.0) <= 5.0
    assert abs(thr_zero - 0.86) <= 0.03
    assert thr_zero < thr_20 < 1.0


def test_acceptance_7_property_suite(capsys):
    rng = np.random.default_rng(917)

    # physicality: symplectic eigenvalues >= 1 on 1000 random source states
    lam_floor = math.inf
    for _ in range(1000):
        params = SqueezedSourceParams(
            r=float(rng.uniform(0.05, 1.2)),
            d=float(rng.uniform(0.0, 3.0)),
            tau=float(rng.uniform(0.3, 0.99)),
            k=int(rng.integers(0, 3)),
        )
        lam1, lam2 = symplectic_eigenvalues(*source_stage(*astuple(params))[1:7])
        lam_floor = min(lam_floor, lam1, lam2)
    physical = lam_floor >= 1.0 - 1e-9

    # key rate monotone decreasing in distance on every secure tail
    monotone = True
    for fam in DEFAULT_FAMILIES:
        src = resolve_family(fam, SOURCE)
        rates = [rate(src, ASYM, l_ac=float(l)) for l in np.linspace(1.0, 40.0, 14)]
        secure = [k for k in rates if k > 0.0]
        if any(a <= b for a, b in zip(secure, secure[1:])):
            monotone = False

    # total added noise decomposes exactly into line + relay terms
    chi_ok = True
    for _ in range(200):
        ch = replace(
            ASYM,
            l_ac=float(rng.uniform(0.0, 60.0)),
            eps_a=float(rng.uniform(0.0, 0.05)),
            eps_b=float(rng.uniform(0.0, 0.05)),
            eta=float(rng.uniform(0.8, 1.0)),
            v_el=float(rng.uniform(0.0, 0.1)),
        )
        nb = secret_key_rate(resolve_family("tmsv", SOURCE), ch).noise
        if not math.isclose(
            nb.chi_tot, nb.chi_line + 2.0 * nb.chi_homo / nb.t_a, rel_tol=1e-12
        ):
            chi_ok = False

    # polynomial recurrence agrees with the package's binomial sum (a = 1)
    lag_ok = True
    for _ in range(150):
        n = int(rng.integers(0, 11))
        alpha = int(rng.integers(0, 3))
        x = float(rng.uniform(-40.0, 10.0))
        direct = scaled_laguerre(n, 1.0, x, alpha=alpha)
        if not math.isclose(laguerre(n, alpha, x), direct, rel_tol=1e-9, abs_tol=1e-12):
            lag_ok = False

    # deterministic sweeps: a second run must not change a single byte
    csv = [render_csv(_evaluate(SOURCE, ASYM, "L_AC", 0.0, 50.0, 11)) for _ in range(2)]
    sweeps_ok = csv[0] == csv[1]

    ok = physical and monotone and chi_ok and lag_ok and sweeps_ok
    report(
        "7",
        ok,
        f"1000-state physicality (min eigenvalue {lam_floor:.12f}), secure-tail "
        f"monotonicity, noise decomposition, polynomial dual route, and "
        f"sweep determinism all hold",
        capsys,
    )
    assert physical, lam_floor
    assert monotone
    assert chi_ok
    assert lag_ok
    assert sweeps_ok
