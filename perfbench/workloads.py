"""The workloads: their ops, drawn from the seed, and each op's output check.

An op is one fixed unit of work of at least about 20 ms; only oracle_grid's
op cost spreads, continuously, with the Fock truncation. A run executes the
same multiset of ops for the same seed and ``--seconds``. A workload object
has

- ``ops``: the ordered op list of the run;
- ``warmup``: a fixed, seed-independent op, run once untimed at set-up;
- ``run(op)``: execute one op in this process and return its raw output;
- ``check(op, output)``: ``None`` when the output is correct, else a message.

Checks use the library directly and run outside the timed region.
"""

from __future__ import annotations

import math
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIGURES = tuple(range(2, 11))
MIN_OPS = 100  # so that at least 10 samples lie beyond p90
# mean op cost on a 2-core 2.1 GHz Xeon; a run covers max(MIN_OPS, seconds / cost)
# ops, so --seconds sets the length of a run but never cuts one short
NOMINAL_OP_S = {
    "figures": 0.22,
    "oracle_grid": 0.16,
}


def op_count(name: str, seconds: float) -> int:
    return max(MIN_OPS, math.ceil(seconds / NOMINAL_OP_S[name]))


def child_env() -> dict:
    """Environment for psqkd child processes: this checkout's sources first."""
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def golden(n: int) -> bytes:
    with open(os.path.join(ROOT, "tests", "golden", f"fig{n}.csv"), "rb") as handle:
        return handle.read()


def config_path(n: int) -> str:
    return os.path.join(ROOT, "configs", f"fig{n}.cfg")


def _sweep_failure(out_path: str, expected: bytes) -> str | None:
    try:
        with open(out_path, "rb") as handle:
            got = handle.read()
    except OSError as exc:
        return f"missing output {out_path}: {exc}"
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    return None if got == expected else f"{os.path.basename(out_path)} differs from golden"


# ----------------------------------------------------------------- figures

GEOMETRIES = ("symmetric", "asymmetric")
K_TARGETS = (0.0, 1e-4)
SWEEP_THREADS = 2  # run_sweep's pool, at no more threads than the 2 cores measured on


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    values = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(values)
    return values


def searches(base):
    """(source, channel, k_target) of the ten searches at one base point."""
    from psqkd.channel import ChannelParams
    from psqkd.phase_space import SqueezedSourceParams
    from psqkd.sweep import DEFAULT_FAMILIES, resolve_family

    v_a, d, tau, k_target = base
    source = SqueezedSourceParams(r=0.5 * math.acosh(v_a), d=d, tau=tau, k=0)
    for geometry in GEOMETRIES:
        channel = ChannelParams(
            geometry=geometry, l_ac=0.0, v_a=v_a, beta=0.96, eps_a=0.002, eps_b=0.002
        )
        for family in DEFAULT_FAMILIES:
            yield resolve_family(family, source), channel, k_target


def _distance_failure(base, distances) -> str | None:
    """None when every distance is a certified crossing of k_target."""
    from dataclasses import replace

    from psqkd.keyrate import secret_key_rate

    for (source, channel, k_target), km in zip(searches(base), distances):

        def rate(l_ac: float) -> float:
            return secret_key_rate(source, replace(channel, l_ac=l_ac)).key_rate

        where = f"{channel.geometry} k={source.k} d={source.d:.3f} at {base}"
        if km is None:
            if rate(0.0) > k_target:
                return f"unreachable reported but K(0) > k_target ({where})"
        elif not (rate(km) >= k_target and rate(km + 0.01) < k_target):
            return f"L*={km} is not a certified crossing ({where})"
    return None


class Figures:
    """Each op is one pass over every figure: nine sweeps and one distance base point.

    The sweeps run in-process through ``cli.main(["sweep", ...])`` over all
    nine fixtures, in an order drawn from the seed; together they are 1592
    key-rate evaluations. The op then runs ``max_secure_distance`` for all 5
    families on both geometries at one base point, where every evaluation of
    a search shares one source. The base points are a Latin hypercube over
    V_A in [5, 100], d in [0, 3] and tau in [0.5, 0.99], with k_target split
    evenly between 0 and 1e-4, so every seed gets the same spread of search
    lengths.
    """

    def __init__(self, seed: int, seconds: float, work: str) -> None:
        n = op_count("figures", seconds)
        rng = random.Random(seed)
        orders = []
        for _ in range(n):
            order = list(FIGURES)
            rng.shuffle(order)
            orders.append(tuple(order))
        v_a = _stratified(rng, n, 5.0, 100.0)
        d = _stratified(rng, n, 0.0, 3.0)
        tau = _stratified(rng, n, 0.5, 0.99)
        targets = [K_TARGETS[i % 2] for i in range(n)]
        rng.shuffle(targets)
        self.ops = list(zip(orders, zip(v_a, d, tau, targets)))
        self.warmup = (FIGURES, (50.0, 2.0, 0.9, 1e-4))
        self.work = work
        self.expected: dict[int, bytes] = {}

    def setup(self) -> None:
        self.expected = {n: golden(n) for n in FIGURES}

    def _out(self, n: int) -> str:
        return os.path.join(self.work, f"fig{n}.csv")

    def run(self, op):
        import psqkd.cli
        import psqkd.sweep
        from psqkd.errors import TargetUnreachableError

        order, base = op
        codes = [
            psqkd.cli.main([
                "sweep", "--config", config_path(n), "--out", self._out(n),
                "--threads", str(SWEEP_THREADS),
            ])
            for n in order
        ]
        distances = []
        for source, channel, k_target in searches(base):
            try:
                distances.append(psqkd.sweep.max_secure_distance(source, channel, k_target))
            except TargetUnreachableError:
                distances.append(None)
        return codes, distances

    def check(self, op, out) -> str | None:
        (order, base), (codes, distances) = op, out
        failures = [
            f"fig{n}: exit {code}" if code != 0 else _sweep_failure(self._out(n), self.expected[n])
            for n, code in zip(order, codes)
        ]
        failures.append(_distance_failure(base, distances))
        return "; ".join(f for f in failures if f) or None


# ------------------------------------------------------------- oracle_grid


def _oracle_truncation(seed: int) -> int:
    """n_max that compare_random_grid(points=1, seed) will use.

    Repeats the draws compare_random_grid makes for its first point.
    """
    import numpy as np

    from psqkd.fock_oracle import suggested_truncation

    rng = np.random.default_rng(seed)
    r = rng.uniform(0.05, 1.0)
    d = rng.uniform(0.0, 2.0)
    return suggested_truncation(r, d)


class OracleGrid:
    """Each op is compare_random_grid(points=1, seed=s_i).

    Op cost grows with the truncation n_max. The seeds are a stratified
    sample: 20 candidates per op are sorted by n_max and one is drawn from
    each block of 20, so every run sees the same n_max profile.
    """

    POOL = 20

    def __init__(self, seed: int, seconds: float, work: str) -> None:
        self.n = op_count("oracle_grid", seconds)
        self.seed = seed
        self.ops: list[int] = []
        self.warmup = 20240817

    def setup(self) -> None:
        rng = random.Random(self.seed)
        candidates = [rng.getrandbits(32) for _ in range(self.n * self.POOL)]
        candidates.sort(key=_oracle_truncation)
        self.ops = [
            rng.choice(candidates[i * self.POOL : (i + 1) * self.POOL]) for i in range(self.n)
        ]
        rng.shuffle(self.ops)

    def run(self, op: int):
        import psqkd.fock_oracle

        return psqkd.fock_oracle.compare_random_grid(points=1, seed=op)

    def check(self, op: int, report) -> str | None:
        return None if report.passed else f"oracle seed {op} failed: {report}"


WORKLOADS = {
    "figures": Figures,
    "oracle_grid": OracleGrid,
}
