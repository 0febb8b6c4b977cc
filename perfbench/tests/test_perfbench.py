"""Tests of the benchmark itself: span arithmetic, exact counts, output checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import os
import shutil
import subprocess
import sys

import psqkd.cli  # the tracer wraps modules that are already imported
from metrics import layer_metrics
from tracer import Tracer, self_times, spans_of
from workloads import Figures, OracleGrid

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_subtracts_union_of_children_including_pool_threads():
    # (id, parent, name, start, end, thread, op, error)
    spans = [
        (1, 0, "sweep.run_sweep", 0, 100, 0, 0, 0),
        (2, 1, "keyrate.secret_key_rate", 10, 40, 0, 0, 0),
        # pool-thread child overlapping its sibling: the overlap counts once
        (3, 1, "keyrate.secret_key_rate", 30, 70, 1, 0, 0),
        (4, 3, "moments.pstmsc_covariance", 40, 50, 1, 0, 0),
        # a child that outlives its parent is clipped to the parent
        (5, 1, "keyrate.secret_key_rate", 90, 120, 2, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (60 + 10)
    assert selfs[2] == 30
    assert selfs[3] == 40 - 10
    assert selfs[4] == 10
    assert selfs[5] == 30


def _traced_op(workload, op):
    tracer = Tracer()
    with tracer.installed(0):
        out = workload.run(op)
    return tracer.dump(), out


def test_one_figures_op_has_the_exact_seed_counts(tmp_path):
    workload = Figures(seed=1, seconds=0, work=str(tmp_path))
    workload.setup()
    dump, out = _traced_op(workload, workload.warmup)
    assert workload.check(workload.warmup, out) is None

    spans = spans_of(dump)
    names = {s[0]: s[2] for s in spans}
    rates = [s for s in spans if s[2] == "keyrate.secret_key_rate"]
    swept = [s for s in rates if names.get(s[1]) == "sweep.run_sweep"]
    searched = [s for s in rates if names.get(s[1]) == "sweep.max_secure_distance"]
    # every evaluation hangs under its run_sweep or search span, and the
    # sweep evaluations ran in pool threads
    assert len(swept) + len(searched) == len(rates)
    assert len({s[5] for s in swept}) > 1

    metrics = layer_metrics(dump, 1, [1.0], [1.0], 1.0, {"psqkd.cli": 1.0, "psqkd.fock_oracle": 1.0})
    assert metrics["keyrate.secret_key_rate_calls"] == 1592
    assert metrics["sweep.failed_cells"] == 4
    assert metrics["moments.subtraction_probability_per_eval"] == 2.0
    assert metrics["keyrate.symplectic_eigenvalues_per_eval"] == 2.0
    assert metrics["keyrate.conditional_cm_after_heterodyne_per_eval"] == 3.0
    assert metrics["sweep.max_secure_distance_evals_per_call"] == len(searched) / 10


def test_tracer_restores_the_original_functions():
    before = psqkd.sweep.secret_key_rate
    with Tracer().installed():
        assert psqkd.sweep.secret_key_rate is not before
    assert psqkd.sweep.secret_key_rate is before is psqkd.keyrate.secret_key_rate


def test_a_mutated_golden_byte_fails_the_op(tmp_path):
    workload = Figures(seed=1, seconds=0, work=str(tmp_path))
    workload.setup()
    golden = bytearray(workload.expected[7])
    golden[len(golden) // 2] ^= 1
    workload.expected[7] = bytes(golden)
    op = workload.ops[0]
    failure = workload.check(op, workload.run(op))
    assert failure is not None and "fig7" in failure


def test_distance_check_rejects_an_uncertified_distance(tmp_path):
    workload = Figures(seed=3, seconds=0, work=str(tmp_path))
    workload.setup()
    op = workload.ops[0]
    codes, distances = workload.run(op)
    assert workload.check(op, (codes, distances)) is None
    workload.run(op)  # the check removed the op's CSVs; write them again
    moved = [d + 1.0 if d is not None else None for d in distances]
    assert "not a certified crossing" in workload.check(op, (codes, moved))


def test_ops_depend_only_on_the_seed():
    a, b = OracleGrid(5, 0, None), OracleGrid(5, 0, None)
    a.setup()
    b.setup()
    assert a.ops == b.ops and len(a.ops) == 100
    assert Figures(5, 0, None).ops == Figures(5, 0, None).ops
    assert Figures(5, 0, None).ops != Figures(6, 0, None).ops


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
