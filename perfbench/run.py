"""psqkd benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a psqkd checkout. The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones. See perfbench/NOTES.md for the workloads and metrics.

One client, closed loop: each run starts its worker process through
``sys.executable`` and waits for it; no two workers ever run at once. An
untraced run sets up ``SETUPS`` times (``SETUPS - 1`` set-up-only workers,
then the worker that times the ops) and reports the median set-up time.

Set-up and op times are CPU time of the worker, all its threads included.
On a shared virtual machine the kernel leaves time stolen by the hypervisor
out of CPU time, whereas wall time takes it in; the wall-clock figures are
recorded in the environment line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from metrics import PER_LAYER, END_TO_END, layer_metrics, percentile
from workloads import ROOT, WORKLOADS, child_env

SETUPS = 5
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKER_TIMEOUT_S = 150
REQUIRED = ("src/psqkd/__init__.py", "configs/fig2.cfg", "tests/golden/fig2.csv")


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="utf-8") as handle:
        return [float(x) for x in handle.read().split()[:3]]


def _cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks: user, nice, system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat", encoding="utf-8") as handle:
        return [int(x) for x in handle.readline().split()[1:9]]


def _spawn(args, work: str, setup_only: bool) -> tuple[dict, float, float]:
    """Run one worker to completion; return its results and set-up wall and CPU seconds."""
    out = os.path.join(work, f"worker-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    return result, (result["first_op_ns"] - spawned) / 1e9, result["setup_cpu_s"]


def measure(args, work: str) -> tuple[dict, dict]:
    """(result line, environment) of one run."""
    load_start, ticks_start = _loadavg(), _cpu_ticks()
    setups, setups_cpu = [], []
    if not args.trace:
        for _ in range(SETUPS - 1):
            _, wall, cpu = _spawn(args, work, setup_only=True)
            setups.append(wall)
            setups_cpu.append(cpu)
    raw, wall, cpu = _spawn(args, work, setup_only=False)
    setups.append(wall)
    setups_cpu.append(cpu)
    ticks = [b - a for a, b in zip(ticks_start, _cpu_ticks())]
    env = dict(
        raw["environment"],
        loadavg_start=load_start,
        loadavg_end=_loadavg(),
        busy_share=1.0 - (ticks[3] + ticks[4]) / max(sum(ticks), 1),
        steal_share=ticks[7] / max(sum(ticks), 1),
    )

    ops = raw["ops"]
    failed = sum(not op["ok"] for op in ops)
    plain = [op["wall_ns"] / 1e6 for op in ops if not op["traced"]]
    if args.trace:
        traced = [op["wall_ns"] / 1e6 for op in ops if op["traced"]]
        cpu = sum(op["cpu_ns"] for op in ops if not op["traced"])
        wall = sum(op["wall_ns"] for op in ops if not op["traced"])
        values = layer_metrics(
            raw["spans"], raw["traced_ops"], plain, traced, cpu / wall, raw["import_ms"]
        )
        units = dict(PER_LAYER)
    else:
        cpu_ms = [op["cpu_ns"] / 1e6 for op in ops]
        values = {
            "setup_s": statistics.median(setups_cpu),
            "op_cpu_p50_ms": percentile(cpu_ms, 50),
            "op_cpu_p90_ms": percentile(cpu_ms, 90),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        units = dict(END_TO_END)
        env.update(
            setup_cpu_samples_s=setups_cpu,
            setup_wall_samples_s=setups,
            op_wall_p50_ms=percentile(plain, 50),
            op_wall_p90_ms=percentile(plain, 90),
        )
    env["ops_timed"] = len(plain)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a psqkd checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result, env = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
