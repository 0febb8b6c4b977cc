"""One benchmark run in a fresh process: set up, warm up, then time the ops.

Started by run.py through ``sys.executable``; writes its raw results as JSON
to ``--out``. The time from spawning this process to the start of the first
timed op is the run's set-up time, so imports, ``.pyc`` compilation, input
generation and the untimed warm-up op all land there.

Untraced (``--trace 0``): every op of the workload runs once, timed.
Traced (``--trace 1``): the first ``TRACE_OPS`` ops each run twice, once
plain and once under the tracer, alternating which goes first, so the
tracing overhead is measured within the run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

from tracer import Tracer
from workloads import ROOT, WORKLOADS, child_env

TRACE_OPS = {"figures": 12, "oracle_grid": 24}
IMPORT_REPEATS = 3


def _blas() -> list[dict]:
    """OpenBLAS builds mapped into this process and their thread counts."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": path}
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            threads = getattr(lib, symbol.format("get_num_threads"), None)
            config = getattr(lib, symbol.format("get_config"), None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                info.update(threads=threads(), config=config().decode())
                break
        out.append(info)
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """Where the numbers came from, recorded next to each result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def import_times(env: dict) -> dict[str, float]:
    """Median cumulative import time (ms) of psqkd.cli and psqkd.fock_oracle."""
    samples: dict[str, list[float]] = {"psqkd.cli": [], "psqkd.fock_oracle": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import psqkd.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                seen[parts[2].strip()] = int(parts[1]) / 1000.0
        for name, values in samples.items():
            values.append(seen.get(name, 0.0))
    return {name: sorted(v)[len(v) // 2] for name, v in samples.items()}


def _cpu_ns() -> int:
    """CPU time so far of every thread of this process and of its reaped children.

    The kernel leaves time stolen by the hypervisor out of it, unlike wall time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def _timed(workload, op):
    """(wall_ns, cpu_ns, output or exception) of one op."""
    wall0, cpu0 = time.perf_counter_ns(), _cpu_ns()
    try:
        out = workload.run(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out = exc
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter_ns() - wall0, _cpu_ns() - cpu0, out


def _failure(workload, op, out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return workload.check(op, out)
    except Exception as exc:  # a check that cannot run fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import psqkd

    if not os.path.abspath(psqkd.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"psqkd imported from {psqkd.__file__}, not from this checkout")

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.work)
    workload.setup()
    _, _, warm = _timed(workload, workload.warmup)
    warm_failure = _failure(workload, workload.warmup, warm)
    if warm_failure:
        raise SystemExit(f"warm-up op failed: {warm_failure}")
    result: dict = {"first_op_ns": time.monotonic_ns(), "setup_cpu_s": _cpu_ns() / 1e9}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0

    tracer = Tracer() if args.trace else None
    ops = workload.ops[: TRACE_OPS[args.workload]] if tracer else workload.ops
    records = []
    for i, op in enumerate(ops):
        modes = [False]
        if tracer:
            modes = [False, True] if i % 2 == 0 else [True, False]
        for traced in modes:
            if traced:
                with tracer.installed(i):
                    wall, cpu, out = _timed(workload, op)
            else:
                wall, cpu, out = _timed(workload, op)
            failure = _failure(workload, op, out)
            if failure:
                print(f"op {i} failed: {failure}", file=sys.stderr)
            records.append({"wall_ns": wall, "cpu_ns": cpu, "traced": traced, "ok": not failure})

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ops"] = records
    result["environment"] = environment()
    if tracer:
        result["traced_ops"] = len(ops)
        result["spans"] = tracer.dump()
        result["import_ms"] = import_times(child_env())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
