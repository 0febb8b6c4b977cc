"""Turn raw worker output into the benchmark's named metrics.

End-to-end metrics come from untraced runs only. Per-layer metrics come from
the spans of a traced run; a layer that the workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times, spans_of

END_TO_END = (
    ("setup_s", "s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); the names are referred to by later changes, keep them stable
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("fock_oracle.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("config.load_run_config_ms", "ms"),
    ("cli.render_csv_ms", "ms"),
    ("sweep.run_sweep_ms", "ms"),
    ("sweep.run_sweep_self_ms", "ms"),
    ("sweep.failed_cells", "count"),
    ("sweep.useful_cell_share", "ratio"),
    ("keyrate.secret_key_rate_calls", "count"),
    ("keyrate.secret_key_rate_us", "us"),
    ("keyrate.secret_key_rate_self_us", "us"),
    ("moments.subtraction_probability_per_eval", "count"),
    ("moments.subtraction_probability_us", "us"),
    ("moments.pstmsc_covariance_us", "us"),
    ("phase_space.scaled_laguerre_us", "us"),
    ("channel.noise_breakdown_us", "us"),
    ("keyrate.holevo_bound_us", "us"),
    ("keyrate.symplectic_eigenvalues_per_eval", "count"),
    ("keyrate.conditional_cm_after_heterodyne_per_eval", "count"),
    ("sweep.max_secure_distance_ms", "ms"),
    ("sweep.max_secure_distance_evals_per_call", "count"),
    ("moments.pstmsc_covariance_per_search", "count"),
    ("fock_oracle.build_tmsc_fock_per_point", "count"),
    ("fock_oracle.build_tmsc_fock_ms", "ms"),
    ("fock_oracle.apply_bs_and_project_per_point", "count"),
    ("fock_oracle.apply_bs_and_project_ms", "ms"),
    ("fock_oracle.fock_moment_per_point", "count"),
    ("fock_oracle.fock_moment_ms", "ms"),
    ("fock_oracle.cpu_per_wall", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.traced_ops", "count"),
)

_SCALE = {"ms": 1e6, "us": 1e3}


def percentile(values: list[float], pct: int) -> float:
    """pct-th percentile, inclusive method (the median for pct=50)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    dump: dict,
    traced_ops: int,
    untraced_ms: list[float],
    traced_ms: list[float],
    cpu_per_wall: float,
    import_ms: dict[str, float],
) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run.

    Times are means per call; ``_calls`` (made inside ``run_sweep``) and
    ``failed_cells`` are per op;
    ``_per_eval`` counts calls made inside ``secret_key_rate`` calls that
    returned, per such call (a failed evaluation stops early); ``_per_search`` and
    ``_per_call`` per ``max_secure_distance`` call, ``_per_point`` per
    ``compare_random_grid`` call (one point each here).
    """
    spans = spans_of(dump)
    selfs = self_times(spans)
    parent = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end, *_ in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += selfs[sid]

    def owners(target: str):
        """sid -> the nearest span named ``target`` at or above sid (0: none)."""
        memo = {0: 0}

        def owner(sid: int) -> int:
            chain = []
            while sid not in memo:
                if name_of.get(sid) == target:
                    memo[sid] = sid
                    break
                chain.append(sid)
                sid = parent.get(sid, 0)
            for s in chain:
                memo[s] = memo[sid]
            return memo[sid]

        return owner

    eval_of = owners("keyrate.secret_key_rate")
    search_of = owners("sweep.max_secure_distance")
    sweep_of = owners("sweep.run_sweep")
    good_evals = {s[0] for s in spans if s[2] == "keyrate.secret_key_rate" and not s[7]}
    in_good_eval: dict[str, int] = defaultdict(int)
    searched: dict[str, int] = defaultdict(int)
    swept: dict[str, int] = defaultdict(int)
    for sid, up, name, *_ in spans:
        if eval_of(up) in good_evals:
            in_good_eval[name] += 1
        if search_of(up):
            searched[name] += 1
        if sweep_of(up):
            swept[name] += 1

    counts = defaultdict(int, dump["counts"])
    def mean(name: str, unit: str, table=total) -> float:
        return _ratio(table[name], calls[name]) / _SCALE[unit]

    searches = calls["sweep.max_secure_distance"]
    points = calls["fock_oracle.compare_random_grid"]
    untraced_p50 = percentile(untraced_ms, 50)
    out = {
        "cli.import_ms": import_ms["psqkd.cli"],
        "fock_oracle.import_ms": import_ms["psqkd.fock_oracle"],
        "sweep.run_sweep_self_ms": mean("sweep.run_sweep", "ms", own),
        "sweep.failed_cells": _ratio(counts["sweep.failed_cells"], traced_ops),
        "sweep.useful_cell_share": _ratio(
            counts["sweep.cells"] - counts["sweep.failed_cells"], counts["sweep.cells"]
        ),
        "keyrate.secret_key_rate_calls": _ratio(swept["keyrate.secret_key_rate"], traced_ops),
        "keyrate.secret_key_rate_self_us": mean("keyrate.secret_key_rate", "us", own),
        "sweep.max_secure_distance_evals_per_call": _ratio(
            searched["keyrate.secret_key_rate"], searches
        ),
        "moments.pstmsc_covariance_per_search": _ratio(
            searched["moments.pstmsc_covariance"], searches
        ),
        "fock_oracle.cpu_per_wall": cpu_per_wall if points else 0.0,
        "trace.overhead_share": _ratio(percentile(traced_ms, 50), untraced_p50) - 1.0,
        "trace.traced_ops": float(traced_ops),
    }
    for metric, unit in PER_LAYER:
        if metric in out:
            continue
        stem, suffix = metric.rsplit("_", 1)
        if suffix in _SCALE:
            out[metric] = mean(stem, suffix)
        elif suffix == "eval":
            out[metric] = _ratio(in_good_eval[stem[: -len("_per")]], len(good_evals))
        elif suffix == "point":
            out[metric] = _ratio(calls[stem[: -len("_per")]], points)
        else:
            raise KeyError(f"no rule for per-layer metric {metric}")
    return {metric: out[metric] for metric, _ in PER_LAYER}
