"""Span recorder for the traced benchmark run.

The tracer measures each psqkd layer from outside: it replaces a fixed list
of public functions with timing wrappers in every psqkd module namespace that
holds them (``secret_key_rate`` is looked up in ``psqkd.sweep``,
``subtraction_probability`` in both ``psqkd.keyrate`` and ``psqkd.moments``),
and restores the originals afterwards. Only modules imported before tracing
starts are wrapped; the worker's untimed warm-up op imports them. Nothing
inside ``src/`` changes.

A span is ``(id, parent, name, start_ns, end_ns, thread, op, error)``, with
``error`` 1 when the call raised. Spans stay in per-thread integer buffers
while ops run and are written out once, when the run ends. Work submitted to
a ``ThreadPoolExecutor`` while tracing is on is parented to the span that
submitted it, so the key-rate spans that ``run_sweep`` fans out to its pool
threads hang under the ``run_sweep`` span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# defining module -> public functions whose calls become spans
TRACED = {
    "psqkd.cli": ("main", "render_csv"),
    "psqkd.config": ("load_run_config",),
    "psqkd.sweep": ("run_sweep", "max_secure_distance"),
    "psqkd.keyrate": (
        "secret_key_rate",
        "holevo_bound",
        "symplectic_eigenvalues",
        "conditional_cm_after_heterodyne",
    ),
    "psqkd.moments": ("pstmsc_covariance", "subtraction_probability"),
    "psqkd.phase_space": ("scaled_laguerre",),
    "psqkd.channel": ("noise_breakdown",),
    "psqkd.fock_oracle": (
        "compare_random_grid",
        "build_tmsc_fock",
        "apply_bs_and_project",
        "fock_moment",
    ),
}

FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "thread", "op", "error")
_STRIDE = len(FIELDS)


def _sweep_cells(rows) -> dict[str, int]:
    cells = [cell for row in rows for cell in row.results.values()]
    return {
        "sweep.cells": len(cells),
        "sweep.failed_cells": sum(cell.result is None for cell in cells),
    }


# span name -> function of the call's return value giving outcome counts
_RESULT_COUNTS = {"sweep.run_sweep": _sweep_cells}


class _ThreadState(threading.local):
    """Per-thread span stack, inherited parent and span buffer."""

    def __init__(self, tracer: "Tracer") -> None:
        self.stack: list[int] = []
        self.inherited = 0
        self.buf = array("q")
        self.thread = next(tracer._thread_ids)
        tracer._buffers.append(self.buf)


class Tracer:
    """Collects spans and outcome counts for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count()
        self._buffers: list[array] = []
        self._state = _ThreadState(self)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open_span(self) -> int:
        state = self._state
        return state.stack[-1] if state.stack else state.inherited

    def _wrap(self, fn, name: str):
        tracer, idx = self, self._name_index(name)
        count = _RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state
            stack = state.stack
            parent = stack[-1] if stack else state.inherited
            sid = next(tracer._ids)
            stack.append(sid)
            error = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = 0
            finally:
                end = clock()
                stack.pop()
                state.buf.extend((sid, parent, idx, start, end, state.thread, tracer.op, error))
            if count is not None:
                for key, n in count(result).items():
                    tracer.counts[key] += n
            return result

        return traced

    def _patches(self) -> list[tuple[object, str, object]]:
        """(namespace, attribute, wrapper) for every loaded lookup site."""
        originals = {}
        for modname, funcs in TRACED.items():
            module = sys.modules.get(modname)
            for func in funcs:
                fn = getattr(module, func, None) if module else None
                if fn is not None:
                    originals[id(fn)] = (fn, f"{modname.rsplit('.', 1)[1]}.{func}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        sites = [m for n, m in sys.modules.items() if n == "psqkd" or n.startswith("psqkd.")]
        patches = []
        for module in sites:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)][0] is value:
                    patches.append((module, attr, wrappers[id(value)]))
        return patches

    @contextmanager
    def installed(self, op: int = 0):
        """Trace calls made inside the block, attributing them to ``op``."""
        self.op = op
        patches = self._patches()
        saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in patches]
        submit = ThreadPoolExecutor.submit
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer._open_span()

            def run(*a, **kw):
                state = tracer._state
                outer, state.inherited = state.inherited, parent
                try:
                    return fn(*a, **kw)
                finally:
                    state.inherited = outer

            return submit(pool, run, *args, **kwargs)

        for ns, attr, wrapper in patches:
            setattr(ns, attr, wrapper)
        ThreadPoolExecutor.submit = traced_submit
        try:
            yield self
        finally:
            ThreadPoolExecutor.submit = submit
            for ns, attr, original in saved:
                setattr(ns, attr, original)

    def dump(self) -> dict:
        """All spans as one flat integer list, plus names and outcome counts."""
        rows = array("q")
        for buf in self._buffers:
            rows.extend(buf)
        return {
            "fields": list(FIELDS),
            "names": list(self.names),
            "spans": rows.tolist(),
            "counts": dict(self.counts),
        }


def spans_of(dump: dict) -> list[tuple]:
    """Rows of a dump as (id, parent, name, start_ns, end_ns, thread, op, error)."""
    rows, names = dump["spans"], dump["names"]
    return [
        (rows[i], rows[i + 1], names[rows[i + 2]], *rows[i + 3 : i + _STRIDE])
        for i in range(0, len(rows), _STRIDE)
    ]


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children may overlap in time (pool threads), so their intervals are
    clipped to the parent and merged before being subtracted.
    """
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, start, end, *_ in spans:
        if parent in bounds:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = end - start - covered
    return out
