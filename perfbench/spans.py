"""Span recorder for the traced run.

The tracer replaces the public functions that ``nosignal.protocol`` (and
``nosignal.cli``, ``nosignal.lattice``) look up in their module namespace
with wrappers that record one span per call: name, start, end, parent span,
thread and scenario id.  Spans are kept in memory, one list per thread, so
the two arms that ``run_scenario`` runs in its thread pool are recorded
side by side.  A span opened on a thread with no open span of its own takes
the open ``run_scenario`` span as its parent.

A target that a later version no longer defines is skipped, and one that
the pipeline no longer calls records nothing: both report zero calls and
lower coverage instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

ROOT = "protocol.run_scenario"

# (module of nosignal, attribute, span name, kind).  A "factory" returns a
# measurement procedure: its call is the "<name>.build" span and each call of
# the procedure it returns is an "<name>.apply" span.
TARGETS = (
    ("protocol", "run_scenario", ROOT, "call"),
    ("cli", "run_scenario", ROOT, "call"),
    ("protocol", "prepare_scenario", "protocol.prepare_scenario", "call"),
    ("protocol", "check_spacelike", "lattice.check_spacelike", "call"),
    ("protocol", "propagator", "lattice.propagator", "call"),
    # The certificate reaches the propagator through the lattice namespace.
    ("lattice", "propagator", "lattice.propagator", "call"),
    ("protocol", "prepare_initial", "composite.prepare_initial", "call"),
    ("protocol", "kick_operator", "protocol.kick_operator", "call"),
    ("protocol", "lift_one_particle", "composite.lift_one_particle", "call"),
    ("protocol", "apply", "qcore.apply", "call"),
    ("protocol", "evolve_positions", "composite.evolve_positions", "call"),
    ("protocol", "joint_measurement", "protocol.joint_measurement", "factory"),
    ("protocol", "luders_measure", "qcore.luders_measure", "call"),
    ("protocol", "detector_measurement", "protocol.detector_measurement", "factory"),
    ("protocol", "antisymmetry_violation", "composite.antisymmetry_violation", "call"),
    ("protocol", "position_occupancy", "composite.position_occupancy", "call"),
    ("protocol", "qubit_one_probability", "protocol.qubit_one_probability", "call"),
    ("cli", "parse_config", "cli.parse_config", "call"),
    ("cli", "emit_report", "cli.emit_report", "call"),
)


def _count_drift(counts: Counter, args, result) -> None:
    # Nominal cost of u (x) u on the (n, n, 8) complex tensor, from array
    # sizes: two n x n by n x 8n complex products (8 flops per complex
    # multiply-add), reading u once and the state once, writing the state once.
    n = args[0].n_sites
    counts["composite.evolve_positions.flops_computed"] += 128 * n**3
    counts["composite.evolve_positions.bytes_computed"] += 16 * n**2 + 2 * 128 * n**2


def _count_luders(counts: Counter, args, result) -> None:
    projectors, ens = args[0], args[1]
    branches_in = getattr(ens, "branch_count", 1)
    counts["qcore.luders_measure.branches_in"] += branches_in
    counts["qcore.luders_measure.outcomes_tried"] += branches_in * len(projectors)
    counts["qcore.luders_measure.branches_kept"] += result.branch_count


COUNTERS = {
    "composite.evolve_positions": _count_drift,
    "qcore.luders_measure": _count_luders,
}


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.scenario = None  # set by the caller before each scenario
        self.counts = Counter()
        self.missing = set()  # targets this version of the package does not define
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one span list per thread that recorded
        self._root = None  # id of the open run_scenario span
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, kind in self.targets:
            try:
                module = importlib.import_module(f"nosignal.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._factory(name, fn) if kind == "factory" else self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def spans(self) -> list:
        """Closed spans as ``[id, name, start, end, parent, thread, scenario]``."""
        with self._lock:
            return [s for spans in self._threads for s in spans if s[3] is not None]

    def _open(self, name: str) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.spans = []
            with self._lock:
                self._threads.append(local.spans)
        parent = stack[-1][0] if stack else self._root
        span = [next(self._ids), name, time.perf_counter(), None, parent, threading.get_ident(), self.scenario]
        stack.append(span)
        local.spans.append(span)
        if name == ROOT:
            self._root = span[0]
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._local.stack.pop()
        if span[0] == self._root:
            self._root = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                with self._lock:
                    try:
                        counter(self.counts, args, result)
                    except (AttributeError, IndexError, TypeError):
                        self.counts["trace.counter_errors"] += 1
            return result

        return wrapper

    def _factory(self, name: str, fn):
        build = self._wrap(f"{name}.build", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._wrap(f"{name}.apply", build(*args, **kwargs))

        return wrapper


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def summarize(spans: list) -> dict:
    """Per-name calls, inclusive and self seconds, and run_scenario coverage.

    Self time is a span's duration minus its children on the same thread;
    children on other threads (the arms) overlap their parent instead.
    Coverage is the share of ``run_scenario`` wall time that the union of
    its child spans, over all threads, covers; busy time sums that union
    per thread, so overlapping arms push ``busy / wall`` above 1.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    tops = defaultdict(list)
    for sid, name, t0, t1, parent, thread, _ in spans:
        p = by_id.get(parent)
        if p is None:
            continue
        if p[5] == thread:
            child_time[parent] += t1 - t0
        if p[1] == ROOT:
            tops[parent].append((t0, t1, thread))
    names = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, *_ in spans:
        entry = names[name]
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += t1 - t0 - child_time[sid]
    wall = covered = busy = 0.0
    threads_per_root = [0]
    for sid, name, t0, t1, *_ in spans:
        if name != ROOT:
            continue
        children = [(max(a, t0), min(b, t1), th) for a, b, th in tops[sid]]
        wall += t1 - t0
        covered += _union_length((a, b) for a, b, _ in children)
        per_thread = defaultdict(list)
        for a, b, th in children:
            per_thread[th].append((a, b))
        busy += sum(_union_length(iv) for iv in per_thread.values())
        threads_per_root.append(len(per_thread))
    return {
        "names": dict(names),
        "root_wall_s": wall,
        "root_covered_s": covered,
        "root_busy_s": busy,
        "max_threads": max(threads_per_root),
    }
