"""Benchmark-side span recording around the program's public functions.

:func:`install` wraps each hook point in :data:`HOOKS` — a public
function or method of one of the program's modules — so every call
records a span ``(name, start, end, parent)`` on a per-thread stack.
Counters that a call returns or owns are harvested at the same
boundary.  Nothing inside the program changes: the wrappers replace
module and class attributes at process start, and
:meth:`Recorder.dump` writes everything out when the process ends.

A hook point that no longer exists (a module or function renamed or
folded into another) is recorded as *absent*; the layer then reports
no spans instead of failing the run.

Timestamps are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux), so
spans from the several processes of one run share a time base.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

# (span name, module, attribute path).  A ``{op}`` in the name is
# filled from the call's ``op`` argument.
HOOKS = [
    ("taxogram.mine", "repro.core.taxogram", "Taxogram.mine"),
    ("relabel", "repro.core.relabel", "relabel_database"),
    ("gspan", "repro.mining.gspan", "GSpanMiner.mine"),
    ("occurrence_index", "repro.core.occurrence_index", "build_occurrence_index"),
    ("specializer", "repro.core.specializer", "specialize_class"),
    ("store.save", "repro.incremental.store", "PatternStore.save"),
    ("store.open", "repro.incremental.store", "PatternStore.open"),
    ("store.load_index", "repro.incremental.store", "PatternStore.load_index"),
    ("incremental.apply", "repro.incremental.updater", "IncrementalTaxogram.apply"),
    ("wal.append", "repro.streaming.wal", "WriteAheadLog.append"),
    ("applier.batch", "repro.streaming.applier", "StreamApplier.apply_next_batch"),
    ("follower.sync", "repro.replication.follower", "Follower.sync_once"),
    ("router.query", "repro.replication.router", "QueryRouter.query"),
    ("reader.query.{op}", "repro.serving.reader", "StoreReader.query"),
]

# Counter names harvested from returned RunReports / owned registries.
_REPORT_HOOKS = {"taxogram.mine", "incremental.apply"}
_REGISTRY_HOOKS = {"follower.sync", "applier.batch", "router.query"}


class Recorder:
    """Spans and counters of one process, safe across threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: list[tuple[str, dict]] = []
        self.registries: dict[int, object] = {}
        self.absent: list[str] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, threading.get_ident()]
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def add_counters(self, hook: str, counters: dict) -> None:
        with self._lock:
            self.calls.append((hook, counters))

    def keep_registry(self, registry) -> None:
        if registry is not None:
            self.registries[id(registry)] = registry

    def snapshot(self) -> dict:
        registries = {}
        for registry in self.registries.values():
            try:
                counters = registry.as_dict().get("counters", {})
            except Exception:  # noqa: BLE001 - a foreign registry shape
                continue
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    registries[name] = registries.get(name, 0) + value
        now = time.perf_counter()
        spans = [s if s[2] is not None else [*s[:2], now, *s[3:]]
                 for s in self.spans]
        return {
            "pid": os.getpid(),
            "spans": spans,
            "calls": list(self.calls),
            "registry_counters": registries,
            "absent": list(self.absent),
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _report_counters(result) -> dict:
    report = getattr(result, "report", None)
    counters = getattr(report, "counters", None)
    return dict(counters) if isinstance(counters, dict) else {}


def _wrap(recorder: Recorder, name: str, fn):
    dynamic = "{op}" in name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span_name = name
        if dynamic:
            op = kwargs.get("op", args[1] if len(args) > 1 else "?")
            span_name = name.replace("{op}", str(op))
        if name == "gspan":
            report = kwargs.get("report", args[1] if len(args) > 1 else None)
            if report is not None:
                kwargs["report"] = _wrap(recorder, "gspan.report", report)
                args = args[:1]
        index = recorder.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if name in _REPORT_HOOKS:
            recorder.add_counters(name, _report_counters(result))
        if name in _REGISTRY_HOOKS and args:
            recorder.keep_registry(getattr(args[0], "metrics", None))
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def install(recorder: Recorder | None = None) -> Recorder:
    """Wrap every present hook point; returns the recorder."""
    recorder = recorder if recorder is not None else Recorder()
    originals: dict[int, object] = {}
    for name, module_name, attr in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            recorder.absent.append(name)
            continue
        owner = module
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        leaf = parts[-1]
        raw = None if owner is None else owner.__dict__.get(leaf)
        if raw is None:
            recorder.absent.append(name)
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(recorder, name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(recorder, name, raw.__func__))
        else:
            wrapped = _wrap(recorder, name, raw)
            if owner is module:
                originals[id(raw)] = wrapped
        setattr(owner, leaf, wrapped)
    # Rebind module-level functions that other modules imported by name.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            replacement = originals.get(id(value))
            if replacement is not None and value is not replacement:
                setattr(module, key, replacement)
    return recorder


# -- analysis (used by the benchmark process on dumped spans) -----------------


def self_times(spans: list[list], keep=None) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children
    cover (children of one span never overlap: one thread, one stack).
    ``keep`` limits the totals to those span indices."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _tid in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent, _tid) in enumerate(spans):
        if keep is None or index in keep:
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def call_totals(trace: dict, hook: str) -> dict[str, float]:
    """Counters harvested from every call of ``hook``, summed."""
    totals: dict[str, float] = {}
    for name, counters in trace.get("calls", []):
        if name == hook:
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
    return totals


def has_ancestor(spans: list[list], index: int, prefix: str) -> bool:
    """Whether span ``index`` runs inside a span named ``prefix*``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _p, _t in spans if n == name]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
