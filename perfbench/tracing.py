"""Outside-in tracer: wraps layer entry points from the benchmark's side.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces the functions named in :data:`TARGETS` (class attributes and
module-level functions of ``repro``) with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back, so an untraced op runs
exactly the code a user runs.

Two kinds of wrapper share one call stack:

* aggregate wrappers (per-reference functions) add only to a
  ``[calls, self_s]`` pair per name;
* span wrappers (the op, ``CMPSimulator.run``, ``SweepRunner.run``,
  broker and store boundaries) also keep a full span: id, name, start,
  end, parent span, op id, pid and self time.

Self time is a call's duration minus the durations of the wrapped calls
made inside it, so the self times of every frame inside an op add up to
the op's duration.  On ``sweep`` the coordinator's wait for its workers
is its own frame (``runner.wait``), so worker time is not counted again
as ``runner.sweep_run`` self time.  Spans stay in memory until :meth:`Tracer.write`.
Forked sweep workers reset their inherited copy, trace their own calls
and dump them to a file that :meth:`Tracer.merge_worker_dumps` folds
back in.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager

#: (metric name, module, attribute path, wrapper kind).  Several targets
#: may share a name; their calls and self time add up.
TARGETS = (
    ("workloads.compile_trace", "repro.workloads.generator",
     "WorkloadGenerator.compile_trace", "records"),
    ("memory.access", "repro.memory.hierarchy", "MemorySystem.access", "agg"),
    ("memory.prefetch_fill", "repro.memory.hierarchy",
     "MemorySystem.prefetch_fill", "agg"),
    ("memory.pv_access", "repro.memory.hierarchy", "MemorySystem.pv_access", "agg"),
    ("memory.warm_miss", "repro.memory.hierarchy", "MemorySystem.warm_miss", "agg"),
    ("memory.cache.access_hit", "repro.memory.cache", "Cache.access_hit", "agg"),
    ("memory.cache.fill", "repro.memory.cache", "Cache.fill", "agg"),
    ("contention.dram_read", "repro.memory.main_memory", "MainMemory.read", "agg"),
    ("contention.mshr_allocate", "repro.memory.mshr", "MSHRFile.allocate", "agg"),
    ("prefetch.sms_on_access", "repro.prefetch.sms", "SMSPrefetcher.on_access", "agg"),
    ("prefetch.agt_record_access", "repro.prefetch.agt",
     "ActiveGenerationTable.record_access", "agg"),
    ("prefetch.pht_lookup", "repro.prefetch.pht", "DedicatedPHT.lookup", "agg"),
    ("prefetch.pht_lookup", "repro.prefetch.pht", "InfinitePHT.lookup", "agg"),
    ("prefetch.pht_lookup", "repro.core.virtualized",
     "VirtualizedPredictorTable.lookup", "agg"),
    ("core.pvproxy_lookup", "repro.core.pvproxy", "PVProxy.lookup", "agg"),
    ("core.pvproxy_store", "repro.core.pvproxy", "PVProxy.store", "agg"),
    ("core.pvtable_read_set", "repro.core.pvtable", "PVTable.read_set", "agg"),
    ("cpu.commit", "repro.cpu.core", "CoreTimingModel.commit", "agg"),
    ("sim.run", "repro.sim.simulator", "CMPSimulator.run", "span"),
    ("sim.run_batch", "repro.sim.batchkernel", "run_batch", "batch"),
    ("runner.sweep_run", "repro.runner.sweep", "SweepRunner.run", "span"),
    # The coordinator's blocking wait for worker messages (the result queue
    # of ProcessBackend.drain), kept out of runner.sweep_run's self time.
    ("runner.wait", "multiprocessing.queues", "Queue.get", "agg"),
    ("runner.broker_lease", "repro.runner.broker", "JobBroker.lease", "span"),
    ("runner.broker_complete", "repro.runner.broker", "JobBroker.complete", "span"),
    ("runner.store_get", "repro.runner.store", "ResultStore.get_by_key", "span"),
    ("runner.store_put", "repro.runner.store", "ResultStore.put", "span"),
    ("runner.result_to_dict", "repro.runner.serialize", "result_to_dict", "agg"),
    ("runner.result_from_dict", "repro.runner.serialize", "result_from_dict", "agg"),
    ("runner.artifact_get_trace", "repro.runner.artifacts",
     "ArtifactStore.get_trace", "agg"),
    ("study.expand", "repro.study.matrix", "StudyMatrix.expand", "agg"),
    ("study.point_record", "repro.study.executor", "point_record", "agg"),
    ("runner.worker", "repro.runner.worker", "_worker_main", "worker"),
)

#: Names reported as per-layer ``<name>.calls`` / ``<name>.self_s``.
TIMED_NAMES = tuple(dict.fromkeys(
    name for name, _, _, kind in TARGETS if kind != "worker"
))


class Tracer:
    """Call-stack accounting plus in-memory spans for one process."""

    def __init__(self, dump_dir=None) -> None:
        self.clock = time.perf_counter
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.op_id = None
        #: One ``[child_seconds]`` cell per active wrapped call.
        self.stack = []
        #: Span ids of the active span calls (parents of new spans).
        self.span_stack = []
        self.stats = {}  # name -> [calls, self_s]
        #: name -> [records produced] / [batch calls that fell back].
        self.extra = {"workloads.compile_trace.records": [0],
                      "sim.run_batch.fallbacks": [0]}
        #: (id, name, start, end, parent, op, pid, self_s)
        self.spans = []
        self._ids = itertools.count(1)
        self._patches = []
        self._worker_counters = None

    # ------------------------------------------------------------ wrappers

    def _rec(self, name):
        return self.stats.setdefault(name, [0, 0.0])

    def _aggregate(self, fn, name):
        rec = self._rec(name)
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _observing(self, fn, name, observe):
        """Aggregate wrapper that also hands the return value to ``observe``."""
        inner = self._aggregate(fn, name)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            observe(result)
            return result

        return wrapper

    def _span(self, fn, name):
        rec = self._rec(name)
        stack = self.stack
        span_stack = self.span_stack
        spans = self.spans
        clock = self.clock
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            cell = [0.0]
            parent = span_stack[-1] if span_stack else None
            sid = next(ids)
            stack.append(cell)
            span_stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                span_stack.pop()
                own = dt - cell[0]
                rec[0] += 1
                rec[1] += own
                if stack:
                    stack[-1][0] += dt
                spans.append((sid, name, t0, t1, parent, tracer.op_id,
                               tracer.pid, own))

        return wrapper

    def _worker(self, fn, name):
        """Sweep worker entry: trace in the child, dump on the way out."""
        span = self._span(fn, name)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.reset_for_child()
            try:
                return span(*args, **kwargs)
            finally:
                tracer.dump_worker()

        return wrapper

    def _make(self, fn, name, kind):
        if kind == "agg":
            return self._aggregate(fn, name)
        if kind == "span":
            return self._span(fn, name)
        if kind == "records":
            cell = self.extra["workloads.compile_trace.records"]

            def count(records):
                cell[0] += len(records)

            return self._observing(fn, name, count)
        if kind == "batch":
            cell = self.extra["sim.run_batch.fallbacks"]

            def count(engaged):
                if not engaged:
                    cell[0] += 1

            return self._observing(fn, name, count)
        if kind == "worker":
            return self._worker(fn, name)
        raise ValueError(f"unknown wrapper kind {kind!r}")

    # -------------------------------------------------------- install/undo

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; module functions in every importer too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, kind in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                owners = [owner]
            else:
                # Importers that bound the function by name call it through
                # their own module global: patch those bindings as well.
                original = getattr(module, attr)
                owners = [module] + [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "repro" and mod is not module
                    and getattr(mod, attr, None) is original
                ]
            wrapper = self._make(original, name, kind)
            for owner in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets=TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ ops

    def total_self(self) -> float:
        return sum(rec[1] for rec in self.stats.values())

    def run_op(self, op_id, fn):
        """Run ``fn`` as one traced op; returns ``(value, seconds, check)``.

        ``check`` is the op duration minus the self time every wrapped
        frame inside it (the op included) accumulated; it is zero up to
        float rounding when the stack accounting is sound.
        """
        self.op_id = op_id
        before = self.total_self()
        try:
            value = self._span(fn, "op")()
        finally:
            self.op_id = None
        start, end = self.spans[-1][2:4]
        duration = end - start
        return value, duration, duration - (self.total_self() - before)

    # ---------------------------------------------------------- sweep workers

    def reset_for_child(self) -> None:
        """Forget the parent's state inherited through fork (in place:
        the installed wrappers hold references to these containers)."""
        self.pid = os.getpid()
        del self.stack[:]
        del self.span_stack[:]
        del self.spans[:]
        for rec in self.stats.values():
            rec[0] = 0
            rec[1] = 0.0
        for cell in self.extra.values():
            cell[0] = 0
        self._worker_counters = cache_counters()

    def dump_worker(self) -> None:
        if self.dump_dir is None:
            return
        payload = {
            "pid": self.pid,
            "stats": self.stats,
            "extra": {k: v[0] for k, v in self.extra.items()},
            "spans": self.spans,
            "counters": counter_delta(self._worker_counters, cache_counters()),
        }
        path = os.path.join(self.dump_dir, f"worker-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)

    def merge_worker_dumps(self) -> dict:
        """Fold worker dumps into this tracer; returns their counter sum."""
        counters = {}
        if self.dump_dir is None or not os.path.isdir(self.dump_dir):
            return counters
        for entry in sorted(os.listdir(self.dump_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            path = os.path.join(self.dump_dir, entry)
            with open(path) as handle:
                payload = json.load(handle)
            os.unlink(path)
            for name, (calls, own) in payload["stats"].items():
                rec = self._rec(name)
                rec[0] += calls
                rec[1] += own
            for name, value in payload["extra"].items():
                self.extra[name][0] += value
            self.spans.extend(tuple(span) for span in payload["spans"])
            for key, value in payload["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return counters

    # --------------------------------------------------------------- output

    def write(self, path, header: dict) -> None:
        """Write every span (and the header) as one JSON document."""
        fields = ("id", "name", "start", "end", "parent", "op", "pid", "self_s")
        payload = dict(header)
        payload["span_fields"] = list(fields)
        payload["spans"] = [list(span) for span in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# ----------------------------------------------------------- cache counters


def cache_counters() -> dict:
    """Process-wide cache counters (trace cache, warm cache, artifacts)."""
    from repro.runner import artifacts
    from repro.sim.simulator import WARM_STATE_CACHE
    from repro.workloads.generator import TRACE_CACHE

    trace = TRACE_CACHE.stats()
    warm = WARM_STATE_CACHE.stats()
    counters = {
        "trace_cache.hits": trace["hits"],
        "trace_cache.misses": trace["misses"],
        "warm_cache.hits": warm["hits"],
        "warm_cache.misses": warm["misses"],
    }
    store = artifacts.active_store()
    for field in ("trace_hits", "trace_misses", "warm_hits", "warm_misses",
                  "quarantined"):
        counters[f"artifacts.{field}"] = getattr(store, field) if store else 0
    return counters


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}
