"""The three benchmark workloads: ``detail``, ``sampled`` and ``sweep``.

Each workload is a closed loop driven from one process: the next op
starts when the previous one has returned.  A workload object offers

* ``setup()`` — everything before the first timed op (trace
  compilation, the warm checkpoint, artifact-store population); the
  harness may call it several times, and each call starts from scratch;
* ``cycle()`` — one balanced round of op descriptors;
* ``run(item)`` — one timed op, returning an :class:`Outcome`;
* ``finish(outcome)`` — untimed clean-up after an op;
* ``post_check(seen)`` — untimed checks after the timed loop;
* ``shape()`` — what the workload runs, hashed to key pins and counts.

The simulator seed is the benchmark seed, so ``--seed`` makes the inputs.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The seed whose result digests and reference IPCs are pinned.
DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What one op produced."""

    refs: int  # simulated references, all cores, warm-up included
    specs: int  # specs resolved by simulation
    results: Dict[str, object] = field(default_factory=dict)  # label -> SimResult
    payloads: Dict[str, dict] = field(default_factory=dict)  # label -> result dict
    problems: List[str] = field(default_factory=list)
    #: Host seconds of the simulating part (``sweep``: its cold pass);
    #: None means the whole op.
    sim_s: Optional[float] = None
    rerun_s: float = 0.0
    rerun_specs: int = 0
    broker: Dict[str, int] = field(default_factory=dict)
    sources: Dict[str, int] = field(default_factory=dict)
    store_dir: Optional[str] = None


def sim_seed(seed: int) -> int:
    """The generator seeds numpy's SeedSequence, which wants >= 0."""
    return seed % (2 ** 32)


def _config(name: str):
    from repro.sim.config import SystemConfig
    from repro.study.presets import resolve_config

    if name == "pv8-contended-1ch":
        return (resolve_config("pv8"),
                SystemConfig.baseline().with_contention(dram_channels=1))
    return resolve_config(name), SystemConfig.baseline()


def _compile(profile, seed: int, n: int, cores: int) -> None:
    from repro.sim.config import SystemConfig
    from repro.workloads.generator import TRACE_CACHE

    region = SystemConfig.baseline().sms.region
    for core in range(cores):
        TRACE_CACHE.get(profile, core, seed, region, n)


def _reset_process_caches() -> None:
    from repro.sim import experiment
    from repro.sim.simulator import WARM_STATE_CACHE
    from repro.workloads.generator import TRACE_CACHE

    experiment.clear_cache()
    TRACE_CACHE.clear()
    WARM_STATE_CACHE.clear()


class _Simulating:
    """Shared shape of ``detail`` and ``sampled``: one CMPSimulator.run
    per op, cycling over (workload, config) pairs."""

    WORKLOADS: tuple = ()
    CONFIGS: tuple = ()
    REFS = 0
    WARMUP = 0
    LAYOUT = None  # SMARTS knobs, if sampled

    def __init__(self, seed: int, work_dir: str) -> None:
        from repro.runner import artifacts
        from repro.workloads.registry import get_workload

        artifacts.set_active(None)
        self.seed = sim_seed(seed)
        self.items = []
        for workload in self.WORKLOADS:
            for config in self.CONFIGS:
                prefetcher, system = _config(config)
                self.items.append((
                    f"{workload}/{config}", get_workload(workload),
                    prefetcher, self._system(system),
                ))
        self.n_cores = self.items[0][3].hierarchy.n_cores

    def _system(self, system):
        from repro.sim.sampling import SamplingConfig

        if self.LAYOUT is None:
            return system
        return system.with_sampling(SamplingConfig.smarts(**self.LAYOUT))

    def shape(self):
        return [self.REFS, self.WARMUP, self.LAYOUT,
                [item[0] for item in self.items], self.seed]

    def cycle(self):
        return list(self.items)

    def run(self, item) -> Outcome:
        from repro.sim.simulator import CMPSimulator

        label, profile, prefetcher, system = item
        result = CMPSimulator(profile, prefetcher, system=system,
                              seed=self.seed).run(self.REFS,
                                                  warmup_refs=self.WARMUP)
        return Outcome(refs=(self.REFS + self.WARMUP) * self.n_cores,
                       specs=1, results={label: result})

    def finish(self, outcome: Outcome) -> None:
        pass

    def post_check(self, seen) -> List[str]:
        return []

    def _compile_traces(self) -> None:
        _reset_process_caches()
        for _, profile, _, _ in self.items[::len(self.CONFIGS)]:
            _compile(profile, self.seed, self.REFS + self.WARMUP, self.n_cores)


class Detail(_Simulating):
    """Full-detail runs: the per-reference detailed path does the work.

    Oracle (800 signatures, ~26% of L2 requests PV) against Qry1 (140
    signatures, ~16% PV) separates a PV-path gain from a hierarchy gain;
    ``pv8-contended-1ch`` is the only op where the contention model runs.
    Ops start after their own detailed warm-up (statistics reset there).
    """

    name = "detail"
    WORKLOADS = ("Oracle", "Qry1")
    CONFIGS = ("none", "sms-1k", "pv8", "pv8-contended-1ch")
    # Short ops: a cycle of all eight kinds takes about a second, so each
    # kind is timed often enough to catch the host's fast moments.
    REFS = 2000
    WARMUP = 1000

    def setup(self) -> None:
        self._compile_traces()


class Sampled(_Simulating):
    """SMARTS-sampled runs in the ``pv8-sampled-vec`` layout.

    Fast-forward and functional warming dominate (detailed timing covers
    ~1.5% of references).  Every op restores the demand-only warm
    checkpoint that setup builds.  Zeus adds the write-heavy coherence
    path.
    """

    name = "sampled"
    WORKLOADS = ("Apache", "Zeus")
    CONFIGS = ("sms-1k", "pv8")
    REFS = 48_000
    WARMUP = 2_000
    LAYOUT = dict(period_refs=12_000, detail_refs=120, warm_refs=60,
                  functional_refs=1_200)

    def setup(self) -> None:
        from repro.sim.config import PrefetcherConfig
        from repro.sim.simulator import CMPSimulator

        self._compile_traces()
        for _, profile, _, system in self.items[::len(self.CONFIGS)]:
            # The demand-only warm-up is predictor-independent: one
            # untrained run leaves the checkpoint every config restores.
            CMPSimulator(profile, PrefetcherConfig.none(), system=system,
                         seed=self.seed).run(1, warmup_refs=self.WARMUP)

    def reference_ipc(self) -> Dict[str, float]:
        """Full-detail aggregate IPC of every spec (same refs, warm-up)."""
        from repro.sim.config import SystemConfig
        from repro.sim.simulator import CMPSimulator

        reference = {}
        for label, profile, prefetcher, _ in self.items:
            full = CMPSimulator(profile, prefetcher,
                                system=SystemConfig.baseline(), seed=self.seed)
            reference[label] = full.run(self.REFS,
                                        warmup_refs=self.WARMUP).aggregate_ipc
        return reference


class Sweep:
    """One cold ``run_study`` through the process backend, then a rerun
    that resolves the same matrix purely from the result store."""

    name = "sweep"
    MATRIX = os.path.join(HERE, "sweep.toml")

    def __init__(self, seed: int, work_dir: str) -> None:
        from dataclasses import replace

        from repro.study.matrix import load_matrix

        self.seed = sim_seed(seed)
        self.work_dir = work_dir
        self.jobs = len(os.sched_getaffinity(0))  # nproc
        matrix = load_matrix(self.MATRIX)
        self.matrix = replace(
            matrix, defaults={**matrix.defaults, "seed": self.seed})
        self.points = self.matrix.expand()
        self.labels = [f"{p.coords['workload']}/{p.coords['config']}"
                       for p in self.points]
        self.refs = sum(
            (p.spec.scale.refs_per_core + p.spec.scale.warmup_refs)
            * p.spec.system_config().hierarchy.n_cores for p in self.points)
        self.store = None  # the ArtifactStore setup fills
        self._ops = 0

    def setup(self) -> None:
        from repro.runner import artifacts
        from repro.workloads.generator import TRACE_CACHE
        from repro.workloads.registry import get_workload

        _reset_process_caches()
        root = os.path.join(self.work_dir, "artifacts")
        shutil.rmtree(root, ignore_errors=True)
        self.store = artifacts.ArtifactStore(root)
        artifacts.set_active(self.store)
        need = {}
        for point in self.points:
            spec = point.spec
            n = spec.scale.refs_per_core + spec.scale.warmup_refs
            need[spec.workload] = max(need.get(spec.workload, 0), n)
        cores = self.points[0].spec.system_config().hierarchy.n_cores
        for workload, n in need.items():
            # TRACE_CACHE.get writes the compiled prefix behind to the
            # active artifact store.
            _compile(get_workload(workload), self.seed, n, cores)
        TRACE_CACHE.clear()

    def shape(self):
        return [point.spec.key for point in self.points]

    def cycle(self):
        return [None]

    def run(self, item) -> Outcome:
        import time

        from repro.runner.store import ResultStore
        from repro.runner.sweep import SweepRunner
        from repro.study.executor import run_study

        self._ops += 1
        store_dir = os.path.join(self.work_dir, f"store-{self._ops}")
        cold_sources: Dict[str, int] = {}
        warm_sources: Dict[str, int] = {}

        def tally(into):
            def observe(progress):
                into[progress.source] = into.get(progress.source, 0) + 1
            return observe

        _reset_process_caches()
        start = time.perf_counter()
        runner = SweepRunner(jobs=self.jobs, store=ResultStore(store_dir),
                             backend="process")
        cold = run_study(self.matrix, runner=runner, observer=tally(cold_sources))
        cold_s = time.perf_counter() - start
        _reset_process_caches()
        start = time.perf_counter()
        rerun = SweepRunner(jobs=self.jobs, store=ResultStore(store_dir),
                            backend="process", use_cache=False)
        warm = run_study(self.matrix, runner=rerun, observer=tally(warm_sources))
        rerun_s = time.perf_counter() - start

        outcome = Outcome(refs=self.refs, specs=len(cold), sim_s=cold_s,
                          rerun_s=rerun_s,
                          rerun_specs=len(warm), broker=runner.last_stats or {},
                          store_dir=store_dir)
        for record, again in zip(cold, warm):
            label = self.labels[record["index"]]
            outcome.payloads[label] = record["result"]
            if again["result"] != record["result"]:
                outcome.problems.append(f"{label}: store rerun differs from cold pass")
        outcome.sources = {"cold." + k: v for k, v in cold_sources.items()}
        outcome.sources.update({"rerun." + k: v for k, v in warm_sources.items()})
        if cold_sources != {"computed": len(cold)}:
            outcome.problems.append(f"cold pass sources {cold_sources}")
        if warm_sources != {"store": len(warm)}:
            outcome.problems.append(f"rerun sources {warm_sources}")
        for stat in ("retries", "expirations", "quarantined", "failures"):
            if outcome.broker.get(stat):
                outcome.problems.append(f"broker {stat}={outcome.broker[stat]}")
        return outcome

    def finish(self, outcome: Outcome) -> None:
        if outcome.store_dir:
            shutil.rmtree(outcome.store_dir, ignore_errors=True)

    def post_check(self, seen) -> List[str]:
        """Process-backend digests must equal an inline resolution."""
        from repro.runner import artifacts
        from repro.runner.broker import payload_digest
        from repro.runner.serialize import result_to_dict
        from repro.runner.sweep import SweepRunner

        # Independent path: inline backend, no store, traces regenerated.
        _reset_process_caches()
        artifacts.set_active(None)
        try:
            runner = SweepRunner(jobs=1, backend="inline", use_cache=False)
            results = runner.run([point.spec for point in self.points])
        finally:
            artifacts.set_active(self.store)
        problems = []
        for label, result in zip(self.labels, results):
            digest = payload_digest(result_to_dict(result))
            if label in seen and seen[label] != digest:
                problems.append(f"{label}: process backend differs from inline")
        return problems


WORKLOADS = {cls.name: cls for cls in (Detail, Sampled, Sweep)}
