"""Self-test of the benchmark tracer (``tracing.py``).

Run from the repository root::

    python3 perfbench/check_tracer.py

Checks, on a synthetic call tree and on real ops, that

* the self times of every frame inside an op add up to the op's traced
  duration (also when a wrapped call raises), and self time lands on the
  function that spent it;
* spans carry their parent and op id, and uninstalling restores every
  original function;
* a traced op yields the same result digest as an untraced one;
* forked sweep workers dump their spans and the harness merges them.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def synthetic(tracing) -> None:
    probe = types.ModuleType("perfbench_probe")

    class Layer:
        def outer(self):
            time.sleep(0.01)
            self.inner()
            try:
                self.failing()
            except ValueError:
                pass
            return helper() + self.inner()

        def inner(self):
            time.sleep(0.02)
            return 1

        def failing(self):
            time.sleep(0.005)
            raise ValueError("expected")

    def helper():
        time.sleep(0.005)
        return 1

    probe.Layer = Layer
    probe.helper = helper
    sys.modules[probe.__name__] = probe
    targets = (
        ("probe.outer", probe.__name__, "Layer.outer", "span"),
        ("probe.inner", probe.__name__, "Layer.inner", "agg"),
        ("probe.failing", probe.__name__, "Layer.failing", "span"),
        ("probe.helper", probe.__name__, "helper", "agg"),
    )
    tracer = tracing.Tracer()
    originals = (vars(Layer)["outer"], vars(Layer)["inner"], probe.helper)
    with tracer.installed(targets):
        check(vars(Layer)["outer"] is not originals[0], "install wraps methods")
        value, duration, gap = tracer.run_op(7, lambda: Layer().outer())
    check((vars(Layer)["outer"], vars(Layer)["inner"], probe.helper) == originals,
          "uninstall restores the originals")
    check(value == 2, "wrapped calls return their values")
    check(abs(gap) < 1e-9, f"self times sum to the op duration (gap {gap:.2e} s)")
    total = sum(own for _, own in tracer.stats.values())
    check(abs(total - duration) < 1e-9, "stats self times sum to the op duration")
    inner_calls, inner_self = tracer.stats["probe.inner"]
    outer_self = tracer.stats["probe.outer"][1]
    check(inner_calls == 2 and inner_self >= 0.04, "self time lands on the callee")
    check(0.01 <= outer_self < 0.03, f"caller keeps only its own time ({outer_self:.3f} s)")
    spans = {span[1]: span for span in tracer.spans}
    check(spans["probe.failing"][4] == spans["probe.outer"][0],
          "a child span names its parent")
    check(spans["probe.outer"][4] == spans["op"][0] and spans["op"][4] is None,
          "the op span is the root")
    check(all(span[5] == 7 for span in tracer.spans), "spans carry the op id")
    check(not tracer.stack and not tracer.span_stack, "the call stack unwinds")
    del sys.modules[probe.__name__]


def real_ops(tracing, work_dir: str) -> None:
    from repro.runner.broker import payload_digest
    from repro.runner.serialize import result_to_dict
    from repro.runner.store import ResultStore
    from repro.runner.sweep import SweepRunner
    from repro.runner.spec import ExperimentScale, ExperimentSpec
    from repro.sim.config import PrefetcherConfig, SystemConfig
    from repro.sim.simulator import CMPSimulator
    from repro.workloads.registry import get_workload

    def detail():
        system = SystemConfig.baseline().with_contention(dram_channels=1)
        return CMPSimulator(get_workload("Qry1"), PrefetcherConfig.virtualized(8),
                            system=system).run(600, warmup_refs=300)

    plain = payload_digest(result_to_dict(detail()))
    tracer = tracing.Tracer(dump_dir=work_dir)
    with tracer.installed():
        result, _, gap = tracer.run_op(0, detail)
    check(payload_digest(result_to_dict(result)) == plain,
          "a traced op has the untraced result digest")
    check(abs(gap) < 1e-6, f"real op: self times sum to its duration (gap {gap:.2e} s)")
    check(tracer.stats["memory.access"][0] > 0 and tracer.stats["sim.run"][0] == 1,
          "per-reference and span wrappers both fire")

    specs = [ExperimentSpec.build(w, PrefetcherConfig.virtualized(8),
                                  scale=ExperimentScale(300, 100, 0))
             for w in ("Apache", "Qry1")]
    plain = [payload_digest(result_to_dict(r)) for r in
             SweepRunner(jobs=2, backend="process", use_cache=False).run(specs)]
    tracer = tracing.Tracer(dump_dir=work_dir)
    store = ResultStore(os.path.join(work_dir, "store"))
    with tracer.installed():
        results, _, gap = tracer.run_op(1, lambda: SweepRunner(
            jobs=2, store=store, backend="process", use_cache=False).run(specs))
    tracer.merge_worker_dumps()
    check([payload_digest(result_to_dict(r)) for r in results] == plain,
          "a traced sweep has the untraced result digests")
    check(abs(gap) < 1e-6, f"sweep op: coordinator self times sum (gap {gap:.2e} s)")
    pids = {span[6] for span in tracer.spans if span[1] == "sim.run"}
    check(len(pids) == 2 and os.getpid() not in pids,
          "worker spans come back from both forked workers")
    check(all(span[5] == 1 for span in tracer.spans), "worker spans keep the op id")
    check(tracer.stats["sim.run"][0] == 2, "worker stats merge into the run's")
    wait = tracer.stats["runner.wait"]
    check(wait[0] > 0 and wait[1] > tracer.stats["runner.sweep_run"][1],
          "the coordinator's wait for workers is timed apart from SweepRunner.run")
    check(not [f for f in os.listdir(work_dir) if f.startswith("worker-")],
          "merged worker dumps are removed")


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"check_tracer: no repository sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tracing

    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="check-", dir=work_root)
    try:
        synthetic(tracing)
        real_ops(tracing, work_dir)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("tracer self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
