"""Benchmark harness for the predictor-virtualization reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload detail --seed 1 --seconds 20 --trace 0

``--workload`` is ``detail``, ``sampled`` or ``sweep`` (see README.md
beside this file).  With ``--trace 0`` the last stdout line is one JSON
object carrying every end-to-end metric; with ``--trace 1`` it carries
every per-layer metric from a traced run, whose spans are also written
to ``.perfbench/traces/``.  Every op's result is digested and checked;
``--pin`` (default seed only) rewrites the pinned digests instead of
measuring.  Exits non-zero without a result line when the repository
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench")
PINNED = os.path.join(HERE, "pinned.json")

#: Set-up passes per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fresh interpreters per run whose median package import time is in setup_s.
IMPORT_REPEATS = 3
#: What an invocation imports before it can run anything (part of setup_s).
PACKAGES = ("repro.runner", "repro.study.executor", "repro.sim.simulator")
#: Ops that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("detail", "sampled", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json for this workload (default seed)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------- machine


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop (machine speed marker)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1000, 3)


def machine_fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
        "calibration_ms": calibration_ms(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB units)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def fresh_import_s(src: str) -> float:
    """Seconds a fresh interpreter takes to import :data:`PACKAGES`."""
    code = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "start = time.perf_counter()\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.perf_counter() - start)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(seconds):
    """Highest percentile with >= TAIL_BEYOND ops beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[index], int(100 * (index + 1) / n), n - 1 - index


def code_id() -> str:
    """Hash of every source file of the package under test."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "repro")
    for folder, _, files in sorted(os.walk(package)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _write_json(path, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------- the bench


class Bench:
    def __init__(self, args, work_dir: str, import_s: float) -> None:
        import shapes
        import tracing

        self.args = args
        self.work_dir = work_dir
        self.workload = shapes.WORKLOADS[args.workload](args.seed, work_dir)
        self.default_seed = args.seed == shapes.DEFAULT_SEED
        self.tracer = tracing.Tracer(dump_dir=work_dir) if args.trace else None
        self.shape = self._shape_id()
        self.earlier = _read_json(self._counts_path())
        self.expected, self.pin_problem = self._expected_digests()
        self.ops = []  # dicts: seconds, traced, outcome fields, labels, ok
        self.digests = {}  # label -> first digest seen this run
        self.payloads = {}  # label -> first payload seen this run
        self.problems = []
        self.op_counters = {}  # op signature -> coordinator counter deltas
        self.traced_counters = {}
        self.self_checks = []
        self.setup_parts = {"first_import_s": import_s, "import_s": [],
                            "setup_pass_s": []}

    # --------------------------------------------------------- expectations

    def _shape_id(self) -> str:
        """Hash of what the workload runs, so stale pins are detected."""
        blob = json.dumps(self.workload.shape(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def _counts_path(self) -> str:
        """Where the first run of this code and seed leaves its counts
        (the shape names the seed; the code id names the sources)."""
        return os.path.join(WORK_ROOT, "counts",
                            f"{self.args.workload}-{self.shape}-{code_id()}.json")

    def _expected_digests(self):
        """Pinned digests (default seed), else an earlier run's (same
        code, same seed), else nothing yet."""
        if self.default_seed and not self.args.pin:
            pins = (_read_json(PINNED) or {}).get(self.args.workload)
            if not pins or pins.get("shape") != self.shape:
                return {}, "no pinned digests for this workload shape"
            return dict(pins["digests"]), None
        return dict((self.earlier or {}).get("digests", {})), None

    # ------------------------------------------------------------------ ops

    def setup(self) -> None:
        """Set up; untraced runs time several from-scratch set-ups."""
        if self.tracer is not None:
            with self.tracer.installed():
                _, _, check = self.tracer.run_op("setup", self.workload.setup)
            self.self_checks.append(check)
            return
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.setup()
            self.setup_parts["setup_pass_s"].append(time.perf_counter() - start)

    def setup_s(self) -> float:
        """The median package import time plus the median set-up pass.

        Imports are timed in fresh interpreters; this process's own first
        import may include compiling the sources, so it is only reported.
        The interpreters are children, so this runs after ``peak_rss_mb``
        is read.
        """
        imports = self.setup_parts["import_s"]
        while len(imports) < IMPORT_REPEATS:
            imports.append(fresh_import_s(os.path.join(ROOT, "src")))
        return (statistics.median(imports)
                + statistics.median(self.setup_parts["setup_pass_s"]))

    def run_op(self, item, traced: bool) -> None:
        from repro.runner.broker import payload_digest
        from repro.runner.serialize import result_to_dict
        from tracing import cache_counters, counter_delta

        before = cache_counters()
        try:
            if traced:
                with self.tracer.installed():
                    outcome, seconds, check = self.tracer.run_op(
                        len(self.ops), lambda: self.workload.run(item))
                self.self_checks.append(check)
            else:
                start = time.perf_counter()
                outcome = self.workload.run(item)
                seconds = time.perf_counter() - start
        except Exception:
            self.ops.append({"ok": False, "traced": traced, "labels": set(),
                             "error": traceback.format_exc(limit=3)})
            return
        counters = counter_delta(before, cache_counters())
        if traced:
            workers = self.tracer.merge_worker_dumps()
            for key, value in list(counters.items()) + list(workers.items()):
                self.traced_counters[key] = self.traced_counters.get(key, 0) + value
        self.workload.finish(outcome)

        problems = list(outcome.problems)
        payloads = outcome.payloads or {
            label: result_to_dict(result)
            for label, result in outcome.results.items()
        }
        for label, payload in payloads.items():
            digest = payload_digest(payload)
            first = self.digests.setdefault(label, digest)
            self.payloads.setdefault(label, payload)
            if digest != first:
                problems.append(f"{label}: digest differs from an earlier repeat")
            expected = self.expected.get(label)
            if expected is not None and digest != expected:
                problems.append(f"{label}: digest differs from the expected one")
        signature = "|".join(sorted(payloads))  # the op's kind
        first = self.op_counters.setdefault(signature, counters)
        if counters != first:
            problems.append(f"counts differ between repeats: {first} vs {counters}")
        earlier = (self.earlier or {}).get("op_counters", {}).get(signature)
        if earlier is not None and counters != earlier:
            problems.append(f"counts differ from an earlier run: {earlier} vs {counters}")
        self.ops.append({
            "ok": not problems, "traced": traced, "labels": set(payloads),
            "kind": signature, "seconds": seconds,
            "refs": outcome.refs, "specs": outcome.specs,
            "sim_s": seconds if outcome.sim_s is None else outcome.sim_s,
            "rerun_s": outcome.rerun_s, "rerun_specs": outcome.rerun_specs,
            "broker": outcome.broker, "sources": outcome.sources,
            "problems": problems,
        })

    def loop(self) -> None:
        import gc

        gc.collect()
        start = time.perf_counter()
        cycles = 0
        while True:
            for item in self.workload.cycle():
                if self.tracer is None:
                    modes = (False,)
                else:  # pair each traced op with an untraced one
                    modes = (False, True) if cycles % 2 == 0 else (True, False)
                for traced in modes:
                    self.run_op(item, traced)
            cycles += 1
            if time.perf_counter() - start >= self.args.seconds:
                return

    def post_checks(self) -> None:
        if self.pin_problem:
            self.problems.append(self.pin_problem)
        missing = set(self.expected) - set(self.digests)
        if self.expected and missing:
            self.problems.append(f"no result for expected labels {sorted(missing)}")
        try:
            bad = self.workload.post_check(self.digests)
        except Exception:
            bad = [f"post-check raised: {traceback.format_exc(limit=3)}"]
        for problem in bad:
            self.problems.append(problem)
            label = problem.split(":", 1)[0]
            for op in self.ops:
                if label in op["labels"]:
                    op["ok"] = False
        if self.earlier is None and not self.problems and all(
                op["ok"] for op in self.ops):
            # First run of this code and seed: later runs must reproduce it.
            _write_json(self._counts_path(), {
                "seed": self.args.seed, "digests": self.digests,
                "op_counters": self.op_counters,
            })

    # -------------------------------------------------------------- metrics

    def end_to_end(self) -> dict:
        rss = peak_rss_mb()
        ops = [op for op in self.ops if "seconds" in op and not op["traced"]]
        seconds = [op["seconds"] for op in ops]
        tail_s, percentile, beyond = tail(seconds)
        # Each op kind's fastest run: on a shared host other tenants slow
        # ops for stretches of seconds to minutes, so only the fastest
        # repetitions read the same from run to run (README.md, Noise).
        best = {}
        for op in ops:
            kind = best.setdefault(op["kind"], dict(op))
            kind["seconds"] = min(kind["seconds"], op["seconds"])
            kind["sim_s"] = min(kind["sim_s"], op["sim_s"])
        kinds = list(best.values())
        busy = sum(op["sim_s"] for op in kinds)
        self.op_times = {
            "ops": len(seconds), "kinds": len(kinds),
            "p50_ms": statistics.median(seconds) * 1000,
            "tail_ms": tail_s * 1000, "tail_percentile": percentile,
            "tail_ops_beyond": beyond,
        }
        return {
            "refs_per_s": (sum(op["refs"] for op in kinds) / busy, "1/s"),
            "specs_per_s": (sum(op["specs"] for op in kinds) / busy, "1/s"),
            "sim_best_ms": (statistics.mean(op["seconds"] for op in kinds)
                            * 1000, "ms"),
            "setup_s": (self.setup_s(), "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    def rerun_specs_per_s(self) -> float:
        ops = [op for op in self.ops if "seconds" in op and not op["traced"]]
        rerun_s = sum(op["rerun_s"] for op in ops)
        return sum(op["rerun_specs"] for op in ops) / rerun_s if rerun_s else 0.0

    def ipc_err_pct(self):
        """Mean |sampled - full-detail IPC| / full-detail IPC, in percent
        (None where it does not apply or no reference was computed)."""
        if self.args.workload != "sampled":
            return None
        reference = None
        if self.default_seed:
            pins = (_read_json(PINNED) or {}).get("sampled") or {}
            reference = pins.get("reference_ipc")
        elif self.tracer is not None:
            reference = self.workload.reference_ipc()
        if not reference:
            return None
        errors = []
        for label, full_ipc in reference.items():
            payload = self.payloads.get(label)
            if payload is None or payload["elapsed_cycles"] <= 0:
                continue
            sampled_ipc = payload["instructions"] / payload["elapsed_cycles"]
            errors.append(abs(sampled_ipc - full_ipc) / full_ipc * 100)
        return statistics.mean(errors) if errors else None

    def per_layer(self, ipc_err) -> dict:
        from tracing import TIMED_NAMES

        stats = self.tracer.stats
        extra = {name: cell[0] for name, cell in self.tracer.extra.items()}
        out = {}
        for name in TIMED_NAMES:
            calls, own = stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (own, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.traced_counters
        compile_s = stats.get("workloads.compile_trace", (0, 0.0))[1]
        out["workloads.records_per_s"] = (
            ratio(extra["workloads.compile_trace.records"], compile_s), "1/s")
        out["workloads.trace_cache.hit_ratio"] = (ratio(
            c.get("trace_cache.hits", 0),
            c.get("trace_cache.hits", 0) + c.get("trace_cache.misses", 0)), "ratio")

        payloads = list(self.payloads.values())
        pv = [p for p in payloads if p["l2_pv_requests"] > 0]
        predicting = [p for p in payloads if p["trigger_lookups"] > 0]
        out["contention.dram_queue_cycles"] = (
            sum(p["dram_queue_cycles"] for p in payloads), "cycles")
        out["contention.bank_conflicts"] = (
            sum(p["bank_conflicts"] for p in payloads), "count")
        out["contention.mshr_peak_occupancy"] = (
            max((p["mshr_peak_occupancy"] for p in payloads), default=0), "count")
        out["prefetch.predictions"] = (
            sum(p["predictions"] for p in payloads), "count")
        out["prefetch.coverage"] = (ratio(
            sum(p["covered"] for p in predicting),
            sum(p["covered"] + p["uncovered"] for p in predicting)), "ratio")
        out["core.pvcache_hit_rate"] = (
            statistics.mean(p["pvcache_hit_rate"] for p in pv) if pv else 0.0,
            "ratio")
        out["core.pv_l2_share"] = (ratio(
            sum(p["l2_pv_requests"] for p in pv),
            sum(p["l2_requests"] for p in pv)), "ratio")
        out["core.pv_l2_fill_rate"] = (
            statistics.mean(p["pv_l2_fill_rate"] for p in pv) if pv else 0.0,
            "ratio")

        batch_calls = stats.get("sim.run_batch", (0, 0.0))[0]
        out["sim.run_batch.fallback_ratio"] = (
            ratio(extra["sim.run_batch.fallbacks"], batch_calls), "ratio")
        for stage in ("skipped", "functional", "warm", "detail"):
            field = f"sampled_{stage}_refs"
            out[f"sim.{field}"] = (sum(p[field] for p in payloads), "count")
        out["sim.warm_cache.hit_ratio"] = (ratio(
            c.get("warm_cache.hits", 0),
            c.get("warm_cache.hits", 0) + c.get("warm_cache.misses", 0)), "ratio")
        out["sim.ipc_err_pct"] = (ipc_err or 0.0, "%")

        done = [op for op in self.ops if "seconds" in op]
        out["runner.broker.retries"] = (
            sum(op["broker"].get("retries", 0) for op in done), "count")
        out["runner.broker.expirations"] = (
            sum(op["broker"].get("expirations", 0) for op in done), "count")
        sources = {}
        for op in done:
            if op["traced"]:
                for key, value in op["sources"].items():
                    source = key.split(".", 1)[1]
                    sources[source] = sources.get(source, 0) + value
        out["runner.store.hit_ratio"] = (
            ratio(sources.get("store", 0), sum(sources.values())), "ratio")
        art_hits = c.get("artifacts.trace_hits", 0) + c.get("artifacts.warm_hits", 0)
        art_misses = (c.get("artifacts.trace_misses", 0)
                      + c.get("artifacts.warm_misses", 0))
        out["runner.artifacts.hit_ratio"] = (
            ratio(art_hits, art_hits + art_misses), "ratio")
        out["runner.artifacts.quarantined"] = (
            c.get("artifacts.quarantined", 0), "count")
        out["runner.rerun_specs_per_s"] = (self.rerun_specs_per_s(), "1/s")

        untraced = sum(op["seconds"] for op in done if not op["traced"])
        traced = sum(op["seconds"] for op in done if op["traced"])
        out["trace.overhead_pct"] = (
            (ratio(traced, untraced) - 1) * 100 if untraced else 0.0, "%")
        return out

    # ---------------------------------------------------------------- main

    def execute(self):
        fingerprint = machine_fingerprint()
        self.setup()
        self.loop()
        self.post_checks()
        ipc_err = self.ipc_err_pct()
        attempted = len(self.ops)
        failed = sum(1 for op in self.ops if not op["ok"])
        bad_checks = [c for c in self.self_checks if abs(c) > 1e-6]
        if bad_checks:
            self.problems.append(f"span self times miss op durations by {bad_checks}")
        if self.tracer is None:
            metrics = self.end_to_end()
        else:
            metrics = self.per_layer(ipc_err)
        correct = failed == 0 and not self.problems
        problems = self.problems + [
            p for op in self.ops for p in op.get("problems", [])
        ] + [op["error"] for op in self.ops if "error" in op]
        info = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "machine": fingerprint,
            "failed_frac": failed / attempted if attempted else 0.0,
            "problems": problems[:20],
        }
        if self.tracer is None:
            info["op_times"] = self.op_times
            info["setup"] = self.setup_parts
            info["rerun_specs_per_s"] = self.rerun_specs_per_s()
            info["ipc_err_pct"] = ipc_err
        else:
            path = os.path.join(WORK_ROOT, "traces",
                                f"{self.args.workload}-seed{self.args.seed}.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self.tracer.write(path, {
                "info": info,
                "metrics": {k: v[0] for k, v in metrics.items()},
            })
            info["spans_file"] = os.path.relpath(path, ROOT)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        return info, result

    def pin(self) -> dict:
        """Digests of one op per label (and reference IPCs) for pinned.json."""
        self.workload.setup()
        for item in self.workload.cycle():
            self.run_op(item, False)
        problems = [p for op in self.ops for p in op.get("problems", [])]
        problems += [op["error"] for op in self.ops if "error" in op]
        if problems:
            raise RuntimeError(f"cannot pin: {problems}")
        entry = {"shape": self.shape, "digests": self.digests}
        if self.args.workload == "sampled":
            entry["reference_ipc"] = self.workload.reference_ipc()
        pins = _read_json(PINNED) or {}
        pins["seed"] = self.args.seed
        pins[self.args.workload] = entry
        _write_json(PINNED, pins)
        return entry


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repository sources under {src}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # Anything that asks for a temporary file stays inside the checkout.
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = None
    sys.path.insert(0, src)
    start = time.perf_counter()
    try:
        for name in PACKAGES:
            importlib.import_module(name)
    except ImportError:
        traceback.print_exc()
        shutil.rmtree(work_dir, ignore_errors=True)
        return 2
    import_s = time.perf_counter() - start
    try:
        bench = Bench(args, work_dir, import_s)
        if args.pin:
            from shapes import DEFAULT_SEED

            if args.seed != DEFAULT_SEED:
                print(f"perfbench: pins are for seed {DEFAULT_SEED}", file=sys.stderr)
                return 2
            print(json.dumps(bench.pin(), sort_keys=True))
            return 0
        info, result = bench.execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
