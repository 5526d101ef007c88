"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload power --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics.  Each *pass* sets the
workload up from scratch (data generation, database build and load) and
then runs its measured phase; passes repeat until ``--seconds`` of
measured time have gone by, and at least ``MIN_PASSES`` times, and the
run reports the median set-up and measured host times.  ``--trace 1``
runs one untraced pass and one traced pass (plus a call-counting pass
where a counted entry point can fire) and reports the per-layer
metrics: host self time per layer from :mod:`tracer`, call counts, the
simulator's own counters, and the tracing overhead.  The traced spans
are written to ``perfbench/out/``.

Either way the run checks the workload's outputs and that every pass of
the seed produced the same simulated results and answers, byte for
byte.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` shrinks
every workload to a few seconds for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

from tracer import SETUP_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
"""Every ``--trace 0`` run makes at least this many passes, so its
``wall_s`` is a median and the passes' fingerprints can be compared."""
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 2.0
"""Before its passes, a run sets up at least ``MIN_SETUPS`` times and for
at least this long; ``setup_s`` is the median over these set-ups and
those of the passes."""
TIME_CAP_S = 150.0
"""No pass starts that would be predicted to end past this host time."""

#: Per-layer host self time, by tracer layer.
SELF_TIME_METRICS = {
    "executor": "executor.self_s",
    "bufferpool": "bufferpool.self_s",
    "storage_manager": "storage_manager.self_s",
    "classify": "classify.self_s",
    "scheduler": "scheduler.self_s",
    "tiers": "tiers.self_s",
    "stats": "stats.self_s",
    "driver": "driver.self_s",
    "txn.commit": "txn.commit_s",
    "txn.checkpoint": "txn.checkpoint_s",
    "wal.flush": "wal.flush_s",
    "recovery": "recovery.host_s",
    "serve": "serve.self_s",
    "admission": "admission.self_s",
    "obs.tick": "obs.tick_s",
}

#: Call counts of the traced entry points, by metric.
CALL_METRICS = {
    "executor.steps": ("QueryExecution.step",),
    "bufferpool.calls": (
        "BufferPool.get_page", "BufferPool.get_range",
        "BufferPool.get_range_batches", "BufferPool.new_page",
        "BufferPool.mark_dirty",
    ),
    "storage_manager.requests": (
        "StorageManager.read_pages_batch", "StorageManager.write_page",
        "StorageManager.write_pages_batch",
    ),
    "classify.calls": ("PolicyAssignmentTable.assign",),
    "tiers.submits": ("TierChain.submit",),
    "txn.checkpoints": ("TransactionManager.checkpoint",),
    "admission.requests": ("AdmissionController.request",),
    "obs.ticks": ("Monitor.tick",),
}

#: The simulator's counters reported as they are.
COUNTER_METRICS = (
    "bufferpool.evictions", "scheduler.requests", "scheduler.dispatches",
    "device.hdd.blocks_read", "device.hdd.blocks_written",
    "device.hdd.busy_sim_s", "device.ssd.blocks_read",
    "device.ssd.blocks_written", "device.ssd.busy_sim_s",
    "wal.forces", "locks.waits", "txn.deadlock_retries",
    "txn.blocked_sim_s", "mvcc.snapshot_reads",
    "admission.defers", "admission.rejects", "governor.sheds",
)

#: Workload-specific simulated figures and their units (0 where a
#: workload has none).
RESULT_METRICS = {
    "sim_s": "sim_s",
    "speedup_vs_lru": "ratio",
    "ssd_gap": "ratio",
    "qph": "1/sim_h",
    "p50_ms": "sim_ms",
    "p99_ms": "sim_ms",
    "slo_goodput": "fraction",
    "failed_share": "fraction",
    "commits_per_sim_s": "1/sim_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs passes of one workload and accumulates what they report."""

    def __init__(self, workload, spec, seed: int) -> None:
        self.workload = workload
        self.spec = spec
        self.seed = seed
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.passes = []
        self.started = time.perf_counter()

    def setup(self):
        gc.collect()
        started = time.perf_counter()
        state = self.workload.setup(self.spec, self.seed)
        self.setup_s.append(time.perf_counter() - started)
        return state

    def run_pass(self, tracer=None, counted: bool = False):
        """Set up, then run the measured phase.  With a ``tracer``, the
        set-up and the measured phase are traced; with ``counted`` too,
        the measured phase only counts calls (see :data:`tracer.COUNTS`)."""
        with ExitStack() as stack:
            if tracer is not None and not counted:
                stack.enter_context(tracer.installed(SETUP_LAYERS))
            state = self.setup()
        gc.collect()
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(
                    tracer.installed(frozenset(), counted=True)
                    if counted
                    else tracer.installed()
                )
            started = time.perf_counter()
            result = self.workload.measure(self.spec, state, self.seed)
            self.wall_s.append(time.perf_counter() - started)
        self.passes.append(result)
        return result

    def errors(self) -> list[str]:
        errors = [e for p in self.passes for e in p.errors]
        prints = {p.fingerprint for p in self.passes}
        if len(prints) > 1:
            errors.append(
                f"simulated results differ between passes of seed "
                f"{self.seed}: {sorted(prints)}"
            )
        return errors


def end_to_end(runner: Runner, deadline: float) -> dict:
    """Set-ups first, in a fresh process; then untraced passes until
    ``deadline`` measured seconds are spent, and at least ``MIN_PASSES``."""
    while (
        len(runner.setup_s) < MIN_SETUPS
        or sum(runner.setup_s) < MIN_SETUP_SECONDS
    ):
        runner.setup()
    while True:
        runner.run_pass()
        spent = time.perf_counter() - runner.started
        longest = max(runner.wall_s) + max(runner.setup_s)
        if spent + longest > TIME_CAP_S:
            break
        if len(runner.wall_s) >= MIN_PASSES and sum(runner.wall_s) >= deadline:
            break
    first = runner.passes[0]
    return {
        "setup_s": _metric(statistics.median(runner.setup_s), "s"),
        "wall_s": _metric(statistics.median(runner.wall_s), "s"),
        "peak_rss_mb": _metric(_peak_rss_mib(), "MiB"),
        "speedup_vs_hdd": _metric(first.speedup_vs_hdd, "ratio"),
        "goodput": _metric(first.goodput, "fraction"),
    }


def per_layer(runner: Runner, name: str) -> dict:
    """One untraced pass, one traced pass and, where a counted entry
    point can fire, one counting pass; reduced to layers."""
    runner.run_pass()
    tracer = Tracer()
    traced = runner.run_pass(tracer)
    untraced_wall, traced_wall = runner.wall_s
    if tracer.counted_layers_ran():
        runner.run_pass(tracer, counted=True)
    metrics = {
        "trace.wall_s": _metric(traced_wall, "s"),
        "trace.untraced_wall_s": _metric(untraced_wall, "s"),
        "trace.overhead": _metric(
            _ratio(traced_wall, untraced_wall) - 1.0, "ratio"
        ),
        "tpch.generate_s": _metric(tracer.self_s["tpch.generate"], "s"),
        "tpch.load_s": _metric(tracer.self_s["tpch.load"], "s"),
    }
    covered = 0.0
    for layer, metric in SELF_TIME_METRICS.items():
        covered += tracer.self_s[layer]
        metrics[metric] = _metric(tracer.self_s[layer], "s")
    metrics["other.self_s"] = _metric(traced_wall - covered, "s")
    for metric, keys in CALL_METRICS.items():
        metrics[metric] = _metric(sum(tracer.calls[k] for k in keys), "count")
    runs = tracer.calls["ServingFrontend.run"]
    metrics["serve.loop_iterations"] = _metric(
        tracer.calls["Monitor.tick"] - runs, "count"
    )
    metrics["serve.session_checks"] = _metric(
        tracer.counts.get("serve.session_checks", 0), "count"
    )
    counters = traced.counters
    hits, misses = counters["bufferpool.hits"], counters["bufferpool.misses"]
    metrics["bufferpool.hit_ratio"] = _metric(
        _ratio(hits, hits + misses), "fraction"
    )
    metrics["scheduler.merge_ratio"] = _metric(
        _ratio(counters["scheduler.requests"], counters["scheduler.dispatches"]),
        "ratio",
    )
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    metrics["cache.hit_ratio"] = _metric(_ratio(hits, hits + misses), "fraction")
    for metric in COUNTER_METRICS:
        unit = "sim_s" if metric.endswith("sim_s") else "count"
        metrics[metric] = _metric(counters.get(metric, 0), unit)
    for metric, unit in RESULT_METRICS.items():
        metrics[f"result.{metric}"] = _metric(
            traced.results.get(metric, 0.0), unit
        )
    tracer.dump(
        HERE / "out" / f"trace-{name}-{runner.seed}.json",
        workload=name, seed=runner.seed, wall_s=traced_wall,
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: simulator source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    spec = workload.smoke if args.smoke else workload.spec
    runner = Runner(workload, spec, args.seed)
    try:
        if args.trace:
            metrics = per_layer(runner, args.workload)
        else:
            metrics = end_to_end(runner, args.seconds)
    except Exception:  # the pass that raised counts as one failed op
        traceback.print_exc()
        print(json.dumps({
            "correct": False,
            "attempted": sum(p.attempted for p in runner.passes) + 1,
            "failed": 1,
            "metrics": {},
        }))
        return 1
    errors = runner.errors()
    for line in runner.passes[0].info:
        print(f"{args.workload}: {line}")
    print(f"{args.workload}: fingerprint {runner.passes[0].fingerprint}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.attempted for p in runner.passes),
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
