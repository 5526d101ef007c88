"""Host-clock span tracer for the benchmark's traced run.

The simulator never reads a wall clock, so per-layer host time is
measured from outside: :class:`Tracer` replaces the public entry points
of each layer (listed in :data:`SPANS`) with timing wrappers for the
duration of a ``with tracer.installed():`` block and restores the
originals afterwards.  Nothing in the simulator's source changes.

Every wrapped call (or, for a generator entry point, every resumption)
opens a span on one stack.  A layer's *self time* is its span time minus
the time of the spans nested inside it, so the self times of all layers
plus the untraced remainder add up to the traced wall time.  Spans are
aggregated in memory (self time per layer, calls per entry point); the
coarse ones (drivers, serving loop, recovery, data loading) are also
kept whole, with start, end and parent layer, so :meth:`Tracer.dump`
can write them out when the run ends.  Entry points too hot to time,
such as the serving loop's per-session ``runnable`` check, are only
counted (:data:`COUNTS`), in a pass without spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (layer, module, class or None for a module function, attribute).
#: A function imported by name into another module is wrapped at each
#: site the simulator calls it through.
SPANS: tuple[tuple[str, str, str | None, str], ...] = (
    ("tpch.generate", "repro.harness.runner", None, "generate"),
    ("tpch.generate", "repro.tpch.workload", None, "generate"),
    ("tpch.load", "repro.harness.runner", None, "load_tpch"),
    ("tpch.load", "repro.tpch.workload", None, "load_tpch"),
    ("executor", "repro.db.engine", "QueryExecution", "step"),
    ("executor", "repro.db.engine", "Database", "run_query"),
    ("bufferpool", "repro.db.bufferpool", "BufferPool", "get_page"),
    ("bufferpool", "repro.db.bufferpool", "BufferPool", "get_range"),
    ("bufferpool", "repro.db.bufferpool", "BufferPool", "get_range_batches"),
    ("bufferpool", "repro.db.bufferpool", "BufferPool", "new_page"),
    ("bufferpool", "repro.db.bufferpool", "BufferPool", "mark_dirty"),
    ("storage_manager", "repro.db.storage_manager", "StorageManager",
     "read_pages_batch"),
    ("storage_manager", "repro.db.storage_manager", "StorageManager",
     "write_page"),
    ("storage_manager", "repro.db.storage_manager", "StorageManager",
     "write_pages_batch"),
    ("classify", "repro.core.assignment", "PolicyAssignmentTable", "assign"),
    ("scheduler", "repro.storage.scheduler", "IOScheduler", "submit_batch"),
    ("scheduler", "repro.storage.scheduler", "IOScheduler", "drain"),
    ("tiers", "repro.storage.tiers", "TierChain", "submit"),
    ("stats", "repro.storage.stats", "StatsCollector", "record"),
    ("stats", "repro.storage.stats", "StatsCollector", "record_counts"),
    ("stats", "repro.storage.stats", "StatsCollector", "record_hits"),
    ("driver", "repro.serve.driver", None, "drive_round_robin"),
    ("driver", "repro.db.engine", "Database", "run_concurrent"),
    ("driver", "repro.db.txn.interleave", "InterleavedScheduler", "step"),
    ("txn.commit", "repro.db.txn.manager", "TransactionManager", "commit"),
    ("txn.checkpoint", "repro.db.txn.manager", "TransactionManager",
     "checkpoint"),
    ("wal.flush", "repro.db.txn.wal", "WriteAheadLog", "flush"),
    ("recovery", "repro.db.txn.recovery", None, "recover"),
    ("serve", "repro.serve.frontend", "ServingFrontend", "run"),
    ("admission", "repro.serve.admission", "AdmissionController", "request"),
    ("obs.tick", "repro.obs.alerts", "Monitor", "tick"),
)

#: Layers whose spans are also kept whole (a handful per run).
COARSE = frozenset({"tpch.generate", "tpch.load", "driver", "serve", "recovery"})

#: (counter, layer, module, class, attribute): calls counted, not timed.
#: Each is a method taking one argument.  Counting costs about as much as
#: the call itself, so the counters are installed in a pass of their own,
#: never beside the timing spans.
COUNTS: tuple[tuple[str, str, str, str, str], ...] = (
    ("serve.session_checks", "serve", "repro.serve.frontend", "_Session",
     "runnable"),
)

SETUP_LAYERS = frozenset({"tpch.generate", "tpch.load"})
"""The layers traced while a workload sets up."""
MEASURED_LAYERS = frozenset(layer for layer, *_ in SPANS) - SETUP_LAYERS
"""The layers traced in the measured phase."""


class Tracer:
    """Per-layer self time and per-entry-point calls on one span stack."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        """Calls per entry point, keyed ``Owner.attr``."""
        self._cells: dict[str, list[int]] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _exit(self, frame: list, started: float) -> None:
        duration = time.perf_counter() - started
        stack = self._stack
        stack.pop()
        layer = frame[1]
        self.self_s[layer] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        if layer in COARSE:
            self.spans.append({
                "layer": layer,
                "start": started,
                "end": started + duration,
                "parent": stack[-1][1] if stack else None,
            })

    def _timed_call(self, fn, layer: str, key: str):
        stack = self._stack
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = [0.0, layer]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, started)

        return wrapper

    def _timed_generator(self, fn, layer: str, key: str):
        stack = self._stack
        calls = self.calls

        def resume_timed(iterator):
            try:
                while True:
                    frame = [0.0, layer]
                    stack.append(frame)
                    started = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self._exit(frame, started)
                    yield item
            finally:
                iterator.close()

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return resume_timed(fn(*args, **kwargs))

        return wrapper

    def _counted(self, fn, name: str):
        cell = [0]
        self._cells[name] = cell

        def wrapper(obj, arg):
            cell[0] += 1
            return fn(obj, arg)

        return wrapper

    # -------------------------------------------------------- installation

    def _patch(self, module: str, owner: str | None, attr: str, make) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = vars(target)[attr]
        self._originals.append((target, attr, original))
        setattr(target, attr, make(original))

    def _wrap(self, fn, layer: str, key: str):
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(fn, layer, key)
        return self._timed_call(fn, layer, key)

    @contextmanager
    def installed(
        self, layers: frozenset[str] = MEASURED_LAYERS, counted: bool = False
    ):
        """Time the entry points of ``layers`` (and, if ``counted``, count
        the calls in :data:`COUNTS`); restore the originals on exit."""
        try:
            for layer, module, owner, attr in SPANS:
                if layer not in layers:
                    continue
                key = f"{owner or module.rsplit('.', 1)[-1]}.{attr}"
                self._patch(
                    module, owner, attr,
                    lambda fn, layer=layer, key=key: self._wrap(fn, layer, key),
                )
            for name, _, module, owner, attr in COUNTS if counted else ():
                self._patch(
                    module, owner, attr,
                    lambda fn, name=name: self._counted(fn, name),
                )
            yield self
        finally:
            while self._originals:
                target, attr, original = self._originals.pop()
                setattr(target, attr, original)

    @property
    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def counted_layers_ran(self) -> bool:
        """Whether any layer owning a counted entry point was traced."""
        return any(self.self_s.get(layer) for _, layer, *_ in COUNTS)

    def dump(self, path: Path, **meta) -> None:
        """Write the per-layer totals and the coarse spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s["start"] for s in self.spans), default=0.0)
        payload = {
            **meta,
            "self_s": dict(sorted(self.self_s.items())),
            "calls": dict(sorted(self.calls.items())),
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {**s, "start": s["start"] - origin, "end": s["end"] - origin}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
