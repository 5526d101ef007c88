"""The multi-tenant serving front-end (DESIGN.md §15).

A deterministic, cooperative event loop over the simulated clock:
client *sessions* arrive according to a seeded process, think between
operations, pass every operation through per-tenant admission control
(:mod:`repro.serve.admission`), and advance admitted operations one
engine quantum at a time.  A *stride scheduler* picks which service
class runs each quantum — classes receive quanta proportionally to
their weight whenever they have runnable work — and the same weights
drive weighted-fair dispatch inside the
:class:`~repro.storage.scheduler.IOScheduler`, so CPU-quantum shares
and block-dispatch shares tell one consistent QoS story.

Everything observable — the admit/defer/reject sequence, per-class
latency histograms, the final JSON report — is a pure function of the
:class:`ServeConfig` (seed included), which is the property the serving
benchmarks gate on byte-for-byte.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from random import Random

from repro.db.engine import Database
from repro.db.errors import StorageConfigError
from repro.obs.alerts import Monitor, MonitorSpec
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import ADMIT, REJECT, AdmissionController
from repro.serve.governor import GovernorConfig, OverloadGovernor
from repro.serve.tenants import (
    DEFAULT_CLASSES,
    ClassSpec,
    TenantSpec,
    default_tenants,
    op_builder,
)

_SESSION_SEED_STRIDE = 1_000_003
"""Session seeds are ``config.seed * stride + session_index`` — integer
derivation only, so determinism never depends on string hashing."""

_MIN_THINK_SECONDS = 1e-6
"""Floor under drawn think times: keeps every rescheduled session
strictly in the future, so the loop always makes progress."""


@dataclass(frozen=True)
class ServeConfig:
    """Everything that defines one serving run (the determinism input)."""

    seed: int = 42
    quantum: int = 64
    lookups_per_op: int = 4
    """Index point lookups per interactive operation."""
    fair: bool = True
    """Install weighted-fair dispatch in the I/O scheduler."""
    classes: tuple[ClassSpec, ...] = DEFAULT_CLASSES
    tenants: tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    monitor: MonitorSpec | None = None
    """Optional time-series monitoring pipeline (DESIGN.md §16).
    ``None`` (the default) attaches nothing: no sampler, no SLOs, no
    alerts — the bit-identical PR 9 path."""
    governor: GovernorConfig | None = None
    """Optional overload governor closing the alert → admission loop.
    Requires ``monitor``; off by default (purely passive monitoring)."""

    def class_map(self) -> dict[str, ClassSpec]:
        mapping = {spec.name: spec for spec in self.classes}
        if len(mapping) != len(self.classes):
            raise StorageConfigError("duplicate service class names")
        for tenant in self.tenants:
            if tenant.service_class not in mapping:
                raise StorageConfigError(
                    f"tenant {tenant.name!r} maps to unknown class "
                    f"{tenant.service_class!r}"
                )
        return mapping


class _Session:
    """One client session: an op budget, a think-time generator, state."""

    __slots__ = (
        "tenant", "spec", "rng", "ops_left", "ready_at", "op_arrival",
        "deferrals", "execution", "ops_completed", "ops_rejected",
    )

    def __init__(
        self, tenant: TenantSpec, spec: ClassSpec, seed: int
    ) -> None:
        self.tenant = tenant
        self.spec = spec
        self.rng = Random(seed)
        self.ops_left = tenant.ops_per_session
        self.ready_at = self._think()  # arrival offset of the first op
        self.op_arrival = self.ready_at
        self.deferrals = 0
        self.execution = None
        self.ops_completed = 0
        self.ops_rejected = 0

    def _think(self) -> float:
        u = self.rng.random()
        return max(_MIN_THINK_SECONDS, -math.log1p(-u) * self.spec.think_seconds)

    def runnable(self, now: float) -> bool:
        if self.execution is not None:
            return True
        return self.ops_left > 0 and self.ready_at <= now

    def schedule_next(self, now: float) -> None:
        """The current op is over; think, then arrive with the next."""
        self.deferrals = 0
        if self.ops_left > 0:
            self.ready_at = now + self._think()
            self.op_arrival = self.ready_at


@dataclass
class ServingReport:
    """Deterministic outcome of one serving run (the JSON artifact)."""

    seed: int
    quantum: int
    elapsed_seconds: float
    classes: dict
    tenants: dict
    scheduler: dict

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "quantum": self.quantum,
            "elapsed_seconds": self.elapsed_seconds,
            "classes": self.classes,
            "tenants": self.tenants,
            "scheduler": self.scheduler,
        }

    def to_json(self) -> str:
        """Canonical rendering — the byte-identity fixture."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class ServingFrontend:
    """Drives tenant sessions against one database, deterministically."""

    def __init__(self, db: Database, config: ServeConfig) -> None:
        self.db = db
        self.config = config
        self.class_map = config.class_map()
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            self.class_map, metrics=self.metrics
        )
        self.monitor: Monitor | None = None
        self.governor: OverloadGovernor | None = None
        if config.monitor is not None:
            self.monitor = Monitor(
                self.metrics,
                spec=config.monitor,
                collectors=(self._collect_runtime_gauges,),
            )
            if config.governor is not None:
                self.governor = OverloadGovernor(
                    self.admission, config.governor
                )
                self.monitor.subscribe(self.governor.on_alert)
        elif config.governor is not None:
            raise StorageConfigError(
                "a governor needs a monitor to drive it"
            )
        self.quanta: dict[str, int] = {name: 0 for name in self.class_map}
        self.saturated_quanta: dict[str, int] | None = None
        """Snapshot of per-class quanta at the moment the first class ran
        out of work — the window over which every class had demand, i.e.
        the fair-share measurement the benchmark gates on."""
        self.sessions: dict[str, list[_Session]] = {
            name: [] for name in self.class_map
        }
        index = 0
        for tenant in config.tenants:
            spec = self.class_map[tenant.service_class]
            for _ in range(tenant.sessions):
                seed = config.seed * _SESSION_SEED_STRIDE + index
                index += 1
                self.sessions[tenant.service_class].append(
                    _Session(tenant, spec, seed)
                )
        self._rr: dict[str, int] = {name: 0 for name in self.class_map}
        # The event calendar (DESIGN.md §15): per class, the sorted
        # indices of runnable sessions and a wake heap of (ready_at,
        # index) for the thinking and deferred ones.  A session with no
        # ops left is on neither.  A session leaves the ready list only
        # in ``_run_one``, so no iteration has to scan the sessions.
        self._ready: dict[str, list[int]] = {n: [] for n in self.class_map}
        self._wake: dict[str, list[tuple[float, int]]] = {}
        for name, group in self.sessions.items():
            waiting = [
                (s.ready_at, i) for i, s in enumerate(group) if s.ops_left
            ]
            heapify(waiting)
            self._wake[name] = waiting
        stride_one = float(1 << 16)
        self._stride = {
            name: stride_one / spec.weight
            for name, spec in self.class_map.items()
        }
        self._pass = dict(self._stride)

    # ------------------------------------------------------------- the loop

    def run(self) -> ServingReport:
        db = self.db
        scheduler = db.storage.scheduler
        if self.config.fair:
            scheduler.configure_fair(
                {name: spec.weight for name, spec in self.class_map.items()}
            )
        start = db.clock.now
        monitor = self.monitor
        names, ready, wake = sorted(self.class_map), self._ready, self._wake
        while True:
            now = db.clock.now
            if monitor is not None:
                # Purely passive unless a governor listener acts: the
                # monitor reads the clock and the registry, never the
                # reverse (DESIGN.md §16).
                monitor.tick(now)
            for name in names:
                heap = wake[name]
                while heap and heap[0][0] <= now:
                    insort(ready[name], heappop(heap)[1])
            runnable = [name for name in names if ready[name]]
            if not runnable:
                horizon = min(
                    (wake[name][0][0] for name in names if wake[name]),
                    default=None,
                )
                if horizon is None:
                    break  # every session drained
                if horizon > now:
                    db.clock.advance_cpu(horizon - now)
                continue
            name = min(runnable, key=lambda n: (self._pass[n], n))
            stepped = self._run_one(name, now)
            if stepped:
                self.quanta[name] += 1
                # An idle class re-enters at the current leader's pass so
                # it cannot bank credit while it had nothing to run.
                floor = min(self._pass[n] for n in runnable)
                self._pass[name] = (
                    max(self._pass[name], floor) + self._stride[name]
                )
            if self.saturated_quanta is None and any(
                self.sessions[n] and not ready[n] and not wake[n]
                for n in names
            ):
                self.saturated_quanta = dict(self.quanta)
        if self.saturated_quanta is None:
            self.saturated_quanta = dict(self.quanta)
        if monitor is not None:
            monitor.tick(db.clock.now)  # close the final epoch
        if self.config.fair:
            scheduler.configure_fair(None)
        return self._report(db.clock.now - start)

    def _collect_runtime_gauges(self) -> None:
        """Mirror scheduler queue depths and per-class in-flight counts
        into the scraped registry right before an epoch sample."""
        scheduler = self.db.storage.scheduler
        g = self.metrics.gauge
        g("sched_queued_writebacks").set(scheduler.queued_writebacks)
        by_class = scheduler.queued_by_class()
        for name in sorted(set(by_class) | set(self.class_map)):
            g("sched_queued_writebacks", cls=name).set(
                by_class.get(name, 0)
            )
        for name in sorted(self.class_map):
            g("admission_inflight", cls=name).set(
                self.admission.class_inflight(name)
            )

    def _pick_session(self, name: str, now: float) -> int:
        """Round robin over the ready list: the first ready session at or
        after the class cursor, wrapping to the first one."""
        ready = self._ready[name]
        group = self.sessions[name]
        pos = bisect_left(ready, self._rr[name])
        index = ready[pos] if pos < len(ready) else ready[0]
        if not group[index].runnable(now):
            raise StorageConfigError(
                f"class {name!r}: ready session {index} is not runnable"
            )
        self._rr[name] = (index + 1) % len(group)
        return index

    def _run_one(self, name: str, now: float) -> bool:
        """Advance one session of a class; True if a quantum was served."""
        index = self._pick_session(name, now)
        session = self.sessions[name][index]
        if session.execution is None and not self._admit(session, now):
            self._park(name, index)
            return False
        scheduler = self.db.storage.scheduler
        scheduler.begin_service_class(name)
        try:
            more = session.execution.step(self.config.quantum)
        finally:
            scheduler.end_service_class()
        if not more:
            self._complete(session)
            self._park(name, index)
        return True

    def _park(self, name: str, index: int) -> None:
        """Take a session whose op was deferred, rejected or completed off
        the ready list: onto the wake heap, or out if it has no ops left."""
        ready = self._ready[name]
        del ready[bisect_left(ready, index)]
        session = self.sessions[name][index]
        if session.ops_left:
            heappush(self._wake[name], (session.ready_at, index))

    def _admit(self, session: _Session, now: float) -> bool:
        tenant = session.tenant.name
        name = session.spec.name
        decision = self.admission.request(
            tenant, name, now, session.deferrals
        )
        obs = self.db.observer
        if obs is not None and obs.enabled:
            obs.on_admission(tenant, decision.verdict)
        if decision.verdict == ADMIT:
            session.deferrals = 0
            fractions = tuple(
                session.rng.random()
                for _ in range(self.config.lookups_per_op)
            )
            builder = op_builder(session.spec, fractions)
            session.execution = self.db.start_query(
                builder, label=f"serve:{name}", collect=False
            )
            return True
        if decision.verdict == REJECT:
            session.ops_rejected += 1
            session.ops_left -= 1
            self.metrics.counter("serve_rejected", cls=name).inc()
            session.schedule_next(now)
            return False
        session.deferrals += 1
        session.ready_at = decision.retry_at
        return False

    def _complete(self, session: _Session) -> None:
        session.execution.result()  # settles writebacks, closes the span
        session.execution = None
        name = session.spec.name
        tenant = session.tenant.name
        self.admission.release(tenant, name)
        latency = self.db.clock.now - session.op_arrival
        self.metrics.counter("serve_ops", cls=name).inc()
        self.metrics.histogram("serve_latency_seconds", cls=name).observe(
            latency
        )
        self.metrics.histogram(
            "serve_latency_seconds", cls=name, tenant=tenant
        ).observe(latency)
        obs = self.db.observer
        if obs is not None and obs.enabled:
            obs.on_serve_op(name, tenant, latency)
        session.ops_completed += 1
        session.ops_left -= 1
        session.schedule_next(self.db.clock.now)

    # ------------------------------------------------------------ reporting

    def _report(self, elapsed: float) -> ServingReport:
        scheduler = self.db.storage.scheduler
        admission = self.admission.counters()
        by_class: dict = {}
        for name in sorted(self.class_map):
            spec = self.class_map[name]
            group = self.sessions[name]
            tenants = {s.tenant.name for s in group}
            deferred = sum(
                admission.get(t, {}).get("deferred", 0) for t in tenants
            )
            rejected = sum(s.ops_rejected for s in group)
            hist = self.metrics.histogram("serve_latency_seconds", cls=name)
            by_class[name] = {
                "weight": spec.weight,
                "sessions": len(group),
                "quanta": self.quanta[name],
                "saturated_quanta": (self.saturated_quanta or {}).get(
                    name, 0
                ),
                "ops_completed": sum(s.ops_completed for s in group),
                "ops_rejected": rejected,
                "ops_deferred": deferred,
                "blocks_dispatched": scheduler.class_blocks.get(name, 0),
                "dispatch_seconds": scheduler.class_sync_seconds.get(
                    name, 0.0
                ),
                "latency": hist.summary(),
            }
        by_tenant: dict = {}
        for group in self.sessions.values():
            for session in group:
                tenant = session.tenant.name
                entry = by_tenant.setdefault(
                    tenant,
                    {
                        "class": session.spec.name,
                        "sessions": 0,
                        "ops_completed": 0,
                        "ops_rejected": 0,
                        "admission": admission.get(
                            tenant,
                            {"admitted": 0, "deferred": 0, "rejected": 0},
                        ),
                    },
                )
                entry["sessions"] += 1
                entry["ops_completed"] += session.ops_completed
                entry["ops_rejected"] += session.ops_rejected
        for tenant in by_tenant:
            hist = self.metrics.histogram(
                "serve_latency_seconds",
                cls=by_tenant[tenant]["class"],
                tenant=tenant,
            )
            by_tenant[tenant]["latency"] = hist.summary()
        return ServingReport(
            seed=self.config.seed,
            quantum=self.config.quantum,
            elapsed_seconds=elapsed,
            classes=by_class,
            tenants=dict(sorted(by_tenant.items())),
            scheduler={
                "dispatches": scheduler.dispatches,
                "blocks_dispatched": scheduler.blocks_dispatched,
                "class_dispatches": dict(
                    sorted(scheduler.class_dispatches.items())
                ),
                "class_blocks": dict(sorted(scheduler.class_blocks.items())),
            },
        )


def build_frontend(
    config: ServeConfig | None = None,
    kind: str = "hstorage",
    scale: float = 0.02,
    db: Database | None = None,
) -> ServingFrontend:
    """Build a loaded database (unless given one) and a front-end on it.

    Callers that need the monitoring pipeline after the run (dashboard
    exports, governor action logs) keep the returned frontend; plain
    serving runs use :func:`run_serving`.
    """
    from repro.harness.configs import StorageConfig, build_database
    from repro.tpch.workload import load_tpch

    if config is None:
        config = ServeConfig()
    if db is None:
        storage = StorageConfig(
            kind=kind, cache_blocks=2048, bufferpool_pages=128
        )
        db = build_database(storage)
        load_tpch(db, scale=scale, seed=config.seed)
        db.reset_measurements()
    return ServingFrontend(db, config)


def run_serving(
    config: ServeConfig | None = None,
    kind: str = "hstorage",
    scale: float = 0.02,
    db: Database | None = None,
) -> ServingReport:
    """Build a loaded database (unless given one) and run the front-end."""
    return build_frontend(config, kind=kind, scale=scale, db=db).run()
