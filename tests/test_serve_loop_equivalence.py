"""The event-calendar session loop against the scan loop it replaced.

``ScanFrontend`` keeps the original loop verbatim: every iteration
rescans every session of every class to find runnable classes, the next
wake time and the saturation point, and ``_pick_session`` walks the
whole class round-robin.  The calendar must reproduce it byte for byte
— same picks, same iteration count, same simulated world — over seeded
random small configurations that exercise the loop's corner cases:

* tenants whose sessions have no ops at all;
* a service class with no sessions;
* tied ``ready_at`` values (think times below the floor);
* DEFER verdicts whose ``retry_at`` is already at or before ``now``;
* token buckets so slow that every op after the burst waits seconds;
* the overload governor on (shedding) and off.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.db.errors import StorageConfigError
from repro.obs import dashboard_json
from repro.obs.alerts import (
    MonitorSpec,
    default_serving_rules,
    default_serving_slos,
)
from repro.serve import ClassSpec, ServeConfig, ServingFrontend, TenantSpec
from repro.serve.admission import DEFER, AdmissionDecision
from repro.serve.frontend import build_frontend
from repro.serve.governor import GovernorConfig

SCALE = 0.02
CONFIG_SEEDS = range(30)
CLASS_NAMES = ("interactive", "batch", "background")
TINY_RATE = 1.0
"""Ops per second: a tenant's ops after its burst wait ~a second each."""

#: A latency SLO no op can meet, judged over two epochs with no traffic
#: floor: the burn-rate alerts fire on the first interactive ops, so
#: governed runs really shed.
HAIR_TRIGGER_MONITOR = MonitorSpec(
    interval_seconds=0.005,
    slos=default_serving_slos(latency_threshold=1e-6),
    rules=tuple(
        replace(rule, fast_window=1, slow_window=2, min_events=0)
        for rule in default_serving_rules()
    ),
)


def _finished(session) -> bool:
    return session.ops_left == 0 and session.execution is None


class ScanFrontend(ServingFrontend):
    """The pre-calendar session loop, kept as the reference."""

    def run(self):
        db = self.db
        scheduler = db.storage.scheduler
        if self.config.fair:
            scheduler.configure_fair(
                {name: spec.weight for name, spec in self.class_map.items()}
            )
        start = db.clock.now
        monitor = self.monitor
        while True:
            now = db.clock.now
            if monitor is not None:
                monitor.tick(now)
            runnable = [
                name
                for name in sorted(self.class_map)
                if any(s.runnable(now) for s in self.sessions[name])
            ]
            if not runnable:
                horizon = min(
                    (
                        s.ready_at
                        for group in self.sessions.values()
                        for s in group
                        if not _finished(s)
                    ),
                    default=None,
                )
                if horizon is None:
                    break
                if horizon > now:
                    db.clock.advance_cpu(horizon - now)
                continue
            name = min(runnable, key=lambda n: (self._pass[n], n))
            stepped = self._run_one(name, now)
            if stepped:
                self.quanta[name] += 1
                floor = min(self._pass[n] for n in runnable)
                self._pass[name] = (
                    max(self._pass[name], floor) + self._stride[name]
                )
            if self.saturated_quanta is None and any(
                group and all(_finished(s) for s in group)
                for group in self.sessions.values()
            ):
                self.saturated_quanta = dict(self.quanta)
        if self.saturated_quanta is None:
            self.saturated_quanta = dict(self.quanta)
        if monitor is not None:
            monitor.tick(db.clock.now)
        if self.config.fair:
            scheduler.configure_fair(None)
        return self._report(db.clock.now - start)

    def _pick_session(self, name, now):
        group = self.sessions[name]
        start = self._rr[name]
        for offset in range(len(group)):
            session = group[(start + offset) % len(group)]
            if session.runnable(now):
                self._rr[name] = (start + offset + 1) % len(group)
                return session
        raise AssertionError(f"class {name!r} has no runnable session")

    def _run_one(self, name, now):
        session = self._pick_session(name, now)
        if session.execution is None and not self._admit(session, now):
            return False
        scheduler = self.db.storage.scheduler
        scheduler.begin_service_class(name)
        try:
            more = session.execution.step(self.config.quantum)
        finally:
            scheduler.end_service_class()
        if not more:
            self._complete(session)
        return True


def _zero_op_tenant(name: str, service_class: str) -> TenantSpec:
    """A tenant whose sessions have nothing to do.  Spec validation
    forbids it, but the loop must still treat such sessions as finished
    from the start."""
    tenant = TenantSpec(name=name, service_class=service_class, sessions=2)
    object.__setattr__(tenant, "ops_per_session", 0)
    return tenant


def random_config(seed: int) -> tuple[ServeConfig, bool]:
    """One small random serving config, and whether to inject stale
    DEFER verdicts into its admission."""
    rng = Random(seed)
    classes = tuple(
        ClassSpec(
            name=name,
            weight=rng.choice((1.0, 2.0, 3.0, 8.0)),
            rate_ops_per_second=rng.choice((TINY_RATE, 40.0, 1e6)),
            burst_ops=rng.randint(1, 3),
            max_inflight=rng.randint(1, 3),
            max_deferrals=rng.randint(0, 4),
            think_seconds=rng.choice((1e-9, 0.001, 0.01)),
            op_kind="point" if rng.random() < 0.7 else "scan",
        )
        for name in CLASS_NAMES
    )
    empty = CLASS_NAMES[seed % 4] if seed % 4 < 3 else None
    tenants = []
    for spec in classes:
        if spec.name == empty:
            continue
        for t in range(rng.randint(1, 2)):
            tenants.append(
                TenantSpec(
                    name=f"{spec.name}-{t}",
                    service_class=spec.name,
                    sessions=rng.randint(1, 4),
                    ops_per_session=rng.randint(1, 3),
                )
            )
        if rng.random() < 0.3:
            tenants.append(_zero_op_tenant(f"{spec.name}-idle", spec.name))
    governor = seed % 2 == 0
    monitored = governor or rng.random() < 0.5
    config = ServeConfig(
        seed=seed,
        quantum=rng.choice((16, 64, 256)),
        lookups_per_op=rng.randint(1, 4),
        fair=rng.random() < 0.8,
        classes=classes,
        tenants=tuple(tenants),
        monitor=HAIR_TRIGGER_MONITOR if monitored else None,
        governor=GovernorConfig() if governor else None,
    )
    return config, seed % 3 == 0


def inject_stale_defers(frontend: ServingFrontend) -> list[int]:
    """Answer every third first-try admission request with a DEFER whose
    ``retry_at`` is ``now`` or already past; returns a one-cell counter
    of the DEFERs injected."""
    request = frontend.admission.request
    calls, injected = [0], [0]

    def stale_defer_request(tenant, service_class, now, deferrals):
        calls[0] += 1
        if deferrals == 0 and calls[0] % 3 == 0:
            injected[0] += 1
            retry_at = now - 1e-4 * (calls[0] % 2)
            return AdmissionDecision(DEFER, retry_at=retry_at)
        return request(tenant, service_class, now, deferrals)

    frontend.admission.request = stale_defer_request
    return injected


def serve(config: ServeConfig, stale_defers: bool, cls=ServingFrontend):
    """Run ``config`` on a fresh database with the given loop; return its
    observable outputs."""
    frontend = cls(build_frontend(config, scale=SCALE).db, config)
    injected = inject_stale_defers(frontend) if stale_defers else [0]
    ready_at = [s.ready_at for g in frontend.sessions.values() for s in g]
    report = frontend.run()
    return {
        "report": report.to_json(),
        "dashboard": (
            dashboard_json(frontend.monitor, governor=frontend.governor)
            if frontend.monitor is not None
            else None
        ),
        "sessions": [
            (s.ops_completed, s.ops_rejected, s.ready_at)
            for group in frontend.sessions.values()
            for s in group
        ],
        "tied_arrivals": len(set(ready_at)) < len(ready_at),
        "stale_defers": injected[0],
        "sheds": frontend.governor.sheds if frontend.governor else 0,
    }


@pytest.mark.parametrize("seed", CONFIG_SEEDS)
def test_calendar_matches_scan_loop(seed):
    config, stale_defers = random_config(seed)
    calendar = serve(config, stale_defers)
    reference = serve(config, stale_defers, cls=ScanFrontend)
    assert calendar == reference


def test_random_configs_cover_the_corner_cases():
    """The seeded configs really exercise what the module docstring
    promises (checked on the calendar loop, which matches the scan)."""
    cases = [random_config(seed) for seed in CONFIG_SEEDS]
    configs = [config for config, _ in cases]
    runs = [serve(*case) for case in cases]
    assert any(
        t.ops_per_session == 0 for c in configs for t in c.tenants
    )
    assert any(
        {t.service_class for t in c.tenants} != set(CLASS_NAMES)
        for c in configs
    )
    assert any(
        spec.rate_ops_per_second == TINY_RATE
        for c in configs
        for spec in c.classes
    )
    assert any(c.governor is None for c in configs)
    assert any(run["tied_arrivals"] for run in runs)
    assert any(run["stale_defers"] for run in runs)
    assert any(run["sheds"] for run in runs)


def test_pick_rejects_a_ready_session_that_is_not_runnable():
    config, _ = random_config(1)
    frontend = build_frontend(config, scale=SCALE)
    name = next(n for n, group in frontend.sessions.items() if group)
    frontend._ready[name].append(0)  # listed ready, still thinking
    with pytest.raises(StorageConfigError, match="not runnable"):
        frontend._pick_session(name, 0.0)
