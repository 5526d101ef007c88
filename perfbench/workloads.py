"""The benchmark's four workloads: set-up, measured phase, output checks.

Each workload is a pair of steps.  ``setup(seed)`` generates the TPC-H
data and builds and loads every database the workload uses (and
pre-warms the serving database); ``measure(state, seed)`` runs the
measured phase on those databases and reduces it to a :class:`Pass`.
The seed reaches the simulator only through the generated data and the
workload configs.

* ``power`` — the Fig 11 / Table 8 power sequence (RF1, the 22 queries
  in ``POWER_ORDER``, RF2) on one database per config: HDD-only,
  hStorage-DB, SSD-only.  Scale 1.0, SSD cache 70 % of the database.
* ``throughput`` — the Table 9 test: three query streams plus one
  RF1/RF2 update stream through ``drive_round_robin`` (quantum 64), on
  all four configs.  Scale 0.24, SSD cache 25 % of the database.
* ``overload`` — the governed arm of the overload experiment, 1,000
  sessions of 6 ops each, on a pre-warmed 72-page database, on HDD-only
  and hStorage-DB.  The database fits the buffer pool, so the HDD-only arm is
  the control that bypasses storage.
* ``oltp_mixed`` — WAL-logged point-update transactions from four
  writer streams on 64 hot keys beside Q1, Q6 and an orders scan under
  MVCC snapshots, then a crash at the forced WAL position and recovery,
  on HDD-only and hStorage-DB.

Every pass checks its outputs (answers equal across configs, admission
accounting closed, commits complete, recovery restores the orders table)
and fingerprints every simulated number and answer, so repeated passes
of one seed can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.db.executor import SeqScan
from repro.db.txn import recovery
from repro.harness.configs import CONFIG_NAMES, StorageConfig, build_database
from repro.harness.experiments import PAPER_TABLE8, PAPER_TABLE9
from repro.harness.mixed import InterleavedPointUpdates
from repro.harness.runner import ExperimentRunner, RunnerSettings
from repro.serve import driver
from repro.serve.frontend import build_frontend
from repro.serve.overload import (
    OVERLOAD_LATENCY_THRESHOLD,
    build_overload_db,
    overload_config,
)
from repro.tpch import workload as tpch_workload
from repro.tpch.queries import query_builder, query_label
from repro.tpch.refresh import rf1_builder, rf2_builder
from repro.tpch.streams import POWER_ORDER, THROUGHPUT_ORDERS


@dataclass
class Pass:
    """One measured phase, reduced to what the benchmark reports."""

    speedup_vs_hdd: float
    """HDD-only over hStorage-DB: simulated time, or queries per
    simulated hour on ``throughput``."""
    goodput: float
    """Share of attempted operations that completed (within the SLO,
    where the workload sets one)."""
    attempted: int
    fingerprint: str
    """SHA-256 over every simulated number and answer of the pass."""
    results: dict[str, float] = field(default_factory=dict)
    """Workload-specific simulated figures (``result.*`` metrics)."""
    counters: dict[str, float] = field(default_factory=dict)
    """The simulator's own per-layer counters, summed over databases."""
    errors: list[str] = field(default_factory=list)
    """Failed output checks."""
    info: list[str] = field(default_factory=list)
    """Lines printed beside the metrics (paper values, raw figures)."""


QUANTUM = 64
"""Rows a cooperative driver runs on one workload before it switches."""
ARM_KINDS = ("hdd", "hstorage")
"""The configs of ``overload`` and ``oltp_mixed``: HDD-only and hStorage-DB."""


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# --------------------------------------------------------------- counters


def _devices(db):
    return [tier.device for tier in db.storage.backend.tiers]


def snapshot_counters(db) -> dict[str, float]:
    """The simulator's own counters for one database, by metric name."""
    pool = db.pool
    scheduler = db.storage.scheduler
    out: dict[str, float] = {
        "bufferpool.hits": pool.hits,
        "bufferpool.misses": pool.misses,
        "bufferpool.evictions": pool.evictions,
        "scheduler.requests": scheduler.requests_accepted,
        "scheduler.dispatches": scheduler.dispatches,
    }
    if db.storage.backend.cache is not None:
        overall = db.storage.stats.overall.total
        out["cache.hits"] = overall.cache_hits
        out["cache.misses"] = overall.cache_misses
    for device in _devices(db):
        out[f"device.{device.name}.blocks_read"] = device.blocks_read
        out[f"device.{device.name}.blocks_written"] = device.blocks_written
        out[f"device.{device.name}.busy_sim_s"] = device.busy_seconds
    mgr = db.txn_manager
    if mgr is not None:
        out["wal.forces"] = mgr.wal.flushes
        out["locks.waits"] = mgr.locks.stats.waits
        out["mvcc.snapshot_reads"] = mgr.mvcc.snapshot_reads
    return out


def counter_delta(before: list[dict], dbs: list) -> dict[str, float]:
    """Counters accumulated since ``before`` (one snapshot per database),
    summed over the databases."""
    total: dict[str, float] = {}
    for start, db in zip(before, dbs):
        for name, value in snapshot_counters(db).items():
            total[name] = total.get(name, 0) + value - start.get(name, 0)
    return total


# ------------------------------------------------------------------ power


POWER_KINDS = ("hdd", "hstorage", "ssd")


@dataclass(frozen=True)
class PowerSpec:
    scale: float = 1.0


def power_setup(spec: PowerSpec, seed: int):
    runner = ExperimentRunner(RunnerSettings(scale=spec.scale, seed=seed))
    return [(kind, *runner.fresh_database(kind)) for kind in POWER_KINDS]


def power_measure(spec: PowerSpec, state, seed: int) -> Pass:
    dbs = [db for _, db, _ in state]
    before = [snapshot_counters(db) for db in dbs]
    totals: dict[str, float] = {}
    answers: dict[str, list[str]] = {}
    record = []
    for kind, db, meta in state:
        steps = (
            [("RF1", rf1_builder(meta))]
            + [(query_label(q), query_builder(q)) for q in POWER_ORDER]
            + [("RF2", rf2_builder(meta))]
        )
        totals[kind] = 0.0
        answers[kind] = []
        for label, builder in steps:
            result = db.run_query(builder, label=label)
            totals[kind] += result.sim_seconds
            answers[kind].append(_digest(label, result.rows))
            record.append((kind, label, result.sim_seconds))
    errors = [
        f"power: {kind} answers differ from {POWER_KINDS[0]}"
        for kind in POWER_KINDS
        if answers[kind] != answers[POWER_KINDS[0]]
    ]
    hstorage = totals["hstorage"]
    speedup = totals["hdd"] / hstorage
    gap = hstorage / totals["ssd"]
    paper_speedup = PAPER_TABLE8["hdd"] / PAPER_TABLE8["hstorage"]
    paper_gap = PAPER_TABLE8["hstorage"] / PAPER_TABLE8["ssd"]
    steps_run = sum(len(a) for a in answers.values())
    return Pass(
        speedup_vs_hdd=speedup,
        goodput=1.0,
        attempted=steps_run,
        fingerprint=_digest(record, answers),
        results={"sim_s": hstorage, "ssd_gap": gap},
        counters=counter_delta(before, dbs),
        errors=errors,
        info=[
            "Table 8 total (sim s): "
            + ", ".join(f"{k} {totals[k]:.3f}" for k in POWER_KINDS),
            f"speedup_vs_hdd {speedup:.3f} (paper {paper_speedup:.3f}); "
            f"ssd_gap {gap:.3f} (paper {paper_gap:.3f})",
        ],
    )


# ------------------------------------------------------------- throughput


THROUGHPUT_STREAMS = 3
"""Query streams of the Table 9 test, beside its one RF1/RF2 stream."""


@dataclass(frozen=True)
class ThroughputSpec:
    scale: float = 0.6
    """Runner scale; the test runs at ``scale * throughput_scale_factor``
    (0.24 with the runner's factor 0.4, the paper's SF 10 against SF 30)."""


def throughput_setup(spec: ThroughputSpec, seed: int):
    settings = RunnerSettings(scale=spec.scale, seed=seed)
    runner = ExperimentRunner(settings)
    scale = settings.scale * settings.throughput_scale_factor
    return [
        (kind, *runner.fresh_database(kind, scale=scale, throughput=True))
        for kind in CONFIG_NAMES
    ]


def _collect_rows(db) -> None:
    """Make every query the driver starts on ``db`` keep its rows, so
    answers can be compared across configs (row collection charges no
    simulated time)."""
    start_query = db.start_query

    def start_collecting(builder, label, collect=False, snapshot=None):
        return start_query(builder, label, True, snapshot)

    db.start_query = start_collecting


def throughput_measure(spec: ThroughputSpec, state, seed: int) -> Pass:
    dbs = [db for _, db, _ in state]
    before = [snapshot_counters(db) for db in dbs]
    qph: dict[str, float] = {}
    answers: dict[str, list] = {}
    record = []
    for kind, db, meta in state:
        streams = [
            [
                (query_label(q), query_builder(q))
                for q in THROUGHPUT_ORDERS[(n % len(THROUGHPUT_ORDERS)) + 1]
            ]
            for n in range(THROUGHPUT_STREAMS)
        ]
        streams.append(
            [("RF1", rf1_builder(meta)), ("RF2", rf2_builder(meta))]
            * THROUGHPUT_STREAMS
        )
        _collect_rows(db)
        start = db.clock.now
        per_stream = driver.drive_round_robin(db, streams, QUANTUM)
        elapsed = db.clock.now - start
        queries = sum(len(s) for s in per_stream[:THROUGHPUT_STREAMS])
        qph[kind] = queries * 3600.0 / elapsed
        answers[kind] = [
            [_digest(r.label, r.rows) for r in stream] for stream in per_stream
        ]
        record.append(
            (kind, elapsed, [[r.sim_seconds for r in s] for s in per_stream])
        )
    errors = [
        f"throughput: {kind} answers differ from {CONFIG_NAMES[0]}"
        for kind in CONFIG_NAMES
        if answers[kind] != answers[CONFIG_NAMES[0]]
    ]
    hstorage = qph["hstorage"]
    results = {
        "sim_s": record[CONFIG_NAMES.index("hstorage")][1],
        "speedup_vs_hdd": hstorage / qph["hdd"],
        "speedup_vs_lru": hstorage / qph["lru"],
        "ssd_gap": qph["ssd"] / hstorage,
        "qph": hstorage,
    }
    paper = {
        "speedup_vs_hdd": PAPER_TABLE9["hstorage"] / PAPER_TABLE9["hdd"],
        "speedup_vs_lru": PAPER_TABLE9["hstorage"] / PAPER_TABLE9["lru"],
        "ssd_gap": PAPER_TABLE9["ssd"] / PAPER_TABLE9["hstorage"],
    }
    items = sum(len(s) for a in answers.values() for s in a)
    return Pass(
        speedup_vs_hdd=results["speedup_vs_hdd"],
        goodput=1.0,
        attempted=items,
        fingerprint=_digest(record, answers),
        results=results,
        counters=counter_delta(before, dbs),
        errors=errors,
        info=[
            "Table 9 queries/sim-hour: "
            + ", ".join(f"{k} {qph[k]:.1f}" for k in CONFIG_NAMES),
            "; ".join(
                f"{name} {results[name]:.3f} (paper {paper[name]:.3f})"
                for name in paper
            ),
        ],
    )


# --------------------------------------------------------------- overload


@dataclass(frozen=True)
class OverloadSpec:
    sessions: int = 1000
    ops_per_session: int = 6


def overload_setup(spec: OverloadSpec, seed: int):
    return [(kind, build_overload_db(seed, kind=kind)) for kind in ARM_KINDS]


def _serve(spec: OverloadSpec, db, seed: int):
    """One governed overload arm on ``db``; returns its frontend and
    report plus the output-check failures."""
    config = overload_config(
        seed, spec.sessions, spec.ops_per_session, governor=True
    )
    frontend = build_frontend(config, db=db)
    report = frontend.run()
    attempted: dict[str, int] = {}
    for tenant in config.tenants:
        attempted[tenant.service_class] = (
            attempted.get(tenant.service_class, 0)
            + tenant.sessions * tenant.ops_per_session
        )
    errors = []
    for cls, expected in sorted(attempted.items()):
        entry = report.classes[cls]
        done = entry["ops_completed"] + entry["ops_rejected"]
        if done != expected:
            errors.append(
                f"overload: {cls} completed+rejected {done} != {expected}"
            )
    return frontend, report, attempted, errors


def overload_measure(spec: OverloadSpec, state, seed: int) -> Pass:
    dbs = [db for _, db in state]
    before = [snapshot_counters(db) for db in dbs]
    arms = {kind: _serve(spec, db, seed) for kind, db in state}
    frontend, report, attempted, _ = arms["hstorage"]
    errors = [e for arm in arms.values() for e in arm[3]]
    hist = frontend.metrics.histogram("serve_latency_seconds", cls="interactive")
    interactive = attempted["interactive"]
    within_slo = hist.count_below(OVERLOAD_LATENCY_THRESHOLD)
    total = sum(attempted.values())
    rejected = sum(entry["ops_rejected"] for entry in report.classes.values())
    counters = counter_delta(before, dbs)
    for arm_frontend, *_ in arms.values():
        admission = arm_frontend.admission.counters()
        for name, key in (("admission.defers", "deferred"),
                          ("admission.rejects", "rejected")):
            counters[name] = counters.get(name, 0) + sum(
                t[key] for t in admission.values()
            )
        counters["governor.sheds"] = (
            counters.get("governor.sheds", 0) + arm_frontend.governor.sheds
        )
    elapsed = {kind: arm[1].elapsed_seconds for kind, arm in arms.items()}
    results = {
        "sim_s": elapsed["hstorage"],
        "p50_ms": hist.percentile(50) * 1e3,
        "p99_ms": hist.percentile(99) * 1e3,
        "slo_goodput": within_slo / interactive,
        "failed_share": rejected / total,
    }
    return Pass(
        speedup_vs_hdd=elapsed["hdd"] / elapsed["hstorage"],
        goodput=within_slo / interactive,
        attempted=total * len(arms),
        fingerprint=_digest([arm[1].to_json() for arm in arms.values()]),
        results=results,
        counters=counters,
        errors=errors,
        info=[
            "serving elapsed (sim s): "
            + ", ".join(f"{k} {v:.4f}" for k, v in elapsed.items()),
            f"interactive: {hist.count} completed of {interactive}, "
            f"{within_slo} within {OVERLOAD_LATENCY_THRESHOLD * 1e3:g} ms; "
            f"p50 {results['p50_ms']:.4f} ms, p99 {results['p99_ms']:.3f} ms",
            f"rejected {rejected} of {total} serving ops; "
            f"governor sheds {frontend.governor.sheds}",
        ],
    )


# ------------------------------------------------------------- oltp_mixed


UPDATES_PER_TXN = 4
WRITER_STREAMS = 4
OLAP_QUERIES = (1, 6)
"""The TPC-H queries run beside the writers (with an orders scan)."""


@dataclass(frozen=True)
class OltpMixedSpec:
    scale: float = 0.5
    txns: int = 2000
    hot_keys: int = 64


def oltp_mixed_setup(spec: OltpMixedSpec, seed: int):
    state = []
    for kind in ARM_KINDS:
        db = build_database(
            StorageConfig(kind=kind, cache_blocks=2048, bufferpool_pages=128)
        )
        tpch_workload.load_tpch(db, scale=spec.scale, seed=seed)
        db.enable_wal()
        db.reset_measurements()
        state.append((kind, db))
    return state


def _orders_rows(db) -> list:
    heap = db.catalog.relation("orders").heap
    return sorted(
        row for page in heap.file.pages for row in page.rows if row is not None
    )


def _mix(spec: OltpMixedSpec, db, seed: int) -> dict:
    """One interleaved OLTP/OLAP run on ``db``, then crash and recovery."""
    mgr = db.txn_manager
    commits_before = mgr.commits
    oltp = InterleavedPointUpdates(
        db,
        spec.txns,
        UPDATES_PER_TXN,
        streams=WRITER_STREAMS,
        seed=seed,
        hot_keys=spec.hot_keys,
    )
    workloads = [
        (query_label(q), query_builder(q), True) for q in OLAP_QUERIES
    ]
    workloads.append(
        ("OrdersScan", lambda db: SeqScan(db.catalog.relation("orders")), True)
    )
    workloads.append(("OLTP", lambda db: oltp))
    start = db.clock.now
    results = db.run_concurrent(workloads, quantum=QUANTUM, collect=True)
    elapsed = db.clock.now - start
    commits = mgr.commits - commits_before
    counters = snapshot_counters(db)
    counters["txn.deadlock_retries"] = oltp.retries
    counters["txn.blocked_sim_s"] = oltp.scheduler.blocked_seconds
    committed = _orders_rows(db)
    recovery.simulate_crash(db)
    report = recovery.recover(db)
    return {
        "elapsed": elapsed,
        "commits": commits,
        "retries": oltp.retries,
        "answers": [_digest(r.label, r.rows) for r in results[:-1]],
        "committed": _digest(committed),
        "recovered": _orders_rows(db) == committed,
        "recovery": (report.sim_seconds, report.redo_applied,
                     report.undo_applied),
        "counters": counters,
        "sims": [r.sim_seconds for r in results],
    }


def oltp_mixed_measure(spec: OltpMixedSpec, state, seed: int) -> Pass:
    dbs = [db for _, db in state]
    before = [snapshot_counters(db) for db in dbs]
    arms = {kind: _mix(spec, db, seed) for kind, db in state}
    counters: dict[str, float] = {}
    for start, arm in zip(before, arms.values()):
        for name, value in arm["counters"].items():
            counters[name] = counters.get(name, 0) + value - start.get(name, 0)
    errors = []
    for kind, arm in arms.items():
        if arm["commits"] != spec.txns:
            errors.append(
                f"oltp_mixed: {kind} {arm['commits']} commits, "
                f"{spec.txns} requested"
            )
        if not arm["recovered"]:
            errors.append(
                f"oltp_mixed: {kind} orders after recovery differ from before"
            )
    first = ARM_KINDS[0]
    for kind, arm in arms.items():
        for key in ("answers", "committed"):
            if arm[key] != arms[first][key]:
                errors.append(f"oltp_mixed: {kind} {key} differ from {first}")
    arm = arms["hstorage"]
    elapsed, commits = arm["elapsed"], arm["commits"]
    return Pass(
        speedup_vs_hdd=arms["hdd"]["elapsed"] / elapsed,
        goodput=commits / (commits + arm["retries"]),
        attempted=sum(
            a["commits"] + a["retries"] + len(a["answers"])
            for a in arms.values()
        ),
        fingerprint=_digest(
            [(k, {n: v for n, v in a.items() if n != "counters"})
             for k, a in arms.items()]
        ),
        results={"sim_s": elapsed, "commits_per_sim_s": commits / elapsed},
        counters=counters,
        errors=errors,
        info=[
            "interleave elapsed (sim s): "
            + ", ".join(f"{k} {a['elapsed']:.4f}" for k, a in arms.items()),
            f"hstorage: {commits} commits ({commits / elapsed:.1f}/sim s); "
            f"{arm['retries']} deadlock retries, "
            f"{arm['counters']['locks.waits']} lock waits",
            "recovery (sim s, redone, undone): "
            + ", ".join(f"{k} {a['recovery']}" for k, a in arms.items()),
        ],
    )


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    setup: object
    measure: object
    spec: object
    smoke: object
    """A much smaller spec for the smoke test."""


WORKLOADS: dict[str, Workload] = {
    "power": Workload(
        power_setup, power_measure, PowerSpec(), PowerSpec(scale=0.05)
    ),
    "throughput": Workload(
        throughput_setup, throughput_measure,
        ThroughputSpec(), ThroughputSpec(scale=0.1),
    ),
    "overload": Workload(
        overload_setup, overload_measure,
        OverloadSpec(), OverloadSpec(sessions=60, ops_per_session=4),
    ),
    "oltp_mixed": Workload(
        oltp_mixed_setup, oltp_mixed_measure,
        OltpMixedSpec(), OltpMixedSpec(scale=0.05, txns=40, hot_keys=16),
    ),
}
