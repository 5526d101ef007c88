"""Golden transaction fingerprint: the WAL, checkpoint and recovery bytes.

The recovery tests replay a history and compare against an oracle in the
same process; that proves consistency, not stability.  This gate pins
the SHA-256 of one seeded WAL run to a checked-in file: four interleaved
point-update writer streams (checkpoint every 25 commits) beside Q1 and
Q6 under MVCC snapshots, then one open transaction whose records reach
the log, then a crash at the forced WAL position and recovery.  It pins

* the final simulated clock;
* the WAL's last ``end_offset`` and ``flushed_lsn``;
* the durable store's ``page_flushes_recorded``;
* the ``RecoveryReport``;
* the recovered orders heap (every page's slots) and its index entries.

Regenerate intentionally (after a PR that is *supposed* to change the
simulated world) with:

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_txn.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.core.semantics import ContentType, SemanticInfo
from repro.db.txn import recover, simulate_crash
from repro.harness.configs import StorageConfig, build_database
from repro.harness.mixed import InterleavedPointUpdates
from repro.tpch.datagen import generate
from repro.tpch.queries import query_builder, query_label
from repro.tpch.workload import load_tpch

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "txn_mixed.json"
SCALE = 0.05
SEED = 42
TXNS = 150
STREAMS = 4
HOT_KEYS = 16
CHECKPOINT_EVERY = 25
OLAP_QUERIES = (1, 6)


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _index_entries(btree) -> list:
    """Every (key, rid) in leaf-chain order, read straight off the nodes."""
    pages = btree.file.pages
    node = pages[btree.root_pageno]
    while not node.leaf:
        node = pages[node.children[0]]
    entries = []
    while True:
        entries.extend(zip(node.keys, node.rids))
        if node.next_leaf is None:
            return entries
        node = pages[node.next_leaf]


def _open_loser(db) -> None:
    """A transaction whose updates reach the log but never commit."""
    orders = db.catalog.relation("orders")
    write = SemanticInfo.update(ContentType.TABLE, orders.oid)
    fetch = SemanticInfo.random_access(ContentType.TABLE, orders.oid, 0)
    txn = db.begin()
    for slot in range(3):
        rid = (1, slot)
        row = orders.heap.fetch(db.pool, rid, fetch)
        orders.heap.update(db.pool, rid, row[:-1] + ("loser",), write, txn=txn)
    db.txn_manager.wal.flush()


def compute_fingerprint() -> dict:
    db = build_database(
        StorageConfig(kind="hstorage", cache_blocks=256, bufferpool_pages=32)
    )
    load_tpch(db, data=generate(scale=SCALE, seed=SEED))
    db.enable_wal()
    db.reset_measurements()
    oltp = InterleavedPointUpdates(
        db,
        TXNS,
        streams=STREAMS,
        seed=SEED,
        hot_keys=HOT_KEYS,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    workloads = [
        (query_label(q), query_builder(q), True) for q in OLAP_QUERIES
    ]
    workloads.append(("OLTP", lambda db: oltp))
    results = db.run_concurrent(workloads, collect=True)
    _open_loser(db)

    mgr = db.txn_manager
    wal = mgr.wal
    run = {
        "commits": mgr.commits,
        "checkpoints": mgr.checkpoints,
        "wal_end_offset": wal.records[-1].end_offset,
        "wal_flushed_lsn": wal.flushed_lsn,
        "page_flushes_recorded": mgr.durable.page_flushes_recorded,
        "answers_sha256": _sha256([(r.label, r.rows) for r in results[:-1]]),
    }
    simulate_crash(db)
    report = recover(db)
    orders = db.catalog.relation("orders")
    index = orders.index_on("o_orderkey")
    return {
        "scale": SCALE,
        "seed": SEED,
        "run": run,
        "recovery_report_sha256": _sha256(
            (
                report.checkpoint_lsn,
                report.log_records_scanned,
                sorted(report.winners),
                sorted(report.losers),
                report.redo_applied,
                report.redo_skipped,
                report.undo_applied,
                report.sim_seconds,
            )
        ),
        "orders_heap_sha256": _sha256(
            [page.rows for page in orders.heap.file.pages]
        ),
        "orders_index_sha256": _sha256(_index_entries(index.btree)),
        "final_clock": repr(db.clock.now),
    }


def test_txn_matches_golden():
    fingerprint = compute_fingerprint()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(fingerprint, indent=2) + "\n")
        pytest.skip(f"golden txn fingerprint regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint == golden, (
        "WAL/checkpoint/recovery output drifted from the checked-in golden "
        "fingerprint; if the drift is intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1 and say so in the change description"
    )
