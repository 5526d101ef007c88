"""Copy-on-change checkpoint images against a full-copy oracle.

A checkpoint reuses the previous checkpoint's image of a page when the
frozen copy still has the live page's ``page_lsn`` and equal content
(DESIGN.md §8).  The oracle here is the full deep copy every checkpoint
used to take.  Over seeded random histories — inserts, updates, deletes,
aborts with CLRs, B-tree splits, unlogged heap writes after
``enable_wal``, and crash + recover mid-run — every stored image must
match a fresh oracle copy taken at the same instant, with rows, keys,
rids and children compared element by element with ``is``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.semantics import ContentType, SemanticInfo
from repro.db.btree import BTreeNode
from repro.db.pages import FileKind, HeapPage
from repro.db.tuples import schema
from repro.db.txn import recover, simulate_crash
from repro.db.txn.recovery import FileImage
from repro.db.txn.wal import LogRecordType
from tests.helpers import make_database

HISTORY_SEEDS = range(24)


# ------------------------------------------------------------------ oracle


def oracle_heap_page(page: HeapPage) -> HeapPage:
    clone = HeapPage(page.capacity)
    clone.rows = list(page.rows)
    clone.num_deleted = page.num_deleted
    clone.page_lsn = page.page_lsn
    return clone


def oracle_btree_node(node: BTreeNode) -> BTreeNode:
    clone = BTreeNode(node.leaf)
    clone.keys = list(node.keys)
    clone.rids = list(node.rids)
    clone.children = list(node.children)
    clone.next_leaf = node.next_leaf
    clone.page_lsn = node.page_lsn
    return clone


def oracle_images(mgr) -> dict[int, FileImage]:
    """What a full-copy checkpoint would store for the live database."""
    images = {
        fileid: FileImage(
            FileKind.HEAP, [oracle_heap_page(p) for p in heap.file.pages]
        )
        for fileid, heap in mgr.known_heaps().items()
    }
    for fileid, btree in mgr.known_btrees().items():
        images[fileid] = FileImage(
            FileKind.INDEX,
            [oracle_btree_node(n) for n in btree.file.pages],
            root_pageno=btree.root_pageno,
            entry_count=btree.entry_count,
        )
    return images


def _same_items(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def assert_images_match(stored: dict, oracle: dict) -> None:
    assert stored.keys() == oracle.keys()
    for fileid, want in oracle.items():
        got = stored[fileid]
        assert got.kind is want.kind
        assert got.root_pageno == want.root_pageno
        assert got.entry_count == want.entry_count
        assert len(got.pages) == len(want.pages), f"file {fileid}"
        for pageno, (g, w) in enumerate(zip(got.pages, want.pages)):
            where = f"file {fileid} page {pageno}"
            assert type(g) is type(w), where
            assert g.page_lsn == w.page_lsn, where
            if isinstance(w, HeapPage):
                assert g.capacity == w.capacity, where
                assert g.num_deleted == w.num_deleted, where
                assert _same_items(g.rows, w.rows), where
            else:
                assert g.leaf == w.leaf, where
                assert g.next_leaf == w.next_leaf, where
                assert _same_items(g.keys, w.keys), where
                assert _same_items(g.rids, w.rids), where
                assert _same_items(g.children, w.children), where


def image_snapshot(images: dict[int, FileImage]) -> str:
    """A content repr of a checkpoint's images (pages have no repr)."""
    return repr(
        sorted(
            (
                fileid,
                image.kind.value,
                image.root_pageno,
                image.entry_count,
                [
                    (p.page_lsn, p.capacity, p.num_deleted, p.rows)
                    if isinstance(p, HeapPage)
                    else (p.page_lsn, p.leaf, p.next_leaf, p.keys, p.rids,
                          p.children)
                    for p in image.pages
                ],
            )
            for fileid, image in images.items()
        )
    )


def stored_checkpoints(history) -> dict[int, str]:
    """Content snapshot of every checkpoint the history's store holds."""
    found = {}
    for record in history.records:
        if record.type is LogRecordType.CHECKPOINT:
            ckpt = history.durable.latest_checkpoint(record.lsn)
            if ckpt is not None:
                found[ckpt[0]] = image_snapshot(ckpt[1])
    return found


# -------------------------------------------------------------- histories


def build_db(bufferpool_pages: int = 8, rows: int = 60):
    db = make_database(bufferpool_pages=bufferpool_pages, btree_order=4)
    # Wide rows: a handful per heap page, so a small table spans pages.
    rel = db.create_table("t", schema(("k", "int"), ("v", "str", 900)))
    rel.heap.bulk_load((i, f"v{i}") for i in range(rows))
    db.create_index("t_k", "t", "k")
    db.enable_wal()
    return db, rel, rel.indexes[0]


def sems(rel, ix):
    return {
        "write": SemanticInfo.update(ContentType.TABLE, rel.oid),
        "iwrite": SemanticInfo.update(ContentType.INDEX, ix.oid),
        "iread": SemanticInfo.random_access(ContentType.INDEX, ix.oid, 0),
    }


class CheckpointAudit:
    """Wraps the manager's checkpoint: after each one, compare the stored
    images with an oracle copy and count pages shared with the previous
    checkpoint of the same store."""

    def __init__(self, mgr) -> None:
        self.checkpoints = 0
        self.shared = 0
        self.copied = 0
        self._previous: tuple[object, dict] | None = None
        original = mgr.checkpoint

        def audited():
            record = original()
            store = mgr.durable
            lsn, images = store.latest_checkpoint(record.lsn)
            assert lsn == record.lsn
            assert_images_match(images, oracle_images(mgr))
            self.checkpoints += 1
            if self._previous is not None and self._previous[0] is store:
                self._count(self._previous[1], images)
            self._previous = (store, images)
            return record

        mgr.checkpoint = audited

    def _count(self, before: dict, after: dict) -> None:
        for fileid, image in after.items():
            old = before.get(fileid)
            old_pages = old.pages if old is not None else []
            for pageno, page in enumerate(image.pages):
                if pageno < len(old_pages) and old_pages[pageno] is page:
                    self.shared += 1
                else:
                    self.copied += 1


def run_history(seed: int, steps: int = 120):
    """One seeded random history; returns (db, audit)."""
    rng = random.Random(seed)
    db, rel, ix = build_db(bufferpool_pages=rng.choice([4, 8, 32]))
    s = sems(rel, ix)
    audit = CheckpointAudit(db.txn_manager)
    next_key = 1000
    txn = None
    for _ in range(steps):
        mgr = db.txn_manager
        dice = rng.random()
        if txn is None:
            txn = db.begin()
        entries = list(ix.btree.range_scan(db.pool, None, None, s["iread"]))
        if dice < 0.25 or not entries:
            rid = rel.heap.insert(
                db.pool, (next_key, f"n{next_key}"), s["write"], txn=txn
            )
            ix.btree.insert(db.pool, next_key, rid, s["iwrite"], txn=txn)
            next_key += 1
        elif dice < 0.45:
            key, rid = rng.choice(entries)
            rel.heap.update(
                db.pool, rid, (key, f"u{rng.randrange(99)}"), s["write"],
                txn=txn,
            )
        elif dice < 0.55:
            key, rid = rng.choice(entries)
            if rel.heap.delete(db.pool, rid, s["write"], txn=txn):
                ix.btree.delete(db.pool, key, rid, s["iwrite"], txn=txn)
        elif dice < 0.62:
            # Unlogged: the page changes but its page_lsn does not.
            rel.heap.insert(db.pool, (-next_key, "unlogged"), s["write"])
            next_key += 1
        elif dice < 0.75:
            txn.commit()
            txn = None
        elif dice < 0.83:
            txn.abort()  # CLRs restore before-images under new LSNs
            txn = None
        elif dice < 0.95:
            mgr.checkpoint()  # fuzzy: the open transaction stays open
        elif dice < 0.98:
            db.pool.flush_all()
        else:
            if rng.random() < 0.5:
                mgr.wal.flush()
            simulate_crash(db)
            recover(db)
            txn = None
    if txn is not None:
        txn.commit()
    db.txn_manager.checkpoint()
    return db, audit


# ------------------------------------------------------------------- tests


class TestImagesMatchOracle:
    @pytest.mark.parametrize("seed", HISTORY_SEEDS)
    def test_every_checkpoint_matches_full_copy(self, seed):
        _, audit = run_history(seed)
        assert audit.checkpoints >= 5

    def test_histories_cover_crashes_aborts_and_splits(self):
        crashes = aborts = checkpoints = 0
        index_pages = []
        for seed in HISTORY_SEEDS:
            db, audit = run_history(seed)
            mgr = db.txn_manager
            crashes += mgr.crashes
            aborts += mgr.aborts
            checkpoints += audit.checkpoints
            index_pages.append(
                db.catalog.relation("t").indexes[0].btree.file.num_pages
            )
        assert crashes >= 5
        assert aborts >= 20
        assert checkpoints >= 20 * len(HISTORY_SEEDS) // 4
        assert max(index_pages) > 3  # splits happened

    def test_unchanged_pages_are_shared(self):
        shared = copied = 0
        for seed in HISTORY_SEEDS[:6]:
            _, audit = run_history(seed)
            shared += audit.shared
            copied += audit.copied
        assert shared > copied > 0


class TestReuseRule:
    def test_unlogged_heap_change_gets_a_fresh_image(self):
        db, rel, ix = build_db()
        s = sems(rel, ix)
        mgr = db.txn_manager
        heap_id = rel.heap.file.fileid
        _, before = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        last = rel.heap.num_pages - 1
        lsn = rel.heap.file.page(last).page_lsn
        rel.heap.insert(db.pool, (-1, "unlogged"), s["write"])
        assert rel.heap.file.page(last).page_lsn == lsn
        assert rel.heap.num_pages - 1 == last  # same page, new row
        mgr.checkpoint()
        _, after = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        old_page = before[heap_id].pages[last]
        new_page = after[heap_id].pages[last]
        assert new_page is not old_page
        assert new_page.rows[-1] == (-1, "unlogged")
        assert (-1, "unlogged") not in old_page.rows
        # Every other page was untouched and is shared.
        for pageno in range(last):
            assert after[heap_id].pages[pageno] is before[heap_id].pages[pageno]
        assert_images_match(after, oracle_images(mgr))

    def test_unlogged_index_change_gets_a_fresh_image(self):
        db, rel, ix = build_db()
        s = sems(rel, ix)
        mgr = db.txn_manager
        index_id = ix.btree.file.fileid
        _, before = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        ix.btree.insert(db.pool, 10**6, (0, 0), s["iwrite"])
        mgr.checkpoint()
        _, after = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        old, new = before[index_id].pages, after[index_id].pages
        # The rightmost leaf took the key (and may have split): changed
        # without a logged record, so it is a fresh image.
        assert any(a is not b for a, b in zip(old, new))
        holder = next(node for node in new if 10**6 in node.keys)
        assert all(holder is not node for node in old)
        assert all(10**6 not in node.keys for node in old)
        assert_images_match(after, oracle_images(mgr))

    def test_lsn_change_alone_gets_a_fresh_image(self):
        """Update then abort: same rows, new page_lsn (the CLR's)."""
        db, rel, ix = build_db()
        s = sems(rel, ix)
        mgr = db.txn_manager
        heap_id = rel.heap.file.fileid
        _, before = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        txn = db.begin()
        rel.heap.update(db.pool, (0, 0), (0, "tmp"), s["write"], txn=txn)
        txn.abort()
        mgr.checkpoint()
        _, after = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        old_page, new_page = before[heap_id].pages[0], after[heap_id].pages[0]
        assert old_page.rows == new_page.rows
        assert new_page is not old_page
        assert new_page.page_lsn == rel.heap.file.page(0).page_lsn
        assert new_page.page_lsn != old_page.page_lsn

    def test_fresh_store_after_crash_copies_everything(self):
        db, rel, ix = build_db()
        mgr = db.txn_manager
        _, before = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        simulate_crash(db)
        recover(db)
        _, after = mgr.durable.latest_checkpoint(mgr.wal.last_lsn)
        ids = {id(p) for image in before.values() for p in image.pages}
        assert all(
            id(p) not in ids for image in after.values() for p in image.pages
        )
        assert_images_match(after, oracle_images(mgr))


class TestImagesAreImmutable:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_crash_sweep_leaves_stored_images_unchanged(self, seed):
        db, _ = run_history(seed, steps=60)
        history = db.txn_manager.capture_history()
        snapshot = stored_checkpoints(history)
        assert len(snapshot) >= 1
        first = min(snapshot)
        for k in range(first, history.last_lsn + 1, 3):
            simulate_crash(db, at_lsn=k, history=history)
            recover(db)
        # Keep working on the recovered database: the new store must not
        # reach back into the captured one.
        db.txn_manager.checkpoint()
        assert stored_checkpoints(history) == snapshot
