"""Crash simulation and ARIES-lite restart recovery (DESIGN.md §8).

The simulator's pages are shared Python objects, so "durability" is an
explicit model: the :class:`DurableStore` keeps *versioned page images*
captured whenever the buffer pool writes a heap page back (each image is
stamped with the WAL position of its flush), plus whole-file images taken
at every checkpoint.  A simulated crash at WAL position ``k`` therefore
reconstructs exactly what a machine would find on disk: the last
checkpoint image overlaid with every page flush that happened at or
before ``k``, pages never flushed coming back blank, and the WAL itself
truncated to its durable prefix.

Recovery then runs the three ARIES passes over that state:

* **analysis** — find the last checkpoint, rebuild the transaction table,
  and split transactions into winners (COMMIT in the log) and losers;
* **redo** — repeat history from the checkpoint's dirty-page-table
  minimum: heap records replay *conditionally* against each page's
  ``page_lsn`` (flushed pages are not redone twice); B-tree records are
  logical entry operations replayed against the checkpoint image of the
  tree;
* **undo** — walk loser records in reverse LSN order, skip changes
  already compensated, apply the inverse of each through the buffer pool
  (charging real I/O), log a CLR per inverse, and close each loser with
  an ABORT record.

Recovery finishes with a fresh checkpoint, as a real system would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.semantics import ContentType, SemanticInfo
from repro.db.btree import BTree, BTreeNode
from repro.db.heap import HeapFile
from repro.db.pages import FileKind, HeapPage
from repro.db.txn.wal import UNDOABLE_TYPES, LogRecord, LogRecordType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database


# --------------------------------------------------------- page image copies


def copy_heap_page(page: HeapPage) -> HeapPage:
    """A frozen image of one heap page (rows are immutable tuples)."""
    clone = HeapPage(page.capacity)
    clone.rows = list(page.rows)
    clone.num_deleted = page.num_deleted
    clone.page_lsn = page.page_lsn
    return clone


def copy_btree_node(node: BTreeNode) -> BTreeNode:
    """A frozen image of one B-tree node."""
    clone = BTreeNode(node.leaf)
    clone.keys = list(node.keys)
    clone.rids = list(node.rids)
    clone.children = list(node.children)
    clone.next_leaf = node.next_leaf
    clone.page_lsn = node.page_lsn
    return clone


@dataclass
class FileImage:
    """Checkpoint-time image of one database file.

    Images are copy-on-change.  Given the same file's image from the
    previous checkpoint, the page image at each page number is reused
    when it still has the live page's ``page_lsn`` and its content
    compares equal (``==``) to the live page; every other page is copied
    afresh.  Sharing is safe because no image page is ever mutated —
    crash restore copies out of them (DESIGN.md §8).
    """

    kind: FileKind
    pages: list
    root_pageno: int | None = None
    entry_count: int = 0

    @classmethod
    def of_heap(cls, heap: HeapFile, previous: "FileImage | None") -> "FileImage":
        live = heap.file.pages
        old = previous.pages if previous is not None else ()
        # Inlined comparison: this runs once per page per checkpoint.
        pages = [
            frozen
            if frozen.page_lsn == page.page_lsn
            and frozen.num_deleted == page.num_deleted
            and frozen.capacity == page.capacity
            and frozen.rows == page.rows
            else copy_heap_page(page)
            for frozen, page in zip(old, live)
        ]
        pages.extend(copy_heap_page(page) for page in live[len(pages):])
        return cls(kind=FileKind.HEAP, pages=pages)

    @classmethod
    def of_btree(cls, btree: BTree, previous: "FileImage | None") -> "FileImage":
        live = btree.file.pages
        old = previous.pages if previous is not None else ()
        pages = [
            frozen
            if frozen.page_lsn == node.page_lsn
            and frozen.leaf == node.leaf
            and frozen.next_leaf == node.next_leaf
            and frozen.keys == node.keys
            and frozen.rids == node.rids
            and frozen.children == node.children
            else copy_btree_node(node)
            for frozen, node in zip(old, live)
        ]
        pages.extend(copy_btree_node(node) for node in live[len(pages):])
        return cls(
            kind=FileKind.INDEX,
            pages=pages,
            root_pageno=btree.root_pageno,
            entry_count=btree.entry_count,
        )


class DurableStore:
    """What has actually reached stable storage, by WAL position.

    ``record_page_flush`` appends a versioned heap-page image each time
    the buffer pool steals or writes back a page; ``record_checkpoint``
    stores whole-file images (the simulator's stand-in for "the data
    files as of this checkpoint").  Both histories are append-only, so a
    crash can be replayed at *any* WAL prefix from one recorded run.
    """

    def __init__(self) -> None:
        self._page_flushes: dict[tuple[int, int], list[tuple[int, HeapPage]]] = {}
        self._checkpoints: list[tuple[int, dict[int, FileImage]]] = []
        self.page_flushes_recorded = 0

    def record_page_flush(
        self, fileid: int, pageno: int, page: HeapPage, flush_lsn: int
    ) -> None:
        versions = self._page_flushes.setdefault((fileid, pageno), [])
        versions.append((flush_lsn, copy_heap_page(page)))
        self.page_flushes_recorded += 1

    def record_checkpoint(self, lsn: int, images: dict[int, FileImage]) -> None:
        self._checkpoints.append((lsn, images))

    def latest_checkpoint(
        self, at_lsn: int
    ) -> tuple[int, dict[int, FileImage]] | None:
        for lsn, images in reversed(self._checkpoints):
            if lsn <= at_lsn:
                return lsn, images
        return None

    def heap_pages_as_of(
        self, fileid: int, after_lsn: int, at_lsn: int
    ) -> dict[int, HeapPage]:
        """Latest flushed image of each page, flushed in ``(after, at]``."""
        result: dict[int, HeapPage] = {}
        for (fid, pageno), versions in self._page_flushes.items():
            if fid != fileid:
                continue
            for flush_lsn, image in reversed(versions):
                if after_lsn < flush_lsn <= at_lsn:
                    result[pageno] = image
                    break
        return result

    def compact(self, upto_lsn: int) -> None:
        """Drop history not needed to crash at any point ``>= upto_lsn``.

        Called at each checkpoint with the *previous* checkpoint's LSN,
        this bounds the store to roughly two checkpoint windows instead
        of total write traffic: checkpoints older than the newest one at
        or before ``upto_lsn`` go away, and each page keeps only its
        newest image at or before ``upto_lsn`` plus everything later.
        Crash points older than that window stop being reconstructible —
        sweep tests capture their history before extra checkpoints run.
        """
        anchor = self.latest_checkpoint(upto_lsn)
        if anchor is not None:
            anchor_lsn = anchor[0]
            self._checkpoints = [
                (lsn, images)
                for lsn, images in self._checkpoints
                if lsn >= anchor_lsn
            ]
        for key, versions in self._page_flushes.items():
            if len(versions) < 2:
                continue  # a lone version is kept either way
            old = [v for v in versions if v[0] <= upto_lsn]
            recent = [v for v in versions if v[0] > upto_lsn]
            self._page_flushes[key] = old[-1:] + recent


@dataclass
class TxnHistory:
    """Immutable capture of one run's WAL + durable state for crash sweeps."""

    records: tuple[LogRecord, ...]
    durable: DurableStore
    flushed_lsn: int = 0
    """WAL position actually forced to storage when captured — the
    default crash point (an unforced log tail is lost at power-off)."""

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0


@dataclass
class RecoveryReport:
    """What one restart recovery did."""

    checkpoint_lsn: int
    log_records_scanned: int
    winners: set[int] = field(default_factory=set)
    losers: set[int] = field(default_factory=set)
    redo_applied: int = 0
    redo_skipped: int = 0
    undo_applied: int = 0
    sim_seconds: float = 0.0


# ------------------------------------------------------------------ crashing


def simulate_crash(
    db: "Database",
    at_lsn: int | None = None,
    history: TxnHistory | None = None,
) -> None:
    """Crash the database at WAL position ``at_lsn``.

    The default crash point is the *forced* WAL position
    (``wal.flushed_lsn``): records still sitting in the log buffer are
    lost at power-off, exactly as on real hardware.  An explicit
    ``at_lsn`` may name any position up to the last appended record —
    the crash-point sweep uses this to test every prefix as if the
    buffer had reached disk at that instant.

    Buffer-pool contents are dropped without writeback, every heap file is
    rewound to its durable image (checkpoint base + page flushes visible
    at ``at_lsn``), every index to its last checkpoint image, and the WAL
    to its prefix.  Passing an explicit ``history`` (from
    :meth:`TransactionManager.capture_history`) makes the crash
    repeatable: the same run can be re-crashed at every WAL position.
    """
    mgr = db.txn_manager
    if mgr is None:
        raise ValueError("simulate_crash needs an active transaction manager")
    if history is None:
        history = mgr.capture_history()
    k = history.flushed_lsn if at_lsn is None else at_lsn
    if not 0 <= k <= history.last_lsn:
        raise ValueError(f"crash point {k} outside WAL [0, {history.last_lsn}]")

    db.pool.discard_all()
    ckpt = history.durable.latest_checkpoint(k)
    if ckpt is None:
        # Bulk loading is unlogged; the baseline checkpoint written when
        # the subsystem attaches is where recoverable history starts.
        raise ValueError(
            f"crash point {k} predates the baseline checkpoint"
        )
    ckpt_lsn, images = ckpt

    for heap in mgr.known_heaps().values():
        _restore_heap(heap, images, history.durable, ckpt_lsn, k)
    for btree in mgr.known_btrees().values():
        _restore_btree(btree, images)

    mgr.wal.restore_prefix(history.records[:k])
    mgr.durable = DurableStore()
    mgr._last_checkpoint_lsn = 0
    mgr.dirty_pages.clear()
    mgr.invalidate_active()
    mgr.crashes += 1


def _restore_heap(
    heap: HeapFile,
    images: dict[int, FileImage],
    durable: DurableStore,
    ckpt_lsn: int,
    at_lsn: int,
) -> None:
    fileid = heap.file.fileid
    image = images.get(fileid)
    base = [copy_heap_page(p) for p in image.pages] if image is not None else []
    overlay = durable.heap_pages_as_of(fileid, ckpt_lsn, at_lsn)
    npages = max([len(base)] + [pageno + 1 for pageno in overlay])
    pages: list[HeapPage] = []
    for pageno in range(npages):
        if pageno in overlay:
            pages.append(copy_heap_page(overlay[pageno]))
        elif pageno < len(base):
            pages.append(base[pageno])
        else:
            # Allocated but never flushed: garbage after a crash.
            pages.append(HeapPage(heap.rows_per_page))
    heap.file.pages = pages
    heap.row_count = _live_rows(heap)


def _restore_btree(btree: BTree, images: dict[int, FileImage]) -> None:
    image = images.get(btree.file.fileid)
    if image is None:
        # Created after the last checkpoint: comes back empty; redo replays
        # every logged entry operation.
        btree.file.pages = [BTreeNode(leaf=True)]
        btree.root_pageno = 0
        btree.file.extent_map.lba_of(0)
        btree.entry_count = 0
        return
    btree.file.pages = [copy_btree_node(n) for n in image.pages]
    btree.root_pageno = image.root_pageno
    btree.entry_count = image.entry_count


def _live_rows(heap: HeapFile) -> int:
    return sum(
        len(page.rows) - page.num_deleted for page in heap.file.pages
    )


# ---------------------------------------------------------------- recovering


def recover(db: "Database") -> RecoveryReport:
    """Run restart recovery (analysis, redo, undo) after a crash.

    The charged sequential log scan starts at the last checkpoint's
    dirty-page-table minimum (the ARIES master-record shortcut), so with
    periodic checkpoints recovery cost is bounded by the distance to the
    last checkpoint, not total history.  Undo of losers that were active
    across the checkpoint follows their backchains through the in-memory
    record list (a real system would take random log reads there).
    """
    mgr = db.txn_manager
    if mgr is None:
        raise ValueError("recover needs an active transaction manager")
    started = db.clock.now
    all_records = mgr.wal.records

    # ---- analysis ---------------------------------------------------------
    ckpt_record = next(
        (
            r
            for r in reversed(all_records)
            if r.type is LogRecordType.CHECKPOINT
        ),
        None,
    )
    ckpt_lsn = ckpt_record.lsn if ckpt_record is not None else 0
    redo_lsn = ckpt_lsn or 1
    if ckpt_record is not None and ckpt_record.dirty_pages:
        redo_lsn = min([ckpt_lsn] + list(ckpt_record.dirty_pages.values()))
    records = mgr.wal.read_records(redo_lsn)
    report = _analyse(records, ckpt_record, ckpt_lsn)

    # ---- redo: repeat history --------------------------------------------
    heaps = mgr.known_heaps()
    btrees = mgr.known_btrees()
    for record in records:
        _redo(db, record, heaps, btrees, report)

    # ---- undo losers in reverse LSN order --------------------------------
    compensated = {
        r.compensates for r in all_records if r.compensates is not None
    }
    open_losers = set(report.losers)
    for record in reversed(all_records):
        if record.txid not in open_losers:
            continue
        if record.type not in UNDOABLE_TYPES:
            continue
        if record.compensates is not None or record.lsn in compensated:
            continue  # CLRs are never undone; compensated work stays undone.
        mgr.apply_undo(record)
        report.undo_applied += 1
    for txid in sorted(open_losers):
        mgr.wal.append(LogRecordType.ABORT, txid=txid)

    # ---- finish: settle row counts, persist, checkpoint ------------------
    for heap in heaps.values():
        heap.row_count = _live_rows(heap)
    db.pool.flush_all()
    mgr.checkpoint()
    report.sim_seconds = db.clock.now - started
    mgr.recoveries += 1
    return report


def _analyse(
    records: list[LogRecord],
    ckpt_record: LogRecord | None,
    ckpt_lsn: int,
) -> RecoveryReport:
    """Rebuild the transaction table from the checkpoint plus the scanned
    suffix.  A transaction active at the checkpoint can only commit or
    abort *after* it, so the suffix sees every outcome."""
    begun: set[int] = set(
        ckpt_record.active_txns or {}
    ) if ckpt_record is not None else set()
    winners: set[int] = set()
    closed: set[int] = set()
    for record in records:
        if record.type is LogRecordType.BEGIN:
            begun.add(record.txid)
        elif record.type is LogRecordType.COMMIT:
            winners.add(record.txid)
        elif record.type is LogRecordType.ABORT:
            closed.add(record.txid)
    return RecoveryReport(
        checkpoint_lsn=ckpt_lsn,
        log_records_scanned=len(records),
        winners=winners,
        losers=begun - winners - closed,
    )


def _redo(
    db: "Database",
    record: LogRecord,
    heaps: dict[int, HeapFile],
    btrees: dict[int, BTree],
    report: RecoveryReport,
) -> None:
    rtype = record.type
    if rtype in (
        LogRecordType.HEAP_INSERT,
        LogRecordType.HEAP_DELETE,
        LogRecordType.HEAP_UPDATE,
    ):
        heap = heaps[record.fileid]
        _ensure_heap_page(heap, record.pageno)
        sem = SemanticInfo.random_access(
            ContentType.TABLE, record.oid, level=0
        )
        page = db.pool.get_page(heap.file, record.pageno, sem)
        if page.page_lsn >= record.lsn:
            report.redo_skipped += 1  # already on disk (flushed after write)
            return
        if rtype is LogRecordType.HEAP_DELETE:
            if 0 <= record.slot < len(page.rows):
                page.delete(record.slot)
        else:
            place_row(page, record.slot, record.row)
        page.page_lsn = record.lsn
        db.pool.mark_dirty(
            heap.file, record.pageno, SemanticInfo.update(ContentType.TABLE, record.oid)
        )
        report.redo_applied += 1
    elif rtype in (LogRecordType.BTREE_INSERT, LogRecordType.BTREE_DELETE):
        # Logical index replay: the tree was restored to its checkpoint
        # image, so exactly the records after the checkpoint re-apply.
        if record.lsn <= report.checkpoint_lsn:
            report.redo_skipped += 1
            return
        btree = btrees[record.fileid]
        sem = SemanticInfo.update(ContentType.INDEX, record.oid)
        if rtype is LogRecordType.BTREE_INSERT:
            btree.insert(db.pool, record.key, record.rid, sem)
        else:
            btree.delete(db.pool, record.key, record.rid, sem)
        report.redo_applied += 1


def _ensure_heap_page(heap: HeapFile, pageno: int) -> None:
    """Materialise lost (never-flushed) trailing pages redo writes into."""
    while heap.file.num_pages <= pageno:
        heap.file.allocate_page(HeapPage(heap.rows_per_page))


def place_row(page: HeapPage, slot: int, row: tuple) -> None:
    """Physiological redo/undo helper: put ``row`` at exactly ``slot``."""
    rows = page.rows
    while len(rows) < slot:
        rows.append(None)
        page.num_deleted += 1
    if len(rows) == slot:
        rows.append(row)
    else:
        if rows[slot] is None:
            page.num_deleted -= 1
        rows[slot] = row
