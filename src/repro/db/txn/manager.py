"""Transactions over the WAL: begin/commit/abort, steal/no-force buffering.

The :class:`TransactionManager` owns the :class:`~repro.db.txn.wal.WriteAheadLog`,
the :class:`~repro.db.txn.recovery.DurableStore` and the dirty-page table,
and implements the classic *steal / no-force* protocol on top of the
existing buffer pool:

* **steal** — the pool may evict a dirty page of an uncommitted
  transaction at any time; the writeback hook forces the WAL up to the
  page's ``page_lsn`` first (write-ahead rule) and records the flushed
  image in the durable store;
* **no-force** — commit forces only the *log* (through the commit
  record); data pages reach storage whenever the pool gets around to it.

Log emission is called from :class:`~repro.db.heap.HeapFile` and
:class:`~repro.db.btree.BTree` mutation paths when a transaction is
passed in; undo (rollback and recovery) applies inverse operations back
through the buffer pool, charging real I/O, and logs a compensation
record (CLR) per inverse so crash-during-abort recovers cleanly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.semantics import ContentType, SemanticInfo
from repro.db.btree import BTree
from repro.db.heap import HeapFile, Rid
from repro.db.pages import FileKind
from repro.db.txn.locks import LockManager
from repro.db.txn.mvcc import MVCCManager, Snapshot
from repro.db.txn.recovery import (
    DurableStore,
    FileImage,
    TxnHistory,
    place_row,
)
from repro.db.txn.wal import (
    UNDOABLE_TYPES,
    LogRecord,
    LogRecordType,
    WriteAheadLog,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.bufferpool import Frame
    from repro.db.engine import Database


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One transaction.  Usable as a context manager (commit on success,
    abort on exception)."""

    txid: int
    manager: "TransactionManager"
    last_lsn: int = 0
    status: TxnStatus = TxnStatus.ACTIVE
    snapshot: Snapshot | None = None
    """Begin-timestamp snapshot: what this transaction's MVCC reads see."""
    commit_ts: int | None = None
    """Position in commit order (assigned by the MVCC clock at commit)."""

    def commit(self) -> None:
        self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)

    @property
    def active(self) -> bool:
        return self.status is TxnStatus.ACTIVE

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.active:
            if exc_type is None:
                self.commit()
            else:
                self.abort()


class TransactionManager:
    """ARIES-lite transaction processing for one Database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.wal = WriteAheadLog(db.storage_manager)
        self.durable = DurableStore()
        self.dirty_pages: dict[tuple[int, int], int] = {}
        """The dirty-page table: ``(fileid, pageno) -> rec_lsn`` of the
        record that first dirtied the page since its last flush."""
        self.active: dict[int, Transaction] = {}
        self.locks = LockManager()
        self.locks.observer = getattr(db.storage, "observer", None)
        self.mvcc = MVCCManager()
        self._next_txid = 1
        self._heaps: dict[int, HeapFile] = {}
        self._btrees: dict[int, BTree] = {}
        self.commits = 0
        self.aborts = 0
        self.checkpoints = 0
        self.crashes = 0
        self.recoveries = 0
        self._last_checkpoint_lsn = 0
        db.pool.flush_hook = self.on_page_writeback
        # The initial checkpoint is the durable baseline: it images the
        # loaded database so a crash before any page flush still recovers.
        self.checkpoint()

    # ------------------------------------------------------------ lifecycle

    def begin(self) -> Transaction:
        txn = Transaction(txid=self._next_txid, manager=self)
        self._next_txid += 1
        record = self.wal.append(LogRecordType.BEGIN, txid=txn.txid)
        txn.last_lsn = record.lsn
        txn.snapshot = self.mvcc.take_snapshot(txn.txid)
        self.active[txn.txid] = txn
        return txn

    def commit(self, txn: Transaction) -> None:
        self._require_active(txn)
        record = self.wal.append(
            LogRecordType.COMMIT, txid=txn.txid, prev_lsn=txn.last_lsn
        )
        txn.last_lsn = record.lsn
        # No-force for data, force for the log: durability is the commit
        # record reaching storage (with the write-buffer policy).
        self.wal.flush(record.lsn)
        txn.status = TxnStatus.COMMITTED
        del self.active[txn.txid]
        self.commits += 1
        # Concurrency-control epilogue (in-memory, charges no I/O): the
        # transaction's versions become the committed image at the next
        # commit timestamp, and strict 2PL releases its locks only now.
        self.mvcc.release_snapshot(txn.snapshot)
        txn.commit_ts = self.mvcc.on_commit(txn.txid)
        self.locks.release_all(txn.txid)

    def abort(self, txn: Transaction) -> None:
        self._require_active(txn)
        for record in self._undoable_chain(txn.txid, txn.last_lsn):
            self.apply_undo(record)
        self.wal.append(
            LogRecordType.ABORT, txid=txn.txid, prev_lsn=txn.last_lsn
        )
        txn.status = TxnStatus.ABORTED
        del self.active[txn.txid]
        self.aborts += 1
        # Undo restored the slot contents above; retract the version-chain
        # entries that mirrored them, then release the 2PL locks.
        self.mvcc.release_snapshot(txn.snapshot)
        self.mvcc.on_abort(txn.txid)
        self.locks.release_all(txn.txid)

    def _require_active(self, txn: Transaction) -> None:
        if not txn.active:
            raise ValueError(
                f"transaction {txn.txid} is already {txn.status.value}"
            )

    def invalidate_active(self) -> None:
        """Mark every in-flight transaction dead (crash simulation).

        Their epoch ended with the crash — recovery decides their fate
        from the WAL — so commit/abort on the orphaned handles (e.g. an
        abandoned generator's cleanup path) must become a no-op.
        """
        for txn in self.active.values():
            txn.status = TxnStatus.ABORTED
        self.active.clear()
        # Locks and version chains are volatile: gone with the power.
        self.locks.reset()
        self.mvcc.reset()

    def _undoable_chain(self, txid: int, last_lsn: int) -> list[LogRecord]:
        """The transaction's not-yet-compensated changes, newest first."""
        chain: list[LogRecord] = []
        compensated: set[int] = set()
        lsn = last_lsn
        while lsn:
            record = self.wal.records[lsn - 1]
            if record.compensates is not None:
                compensated.add(record.compensates)
            elif record.type in UNDOABLE_TYPES:
                chain.append(record)
            lsn = record.prev_lsn or 0
        return [r for r in chain if r.lsn not in compensated]

    # ----------------------------------------------------------- checkpoint

    def checkpoint(self) -> LogRecord:
        """Write a checkpoint: active-transaction table + dirty-page table
        into the log, file images into the durable store (the simulator's
        stand-in for the data files on stable storage), then force the
        log.  Each image shares the unchanged pages of the newest stored
        checkpoint's image of the same file.  Durable history older than
        the *previous* checkpoint is compacted away, so the store's
        footprint is bounded by two checkpoint windows, not total write
        traffic."""
        if self._last_checkpoint_lsn:
            self.durable.compact(self._last_checkpoint_lsn)
        record = self.wal.append(
            LogRecordType.CHECKPOINT,
            active_txns={t.txid: t.last_lsn for t in self.active.values()},
            dirty_pages=dict(self.dirty_pages),
        )
        newest = self.durable.latest_checkpoint(record.lsn)
        previous = newest[1] if newest is not None else {}
        images: dict[int, FileImage] = {}
        for fileid, heap in self.known_heaps().items():
            images[fileid] = FileImage.of_heap(heap, previous.get(fileid))
        for fileid, btree in self.known_btrees().items():
            images[fileid] = FileImage.of_btree(btree, previous.get(fileid))
        self.durable.record_checkpoint(record.lsn, images)
        self.wal.flush()
        self.checkpoints += 1
        self._last_checkpoint_lsn = record.lsn
        return record

    def capture_history(self) -> TxnHistory:
        """Immutable snapshot of WAL + durable state for crash sweeps."""
        return TxnHistory(
            records=tuple(self.wal.records),
            durable=self.durable,
            flushed_lsn=self.wal.flushed_lsn,
        )

    # ----------------------------------------------- buffer-pool integration

    def on_page_writeback(self, frames: list["Frame"]) -> None:
        """The flush-respects-WAL protocol (installed as the pool's hook).

        Called before dirty frames are written back: forces the log
        through the highest ``page_lsn`` being stolen (write-ahead rule),
        then records the flushed heap images in the durable store and
        clears their dirty-page-table entries.  Index and temp frames
        update only the bookkeeping — index crash state is the checkpoint
        image (DESIGN.md §8), temp data is not recovered at all.
        """
        need = 0
        for frame in frames:
            if frame.file.kind in (FileKind.TEMP, FileKind.LOG):
                continue
            need = max(need, getattr(frame.page, "page_lsn", 0))
        if need:
            self.wal.flush(need)
        flush_lsn = self.wal.last_lsn
        for frame in frames:
            if frame.file.kind is FileKind.HEAP:
                self.durable.record_page_flush(
                    frame.file.fileid, frame.pageno, frame.page, flush_lsn
                )
            self.dirty_pages.pop((frame.file.fileid, frame.pageno), None)

    # --------------------------------------------------------- log emission

    def log_heap_insert(
        self, txn: Transaction, heap: HeapFile, rid: Rid, row: tuple
    ) -> LogRecord:
        record = self._log_heap(LogRecordType.HEAP_INSERT, txn, heap, rid, row=row)
        self.mvcc.on_insert(txn.txid, heap.file.fileid, rid)
        return record

    def log_heap_delete(
        self, txn: Transaction, heap: HeapFile, rid: Rid, row: tuple
    ) -> LogRecord:
        record = self._log_heap(LogRecordType.HEAP_DELETE, txn, heap, rid, row=row)
        self.mvcc.on_update(txn.txid, heap.file.fileid, rid, row)
        return record

    def log_heap_update(
        self,
        txn: Transaction,
        heap: HeapFile,
        rid: Rid,
        old_row: tuple,
        new_row: tuple,
    ) -> LogRecord:
        record = self._log_heap(
            LogRecordType.HEAP_UPDATE, txn, heap, rid, row=new_row, old_row=old_row
        )
        self.mvcc.on_update(txn.txid, heap.file.fileid, rid, old_row)
        return record

    def _log_heap(
        self,
        rtype: LogRecordType,
        txn: Transaction,
        heap: HeapFile,
        rid: Rid,
        **payload,
    ) -> LogRecord:
        self._require_active(txn)
        pageno, slot = rid
        self._heaps[heap.file.fileid] = heap
        record = self.wal.append(
            rtype,
            txid=txn.txid,
            prev_lsn=txn.last_lsn,
            fileid=heap.file.fileid,
            oid=heap.file.oid,
            pageno=pageno,
            slot=slot,
            **payload,
        )
        txn.last_lsn = record.lsn
        self._stamp(heap.file, pageno, record.lsn)
        return record

    def log_btree_insert(
        self,
        txn: Transaction,
        btree: BTree,
        key,
        rid: Rid,
        leaf_pageno: int | None = None,
    ) -> LogRecord:
        return self._log_btree(
            LogRecordType.BTREE_INSERT, txn, btree, key, rid, leaf_pageno
        )

    def log_btree_delete(
        self,
        txn: Transaction,
        btree: BTree,
        key,
        rid: Rid,
        leaf_pageno: int | None = None,
    ) -> LogRecord:
        record = self._log_btree(
            LogRecordType.BTREE_DELETE, txn, btree, key, rid, leaf_pageno
        )
        self.mvcc.on_index_delete(txn.txid, btree.file.fileid, key, rid)
        return record

    def _log_btree(
        self,
        rtype: LogRecordType,
        txn: Transaction,
        btree: BTree,
        key,
        rid: Rid,
        leaf_pageno: int | None,
    ) -> LogRecord:
        self._require_active(txn)
        self._btrees[btree.file.fileid] = btree
        record = self.wal.append(
            rtype,
            txid=txn.txid,
            prev_lsn=txn.last_lsn,
            fileid=btree.file.fileid,
            oid=btree.file.oid,
            key=key,
            rid=rid,
            pageno=leaf_pageno,
        )
        txn.last_lsn = record.lsn
        if leaf_pageno is not None:
            self._stamp(btree.file, leaf_pageno, record.lsn)
        return record

    def _stamp(self, file, pageno: int, lsn: int) -> None:
        page = file.page(pageno)
        page.page_lsn = lsn
        self.dirty_pages.setdefault((file.fileid, pageno), lsn)

    # ----------------------------------------------------------------- undo

    def apply_undo(self, record: LogRecord) -> LogRecord:
        """Apply the inverse of one change and log the CLR for it.

        Shared by live rollback (abort) and recovery's undo pass.  The
        inverse goes through the buffer pool, so rolling back pays the
        same I/O a forward change would.
        """
        pool = self.db.pool
        rtype = record.type
        if rtype in (
            LogRecordType.HEAP_INSERT,
            LogRecordType.HEAP_DELETE,
            LogRecordType.HEAP_UPDATE,
        ):
            heap = self._heaps[record.fileid]
            read_sem = SemanticInfo.random_access(
                ContentType.TABLE, record.oid, level=0
            )
            write_sem = SemanticInfo.update(ContentType.TABLE, record.oid)
            page = pool.get_page(heap.file, record.pageno, read_sem)
            if rtype is LogRecordType.HEAP_INSERT:
                if page.delete(record.slot):
                    heap.row_count -= 1
                clr_type, payload = LogRecordType.HEAP_DELETE, {"row": record.row}
            elif rtype is LogRecordType.HEAP_DELETE:
                place_row(page, record.slot, record.row)
                heap.row_count += 1
                clr_type, payload = LogRecordType.HEAP_INSERT, {"row": record.row}
            else:  # HEAP_UPDATE: restore the before-image
                place_row(page, record.slot, record.old_row)
                clr_type = LogRecordType.HEAP_UPDATE
                payload = {"row": record.old_row, "old_row": record.row}
            clr = self.wal.append(
                clr_type,
                txid=record.txid,
                prev_lsn=record.prev_lsn,
                fileid=record.fileid,
                oid=record.oid,
                pageno=record.pageno,
                slot=record.slot,
                compensates=record.lsn,
                **payload,
            )
            page.page_lsn = clr.lsn
            self.dirty_pages.setdefault((record.fileid, record.pageno), clr.lsn)
            pool.mark_dirty(heap.file, record.pageno, write_sem)
            return clr

        if rtype in (LogRecordType.BTREE_INSERT, LogRecordType.BTREE_DELETE):
            btree = self._btrees[record.fileid]
            sem = SemanticInfo.update(ContentType.INDEX, record.oid)
            if rtype is LogRecordType.BTREE_INSERT:
                btree.delete(pool, record.key, record.rid, sem)
                clr_type = LogRecordType.BTREE_DELETE
            else:
                btree.insert(pool, record.key, record.rid, sem)
                clr_type = LogRecordType.BTREE_INSERT
            return self.wal.append(
                clr_type,
                txid=record.txid,
                prev_lsn=record.prev_lsn,
                fileid=record.fileid,
                oid=record.oid,
                key=record.key,
                rid=record.rid,
                compensates=record.lsn,
            )
        raise ValueError(f"record type {rtype} is not undoable")

    # ------------------------------------------------------------- registry

    def known_heaps(self) -> dict[int, HeapFile]:
        """Every heap file recovery may need: catalog + logged ones."""
        heaps = {
            rel.heap.file.fileid: rel.heap
            for rel in self.db.catalog.relations
        }
        heaps.update(self._heaps)
        return heaps

    def known_btrees(self) -> dict[int, BTree]:
        """Every index recovery may need: catalog + logged ones."""
        btrees = {
            ix.btree.file.fileid: ix.btree for ix in self.db.catalog.indexes
        }
        btrees.update(self._btrees)
        return btrees
