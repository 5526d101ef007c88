"""The write-ahead log (ARIES-lite, DESIGN.md §8).

LSN-stamped physiological records — begin/commit/abort, slot-level redo
images for heap insert/delete/update, logical B-tree entry operations,
compensation records (CLRs) and checkpoints — packed into fixed-size log
pages written through the :class:`~repro.db.storage_manager.StorageManager`
with ``ContentType.LOG`` semantics.  Under hStorage-DB the policy table
maps that class to the *write-buffer* QoS policy (the paper's Table 3
gives transaction log data the strongest treatment in the system), so a
commit's log force never waits on the HDD.

The simulator models placement and service time, not byte durability
(DESIGN.md §5): records keep their Python payloads, and "serialization"
is a deterministic size model that decides how records pack into 8 KiB
log pages.  Everything timing-visible — which pages a flush writes, how a
partial tail page is rewritten by the next flush, the sequential read
stream recovery issues — follows the real protocol.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.semantics import SemanticInfo
from repro.db.errors import ReproError
from repro.db.heap import Rid
from repro.db.pages import DbFile, FileKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.storage_manager import StorageManager

WAL_OID = 1
"""Reserved object id of the write-ahead log (user objects start at 1000)."""

_RECORD_HEADER_BYTES = 28
"""Per-record overhead: lsn, type, txid, prev_lsn, length, CRC."""


class LogRecordType(enum.Enum):
    """What one WAL record describes."""

    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    HEAP_INSERT = "heap-insert"
    HEAP_DELETE = "heap-delete"
    HEAP_UPDATE = "heap-update"
    BTREE_INSERT = "btree-insert"
    BTREE_DELETE = "btree-delete"
    CHECKPOINT = "checkpoint"


UNDOABLE_TYPES = frozenset(
    {
        LogRecordType.HEAP_INSERT,
        LogRecordType.HEAP_DELETE,
        LogRecordType.HEAP_UPDATE,
        LogRecordType.BTREE_INSERT,
        LogRecordType.BTREE_DELETE,
    }
)
"""Record types that carry a data change a loser transaction must undo."""


@dataclass
class LogRecord:
    """One WAL record.

    ``prev_lsn`` backchains the records of one transaction (ARIES).  A
    compensation record (CLR) sets ``compensates`` to the LSN of the
    change it undoes; CLRs are redone like any other record ("repeat
    history") but are never themselves undone.

    Heap records address their target physiologically — ``(fileid,
    pageno, slot)`` plus the row image(s) needed for redo and undo.
    B-tree records are logical ``(key, rid)`` entry operations; index
    recovery restores the checkpoint image of the tree and replays them
    (DESIGN.md §8).
    """

    lsn: int
    type: LogRecordType
    txid: int | None = None
    prev_lsn: int | None = None
    fileid: int | None = None
    oid: int | None = None
    pageno: int | None = None
    slot: int | None = None
    row: tuple | None = None
    old_row: tuple | None = None
    key: object | None = None
    rid: Rid | None = None
    compensates: int | None = None
    active_txns: dict[int, int] | None = None
    dirty_pages: dict[tuple[int, int], int] | None = None
    end_offset: int = field(default=0, compare=False)
    """Byte offset of the first byte past this record in the log stream
    (assigned on append; drives page layout and flush ranges)."""

    def size_bytes(self) -> int:
        """Deterministic serialized-size model for page packing."""
        return _RECORD_HEADER_BYTES + sum(
            _payload_bytes(value)
            for value in (
                self.fileid,
                self.oid,
                self.pageno,
                self.slot,
                self.row,
                self.old_row,
                self.key,
                self.rid,
                self.compensates,
                self.active_txns,
                self.dirty_pages,
            )
        )


_SCALAR_BYTES = {type(None): 1, bool: 1, int: 8, float: 8}
"""Fixed sizes of the exact scalar types, for the size model's fast path."""


def _payload_bytes(value) -> int:
    """Size model for one serialized payload field.

    Dispatches on the exact type first (the common case: rows of plain
    scalars); subclasses and dicts take the ``isinstance`` chain, which
    gives every type the same size either way.
    """
    cls = type(value)
    size = _SCALAR_BYTES.get(cls)
    if size is not None:
        return size
    if cls is str:
        return 4 + len(value)
    if cls is tuple or cls is list:
        return 4 + sum(map(_payload_bytes, value))
    # None and bool cannot be subclassed, so the table above got them.
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(_payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            _payload_bytes(k) + _payload_bytes(v) for k, v in value.items()
        )
    return 16


class WalCodecError(ReproError):
    """Corrupt or unsupported bytes in the WAL wire format."""


# --------------------------------------------------------------- wire format
#
# The simulator charges I/O from the *size model* above; this codec is the
# real thing — a byte-exact, CRC-guarded serialization of every record
# type, and the page framing that packs the record stream into fixed-size
# log pages (records straddle page boundaries, as on disk).  Recovery
# correctness tests and the property suite round-trip through it, so the
# format is proven total over arbitrary payloads even though the timing
# model never consults it.
#
# Record frame:   u32 body length | u32 CRC-32(body) | body
# Body:           u64 lsn | u8 type | tagged payload fields in fixed order
# Page frame:     u32 offset-of-first-record-start in the page's payload
#                 (0xFFFFFFFF when no record starts there) | payload bytes
# Value tags:     None/False/True/int/float/str/tuple/list/dict, nestable.

_NO_RECORD = 0xFFFFFFFF
_PAGE_HEADER = struct.Struct("<I")
_RECORD_FRAME = struct.Struct("<II")
_BODY_HEAD = struct.Struct("<QB")

_TAG_NONE, _TAG_FALSE, _TAG_TRUE = 0, 1, 2
_TAG_INT, _TAG_FLOAT, _TAG_STR = 3, 4, 5
_TAG_TUPLE, _TAG_LIST, _TAG_DICT = 6, 7, 8

_PAYLOAD_FIELDS = (
    "txid",
    "prev_lsn",
    "fileid",
    "oid",
    "pageno",
    "slot",
    "row",
    "old_row",
    "key",
    "rid",
    "compensates",
    "active_txns",
    "dirty_pages",
)

_TYPE_BY_INDEX = tuple(LogRecordType)
_INDEX_BY_TYPE = {rtype: i for i, rtype in enumerate(_TYPE_BY_INDEX)}


def _encode_value(value) -> bytes:
    if value is None:
        return bytes((_TAG_NONE,))
    if value is False:
        return bytes((_TAG_FALSE,))
    if value is True:
        return bytes((_TAG_TRUE,))
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
        return struct.pack("<BI", _TAG_INT, len(raw)) + raw
    if isinstance(value, float):
        return struct.pack("<Bd", _TAG_FLOAT, value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return struct.pack("<BI", _TAG_STR, len(raw)) + raw
    if isinstance(value, (tuple, list)):
        tag = _TAG_TUPLE if isinstance(value, tuple) else _TAG_LIST
        parts = [struct.pack("<BI", tag, len(value))]
        parts.extend(_encode_value(item) for item in value)
        return b"".join(parts)
    if isinstance(value, dict):
        parts = [struct.pack("<BI", _TAG_DICT, len(value))]
        for k, v in value.items():
            parts.append(_encode_value(k))
            parts.append(_encode_value(v))
        return b"".join(parts)
    raise WalCodecError(f"unserializable WAL payload value: {value!r}")


def _decode_value(buf: bytes, off: int):
    tag = buf[off]
    off += 1
    if tag == _TAG_NONE:
        return None, off
    if tag == _TAG_FALSE:
        return False, off
    if tag == _TAG_TRUE:
        return True, off
    if tag == _TAG_INT:
        (length,) = struct.unpack_from("<I", buf, off)
        off += 4
        raw = buf[off : off + length]
        return int.from_bytes(raw, "little", signed=True), off + length
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack_from("<d", buf, off)
        return value, off + 8
    if tag == _TAG_STR:
        (length,) = struct.unpack_from("<I", buf, off)
        off += 4
        return buf[off : off + length].decode("utf-8"), off + length
    if tag in (_TAG_TUPLE, _TAG_LIST):
        (count,) = struct.unpack_from("<I", buf, off)
        off += 4
        items = []
        for _ in range(count):
            item, off = _decode_value(buf, off)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), off
    if tag == _TAG_DICT:
        (count,) = struct.unpack_from("<I", buf, off)
        off += 4
        result = {}
        for _ in range(count):
            k, off = _decode_value(buf, off)
            v, off = _decode_value(buf, off)
            result[k] = v
        return result, off
    raise WalCodecError(f"unknown value tag {tag} at offset {off - 1}")


def encode_record(record: "LogRecord") -> bytes:
    """Serialize one record: length/CRC frame around lsn, type, payload."""
    body = bytearray(
        _BODY_HEAD.pack(record.lsn, _INDEX_BY_TYPE[record.type])
    )
    for name in _PAYLOAD_FIELDS:
        body += _encode_value(getattr(record, name))
    return _RECORD_FRAME.pack(len(body), zlib.crc32(body)) + bytes(body)


def decode_record(buf: bytes, off: int = 0) -> tuple["LogRecord", int]:
    """Parse one record frame at ``off``; returns (record, next offset)."""
    if off + _RECORD_FRAME.size > len(buf):
        raise WalCodecError(f"truncated record frame at offset {off}")
    length, crc = _RECORD_FRAME.unpack_from(buf, off)
    off += _RECORD_FRAME.size
    body = buf[off : off + length]
    if len(body) != length:
        raise WalCodecError(f"truncated record body at offset {off}")
    if zlib.crc32(body) != crc:
        raise WalCodecError(f"CRC mismatch at offset {off}")
    lsn, type_index = _BODY_HEAD.unpack_from(body, 0)
    if type_index >= len(_TYPE_BY_INDEX):
        raise WalCodecError(f"unknown record type index {type_index}")
    fields = {}
    pos = _BODY_HEAD.size
    for name in _PAYLOAD_FIELDS:
        fields[name], pos = _decode_value(body, pos)
    if pos != length:
        raise WalCodecError(f"{length - pos} trailing bytes in record body")
    rid = fields.get("rid")
    if isinstance(rid, tuple):
        fields["rid"] = (rid[0], rid[1])
    dirty = fields.get("dirty_pages")
    if isinstance(dirty, dict):
        fields["dirty_pages"] = {
            (k[0], k[1]): v for k, v in dirty.items()
        }
    record = LogRecord(lsn=lsn, type=_TYPE_BY_INDEX[type_index], **fields)
    return record, off + length


def pack_records(
    records: Iterable["LogRecord"], page_bytes: int = 8192
) -> list[bytes]:
    """Pack a record stream into fixed-size log pages.

    Records flow continuously across pages (a record larger than one
    page's payload simply spans several); each page's header points at
    the first record that *starts* inside it, which is what lets a reader
    begin mid-log.  The final page is zero-padded to ``page_bytes``.
    """
    payload_bytes = page_bytes - _PAGE_HEADER.size
    if payload_bytes <= 0:
        raise WalCodecError(f"page size {page_bytes} smaller than the header")
    starts: list[int] = []
    stream = bytearray()
    for record in records:
        starts.append(len(stream))
        stream += encode_record(record)
    if not stream:
        return []
    pages: list[bytes] = []
    npages = (len(stream) + payload_bytes - 1) // payload_bytes
    start_idx = 0
    for pageno in range(npages):
        lo = pageno * payload_bytes
        hi = lo + payload_bytes
        while start_idx < len(starts) and starts[start_idx] < lo:
            start_idx += 1
        if start_idx < len(starts) and starts[start_idx] < hi:
            header = _PAGE_HEADER.pack(starts[start_idx] - lo)
        else:
            header = _PAGE_HEADER.pack(_NO_RECORD)
        payload = bytes(stream[lo:hi]).ljust(payload_bytes, b"\x00")
        pages.append(header + payload)
    return pages


def unpack_records(
    pages: Iterable[bytes], page_bytes: int = 8192
) -> list["LogRecord"]:
    """Decode the record stream out of packed log pages.

    Verifies each page's size and first-record header against the
    reconstructed stream, then parses records until the zero padding.
    """
    payload_bytes = page_bytes - _PAGE_HEADER.size
    stream = bytearray()
    headers: list[int] = []
    for page in pages:
        if len(page) != page_bytes:
            raise WalCodecError(
                f"log page is {len(page)} bytes, expected {page_bytes}"
            )
        (first,) = _PAGE_HEADER.unpack_from(page, 0)
        headers.append(first)
        stream += page[_PAGE_HEADER.size :]
    data = bytes(stream)
    records: list[LogRecord] = []
    starts: list[int] = []  # ascending: the parse is sequential
    off = 0
    while off + _RECORD_FRAME.size <= len(data):
        length, _ = _RECORD_FRAME.unpack_from(data, off)
        if length == 0:
            break  # zero padding: end of stream
        starts.append(off)
        record, off = decode_record(data, off)
        records.append(record)
    start_idx = 0
    for pageno, first in enumerate(headers):
        lo, hi = pageno * payload_bytes, (pageno + 1) * payload_bytes
        while start_idx < len(starts) and starts[start_idx] < lo:
            start_idx += 1
        expected = (
            starts[start_idx] - lo
            if start_idx < len(starts) and starts[start_idx] < hi
            else None
        )
        claimed = None if first == _NO_RECORD else first
        if claimed != expected:
            raise WalCodecError(
                f"page {pageno} header claims first record at {claimed}, "
                f"stream says {expected}"
            )
    return records


class _LogPage:
    """Placeholder page object of the WAL file (contents live in records)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<wal-page>"


class WriteAheadLog:
    """An append-only, page-structured log with explicit flush control.

    Appends accumulate in the (volatile) WAL buffer; :meth:`flush` makes
    records durable by writing every log page from the first not-yet-
    fully-flushed one through the page holding the flush target, via the
    storage manager with ``ContentType.LOG`` write semantics.  A partial
    tail page is rewritten by the next flush, exactly like a real WAL.
    """

    def __init__(
        self, storage_manager: "StorageManager", query_id: int | None = None
    ) -> None:
        self.storage_manager = storage_manager
        self.file: DbFile = storage_manager.create_file(FileKind.LOG, oid=WAL_OID)
        self.page_bytes = storage_manager.params.block_size
        self.records: list[LogRecord] = []
        self.query_id = query_id
        self._next_lsn = 1
        self._end_offset = 0
        self._flushed_lsn = 0
        self._flushed_offset = 0
        self.flushes = 0
        self.records_written = 0

    # ------------------------------------------------------------- appending

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record (0 when the log is empty)."""
        return self._next_lsn - 1

    @property
    def flushed_lsn(self) -> int:
        """Every record with ``lsn <= flushed_lsn`` is durable."""
        return self._flushed_lsn

    def append(self, type: LogRecordType, **fields) -> LogRecord:
        """Stamp and buffer one record; returns it with its LSN assigned."""
        record = LogRecord(lsn=self._next_lsn, type=type, **fields)
        self._next_lsn += 1
        self._end_offset += record.size_bytes()
        record.end_offset = self._end_offset
        self.records.append(record)
        # Materialise log pages as the byte stream crosses page boundaries.
        needed = self._page_of(self._end_offset - 1) + 1
        while self.file.num_pages < needed:
            self.file.allocate_page(_LogPage())
        obs = self._observer
        if obs is not None:
            obs.on_wal_append()
        return record

    # -------------------------------------------------------------- flushing

    def flush(self, upto_lsn: int | None = None) -> int:
        """Force the log through ``upto_lsn`` (default: everything).

        Returns the number of log pages written.  Pages are written
        synchronously (a log force is on the critical path of whoever
        demanded it — a committing transaction or a page steal).
        """
        target = self.last_lsn if upto_lsn is None else min(upto_lsn, self.last_lsn)
        if target <= self._flushed_lsn:
            return 0
        end_offset = self.records[target - 1].end_offset
        first_page = self._page_of(self._flushed_offset)
        last_page = self._page_of(end_offset - 1)
        pagenos = list(range(first_page, last_page + 1))
        obs = self._observer
        clock = self.storage_manager.storage.clock
        before = clock.now
        self.storage_manager.write_pages_batch(
            self.file,
            pagenos,
            SemanticInfo.log_write(oid=WAL_OID, query_id=self.query_id),
            async_hint=False,
        )
        if obs is not None:
            obs.on_wal_flush(len(pagenos), clock.now - before)
        self.records_written += target - self._flushed_lsn
        self._flushed_lsn = target
        self._flushed_offset = end_offset
        self.flushes += 1
        return len(pagenos)

    @property
    def _observer(self):
        obs = getattr(self.storage_manager.storage, "observer", None)
        return obs if obs is not None and obs.enabled else None

    def _page_of(self, offset: int) -> int:
        return max(0, offset) // self.page_bytes

    # --------------------------------------------------------------- reading

    def read_records(self, from_lsn: int = 1) -> list[LogRecord]:
        """Recovery's sequential log scan: charges LOG-class read I/O for
        the page range covering ``[from_lsn, last]`` and returns the
        records."""
        if from_lsn > self.last_lsn:
            return []
        start_offset = (
            0 if from_lsn <= 1 else self.records[from_lsn - 2].end_offset
        )
        first_page = self._page_of(start_offset)
        last_page = self._page_of(self._end_offset - 1)
        self.storage_manager.read_pages_batch(
            self.file,
            [(first_page, last_page - first_page + 1)],
            SemanticInfo.log_read(oid=WAL_OID, query_id=self.query_id),
        )
        return self.records[from_lsn - 1 :]

    # ------------------------------------------------- crash-state restoring

    def restore_prefix(self, records: Iterable[LogRecord]) -> None:
        """Reset the log to a durable prefix (crash simulation).

        The WAL file itself survives a crash; this rewinds the in-memory
        record list to the given (already durable) prefix and re-anchors
        the append/flush positions, after which recovery may keep
        appending CLRs and the post-recovery checkpoint.
        """
        self.records = list(records)
        self._next_lsn = self.records[-1].lsn + 1 if self.records else 1
        self._end_offset = self.records[-1].end_offset if self.records else 0
        self._flushed_lsn = self.last_lsn
        self._flushed_offset = self._end_offset
        keep = self._page_of(self._end_offset - 1) + 1 if self._end_offset else 0
        del self.file.pages[keep:]
