"""The WAL size model's exact-type fast path gives the reference sizes.

``LogRecord.size_bytes`` decides how records pack into log pages, so
every simulated WAL byte offset and flush range depends on it.  The
reference below is the plain ``isinstance`` chain the model is defined
by; the production version dispatches on ``type(value)`` first.  For
every record type and arbitrary payloads — nested tuples, lists and
dicts, bools, and int/float/str subclasses — both must agree.
"""

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.txn.wal import _RECORD_HEADER_BYTES, LogRecord, LogRecordType


def reference_payload_bytes(value) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(reference_payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return 4 + sum(
            reference_payload_bytes(k) + reference_payload_bytes(v)
            for k, v in value.items()
        )
    return 16


def reference_size(record: LogRecord) -> int:
    return _RECORD_HEADER_BYTES + sum(
        reference_payload_bytes(value)
        for value in (
            record.fileid,
            record.oid,
            record.pageno,
            record.slot,
            record.row,
            record.old_row,
            record.key,
            record.rid,
            record.compensates,
            record.active_txns,
            record.dirty_pages,
        )
    )


class MyInt(int):
    pass


class MyFloat(float):
    pass


class MyStr(str):
    pass


class MyTuple(tuple):
    pass


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Opaque:
    """A value the model does not know: sized as 16 bytes."""

    def __eq__(self, other):
        return isinstance(other, Opaque)

    def __hash__(self):
        return 0


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.integers(-(2**40), 2**40).map(MyInt),
    st.floats(allow_nan=False).map(MyFloat),
    st.text(max_size=10).map(MyStr),
    st.sampled_from(Color),
    st.just(Opaque()),
)
hashables = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner), max_leaves=6
)


def nested(max_leaves: int):
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5).map(tuple),
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=3).map(MyTuple),
            st.dictionaries(hashables, inner, max_size=4),
        ),
        max_leaves=max_leaves,
    )


values = nested(25)
field_values = nested(6)


_FIELDS = (
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


@st.composite
def records(draw):
    rtype = draw(st.sampled_from(LogRecordType))
    record = LogRecord(lsn=draw(st.integers(1, 2**40)), type=rtype)
    for name in draw(st.sets(st.sampled_from(_FIELDS))):
        setattr(record, name, draw(field_values))
    return record


@given(value=values)
@settings(max_examples=300)
def test_record_sizes_match_reference_for_any_payload(value):
    record = LogRecord(lsn=1, type=LogRecordType.HEAP_UPDATE, row=value)
    assert record.size_bytes() == reference_size(record)


@given(record=records())
@settings(max_examples=200)
def test_every_record_type_matches_reference(record):
    assert record.size_bytes() == reference_size(record)


def test_subclass_and_nested_examples():
    cases = [
        True,
        MyInt(5),
        Color.RED,
        MyFloat(1.5),
        MyStr("abc"),
        MyTuple((1, "x", None)),
        [1, (2, [3.0, {"k": (True, None)}])],
        {(1, 2): 3, MyInt(4): [Color.BLUE]},
        Opaque(),
    ]
    for value in cases:
        record = LogRecord(lsn=1, type=LogRecordType.BTREE_INSERT, key=value)
        assert record.size_bytes() == reference_size(record), value
