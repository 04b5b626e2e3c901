"""Block-at-a-time columnar ingest (``ColumnarCollection.add_many``).

``add_many`` must leave exactly the state one-row ``add`` calls leave:
byte-identical block buffers (columns, slot directory, back-pointers,
slot incarnations), the same indirection table and the same dictionary
codes.  A rejected row — in ``add`` or anywhere in an ``add_many`` chunk —
must leave no trace in either layout.
"""

import struct
from decimal import Decimal

import pytest

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.memory.manager import MemoryManager
from repro.rdbms.queries import run_plan
from repro.schema import CharField, Int32Field, RefField, Tabular, VarStringField
from repro.tpch import DEFAULT_PARAMS, generate, load_rdbms, load_smc
from repro.tpch import schema as tpch_schema
from repro.tpch.queries import QUERIES


class IngestOwner(Tabular):
    name = CharField(8)


class IngestItem(Tabular):
    label = VarStringField()
    owner = RefField("IngestOwner")
    code = CharField(4)
    qty = Int32Field()
    note = VarStringField()


@pytest.fixture(scope="module")
def tpch_002():
    return generate(0.002, seed=1)


def _load_one_row_at_a_time(data, manager):
    """``load_smc(columnar=True)`` as it was before add_many: one add per row."""
    colls = {
        name: ColumnarCollection(tpch_schema.SCHEMAS[name], manager=manager)
        for name in tpch_schema.TABLES
    }
    region = {r["regionkey"]: colls["region"].add(**r) for r in data.region}
    nation = {
        r["nationkey"]: colls["nation"].add(region=region[r["regionkey"]], **r)
        for r in data.nation
    }
    supplier = {
        r["suppkey"]: colls["supplier"].add(nation=nation[r["nationkey"]], **r)
        for r in data.supplier
    }
    customer = {
        r["custkey"]: colls["customer"].add(nation=nation[r["nationkey"]], **r)
        for r in data.customer
    }
    part = {r["partkey"]: colls["part"].add(**r) for r in data.part}
    for r in data.partsupp:
        colls["partsupp"].add(
            part=part[r["partkey"]], supplier=supplier[r["suppkey"]], **r
        )
    orders = {
        r["orderkey"]: colls["orders"].add(customer=customer[r["custkey"]], **r)
        for r in data.orders
    }
    for r in data.lineitem:
        colls["lineitem"].add(
            order=orders[r["orderkey"]],
            part=part[r["partkey"]],
            supplier=supplier[r["suppkey"]],
            **r,
        )
    colls["_manager"] = manager
    return colls


def _memory_state(manager):
    """Everything ingest writes: block images, entry table, strings."""
    table = manager.table
    contexts = []
    for context in manager._contexts:
        blocks = [
            (
                b.block_id,
                bytes(b.buf),
                b.valid_count,
                b.limbo_count,
                b.alloc_cursor,
                b.zone_version,
            )
            for b in context.blocks()
        ]
        contexts.append((context.name, context.live_count, blocks))
    dicts = []
    for coll in manager.collections.values():
        sd = coll.strdict
        if sd is not None:
            dicts.append((list(sd._texts), list(sd._refs), dict(sd._by_text)))
    heap = [bytes(b.buf[: b.bump]) for b in manager.strings._blocks]
    return {
        "contexts": contexts,
        "entries": (
            table.size,
            bytes(table._addr[: table.size]),
            bytes(table._inc[: table.size]),
            list(table._free),
        ),
        "dicts": dicts,
        "heap": (heap, manager.strings.bytes_in_use),
        "stats": manager.telemetry()["counters"],
    }


MANAGERS = {
    "dict": dict(),
    "no-dict": dict(string_dict=False),
    "direct": dict(direct_pointers=True),
    "shm": dict(shm=True),
    "budget": dict(memory_budget=1 << 20),
}


@pytest.mark.parametrize("kind", sorted(MANAGERS))
def test_tpch_batch_load_matches_one_row_adds(tpch_002, kind):
    batch = load_smc(tpch_002, manager=MemoryManager(**MANAGERS[kind]), columnar=True)
    single = _load_one_row_at_a_time(tpch_002, MemoryManager(**MANAGERS[kind]))
    try:
        assert _memory_state(batch["_manager"]) == _memory_state(single["_manager"])
    finally:
        batch["_manager"].close()
        single["_manager"].close()


def _churn(ingest, **manager_kwargs):
    """Add, remove, let epochs pass and add again; returns the final state.

    Small blocks put removed rows' LIMBO slots back into circulation
    (the reclamation queue, entries retired at epoch+2), so later batches
    reuse scattered slots and recycled indirection entries.
    """
    m = MemoryManager(block_shift=14, **manager_kwargs)
    owners = ColumnarCollection(IngestOwner, manager=m)
    items = ColumnarCollection(IngestItem, manager=m)
    bosses = ingest(owners, [{"name": f"o{i}"} for i in range(7)])
    rows = [
        {
            "label": f"label{i % 37}",
            "owner": bosses[i % 7] if i % 5 else None,
            "code": f"c{i % 100}",
            "qty": i,
            "note": f"note{i}" if i % 3 else None,
        }
        for i in range(2400)
    ]
    handles = ingest(items, rows[:900])
    for h in handles[::3]:
        items.remove(h)
    # No manual epoch advance: the allocation path advances the epoch
    # itself when the reclamation queue's head is not ready yet.
    handles += ingest(items, rows[900:1500])
    for h in handles[1::4]:
        if h.is_alive:
            items.remove(h)
    m.advance_epoch()
    m.advance_epoch()
    ingest(items, rows[1500:])
    try:
        return _memory_state(m), [
            (h.label, h.code, h.qty, h.note) for h in items
        ]
    finally:
        m.close()


@pytest.mark.parametrize("kind", ["dict", "no-dict", "direct"])
def test_limbo_reuse_matches_one_row_adds(kind):
    batch = _churn(lambda c, rows: c.add_many(rows), **MANAGERS[kind])
    single = _churn(lambda c, rows: [c.add(**r) for r in rows], **MANAGERS[kind])
    assert batch == single
    assert batch[0]["stats"]["limbo_reuses"] > 0


def _norm(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                round(float(c), 4) if isinstance(c, (Decimal, float)) else c
                for c in row
            )
        )
    return sorted(out, key=repr)


@pytest.mark.parametrize("qname", sorted(QUERIES))
def test_batch_loaded_queries_match_rdbms(tpch_002, qname):
    colls = load_smc(tpch_002, columnar=True)
    try:
        rows = QUERIES[qname](colls).run(params=DEFAULT_PARAMS).rows
        __, expected = run_plan(qname, load_rdbms(tpch_002), DEFAULT_PARAMS)
        assert _norm(rows) == _norm(expected)
    finally:
        colls["_manager"].close()


# ----------------------------------------------------------------------
# Rejected rows leave no trace
# ----------------------------------------------------------------------


def _trace(coll):
    """State a rejected row must not change."""
    m = coll.manager
    sd = coll.strdict
    return (
        m.table.size,
        list(m.table._free),
        dict(sd._by_text) if sd else None,
        list(sd._refs) if sd else None,
        m.strings.bytes_in_use,
        [bytes(b.buf[: b.bump]) for b in m.strings._blocks],
        len(coll),
        [(b.block_id, b.alloc_cursor, bytes(b.directory)) for b in coll.blocks()],
    )


def _next_address(coll):
    h = coll.add(label="next", code="ok", qty=1)
    return h.ref.address()


BAD_ROWS = {
    "unknown-field": ({"label": "leak", "bogus": 1}, TypeError),
    "non-handle-ref": ({"label": "leak", "owner": 5}, TypeError),
    "char-overflow": ({"label": "leak", "code": "toolong"}, ValueError),
    "char-overflow-utf8": ({"label": "leak", "code": "ééé"}, ValueError),
}


def _bad_rows(layout):
    rows = dict(BAD_ROWS)
    # Out-of-range integers: NumPy's OverflowError in columns, struct's
    # error in row slots.
    rows["int-overflow"] = (
        {"label": "leak", "note": "leak2", "qty": 2**40},
        OverflowError if layout is ColumnarCollection else struct.error,
    )
    return rows


@pytest.mark.parametrize("layout", [Collection, ColumnarCollection])
@pytest.mark.parametrize("case", sorted(_bad_rows(Collection)))
def test_failed_add_leaves_no_trace(layout, case):
    values, error = _bad_rows(layout)[case]
    addresses = []
    for fail in (False, True):
        m = MemoryManager(block_shift=14)
        layout(IngestOwner, manager=m)
        coll = layout(IngestItem, manager=m)
        coll.add(label="first", code="a", qty=0)
        before = _trace(coll)
        if fail:
            for i in range(3):
                with pytest.raises(error):
                    coll.add(**dict(values, label=f"leak{i}"))
            assert _trace(coll) == before
            assert coll.strdict is None or coll.strdict.code_of("leak0") is None
        addresses.append(_next_address(coll))
        m.close()
    assert addresses[0] == addresses[1]


@pytest.mark.parametrize("case", sorted(_bad_rows(ColumnarCollection)))
def test_failed_add_many_chunk_publishes_nothing(case):
    values, error = _bad_rows(ColumnarCollection)[case]
    m = MemoryManager(block_shift=14)
    ColumnarCollection(IngestOwner, manager=m)
    coll = ColumnarCollection(IngestItem, manager=m)
    coll.add(label="first", code="a", qty=0)
    before = _trace(coll)
    good = [{"label": f"new{i}", "note": f"n{i}", "qty": i} for i in range(20)]
    with pytest.raises(error):
        coll.add_many(good[:10] + [values] + good[10:])
    assert _trace(coll) == before
    assert coll.strdict.code_of("new0") is None
    # The collection still ingests normally afterwards.
    assert [h.qty for h in coll.add_many(good)] == list(range(20))
    m.close()


def test_add_many_returns_handles_in_order_across_blocks():
    m = MemoryManager(block_shift=14)
    owners = ColumnarCollection(IngestOwner, manager=m)
    boss = owners.add(name="boss")
    coll = ColumnarCollection(IngestItem, manager=m)
    rows = [
        {"label": f"l{i % 11}", "owner": boss, "code": "x", "qty": i}
        for i in range(3 * coll._chunk_rows + 5)
    ]
    handles = coll.add_many(iter(rows))
    assert len(coll.blocks()) > 3
    assert [h.qty for h in handles] == list(range(len(rows)))
    assert all(h.owner == boss for h in handles[:: coll._chunk_rows // 2])
    assert [h.qty for h in coll] == list(range(len(rows)))
    m.close()


def test_row_layout_add_many_is_a_loop_over_add():
    m = MemoryManager()
    coll = Collection(IngestItem, manager=m)
    handles = coll.add_many([{"label": "a", "qty": 1}, {"label": "b", "qty": 2}])
    assert [(h.label, h.qty) for h in handles] == [("a", 1), ("b", 2)]
    m.close()


def test_add_many_fills_indexes_after_publish():
    m = MemoryManager()
    ColumnarCollection(IngestOwner, manager=m)
    coll = ColumnarCollection(IngestItem, manager=m)
    index = coll.create_index("qty")
    handles = coll.add_many({"label": "x", "qty": i % 4} for i in range(40))
    assert sorted(h.ref.entry for h in index.get(3)) == sorted(
        h.ref.entry for h in handles if h.qty == 3
    )
    m.close()
