"""Correctness oracle: reference answers and the durable-state replay.

Query replies are checked against the relational comparator
(``repro.rdbms``: hand-written column-store plans, an engine independent
of the self-managed collections under test) run on the same generated
data with the same parameters.  The durable check rebuilds the expected
rows of every table from the generated data plus every acknowledged
refresh batch, and compares them with what ``DurableStore.open`` recovers.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.service.protocol import decode_rows

#: Reference fields per table: ``ref name -> key column`` of the target,
#: which the referencing row also stores under the same column name.
REFS: Dict[str, Dict[str, str]] = {
    "region": {},
    "nation": {"region": "regionkey"},
    "supplier": {"nation": "nationkey"},
    "customer": {"nation": "nationkey"},
    "part": {},
    "partsupp": {"part": "partkey", "supplier": "suppkey"},
    "orders": {"customer": "custkey"},
    "lineitem": {"order": "orderkey", "part": "partkey", "supplier": "suppkey"},
}


def reference_answers(data, pool: List[Tuple[str, Dict[str, Any]]]) -> List[List[tuple]]:
    """One reference row list per ``(query, params)`` pool entry."""
    from repro.rdbms.queries import run_plan
    from repro.tpch.loader import load_rdbms
    from repro.tpch.queries import DEFAULT_PARAMS

    db = load_rdbms(data)
    return [
        [tuple(r) for r in run_plan(name, db, {**DEFAULT_PARAMS, **params})[1]]
        for name, params in pool
    ]


def check_reply(reply: Dict[str, Any], expected: List[tuple]) -> Optional[str]:
    """``None`` when *reply* is a successful answer equal to *expected*."""
    if not reply.get("ok"):
        return f"{reply.get('error')}: {reply.get('detail', reply.get('reason', ''))}"
    try:
        rows = decode_rows(reply.get("rows") or [])
    except (TypeError, ValueError) as exc:
        return f"undecodable rows ({exc})"
    if rows != expected:
        return f"{len(rows)} rows differ from the {len(expected)}-row reference"
    return None


def _columns(data, table: str) -> List[str]:
    rows = data.table(table)
    return list(rows[0]) if rows else []


def expected_rows(data, batches: Iterable[Dict[str, Any]]) -> Dict[str, Counter]:
    """Every table's rows after replaying *batches* over the loaded data."""
    tables: Dict[str, Counter] = {}
    for table in REFS:
        cols = _columns(data, table)
        keys = list(REFS[table].values())
        if table != "lineitem":
            tables[table] = Counter(
                tuple(r[c] for c in cols) + tuple(r[k] for k in keys)
                for r in data.table(table)
            )
    cols = _columns(data, "lineitem")
    keys = list(REFS["lineitem"].values())
    live = {(r["orderkey"], r["linenumber"]): dict(r) for r in data.lineitem}
    for batch in batches:
        for row in batch["adds"]:
            live[(row["orderkey"], row["linenumber"])] = dict(row)
        for key, change in batch["updates"]:
            live[tuple(key)].update(change)
        for key in batch["removes"]:
            del live[tuple(key)]
    tables["lineitem"] = Counter(
        tuple(r[c] for c in cols) + tuple(r[k] for k in keys) for r in live.values()
    )
    return tables


def recovered_rows(collections, data) -> Dict[str, Counter]:
    """Every table's live rows as stored, references resolved to keys."""
    tables: Dict[str, Counter] = {}
    for table, refs in REFS.items():
        cols = _columns(data, table)
        rows = Counter()
        for h in collections[table]:
            scalars = tuple(getattr(h, c) for c in cols)
            targets = tuple(getattr(getattr(h, ref), key) for ref, key in refs.items())
            rows[scalars + targets] += 1
        tables[table] = rows
    return tables


def durable_mismatches(expected: Dict[str, Counter], recovered: Dict[str, Counter]) -> List[str]:
    """Describe each table whose recovered rows differ from the replay."""
    faults = []
    for table, want in expected.items():
        got = recovered.get(table, Counter())
        lost = sum((want - got).values())
        extra = sum((got - want).values())
        if lost or extra:
            faults.append(
                f"{table}: {lost} acknowledged rows missing, {extra} rows that should not exist"
            )
    return faults
