"""Workload definitions and the seeded inputs they are built from.

Everything a run sends is derived from ``--seed``: the TPC-H data (the
server generates the same tables from the same seed), the pool of query
parameter sets drawn from the TPC-H substitution ranges, the order of
the query stream, and the refresh stream of the ``htap-durable`` writer.
"""

from __future__ import annotations

import datetime as _dt
import random
from decimal import Decimal
from typing import Any, Dict, List, Tuple

#: The ten reproduced queries, in a fixed order (stream indices refer to it).
QUERY_NAMES = ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q10", "q12", "q14")

#: Parameter sets drawn per query; the stream cycles through all of them
#: and the oracle holds one reference answer per set.
PARAMS_PER_QUERY = 8

#: Workload settings.  ``memory_budget`` is the hot-tier byte budget of
#: the block pool: 4 MiB is about a quarter of the 15 MiB pool that the
#: columnar, dictionary-encoded SF 0.005 tables occupy.
#: ``write_rate`` is in batches per second; each batch carries
#: ``adds`` new lineitems and ``updates`` updates, and the loaded
#: lineitems reserved for removal are spread evenly over the batches.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "olap-hot": {
        "sf": 0.005,
        "layout": "columnar",
        "workers": 2,
        "memory_budget": None,
        "durable": False,
    },
    "olap-tiered": {
        "sf": 0.005,
        "layout": "columnar",
        "workers": 2,
        "memory_budget": 4 * 2**20,
        "durable": False,
    },
    "htap-durable": {
        "sf": 0.002,
        "layout": "row",
        "workers": 1,
        "memory_budget": None,
        "durable": True,
        "fsync": "commit",
        "checkpoint_bytes": 288 * 1024,
        "write_rate": 10.0,
        "adds": 8,
        "updates": 2,
    },
}

# Rows the refresh stream touches are invisible to every query of the
# mix under every parameter set in the TPC-H substitution ranges: their
# order is dated 1998 (q3/q4/q5/q10 read orders up to 1997) and they ship
# after 1998-10-02 (q1's latest cut-off; q6/q7/q12/q14 read 1993-1997).
# So every query reply can be checked against the loaded data alone,
# however the reader interleaves with the writer.
_LATE_ORDER = _dt.date(1998, 6, 5)
_INVISIBLE_ORDER = _dt.date(1998, 1, 1)
_INVISIBLE_SHIP = _dt.date(1998, 10, 3)

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_WORDS = (
    "refresh stream quickly pending orders lately final careful "
    "bold ironic accounts ideas deposits"
).split()


def _months(first: Tuple[int, int], last: Tuple[int, int]) -> List[_dt.date]:
    """First days of the months from *first* to *last* inclusive."""
    out = []
    y, m = first
    while (y, m) <= last:
        out.append(_dt.date(y, m, 1))
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def _add_months(d: _dt.date, n: int) -> _dt.date:
    m = d.month - 1 + n
    return _dt.date(d.year + m // 12, m % 12 + 1, 1)


_YEARS = [_dt.date(y, 1, 1) for y in range(1993, 1998)]

#: Substitution domain of each query parameter (TPC-H 2.4), one list per
#: dimension; derived parameters follow from the drawn ones.
_DOMAINS: Dict[str, Dict[str, List[Any]]] = {
    "q1": {"delta": list(range(60, 121))},
    "q2": {"q2_size": list(range(1, 51)), "q2_region": _REGIONS},
    "q3": {
        "q3_segment": _SEGMENTS,
        "q3_date": [_dt.date(1995, 3, d) for d in range(1, 32)],
    },
    "q4": {"q4_date": _months((1993, 1), (1997, 10))},
    "q5": {"q5_region": _REGIONS, "q5_date": _YEARS},
    "q6": {"q6_date": _YEARS, "disc": list(range(2, 10)), "q6_quantity": [24, 25]},
    "q7": {"pair": [(a, b) for a in _NATIONS for b in _NATIONS if a != b]},
    "q10": {"q10_date": _months((1993, 2), (1995, 1))},
    "q12": {"q12_date": _YEARS},
    "q14": {"q14_date": _months((1993, 1), (1997, 12))},
}


def _derive(name: str, v: Dict[str, Any]) -> Dict[str, Any]:
    if name == "q1":
        return {"q1_date": _dt.date(1998, 12, 1) - _dt.timedelta(v.pop("delta"))}
    if name == "q4":
        v["q4_date_hi"] = _add_months(v["q4_date"], 3)
    elif name == "q5":
        v["q5_date_hi"] = v["q5_date"].replace(year=v["q5_date"].year + 1)
    elif name == "q6":
        disc = v.pop("disc")
        v["q6_date_hi"] = v["q6_date"].replace(year=v["q6_date"].year + 1)
        v["q6_disc_lo"] = Decimal(disc - 1).scaleb(-2)
        v["q6_disc_hi"] = Decimal(disc + 1).scaleb(-2)
        v["q6_quantity"] = Decimal(v["q6_quantity"])
    elif name == "q7":
        v["q7_nation_a"], v["q7_nation_b"] = v.pop("pair")
    elif name == "q10":
        v["q10_date_hi"] = _add_months(v["q10_date"], 3)
    elif name == "q12":
        v["q12_date_hi"] = v["q12_date"].replace(year=v["q12_date"].year + 1)
    elif name == "q14":
        v["q14_date_hi"] = _add_months(v["q14_date"], 1)
    return v


def _balanced(rnd: random.Random, domain: List[Any], n: int) -> List[Any]:
    """*n* draws from *domain* that cover it evenly, in random order.

    A domain at least *n* long is cut into *n* contiguous strata with one
    draw from each; a shorter one is repeated in shuffled rounds.  Every
    seed's pool then spans the substitution ranges alike, so pools of
    different seeds cost about the same to answer.
    """
    k = len(domain)
    if k >= n:
        out = [rnd.choice(domain[i * k // n : (i + 1) * k // n]) for i in range(n)]
    else:
        out = []
        while len(out) < n:
            out += rnd.sample(domain, k)
        out = out[:n]
    rnd.shuffle(out)
    return out


def param_pool(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The seeded ``(query, params)`` pool; stream items index into it."""
    rnd = random.Random(f"params-{seed}")
    pool = []
    for name in QUERY_NAMES:
        dims = {d: _balanced(rnd, dom, PARAMS_PER_QUERY) for d, dom in _DOMAINS[name].items()}
        for j in range(PARAMS_PER_QUERY):
            pool.append((name, _derive(name, {d: seq[j] for d, seq in dims.items()})))
    return pool


class QueryStream:
    """Endless seeded sequence of indices into :func:`param_pool`.

    Shuffled rounds: each round sends every pool entry once in a fresh
    random order, so every run's mix matches the pool exactly, up to the
    last partial round.
    """

    def __init__(self, seed: int, tag: str) -> None:
        self._rnd = random.Random(f"stream-{tag}-{seed}")
        self._n = len(QUERY_NAMES) * PARAMS_PER_QUERY
        self._round: List[int] = []

    def next(self) -> int:
        if not self._round:
            self._round = self._rnd.sample(range(self._n), self._n)
        return self._round.pop()


# ----------------------------------------------------------------------
# The htap-durable refresh stream
# ----------------------------------------------------------------------


def lineitem_entries(collections) -> Dict[Tuple[int, int], int]:
    """``(orderkey, linenumber) -> entry id`` of a freshly loaded lineitem."""
    return {
        (h.orderkey, h.linenumber): h.ref.entry for h in collections["lineitem"]
    }


def key_entries(collections, table: str, key: str) -> Dict[int, int]:
    return {getattr(h, key): h.ref.entry for h in collections[table]}


def _comment(rnd: random.Random) -> str:
    return " ".join(rnd.choice(_WORDS) for __ in range(rnd.randint(3, 7)))


def refresh_batches(
    data, collections, seed: int, seconds: float, cfg: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """The seeded write stream: one dict per batch.

    Each batch holds the wire ``ops`` plus the logical change it makes
    (``adds``: full lineitem rows; ``updates``: ``(key, values)``;
    ``removes``: keys), which the durable oracle replays.  Entry ids come
    from *collections*, an in-process load of the same data in the same
    order as the server's.
    """
    from repro.service.protocol import encode_value

    rnd = random.Random(f"refresh-{seed}")
    n_batches = max(1, int(seconds * cfg["write_rate"]))
    orders = {o["orderkey"]: o for o in data.orders}
    late_orders = sorted(k for k, o in orders.items() if o["orderdate"] >= _LATE_ORDER)
    retail = {p["partkey"]: p["retailprice"] for p in data.part}
    pairs = [(ps["partkey"], ps["suppkey"]) for ps in data.partsupp]
    next_line: Dict[int, int] = {}
    for li in data.lineitem:
        k = li["orderkey"]
        next_line[k] = max(next_line.get(k, 0), li["linenumber"]) + 1
    entries = lineitem_entries(collections)
    order_entry = key_entries(collections, "orders", "orderkey")
    part_entry = key_entries(collections, "part", "partkey")
    supp_entry = key_entries(collections, "supplier", "suppkey")

    invisible = sorted(
        (li["orderkey"], li["linenumber"])
        for li in data.lineitem
        if orders[li["orderkey"]]["orderdate"] >= _INVISIBLE_ORDER
        and li["shipdate"] >= _INVISIBLE_SHIP
    )
    rnd.shuffle(invisible)
    half = len(invisible) // 2
    to_remove, to_update = invisible[:half], invisible[half:]

    batches = []
    for i in range(n_batches):
        ops: List[Dict[str, Any]] = []
        adds, updates, removes = [], [], []
        for __ in range(cfg["adds"]):
            okey = rnd.choice(late_orders)
            odate = orders[okey]["orderdate"]
            pkey, skey = rnd.choice(pairs)
            qty = Decimal(rnd.randint(1, 50))
            ship = max(odate + _dt.timedelta(rnd.randint(1, 121)), _INVISIBLE_SHIP)
            receipt = ship + _dt.timedelta(rnd.randint(1, 30))
            row = {
                "orderkey": okey,
                "partkey": pkey,
                "suppkey": skey,
                "linenumber": next_line[okey],
                "quantity": qty,
                "extendedprice": (qty * retail[pkey]).quantize(Decimal("0.01")),
                "discount": Decimal(rnd.randint(0, 10)).scaleb(-2),
                "tax": Decimal(rnd.randint(0, 8)).scaleb(-2),
                "returnflag": "N",
                "linestatus": "O",
                "shipdate": ship,
                "commitdate": odate + _dt.timedelta(rnd.randint(30, 90)),
                "receiptdate": receipt,
                "shipinstruct": rnd.choice(_INSTRUCTIONS),
                "shipmode": rnd.choice(_SHIPMODES),
                "comment": _comment(rnd),
            }
            next_line[okey] += 1
            adds.append(row)
            values = {k: encode_value(v) for k, v in row.items()}
            values["order"] = {"$r": order_entry[okey]}
            values["part"] = {"$r": part_entry[pkey]}
            values["supplier"] = {"$r": supp_entry[skey]}
            ops.append({"op": "add", "collection": "lineitem", "values": values})
        for __ in range(cfg["updates"]):
            key = rnd.choice(to_update)
            change = {"comment": _comment(rnd), "quantity": Decimal(rnd.randint(1, 50))}
            updates.append((key, change))
            ops.append(
                {
                    "op": "update",
                    "collection": "lineitem",
                    "entry": entries[key],
                    "values": {k: encode_value(v) for k, v in change.items()},
                }
            )
        # Spread the removal set evenly over the stream.
        for j in range(len(to_remove) * i // n_batches, len(to_remove) * (i + 1) // n_batches):
            key = to_remove[j]
            removes.append(key)
            ops.append({"op": "remove", "collection": "lineitem", "entry": entries[key]})
        batches.append({"ops": ops, "adds": adds, "updates": updates, "removes": removes})
    return batches
