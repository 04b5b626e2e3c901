"""Zone-map pruning on/off sweep over serial scans (standalone bench).

Runs zone pruning off and on over three scan-dominated queries:

* ``q1``  — TPC-H pricing summary (wide grouped aggregation, barely
  selective: the zone tests cannot prune much);
* ``q6``  — TPC-H forecast revenue (conjunctive range predicates on
  shipdate/discount/quantity: moderate pruning);
* ``selective`` — a narrow ``orderkey BETWEEN`` band.  ``orderkey`` is
  monotone with insertion order, so block zones partition the key space
  and most blocks are pruned — the best case for zone maps.

The pruned result is checked for equality against the unpruned
baseline; a mismatch is a hard failure (exit code 1), timings never
are.  Parallel fan-out is measured by ``bench_process_exec.py``: a
``workers > 1`` request without a process pool runs this same serial
scan.  The full sweep writes ``BENCH_parallel_scan.json`` at the repo
root; ``--smoke`` runs a tiny scale factor once, without JSON, for CI.

Run as::

    PYTHONPATH=src python benchmarks/bench_parallel_scan.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _selective_query(collections):
    """Narrow orderkey band: prunes every block outside the band."""
    from repro.query.builder import Sum
    from repro.query.expressions import param
    from repro.tpch.schema import Lineitem as L

    return (
        collections["lineitem"]
        .query()
        .where(L.orderkey.between(param("sel_lo"), param("sel_hi")))
        .aggregate(n_qty=Sum(L.quantity))
    )


def _canonical(result):
    """Order-insensitive comparison form of a query result."""
    return (tuple(result.columns), sorted(map(tuple, result.rows)))


def _prune_counters(manager):
    return manager.stats.zone_pruned_blocks, manager.stats.zone_scanned_blocks


def run_sweep(sf, repeat):
    from repro.bench.harness import time_callable, write_json_atomic
    from repro.tpch.datagen import generate
    from repro.tpch.loader import load_smc
    from repro.tpch.queries import DEFAULT_PARAMS, QUERIES

    print(f"generating TPC-H SF={sf} ...", flush=True)
    collections = load_smc(generate(sf, seed=42), columnar=True)
    manager = collections["_manager"]

    hi_key = max(h.orderkey for h in collections["orders"])
    params = dict(DEFAULT_PARAMS)
    # ~2% band in the middle of the key space.
    params["sel_lo"] = int(hi_key * 0.49)
    params["sel_hi"] = int(hi_key * 0.51)

    queries = {
        "q1": QUERIES["q1"](collections),
        "q6": QUERIES["q6"](collections),
        "selective": _selective_query(collections),
    }

    records = []
    mismatches = 0
    for name, query in queries.items():
        baseline = query.run(params=params, prune=False)
        base_rows = _canonical(baseline)
        base_time = None
        for prune in (False, True):
            p0, s0 = _prune_counters(manager)
            result = query.run(params=params, prune=prune)
            p1, s1 = _prune_counters(manager)
            match = _canonical(result) == base_rows
            if not match:
                mismatches += 1
                print(
                    f"RESULT MISMATCH: {name} prune={prune}", file=sys.stderr
                )
            seconds = time_callable(
                lambda q=query, pr=prune: q.run(params=params, prune=pr),
                repeat=repeat,
            )
            if not prune:
                base_time = seconds
            record = {
                "query": name,
                "prune": prune,
                "seconds": round(seconds, 6),
                "speedup_vs_unpruned": round(base_time / seconds, 3),
                "pruned_blocks": p1 - p0,
                "scanned_blocks": s1 - s0,
                "matches_baseline": match,
            }
            records.append(record)
            print(
                f"  {name:<10} prune={int(prune)} "
                f"{seconds * 1000:8.1f} ms  "
                f"x{record['speedup_vs_unpruned']:<6} "
                f"pruned {record['pruned_blocks']}/{record['pruned_blocks'] + record['scanned_blocks']}",
                flush=True,
            )
    manager.close()
    return records, mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=None, help="TPC-H scale factor")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale factor for CI: correctness gate only, no JSON output",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_parallel_scan.json")
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sf = args.sf or 0.002
        repeat = 1
    else:
        sf = args.sf or float(os.environ.get("REPRO_BENCH_SF", 0.02))
        repeat = args.repeat

    records, mismatches = run_sweep(sf, repeat)

    if not args.smoke:
        from repro.bench.harness import write_json_atomic

        payload = {
            "bench": "parallel_scan",
            "scale_factor": sf,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": (
                "Serial scans; zone-map pruning speedups are "
                "core-count-independent.  Parallel fan-out is measured "
                "by bench_process_exec.py."
            ),
            "results": records,
        }
        write_json_atomic(args.out, payload)
        print(f"wrote {args.out}")

    if mismatches:
        print(f"{mismatches} pruned run(s) diverged from baseline", file=sys.stderr)
        return 1
    print("every pruned run matched the unpruned baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
