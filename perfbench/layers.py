"""Per-layer metrics: counter deltas from ``info``/``metrics`` and span self times.

Counters are read through the service's own ``info`` (memory-manager
telemetry and plan-cache stats) and ``metrics`` (Prometheus text) ops
before and after the measured window.  Times come from the spans the
traced server recorded in the window (see ``spans.py``); a layer's self
time is its span time minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

import spans as _spans

#: Prometheus series summed over their labels.
_PROM = (
    "smc_wal_fsyncs_total",
    "smc_wal_bytes_total",
    "smc_checkpoints_total",
    "smc_serve_small_scans_routed_total",
)

#: Manager telemetry counters (``manager.stats`` plus ``stats.extra``).
_TELEMETRY = (
    "scan_rows",
    "scan_rows_matched",
    "scan_blocks",
    "zone_tested_blocks",
    "zone_pruned_blocks",
    "parallel_scans",
    "morsels_dispatched",
    "tier_faults",
    "tier_evictions",
    "blocks_allocated",
    "limbo_reuses",
    "epoch_advances",
)

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = [
    ("service.self_ms", "ms/request"),
    ("protocol.encode_ms", "ms/query"),
    ("admission.wait_ms", "ms/request"),
    ("plancache.hit_ratio", "ratio"),
    ("plancache.stale_evictions", "count"),
    ("planner.plan_ms", "ms/query"),
    ("planner.row_error", "x"),
    ("exec.self_ms", "ms/query"),
    ("exec.rows_scanned", "rows/query"),
    ("exec.match_ratio", "ratio"),
    ("zone.prune_ratio", "ratio"),
    ("zone.blocks_scanned", "blocks/query"),
    ("parallel.self_ms", "ms/query"),
    ("parallel.scans", "1/query"),
    ("parallel.morsels", "1/query"),
    ("parallel.fallbacks", "1/query"),
    ("strdict.match_hit_ratio", "ratio"),
    ("pager.faults_per_query", "1/query"),
    ("pager.evictions_per_query", "1/query"),
    ("pager.maintain_ms", "ms/query"),
    ("pager.hot_mb_max", "MB"),
    ("alloc.blocks_allocated", "count"),
    ("alloc.limbo_reuses", "count"),
    ("epoch.advances", "count"),
    ("store.apply_ms", "ms/batch"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_row", "B/row"),
    ("checkpoint.count", "count"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.mb", "MB"),
    ("checkpoint.stalled_writes", "count"),
    ("recovery.load_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.replayed", "count"),
    ("load.rows_per_s", "rows/s"),
    ("gen.late_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("stored_mb", "MB"),
    ("recovery_s", "s"),
    ("traced.query_p50_ms", "ms"),
    ("traced.query_p95_ms", "ms"),
    ("traced.query_qps", "1/s"),
]


def counters(info: Dict[str, Any], metrics_text: str) -> Dict[str, float]:
    """Flatten one ``info`` reply and one ``metrics`` exposition."""
    tel = info.get("telemetry") or {}
    raw = tel.get("counters") or {}
    out = {name: float(raw.get(name, 0)) for name in _TELEMETRY}
    plans = info.get("plan_cache") or {}
    for name in ("hits", "misses", "stale_evictions"):
        out[f"plan_{name}"] = float(plans.get(name, 0))
    for name in _PROM:
        out[name] = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("#"):
            continue
        series, __, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        if name in out and name in _PROM:
            out[name] += float(value)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_by_name(window: List[tuple], self_ms: Dict[int, float], *names: str) -> float:
    return sum(self_ms[s[3]] for s in window if s[0] in names)


def from_counters(before: Dict[str, float], after: Dict[str, float], queries: int, rows_written: int) -> Dict[str, float]:
    """The per-layer metrics that counter deltas give (no tracing needed)."""
    d = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    return {
        "plancache.hit_ratio": ratio(d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "plancache.stale_evictions": d["plan_stale_evictions"],
        "exec.rows_scanned": ratio(d["scan_rows"], queries),
        "exec.match_ratio": ratio(d["scan_rows_matched"], d["scan_rows"]),
        "zone.prune_ratio": ratio(d["zone_pruned_blocks"], d["zone_tested_blocks"]),
        "zone.blocks_scanned": ratio(d["scan_blocks"], queries),
        "parallel.scans": ratio(d["parallel_scans"], queries),
        "parallel.morsels": ratio(d["morsels_dispatched"], queries),
        "parallel.fallbacks": ratio(d["smc_serve_small_scans_routed_total"], queries),
        "pager.faults_per_query": ratio(d["tier_faults"], queries),
        "pager.evictions_per_query": ratio(d["tier_evictions"], queries),
        "alloc.blocks_allocated": d["blocks_allocated"],
        "alloc.limbo_reuses": d["limbo_reuses"],
        "epoch.advances": d["epoch_advances"],
        "wal.fsyncs": d["smc_wal_fsyncs_total"],
        "wal.bytes_per_row": ratio(d["smc_wal_bytes_total"], rows_written),
        "checkpoint.count": d["smc_checkpoints_total"],
    }


def from_spans(
    window: List[tuple],
    setup: List[tuple],
    recovery: List[tuple],
    queries: int,
    write_due: List[float],
    loaded_rows: int,
) -> Dict[str, float]:
    """The per-layer metrics that the traced run's spans give."""
    self_ms = _spans.self_times(window)
    by_name: Dict[str, List[tuple]] = defaultdict(list)
    for span in window:
        by_name[span[0]].append(span)

    def dur_ms(span) -> float:
        return (span[2] - span[1]) / 1e6

    handles = by_name["service.handle"]
    ckpts = by_name["checkpoint.checkpoint"]
    applies = by_name["store.apply"]
    errors = [
        max((s[6]["est_rows"] + 1) / (s[6]["rows"] + 1), (s[6]["rows"] + 1) / (s[6]["est_rows"] + 1))
        for s in by_name["planner.record_observation"]
        if "est_rows" in s[6]
    ]
    intervals = [(s[1] / 1e9, s[2] / 1e9) for s in ckpts]
    stalled = sum(1 for due in write_due if any(lo <= due <= hi for lo, hi in intervals))
    out = {
        "service.self_ms": ratio(sum(self_ms[s[3]] for s in handles), len(handles)),
        "protocol.encode_ms": ratio(sum(dur_ms(s) for s in by_name["protocol.encode_rows"]), queries),
        "admission.wait_ms": ratio(
            sum(dur_ms(s) for s in by_name["admission.acquire"]), len(by_name["admission.acquire"])
        ),
        "planner.plan_ms": ratio(sum(dur_ms(s) for s in by_name["planner.plan_scan"]), queries),
        "planner.row_error": statistics.median(errors) if errors else 0.0,
        "exec.self_ms": ratio(
            _sum_by_name(window, self_ms, "compiler.run_compiled", "columnar_exec.run_columnar"), queries
        ),
        "parallel.self_ms": ratio(_sum_by_name(window, self_ms, "parallel.run_parallel"), queries),
        "pager.maintain_ms": ratio(sum(dur_ms(s) for s in by_name["pager.maintain"]), queries),
        "pager.hot_mb_max": max((s[6]["hot_bytes"] for s in by_name["pager.maintain"]), default=0) / 2**20,
        "store.apply_ms": ratio(sum(dur_ms(s) for s in applies), len(applies)),
        "checkpoint.ms": ratio(sum(dur_ms(s) for s in ckpts), len(ckpts)),
        "checkpoint.mb": ratio(sum(s[6].get("bytes", 0) for s in ckpts), len(ckpts)) / 2**20,
        "checkpoint.stalled_writes": float(stalled),
    }
    rec = [s for s in recovery if s[0] == "recovery.recover"]
    if rec:
        rec_ids = {s[3] for s in rec}
        rec_self = _spans.self_times(recovery)
        out["recovery.load_ms"] = sum(
            dur_ms(s) for s in recovery if s[0] == "snapshot.load_collections" and s[4] in rec_ids
        )
        out["recovery.replay_ms"] = sum(rec_self[s[3]] for s in rec)
        out["recovery.replayed"] = float(sum(s[6].get("replayed", 0) for s in rec))
    else:
        out.update({"recovery.load_ms": 0.0, "recovery.replay_ms": 0.0, "recovery.replayed": 0.0})
    loads = [dur_ms(s) for s in setup if s[0] == "loader.load_smc"]
    out["load.rows_per_s"] = ratio(loaded_rows, sum(loads) / 1000) if loads else 0.0
    return out


#: Counters each workload predicts to be zero: ``(metric key, reason)``.
ZERO_PREDICTIONS = {
    "olap-hot": [("tier_faults", "pager faults with no memory budget"), ("smc_wal_fsyncs_total", "WAL fsyncs without a store")],
    "olap-tiered": [("smc_wal_fsyncs_total", "WAL fsyncs without a store")],
    "htap-durable": [("tier_faults", "pager faults with no memory budget"), ("parallel_scans", "parallel scans at one worker")],
}


def zero_violations(workload: str, before: Dict[str, float], after: Dict[str, float]) -> List[str]:
    return [
        f"predicted zero, got {after[key] - before[key]:g}: {why}"
        for key, why in ZERO_PREDICTIONS.get(workload, [])
        if after[key] - before[key] != 0
    ]


def percentile(values: List[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
