"""Metrics registry: counters, gauges, histograms, Prometheus exposition.

The registry is deliberately dependency-free: metric objects are plain
Python with a lock per instrument, and exposition renders the standard
``# HELP`` / ``# TYPE`` text format so any Prometheus-compatible scraper
(or a test) can parse it.

The service's own instruments (requests, admission, sessions, plan
cache, governor) are pushed into the registry as they happen.  The
engine's state is pulled instead, from one place:
:func:`telemetry_snapshot` builds a single dict — memory-manager
telemetry with every :class:`~repro.memory.manager.MemoryStats` counter,
plus the durable store's, the replica's, the process pool's and the
compiled-function cache's numbers.  The ``info`` op returns that dict;
:meth:`MetricsRegistry.expose` renders it once per scrape through
:func:`expose_snapshot`, so both surfaces read the same values.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Default latency buckets (seconds): 0.5 ms .. 10 s, roughly doubling.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _labelkey(labels: Optional[Dict[str, str]]) -> LabelItems:
    return tuple(sorted(labels.items())) if labels else ()


def _render_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing counter with optional labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._values: Dict[LabelItems, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_labelkey(labels), 0)

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(k)} {_fmt(v)}" for k, v in items
        ] or [f"{self.name} 0"]


class Gauge:
    """A value that can go up and down; optionally callback-backed.

    A callback gauge reads its value at scrape time (used for live
    telemetry like the global epoch); a plain gauge is set explicitly.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._callback = callback
        self._lock = threading.Lock()
        self._values: Dict[LabelItems, float] = {}
        #: Label-set callbacks: at scrape time each produces
        #: ``{label_items: value}`` for a dynamic population (e.g. one
        #: series per memory context).
        self._multi_callbacks: List[Callable[[], Dict[LabelItems, float]]] = []

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_labelkey(labels)] = value

    def add(self, amount: float, **labels: str) -> None:
        key = _labelkey(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        if self._callback is not None and not labels:
            return self._callback()
        with self._lock:
            return self._values.get(_labelkey(labels), 0)

    def attach_series(
        self, callback: Callable[[], Dict[LabelItems, float]]
    ) -> None:
        self._multi_callbacks.append(callback)

    def samples(self) -> List[str]:
        out: List[str] = []
        if self._callback is not None:
            out.append(f"{self.name} {_fmt(float(self._callback()))}")
        for cb in self._multi_callbacks:
            for key, value in sorted(cb().items()):
                out.append(f"{self.name}{_render_labels(key)} {_fmt(float(value))}")
        with self._lock:
            items = sorted(self._values.items())
        out.extend(f"{self.name}{_render_labels(k)} {_fmt(v)}" for k, v in items)
        return out or [f"{self.name} 0"]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` records one measurement; exposition emits ``_bucket``
    series with cumulative counts per upper bound (plus ``+Inf``),
    ``_sum`` and ``_count``.  ``quantile`` interpolates within the
    winning bucket — good enough for p50/p99 reporting in benchmarks.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts: Dict[LabelItems, List[int]] = {}
        self._sums: Dict[LabelItems, float] = {}

    def _series(self, key: LabelItems) -> List[int]:
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.bounds) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        return counts

    def observe(self, value: float, **labels: str) -> None:
        key = _labelkey(labels)
        idx = bisect_right(self.bounds, value)
        with self._lock:
            counts = self._series(key)
            counts[idx] += 1
            self._sums[key] += value

    def count(self, **labels: str) -> int:
        with self._lock:
            counts = self._counts.get(_labelkey(labels))
            return sum(counts) if counts else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Approximate q-quantile (0..1) by in-bucket interpolation."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts = list(self._counts.get(_labelkey(labels), ()))
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
            if cumulative + n >= rank:
                frac = (rank - cumulative) / n
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            cumulative += n
        return self.bounds[-1]

    def samples(self) -> List[str]:
        with self._lock:
            items = sorted(
                (k, list(v), self._sums[k]) for k, v in self._counts.items()
            )
        out: List[str] = []
        for key, counts, total_sum in items:
            cumulative = 0
            for bound, n in zip(self.bounds, counts):
                cumulative += n
                le = 'le="%s"' % _fmt(bound)
                out.append(
                    f"{self.name}_bucket{_render_labels(key, le)} {cumulative}"
                )
            cumulative += counts[-1]
            le_inf = 'le="+Inf"'
            out.append(
                f"{self.name}_bucket{_render_labels(key, le_inf)} {cumulative}"
            )
            out.append(f"{self.name}_sum{_render_labels(key)} {repr(total_sum)}")
            out.append(f"{self.name}_count{_render_labels(key)} {cumulative}")
        if not items:
            out.append(f'{self.name}_bucket{{le="+Inf"}} 0')
            out.append(f"{self.name}_sum 0")
            out.append(f"{self.name}_count 0")
        return out


class MetricsRegistry:
    """Named collection of instruments with text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        #: Scrape-time source of the engine's series: returns a
        #: :func:`telemetry_snapshot`, rendered once per :meth:`expose`.
        self.snapshot: Optional[Callable[[], Dict[str, Any]]] = None

    def _register(self, metric):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} re-registered as a "
                        f"different kind"
                    )
                return existing
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self._register(Gauge(name, help, callback))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def expose(self) -> str:
        """Render every instrument in Prometheus text format."""
        lines: List[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.samples())
        if self.snapshot is not None:
            lines.extend(expose_snapshot(self.snapshot()))
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The telemetry snapshot
# ----------------------------------------------------------------------


def telemetry_snapshot(
    manager, store=None, replication=None, pool=None
) -> Dict[str, Any]:
    """One structured snapshot of the engine's state and lifetime counters.

    :meth:`MemoryManager.telemetry` (gauges, per-context state, the
    pager's ``tier`` section and the ``counters`` of
    :class:`~repro.memory.manager.MemoryStats`) plus, when present,
    ``store`` (:meth:`DurableStore.stats`), ``replication`` (the replica
    client's counters and watermarks), ``exec`` (the process pool's
    worker gauges) and ``compiler_cache``.  The ``info`` op returns it;
    :func:`expose_snapshot` renders the same dict for ``metrics``.
    """
    from repro.query import compiler

    snap = manager.telemetry()
    snap["compiler_cache"] = compiler.cache_stats()
    if store is not None:
        snap["store"] = store.stats()
    if replication is not None:
        snap["replication"] = replication.status()
    if pool is not None:
        snap["exec"] = {
            "workers": pool.workers,
            "workers_alive": pool.alive_workers(),
        }
    return snap


#: Scalar series of a snapshot section: ``(series, kind, key, help)``.
#: A section absent from the snapshot emits nothing.
_SECTIONS: Dict[Optional[str], Tuple[Tuple[str, str, str, str], ...]] = {
    None: (
        ("smc_global_epoch", "gauge", "global_epoch",
         "Global reclamation epoch"),
        ("smc_min_active_epoch", "gauge", "min_active_epoch",
         "Smallest epoch among in-critical threads and held leases"),
        ("smc_epoch_leases", "gauge", "leases",
         "Registered epoch leases (sessions able to pin the epoch)"),
        ("smc_live_blocks", "gauge", "live_blocks",
         "Live mapped blocks across the address space"),
        ("smc_mapped_bytes", "gauge", "mapped_bytes",
         "Bytes mapped by live blocks (data + strings)"),
    ),
    "compiler_cache": (
        ("smc_compiled_cache_hits_total", "counter", "hits", ""),
        ("smc_compiled_cache_misses_total", "counter", "misses", ""),
        ("smc_compiled_cache_size", "counter", "size", ""),
    ),
    "tier": (
        ("smc_tier_budget_bytes", "gauge", "budget_bytes",
         "Hot-tier byte budget the pager evicts down to"),
        ("smc_tier_hot_bytes", "gauge", "hot_bytes",
         "Bytes of pool blocks resident in writable hot segments"),
        ("smc_tier_cold_bytes", "gauge", "cold_bytes",
         "Bytes of pool blocks demoted to read-only tier mappings"),
        ("smc_tier_file_bytes", "gauge", "tier_file_bytes",
         "Size of the tier spill file backing cold blocks"),
    ),
    "exec": (
        ("smc_exec_workers", "gauge", "workers",
         "Scan worker processes configured for the process executor"),
        ("smc_exec_workers_alive", "gauge", "workers_alive",
         "Scan worker processes currently forked and responsive"),
    ),
    "store": (
        ("smc_wal_bytes_total", "counter", "wal_bytes_total", ""),
        ("smc_wal_records_total", "counter", "wal_records_total", ""),
        ("smc_wal_fsyncs_total", "counter", "wal_fsyncs_total", ""),
        ("smc_wal_batches_total", "counter", "wal_batches_total", ""),
        ("smc_checkpoints_total", "counter", "checkpoints_total", ""),
        ("smc_recovery_replayed_total", "counter",
         "recovery_replayed_total", ""),
        ("smc_wal_size_bytes", "gauge", "wal_size_bytes",
         "Current write-ahead log segment size on disk"),
        ("smc_checkpoint_duration_seconds", "gauge",
         "checkpoint_last_duration", "Duration of the most recent checkpoint"),
        ("smc_checkpoint_rows", "gauge", "checkpoint_last_rows",
         "Rows written by the most recent checkpoint"),
    ),
    "replication": (
        ("smc_repl_applied_lsn", "gauge", "applied_lsn",
         "Last LSN durably applied by this replica"),
        ("smc_repl_source_committed_lsn", "gauge", "source_committed_lsn",
         "Primary committed LSN as of the last successful poll"),
        ("smc_repl_lag_records", "gauge", "lag_records",
         "Records between the primary's committed LSN and ours"),
        ("smc_repl_primary_down", "gauge", "primary_down",
         "1 when consecutive polls to the primary keep failing"),
        ("smc_repl_needs_resync", "gauge", "needs_resync",
         "1 when the replica fell behind a primary checkpoint"),
        ("smc_repl_apply_records_total", "counter", "applied_records", ""),
        ("smc_repl_apply_batches_total", "counter", "applied_batches", ""),
        ("smc_repl_polls_total", "counter", "polls", ""),
        ("smc_repl_reconnects_total", "counter", "reconnects", ""),
        ("smc_repl_resyncs_total", "counter", "resyncs", ""),
        ("smc_repl_local_checkpoints_total", "counter",
         "local_checkpoints", ""),
        ("smc_repl_promotions_total", "counter", "promotions", ""),
    ),
}

#: Per-context gauges: ``(series, key of a snapshot context, help)``.
_CONTEXT_GAUGES = (
    ("smc_context_limbo_fraction", "limbo_fraction",
     "Limbo slots / capacity per context"),
    ("smc_context_blocks", "blocks", "Block count per memory context"),
    ("smc_context_live", "live", "Live objects per context"),
    ("smc_context_reclaim_queue", "reclaim_queue",
     "Reclamation-queue length per context"),
)


def _family(
    name: str,
    kind: str,
    help: str,
    samples: Iterable[Tuple[LabelItems, float]],
) -> List[str]:
    lines = [f"# HELP {name} {help}"] if help else []
    lines.append(f"# TYPE {name} {kind}")
    body = [
        f"{name}{_render_labels(labels)} {_fmt(float(value))}"
        for labels, value in samples
    ]
    return lines + (body or [f"{name} 0"])


def expose_snapshot(snap: Dict[str, Any]) -> List[str]:
    """Render a :func:`telemetry_snapshot` as Prometheus text lines.

    Every ``counters`` entry becomes ``smc_<name>_total``; the other
    series are declared in ``_SECTIONS`` and ``_CONTEXT_GAUGES``.
    """
    lines: List[str] = []
    for section, series in _SECTIONS.items():
        values = snap if section is None else snap.get(section)
        if values is None:
            continue
        for name, kind, key, help in series:
            lines += _family(name, kind, help, [((), values[key])])
    contexts = snap["contexts"]
    for name, key, help in _CONTEXT_GAUGES:
        lines += _family(
            name,
            "gauge",
            help,
            [((("context", c["name"]),), c[key]) for c in contexts],
        )
    lines += _family(
        "smc_string_dict_distinct",
        "gauge",
        "Distinct interned strings per collection dictionary",
        [
            ((("collection", coll),), count)
            for coll, count in sorted(snap["string_dicts"].items())
        ],
    )
    tier = snap["tier"]
    if tier is not None:
        lines += _family(
            "smc_tier_blocks",
            "gauge",
            "Pool blocks by residency state",
            [
                ((("residency", state),), tier[f"{state}_blocks"])
                for state in ("cold", "cooling", "hot")
            ],
        )
        lines += _family(
            "smc_tier_context_blocks",
            "gauge",
            "Pool blocks by residency state per memory context",
            [
                (
                    (("context", c["name"]), ("residency", state)),
                    c[f"{state}_blocks"],
                )
                for c in contexts
                if c["hot_blocks"] or c["cold_blocks"]
                for state in ("cold", "hot")
            ],
        )
    for key, value in snap["counters"].items():
        lines += _family(f"smc_{key}_total", "counter", "", [((), value)])
    return lines
