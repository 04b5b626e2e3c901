"""The repository's end-to-end benchmark: three traffic mixes over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload olap-hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare before.json after.json

A run generates its inputs from ``--seed``, starts the query service in
its own process (``perfbench/server.py``) three times to time set-up,
warms up, measures for ``--seconds`` with one load-generator process,
and checks every answer (see ``oracle.py``).  On ``htap-durable`` it
then SIGKILLs and restarts the server to time recovery and checks the
recovered data directory.  With ``--trace 1`` the server records spans
around each layer's entry points and the run reports per-layer metrics
instead of the end-to-end ones.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with its run stamp, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is timed this many times per run; the median is reported.
SETUPS = 3
#: Crash-restart cycles of a durable run; the median recovery time is reported.
RESTARTS = 3
#: A run whose generator sent a write later than this is invalid.
LATE_LIMIT_MS = 100.0
#: Seconds a server may take to load before the run gives up.
READY_TIMEOUT = 120.0

#: The bounded metrics.  The query tail and throughput sit with the
#: per-layer metrics: on a 2-vCPU host they move with host CPU steal
#: far more than with the program (see README.md).
END_TO_END = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("server_rss_mb", "MB"),
]


class ServerProcess:
    """One spawned ``server.py``; always stopped and waited for."""

    def __init__(self, args: List[str], work: str, tag: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        # The pager's tier file is a temp file: keep it inside the checkout.
        env["TMPDIR"] = os.path.join(work, "tmp")
        self.log_path = os.path.join(work, f"server-{tag}.log")
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            cwd=ROOT,
            env=env,
        )
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            line = self.proc.stdout.readline() if sel.select(READY_TIMEOUT) else ""
        if not line:
            self.kill()
            with open(self.log_path) as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"server not ready (exit code {self.proc.returncode}):\n{tail}")
        ready = json.loads(line)
        self.port = ready["port"]
        self.gen_s = ready["gen_s"]
        self.pid = self.proc.pid

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def probe(self, probe_dir: str, n: int, timeout: float = 60.0) -> Dict[str, Any]:
        """Ask the server for its probe file number *n* and read it."""
        path = os.path.join(probe_dir, f"probe-{self.pid}-{n}.json")
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not os.path.exists(path):
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server wrote no probe file {path}")
            time.sleep(0.01)
        with open(path) as fh:
            return json.load(fh)

    def kill(self) -> float:
        """SIGKILL the server; returns the time of the kill."""
        killed = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        self._log.close()
        return killed


def _first_reply(port: int, message: Dict[str, Any], accept) -> float:
    """Connect and send *message* until *accept(reply)*; returns that time."""
    from loadgen import Connection

    conn = Connection(port)
    try:
        while True:
            reply = conn.call(message)
            if accept(reply):
                return time.perf_counter()
            time.sleep(0.01)
    finally:
        conn.close()


def _cpu_steal() -> Optional[tuple]:
    """``(steal, total)`` jiffies of the host's CPUs; ``None`` without
    ``/proc/stat`` (the run then records 0% steal).

    Steal is time a virtual CPU was ready but the hypervisor ran someone
    else; it slows every timing of a run, so the result records it.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _spec() -> Dict[str, Any]:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, __, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def _query_message(pool, index: int, workers: int) -> Dict[str, Any]:
    from repro.service.protocol import encode_value

    name, params = pool[index]
    return {"op": "query", "query": name, "params": encode_value(params), "workers": workers}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: str,
    cfg: Dict[str, Any],
    fault_args: List[str],
) -> Dict[str, Any]:
    import inputs
    import layers
    import loadgen
    import oracle
    from repro.tpch.datagen import generate

    failures: List[str] = []
    stages: Dict[str, float] = {}
    t = time.perf_counter()
    data = generate(cfg["sf"], seed=seed)
    loaded_rows = sum(data.row_counts().values())
    pool = inputs.param_pool(seed)
    refs = oracle.reference_answers(data, pool)
    batches: List[Dict[str, Any]] = []
    if cfg["durable"]:
        from repro.tpch.loader import load_smc

        local = load_smc(data, columnar=cfg["layout"] == "columnar")
        batches = inputs.refresh_batches(data, local, seed, seconds, cfg)
        local["_manager"].close()
        del local
    stages["inputs_s"] = time.perf_counter() - t
    # The inputs live for the whole run: keep the collector from
    # re-scanning them between requests.
    gc.freeze()

    probe_dir = os.path.join(work, "probes")
    os.makedirs(probe_dir)
    os.makedirs(os.path.join(work, "tmp"))
    data_dir = os.path.join(work, "data")

    def server_args(extra: List[str]) -> List[str]:
        a = [
            "--sf", str(cfg["sf"]), "--seed", str(seed), "--layout", cfg["layout"],
            "--trace", str(int(trace)), "--probe-dir", probe_dir, *fault_args, *extra,
        ]
        if cfg["memory_budget"]:
            a += ["--memory-budget", str(cfg["memory_budget"])]
        if cfg["durable"]:
            a += ["--data-dir", data_dir, "--fsync", cfg["fsync"],
                  "--checkpoint-bytes", str(cfg["checkpoint_bytes"])]
        return a

    # Set-up: server start to first successful reply, input generation
    # excluded; the last server started is the one measured.
    setup_times = []
    server: Optional[ServerProcess] = None
    try:
        for k in range(SETUPS):
            if server is not None:
                server.kill()
                shutil.rmtree(data_dir, ignore_errors=True)
            server = ServerProcess(server_args([]), work, f"setup{k}")
            replied = _first_reply(server.port, {"op": "ping"}, lambda r: r.get("ok"))
            setup_times.append(replied - server.started - server.gen_s)

        reader = loadgen.Connection(server.port)
        writer = loadgen.Connection(server.port) if cfg["durable"] else None
        attempted = 0

        def check_all(conn, tag: str) -> None:
            nonlocal attempted
            for i in range(len(pool)):
                attempted += 1
                fault = oracle.check_reply(conn.call(_query_message(pool, i, cfg["workers"])), refs[i])
                if fault is not None:
                    failures.append(f"{tag} {pool[i][0]}#{i}: {fault}")

        def snapshot() -> Dict[str, float]:
            return layers.counters(reader.call({"op": "info"}), reader.call({"op": "metrics"})["text"])

        t = time.perf_counter()
        loaded = snapshot()
        check_all(reader, "warm-up")
        stages["warmup_s"] = time.perf_counter() - t
        setup_probe = server.probe(probe_dir, 1)
        before = snapshot()

        stream = inputs.QueryStream(seed, workload)

        def next_query():
            i = stream.next()
            return _query_message(pool, i, cfg["workers"]), i

        steal_before = _cpu_steal()
        res = loadgen.drive(
            reader,
            next_query,
            lambda i, reply: oracle.check_reply(reply, refs[i]),
            seconds,
            writer=writer,
            batches=batches,
            rate=cfg.get("write_rate", 0.0),
        )
        steal_after = _cpu_steal()
        attempted += res.attempted
        failures.extend(res.failures)
        after = snapshot()
        window_probe = server.probe(probe_dir, 2)
        rss_mb = server.peak_rss_mb()
        stored_mb = (_dir_bytes(data_dir) + _dir_bytes(os.path.join(work, "tmp"))) / 2**20
        reader.close()
        if writer is not None:
            writer.close()

        recoveries: List[float] = []
        recovery_probe: Dict[str, Any] = {"spans": []}
        if cfg["durable"]:
            # Crash and restart, RESTARTS times: recovery runs from the
            # SIGKILL to the first correct reply.  Nothing is written
            # after the first crash, so every restart recovers the same
            # directory.
            probe_index = next(i for i, p in enumerate(pool) if p[0] == "q6")
            for k in range(RESTARTS):
                killed = server.kill()
                server = ServerProcess(server_args(["--recover"]), work, f"restart{k}")
                replied = _first_reply(
                    server.port,
                    _query_message(pool, probe_index, cfg["workers"]),
                    lambda r: oracle.check_reply(r, refs[probe_index]) is None,
                )
                recoveries.append(replied - killed)
            conn = loadgen.Connection(server.port)
            check_all(conn, "after restart")
            conn.close()
            recovery_probe = server.probe(probe_dir, 1)
        server.kill()
        server = None
    finally:
        if server is not None:
            server.kill()

    if cfg["durable"]:
        from repro.durability import DurableStore

        acked = [batches[i] for i in sorted(res.acked)]
        attempted += 1
        store = DurableStore.open(data_dir)
        try:
            got = oracle.recovered_rows(store.collections, data)
        finally:
            store.close()
        faults = oracle.durable_mismatches(oracle.expected_rows(data, acked), got)
        failures.extend(f"durable: {f}" for f in faults)
    failures.extend(layers.zero_violations(workload, loaded, after))
    checkpoints = after["smc_checkpoints_total"] - before["smc_checkpoints_total"]
    if cfg["durable"] and seconds >= _spec().get("run_seconds", seconds) and checkpoints < 2:
        failures.append(f"the write stream crossed {checkpoints:g} checkpoints, not at least 2")

    queries = len(res.query_ms)
    window_s = res.end - res.start
    reads = {
        "query_p50_ms": layers.percentile(res.query_ms, 0.50),
        "query_p95_ms": layers.percentile(res.query_ms, 0.95),
        "query_p99_ms": layers.percentile(res.query_ms, 0.99),
        "query_qps": queries / window_s,
    }
    e2e = {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": reads["query_p50_ms"],
        "server_rss_mb": rss_mb,
    }
    rows_written = sum(len(batches[i]["ops"]) for i in res.acked)
    per_layer = layers.from_counters(before, after, queries, rows_written)
    # Tier traffic is counted over the warm-up pass: the whole pool in
    # pool order from the freshly loaded state, so it repeats exactly
    # for a seed (the window's length in queries varies with speed).
    for name, key in (("pager.faults_per_query", "tier_faults"), ("pager.evictions_per_query", "tier_evictions")):
        per_layer[name] = (before[key] - loaded[key]) / len(pool)
    per_layer["strdict.match_hit_ratio"] = layers.ratio(
        window_probe["strdict_hits"] - setup_probe["strdict_hits"],
        (window_probe["strdict_hits"] + window_probe["strdict_misses"])
        - (setup_probe["strdict_hits"] + setup_probe["strdict_misses"]),
    )
    per_layer.update(
        {
            "query_p95_ms": reads["query_p95_ms"],
            "query_p99_ms": reads["query_p99_ms"],
            "query_qps": reads["query_qps"],
            "gen.late_ms": layers.percentile(res.late_ms, 0.99),
            "write_p50_ms": layers.percentile(res.write_ms, 0.50),
            "write_p99_ms": layers.percentile(res.write_ms, 0.99),
            "stored_mb": stored_mb,
            "recovery_s": statistics.median(recoveries) if recoveries else 0.0,
        }
    )
    for name in ("query_p50_ms", "query_p95_ms", "query_qps"):
        per_layer["traced." + name] = reads[name]
    if trace:
        per_layer.update(
            layers.from_spans(
                window_probe["spans"],
                setup_probe["spans"],
                recovery_probe["spans"],
                queries,
                res.write_due,
                loaded_rows,
            )
        )
    late_max = max(res.late_ms, default=0.0)
    return {
        "e2e": e2e,
        "reads": reads,
        "per_layer": per_layer,
        "attempted": attempted,
        "failures": failures,
        "valid": late_max <= LATE_LIMIT_MS,
        "details": {
            "setup_s_each": setup_times,
            "recovery_s_each": recoveries,
            "query_p50_ms_by_name": {
                name: layers.percentile([v for v, n in zip(res.query_ms, res.query_names) if n == name], 0.5)
                for name in inputs.QUERY_NAMES
            },
            "queries": queries,
            "queries_per_second": [
                sum(1 for t in res.query_done if k <= t < k + 1) for k in range(int(window_s))
            ],
            "samples_beyond_p99": sum(1 for v in res.query_ms if v > reads["query_p99_ms"]),
            "writes": len(res.write_ms),
            "writes_acked": len(res.acked),
            "gen_late_max_ms": late_max,
            "host_steal_pct": (
                100 * (steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1])
                if steal_before and steal_after
                else 0.0
            ),
            "stages_s": stages,
        },
    }


def _stamp(workload: str, seed: int, seconds: float, trace: bool, cfg: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    from repro.memory.manager import DEFAULT_MANAGER_BLOCK_SHIFT

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scale_factor": cfg["sf"],
        "layout": cfg["layout"],
        "block_size": 1 << DEFAULT_MANAGER_BLOCK_SHIFT,
        "memory_budget": cfg["memory_budget"],
        "fsync_policy": cfg.get("fsync"),
        "checkpoint_bytes": cfg.get("checkpoint_bytes"),
        "write_rate": cfg.get("write_rate"),
        "workers": cfg["workers"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Print per-metric and per-layer deltas from result file A to B."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bounds = {m["name"]: m for m in _spec().get("end_to_end", [])}
    print(f"A: {path_a} ({a['stamp']['workload']}, seed {a['stamp']['seed']}, trace {a['stamp']['trace']})")
    print(f"B: {path_b} ({b['stamp']['workload']}, seed {b['stamp']['seed']}, trace {b['stamp']['trace']})")
    for key in ("workload", "scale_factor", "layout", "memory_budget", "fsync_policy", "checkpoint_bytes", "nproc"):
        if a["stamp"].get(key) != b["stamp"].get(key):
            print(f"  note: {key} differs: {a['stamp'].get(key)} vs {b['stamp'].get(key)}")
    if a["stamp"]["trace"] != b["stamp"]["trace"]:
        print("  (one side traced: the end-to-end deltas are the tracing overhead)")
    print(f"\n{'end-to-end':<36}{'A':>12}{'B':>12}{'delta':>9}")
    for name, unit in END_TO_END:
        va, vb = a["e2e"].get(name), b["e2e"].get(name)
        if va is None or vb is None:
            continue
        delta = (vb - va) / va if va else 0.0
        spec = bounds.get(name, {})
        worse = delta if spec.get("better", "lower") == "lower" else -delta
        mark = "  BEYOND BOUND" if spec and worse > spec["bound"] else ""
        print(f"{name + ' [' + unit + ']':<36}{va:>12.4f}{vb:>12.4f}{delta:>+9.1%}{mark}")
    print(f"\n{'per-layer':<36}{'A':>12}{'B':>12}{'delta':>9}")
    import layers

    for name, unit in layers.PER_LAYER:
        va, vb = a["per_layer"].get(name), b["per_layer"].get(name)
        if va is None or vb is None:
            continue
        delta = f"{(vb - va) / va:>+9.1%}" if va else f"{'':>9}"
        print(f"{name + ' [' + unit + ']':<36}{va:>12.4f}{vb:>12.4f}{delta}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark over the TCP query service")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--out", help="result file (default: perfbench/results/<workload>-s<seed>-t<trace>.json)")
    ap.add_argument("--sf", type=float, help="override the workload's scale factor (self-tests)")
    ap.add_argument("--corrupt-reply", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--drop-batch", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # A terminated run still stops its server and removes its scratch data.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    sys.path.insert(0, HERE)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs
    import layers

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    cfg = dict(inputs.WORKLOADS[args.workload])
    if args.sf:
        cfg["sf"] = args.sf
    fault_args = []
    if args.corrupt_reply:
        fault_args += ["--corrupt-reply", str(args.corrupt_reply)]
    if args.drop_batch:
        fault_args += ["--drop-batch", str(args.drop_batch)]

    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work, cfg, fault_args
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["stamp"] = _stamp(args.workload, args.seed, args.seconds, bool(args.trace), cfg)
    out = args.out or os.path.join(
        HERE, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    overhead = None
    if args.trace:
        untraced = os.path.join(os.path.dirname(os.path.abspath(out)), f"{args.workload}-s{args.seed}-t0.json")
        base = {}
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh).get("reads", {})
        if base:
            overhead = {k: (v - base[k]) / base[k] for k, v in result["reads"].items() if base.get(k)}
            result["tracing_overhead"] = overhead
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    d = result["details"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  {d['queries']} queries timed ({d['samples_beyond_p99']} beyond p99), "
          f"{d['writes_acked']}/{d['writes']} write batches acknowledged, "
          f"generator late by at most {d['gen_late_max_ms']:.1f} ms, "
          f"host CPU steal {d['host_steal_pct']:.1f}%")
    for name, unit in END_TO_END:
        print(f"  {name:<26} {result['e2e'][name]:>12.4f} {unit}")
    for name, unit in layers.PER_LAYER:
        if name in result["per_layer"]:
            print(f"  {name:<26} {result['per_layer'][name]:>12.4f} {unit}")
    if overhead:
        print("  tracing overhead vs the untraced run of this seed: "
              + ", ".join(f"{k} {v:+.1%}" for k, v in overhead.items()))
    if not result["valid"]:
        print("  INVALID: the load generator fell behind its schedule")
    for fault in result["failures"][:20]:
        print(f"  FAILED {fault}")
    names = END_TO_END if not args.trace else layers.PER_LAYER
    source = result["e2e"] if not args.trace else result["per_layer"]
    metrics = {name: {"value": source.get(name, 0.0), "unit": unit} for name, unit in names}
    line = {
        "correct": not result["failures"] and result["valid"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
