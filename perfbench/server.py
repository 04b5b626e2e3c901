"""The benchmark's server process: one workload's query service.

Builds the service from the library's public constructors, as
``repro serve`` does (``load_smc`` + ``QueryService`` + ``ServiceServer``,
plus ``DurableStore.create``/``open`` with a data directory), then serves
until SIGTERM or a ``shutdown`` op.  Once it listens it prints one JSON
line: ``{"port", "gen_s", "pid"}``.  ``gen_s`` is the time spent
generating the input tables, which set-up time excludes.

SIGUSR1 writes a probe file ``<probe-dir>/probe-<pid>-<n>.json`` holding
the spans recorded since the last probe (with ``--trace 1``) and the
string-dictionary match counters, which neither ``info`` nor ``metrics``
exposes.

``run.py`` starts it, e.g. ``python3 perfbench/server.py --sf 0.005 --seed 1
--layout columnar --probe-dir DIR`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _reset_peak_rss() -> None:
    """Restart VmHWM at the current RSS (Linux ``clear_refs`` code 5).

    Peak RSS is then the serving peak, not the peak of generating the
    input tables in this process (a real server receives its data).
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _install_fault_hooks(args, server_mod, store_mod) -> None:
    """Self-test faults: a corrupted query reply, a dropped acknowledged write."""
    if args.corrupt_reply:
        handle = server_mod.QueryService.handle
        seen = {"n": 0}

        def corrupting(self, message):
            response = handle(self, message)
            if message.get("op") == "query" and response.get("ok"):
                seen["n"] += 1
                if seen["n"] == args.corrupt_reply:
                    response["rows"] = list(response["rows"]) + [["corrupt"]]
            return response

        server_mod.QueryService.handle = corrupting
    if args.drop_batch:
        apply = store_mod.DurableStore.apply
        seen_batches = {"n": 0}

        def dropping(self, ops):
            seen_batches["n"] += 1
            if seen_batches["n"] == args.drop_batch:
                return [{"entry": -1} for __ in ops]
            return apply(self, ops)

        store_mod.DurableStore.apply = dropping


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sf", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--layout", choices=["row", "columnar"], required=True)
    ap.add_argument("--memory-budget", type=int, default=None)
    ap.add_argument("--data-dir", default=None)
    ap.add_argument("--recover", action="store_true", help="open --data-dir instead of creating it")
    ap.add_argument("--fsync", default="commit")
    ap.add_argument("--checkpoint-bytes", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe-dir", required=True)
    ap.add_argument("--corrupt-reply", type=int, default=0)
    ap.add_argument("--drop-batch", type=int, default=0)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from repro.durability import store as store_mod
    from repro.service import server as server_mod
    from repro.tpch import datagen, loader

    _install_fault_hooks(args, server_mod, store_mod)
    store = None
    gen_s = 0.0
    durable = {"fsync_policy": args.fsync}
    if args.checkpoint_bytes:
        durable["checkpoint_bytes"] = args.checkpoint_bytes
    if args.recover:
        store = store_mod.DurableStore.open(args.data_dir, **durable)
        collections = dict(store.collections)
        manager = store.manager
    else:
        gen_start = time.perf_counter()
        data = datagen.generate(args.sf, seed=args.seed)
        gen_s = time.perf_counter() - gen_start
        collections = loader.load_smc(
            data,
            columnar=args.layout == "columnar",
            memory_budget=args.memory_budget,
        )
        del data
        gc.collect()
        manager = collections["_manager"]
        if args.data_dir:
            store = store_mod.DurableStore.create(args.data_dir, collections, **durable)
    service = server_mod.QueryService(collections, manager, store=store)
    server = server_mod.ServiceServer(service, host="127.0.0.1", port=0).start()
    _reset_peak_rss()

    stop = threading.Event()
    probes = {"n": 0}
    # Collections may share one dictionary; count each once.
    strdicts = list(
        {
            id(c.strdict): c.strdict
            for c in service.collections.values()
            if getattr(c, "strdict", None) is not None
        }.values()
    )

    def _probe(signum, frame):  # noqa: ARG001 - signal signature
        probes["n"] += 1
        payload = {
            "spans": tracer.drain() if tracer is not None else [],
            "strdict_hits": sum(d.match_hits for d in strdicts),
            "strdict_misses": sum(d.match_misses for d in strdicts),
        }
        path = os.path.join(args.probe_dir, f"probe-{os.getpid()}-{probes['n']}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(payload, fh)
        os.replace(path + ".tmp", path)

    def _stop(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    signal.signal(signal.SIGUSR1, _probe)
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(json.dumps({"port": server.port, "gen_s": gen_s, "pid": os.getpid()}), flush=True)
    try:
        while not stop.is_set() and not server._stop.is_set():
            stop.wait(0.2)
    finally:
        server.stop()
        if store is None:
            manager.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
