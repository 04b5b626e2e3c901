"""Span recorder installed in the benchmark's server process.

``install`` wraps the public per-request entry points of each layer,
from outside the package: every call records ``(name, start_ns, end_ns,
span_id, parent_id, request_id, attrs)``.  Parents come from a
per-thread stack, so a span's children are the wrapped calls it made on
the same thread.  ``QueryService.handle`` opens a new request id.
Nothing is wrapped per block or per morsel.  Spans stay in memory until
:meth:`Tracer.drain` hands them out.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        request: bool = False,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """Return *fn* recording one span per call.

        ``before(*args, **kwargs)`` runs ahead of the call and
        ``after(result, *args, **kwargs)`` after it; each may return a
        dict merged into the span's attributes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.request = 0
            outer_request = local.request
            if request:
                local.request = next(self._requests)
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            attrs = dict(before(*args, **kwargs) or {}) if before else {}
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = 1
                self._record(name, start, span_id, parent, outer_request, attrs)
                raise
            if after is not None:
                attrs.update(after(result, *args, **kwargs) or {})
            self._record(name, start, span_id, parent, outer_request, attrs)
            return result

        return traced

    def _record(self, name, start, span_id, parent, outer_request, attrs):
        end = time.perf_counter_ns()
        local = self._local
        local.stack.pop()
        request, local.request = local.request, outer_request
        with self._lock:
            self._spans.append((name, start, end, span_id, parent, request, attrs))

    def drain(self) -> List[Tuple]:
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that names *original*.

    Callers that did ``from module import fn`` hold their own binding;
    each one must see the traced function.
    """
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch_function(tracer: Tracer, module, attr: str, name: str, **kw) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, **kw))


def _patch_method(tracer: Tracer, cls, attr: str, name: str, **kw) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    from repro.durability import checkpoint, recovery, store
    from repro.io import snapshot
    from repro.memory import pager
    from repro.query import columnar_exec, compiler, parallel, planner
    from repro.service import admission, plancache, protocol, server
    from repro.tpch import loader

    _patch_method(
        tracer,
        server.QueryService,
        "handle",
        "service.handle",
        request=True,
        before=lambda self, message: {"op": str(message.get("op"))},
    )
    _patch_method(tracer, admission.AdmissionController, "acquire", "admission.acquire")
    _patch_method(tracer, plancache.PlanCache, "get_or_build", "plancache.get_or_build")
    _patch_function(tracer, protocol, "encode_rows", "protocol.encode_rows")
    _patch_function(tracer, planner, "plan_scan", "planner.plan_scan")
    _patch_function(
        tracer,
        planner,
        "record_observation",
        "planner.record_observation",
        before=lambda info, **kw: (
            {"est_rows": info.est_rows, "rows": kw.get("rows_matched", 0)}
            if info is not None
            else {}
        ),
    )
    _patch_function(tracer, compiler, "run_compiled", "compiler.run_compiled")
    _patch_function(tracer, columnar_exec, "run_columnar", "columnar_exec.run_columnar")
    _patch_function(tracer, parallel, "run_parallel", "parallel.run_parallel")
    _patch_method(
        tracer,
        pager.Pager,
        "maintain",
        "pager.maintain",
        before=lambda self, *a, **kw: {"hot_bytes": self.hot_bytes()},
    )
    _patch_method(
        tracer,
        store.DurableStore,
        "apply",
        "store.apply",
        before=lambda self, ops: {"ops": len(ops) if isinstance(ops, list) else 0},
    )
    _patch_method(
        tracer,
        checkpoint.CheckpointManager,
        "checkpoint",
        "checkpoint.checkpoint",
        after=lambda result, self, *a, **kw: {
            "bytes": os.path.getsize(
                os.path.join(self.datadir.root, result[0]["checkpoint"])
            )
        },
    )
    _patch_method(tracer, checkpoint.CheckpointManager, "bootstrap", "checkpoint.bootstrap")
    _patch_function(tracer, snapshot, "save_collections", "snapshot.save_collections")
    _patch_function(tracer, snapshot, "load_collections", "snapshot.load_collections")
    _patch_function(
        tracer,
        recovery,
        "recover",
        "recovery.recover",
        after=lambda result, *a, **kw: {"replayed": result[1].replayed},
    )
    _patch_function(tracer, loader, "load_smc", "loader.load_smc")


def self_times(spans: List[Tuple]) -> Dict[int, float]:
    """Span id -> self time in ms (duration minus direct children)."""
    child_ns: Dict[int, int] = {}
    for __, start, end, __, parent, __, __ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {
        sid: (end - start - child_ns.get(sid, 0)) / 1e6
        for __, start, end, sid, __, __, __ in spans
    }
