"""Multi-process scatter-gather execution over shared-memory block pools.

This is the engine's one intra-query parallel substrate (entered through
:func:`repro.query.parallel.run_parallel`), the executable half of the
paper's "scalable query-dominated collections" story: a pool of **forked
worker processes** that attach the same shared-memory block segments
(``MemoryManager(shm=True)``), evaluate the compiled scan plan locally,
outside the parent's GIL, and stream partial accumulators back to the
parent, which folds them in block order so results stay byte-identical
to the serial scan at any worker count.

Protocol overview (full write-up in ``docs/parallel_execution.md``):

* **Fork + attach.**  Workers are forked from the owning process, so
  every block mapped *before* the fork is readable through inherited
  mappings of the shared segments (live bytes, not copies).  Blocks
  mapped *after* the fork are resolved through the per-query *space
  map* — ``{block_id: (segment_name, kind)}`` — via the address space's
  ``attach_miss`` hook: the worker attaches the named segment, rebuilds
  the NumPy views read-only from the self-describing block header, and
  adopts the block under its parent-dictated id.

* **Cross-process epochs.**  Each worker publishes a reader section —
  ``(flag, epoch, pid, qid)`` int64 rows in a shared slot segment —
  registered with the parent's :class:`~repro.memory.epoch.EpochManager`
  as an external source, so reclamation and compaction can never unmap
  or reuse a segment while an attached worker pins an older epoch.  The
  parent additionally holds the driver critical section for the whole
  fan-out and one :class:`~repro.memory.epoch.EpochLease` per worker; a
  worker that dies mid-query has its lease revoked and slot cleared by
  the dispatch loop, so a dead reader can never wedge the epoch.

* **Consistency fingerprint.**  Workers see a copy-on-write snapshot of
  all *Python-level* state (indirection table, string dictionaries,
  block lists) as of the fork.  A coarse mutation fingerprint —
  allocations, frees, context count, dictionary versions, string-heap
  blocks — is checked at query start (mismatch: respawn the workers,
  cheap via fork) and at query end (mismatch: discard the partials and
  run the scan serially).  Compaction deliberately does not
  perturb the fingerprint: relocated blocks arrive through the attach
  protocol and the parent's critical section keeps every dispatched
  block mapped, so scans under compaction churn remain exact.

* **Scatter-gather.**  The parent drives a
  :class:`~repro.query.parallel.MorselDispatcher`, prunes with its
  authoritative zone maps, stripes the admitted block morsels
  round-robin across workers, and processes compaction
  groups itself (group resolution pins pre-states, which is inherently
  parent-side work).  Partials merge in sequence order; units lost to a
  dead worker are re-executed by the parent and counted as
  ``exec_morsels_redispatched``.

Any worker error, death-induced inconsistency or end-fingerprint
mismatch makes :meth:`ProcessScanPool.run` return ``None``; the caller
runs the serial scan, so the process path is strictly an optimisation
and never a correctness risk.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import struct
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.memory import slots as slotcodec
from repro.memory.block import BLOCK_HEADER_SIZE, _HEADER_STRUCT
from repro.memory.slots import VALID
from repro.query import plansnap
from repro.query.parallel import MORSELS_PER_WORKER, MorselDispatcher
from repro.query.runtime import GROUP_DEFERRED, GROUP_PINNED, resolve_group
from repro.sanitizer import hooks as _san

_LEN = struct.Struct("<I")

#: int64 words per worker row in the shared slot segment:
#: ``flag, epoch, pid, qid``.
_SLOT_ROW = 4

#: Segment kinds in the space map shipped with every query.
_KIND_ROW = "r"
_KIND_COLUMNAR = "c"
_KIND_STRING = "s"


# ----------------------------------------------------------------------
# Frame I/O (length-prefixed pickles over raw pipes)
# ----------------------------------------------------------------------


def _send_frame(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_LEN.pack(len(data)) + data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _recv_exact(fd: int, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(fd: int):
    header = _recv_exact(fd, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    payload = _recv_exact(fd, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def _parse_frames(rec: dict) -> List[tuple]:
    """Drain complete frames out of a worker record's read buffer."""
    buf = rec["buf"]
    frames = []
    while len(buf) >= _LEN.size:
        (length,) = _LEN.unpack_from(buf, 0)
        if len(buf) < _LEN.size + length:
            break
        frames.append(pickle.loads(buf[_LEN.size : _LEN.size + length]))
        buf = buf[_LEN.size + length :]
    rec["buf"] = buf
    return frames


# ----------------------------------------------------------------------
# Worker-side block attach (segment name -> read-only views)
# ----------------------------------------------------------------------


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _AttachedRowBlock:
    """Read-only stand-in for a row block mapped after the fork.

    Rebuilt purely from the self-describing block header plus the
    context's layout, exactly mirroring ``Block``'s offset recipe.  No
    ``columns`` attribute on purpose: the gather kernels distinguish
    layouts with ``hasattr(block, "columns")``.
    """

    __slots__ = (
        "space",
        "block_id",
        "base_address",
        "segment",
        "buf",
        "type_id",
        "context_id",
        "slot_size",
        "slot_count",
        "object_offset",
        "directory",
        "backptrs",
        "slot_incs",
        "compaction_group",
    )

    def __init__(self, space, block_id: int, segment) -> None:
        self.space = space
        self.block_id = block_id
        self.base_address = space.address_of(block_id)
        self.segment = segment
        self.buf = segment.buf
        type_id, context_id, n, slot_size, __ = _HEADER_STRUCT.unpack_from(
            self.buf, 0
        )
        self.type_id = type_id
        self.context_id = context_id
        self.slot_size = slot_size
        self.slot_count = n
        self.object_offset = BLOCK_HEADER_SIZE
        # The header stores the final slot count (after any alignment
        # sacrifice), so the segment offsets recompute deterministically.
        dir_offset = BLOCK_HEADER_SIZE + n * slot_size
        bp_offset = dir_offset + n * 4
        if bp_offset % 8 != 0:
            bp_offset += 8 - (bp_offset % 8)
        mv = memoryview(self.buf)
        self.directory = _readonly(
            np.frombuffer(mv, dtype=np.uint32, count=n, offset=dir_offset)
        )
        self.backptrs = _readonly(
            np.frombuffer(mv, dtype=np.int64, count=n, offset=bp_offset)
        )
        self.slot_incs = _readonly(
            np.ndarray(
                shape=(n,),
                dtype=np.uint32,
                buffer=mv,
                offset=self.object_offset,
                strides=(slot_size,),
            )
        )
        self.compaction_group = None

    def valid_slots(self) -> np.ndarray:
        return np.nonzero((self.directory & slotcodec.STATE_MASK) == VALID)[0]

    def slot_of_address(self, address: int) -> int:
        return (
            self.space.offset_of(address) - self.object_offset
        ) // self.slot_size


class _AttachedColumnarBlock:
    """Read-only stand-in for a columnar block mapped after the fork."""

    __slots__ = (
        "space",
        "block_id",
        "base_address",
        "segment",
        "buf",
        "type_id",
        "context_id",
        "slot_size",
        "slot_count",
        "columns",
        "directory",
        "backptrs",
        "slot_incs",
        "compaction_group",
    )

    def __init__(self, space, block_id: int, segment, manager) -> None:
        from repro.core.columnar import columnar_offsets

        self.space = space
        self.block_id = block_id
        self.base_address = space.address_of(block_id)
        self.segment = segment
        self.buf = segment.buf
        type_id, context_id, n, slot_size, __ = _HEADER_STRUCT.unpack_from(
            self.buf, 0
        )
        self.type_id = type_id
        self.context_id = context_id
        self.slot_size = slot_size
        self.slot_count = n
        context = manager.context_by_id(context_id)
        cols, dir_off, bp_off, inc_off, __ = columnar_offsets(
            context.layout, context.dict_fields, n
        )
        mv = memoryview(self.buf)
        self.columns = {
            name: _readonly(np.frombuffer(mv, dtype=dt, count=n, offset=off))
            for name, dt, off in cols
        }
        self.directory = _readonly(
            np.frombuffer(mv, dtype=np.uint32, count=n, offset=dir_off)
        )
        self.backptrs = _readonly(
            np.frombuffer(mv, dtype=np.int64, count=n, offset=bp_off)
        )
        self.slot_incs = _readonly(
            np.frombuffer(mv, dtype=np.uint32, count=n, offset=inc_off)
        )
        self.compaction_group = None

    def valid_slots(self) -> np.ndarray:
        return np.nonzero((self.directory & slotcodec.STATE_MASK) == VALID)[0]

    def slot_of_address(self, address: int) -> int:
        return self.space.offset_of(address)


class _AttachedStringBlock:
    """Minimal attached view of a string block (heap reads only)."""

    __slots__ = ("space", "block_id", "base_address", "segment", "buf")

    def __init__(self, space, block_id: int, segment) -> None:
        self.space = space
        self.block_id = block_id
        self.base_address = space.address_of(block_id)
        self.segment = segment
        self.buf = segment.buf


def _attach_block(manager, block_id: int, kind: str, segment):
    space = manager.space
    if kind == _KIND_COLUMNAR:
        return _AttachedColumnarBlock(space, block_id, segment, manager)
    if kind == _KIND_ROW:
        return _AttachedRowBlock(space, block_id, segment)
    return _AttachedStringBlock(space, block_id, segment)


def _make_attach_miss(manager, space_map: Dict[int, tuple], cache):
    """Build the worker's ``AddressSpace.attach_miss`` hook for one query.

    The cache outlives the query: attached blocks stay adopted for the
    worker's lifetime, which is safe because any allocation, free or
    residency change in the parent respawns the workers before the next
    process query.
    """

    def attach_miss(block_id: int):
        block = cache.get(block_id)
        if block is not None:
            return block
        entry = space_map.get(block_id)
        if entry is None:
            return None
        if len(entry) == 3:
            # Cold block: no segment name to attach — map the block's
            # region of the tier file through the worker's own mapping
            # (the TierStore fd is inherited across the fork; offsets
            # are the wire format).
            __, kind, offset = entry
            store = manager.space.buffers.store
            if store is None:
                return None
            segment = store.map_region(offset, manager.space.block_size)
        else:
            name, kind = entry
            segment = manager.space.buffers.attach(name)
        block = _attach_block(manager, block_id, kind, segment)
        manager.space.adopt(block_id, block)
        cache[block_id] = block
        return block

    return attach_miss


def _space_map(manager) -> Dict[int, tuple]:
    """``{block_id: (segment_name, kind)}`` for every live block.

    Cold blocks (no attachable segment name) travel by tier-file
    coordinates instead: ``(None, kind, tier_offset)``.
    """
    out: Dict[int, tuple] = {}
    for block in manager.space.live_blocks():
        segment = getattr(block, "segment", None)
        name = getattr(segment, "name", None)
        if getattr(block, "columns", None) is not None:
            kind = _KIND_COLUMNAR
        elif hasattr(block, "directory"):
            kind = _KIND_ROW
        else:
            kind = _KIND_STRING
        if name is None:
            if (
                getattr(block, "residency", None) == "cold"
                and block.tier_offset >= 0
            ):
                out[block.block_id] = (None, kind, block.tier_offset)
            continue
        out[block.block_id] = (name, kind)
    return out


# ----------------------------------------------------------------------
# Worker main loop (runs in the forked child, exits via os._exit only)
# ----------------------------------------------------------------------


def _worker_main(manager, slots: np.ndarray, index: int, rfd: int, wfd: int):
    space = manager.space
    row = index * _SLOT_ROW
    attach_cache: dict = {}
    pid = os.getpid()
    while True:
        frame = _recv_frame(rfd)
        if frame is None or frame[0] == "quit":
            os._exit(0)
        if frame[0] != "query":  # pragma: no cover - protocol guard
            continue
        __, qid, epoch, wire = frame
        # Publish the reader section before touching any block: epoch
        # first, flag last, so the parent's advancement checks never see
        # a pinned flag with a stale epoch.
        slots[row + 1] = epoch
        slots[row + 2] = pid
        slots[row + 3] = qid
        slots[row] = 1
        try:
            space.attach_miss = _make_attach_miss(
                manager, wire["space_map"], attach_cache
            )
            plan = plansnap.decode_plan(manager, wire["plan"])
            probes = plan.make_probes()
            for seq, block_ids in wire["units"]:
                if _san.SANITIZER is not None:
                    # Fault-injection point: crash_at("exec.worker") makes
                    # this worker die exactly like a SIGKILLed process.
                    try:
                        _san.SANITIZER.event(
                            "exec.worker", pid=pid, qid=qid, seq=seq
                        )
                    except BaseException:
                        os.kill(pid, signal.SIGKILL)
                acc = plan.make_accumulator()
                for block_id in block_ids:
                    block = space.block_by_id(block_id)
                    plan.process_block(block, probes, acc)
                _send_frame(
                    wfd,
                    (
                        "partial",
                        qid,
                        seq,
                        plansnap.encode_accumulator(manager, acc),
                    ),
                )
            _send_frame(wfd, ("done", qid))
        except BaseException as exc:
            try:
                _send_frame(wfd, ("error", qid, f"{type(exc).__name__}: {exc}"))
            except OSError:
                os._exit(1)
        finally:
            slots[row] = 0


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


class ProcessScanPool:
    """A pool of forked scan workers attached to one manager's segments.

    Create with ``MemoryManager(shm=True)`` only; heap-backed spaces have
    nothing a worker process could attach.  The pool is registered on the
    manager (``manager.exec_pool``) and shut down by ``manager.close()``.
    Workers are spawned lazily on the first query and respawned whenever
    the mutation fingerprint moves, so an idle pool costs nothing.
    """

    def __init__(self, manager, workers: int) -> None:
        if not getattr(manager.space.buffers, "shared", False):
            raise ValueError(
                "process executor requires shared-memory buffers; "
                "create the manager with shm=True (serve --workers)"
            )
        self.manager = manager
        self.workers = max(1, int(workers))
        self._pid = os.getpid()
        self._busy = threading.Lock()
        self._qid = 0
        self._closed = False
        self._procs: List[dict] = []
        self._spawn_fp: Optional[tuple] = None
        self._slot_segment = manager.space.buffers.create(
            self.workers * _SLOT_ROW * 8
        )
        self._slots: Optional[np.ndarray] = np.frombuffer(
            self._slot_segment.buf, dtype=np.int64
        )
        self._slots[:] = 0
        manager.epochs.register_external(self._external_pins)
        atexit.register(self.shutdown)

    # -- epoch protocol ------------------------------------------------

    def _external_pins(self):
        """Remote reader sections for the epoch manager (lock-free read)."""
        slots = self._slots
        if slots is None:
            return []
        pairs = []
        for rec in self._procs:
            if not rec["alive"]:
                continue
            base = rec["index"] * _SLOT_ROW
            if int(slots[base]):
                pairs.append((True, int(slots[base + 1])))
        return pairs

    # -- consistency fingerprint ---------------------------------------

    def fingerprint(self) -> tuple:
        """Coarse mutation stamp of everything workers snapshot at fork.

        Any object allocation or free, new context, string-dictionary
        rebinding or string-heap growth invalidates the workers' COW
        view; compaction (pure relocation) intentionally does not.
        Residency changes do: a fault rebinds the block to a *new* hot
        segment the old workers never mapped, and a demotion swaps in a
        tier mapping — either way the space map the workers cached is
        stale, so tier fault/eviction counters are part of the stamp.
        """
        manager = self.manager
        versions = 0
        for coll in getattr(manager, "collections", {}).values():
            strdict = getattr(coll, "strdict", None)
            if strdict is not None:
                versions += strdict.version
        stats = manager.stats
        return (
            stats.allocations,
            stats.frees,
            len(manager._contexts),
            versions,
            manager.strings.block_count,
            stats.tier_faults,
            stats.tier_evictions,
        )

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self) -> None:
        self._spawn_fp = self.fingerprint()
        for index in range(self.workers):
            p2c_r, p2c_w = os.pipe()
            c2p_r, c2p_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Child: drop every parent-side fd (ours and the earlier
                # siblings' — holding a sibling's pipe open would mask
                # its EOF-on-death signal to the parent).
                os.close(p2c_w)
                os.close(c2p_r)
                for rec in self._procs:
                    try:
                        os.close(rec["rfd"])
                        os.close(rec["wfd"])
                    except OSError:  # pragma: no cover
                        pass
                try:
                    _worker_main(
                        self.manager, self._slots, index, p2c_r, c2p_w
                    )
                except BaseException:  # pragma: no cover - last resort
                    pass
                os._exit(1)
            os.close(p2c_r)
            os.close(c2p_w)
            lease = self.manager.epochs.create_lease(f"exec-worker-{pid}")
            self._procs.append(
                {
                    "pid": pid,
                    "index": index,
                    "rfd": c2p_r,
                    "wfd": p2c_w,
                    "lease": lease,
                    "alive": True,
                    "buf": b"",
                }
            )

    def _stop_workers(self) -> None:
        for rec in self._procs:
            if not rec["alive"]:
                continue
            rec["alive"] = False
            try:
                _send_frame(rec["wfd"], ("quit",))
            except OSError:
                pass
            for fd_key in ("rfd", "wfd"):
                try:
                    os.close(rec[fd_key])
                except OSError:
                    pass
            try:
                os.waitpid(rec["pid"], 0)
            except ChildProcessError:
                pass
            rec["lease"].release()
            if self._slots is not None:
                base = rec["index"] * _SLOT_ROW
                self._slots[base : base + _SLOT_ROW] = 0
        self._procs = []

    def _ensure_workers(self) -> bool:
        """Workers alive and consistent with the current data? (Re)spawn."""
        alive = sum(1 for rec in self._procs if rec["alive"])
        if (
            alive == self.workers
            and self._spawn_fp == self.fingerprint()
        ):
            return True
        had_procs = bool(self._procs)
        self._stop_workers()
        self._spawn()
        if had_procs:
            self.manager.stats.exec_worker_respawns += 1
        return True

    def _handle_death(self, rec: dict) -> None:
        """A worker died mid-query: expire its pin, reap, drop its fds."""
        rec["alive"] = False
        for fd_key in ("rfd", "wfd"):
            try:
                os.close(rec[fd_key])
            except OSError:
                pass
        try:
            os.waitpid(rec["pid"], 0)
        except ChildProcessError:
            pass
        # Lease-watchdog machinery: revocation expires the dead worker's
        # pin; its shared slot row is cleared so the external source stops
        # reporting a reader section that no longer exists.
        rec["lease"].revoke()
        if self._slots is not None:
            base = rec["index"] * _SLOT_ROW
            self._slots[base : base + _SLOT_ROW] = 0

    def shutdown(self) -> None:
        """Stop all workers and release the slot segment (idempotent)."""
        if self._closed or os.getpid() != self._pid:
            return
        self._closed = True
        self._stop_workers()
        self.manager.epochs.unregister_external(self._external_pins)
        self._slots = None
        self._slot_segment.release()

    # -- query execution ------------------------------------------------

    def alive_workers(self) -> int:
        return sum(1 for rec in self._procs if rec["alive"])

    def run(self, plan) -> Optional[tuple]:
        """Execute *plan* on the pool; ``None`` means "run it serially".

        Returns ``(accumulator, pruned_blocks, scanned_blocks)``, the
        shape of ``columnar_exec._run_serial``.  Single-flight: a second
        concurrent query is declined instead of queueing behind the
        pipes.  A plan built against another manager is declined too.
        """
        if (
            self._closed
            or plan.terminal is None
            or plan.manager is not self.manager
        ):
            # Enumeration results carry live Refs, which cannot cross a
            # process boundary; only Select/GroupBy scans are eligible.
            return None
        if not self._busy.acquire(blocking=False):
            return None
        try:
            pager = getattr(self.manager, "pager", None)
            if pager is None:
                self._ensure_workers()
                return self._run_locked(plan)
            # Defer demotions for the whole fan-out: hot segment names in
            # the space map and cold tier regions must stay stable while
            # workers hold mappings of them.
            with pager.hold():
                self._ensure_workers()
                return self._run_locked(plan)
        finally:
            self._busy.release()

    def _run_locked(self, plan) -> Optional[tuple]:
        manager = self.manager
        epochs = manager.epochs
        start_fp = self.fingerprint()
        self._qid += 1
        qid = self._qid
        probes = plan.make_probes()

        local_partials: List[tuple] = []
        pruned = scanned = redispatched = 0
        failed = False
        participants: List[dict] = []
        entered: List = []

        epoch = epochs.enter_critical_section()
        try:
            context = plan.source.context
            workers = [rec for rec in self._procs if rec["alive"]]
            # Adaptive morsel width (planner feedback); None falls back
            # to the static split.
            morsel_size = getattr(plan, "morsel_hint", None)
            if morsel_size is None:
                morsel_size = -(
                    -context.block_count()
                    // (len(workers) * MORSELS_PER_WORKER)
                )
            dispatcher = MorselDispatcher(context, morsel_size)

            # Drain the dispatcher on the parent: prune with authoritative
            # zone maps, ship plain-block morsels, resolve compaction
            # groups locally (pre-state pinning is parent-side work).
            units: List[Tuple[int, List[int]]] = []
            while True:
                unit = dispatcher.next_unit()
                if unit is None:
                    break
                kind, seq, payload = unit
                if kind == "blocks":
                    admitted = []
                    for block in payload:
                        if _san.SANITIZER is not None:
                            _san.SANITIZER.event("scan.block", block=block)
                        if plan.admits(block):
                            scanned += 1
                            admitted.append(block.block_id)
                        else:
                            pruned += 1
                    if admitted:
                        units.append((seq, admitted))
                    continue
                gkind, members = resolve_group(
                    manager, payload, defer_ok=(kind == "group")
                )
                if gkind == GROUP_DEFERRED:
                    dispatcher.defer(payload)
                    continue
                acc = plan.make_accumulator()
                try:
                    for block in members:
                        if dispatcher.claim_emit(block):
                            if _san.SANITIZER is not None:
                                _san.SANITIZER.event("scan.block", block=block)
                            if not plan.admits(block):
                                pruned += 1
                                continue
                            scanned += 1
                            plan.process_block(block, probes, acc)
                finally:
                    if gkind == GROUP_PINNED:
                        payload.unpin_prestate()
                local_partials.append((seq, acc))

            if units:
                # Static striping: morsel i goes to worker i % n.  Every
                # assignment is remembered so a dead worker's unacked
                # units can be re-executed locally.
                assignments: Dict[int, Dict[int, List[int]]] = {}
                for i, (seq, block_ids) in enumerate(units):
                    rec = workers[i % len(workers)]
                    assignments.setdefault(rec["pid"], {})[seq] = block_ids

                wire = {
                    "plan": plansnap.encode_plan(manager, plan),
                    "space_map": _space_map(manager),
                }
                for rec in workers:
                    assigned = assignments.get(rec["pid"])
                    if not assigned:
                        continue
                    # Belt over the slot-segment braces: the parent holds
                    # a lease per participating worker, expired through
                    # the existing watchdog path if the worker dies.
                    rec["lease"].enter()
                    entered.append(rec["lease"])
                    try:
                        _send_frame(
                            rec["wfd"],
                            (
                                "query",
                                qid,
                                epoch,
                                dict(
                                    wire,
                                    units=sorted(assigned.items()),
                                ),
                            ),
                        )
                        participants.append(rec)
                    except OSError:
                        # Died before we could even send: everything it
                        # owned is re-executed locally below.
                        self._handle_death(rec)

                received: Dict[int, dict] = {
                    rec["pid"]: {} for rec in participants
                }
                done = {rec["pid"]: False for rec in participants}
                while participants and not all(
                    done[rec["pid"]] for rec in participants
                ):
                    readable = [
                        rec["rfd"]
                        for rec in participants
                        if not done[rec["pid"]]
                    ]
                    ready, __, __ = select.select(readable, [], [], 1.0)
                    if not ready:
                        # Liveness poll: catch a worker that died without
                        # the pipe EOF reaching us yet.
                        for rec in list(participants):
                            if done[rec["pid"]]:
                                continue
                            pid, __status = os.waitpid(
                                rec["pid"], os.WNOHANG
                            )
                            if pid:
                                done[rec["pid"]] = True
                                self._reap_mid_query(
                                    rec, assignments, received, reaped=True
                                )
                        continue
                    for fd in ready:
                        rec = next(
                            r for r in participants if r["rfd"] == fd
                        )
                        data = os.read(fd, 1 << 16)
                        if not data:
                            done[rec["pid"]] = True
                            self._reap_mid_query(rec, assignments, received)
                            continue
                        rec["buf"] += data
                        for frame in _parse_frames(rec):
                            tag = frame[0]
                            if tag == "partial" and frame[1] == qid:
                                received[rec["pid"]][frame[2]] = frame[3]
                            elif tag == "done" and frame[1] == qid:
                                done[rec["pid"]] = True
                            elif tag == "error" and frame[1] == qid:
                                failed = True
                                done[rec["pid"]] = True

                if failed:
                    # A worker *raised* (as opposed to died): the plan or
                    # data tripped something the process path cannot
                    # handle; trust nothing from this round.
                    return None

                # Fold worker partials; re-execute anything a dead (or
                # never-reached) worker never acknowledged.  Iterates the
                # assignment map, not `participants`, so units whose very
                # send failed are also recovered.
                for rec in workers:
                    assigned = assignments.get(rec["pid"])
                    if not assigned:
                        continue
                    got = received.get(rec["pid"], {})
                    for seq, acc_wire in got.items():
                        local_partials.append(
                            (
                                seq,
                                plansnap.decode_accumulator(
                                    manager, plan.terminal, acc_wire
                                ),
                            )
                        )
                    if rec["alive"]:
                        continue
                    for seq, block_ids in assigned.items():
                        if seq in got:
                            continue
                        redispatched += 1
                        acc = plan.make_accumulator()
                        for block_id in block_ids:
                            block = manager.space.block_by_id(block_id)
                            plan.process_block(block, probes, acc)
                        local_partials.append((seq, acc))

            manager.stats.morsels_dispatched += len(units)
            manager.stats.exec_morsels_redispatched += redispatched
        finally:
            for lease in entered:
                lease.exit()  # no-op for leases revoked by a death
            epochs.exit_critical_section()

        if self.fingerprint() != start_fp:
            # Data mutated mid-query: the workers' COW snapshot may have
            # diverged from the live state; discard and rerun serially.
            return None

        local_partials.sort(key=lambda pair: pair[0])
        acc = plan.make_accumulator()
        for __, partial in local_partials:
            acc.merge(partial)
        return acc, pruned, scanned

    def _reap_mid_query(self, rec, assignments, received, reaped=False):
        if reaped:
            # waitpid already collected it; skip the second wait.
            rec["alive"] = False
            for fd_key in ("rfd", "wfd"):
                try:
                    os.close(rec[fd_key])
                except OSError:
                    pass
            rec["lease"].revoke()
            if self._slots is not None:
                base = rec["index"] * _SLOT_ROW
                self._slots[base : base + _SLOT_ROW] = 0
        else:
            self._handle_death(rec)

