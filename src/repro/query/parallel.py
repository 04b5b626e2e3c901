"""Morsel-driven parallel scans over SMC blocks.

The block is the natural unit of parallel work distribution in an SMC —
fixed-size, single-type and enumerated by the slot directory — so a
parallel scan partitions the scan's block list into *morsels* (small
runs of consecutive blocks) and fans them out.  There is one fan-out
substrate: the forked :class:`~repro.query.procexec.ProcessScanPool`
attached to the manager (``manager.exec_pool``), whose workers map the
shared-memory block segments and evaluate the plan outside the parent's
GIL.  :func:`run_parallel` is the single entry point; it returns
``None`` whenever the pool is absent or declines the scan, and the
caller then runs the serial scan — never a second parallel substrate.

Protocol discipline (paper section 5.2):

* the **driver** holds a critical section for the whole fan-out, pinning
  the epoch so the snapshotted block list cannot be reclaimed under the
  scan;
* **compaction groups are claimed once** by the dispatcher and
  resolved on the driver through
  :func:`repro.query.runtime.resolve_group` — the identical decision
  procedure the serial scan uses — so helping, pre-state pinning and
  deferral never double-scan a group;
* a shared *emitted* set (block ids) guarantees every block is scanned
  at most once even when a group dissolves mid-scan and its former
  sources reappear as plain blocks.

Results stay deterministic: each work unit carries the sequence number
of its position in the block snapshot, and the driver merges the partial
accumulators in sequence order — the same order the serial scan visits
blocks — so grouped aggregation and selection produce bit-identical
results at any worker count.
"""

from __future__ import annotations

from typing import List, Tuple

#: Morsels per worker the dispatcher aims for; small enough to balance
#: load, large enough to amortise per-morsel accumulator overhead.
MORSELS_PER_WORKER = 4


class MorselDispatcher:
    """Partitioner of one scan's block list.

    Hands out two kinds of work units:

    * ``("blocks", seq, [block, ...])`` — a morsel of consecutive
      group-free blocks, already emission-claimed;
    * ``("group", seq, group)`` / ``("deferred", seq, group)`` — a whole
      compaction group, claimed exactly once, whose state the driver
      resolves itself.

    Deferred groups are queued behind the main block list, mirroring the
    serial scan's end-of-scan revisit, so a deferred group can never be
    orphaned.
    """

    def __init__(self, context, morsel_size: int) -> None:
        self._blocks = context.blocks()
        self._pos = 0
        self._emitted = set()
        self._seen_groups = set()
        self._deferred: List[Tuple[int, object]] = []
        self.morsel_size = max(1, morsel_size)
        # Deferred units sort after every main-list unit.
        self._defer_seq_base = len(self._blocks) + 1
        self._defer_count = 0

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def next_unit(self):
        blocks = self._blocks
        while self._pos < len(blocks):
            group = blocks[self._pos].compaction_group
            if group is not None:
                seq = self._pos
                self._pos += 1
                if id(group) in self._seen_groups:
                    continue
                self._seen_groups.add(id(group))
                return ("group", seq, group)
            seq = self._pos
            run = []
            while self._pos < len(blocks) and len(run) < self.morsel_size:
                block = blocks[self._pos]
                if block.compaction_group is not None:
                    break
                self._pos += 1
                if block.block_id not in self._emitted:
                    self._emitted.add(block.block_id)
                    run.append(block)
            if run:
                return ("blocks", seq, run)
        if self._deferred:
            seq, group = self._deferred.pop(0)
            return ("deferred", seq, group)
        return None

    def defer(self, group) -> None:
        seq = self._defer_seq_base + self._defer_count
        self._deferred.append((seq, group))
        self._defer_count += 1

    def claim_emit(self, block) -> bool:
        """Claim *block* for emission; False if already scanned."""
        if block.block_id in self._emitted:
            return False
        self._emitted.add(block.block_id)
        return True


def run_parallel(plan, workers: int):
    """Fan *plan* out over the manager's process pool.

    *workers* is the caller's fan-out request (``> 1``); the attached
    pool's size is fixed when it is created.  Returns
    ``(accumulator, pruned_blocks, scanned_blocks)`` — the shape of
    ``columnar_exec._run_serial`` — or ``None`` when there is no pool or
    the pool declines the scan (enumeration, a busy pool, a mid-query
    mutation, a worker error); the caller then runs the serial scan.
    """
    pool = getattr(plan.manager, "exec_pool", None)
    if pool is None:
        return None
    result = pool.run(plan)
    if result is not None:
        plan.manager.stats.parallel_scans += 1
    return result
