"""Deterministic schedule control for sanitizer yield points.

Every instrumented protocol step doubles as a *yield point*: when a
:class:`ScheduleController` is attached to the active sanitizer, each
event flows through :meth:`ScheduleController.yield_point`, which can

* **park** the emitting thread on a :class:`Gate` until the test releases
  it — this is how the interleaving tests force a specific thread to
  stop *exactly* between two protocol steps (free-during-scan,
  compact-during-deref, ...) and is fully deterministic;
* apply **seeded jitter**: with ``switch_probability > 0`` each thread
  draws from its own RNG (seeded from ``seed`` and the thread name) and
  occasionally yields the GIL or sleeps, perturbing thread interleavings
  reproducibly — re-running with the same seed and thread names replays
  the same per-thread decision sequence.

Events emitted while a core lock is held (``lock_held=True``) never
reach the controller, so a gate can never wedge a stripe or epoch lock.
Tests may also call :meth:`ScheduleController.yield_point` directly to
create ad-hoc synchronisation points of their own.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

#: Upper bound on how long a parked thread waits for its release; keeps a
#: forgotten gate from hanging a test run forever.
GATE_PARK_TIMEOUT = 30.0


class Gate:
    """A parking spot at one yield point.

    The first ``times`` threads whose event matches ``filter`` (and
    ``thread``, a thread-name match, when given) block until
    :meth:`release` is called.  The controlling test uses
    :meth:`wait_parked` to know the target thread has arrived.
    """

    def __init__(
        self,
        point: str,
        times: int = 1,
        thread: Optional[str] = None,
        filter: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> None:
        self.point = point
        self.thread = thread
        self.filter = filter
        self._remaining = times
        self._lock = threading.Lock()
        self._parked = threading.Event()
        self._released = threading.Event()
        self.parked_threads: List[str] = []
        self.hits = 0

    def _maybe_park(self, info: Dict[str, Any]) -> None:
        name = threading.current_thread().name
        with self._lock:
            self.hits += 1
            if self._remaining <= 0:
                return
            if self.thread is not None and name != self.thread:
                return
            if self.filter is not None and not self.filter(info):
                return
            self._remaining -= 1
            self.parked_threads.append(name)
        self._parked.set()
        self._released.wait(timeout=GATE_PARK_TIMEOUT)

    def wait_parked(self, timeout: float = 10.0) -> bool:
        """Block until some thread parked here; False on timeout."""
        return self._parked.wait(timeout)

    def release(self) -> None:
        """Let every parked (and future matching) thread proceed."""
        with self._lock:
            self._remaining = 0
        self._released.set()


class ScheduleController:
    """Seeded scheduler driving the sanitizer's yield points."""

    def __init__(
        self,
        seed: Optional[int] = None,
        switch_probability: float = 0.0,
        max_sleep: float = 0.0002,
    ) -> None:
        self.seed = seed if seed is not None else random.randrange(1 << 32)
        self.switch_probability = switch_probability
        self.max_sleep = max_sleep
        self._gates: Dict[str, List[Gate]] = {}
        self._rngs: Dict[int, random.Random] = {}
        self._lock = threading.Lock()
        self.points_hit: Counter = Counter()

    # ------------------------------------------------------------------
    # Gates (deterministic interleavings)
    # ------------------------------------------------------------------

    def pause_at(
        self,
        point: str,
        times: int = 1,
        thread: Optional[str] = None,
        filter: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> Gate:
        """Install a gate: the next matching thread to hit *point* parks."""
        gate = Gate(point, times=times, thread=thread, filter=filter)
        with self._lock:
            self._gates.setdefault(point, []).append(gate)
        return gate

    def release_all(self) -> None:
        """Release every gate (teardown safety net)."""
        with self._lock:
            gates = [g for lst in self._gates.values() for g in lst]
            self._gates.clear()
        for gate in gates:
            gate.release()

    # ------------------------------------------------------------------
    # Yield-point entry (called by the sanitizer)
    # ------------------------------------------------------------------

    def yield_point(self, point: str, info: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            self.points_hit[point] += 1
            gates = list(self._gates.get(point, ()))
        for gate in gates:
            gate._maybe_park(info or {})
        if self.switch_probability > 0.0:
            rng = self._thread_rng()
            if rng.random() < self.switch_probability:
                time.sleep(rng.random() * self.max_sleep if self.max_sleep else 0.0)

    def _thread_rng(self) -> random.Random:
        """Per-thread RNG seeded from (seed, thread name): replayable."""
        ident = threading.get_ident()
        rng = self._rngs.get(ident)
        if rng is None:
            name = threading.current_thread().name
            rng = random.Random(f"{self.seed}:{name}")
            with self._lock:
                rng = self._rngs.setdefault(ident, rng)
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScheduleController seed={self.seed} "
            f"p_switch={self.switch_probability} "
            f"points={sum(self.points_hit.values())}>"
        )
