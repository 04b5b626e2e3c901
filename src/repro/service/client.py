"""Client library for the query service.

Synchronous, one socket per client; opens a session (``hello``) on
connect so every query runs under the session's epoch lease.  Results
come back as :class:`~repro.query.builder.Result` with exact cell
values (see ``protocol``), so a client-side result compares equal —
byte for byte through ``repr`` — with an in-process run.

Usage::

    with ServiceClient("127.0.0.1", 7070) as client:
        result = client.query("q1", workers=4)
        print(client.metrics())

Shed requests raise :class:`ServiceOverloadedError`; expired sessions
raise :class:`ServiceSessionExpired`; everything else a server reports
raises :class:`ServiceError` with the server's error code.

:class:`RoutedClient` is the fleet-aware client (one primary, N read
replicas): mutations go to the primary, reads fan across replicas under
a bounded-staleness contract, and connection loss triggers bounded
retry with jitter plus re-discovery — see ``docs/replication.md``.
"""

from __future__ import annotations

import contextlib
import random
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.query.builder import Result
from repro.service import protocol


class ServiceError(Exception):
    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class ServiceOverloadedError(ServiceError):
    def __init__(self, reason: str, queue_class: str) -> None:
        super().__init__("OVERLOADED", reason)
        self.reason = reason
        self.queue_class = queue_class


class ServiceSessionExpired(ServiceError):
    def __init__(self, detail: str = "") -> None:
        super().__init__("LEASE_EXPIRED", detail)


class ServiceStaleRead(ServiceError):
    """A replica could not reach the read's ``min_lsn`` in time."""

    def __init__(self, applied_lsn: int, min_lsn: int) -> None:
        super().__init__(
            "STALE_READ", f"applied LSN {applied_lsn} < required {min_lsn}"
        )
        self.applied_lsn = applied_lsn
        self.min_lsn = min_lsn


class ServiceNotPrimary(ServiceError):
    """A mutation reached a read replica; ``primary`` names its source."""

    def __init__(self, detail: str = "", primary: str = "") -> None:
        super().__init__("NOT_PRIMARY", detail)
        self.primary = primary


def raise_for_error(reply: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Map an error response to its typed exception; pass ok replies."""
    if reply is None:
        raise ServiceError("DISCONNECTED", "server closed the connection")
    if reply.get("ok"):
        return reply
    code = reply.get("error", "ERROR")
    if code == "OVERLOADED":
        raise ServiceOverloadedError(
            reply.get("reason", ""), reply.get("queue_class", "")
        )
    if code == "LEASE_EXPIRED":
        raise ServiceSessionExpired(reply.get("detail", ""))
    if code == "STALE_READ":
        raise ServiceStaleRead(
            int(reply.get("applied_lsn", 0)), int(reply.get("min_lsn", 0))
        )
    if code == "NOT_PRIMARY":
        raise ServiceNotPrimary(
            reply.get("detail", ""), reply.get("primary", "")
        )
    raise ServiceError(code, reply.get("detail", ""))


class ServiceClient:
    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7070,
        timeout: Optional[float] = 30.0,
        open_session: bool = True,
        lease_ttl: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> None:
        """Connect, optionally opening a session.

        ``retries`` bounds reconnection attempts on a refused or lost
        connection, with exponential backoff and jitter (so a fleet of
        clients re-discovering a restarted server does not stampede it).
        """
        self.host, self.port = host, int(port)
        delay = backoff
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError:
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(delay * (0.5 + random.random()))
                delay = min(delay * 2, 2.0)
        self.session: Optional[str] = None
        self.lease_ttl: Optional[float] = None
        if open_session:
            reply = self.call({"op": "hello", "ttl": lease_ttl})
            self.session = reply["session"]
            self.lease_ttl = reply["lease_ttl"]

    # -- low level -----------------------------------------------------

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request, await the response, raise on error."""
        protocol.send_message(self._sock, message)
        reply = protocol.recv_message(self._sock)
        return raise_for_error(reply)

    # -- operations ----------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call({"op": "ping"}).get("pong"))

    def query(
        self,
        name: str,
        engine: str = "compiled",
        flavor: Optional[str] = None,
        workers: int = 1,
        prune: bool = True,
        params: Optional[Dict[str, Any]] = None,
        queue_class: str = "default",
    ) -> Result:
        message: Dict[str, Any] = {
            "op": "query",
            "query": name,
            "engine": engine,
            "workers": workers,
            "prune": prune,
            "class": queue_class,
        }
        if flavor is not None:
            message["flavor"] = flavor
        if params is not None:
            message["params"] = protocol.encode_value(params)
        if self.session is not None:
            message["session"] = self.session
        reply = self.call(message)
        return Result(reply["columns"], protocol.decode_rows(reply["rows"]))

    def mutate(
        self,
        ops: list,
        queue_class: str = "default",
    ) -> list:
        """Apply a batch of mutation ops as one durable group commit.

        Each op is a dict: ``{"op": "add", "collection": ..., "values":
        {...}}``, ``{"op": "update", "collection": ..., "entry": ...,
        "values": {...}}`` or ``{"op": "remove", "collection": ...,
        "entry": ...}``.  Values holding Decimal/date/datetime must be
        pre-encoded with :func:`protocol.encode_value`; reference fields
        take ``{"$r": entry}``.  Returns the per-op result list (an
        ``add`` reports the new row's ``entry``).
        """
        message: Dict[str, Any] = {
            "op": "mutate",
            "ops": ops,
            "class": queue_class,
        }
        if self.session is not None:
            message["session"] = self.session
        return self.call(message)["results"]

    def add(self, collection: str, **values: Any) -> int:
        """Durably add one row; returns its indirection entry id."""
        encoded = {k: protocol.encode_value(v) for k, v in values.items()}
        (result,) = self.mutate(
            [{"op": "add", "collection": collection, "values": encoded}]
        )
        return result["entry"]

    def update(self, collection: str, entry: int, **values: Any) -> None:
        """Durably update fields of the row at *entry*."""
        encoded = {k: protocol.encode_value(v) for k, v in values.items()}
        self.mutate(
            [
                {
                    "op": "update",
                    "collection": collection,
                    "entry": entry,
                    "values": encoded,
                }
            ]
        )

    def remove(self, collection: str, entry: int) -> None:
        """Durably remove the row at *entry*."""
        self.mutate(
            [{"op": "remove", "collection": collection, "entry": entry}]
        )

    def metrics(self) -> str:
        """Scrape the Prometheus-format metrics exposition."""
        return self.call({"op": "metrics"})["text"]

    def info(self) -> Dict[str, Any]:
        reply = self.call({"op": "info"})
        return {
            "telemetry": protocol.decode_value(reply["telemetry"]),
            "plan_cache": reply["plan_cache"],
        }

    def close(self) -> None:
        if self._sock.fileno() < 0:
            return
        if self.session is not None:
            try:
                self.call({"op": "bye", "session": self.session})
            except (ServiceError, OSError):
                pass
            self.session = None
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LoopbackClient:
    """Socket-free client over an in-process :class:`QueryService`.

    Same ``call``/``close``/``session`` surface as
    :class:`ServiceClient`, driving ``service.handle`` directly — the
    router and the replication client accept it wherever a transport is
    expected, so whole fleets can run in one process (property tests).
    """

    def __init__(self, service, open_session: bool = False) -> None:
        self.service = service
        self.session: Optional[str] = None
        self.lease_ttl: Optional[float] = None
        if open_session:
            reply = self.call({"op": "hello", "ttl": None})
            self.session = reply["session"]
            self.lease_ttl = reply["lease_ttl"]

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return raise_for_error(self.service.handle(message))

    def close(self) -> None:
        if self.session is not None:
            with contextlib.suppress(ServiceError, OSError):
                self.call({"op": "bye", "session": self.session})
            self.session = None


class RoutedClient:
    """Fleet router: writes to the primary, reads across replicas.

    Staleness contract: every read carries ``min_lsn = max(read_lsn,
    known_committed - staleness_bound)`` — the last committed LSN this
    router observed from its own writes, minus the configured bound,
    floored by the monotonic per-router ``read_lsn`` watermark.  A
    replica that cannot reach the floor within ``stale_wait`` seconds
    answers STALE_READ and the router redirects to the next replica,
    falling back to the primary (which always satisfies the floor
    within one primary generation).  ``read_lsn`` never decreases, so a
    router never observes time moving backwards across redirects.

    Endpoints are opaque tokens handed to ``client_factory``; the
    default factory treats them as ``(host, port)`` pairs and builds
    :class:`ServiceClient` connections with bounded retry + jitter.
    """

    def __init__(
        self,
        endpoints: Sequence[Any],
        *,
        staleness_bound: int = 0,
        stale_wait: float = 2.0,
        timeout: Optional[float] = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        client_factory: Optional[Callable[[Any], Any]] = None,
        seed: int = 0,
    ) -> None:
        self.endpoints = list(endpoints)
        self.staleness_bound = int(staleness_bound)
        self.stale_wait = stale_wait
        self.retries = retries
        self.backoff = backoff
        self._factory = client_factory or (
            lambda ep: ServiceClient(
                ep[0],
                ep[1],
                timeout=timeout,
                open_session=True,
                retries=retries,
                backoff=backoff,
            )
        )
        self._clients: Dict[Any, Any] = {}
        self._primary: Optional[Any] = None
        self._replicas: List[Any] = []
        self._rr = 0
        self._rng = random.Random(seed)
        #: Monotonic per-router read watermark (never decreases).
        self.read_lsn = 0
        #: Last committed LSN observed from this router's own writes.
        self.known_committed = 0
        # Routing telemetry (asserted by tests, reported by benches).
        self.stale_reads = 0
        self.redirects = 0
        self.failovers = 0
        self.discover()

    # -- topology --------------------------------------------------------

    def _client(self, ep: Any) -> Any:
        client = self._clients.get(ep)
        if client is None:
            client = self._factory(ep)
            self._clients[ep] = client
        return client

    def _drop(self, ep: Any) -> None:
        client = self._clients.pop(ep, None)
        if client is not None:
            with contextlib.suppress(Exception):
                client.close()

    def discover(self) -> Dict[str, Any]:
        """Classify endpoints by role via the ``lsn`` op.

        Re-run after a failover: the primary role moves, and
        ``known_committed`` is re-anchored to the new primary's
        committed LSN (a lossy failover may lawfully rewind it; the
        monotonic ``read_lsn`` floor still holds because promotion
        requires the freshest replica).
        """
        primary = None
        replicas: List[Any] = []
        roles: Dict[str, Any] = {}
        for ep in self.endpoints:
            try:
                reply = self._client(ep).call({"op": "lsn"})
            except (ServiceError, OSError, protocol.ProtocolError):
                self._drop(ep)
                continue
            roles[str(ep)] = reply.get("role")
            if reply.get("role") == "primary":
                primary = ep
                self.known_committed = int(reply.get("committed_lsn", 0))
            else:
                replicas.append(ep)
        self._primary = primary
        self._replicas = replicas
        return roles

    def lsn(self, ep: Any) -> Dict[str, Any]:
        return self._client(ep).call({"op": "lsn"})

    @property
    def primary(self) -> Optional[Any]:
        return self._primary

    @property
    def replicas(self) -> List[Any]:
        return list(self._replicas)

    # -- writes ----------------------------------------------------------

    def mutate(self, ops: list, queue_class: str = "default") -> list:
        """One durable group commit on the primary, with failover retry."""
        last_exc: Optional[Exception] = None
        delay = self.backoff
        for __ in range(self.retries + 1):
            ep = self._primary
            if ep is None:
                self.discover()
                ep = self._primary
            if ep is None:
                last_exc = ServiceError(
                    "UNAVAILABLE", "no primary in the fleet"
                )
                time.sleep(delay * (0.5 + self._rng.random()))
                delay = min(delay * 2, 1.0)
                continue
            try:
                client = self._client(ep)
                message: Dict[str, Any] = {
                    "op": "mutate",
                    "ops": ops,
                    "class": queue_class,
                }
                if client.session is not None:
                    message["session"] = client.session
                reply = client.call(message)
            except ServiceOverloadedError:
                raise
            except (
                ServiceNotPrimary,
                ServiceSessionExpired,
                OSError,
                protocol.ProtocolError,
            ) as exc:
                last_exc = exc
            except ServiceError as exc:
                if exc.code != "DISCONNECTED":
                    raise
                last_exc = exc
            else:
                lsn = int(reply.get("lsn", 0))
                if lsn > self.known_committed:
                    self.known_committed = lsn
                return reply["results"]
            self._drop(ep)
            self._primary = None
            self.failovers += 1
            time.sleep(delay * (0.5 + self._rng.random()))
            delay = min(delay * 2, 1.0)
        raise last_exc

    def add(self, collection: str, **values: Any) -> int:
        encoded = {k: protocol.encode_value(v) for k, v in values.items()}
        (result,) = self.mutate(
            [{"op": "add", "collection": collection, "values": encoded}]
        )
        return result["entry"]

    def update(self, collection: str, entry: int, **values: Any) -> None:
        encoded = {k: protocol.encode_value(v) for k, v in values.items()}
        self.mutate(
            [
                {
                    "op": "update",
                    "collection": collection,
                    "entry": entry,
                    "values": encoded,
                }
            ]
        )

    def remove(self, collection: str, entry: int) -> None:
        self.mutate(
            [{"op": "remove", "collection": collection, "entry": entry}]
        )

    # -- reads -----------------------------------------------------------

    def min_lsn(self, bound: Optional[int] = None) -> int:
        """The LSN floor the next read must reflect."""
        if bound is None:
            bound = self.staleness_bound
        return max(self.read_lsn, self.known_committed - max(0, bound), 0)

    def _read_order(self) -> List[Any]:
        order = list(self._replicas)
        if order:
            self._rr = (self._rr + 1) % len(order)
            order = order[self._rr :] + order[: self._rr]
        if self._primary is not None:
            order.append(self._primary)
        return order

    def query(
        self,
        name: str,
        engine: str = "compiled",
        flavor: Optional[str] = None,
        workers: int = 1,
        prune: bool = True,
        params: Optional[Dict[str, Any]] = None,
        queue_class: str = "default",
        bound: Optional[int] = None,
    ) -> Result:
        """Read with bounded staleness: wait-or-redirect across the fleet."""
        floor = self.min_lsn(bound)
        last_exc: Optional[Exception] = None
        for round_no in range(2):
            if round_no:
                self.discover()
                self.failovers += 1
            for ep in self._read_order():
                try:
                    reply = self._query_once(
                        ep, name, engine, flavor, workers, prune, params,
                        queue_class, floor,
                    )
                except ServiceOverloadedError:
                    raise
                except ServiceStaleRead as exc:
                    self.stale_reads += 1
                    self.redirects += 1
                    last_exc = exc
                    continue
                except (
                    ServiceSessionExpired,
                    OSError,
                    protocol.ProtocolError,
                ) as exc:
                    self._drop(ep)
                    self.redirects += 1
                    last_exc = exc
                    continue
                except ServiceError as exc:
                    if exc.code != "DISCONNECTED":
                        raise
                    self._drop(ep)
                    self.redirects += 1
                    last_exc = exc
                    continue
                lsn = int(reply.get("lsn", 0))
                if lsn > self.read_lsn:
                    self.read_lsn = lsn
                return Result(
                    reply["columns"], protocol.decode_rows(reply["rows"])
                )
        raise last_exc or ServiceError("UNAVAILABLE", "no endpoint answered")

    def _query_once(
        self, ep, name, engine, flavor, workers, prune, params,
        queue_class, floor,
    ) -> Dict[str, Any]:
        client = self._client(ep)
        message: Dict[str, Any] = {
            "op": "query",
            "query": name,
            "engine": engine,
            "workers": workers,
            "prune": prune,
            "class": queue_class,
            "min_lsn": floor,
            "wait": self.stale_wait,
        }
        if flavor is not None:
            message["flavor"] = flavor
        if params is not None:
            message["params"] = protocol.encode_value(params)
        if client.session is not None:
            message["session"] = client.session
        return client.call(message)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        for ep in list(self._clients):
            self._drop(ep)

    def __enter__(self) -> "RoutedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
