"""Networked cell store: a TCP result service plus a resilient client.

PR 8's content-addressed store (:mod:`repro.harness.cellstore`) shares
results between executors through a directory — which multi-host fleets
can only use over a shared filesystem.  This module lifts the same
store onto a socket so hosts share nothing but the wire:

* :class:`CellStoreServer` — ``repro store serve ROOT HOST:PORT``, a
  stdlib-only threaded server in front of a directory-backed
  :class:`~repro.harness.cellstore.CellStore`.  It speaks the work
  queue's length-prefixed JSON framing
  (:func:`repro.harness.netqueue.send_frame`) and trusts nothing: every
  published record is re-validated with
  :func:`~repro.harness.cellstore.record_problem` (key and payload hash
  must re-derive from the payload), and lookups match the *full*
  content address the client derived from code it can see — the server
  itself never needs to fingerprint a worker.

* :class:`RemoteCellStore` — the client behind ``--store
  tcp://HOST:PORT`` / ``REPRO_STORE=tcp://...``.  It subclasses
  :class:`~repro.harness.cellstore.CellStore` rooted at a local
  **spool** directory, so the whole maintenance toolbox keeps working
  and, crucially, sweeps *degrade instead of failing*: when the server
  is unreachable (or the circuit breaker is open) lookups miss, leases
  grant locally, and publishes land in the crash-safe spool, which
  drains back to the server on the next successful call and in a
  patient final pass at :meth:`RemoteCellStore.close`.  Reports stay
  byte-identical to a healthy-store run — only the stderr ``[store:]``
  banner records the spool and degraded-interval counts.

Every network call is deadline-bounded and retried under
:mod:`repro.harness.resilience` (bounded exponential backoff with
deterministic jitter, per-endpoint circuit breaker).  The failure
matrix — and how each cell of it recovers — is tabulated in
``docs/resilience.md``.

Wire protocol (one JSON object per frame, ``op``-discriminated)::

    client -> server   {"op": "hello", "pid", "host"}
    server -> client   {"op": "welcome", "version"}
    client -> server   {"op": "ping"}                        -> "pong"
    client -> server   {"op": "lookup", "k", "worker", "code", "hash"}
    server -> client   {"op": "found", "result"} | {"op": "miss"}
    client -> server   {"op": "plan", "cells": [{...address...}]}
    server -> client   {"op": "plan", "served", "granted", "busy"}
    client -> server   {"op": "lease", "k"}                  -> {"granted"}
    client -> server   {"op": "release", "keys"}             -> "ok"
    client -> server   {"op": "publish", "record"}           -> "ok" | "reject"
    client -> server   {"op": "stats"}                       -> {"stats"}
    client -> server   {"op": "bye"}
"""

from __future__ import annotations

import contextlib
import os
import socket
import tempfile
import threading
import time
import typing as _t

from repro.errors import ConfigError, StoreUnavailableError, UnavailableError
from repro.harness.cellstore import (
    MISS,
    CellStore,
    StorePlan,
    _worker_code,
    build_record,
    record_problem,
    store_key,
)
from repro.harness.journal import decode_value, encode_value, payload_hash
from repro.harness.netqueue import recv_frame, send_frame
from repro.harness.resilience import (
    TRANSPORT_ERRORS,
    CircuitBreaker,
    RetryPolicy,
    retry_call,
)

#: Store wire-protocol version; client and server must agree exactly.
PROTOCOL_VERSION = 1

#: Cells per ``plan`` frame — bounds frame size for arbitrarily large
#: sweeps (an address is a few hundred bytes; 200 stays far under the
#: netqueue frame cap while amortizing the round trip).
PLAN_CHUNK = 200

#: Environment override for the offline spool directory.
SPOOL_ENV = "REPRO_STORE_SPOOL"


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``(host, port)`` from ``tcp://HOST:PORT`` (or bare ``HOST:PORT``)."""
    text = spec.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"store endpoint must be tcp://HOST:PORT: {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"bad store endpoint port: {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ConfigError(f"store endpoint port out of range: {spec!r}")
    return host, port


def default_spool_root(host: str, port: int) -> str:
    """The crash-safe spool directory for one store endpoint.

    Deterministic per ``(user, endpoint)`` — *not* per process — so a
    run that crashed (or was killed) with results still spooled hands
    them to the next run against the same endpoint, which drains them
    on its first successful call.  ``REPRO_STORE_SPOOL`` overrides.
    """
    override = os.environ.get(SPOOL_ENV, "").strip()
    if override:
        return override
    uid = getattr(os, "getuid", lambda: 0)()
    safe_host = host.replace(":", "_").replace("/", "_")
    return os.path.join(
        tempfile.gettempdir(), f"repro-spool-{uid}-{safe_host}-{port}"
    )


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class CellStoreServer:
    """TCP front end for a directory-backed cell store.

    One thread per connection; the underlying store's append-only file
    discipline already serializes concurrent publishes, so handler
    threads only synchronize around the in-memory lease table.  Leases
    are granted per connection, expire after the store's TTL, and are
    released when their connection drops — a crashed executor can never
    wedge a cell for longer than the TTL.

    ``port=0`` binds an ephemeral port (``.port`` has the real one).
    ``max_requests`` makes the server stop after handling that many
    frames — the deterministic "server dies mid-sweep" crash CI's chaos
    guard wraps in a restart loop.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: float | None = None,
        max_requests: int | None = None,
        clock: _t.Callable[[], float] | None = None,
    ) -> None:
        if max_requests is not None and max_requests < 1:
            raise ConfigError(f"max_requests must be >= 1: {max_requests}")
        self.store = CellStore(root, lease_ttl=lease_ttl)
        self.requests = 0
        self._max = max_requests
        # Wall-clock liveness only (lease expiry), never in results.
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._leases: dict[str, tuple[int, float]] = {}  # key -> (conn, expiry)
        self._conn_socks: dict[int, socket.socket] = {}
        self._next_conn = 0
        self._stopping = False

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host or "127.0.0.1", port))
        self._listener.listen(128)
        self.host = host or "127.0.0.1"
        self.port = self._listener.getsockname()[1]

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "CellStoreServer":
        """Serve in a daemon thread (the in-process test harness path)."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (or the request budget)."""
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: stopping
            with self._lock:
                if self._stopping:
                    with contextlib.suppress(OSError):
                        sock.close()
                    return
                cid = self._next_conn
                self._next_conn += 1
                self._conn_socks[cid] = sock
            threading.Thread(
                target=self._serve_conn, args=(sock, cid), daemon=True
            ).start()

    def stop(self) -> None:
        """Close the listener and sever every live connection."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            socks = list(self._conn_socks.values())
        with contextlib.suppress(OSError):
            self._listener.close()
        for sock in socks:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()

    # -- per-connection ---------------------------------------------------
    def _serve_conn(self, sock: socket.socket, cid: int) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    return
                try:
                    resp, done = self._handle(frame, cid)
                except Exception as exc:  # a bad frame must not kill the server
                    resp, done = (
                        {"op": "error",
                         "message": f"{type(exc).__name__}: {exc}"},
                        False,
                    )
                if resp is not None:
                    send_frame(sock, resp)
                if done or self._count_request():
                    return
        except (OSError, ConnectionError):
            return
        finally:
            self._disconnect(cid)
            with contextlib.suppress(OSError):
                sock.close()

    def _count_request(self) -> bool:
        with self._lock:
            self.requests += 1
            exhausted = self._max is not None and self.requests >= self._max
        if exhausted:
            self.stop()
        return exhausted

    def _disconnect(self, cid: int) -> None:
        with self._lock:
            self._conn_socks.pop(cid, None)
            for key in [k for k, (o, _e) in self._leases.items() if o == cid]:
                del self._leases[key]

    # -- ops --------------------------------------------------------------
    def _handle(self, frame: dict, cid: int) -> tuple[dict | None, bool]:
        op = frame.get("op")
        if op == "hello":
            return {"op": "welcome", "version": PROTOCOL_VERSION}, False
        if op == "ping":
            return {"op": "pong", "version": PROTOCOL_VERSION,
                    "root": str(self.store.root)}, False
        if op == "bye":
            return None, True
        if op == "lookup":
            value = self.store.find_by_address(
                frame.get("k", ""), frame.get("worker", ""),
                frame.get("code", ""), frame.get("hash", ""),
            )
            if value is MISS:
                return {"op": "miss"}, False
            return {"op": "found", "result": encode_value(value)}, False
        if op == "plan":
            served: list[list] = []
            granted: list[str] = []
            busy: list[str] = []
            for cell in frame.get("cells") or []:
                key = cell.get("k", "")
                value = self.store.find_by_address(
                    key, cell.get("worker", ""),
                    cell.get("code", ""), cell.get("hash", ""),
                )
                if value is not MISS:
                    served.append([key, encode_value(value)])
                elif self._lease(key, cid):
                    granted.append(key)
                else:
                    busy.append(key)
            return {"op": "plan", "served": served,
                    "granted": granted, "busy": busy}, False
        if op == "lease":
            return {"op": "lease",
                    "granted": self._lease(frame.get("k", ""), cid)}, False
        if op == "release":
            self._release_keys(frame.get("keys") or [], cid)
            return {"op": "ok"}, False
        if op == "publish":
            rec = frame.get("record")
            if not isinstance(rec, dict):
                return {"op": "reject", "problem": "record is not an object"}, False
            problem = self.store.append_record(rec)
            if problem is not None:
                return {"op": "reject", "problem": problem}, False
            with self._lock:  # the published record supersedes any lease
                self._leases.pop(rec["k"], None)
            return {"op": "ok"}, False
        if op == "stats":
            return {"op": "stats", "stats": self.store.stats().to_dict()}, False
        return {"op": "error", "message": f"unknown op: {op!r}"}, False

    def _lease(self, key: str, cid: int) -> bool:
        now = self._clock()
        with self._lock:
            held = self._leases.get(key)
            if held is not None and held[0] != cid and held[1] > now:
                return False
            self._leases[key] = (cid, now + self.store.lease_ttl)
            return True

    def _release_keys(self, keys: _t.Iterable[str], cid: int) -> None:
        with self._lock:
            for key in keys:
                held = self._leases.get(key)
                if held is not None and held[0] == cid:
                    del self._leases[key]


def serve(
    root: str,
    host: str,
    port: int,
    *,
    lease_ttl: float | None = None,
    max_requests: int | None = None,
) -> int:
    """Run ``repro store serve`` in the foreground; the process exit code."""
    import sys

    server = CellStoreServer(
        root, host, port, lease_ttl=lease_ttl, max_requests=max_requests
    )
    budget = f", max_requests={max_requests}" if max_requests else ""
    print(
        f"[store-serve] listening on {server.host}:{server.port} "
        f"root={root}{budget}",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(
        f"[store-serve] stopped after {server.requests} request(s)",
        file=sys.stderr,
        flush=True,
    )
    return 0


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class RemoteCellStore(CellStore):
    """Cell-store client for ``--store tcp://HOST:PORT``.

    Subclasses :class:`~repro.harness.cellstore.CellStore` *rooted at
    the local spool directory*: the inherited machinery is the offline
    buffer, and every store operation is overridden to try the server
    first and fall back to the spool.  The degradation contract:

    ==============  =====================================================
    operation       while the server is unreachable / breaker open
    ==============  =====================================================
    ``lookup``      spool hit if we spooled it earlier, else ``MISS``
                    (the cell simply executes locally)
    ``try_lease``   granted — duplicate computation between partitioned
                    hosts is redundant, never incorrect (same address)
    ``publish``     appended to the crash-safe spool, drained to the
                    server on reconnect (and in a patient pass on close)
    ``await_peer``  ``MISS`` immediately — compute it ourselves
    ==============  =====================================================

    Reports therefore stay byte-identical whatever the network does;
    only the stderr banner shows ``spooled``/``pending``/``degraded``
    counts.  All I/O is deadline-bounded and retried with deterministic
    jitter; consecutive failures open the per-endpoint breaker so a
    dead server costs one fast refusal per call, not a retry ladder.
    """

    def __init__(
        self,
        spec: str,
        *,
        spool_root: str | os.PathLike | None = None,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: _t.Callable[[float], None] = time.sleep,
    ) -> None:
        host, port = parse_endpoint(spec)
        self.endpoint_host = host
        self.endpoint_port = port
        self.endpoint = f"{host}:{port}"
        if spool_root is None:
            spool_root = default_spool_root(host, port)
        super().__init__(spool_root)
        self._policy = policy if policy is not None else RetryPolicy(
            attempts=3, base_delay=0.05, max_delay=0.5
        )
        self._breaker = breaker if breaker is not None else CircuitBreaker(
            self.endpoint
        )
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._lock = threading.RLock()
        self._degraded = False
        self._draining = False
        self._closed = False
        #: Publishes buffered locally because the server was unreachable.
        self.spooled = 0
        #: Spooled records handed to the server on reconnect.
        self.drained = 0
        #: Transitions into degraded (offline) operation.
        self.degraded_intervals = 0
        #: Spool records not yet on the server (includes crash leftovers).
        self.pending = sum(1 for _ in self._spool_records())

    # -- connection -------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.endpoint_host, self.endpoint_port),
            timeout=self._policy.deadline,
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(sock, {"op": "hello", "pid": os.getpid(),
                              "host": socket.gethostname()})
            welcome = recv_frame(sock)
        except TRANSPORT_ERRORS:
            with contextlib.suppress(OSError):
                sock.close()
            raise
        if not welcome or welcome.get("op") != "welcome":
            with contextlib.suppress(OSError):
                sock.close()
            raise ConnectionError(f"store server did not welcome us: {welcome!r}")
        if welcome.get("version") != PROTOCOL_VERSION:
            with contextlib.suppress(OSError):
                sock.close()
            raise ConfigError(  # wrong software, not a flaky wire: fatal
                f"store server speaks protocol {welcome.get('version')}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
        return sock

    def _drop_sock(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    def _roundtrip(self, payload: dict) -> dict:
        """One request/response attempt over the (re)established socket."""
        if self._sock is None:
            self._sock = self._connect()
        try:
            send_frame(self._sock, payload)
            resp = recv_frame(self._sock)
        except TRANSPORT_ERRORS:
            self._drop_sock()
            raise
        if resp is None:
            self._drop_sock()
            raise ConnectionError("store server closed the connection")
        return resp

    def _call(self, payload: dict) -> dict:
        """A resilient round trip; :class:`StoreUnavailableError` when down.

        Success while degraded flips us back online and drains the
        spool; exhausted retries (or an open breaker) raise the
        internal unavailability signal the overrides translate into
        graceful degradation.
        """
        with self._lock:
            try:
                resp = retry_call(
                    lambda: self._roundtrip(payload),
                    policy=self._policy,
                    breaker=self._breaker,
                    token=f"store {self.endpoint}",
                    sleep=self._sleep,
                )
            except UnavailableError as exc:
                if not self._degraded:
                    self._degraded = True
                    self.degraded_intervals += 1
                raise StoreUnavailableError(str(exc)) from exc
            self._degraded = False
            if resp.get("op") == "error":
                raise ConfigError(f"store server error: {resp.get('message')}")
            if self.pending and not self._draining:
                self._drain()
            return resp

    # -- the spool --------------------------------------------------------
    def _spool_records(self) -> _t.Iterator[dict]:
        """Every valid record currently buffered in the spool."""
        for shard in self.shard_files():
            for _lineno, _line, rec in self._scan_shard(shard):
                if isinstance(rec, dict) and record_problem(rec) is None:
                    yield rec

    def _spool(self, record: dict) -> None:
        """Buffer a publish locally (fsynced) until the server is back."""
        CellStore.append_record(self, record)
        self.spooled += 1
        self.pending += 1

    def _drain(self) -> None:
        """Hand every spooled record to the server, then clear the spool.

        The spool is only deleted after *every* record is acknowledged:
        a crash (or re-outage) mid-drain leaves all records in place,
        and re-sending already-acknowledged ones is harmless — records
        are content-addressed, duplicates collapse last-wins.
        """
        self._draining = True
        try:
            count = 0
            for rec in list(self._spool_records()):
                resp = self._call({"op": "publish", "record": rec})
                if resp.get("op") == "reject":
                    continue  # impossible for honestly built records
                count += 1
            for shard in self.shard_files():
                with contextlib.suppress(OSError):
                    shard.unlink()
            self.drained += count
            self.published += count
            self.pending = 0
        except StoreUnavailableError:
            pass  # back offline: the spool survives for the next reconnect
        finally:
            self._draining = False

    # -- store interface --------------------------------------------------
    def _address(
        self, worker: str, args: _t.Sequence[_t.Any]
    ) -> tuple[str, str, str] | None:
        code = _worker_code(worker)
        if code is None:
            return None
        return store_key(worker, args, code), code, payload_hash(worker, args)

    def lookup(self, worker: str, args: _t.Sequence[_t.Any]) -> _t.Any:
        address = self._address(worker, args)
        if address is None:
            self.misses += 1
            self.uncacheable += 1
            return MISS
        key, code, digest = address
        local = self.find_by_address(key, worker, code, digest)
        if local is not MISS:
            self.hits += 1
            return local
        try:
            resp = self._call({"op": "lookup", "k": key, "worker": worker,
                               "code": code, "hash": digest})
        except StoreUnavailableError:
            self.misses += 1
            return MISS
        if resp.get("op") == "found":
            self.hits += 1
            return decode_value(resp.get("result"))
        self.misses += 1
        return MISS

    def publish(
        self, worker: str, args: _t.Sequence[_t.Any], result: _t.Any
    ) -> bool:
        record = build_record(worker, args, result)
        if record is None:
            return False
        self._held.discard(record["k"])  # the publish supersedes our lease
        try:
            resp = self._call({"op": "publish", "record": record})
        except StoreUnavailableError:
            self._spool(record)
            return True
        if resp.get("op") == "reject":
            raise ConfigError(
                f"store server rejected record: {resp.get('problem')}"
            )
        self.published += 1
        return True

    def try_lease(self, worker: str, args: _t.Sequence[_t.Any]) -> bool:
        address = self._address(worker, args)
        if address is None:
            return True
        return self.try_lease_key(address[0])

    def try_lease_key(self, key: str) -> bool:
        try:
            resp = self._call({"op": "lease", "k": key})
        except StoreUnavailableError:
            # Partitioned hosts may compute the same cell: redundant,
            # never incorrect (both publishes carry the same address).
            return True
        granted = bool(resp.get("granted"))
        if granted:
            self._held.add(key)
        return granted

    def release_leases(self) -> None:
        keys = sorted(self._held)
        self._held.clear()
        if not keys:
            return
        with contextlib.suppress(StoreUnavailableError):
            # Best effort: the server reclaims leases on disconnect (and
            # by TTL) anyway; peers just wait a little longer.
            self._call({"op": "release", "keys": keys})

    def plan_cells(self, cells: _t.Sequence[_t.Any]) -> StorePlan:
        """One batched scheduling pass — ``PLAN_CHUNK`` cells per frame.

        Where the directory store pays a filesystem probe per cell, the
        remote plan is one round trip per chunk; offline it degrades to
        "serve spool hits, run everything else here".
        """
        plan = StorePlan()
        addressed: list[tuple[_t.Any, str, str, str]] = []
        for cell in cells:
            address = self._address(cell.worker, cell.args)
            if address is None:
                self.misses += 1
                self.uncacheable += 1
                plan.to_run.append(cell)
                continue
            key, code, digest = address
            local = self.find_by_address(key, cell.worker, code, digest)
            if local is not MISS:
                self.hits += 1
                plan.served[cell.key] = local
                continue
            addressed.append((cell, key, code, digest))
        for start in range(0, len(addressed), PLAN_CHUNK):
            chunk = addressed[start:start + PLAN_CHUNK]
            try:
                resp = self._call({
                    "op": "plan",
                    "cells": [
                        {"k": key, "worker": cell.worker,
                         "code": code, "hash": digest}
                        for cell, key, code, digest in chunk
                    ],
                })
            except StoreUnavailableError:
                for cell, _key, _code, _digest in chunk:
                    self.misses += 1
                    plan.to_run.append(cell)
                continue
            served = {
                pair[0]: pair[1]
                for pair in resp.get("served") or []
                if isinstance(pair, list) and len(pair) == 2
            }
            granted = set(resp.get("granted") or [])
            for cell, key, _code, _digest in chunk:
                if key in served:
                    self.hits += 1
                    plan.served[cell.key] = decode_value(served[key])
                elif key in granted:
                    self.misses += 1
                    self._held.add(key)
                    plan.to_run.append(cell)
                else:
                    self.misses += 1
                    plan.deferred.append(cell)
        return plan

    def await_peer(
        self,
        worker: str,
        args: _t.Sequence[_t.Any],
        *,
        poll: float = 0.05,
        max_wait: float | None = None,
    ) -> _t.Any:
        address = self._address(worker, args)
        if address is None:
            return MISS
        key, code, digest = address
        if max_wait is None:
            max_wait = self.lease_ttl
        deadline = time.monotonic() + max_wait  # lint-ok: DET001 lease liveness only, never in results
        while True:
            try:
                resp = self._call({"op": "lookup", "k": key, "worker": worker,
                                   "code": code, "hash": digest})
            except StoreUnavailableError:
                return MISS  # partitioned: compute it ourselves
            if resp.get("op") == "found":
                self.hits += 1
                self.misses -= 1  # the planned miss became a peer-served hit
                self.peer_waits += 1
                return decode_value(resp.get("result"))
            # No result yet: if the peer's lease lapsed (it died or gave
            # up) the server grants it to us and we compute the cell.
            try:
                lease = self._call({"op": "lease", "k": key})
            except StoreUnavailableError:
                return MISS
            if lease.get("granted"):
                self._held.add(key)
                return MISS
            if time.monotonic() >= deadline:  # lint-ok: DET001 lease liveness only, never in results
                return MISS
            self._sleep(poll)

    # -- reporting / lifecycle --------------------------------------------
    def banner(self) -> str:
        text = super().banner()
        text += f", {self.spooled} spooled, {self.pending} pending"
        if self.degraded_intervals:
            text += f", {self.degraded_intervals} degraded interval(s)"
        if self._breaker.opened:
            text += f", breaker opened {self._breaker.opened}x"
        return text

    def remote_stats(self) -> dict:
        """The *server's* store tallies (``repro store stats tcp://...``)."""
        return dict(self._call({"op": "stats"}).get("stats") or {})

    def ping(self) -> dict:
        """One resilient round trip; the server's ``pong`` frame."""
        return self._call({"op": "ping"})

    def close(self) -> None:
        """Drain the spool (patiently), say goodbye, drop the socket.

        Called by ``store_scope`` when the sweep ends.  The final drain
        gets a more generous retry ladder and a fresh breaker — the
        spool holds the only copies of these results, and CI's chaos
        guard restarts the server precisely so this pass can finish
        with ``0 pending``.  If the server stays gone, the spool (and
        its deterministic path) survives for the next run to drain.
        """
        if self._closed:
            return
        self._closed = True
        if self.pending:
            self._policy = RetryPolicy(
                attempts=max(8, self._policy.attempts),
                base_delay=max(0.25, self._policy.base_delay),
                max_delay=max(2.0, self._policy.max_delay),
                jitter=self._policy.jitter,
                deadline=self._policy.deadline,
                seed=self._policy.seed,
            )
            self._breaker = CircuitBreaker(self.endpoint)  # a fresh fuse
            with contextlib.suppress(StoreUnavailableError, ConfigError):
                self._call({"op": "ping"})  # reconnect: success drains
        with self._lock:
            if self._sock is not None:
                with contextlib.suppress(OSError, ConnectionError):
                    send_frame(self._sock, {"op": "bye"})
            self._drop_sock()
