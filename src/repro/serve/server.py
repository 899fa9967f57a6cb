"""The stdlib-only asyncio decision server.

A hand-rolled HTTP/1.1 server over ``asyncio`` streams — no
third-party web framework, matching the repository's stdlib+numpy
dependency budget.  Three routes:

* ``POST /v1/decide`` — body ``{"query", "scenario", "cost_vector"}``;
  the request is validated and quantized (``serve/protocol.py``) and
  answered on the spot by the decide kernel (``serve/decide.py``).
* ``GET /healthz`` — liveness + store stats + drain state.
* ``GET /metrics`` — the process-global obs metrics registry snapshot
  (counters/gauges/histograms), JSON.

Keep-alive is supported (the load generator reuses connections), and
drain is graceful: SIGTERM/SIGINT stops the listener, closes every open
connection once the request it has read is answered, waits for their
handlers and exits 0 — the CI serve-smoke job asserts exactly that.

``--workers N`` pre-forks: the parent binds the listening socket,
forks N children that each run their own event loop against the
shared socket (the kernel load-balances accepts), forwards SIGTERM,
and exits with the worst child status.  Workers share one candidate
-set cache on disk (``store.py``), so a cold plan is computed once
machine-wide.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import socket
import sys
from typing import Any

from ..obs.metrics import METRICS
from .decide import decide_group
from .protocol import RequestError, parse_decide_request
from .store import CandidateStore

__all__ = ["ServeApp", "run_server"]

logger = logging.getLogger(__name__)

#: Largest accepted request body; decide bodies are ~hundreds of bytes.
MAX_BODY_BYTES = 1 << 20

#: Default catalog hot-reload poll interval (seconds).
DEFAULT_RELOAD_INTERVAL = 5.0


class ServeApp:
    """One server process: store + HTTP front end."""

    def __init__(
        self,
        store: CandidateStore,
        quant_digits: int = 9,
        reload_interval: float = DEFAULT_RELOAD_INTERVAL,
    ) -> None:
        self.store = store
        self.quant_digits = int(quant_digits)
        self.reload_interval = float(reload_interval)
        self.draining = False
        self._server: "asyncio.AbstractServer | None" = None
        self._reloader: "asyncio.Task | None" = None
        #: Open connections: handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drained = asyncio.Event()

    # ------------------------------------------------------------------
    # Decide
    # ------------------------------------------------------------------
    def decide(self, payload: Any) -> dict[str, Any]:
        """Validate one request body and answer it on the spot.

        Unknown queries, unknown scenarios and dimension mismatches
        raise :class:`RequestError` (HTTP 400).  ``parse_decide_request``
        and ``decide_group`` are looked up on this module at call time,
        so a timer wrapped around them there (as the end-to-end
        benchmark's tracer does) sees every request.
        """
        request = parse_decide_request(
            payload, digits=self.quant_digits
        )
        entry = self.store.entry(request["query"], request["scenario"])
        cost = request["cost"]
        if len(cost) != entry.dimension:
            raise RequestError(
                f"cost_vector needs {entry.dimension} component(s) "
                f"({', '.join(entry.names)}), got {len(cost)}"
            )
        METRICS.counter("serve.requests").inc()
        return decide_group(entry, [cost])[0]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: "socket.socket | None" = None,
    ) -> tuple[str, int]:
        """Bind (or adopt ``sock``); returns (host, port)."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port
            )
        if self.reload_interval > 0:
            self._reloader = asyncio.ensure_future(self._reload_loop())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _reload_loop(self) -> None:
        while not self.draining:
            await asyncio.sleep(self.reload_interval)
            try:
                self.store.maybe_reload()
            except Exception:
                logger.exception("catalog reload failed")

    async def drain(self) -> None:
        """Stop accepting, close open connections, stop the reloader.

        A decide is answered without an await, so a handler is either
        waiting for its next request or flushing a reply, and closing
        its writer (which flushes first) loses no request it has read.
        Handlers still parked in ``readline`` when the loop shuts down
        would be cancelled, which Python 3.11 logs as callback errors.
        """
        if self.draining:
            await self._drained.wait()
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self._reloader is not None:
            self._reloader.cancel()
            try:
                await self._reloader
            except asyncio.CancelledError:
                pass
        self._drained.set()
        logger.info("drained: all in-flight requests answered")

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                keep_alive = await self._one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            # close() is enough: awaiting wait_closed() here leaves
            # handler tasks parked in the close handshake when the
            # loop shuts down right after drain, and asyncio logs
            # their cancellation as spurious callback errors.
            writer.close()
            del self._connections[task]

    async def _one_request(self, reader, writer) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, path, version = (
                request_line.decode("latin-1").split()
            )
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"},
                close=True,
            )
            return False
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer, 413, {"error": "request body too large"},
                close=True,
            )
            return False
        body = await reader.readexactly(length) if length else b""
        status, payload = await self._route(method, path, body)
        await self._respond(
            writer, status, payload, close=not keep_alive
        )
        return keep_alive

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {
                "status": "draining" if self.draining else "ok",
                "pid": os.getpid(),
                "store": self.store.stats(),
            }
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, METRICS.snapshot()
        if path == "/v1/decide":
            if method != "POST":
                return 405, {"error": "use POST"}
            if self.draining:
                return 503, {"error": "draining"}
            try:
                payload = json.loads(body.decode() or "null")
            except ValueError:
                return 400, {"error": "request body is not JSON"}
            try:
                return 200, self.decide(payload)
            except RequestError as exc:
                return 400, {"error": str(exc)}
            except Exception:
                logger.exception("decide failed")
                METRICS.counter("serve.internal_errors").inc()
                return 500, {"error": "internal error"}
        return 404, {"error": f"no route {path}"}

    async def _respond(
        self, writer, status: int, payload: Any, close: bool = False
    ) -> None:
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
        }
        body = (json.dumps(payload) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


# ----------------------------------------------------------------------
# Process entry points (CLI `repro serve`)
# ----------------------------------------------------------------------
async def _serve_async(
    app: ServeApp,
    host: str,
    port: int,
    sock: "socket.socket | None" = None,
) -> int:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    bound_host, bound_port = await app.start(host, port, sock=sock)
    print(
        f"serving on http://{bound_host}:{bound_port} "
        f"(pid {os.getpid()})",
        file=sys.stderr,
        flush=True,
    )
    await stop.wait()
    print("SIGTERM: draining...", file=sys.stderr, flush=True)
    await app.drain()
    return 0


def _worker_main(app_factory, sock: socket.socket) -> int:
    app = app_factory()
    return asyncio.run(_serve_async(app, "", 0, sock=sock))


def _prefork(app_factory, host: str, port: int, workers: int) -> int:
    """Bind once, fork N serving children, forward TERM, reap."""
    listener = socket.create_server(
        (host, port), family=socket.AF_INET, backlog=128,
        reuse_port=False,
    )
    listener.setblocking(False)
    bound = listener.getsockname()
    print(
        f"serving on http://{bound[0]}:{bound[1]} "
        f"({workers} worker(s))",
        file=sys.stderr,
        flush=True,
    )
    pids = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            try:
                code = _worker_main(app_factory, listener)
            except BaseException:
                logging.getLogger(__name__).exception("worker died")
                os._exit(1)
            os._exit(code)
        pids.append(pid)

    def _forward(signum, _frame):
        for child in pids:
            try:
                os.kill(child, signal.SIGTERM)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    worst = 0
    for child in pids:
        while True:
            try:
                _, status = os.waitpid(child, 0)
                break
            except InterruptedError:
                continue
        code = (
            os.waitstatus_to_exitcode(status)
            if hasattr(os, "waitstatus_to_exitcode")
            else os.WEXITSTATUS(status)
        )
        worst = max(worst, abs(code))
    listener.close()
    return worst


def run_server(
    host: str,
    port: int,
    store_factory,
    warm: "tuple[str, ...]" = (),
    warm_scenario: str = "split",
    quant_digits: int = 9,
    reload_interval: float = DEFAULT_RELOAD_INTERVAL,
    workers: int = 1,
) -> int:
    """Blocking server entry point behind ``repro serve``.

    ``store_factory`` builds a fresh :class:`CandidateStore` per
    process (each forked worker gets its own in-memory entries, all
    sharing one on-disk plan cache).
    """

    def app_factory() -> ServeApp:
        store = store_factory()
        if warm:
            count = store.warm(warm, warm_scenario)
            print(
                f"warmed {count} candidate set(s) "
                f"[{warm_scenario}]",
                file=sys.stderr,
                flush=True,
            )
        return ServeApp(
            store,
            quant_digits=quant_digits,
            reload_interval=reload_interval,
        )

    if workers > 1:
        if not hasattr(os, "fork"):
            raise RequestError(
                "--workers > 1 needs os.fork (POSIX only)"
            )
        return _prefork(app_factory, host, port, workers)
    app = app_factory()
    return asyncio.run(_serve_async(app, host, port))
