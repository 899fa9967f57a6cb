"""End-to-end server behaviour over real sockets (loopback).

All in-process tests run the full asyncio stack — ``ServeApp`` bound
to an ephemeral port, the load generator's keep-alive client on the
other side — inside ``asyncio.run``.  One subprocess test exercises
the ``repro serve`` entry point's SIGTERM drain contract.
"""

import asyncio
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import repro
from repro.serve import ServeApp, decide_one
from repro.serve.loadgen import _Connection
from repro.serve.protocol import quantize_costs


def _app(store, **kwargs):
    kwargs.setdefault("reload_interval", 0.0)  # no catalog to poll
    return ServeApp(store, **kwargs)


def _run_with_server(store, scenario, **app_kwargs):
    """Start app on an ephemeral port, run the scenario coro, drain."""

    async def runner():
        app = _app(store, **app_kwargs)
        host, port = await app.start("127.0.0.1", 0)
        conn = _Connection(host, port)
        try:
            return await scenario(app, conn)
        finally:
            conn.close()
            await app.drain()

    return asyncio.run(runner())


def _probe(entry):
    return list(quantize_costs(entry.center))


def test_healthz_reports_store_and_drain_state(warm_store, q6_entry):
    async def scenario(app, conn):
        status, payload = await conn.get("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["pid"] == os.getpid()
        assert payload["store"]["plans"]["Q6/split"] == q6_entry.plans
        return payload

    _run_with_server(warm_store, scenario)


def test_decide_over_http_matches_canonical_kernel(
    warm_store, q6_entry
):
    async def scenario(app, conn):
        body = {
            "query": "Q6",
            "scenario": "split",
            "cost_vector": _probe(q6_entry),
        }
        status, payload = await conn.post("/v1/decide", body)
        assert status == 200
        expected = decide_one(
            q6_entry, tuple(_probe(q6_entry))
        )
        # The HTTP payload is the kernel's output through one JSON
        # round-trip — bit-identical floats included.
        assert payload == json.loads(json.dumps(expected))

    _run_with_server(warm_store, scenario)


def test_http_error_paths(warm_store, q6_entry):
    async def scenario(app, conn):
        status, payload = await conn.post(
            "/v1/decide",
            {"query": "Q99", "cost_vector": [1.0]},
        )
        assert status == 400
        assert "unknown query" in payload["error"]

        status, payload = await conn.post(
            "/v1/decide",
            {"query": "Q6", "cost_vector": [1.0]},
        )
        assert status == 400
        assert (
            f"needs {q6_entry.dimension} component(s)"
            in payload["error"]
        )

        status, payload = await conn.post(
            "/v1/decide",
            {
                "query": "Q6",
                "scenario": "nope",
                "cost_vector": _probe(q6_entry),
            },
        )
        assert status == 400

        status, payload = await conn.get("/v1/decide")
        assert status == 405
        status, payload = await conn.get("/nowhere")
        assert status == 404
        status, payload = await conn.post("/healthz", {})
        assert status == 405

    _run_with_server(warm_store, scenario)


def test_malformed_json_is_a_400(warm_store):
    async def scenario(app, conn):
        await conn._ensure()
        raw = b"{not json"
        head = (
            "POST /v1/decide HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(raw)}\r\n\r\n"
        )
        conn.writer.write(head.encode() + raw)
        await conn.writer.drain()
        status, payload = await conn._read_response()
        assert status == 400
        assert "not JSON" in payload["error"]

    _run_with_server(warm_store, scenario)


def test_metrics_count_one_decide_call_per_request(warm_store, q6_entry):
    async def scenario(app, conn):
        body = {"query": "Q6", "cost_vector": _probe(q6_entry)}
        status, _ = await conn.post("/v1/decide", body)
        assert status == 200
        return await conn.get("/metrics")

    status, snapshot = _run_with_server(warm_store, scenario)
    assert status == 200
    counters = snapshot["counters"]
    for name in ("serve.requests", "serve.batches", "serve.dgemm_calls"):
        assert counters[name] == 1, name
    batch_size = snapshot["histograms"]["serve.batch_size"]
    assert batch_size["count"] == 1 and batch_size["sum"] == 1


def test_request_path_looks_up_its_hooks_at_call_time(
    warm_store, q6_entry, monkeypatch
):
    """A wrapper installed on the server module (as the benchmark's
    tracer does) sees every request exactly once."""
    from repro.serve import server

    calls = {"parse_decide_request": 0, "decide_group": 0}

    def counting(name):
        original = getattr(server, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(server, name, wrapper)

    counting("parse_decide_request")
    counting("decide_group")

    async def scenario(app, conn):
        for _ in range(3):
            status, _ = await conn.post(
                "/v1/decide",
                {"query": "Q6", "cost_vector": _probe(q6_entry)},
            )
            assert status == 200

    _run_with_server(warm_store, scenario)
    assert calls == {"parse_decide_request": 3, "decide_group": 3}


def test_draining_server_rejects_new_decides(warm_store, q6_entry):
    async def runner():
        app = _app(warm_store)
        host, port = await app.start("127.0.0.1", 0)
        conn = _Connection(host, port)
        body = {
            "query": "Q6",
            "cost_vector": _probe(q6_entry),
        }
        status, _ = await conn.post("/v1/decide", body)
        assert status == 200
        conn.close()
        await app.drain()
        assert app.draining
        # Routing while draining answers 503 (listener is closed, so
        # exercise the route table directly).
        status, payload = await app._route(
            "POST", "/v1/decide", json.dumps(body).encode()
        )
        assert status == 503
        assert payload["error"] == "draining"

    asyncio.run(runner())


def test_drain_closes_idle_keep_alive_connections(warm_store, q6_entry):
    """Drain ends every connection handler, so none is left for the
    loop to cancel at shutdown."""

    async def runner():
        app = _app(warm_store)
        host, port = await app.start("127.0.0.1", 0)
        conn = _Connection(host, port)
        status, _ = await conn.post(
            "/v1/decide",
            {"query": "Q6", "cost_vector": _probe(q6_entry)},
        )
        assert status == 200
        await asyncio.wait_for(app.drain(), timeout=10)
        assert app._connections == {}
        assert await conn.reader.read() == b""  # closed by the server
        conn.close()

    asyncio.run(runner())


def test_cli_serve_subprocess_sigterm_drains_to_exit_zero(tmp_path):
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    lines: "queue.Queue[str]" = queue.Queue()

    def pump():
        for line in process.stderr:
            lines.put(line)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    try:
        banner = lines.get(timeout=60)
        assert "serving on http://127.0.0.1:" in banner
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    thread.join(timeout=5)
    drained = [lines.get_nowait() for _ in range(lines.qsize())]
    assert any("draining" in line for line in drained)
