"""End-to-end service tests: routing, admission, streams, drain, parity.

Each test boots a :class:`GraphStreamServer` on a free port inside one
``asyncio.run`` and speaks raw HTTP/SSE/WebSocket to it — the same wire
surface external clients use.
"""

import asyncio
import base64
import json
import os

from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.ql.query import Query
from repro.serve.app import GraphStreamServer
from repro.serve.protocol import dumps, encode_event
from repro.serve.tenants import ServerLimits
from tests.conftest import PAPER_QUERY, make_stream

WINDOW, SLIDE = 24, 1
LIKES = "Answer(u,m) <- likes(u,m)."


async def call(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(data)}\r\n\r\n".encode() + data
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, json.loads(payload) if payload else None, headers


class SseStream:
    def __init__(self, port, tenant, query, params="", headers=None):
        self.port, self.tenant, self.query = port, tenant, query
        self.params = params
        self.headers = dict(headers or {})
        self.events: list[str] = []
        self.end_reason = None
        self.ready = asyncio.Event()
        self.task = None

    def start(self):
        self.task = asyncio.ensure_future(self._run())
        return self

    async def _run(self):
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        path = (
            f"/tenants/{self.tenant}/queries/{self.query}/subscribe"
            f"{self.params}"
        )
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in self.headers.items()
        )
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: t\r\n{extra}\r\n".encode()
        )
        await writer.drain()
        buf = b""
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                return
            buf += chunk
            while b"\n\n" in buf:
                frame, _, buf = buf.partition(b"\n\n")
                event = data = None
                for line in frame.decode().splitlines():
                    if line.startswith("event: "):
                        event = line[7:]
                    elif line.startswith("data: "):
                        data = line[6:]
                if event == "ready":
                    self.ready.set()
                elif event == "end":
                    self.end_reason = json.loads(data)["reason"]
                    writer.close()
                    return
                elif data is not None:
                    self.events.append(data)


async def ws_subscribe(port, tenant, query, events, ready):
    """WebSocket subscriber; returns the close reason."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    key = base64.b64encode(os.urandom(16)).decode()
    writer.write(
        (
            f"GET /tenants/{tenant}/queries/{query}/subscribe HTTP/1.1\r\n"
            f"Host: t\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert b" 101 " in head.split(b"\r\n")[0] + b" ", head
    first = True
    while True:
        hdr = await reader.readexactly(2)
        n = hdr[1] & 0x7F
        if n == 126:
            n = int.from_bytes(await reader.readexactly(2), "big")
        elif n == 127:
            n = int.from_bytes(await reader.readexactly(8), "big")
        payload = await reader.readexactly(n) if n else b""
        opcode = hdr[0] & 0x0F
        if opcode == 0x8:
            writer.close()
            return payload[2:].decode()
        if first:
            first = False
            ready.set()
            continue
        events.append(payload.decode())


def reference(text, edges):
    """The in-process event stream every subscriber must match."""
    engine = StreamingGraphEngine(EngineConfig())
    got, seq = [], [0]

    def cb(event):
        seq[0] += 1
        got.append(dumps(encode_event(seq[0], event)))

    engine.register(
        Query.datalog(text, window=WINDOW, slide=SLIDE), on_result=cb
    )
    engine.push_many(edges)
    engine.close()
    return got


def edge_dicts(edges):
    return [
        {"src": e.src, "trg": e.trg, "label": e.label, "t": e.t} for e in edges
    ]


async def register(port, tenant, name, text=LIKES, **extra):
    body = {"query": text, "window": WINDOW, "slide": SLIDE, "name": name}
    body.update(extra)
    return await call(port, "POST", f"/tenants/{tenant}/queries", body)


class TestRouting:
    def test_healthz_metrics_and_errors(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            status, body, _ = await call(p, "GET", "/healthz")
            assert (status, body) == (200, {"status": "ok"})

            status, body, _ = await call(p, "GET", "/nope")
            assert status == 404

            status, body, _ = await call(p, "GET", "/tenants/x/queries")
            assert status == 404  # GET is not a queries method

            # malformed register bodies -> 400
            status, body, _ = await call(
                p, "POST", "/tenants/a/queries", {"nope": 1}
            )
            assert status == 400 and "query" in body["error"]
            status, body, _ = await call(
                p, "POST", "/tenants/a/queries",
                {"query": "garbage((", "window": 24},
            )
            assert status == 400
            status, body, _ = await call(
                p, "POST", "/tenants/a/queries",
                {
                    "query": "Answer(x,y) <- knows+(x,y) as K.",
                    "window": 24,
                    "options": {"materialize_paths": "false"},
                },
            )
            assert status == 400 and "materialize_paths" in body["error"]

            # unknown tenant / query -> 404
            status, body, _ = await call(
                p, "POST", "/tenants/ghost/ingest", {"edges": []}
            )
            assert status == 404
            await register(p, "a", "q")
            status, body, _ = await call(
                p, "DELETE", "/tenants/a/queries/ghost"
            )
            assert status == 404

            # metrics reflect the registered query
            status, body, _ = await call(p, "GET", "/metrics")
            assert status == 200
            assert body["tenants"]["a"]["query_count"] == 1
            await server.shutdown()

        asyncio.run(go())

    def test_register_ingest_unregister_cycle(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            status, body, _ = await register(p, "a", "q")
            assert (status, body) == (
                201,
                {"query": "q", "tenant": "a"},
            )
            # duplicate name -> 429 (admission)
            status, _, _ = await register(p, "a", "q")
            assert status == 429
            # same name is fine on another tenant (isolation)
            status, _, _ = await register(p, "b", "q")
            assert status == 201

            edges = make_stream(3, 60, 10, ("likes", "posts"), max_gap=2)
            status, body, _ = await call(
                p, "POST", "/tenants/a/ingest", {"edges": edge_dicts(edges)}
            )
            assert status == 200
            assert body["ingested"] == 60
            assert body["watermark"] == server.manager.get(
                "a"
            ).engine.watermark

            # out-of-order batch -> 400, engine untouched
            status, body, _ = await call(
                p,
                "POST",
                "/tenants/a/ingest",
                {
                    "edges": [
                        {"src": 1, "trg": 2, "label": "likes", "t": 9},
                        {"src": 1, "trg": 2, "label": "likes", "t": 8},
                    ]
                },
            )
            assert status == 400 and "timestamp order" in body["error"]

            status, _, _ = await call(p, "DELETE", "/tenants/a/queries/q")
            assert status == 200
            status, _, _ = await call(p, "DELETE", "/tenants/a/queries/q")
            assert status == 404
            await server.shutdown()

        asyncio.run(go())


class TestAdmission:
    def test_query_and_tenant_limits(self):
        async def go():
            limits = ServerLimits(max_tenants=1, max_queries_per_tenant=1)
            server = GraphStreamServer(port=0, limits=limits)
            await server.start()
            p = server.port
            assert (await register(p, "a", "q0"))[0] == 201
            assert (await register(p, "a", "q1"))[0] == 429
            assert (await register(p, "b", "q0"))[0] == 429  # tenant limit
            await server.shutdown()

        asyncio.run(go())

    def test_ingest_rate_quota_with_retry_after(self):
        async def go():
            limits = ServerLimits(ingest_rate=10.0, ingest_burst=5)
            server = GraphStreamServer(port=0, limits=limits)
            await server.start()
            p = server.port
            await register(p, "a", "q")
            batch = {
                "edges": [
                    {"src": 0, "trg": 1, "label": "likes", "t": 0},
                ]
                * 5
            }
            status, _, _ = await call(p, "POST", "/tenants/a/ingest", batch)
            assert status == 200  # burst allows it
            status, body, headers = await call(
                p, "POST", "/tenants/a/ingest", batch
            )
            assert status == 429
            assert "quota" in body["error"]
            assert float(headers["retry-after"]) > 0
            await server.shutdown()

        asyncio.run(go())

    def test_subscriber_limit(self):
        async def go():
            limits = ServerLimits(max_subscribers_per_tenant=1)
            server = GraphStreamServer(port=0, limits=limits)
            await server.start()
            p = server.port
            await register(p, "a", "q")
            first = SseStream(p, "a", "q").start()
            await asyncio.wait_for(first.ready.wait(), 5)
            status, body, _ = await call(
                p, "GET", "/tenants/a/queries/q/subscribe"
            )
            assert status == 429 and "subscriber limit" in body["error"]
            await server.shutdown()
            await asyncio.wait_for(first.task, 5)
            assert first.end_reason == "server draining"

        asyncio.run(go())

    def test_bad_subscribe_params_rejected(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            await register(p, "a", "q")
            status, body, _ = await call(
                p, "GET", "/tenants/a/queries/q/subscribe?policy=yolo"
            )
            assert status == 400 and "policy" in body["error"]
            status, body, _ = await call(
                p, "GET", "/tenants/a/queries/q/subscribe?queue=zap"
            )
            assert status == 400 and "queue" in body["error"]
            await server.shutdown()

        asyncio.run(go())


class TestStreams:
    def test_sse_and_ws_subscribers_match_reference(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            await register(p, "a", "paper", text=PAPER_QUERY)
            await register(p, "a", "likes", text=LIKES)

            sse_paper = SseStream(p, "a", "paper").start()
            sse_likes = SseStream(p, "a", "likes").start()
            ws_events, ws_ready = [], asyncio.Event()
            ws_task = asyncio.ensure_future(
                ws_subscribe(p, "a", "likes", ws_events, ws_ready)
            )
            await asyncio.wait_for(
                asyncio.gather(
                    sse_paper.ready.wait(),
                    sse_likes.ready.wait(),
                    ws_ready.wait(),
                ),
                timeout=5,
            )

            edges = make_stream(
                11, 300, 20, ("likes", "follows", "posts"), max_gap=2
            )
            for start in (0, 100, 200):  # several batches, one stream
                status, _, _ = await call(
                    p,
                    "POST",
                    "/tenants/a/ingest",
                    {"edges": edge_dicts(edges[start : start + 100])},
                )
                assert status == 200

            await server.shutdown()
            ws_reason = await asyncio.wait_for(ws_task, 5)
            await asyncio.wait_for(
                asyncio.gather(sse_paper.task, sse_likes.task), 5
            )

            assert sse_paper.events == reference(PAPER_QUERY, edges)
            want_likes = reference(LIKES, edges)
            assert sse_likes.events == want_likes
            assert ws_events == want_likes  # both transports, same stream
            assert sse_paper.end_reason == "server draining"
            assert ws_reason == "server draining"

        asyncio.run(go())

    def test_unregister_ends_streams_with_backlog(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            await register(p, "a", "likes")
            stream = SseStream(p, "a", "likes").start()
            await asyncio.wait_for(stream.ready.wait(), 5)
            edges = make_stream(5, 80, 10, ("likes", "posts"), max_gap=2)
            await call(
                p, "POST", "/tenants/a/ingest", {"edges": edge_dicts(edges)}
            )
            status, _, _ = await call(p, "DELETE", "/tenants/a/queries/likes")
            assert status == 200
            await asyncio.wait_for(stream.task, 5)
            assert stream.end_reason == "query unregistered"
            assert stream.events == reference(LIKES, edges)
            await server.shutdown()

        asyncio.run(go())

    def test_tenant_isolation(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            await register(p, "a", "likes")
            await register(p, "b", "likes")
            stream_a = SseStream(p, "a", "likes").start()
            stream_b = SseStream(p, "b", "likes").start()
            await asyncio.wait_for(
                asyncio.gather(stream_a.ready.wait(), stream_b.ready.wait()),
                timeout=5,
            )
            edges_a = make_stream(1, 50, 10, ("likes",), max_gap=2)
            edges_b = make_stream(2, 50, 10, ("likes",), max_gap=2)
            await call(
                p, "POST", "/tenants/a/ingest", {"edges": edge_dicts(edges_a)}
            )
            await call(
                p, "POST", "/tenants/b/ingest", {"edges": edge_dicts(edges_b)}
            )
            await server.shutdown()
            await asyncio.wait_for(
                asyncio.gather(stream_a.task, stream_b.task), 5
            )
            assert stream_a.events == reference(LIKES, edges_a)
            assert stream_b.events == reference(LIKES, edges_b)
            assert stream_a.events != stream_b.events

        asyncio.run(go())

    def test_draining_healthz_and_register_rejection(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            await register(p, "a", "q")
            await server.manager.drain_all()
            # new tenants are refused once draining
            status, _, _ = await register(p, "b", "q")
            assert status == 429
            status, body, _ = await call(p, "GET", "/healthz")
            assert body == {"status": "draining"}
            await server.shutdown()

        asyncio.run(go())


class TestPerQueryOptions:
    def test_register_with_params_and_options(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            status, body, _ = await call(
                p,
                "POST",
                "/tenants/a/queries",
                {
                    "query": "Answer(x,y) <- $edge+(x,y) as K.",
                    "window": WINDOW,
                    "params": {"edge": "knows"},
                    "options": {"path_impl": "spath"},
                    "name": "closure",
                },
            )
            assert status == 201, body
            stream = SseStream(p, "a", "closure").start()
            await asyncio.wait_for(stream.ready.wait(), 5)
            await call(
                p,
                "POST",
                "/tenants/a/ingest",
                {
                    "edges": [
                        {"src": "u", "trg": "v", "label": "knows", "t": 0},
                        {"src": "v", "trg": "w", "label": "knows", "t": 1},
                    ]
                },
            )
            await server.shutdown()
            await asyncio.wait_for(stream.task, 5)
            pairs = {
                (e["src"], e["trg"]) for e in map(json.loads, stream.events)
            }
            assert ("u", "w") in pairs  # the closure actually ran

        asyncio.run(go())


class TestScale:
    def test_many_subscribers_identical_streams(self):
        async def go():
            server = GraphStreamServer(port=0)
            await server.start()
            p = server.port
            await register(p, "a", "likes", policy="block")
            streams = [SseStream(p, "a", "likes").start() for _ in range(40)]
            await asyncio.wait_for(
                asyncio.gather(*(s.ready.wait() for s in streams)), timeout=10
            )
            edges = make_stream(9, 200, 15, ("likes", "posts"), max_gap=2)
            await call(
                p, "POST", "/tenants/a/ingest", {"edges": edge_dicts(edges)}
            )
            await server.shutdown()
            await asyncio.wait_for(
                asyncio.gather(*(s.task for s in streams)), 10
            )
            want = reference(LIKES, edges)
            assert want  # the workload actually produced results
            for stream in streams:
                assert stream.events == want

        asyncio.run(go())
