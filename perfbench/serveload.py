"""One pass of ``serve_stream``: edges in over HTTP, events out on a
WebSocket, against a server subprocess on loopback.

The load generator is this one process, holding at most two connections
(one WebSocket subscriber, one in-flight ingest POST: the host has two
cores).  A pass:

1. reference (not counted in set-up): the same batches through an
   in-process engine with the tenant's queries, which yields the bytes
   the subscriber must receive, how many events each batch causes, and
   the engine-side numbers of this workload;
2. set-up: spawn ``scripts/serve.py``, register the queries, attach the
   subscriber and wait for its ``ready``;
3. traced passes only: three open-loop phases at fixed rates.  Batch
   ``i`` is due at ``start + i * batch / rate`` whether or not the
   server keeps up, and every latency is taken from that due time;
4. closed loop over the rest of the input: one caller that waits for
   each ack;
5. checks: every request answered 200, the subscriber's stream equal,
   byte for byte and with continuous sequence numbers, to the reference.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from enginepass import (
    best_of,
    build_engine,
    build_queries,
    calibrate,
    coverage_digest,
    feed,
    rss_mb,
    timed_reads,
)

from repro.serve import http as serve_http
from repro.serve.protocol import dumps, encode_event, parse_ingest
from repro.serve.subscriptions import SubscriberQueue
from repro.serve.tenants import QueryChannel

ROOT = Path(__file__).resolve().parent.parent
HOST = "127.0.0.1"
TENANT = "bench"
SUBSCRIBED = "likes"
BATCH = 50
#: open-loop rates in edges per second, and how long each is held
RATES = {"r1": 2_500, "r2": 5_000, "r3": 10_000}
OPEN_SECONDS = 2.5
#: delivery p99 a rate must stay under to count as sustainable
LIMIT_MS = 100.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- the in-process reference ---------------------------------------------


def reference(spec, queries, batches) -> dict:
    """The tenant's engine without the serving tier around it."""
    expected: list[str] = []
    counts: dict[str, int] = {}

    def collector(name):
        def on_result(event) -> None:
            counts[name] = seq = counts.get(name, 0) + 1
            if name == SUBSCRIBED:
                expected.append(dumps(encode_event(seq, event)))

        return on_result

    engine, handles = build_engine(spec, [])
    handles = [
        engine.register(query, name=name, on_result=collector(name))
        for name, query in queries
    ]
    per_slide: dict[int, float] = {}
    after_batch = []  # subscribed-query events delivered once batch i is in
    push_s = 0.0
    for batch in batches:
        push_s += feed(engine, [("+", e) for e in batch], per_slide)["feed_s"]
        after_batch.append(len(expected))
    reads = timed_reads(handles, engine.watermark)
    del reads["at_watermark"]
    digest = coverage_digest({h.name: h.coverage() for h in handles})
    engine.close()
    return {
        "expected": expected,
        "after_batch": after_batch,
        "push_s": push_s,
        "slides": list(per_slide.values()),
        "reads": reads,
        "digest": digest,
    }


# -- a minimal HTTP and WebSocket client ----------------------------------


async def http_call(port, method, path, body: bytes = b""):
    """One request on a connection of its own (the server closes after
    each response); returns (status, parsed body, seconds to connect)."""
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection(HOST, port)
    connect_s = time.perf_counter() - start
    head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\nContent-Length: {len(body)}\r\n\r\n"
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ")[1])
    return status, (json.loads(payload) if payload else None), connect_s


class Subscriber:
    """The WebSocket subscriber: every event with its arrival time."""

    def __init__(self, port: int):
        self.port = port
        self.messages: list[str] = []
        self.arrived: list[float] = []
        self.ready = asyncio.Event()
        self.progress = asyncio.Event()

    async def run(self) -> None:
        reader, writer = await asyncio.open_connection(HOST, self.port)
        key = base64.b64encode(os.urandom(16)).decode()
        path = f"/tenants/{TENANT}/queries/{SUBSCRIBED}/subscribe"
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n")[0] + b" ":
            raise RuntimeError(f"websocket upgrade refused: {head[:120]!r}")
        try:
            while True:
                head = await reader.readexactly(2)
                n = head[1] & 0x7F
                if n == 126:
                    n = int.from_bytes(await reader.readexactly(2), "big")
                elif n == 127:
                    n = int.from_bytes(await reader.readexactly(8), "big")
                payload = await reader.readexactly(n) if n else b""
                if head[0] & 0x0F == serve_http.WS_CLOSE:
                    break
                if not self.ready.is_set():
                    self.ready.set()  # the first frame is the ready notice
                    continue
                self.messages.append(payload.decode())
                self.arrived.append(time.perf_counter())
                self.progress.set()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def wait_for(self, count: int, timeout: float = 20.0) -> None:
        deadline = time.perf_counter() + timeout
        while len(self.messages) < count and time.perf_counter() < deadline:
            self.progress.clear()
            try:
                await asyncio.wait_for(self.progress.wait(), 0.5)
            except asyncio.TimeoutError:
                pass


# -- the phases ------------------------------------------------------------


class Phase:
    """What one phase measured: per batch the due time, the ack latency
    from it, and what the ack said."""

    def __init__(self, first_batch: int):
        self.first_batch = first_batch
        self.due: list[float] = []
        self.ack_ms: list[float] = []
        self.late_ms: list[float] = []
        self.elapsed_ms: list[float] = []
        self.connect_ms: list[float] = []
        self.edges = 0
        self.refused = 0
        self.wall_s = 0.0


async def send_batches(port, bodies, first, count, rate) -> Phase:
    """POST ``count`` batches, one in flight at a time.  With a ``rate``
    (edges/s) batch i is due on the open-loop schedule and is sent no
    earlier; without one it is due when its turn comes (closed loop)."""
    phase = Phase(first)
    path = f"/tenants/{TENANT}/ingest"
    started = time.perf_counter()
    for i in range(count):
        if rate is not None:
            due = started + i * BATCH / rate
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
        else:
            due = time.perf_counter()
        sent = time.perf_counter()
        status, ack, connect_s = await http_call(
            port, "POST", path, bodies[first + i]
        )
        done = time.perf_counter()
        phase.due.append(due)
        phase.late_ms.append((sent - due) * 1e3)
        phase.ack_ms.append((done - due) * 1e3)
        phase.connect_ms.append(connect_s * 1e3)
        if status == 200:
            phase.edges += ack["ingested"]
            phase.elapsed_ms.append(ack["elapsed"] * 1e3)
        else:
            phase.refused += 1
    phase.wall_s = time.perf_counter() - started
    return phase


def delivery_ms(phase: Phase, ref: dict, sub: Subscriber) -> list[float]:
    """Per event, from the due time of the batch that caused it to its
    arrival on the WebSocket."""
    after = ref["after_batch"]
    out = []
    for i, due in enumerate(phase.due):
        batch = phase.first_batch + i
        lo = after[batch - 1] if batch else 0
        for seq in range(lo, min(after[batch], len(sub.arrived))):
            out.append((sub.arrived[seq] - due) * 1e3)
    return out


def backlog_grew(latencies: list[float]) -> bool:
    third = len(latencies) // 3
    if not third:
        return False
    first = sum(latencies[:third]) / third
    last = sum(latencies[-third:]) / third
    return last > 2 * first


async def drive(port, spec, queries_text, bodies, ref, open_s) -> dict:
    for name, text in queries_text:
        body = {
            "query": text, "window": spec.window, "slide": spec.slide,
            "name": name, "policy": "block",
        }  # fmt: skip
        status, answer, _ = await http_call(
            port, "POST", f"/tenants/{TENANT}/queries", json.dumps(body).encode()
        )
        if status != 201:
            raise RuntimeError(f"register {name}: {status} {answer}")
    sub = Subscriber(port)
    sub_task = asyncio.ensure_future(sub.run())
    await asyncio.wait_for(sub.ready.wait(), 10)
    ready = time.time()

    phases: dict[str, Phase] = {}
    at = 0
    if open_s:
        for name, rate in RATES.items():
            count = max(1, int(open_s * rate / BATCH))
            phases[name] = await send_batches(port, bodies, at, count, rate)
            at += count
            await sub.wait_for(ref["after_batch"][at - 1])
    closed = await send_batches(port, bodies, at, len(bodies) - at, None)
    phases["closed"] = closed
    await sub.wait_for(len(ref["expected"]))
    status, metrics, _ = await http_call(port, "GET", "/metrics")
    sub_task.cancel()
    try:
        await sub_task
    except asyncio.CancelledError:
        pass
    return {"ready": ready, "phases": phases, "sub": sub, "metrics": metrics}


# -- the pass --------------------------------------------------------------


def spawn_server() -> tuple[subprocess.Popen, int]:
    server = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "serve.py"), "--port", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )  # fmt: skip
    line = server.stdout.readline()
    if "serving on" not in line:
        server.kill()
        server.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    return server, int(line.rsplit(":", 1)[1])


def stop_server(server: subprocess.Popen) -> None:
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=15)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def serve_pass(spec, args) -> dict:
    scale = args.scale
    open_s = OPEN_SECONDS * min(1.0, scale) if args.trace else 0.0
    if open_s:
        # the open-loop phases take their own share of the input first
        extra = sum(max(BATCH, int(open_s * rate)) for rate in RATES.values())
        scale += extra / spec.n_edges
    edges = spec.edges(args.seed, scale)
    batches = [edges[i : i + BATCH] for i in range(0, len(edges), BATCH)]
    bodies = [
        json.dumps(
            {"edges": [{"src": e.src, "trg": e.trg, "label": e.label, "t": e.t}
                       for e in batch]}
        ).encode()
        for batch in batches
    ]  # fmt: skip
    queries, stage_ms = build_queries(spec)
    generated = time.time()

    calib = calibrate()
    ref = reference(spec, queries, batches)
    calib = max(calib, calibrate())
    reference_s = time.time() - generated

    server, port = spawn_server()
    try:
        run = asyncio.run(
            drive(port, spec, spec.query_texts(), bodies, ref, open_s)
        )
        server_mb = rss_mb(server.pid, peak=True)
    finally:
        stop_server(server)

    sub, phases = run["sub"], run["phases"]
    closed = phases["closed"]
    failures = []
    refused = sum(p.refused for p in phases.values())
    if refused:
        failures.append(f"{refused} ingest requests were not answered 200")
    if sub.messages != ref["expected"]:
        wrong = sum(a != b for a, b in zip(sub.messages, ref["expected"]))
        failures.append(
            f"subscriber saw {len(sub.messages)} events, reference "
            f"{len(ref['expected'])}, {wrong} of the shared prefix differ"
        )
    out = {
        "setup_s": run["ready"] - args.t0 - reference_s,
        "ops": len(batches),
        "failed_ops": refused,
        "edges_per_s": closed.edges / closed.wall_s,
        "slides": ref["slides"],
        **ref["reads"],
        "peak_rss_mb": server_mb,
        "calib_mops": calib,
        "digest": ref["digest"],
        "checks": 1,
        "failures": failures,
    }
    if args.trace:
        out["layers"] = serve_layers(
            stage_ms, ref, run, batches, bodies, len(edges), calib
        )
    return out


# -- per-layer numbers of a traced pass -----------------------------------


def per_item_us(repeats: int, items: int, call) -> float:
    return best_of(repeats, call) / items * 1e6


async def queue_us_per_event(messages) -> float:
    """``SubscriberQueue.offer`` then ``drain``, per event."""
    queue = SubscriberQueue(asyncio.get_running_loop(), maxsize=len(messages))
    start = time.perf_counter()
    for item in enumerate(messages):
        queue.offer(item)
    await queue.drain()
    return (time.perf_counter() - start) / len(messages) * 1e6


async def fanout_us_per_event(events) -> float:
    """``QueryChannel.deliver`` into 64 attached queues, no sockets."""
    loop = asyncio.get_running_loop()
    channel = QueryChannel("fanout")
    for _ in range(64):
        channel.attach(SubscriberQueue(loop, maxsize=len(events), policy="drop"))
    start = time.perf_counter()
    for event in events:
        channel.deliver(event)
    return (time.perf_counter() - start) / len(events) * 1e6


def serve_layers(stage_ms, ref, run, batches, bodies, n_edges, calib) -> dict:
    from repro.core.intervals import Interval
    from repro.core.tuples import SGT
    from repro.dataflow.graph import Event

    phases, sub = run["phases"], run["sub"]
    closed = phases["closed"]
    layers = dict(stage_ms)
    sustainable = 0.0
    for name, rate in RATES.items():
        phase = phases[name]
        delivered = delivery_ms(phase, ref, sub)
        layers[f"serve.{name}.ack_p50_ms"] = percentile(phase.ack_ms, 0.5)
        layers[f"serve.{name}.ack_p95_ms"] = percentile(phase.ack_ms, 0.95)
        layers[f"serve.{name}.delivery_p50_ms"] = percentile(delivered, 0.5)
        layers[f"serve.{name}.delivery_p99_ms"] = percentile(delivered, 0.99)
        if (
            percentile(delivered, 0.99) <= LIMIT_MS
            and not phase.refused
            and not backlog_grew(delivered)
        ):
            sustainable = float(rate)
    late = [ms for name in RATES for ms in phases[name].late_ms]
    overhead = [a - e for a, e in zip(closed.ack_ms, closed.elapsed_ms)]
    tenant = run["metrics"]["tenants"][TENANT]
    depths = [
        depth
        for query in tenant["queries"].values()
        for depth in query["queue_depths"]
    ]

    sample = bodies[len(bodies) // 2]
    parsed = json.loads(sample)
    events = [
        Event(SGT(e.src, e.trg, "Answer", Interval(e.t, e.t + 24)))
        for batch in batches[:40]
        for e in batch
    ]
    messages = [dumps(encode_event(i + 1, ev)) for i, ev in enumerate(events)]
    encoded = [m.encode() for m in messages]
    layers.update(
        {
            "serve.sustainable_edges_per_s": sustainable,
            "serve.generator_lateness_ms_p99": percentile(late, 0.99),
            "serve.engine_elapsed_ms_p50": percentile(closed.elapsed_ms, 0.5),
            "serve.ack_overhead_ms_p50": percentile(overhead, 0.5),
            "serve.connect_ms_p50": percentile(closed.connect_ms, 0.5),
            "serve.metrics.queue_depth_max": max(depths, default=0),
            "serve.metrics.watermark_lag_ms": tenant["watermark_lag_seconds"] * 1e3,
            "serve.inprocess_ratio": (closed.edges / closed.wall_s)
            / (n_edges / ref["push_s"]),
            "serve.protocol.parse_us_per_edge": per_item_us(
                5, BATCH, lambda: parse_ingest(parsed)
            ),
            "serve.protocol.encode_us_per_event": per_item_us(
                3,
                len(events),
                lambda: [dumps(encode_event(1, ev)) for ev in events],
            ),
            "serve.http.ws_frame_us_per_event": per_item_us(
                3, len(encoded), lambda: [serve_http.ws_frame(m) for m in encoded]
            ),
            "serve.http.sse_event_us_per_event": per_item_us(
                3,
                len(messages),
                lambda: [serve_http.sse_event(m, event_id=1) for m in messages],
            ),
            "serve.subscriptions.offer_drain_us_per_event": asyncio.run(
                queue_us_per_event(messages)
            ),
            "serve.tenants.fanout_us_per_event_x64": asyncio.run(
                fanout_us_per_event(events)
            ),
            "engine.push_s": ref["push_s"],
            "engine.read.results_s": sum(ref["reads"]["results_parts"]),
            "engine.read.valid_at_ms": sum(ref["reads"]["valid_at_parts"]) * 1e3,
            "host.calib_mops": calib,
        }
    )
    return layers
