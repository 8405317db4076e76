#!/usr/bin/env python
"""Load-test the serving layer and check result parity, stdlib-only.

Drives a running ``scripts/serve.py`` instance with many tenants, each
registering the paper's notification query plus a high-fanout filter
query, attaching hundreds of concurrent subscribers (an even mix of
WebSocket and SSE), ingesting a randomized edge stream over HTTP, and
then verifying the *parity invariant*: every subscriber of a query
receives byte-for-byte the same numbered JSON event stream that an
in-process :class:`~repro.engine.session.StreamingGraphEngine` with the
same configuration produces for the same edges.

Two shutdown modes close the streams:

* default — the client ``DELETE``\\ s each query; subscribers receive
  their backlog and a ``query unregistered`` end-of-stream notice;
* ``--server-pid PID`` — the client sends SIGTERM mid-lingering and
  asserts the graceful drain: every subscriber still receives its full
  backlog plus a ``server draining`` notice, then a clean EOF.

Exit status is 0 only if every request succeeded, every subscriber's
stream matched the reference, and every stream ended cleanly.

Usage::

    python scripts/serve.py --port 8765 &
    python scripts/load_client.py --port 8765 --tenants 4 --subscribers 200
    python scripts/load_client.py --port 8765 --server-pid $! --edges 200

Durability drill (checkpoint on SIGTERM, restore, resume)::

    python scripts/serve.py --port 8765 --checkpoint-dir /tmp/ck &
    python scripts/load_client.py --port 8765 --server-pid $! \\
        --state-file /tmp/ck/state.json          # drains into a checkpoint
    python scripts/serve.py --port 8765 --restore-from /tmp/ck &
    python scripts/load_client.py --port 8765 --phase resume \\
        --state-file /tmp/ck/state.json          # seqs must continue

Crash drill (periodic checkpoints, SIGKILL — no drain — restore,
reconnect with dedupe)::

    python scripts/serve.py --port 8765 --checkpoint-dir /tmp/ck \\
        --checkpoint-every-slides 4 &
    python scripts/load_client.py --port 8765 --phase crash \\
        --server-pid $! --state-file /tmp/ck/state.json
    python scripts/serve.py --port 8765 --restore-from /tmp/ck \\
        --checkpoint-dir /tmp/ck --checkpoint-every-slides 4 &
    python scripts/load_client.py --port 8765 --phase crash-resume \\
        --state-file /tmp/ck/state.json  # spliced stream: no gaps/dups

The crash phase waits for a periodic checkpoint to land, then SIGKILLs
the server mid-stream; because that checkpoint may trail what the
subscribers already received, the resume phase reconnects with
``?last_seq=R&ahead=wait`` so the re-driven suffix is deduplicated, and
asserts the spliced pre-crash + post-restore stream is byte-identical
to an uninterrupted run with continuous sequence numbers.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import json
import os
import random
import signal
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.tuples import SGE  # noqa: E402
from repro.engine.session import (  # noqa: E402
    EngineConfig,
    StreamingGraphEngine,
)
from repro.ql.query import Query  # noqa: E402
from repro.serve.protocol import dumps, encode_event  # noqa: E402

PAPER_QUERY = (
    "RL(u1,u2) <- likes(u1,m1), follows+(u1,u2) as FP, posts(u2,m1). "
    "Notify(u,m) <- RL+(u,v) as RLP, posts(v,m). "
    "Answer(u,m) <- Notify(u,m)."
)
#: high-fanout companion: one result event per matching edge
LIKES_QUERY = "Answer(u,m) <- likes(u,m)."
LABELS = ("likes", "follows", "posts")
WINDOW, SLIDE = 24, 1

QUERIES = {
    "paper": PAPER_QUERY,
    "likes": LIKES_QUERY,
}


def make_stream(
    seed: int, n_edges: int, n_vertices: int, start_t: int = 0
) -> list[SGE]:
    """The tests' randomized timestamp-ordered stream, reproduced here
    so client and reference agree by construction.  ``start_t`` lets the
    resume phase generate a suffix that continues the run phase's
    timeline."""
    rng = random.Random(seed)
    t = start_t
    edges = []
    for _ in range(n_edges):
        t += rng.randint(0, 2)
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.append(SGE(u, v, rng.choice(LABELS), t))
    return edges


# -- minimal HTTP/WS/SSE client side ---------------------------------------


async def http_call(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    data = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    )
    writer.write(head.encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ")[1])
    return status, json.loads(payload) if payload else None


class Subscriber:
    """One streaming subscription: collects events until end-of-stream."""

    def __init__(
        self, host, port, tenant, query, transport, last_seq=None, ahead=None
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.query = query
        self.transport = transport  # "ws" | "sse"
        #: resume position: WS sends ``?last_seq=``, SSE sends the
        #: standard ``Last-Event-ID`` header (exercising both paths) —
        #: unless ``ahead`` is set, which forces query params on both
        self.last_seq = last_seq
        #: crash-resume dedupe mode: ``"wait"`` skips replayed events
        #: the client already saw (sent as ``&ahead=wait``)
        self.ahead = ahead
        self.events: list[str] = []
        #: ``id:`` lines observed on SSE frames (must mirror the seqs)
        self.sse_ids: list[int] = []
        self.end_reason: str | None = None
        self.clean_eof = False
        self.ready = asyncio.Event()

    async def run(self) -> None:
        if self.transport == "ws":
            await self._run_ws()
        else:
            await self._run_sse()

    @property
    def _path(self) -> str:
        return f"/tenants/{self.tenant}/queries/{self.query}/subscribe"

    async def _run_ws(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        key = base64.b64encode(os.urandom(16)).decode()
        path = self._path
        if self.last_seq is not None:
            path += f"?last_seq={self.last_seq}"
            if self.ahead:
                path += f"&ahead={self.ahead}"
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n")[0] + b" ":
            raise RuntimeError(f"websocket upgrade refused: {head[:120]!r}")
        first = True
        while True:
            frame = await self._ws_frame(reader)
            if frame is None:
                break
            opcode, payload = frame
            if opcode == 0x8:  # close
                self.end_reason = payload[2:].decode() or "closed"
                self.clean_eof = True
                break
            if opcode != 0x1:
                continue
            if first:
                first = False
                self.ready.set()
                continue
            self.events.append(payload.decode())
        writer.close()

    @staticmethod
    async def _ws_frame(reader):
        try:
            head = await reader.readexactly(2)
            n = head[1] & 0x7F
            if n == 126:
                n = int.from_bytes(await reader.readexactly(2), "big")
            elif n == 127:
                n = int.from_bytes(await reader.readexactly(8), "big")
            payload = await reader.readexactly(n) if n else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return head[0] & 0x0F, payload

    async def _run_sse(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        path = self._path
        if self.ahead and self.last_seq is not None:
            path += f"?last_seq={self.last_seq}&ahead={self.ahead}"
        head = f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if self.last_seq is not None and not self.ahead:
            head += f"Last-Event-ID: {self.last_seq}\r\n"
        writer.write((head + "\r\n").encode())
        await writer.drain()
        buf = b""
        while True:
            try:
                chunk = await reader.read(1 << 16)
            except ConnectionError:
                break  # SIGKILLed server: abrupt reset, not clean EOF
            if not chunk:
                break
            buf += chunk
            while b"\n\n" in buf:
                frame, _, buf = buf.partition(b"\n\n")
                event, data, event_id = None, None, None
                for line in frame.decode().splitlines():
                    if line.startswith("event: "):
                        event = line[len("event: ") :]
                    elif line.startswith("data: "):
                        data = line[len("data: ") :]
                    elif line.startswith("id: "):
                        event_id = int(line[len("id: ") :])
                if event == "ready":
                    self.ready.set()
                elif event == "end":
                    self.end_reason = json.loads(data)["reason"]
                    self.clean_eof = True
                    writer.close()
                    return
                elif data is not None:
                    self.events.append(data)
                    if event_id is not None:
                        self.sse_ids.append(event_id)
        writer.close()


# -- the reference run -----------------------------------------------------


def reference_streams(config: EngineConfig, edges: list[SGE]) -> dict:
    """What every subscriber must see: one in-process engine, same
    config, same queries, same edges, events encoded identically."""
    engine = StreamingGraphEngine(config)
    collected: dict[str, list[str]] = {}

    def collector(qid: str):
        seq = [0]
        bucket = collected.setdefault(qid, [])

        def cb(event):
            seq[0] += 1
            bucket.append(dumps(encode_event(seq[0], event)))

        return cb

    for qid, text in QUERIES.items():
        engine.register(
            Query.datalog(text, window=WINDOW, slide=SLIDE),
            name=qid,
            on_result=collector(qid),
        )
    engine.push_many(edges)
    engine.close()
    return collected


# -- the drive -------------------------------------------------------------


async def drive(args: argparse.Namespace) -> int:
    host, port = args.host, args.port
    config = EngineConfig(backend=args.backend, shards=args.shards)
    tenants = [f"tenant{i}" for i in range(args.tenants)]
    failures: list[str] = []

    # register both queries on every tenant (block policy: parity needs
    # every subscriber to see every event)
    for tenant in tenants:
        for qid, text in QUERIES.items():
            status, body = await http_call(
                host,
                port,
                "POST",
                f"/tenants/{tenant}/queries",
                {
                    "query": text,
                    "window": WINDOW,
                    "slide": SLIDE,
                    "name": qid,
                    "policy": "block",
                },
            )
            if status != 201:
                failures.append(f"register {tenant}/{qid}: {status} {body}")
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1

    # attach subscribers (round-robin tenants/queries, alternating WS/SSE)
    subscribers: list[Subscriber] = []
    qids = list(QUERIES)
    for i in range(args.subscribers):
        subscribers.append(
            Subscriber(
                host,
                port,
                tenants[i % len(tenants)],
                qids[(i // len(tenants)) % len(qids)],
                "ws" if i % 2 == 0 else "sse",
            )
        )
    tasks = [asyncio.ensure_future(s.run()) for s in subscribers]
    await asyncio.wait_for(
        asyncio.gather(*(s.ready.wait() for s in subscribers)), timeout=60
    )
    n_ws = sum(1 for s in subscribers if s.transport == "ws")
    print(
        f"{len(subscribers)} subscribers ready "
        f"({n_ws} ws, {len(subscribers) - n_ws} sse) "
        f"across {len(tenants)} tenants"
    )

    # ingest the same stream into every tenant, in batches
    edges = make_stream(args.seed, args.edges, args.vertices)
    batch_size = args.batch
    for start in range(0, len(edges), batch_size):
        batch = [
            {"src": e.src, "trg": e.trg, "label": e.label, "t": e.t}
            for e in edges[start : start + batch_size]
        ]
        results = await asyncio.gather(
            *(
                http_call(
                    host, port, "POST", f"/tenants/{t}/ingest", {"edges": batch}
                )
                for t in tenants
            )
        )
        for tenant, (status, body) in zip(tenants, results):
            if status != 200:
                failures.append(f"ingest {tenant}: {status} {body}")
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print(f"ingested {len(edges)} edges into each of {len(tenants)} tenants")

    status, metrics = await http_call(host, port, "GET", "/metrics")
    if status == 200:
        total = sum(
            t["ingested_total"] for t in metrics["tenants"].values()
        )
        print(f"metrics: {total} edges ingested server-side")

    # end the streams: SIGTERM drain or per-query unregister
    if args.server_pid:
        print(f"sending SIGTERM to pid {args.server_pid} (graceful drain)")
        os.kill(args.server_pid, signal.SIGTERM)
        expected_end = "server draining"
    else:
        for tenant in tenants:
            for qid in QUERIES:
                status, body = await http_call(
                    host, port, "DELETE", f"/tenants/{tenant}/queries/{qid}"
                )
                if status != 200:
                    failures.append(
                        f"unregister {tenant}/{qid}: {status} {body}"
                    )
        expected_end = "query unregistered"
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)

    # parity: every subscriber matches the in-process reference
    reference = reference_streams(config, edges)
    matched = 0
    for sub in subscribers:
        want = reference[sub.query]
        tag = f"{sub.tenant}/{sub.query}[{sub.transport}]"
        if not sub.clean_eof:
            failures.append(f"{tag}: no clean end-of-stream")
        elif sub.end_reason != expected_end:
            failures.append(
                f"{tag}: end reason {sub.end_reason!r} != {expected_end!r}"
            )
        if sub.events != want:
            failures.append(
                f"{tag}: stream mismatch "
                f"({len(sub.events)} events vs {len(want)} expected)"
            )
        else:
            matched += 1
    for sub in subscribers:
        if sub.transport == "sse" and sub.sse_ids:
            seqs = [json.loads(e)["seq"] for e in sub.events]
            if sub.sse_ids != seqs:
                failures.append(
                    f"{sub.tenant}/{sub.query}[sse]: SSE id: lines "
                    "disagree with event seq numbers"
                )
    per_query = {q: len(events) for q, events in reference.items()}
    print(
        f"parity: {matched}/{len(subscribers)} subscriber streams identical "
        f"to the in-process reference {per_query}"
    )
    if failures:
        for failure in failures[:20]:
            print("FAIL:", failure)
        print(f"{len(failures)} failure(s)")
        return 1
    if args.state_file:
        state = {
            "seed": args.seed,
            "edges": args.edges,
            "vertices": args.vertices,
            "tenants": args.tenants,
            "last_t": max(e.t for e in edges) if edges else 0,
            "last_seqs": {q: len(events) for q, events in reference.items()},
        }
        Path(args.state_file).write_text(json.dumps(state))
        print(f"state saved to {args.state_file}")
    print("OK")
    return 0


async def drive_resume(args: argparse.Namespace) -> int:
    """Phase two of the durability drill: the server was checkpointed on
    SIGTERM and relaunched with ``--restore-from``.  Reconnect every
    subscription at its last-seen seq, ingest a stream *suffix*, and
    require (a) sequence numbers that continue exactly where the run
    phase stopped — no gaps, no restarts — and (b) byte parity with an
    uninterrupted in-process engine fed prefix + suffix."""
    host, port = args.host, args.port
    config = EngineConfig(backend=args.backend, shards=args.shards)
    state = json.loads(Path(args.state_file).read_text())
    tenants = [f"tenant{i}" for i in range(state["tenants"])]
    last_seqs = {q: int(n) for q, n in state["last_seqs"].items()}
    prefix = make_stream(state["seed"], state["edges"], state["vertices"])
    suffix = make_stream(
        state["seed"] + 1, args.edges, state["vertices"], start_t=state["last_t"]
    )
    failures: list[str] = []

    # the uninterrupted reference: prefix + suffix in one engine run
    reference = reference_streams(config, prefix + suffix)
    for qid, stop in last_seqs.items():
        if len(reference[qid]) < stop:
            print(
                f"FAIL: reference for {qid!r} has {len(reference[qid])} "
                f"events < recorded last seq {stop} (state file mismatch?)"
            )
            return 1

    # reconnect: per tenant x query one WS (?last_seq=) and one SSE
    # (Last-Event-ID), plus one SSE resuming a few events back to
    # exercise ring replay across the restart
    replay_back = args.replay_back
    subscribers: list[tuple[Subscriber, int]] = []
    for tenant in tenants:
        for qid in QUERIES:
            stop = last_seqs[qid]
            back = max(stop - replay_back, 0)
            subscribers.append(
                (Subscriber(host, port, tenant, qid, "ws", stop), stop)
            )
            subscribers.append(
                (Subscriber(host, port, tenant, qid, "sse", stop), stop)
            )
            subscribers.append(
                (Subscriber(host, port, tenant, qid, "sse", back), back)
            )
    tasks = [asyncio.ensure_future(s.run()) for s, _ in subscribers]
    await asyncio.wait_for(
        asyncio.gather(*(s.ready.wait() for s, _ in subscribers)), timeout=60
    )
    print(
        f"{len(subscribers)} subscriptions resumed across "
        f"{len(tenants)} tenants"
    )

    # ingest the suffix into every tenant
    for start in range(0, len(suffix), args.batch):
        batch = [
            {"src": e.src, "trg": e.trg, "label": e.label, "t": e.t}
            for e in suffix[start : start + args.batch]
        ]
        results = await asyncio.gather(
            *(
                http_call(
                    host, port, "POST", f"/tenants/{t}/ingest", {"edges": batch}
                )
                for t in tenants
            )
        )
        for tenant, (status, body) in zip(tenants, results):
            if status != 200:
                failures.append(f"ingest {tenant}: {status} {body}")
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print(f"ingested {len(suffix)} suffix edges into each tenant")

    for tenant in tenants:
        for qid in QUERIES:
            status, body = await http_call(
                host, port, "DELETE", f"/tenants/{tenant}/queries/{qid}"
            )
            if status != 200:
                failures.append(f"unregister {tenant}/{qid}: {status} {body}")
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)

    matched = 0
    for sub, resumed_at in subscribers:
        tag = (
            f"{sub.tenant}/{sub.query}[{sub.transport} from {resumed_at}]"
        )
        want = reference[sub.query][resumed_at:]
        if not sub.clean_eof:
            failures.append(f"{tag}: no clean end-of-stream")
        seqs = [json.loads(e)["seq"] for e in sub.events]
        expect_seqs = list(range(resumed_at + 1, resumed_at + 1 + len(want)))
        if seqs != expect_seqs:
            failures.append(
                f"{tag}: seq numbers not continuous "
                f"(got {seqs[:3]}..{seqs[-3:] if seqs else []}, "
                f"expected {resumed_at + 1}..{resumed_at + len(want)})"
            )
        elif sub.events != want:
            failures.append(
                f"{tag}: stream mismatch ({len(sub.events)} events vs "
                f"{len(want)} expected)"
            )
        else:
            matched += 1
    print(
        f"resume parity: {matched}/{len(subscribers)} resumed streams "
        "continuous and identical to the uninterrupted reference"
    )
    if failures:
        for failure in failures[:20]:
            print("FAIL:", failure)
        print(f"{len(failures)} failure(s)")
        return 1
    print("OK")
    return 0


async def drive_crash(args: argparse.Namespace) -> int:
    """Phase one of the crash drill: drive a server that takes periodic
    checkpoints, wait until at least one has landed, then SIGKILL the
    server mid-stream — no drain, no final checkpoint.  Everything the
    resume phase needs (stream params, per-query last-seen seqs, the
    crash position) is recorded in the state file, and every event
    received before the kill must be byte-identical to a prefix of the
    in-process reference."""
    host, port = args.host, args.port
    config = EngineConfig(backend=args.backend, shards=args.shards)
    tenants = [f"tenant{i}" for i in range(args.tenants)]
    failures: list[str] = []

    for tenant in tenants:
        for qid, text in QUERIES.items():
            status, body = await http_call(
                host,
                port,
                "POST",
                f"/tenants/{tenant}/queries",
                {
                    "query": text,
                    "window": WINDOW,
                    "slide": SLIDE,
                    "name": qid,
                    "policy": "block",
                },
            )
            if status != 201:
                failures.append(f"register {tenant}/{qid}: {status} {body}")
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1

    # one WS + one SSE subscriber per tenant x query
    subscribers: list[Subscriber] = []
    for tenant in tenants:
        for qid in QUERIES:
            subscribers.append(Subscriber(host, port, tenant, qid, "ws"))
            subscribers.append(Subscriber(host, port, tenant, qid, "sse"))
    tasks = [asyncio.ensure_future(s.run()) for s in subscribers]
    await asyncio.wait_for(
        asyncio.gather(*(s.ready.wait() for s in subscribers)), timeout=60
    )
    print(f"{len(subscribers)} subscribers ready (pre-crash)")

    # ingest only a prefix: the rest is the resume phase's to re-drive
    edges = make_stream(args.seed, args.edges, args.vertices)
    crash_at = (2 * len(edges)) // 3
    for start in range(0, crash_at, args.batch):
        batch = [
            {"src": e.src, "trg": e.trg, "label": e.label, "t": e.t}
            for e in edges[start : min(start + args.batch, crash_at)]
        ]
        results = await asyncio.gather(
            *(
                http_call(
                    host, port, "POST", f"/tenants/{t}/ingest", {"edges": batch}
                )
                for t in tenants
            )
        )
        for tenant, (status, body) in zip(tenants, results):
            if status != 200:
                failures.append(f"ingest {tenant}: {status} {body}")
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print(f"ingested {crash_at}/{len(edges)} edges (crash prefix)")

    # a periodic checkpoint must land before the kill, or there is
    # nothing to restore from
    checkpoints = {}
    for _ in range(100):
        status, metrics = await http_call(host, port, "GET", "/metrics")
        checkpoints = (metrics or {}).get("checkpoints") or {}
        if status == 200 and checkpoints.get("count", 0) >= 1:
            break
        await asyncio.sleep(0.1)
    else:
        print(
            "FAIL: no periodic checkpoint landed — is the server running "
            "with --checkpoint-dir and --checkpoint-every-slides?"
        )
        return 1
    if checkpoints.get("failures", 0):
        print(f"FAIL: {checkpoints['failures']} periodic checkpoint failures")
        return 1
    await asyncio.sleep(0.3)  # let in-flight deliveries settle

    print(
        f"{checkpoints['count']} periodic checkpoint(s) on disk; "
        f"SIGKILLing pid {args.server_pid} (no drain)"
    )
    os.kill(args.server_pid, signal.SIGKILL)
    await asyncio.wait_for(
        asyncio.gather(*tasks, return_exceptions=True), timeout=60
    )

    # pre-crash parity: received events are a reference prefix
    reference = reference_streams(config, edges[:crash_at])
    last_seqs: dict[str, dict[str, int]] = {t: {} for t in tenants}
    matched = 0
    for sub in subscribers:
        want = reference[sub.query]
        tag = f"{sub.tenant}/{sub.query}[{sub.transport}]"
        if sub.events != want[: len(sub.events)]:
            failures.append(
                f"{tag}: pre-crash stream diverges from the reference prefix"
            )
        else:
            matched += 1
        seen = json.loads(sub.events[-1])["seq"] if sub.events else 0
        record = last_seqs[sub.tenant]
        record[sub.query] = max(record.get(sub.query, 0), seen)
    total_seen = sum(sum(q.values()) for q in last_seqs.values())
    if total_seen == 0:
        failures.append("no subscriber received any event before the crash")
    print(
        f"pre-crash parity: {matched}/{len(subscribers)} streams are "
        "reference prefixes"
    )
    if failures:
        for failure in failures[:20]:
            print("FAIL:", failure)
        print(f"{len(failures)} failure(s)")
        return 1
    state = {
        "seed": args.seed,
        "edges": args.edges,
        "vertices": args.vertices,
        "tenants": args.tenants,
        "crash_at": crash_at,
        "last_seqs": last_seqs,
    }
    Path(args.state_file).write_text(json.dumps(state))
    print(f"state saved to {args.state_file}")
    print("OK")
    return 0


async def drive_crash_resume(args: argparse.Namespace) -> int:
    """Phase two of the crash drill: the SIGKILLed server was relaunched
    with ``--restore-from`` a *periodic* checkpoint that may trail what
    the subscribers already received.  Reconnect every subscription with
    ``?last_seq=R&ahead=wait`` (both transports) so the re-driven suffix
    is deduplicated, re-ingest everything past the server's restored
    position, and require the spliced pre-crash + post-restore stream to
    be byte-identical to an uninterrupted run — no gaps, no duplicates,
    continuous sequence numbers across the crash."""
    host, port = args.host, args.port
    config = EngineConfig(backend=args.backend, shards=args.shards)
    state = json.loads(Path(args.state_file).read_text())
    tenants = [f"tenant{i}" for i in range(state["tenants"])]
    crash_at = int(state["crash_at"])
    edges = make_stream(state["seed"], state["edges"], state["vertices"])
    failures: list[str] = []

    # the uninterrupted reference over the full stream
    reference = reference_streams(config, edges)
    for tenant in tenants:
        for qid, stop in state["last_seqs"][tenant].items():
            if len(reference[qid]) < stop:
                print(
                    f"FAIL: reference for {qid!r} has {len(reference[qid])} "
                    f"events < recorded last seq {stop} (state mismatch?)"
                )
                return 1

    # the restored server's ingest position bounds what to re-drive
    status, metrics = await http_call(host, port, "GET", "/metrics")
    if status != 200:
        print(f"FAIL: /metrics on the restored server: {status}")
        return 1
    positions: dict[str, int] = {}
    for tenant in tenants:
        info = metrics["tenants"].get(tenant)
        if info is None:
            failures.append(f"tenant {tenant} missing after restore")
            continue
        ingested = int(info["ingested_total"])
        if not 0 < ingested <= crash_at:
            failures.append(
                f"{tenant}: restored ingest position {ingested} outside "
                f"(0, {crash_at}]"
            )
        positions[tenant] = ingested
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print(
        "restored ingest positions: "
        + ", ".join(f"{t}={positions[t]}" for t in tenants)
    )

    # reconnect ahead of the restored stream head, on both transports
    subscribers: list[tuple[Subscriber, int]] = []
    for tenant in tenants:
        for qid in QUERIES:
            stop = int(state["last_seqs"][tenant][qid])
            for transport in ("ws", "sse"):
                subscribers.append(
                    (
                        Subscriber(
                            host, port, tenant, qid, transport,
                            stop, ahead="wait",
                        ),
                        stop,
                    )
                )
    tasks = [asyncio.ensure_future(s.run()) for s, _ in subscribers]
    await asyncio.wait_for(
        asyncio.gather(*(s.ready.wait() for s, _ in subscribers)), timeout=60
    )
    print(f"{len(subscribers)} subscriptions resumed with ahead=wait")

    # re-drive everything past each tenant's restored position
    for tenant in tenants:
        suffix = edges[positions[tenant] :]
        for start in range(0, len(suffix), args.batch):
            batch = [
                {"src": e.src, "trg": e.trg, "label": e.label, "t": e.t}
                for e in suffix[start : start + args.batch]
            ]
            status, body = await http_call(
                host, port, "POST", f"/tenants/{tenant}/ingest",
                {"edges": batch},
            )
            if status != 200:
                failures.append(f"ingest {tenant}: {status} {body}")
    if failures:
        for failure in failures:
            print("FAIL:", failure)
        return 1
    print("re-drove the post-checkpoint suffix into every tenant")

    for tenant in tenants:
        for qid in QUERIES:
            status, body = await http_call(
                host, port, "DELETE", f"/tenants/{tenant}/queries/{qid}"
            )
            if status != 200:
                failures.append(f"unregister {tenant}/{qid}: {status} {body}")
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)

    matched = 0
    for sub, stop in subscribers:
        tag = f"{sub.tenant}/{sub.query}[{sub.transport} from {stop}]"
        want = reference[sub.query][stop:]
        if not sub.clean_eof:
            failures.append(f"{tag}: no clean end-of-stream")
        seqs = [json.loads(e)["seq"] for e in sub.events]
        if seqs != list(range(stop + 1, stop + 1 + len(want))):
            failures.append(
                f"{tag}: seq numbers not continuous across the crash "
                f"(got {seqs[:3]}..{seqs[-3:] if seqs else []}, "
                f"expected {stop + 1}..{stop + len(want)})"
            )
        elif sub.events != want:
            failures.append(
                f"{tag}: stream mismatch ({len(sub.events)} events vs "
                f"{len(want)} expected)"
            )
        else:
            matched += 1
    print(
        f"crash-resume parity: {matched}/{len(subscribers)} spliced streams "
        "gap-free, duplicate-free and identical to the uninterrupted "
        "reference"
    )
    if failures:
        for failure in failures[:20]:
            print("FAIL:", failure)
        print(f"{len(failures)} failure(s)")
        return 1
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--subscribers", type=int, default=200)
    parser.add_argument("--edges", type=int, default=400)
    parser.add_argument("--vertices", type=int, default=20)
    parser.add_argument("--batch", type=int, default=50)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--server-pid",
        type=int,
        default=None,
        help="SIGTERM this pid after ingest and expect a graceful drain",
    )
    parser.add_argument(
        "--phase",
        default="run",
        choices=("run", "resume", "crash", "crash-resume"),
        help="'run' drives a fresh server; 'resume' reconnects to a "
        "--restore-from relaunch and verifies continuous seq numbers; "
        "'crash' waits for a periodic checkpoint then SIGKILLs the "
        "server (no drain); 'crash-resume' reconnects with ahead=wait "
        "dedupe and verifies the spliced stream",
    )
    parser.add_argument(
        "--state-file",
        default=None,
        help="run/crash phase: record stream params + last seqs here; "
        "resume/crash-resume phase: read them back (required there)",
    )
    parser.add_argument(
        "--replay-back",
        type=int,
        default=5,
        help="resume phase: how many events before the last seen seq "
        "the ring-replay subscriber rewinds",
    )
    engine = parser.add_argument_group(
        "engine configuration (must match the server's)"
    )
    engine.add_argument("--backend", default="sga", choices=("sga", "dd"))
    engine.add_argument("--shards", type=int, default=1)
    args = parser.parse_args(argv)
    if args.phase == "resume":
        if not args.state_file:
            parser.error("--phase resume requires --state-file")
        return asyncio.run(drive_resume(args))
    if args.phase == "crash":
        if not args.state_file:
            parser.error("--phase crash requires --state-file")
        if not args.server_pid:
            parser.error("--phase crash requires --server-pid")
        return asyncio.run(drive_crash(args))
    if args.phase == "crash-resume":
        if not args.state_file:
            parser.error("--phase crash-resume requires --state-file")
        return asyncio.run(drive_crash_resume(args))
    return asyncio.run(drive(args))


if __name__ == "__main__":
    raise SystemExit(main())
