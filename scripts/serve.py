#!/usr/bin/env python
"""Launch the multi-tenant streaming-query service.

Runs :class:`repro.serve.app.GraphStreamServer` on the stdlib asyncio
loop — no dependencies beyond the engine itself.  SIGTERM and SIGINT
trigger a graceful drain: the listener closes, queued ingest finishes,
every engine session is closed, and subscribers receive their full
backlog plus an end-of-stream notice before the process exits 0.

Usage::

    python scripts/serve.py                      # 127.0.0.1:8765
    python scripts/serve.py --port 0             # pick a free port
    python scripts/serve.py --shards 2
    python scripts/serve.py --ingest-rate 50000  # quota: edges/second

Durability: ``--checkpoint-dir DIR`` snapshots every tenant into one
atomic checkpoint during the SIGTERM drain; relaunching with
``--restore-from DIR`` rebuilds every tenant — queries, operator state,
watermarks and per-query sequence numbers — so subscribers reconnect
with their last-seen seq and resume without gaps::

    python scripts/serve.py --checkpoint-dir /var/lib/sgs   # then SIGTERM
    python scripts/serve.py --restore-from /var/lib/sgs --checkpoint-dir /var/lib/sgs

Fault tolerance: add ``--checkpoint-every-slides N`` and/or
``--checkpoint-every-seconds S`` to checkpoint *periodically* during
normal operation (not just at drain), so even a SIGKILLed server
restarts from a recent checkpoint; clients reconnect with
``?last_seq=N&ahead=wait`` to dedupe the replayed suffix.  The same
policy arms supervised auto-recovery on process-transport shards
(``--shards N`` with the process transport)::

    python scripts/serve.py --checkpoint-dir /var/lib/sgs \\
        --checkpoint-every-slides 4
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.checkpoint import DirectoryCheckpointStore  # noqa: E402
from repro.engine.session import EngineConfig  # noqa: E402
from repro.fault import CheckpointPolicy  # noqa: E402
from repro.serve.app import GraphStreamServer  # noqa: E402
from repro.serve.subscriptions import BACKPRESSURE_POLICIES  # noqa: E402
from repro.serve.tenants import ServerLimits, TenantManager  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port"
    )
    limits = parser.add_argument_group("admission limits (per tenant)")
    limits.add_argument("--max-tenants", type=int, default=64)
    limits.add_argument("--max-queries", type=int, default=64)
    limits.add_argument("--max-subscribers", type=int, default=1024)
    limits.add_argument(
        "--ingest-rate",
        type=float,
        default=None,
        help="ingest quota in edges/second (default: unmetered)",
    )
    limits.add_argument("--ingest-burst", type=int, default=10_000)
    limits.add_argument("--queue-maxsize", type=int, default=1024)
    limits.add_argument(
        "--policy",
        default="block",
        choices=BACKPRESSURE_POLICIES,
        help="default subscriber backpressure policy",
    )
    limits.add_argument(
        "--replay-buffer",
        type=int,
        default=1024,
        help="per-query resume ring size in events (0 disables resume)",
    )
    engine = parser.add_argument_group("per-tenant engine configuration")
    engine.add_argument("--backend", default="sga", choices=("sga", "dd"))
    engine.add_argument("--shards", type=int, default=1)
    durability = parser.add_argument_group("durability")
    durability.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint every tenant here during the SIGTERM drain",
    )
    durability.add_argument(
        "--checkpoint-retain",
        type=int,
        default=3,
        help="checkpoints kept before the oldest is garbage-collected",
    )
    durability.add_argument(
        "--restore-from",
        default=None,
        metavar="DIR",
        help="restore all tenants from the latest checkpoint in DIR "
        "before serving (engine flags may change only shards)",
    )
    durability.add_argument(
        "--checkpoint-every-slides",
        type=int,
        default=None,
        metavar="N",
        help="take a periodic checkpoint every N watermark slides "
        "(requires --checkpoint-dir)",
    )
    durability.add_argument(
        "--checkpoint-every-seconds",
        type=float,
        default=None,
        metavar="S",
        help="take a periodic checkpoint every S seconds of wall clock "
        "(requires --checkpoint-dir)",
    )
    return parser


async def run(args: argparse.Namespace) -> int:
    limits = ServerLimits(
        max_tenants=args.max_tenants,
        max_queries_per_tenant=args.max_queries,
        max_subscribers_per_tenant=args.max_subscribers,
        ingest_rate=args.ingest_rate,
        ingest_burst=args.ingest_burst,
        queue_maxsize=args.queue_maxsize,
        default_policy=args.policy,
        replay_buffer=args.replay_buffer,
    )
    policy = None
    if (
        args.checkpoint_every_slides is not None
        or args.checkpoint_every_seconds is not None
    ):
        if not args.checkpoint_dir:
            print(
                "error: --checkpoint-every-slides/--checkpoint-every-seconds "
                "require --checkpoint-dir",
                file=sys.stderr,
            )
            return 2
        policy = CheckpointPolicy(
            every_slides=args.checkpoint_every_slides,
            every_seconds=args.checkpoint_every_seconds,
        )
    config = EngineConfig(
        backend=args.backend,
        shards=args.shards,
        checkpoint_policy=policy,
    )
    checkpoint_store = None
    if args.checkpoint_dir:
        checkpoint_store = DirectoryCheckpointStore(
            args.checkpoint_dir, retain=args.checkpoint_retain
        )
    manager = None
    if args.restore_from:
        restore_store = DirectoryCheckpointStore(args.restore_from)
        manager = TenantManager.restore(
            restore_store,
            limits=limits,
            engine_config=config,
            checkpoint_store=checkpoint_store,
            checkpoint_policy=policy,
        )
        print(
            f"restored {len(manager.tenants)} tenant(s) from "
            f"{args.restore_from}",
            flush=True,
        )
    elif checkpoint_store is not None and policy is not None:
        manager = TenantManager(
            limits,
            config,
            checkpoint_store=checkpoint_store,
            checkpoint_policy=policy,
        )
    server = GraphStreamServer(
        host=args.host,
        port=args.port,
        limits=limits,
        engine_config=config,
        manager=manager,
    )
    await server.start()
    print(f"serving on http://{args.host}:{server.port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("draining...", flush=True)
    checkpoint_id = await server.shutdown(checkpoint_store)
    if checkpoint_id is not None:
        print(
            f"checkpointed to {args.checkpoint_dir}/{checkpoint_id}",
            flush=True,
        )
    print("drained; bye", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(run(args))


if __name__ == "__main__":
    raise SystemExit(main())
