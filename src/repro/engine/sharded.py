"""Partition-parallel SGA execution: N shard workers behind one session.

``EngineConfig(shards=N)`` turns a :class:`StreamingGraphEngine` session
into a shared-nothing parallel deployment: the engine hash-partitions the
*stateful* work of the compiled plans across N shards, each running the
same dataflow topology over the full (interned, columnar) input stream.
Callers are oblivious — ``register`` returns the same handle surface,
``results()`` / ``coverage()`` / ``valid_at`` merge the per-shard sinks,
and ``shards=1`` is bit-identical to the unsharded engine (the session
simply does not construct this runtime).

How the work divides (see :mod:`repro.core.partition` and
:mod:`repro.physical.exchange` for the routing/shuffle pieces):

* every shard windows every input edge (WSCAN is a cheap columnar pass;
  replicating it keeps the per-shard input stream in serial order, which
  the order-sensitive PATH operators require);
* PATH operators maintain the full windowed adjacency but only the
  spanning trees whose *root vertex* the shard owns — the traversal work,
  which dominates, divides by shards;
* PATTERN joins store and probe each binding only on its *join key*'s
  owner shard; bindings produced on the wrong shard are exchanged;
* derived streams are re-partitioned between operators (broadcast into
  PATH adjacencies, result-key routing into coalescers, partition
  filters in front of sinks) exactly where a distributed shuffle would.

Two transports ship with the runtime:

``shard_transport="inline"`` (default)
    All shards live in this process and every exchange ``send`` is a
    synchronous call into the destination shard.  Streaming drives the
    shards edge-at-a-time in lockstep, so the *global* execution order
    is exactly the serial engine's — results, coverage, per-epoch
    ``valid_at`` and even raw event multisets are identical to
    ``shards=1``.  This is the deterministic scheduler the golden parity
    tests pin; it is an instrument, not a speedup (one process, one
    core).

``shard_transport="process"``
    Shards are ``multiprocessing`` workers (forked; spawn fallback).
    The parent interns the stream once per slide, ships each shard the
    slide's columnar runs (dense-int columns serialize cheaply — this is
    what PR 4's interned columnar deltas bought), and drains the
    cross-shard exchange in per-slide rounds.  Real multi-core speedup;
    exchange deliveries land at slide granularity, so *within-slide*
    emission order may differ from serial while per-slide result sets
    and net coverage converge.  Queries must be registered before the
    stream starts (live register/unregister needs the inline transport),
    and push-delivery callbacks are unsupported.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Callable, Iterable

from repro.algebra.operators import Plan
from repro.checkpoint.topology import load_operator_states, operator_keys
from repro.core.batch import BatchScheduler, RunStats
from repro.core.coalesce import coalesce_stream
from repro.core.intervals import Interval
from repro.core.partition import ShardContext
from repro.core.tuples import SGE, SGT
from repro.dataflow.graph import (
    DELETE,
    INSERT,
    DataflowGraph,
    Event,
    SinkOp,
    SourceOp,
    events_coverage,
)
from repro.errors import (
    ExecutionError,
    PlanError,
    RecoveryError,
    StreamOrderError,
    WorkerCrashError,
)
from repro.fault.plan import FaultPlan, InjectedFault  # noqa: F401 (workers)
from repro.physical.exchange import (
    ShardBroadcastOp,
    ShardPartitionFilterOp,
    ShardRouteOp,
)
from repro.physical.planner import (
    ShardSpec,
    _stream_partitioned,
    compile_into,
    evict_dead,
    plan_slide,
)
from repro.physical.rpq_negative import NegativeTupleRpqOp

__all__ = ["ShardedSgaRuntime", "MergedTapSink"]

#: Worker → parent exchange message: (dest_shard, endpoint_uid, payload).
OutboxMessage = tuple[int, int, tuple]


class _WorkerFailure(Exception):
    """Internal signal: a worker crashed or its pipe broke.

    Supervised runtimes route this into :meth:`ShardedSgaRuntime._recover`
    instead of poisoning the pool; it never escapes the runtime — callers
    see either a successful recovery, the typed
    :class:`~repro.errors.WorkerCrashError` (unsupervised), or
    :class:`~repro.errors.RecoveryError` (budget exhausted).
    """

    def __init__(self, error: WorkerCrashError):
        super().__init__(str(error))
        self.error = error


def _crash_error(payload) -> WorkerCrashError:
    """Build the typed crash error from a worker's error reply."""
    if isinstance(payload, dict):
        shard = payload.get("shard")
        command = payload.get("command")
        tb = payload.get("traceback")
        message = (
            f"shard {shard} worker crashed handling {command!r}: "
            f"{payload.get('error', 'unknown error')}"
        )
        if tb:
            message += f"\n--- worker traceback (shard {shard}) ---\n" + tb.rstrip()
        return WorkerCrashError(
            message, shard=shard, command=command, traceback_text=tb
        )
    return WorkerCrashError(f"shard worker failed: {payload}")


class _Shard:
    """One shard's compiled state (lives in-process or inside a worker)."""

    def __init__(self, shard_id: int, num_shards: int):
        self.ctx = ShardContext(shard_id, num_shards)
        self.graph = DataflowGraph()
        #: per compile-options shared-subexpression cache (mirrors the
        #: unsharded engine's ``_caches``)
        self.caches: dict[tuple, dict] = {}
        #: query name → private sink
        self.sinks: dict[str, SinkOp] = {}
        #: query name → the sink's direct producer (donor matching)
        self.roots: dict[str, object] = {}
        self.next_uid = 0

    def compile_query(self, name: str, plan: Plan, options: tuple) -> SinkOp:
        spec = ShardSpec(self.ctx, self.next_uid)
        cache = self.caches.setdefault(options, {})
        sink = compile_into(plan, self.graph, cache, *options, shard=spec)
        self.next_uid = spec.next_uid
        self.sinks[name] = sink
        self.roots[name] = self.graph.producer_of(sink)
        return sink

    def drop_query(self, name: str) -> None:
        sink = self.sinks.pop(name)
        self.roots.pop(name, None)
        removed = self.graph.prune([sink])
        for cache in self.caches.values():
            evict_dead(cache, removed)
        self.ctx.unregister_endpoints({id(op) for op in removed})


def _push_edge(shard: _Shard, label: str, src: int, dst: int, t: int) -> None:
    source = shard.graph.sources.get(label)
    if source is not None:
        source.push_scalar(src, dst, t)


def _snapshot_shard_graph(sinks: dict, graph: DataflowGraph) -> dict:
    """One shard's ``{operator_key: state_blob}`` map (stateful ops only).

    ``sinks`` iterates in query registration order (both the inline
    shards and the forked workers compile queries in that order), so the
    structural keys match what a restoring engine recomputes.
    """
    keys = operator_keys(list(sinks.items()), graph)
    out = {}
    for key, op in keys.items():
        blob = op.snapshot_state()
        if blob is not None:
            out[key] = blob
    return out


class ShardedSgaRuntime:
    """The engine-internal runtime behind ``EngineConfig(shards=N)``.

    Owns the shard set (or worker pool), the shared slide/watermark
    clock, and the exchange router.  The session façade
    (:class:`~repro.engine.session.StreamingGraphEngine`) delegates every
    streaming and read call here when ``shards > 1``.
    """

    def __init__(self, config, interner):
        self.config = config
        self.num_shards = config.shards
        self.interner = interner
        self.transport = config.shard_transport
        self._queries: dict[str, tuple[Plan, tuple]] = {}
        self._boundary: int | None = None
        self._slide: int | None = None
        self.late_count = 0
        #: wall-clock time of the most recent window movement (see
        #: :attr:`repro.dataflow.executor.Executor.last_advance_at`)
        self.last_advance_at: float | None = None
        #: guards the close/fail transitions against reads racing them
        #: (the serving layer drains tenants concurrently): `shutdown`
        #: and `_fail` swap the worker pool out under this lock, and
        #: every read snapshots the pool through it, so a racing read
        #: gets either live workers or the poisoned ExecutionError —
        #: never a half-torn-down pool.
        self._state_lock = threading.Lock()
        #: serializes whole request/response rounds on the worker pipes
        #: (process transport): a read from one thread interleaving with
        #: a streaming round (or another read) from a second thread
        #: would cross-deliver the pipe responses.
        self._io_lock = threading.RLock()
        # inline transport state
        self._shards: list[_Shard] | None = None
        self._callbacks: dict[str, Callable] = {}
        #: cached positions of advance-time emitters (negative-tuple
        #: PATH ops) in the shard topology; invalidated on
        #: register/unregister (the only topology changes)
        self._emitters: list[int] | None = None
        # process transport state
        self._workers: "list | None" = None
        self._failed: str | None = None
        self._closed = False
        #: deterministic fault injection (tests): pickled into each
        #: worker at spawn, so worker-site faults fire inside the child
        self.fault_plan: FaultPlan | None = None
        #: supervision is armed by a checkpoint policy on the process
        #: transport: crashed workers are respawned, restored from the
        #: latest in-memory snapshot, and the replay log re-driven
        policy = getattr(config, "checkpoint_policy", None)
        self._policy = policy
        self._supervised = policy is not None and self.transport == "process"
        self._generation = 0
        #: successful automatic recoveries (observability surface)
        self.recoveries = 0
        #: shutdown join patience before terminate/kill escalation
        self._join_timeout = 5.0
        #: latest recovery snapshot: (boundary, late_count, shard states)
        self._snapshot: "tuple | None" = None
        self._snapshot_boundary: int | None = None
        self._snapshot_time = time.monotonic()
        #: engine-level commands since the snapshot, replayed on recovery
        self._replay_log: list[tuple] = []
        if self.transport == "inline":
            self._shards = [
                _Shard(i, self.num_shards)
                for i in range(self.num_shards)
            ]
            shards = self._shards

            def send(dest: int, uid: int, payload: tuple) -> None:
                shards[dest].ctx.endpoints[uid].receive_exchange(payload)

            for shard in shards:
                shard.ctx.set_transport(send)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._boundary is not None

    @property
    def slide(self) -> int:
        if self._slide is None:
            raise ExecutionError("no queries registered")
        return self._slide

    def operator_count(self) -> int:
        self._require_inline("operator_count")
        return sum(
            1
            for op in self._shards[0].graph.operators
            if not isinstance(op, SinkOp)
        )

    def state_size(self) -> int:
        if self.transport == "inline":
            return sum(s.graph.state_size() for s in self._shards)
        if self._workers_snapshot() is None:
            return 0
        return sum(
            self._request_shard(shard, ("state",))
            for shard in range(self.num_shards)
        )

    def state_breakdown(self) -> dict:
        """Per-operator ``{"rows", "bytes"}`` aggregated across shards."""
        if self.transport == "inline":
            parts = [s.graph.state_breakdown() for s in self._shards]
        else:
            if self._workers_snapshot() is None:
                return {}
            parts = [
                self._request_shard(shard, ("breakdown",))
                for shard in range(self.num_shards)
            ]
        merged: dict[str, dict] = {}
        for part in parts:
            for name, item in part.items():
                entry = merged.get(name)
                if entry is None:
                    merged[name] = dict(item)
                else:
                    entry["rows"] += item["rows"]
                    entry["bytes"] += item["bytes"]
        return merged

    def _require_inline(self, what: str) -> None:
        if self.transport != "inline":
            raise ExecutionError(
                f"{what} requires shard_transport='inline' "
                "(process workers hold their state out of process)"
            )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot_shards(self) -> list[dict]:
        """Per-shard ``{operator_key: state_blob}`` maps, one per shard.

        Keys come from :func:`repro.checkpoint.topology.operator_keys`
        — the same structural walk a fresh engine reproduces, so the
        blobs re-attach after restore regardless of any past
        register/unregister history.  Under the process transport the
        workers compute their own maps (operator graphs never cross the
        pipe; state blobs are plain picklable structures).
        """
        if not self._queries:
            return [{} for _ in range(self.num_shards)]
        if self.transport == "inline":
            return [_snapshot_shard_graph(s.sinks, s.graph) for s in self._shards]
        self._ensure_workers()
        return [
            self._request_shard(shard, ("snapshot",))
            for shard in range(self.num_shards)
        ]

    def restore_shards(
        self,
        states: list[dict],
        boundary: int | None,
        late_count: int,
    ) -> None:
        """Load per-shard operator state into this (freshly compiled,
        never-streamed) runtime, then pin the watermark clock at the
        snapshot boundary.

        Re-advancing at ``boundary`` after restore is a no-op everywhere
        (wheels are drained through it, adjacencies purged, coalescer
        keys re-scheduled strictly past it), so pushing the watermark
        once re-establishes exactly the pre-snapshot clock state.
        """
        from repro.errors import CheckpointError

        if len(states) != self.num_shards:
            raise CheckpointError(
                f"snapshot holds {len(states)} shard state maps, "
                f"engine is configured with shards={self.num_shards}"
            )
        if self.started:
            raise CheckpointError(
                "restore_shards requires a fresh runtime (stream already started)"
            )
        self.late_count = late_count
        if self.transport == "inline":
            for shard, blobs in zip(self._shards, states):
                keys = operator_keys(
                    [(name, shard.sinks[name]) for name in self._queries],
                    shard.graph,
                )
                load_operator_states(keys, blobs)
            if boundary is not None:
                self._boundary = boundary
                for shard in self._shards:
                    shard.graph.push_watermark(boundary)
                    shard.graph.sync_watermarks()
            return
        self._ensure_workers()
        self._boundary = boundary
        for shard, blobs in enumerate(states):
            reply = self._request_shard(shard, ("restore", blobs, boundary))
            if reply is not None:
                raise CheckpointError(reply)
        if self._supervised:
            # The restored state is the recovery baseline: snapshot it
            # in memory so a crash before the first cadence snapshot
            # does not have to replay from the stream start.
            with self._io_lock:
                self._take_snapshot()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        plan: Plan,
        options: tuple,
        on_result: Callable | None,
    ) -> None:
        """Compile one query onto every shard (or queue it for the
        workers).  ``plan`` is already interned; ``options`` is the
        compile-options tuple the session derived."""
        if self.transport == "process":
            if on_result is not None:
                raise ExecutionError(
                    "on_result callbacks require shard_transport='inline' "
                    "(process workers deliver results on read, not push)"
                )
            if self.started:
                raise ExecutionError(
                    "registering queries mid-stream requires "
                    "shard_transport='inline'"
                )
            self._queries[name] = (plan, options)
            self._update_slide(plan)
            return
        live = self.started
        for shard in self._shards:
            shard.compile_query(name, plan, options)
        self._queries[name] = (plan, options)
        self._emitters = None  # topology changed
        self._update_slide(plan)
        if on_result is not None:
            self._callbacks[name] = on_result
            for shard in self._shards:
                shard.sinks[name].set_callback(on_result)
        if live:
            self._splice_live(name)

    def _update_slide(self, plan: Plan) -> None:
        slide = plan_slide(plan)
        # The gcd, not the min — see Executor/_watermark_slide: the
        # boundary grid must hit every plan's slide multiples, and a
        # mid-stream gcd switch keeps the current boundary on the grid.
        self._slide = slide if self._slide is None else math.gcd(self._slide, slide)

    def _splice_live(self, name: str) -> None:
        """Mid-stream registration: align watermarks and backfill from
        the richest handle sharing the same compiled root (the same
        semantics as the unsharded session, applied per shard)."""
        assert self._boundary is not None
        for shard in self._shards:
            shard.graph.push_watermark(self._boundary)
            shard.graph.sync_watermarks()
        shard0 = self._shards[0]
        root = shard0.roots.get(name)
        donor: str | None = None
        donor_events = -1
        for other, other_root in shard0.roots.items():
            if other != name and other_root is root and root is not None:
                size = sum(
                    len(s.sinks[other].events) for s in self._shards
                )
                if size > donor_events:
                    donor = other
                    donor_events = size
        if donor is not None:
            for shard in self._shards:
                sink = shard.sinks[name]
                for event in list(shard.sinks[donor].events):
                    sink.on_event(0, event)

    def set_callback(self, name: str, callback: Callable | None) -> None:
        """Install (or clear) a query's push-delivery callback on every
        shard sink (inline transport only, like register-time callbacks)."""
        self._require_inline("push-delivery callbacks")
        if callback is None:
            self._callbacks.pop(name, None)
        else:
            self._callbacks[name] = callback
        for shard in self._shards:
            sink = shard.sinks.get(name)
            if sink is not None:
                sink.set_callback(callback)

    def unregister(self, name: str) -> None:
        if name not in self._queries:
            return
        if self.transport == "process":
            if self.started:
                raise ExecutionError(
                    "unregistering queries mid-stream requires "
                    "shard_transport='inline'"
                )
            del self._queries[name]
            return
        del self._queries[name]
        self._callbacks.pop(name, None)
        self._emitters = None  # topology changes below
        for shard in self._shards:
            shard.drop_query(name)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _require_queries(self) -> None:
        if not self._queries:
            raise ExecutionError("no queries registered")

    def _advance(self, boundary: int) -> None:
        """Advance every shard's watermark through each slide boundary,
        one boundary at a time across all shards (lockstep)."""
        slide = self._slide
        if self._boundary is None:
            self._boundary = boundary
            self.last_advance_at = time.time()
            self._step_watermark(boundary)
            return
        if self._boundary < boundary:
            self.last_advance_at = time.time()
        while self._boundary < boundary:
            self._boundary += slide
            self._step_watermark(self._boundary)

    def _step_watermark(self, t: int) -> None:
        if self.transport == "inline":
            shards = self._shards
            # Pre-advance the emitting PATH operators, operator-major
            # across shards: the negative-tuple operator's rederivation
            # emissions must reach every shard's downstream state
            # *before any shard purges at this boundary*, matching the
            # serial cascade (where an on_advance emission always
            # precedes its downstream consumers' purges).  on_advance is
            # idempotent per instant, so the main watermark pass below
            # re-visiting these operators is a no-op.
            emitters = self._emitters
            if emitters is None:
                emitters = self._emitters = [
                    index
                    for index, op in enumerate(shards[0].graph.operators)
                    if isinstance(op, NegativeTupleRpqOp)
                ]
            for index in emitters:
                for shard in shards:
                    shard.graph.operators[index].on_advance(t)
            for shard in shards:
                shard.graph.push_watermark(t)
        # process workers advance inside their apply/advance handlers

    def _on_late(self, edge: SGE, boundary: int) -> bool:
        policy = self.config.late_policy
        if policy == "raise":
            raise StreamOrderError(
                f"edge at t={edge.t} arrived behind the slide boundary "
                f"{boundary}"
            )
        self.late_count += 1
        return False

    def push(self, edge: SGE) -> None:
        self._require_queries()
        slide = self._slide
        boundary = edge.t // slide * slide
        if (
            self._boundary is not None
            and boundary < self._boundary
            and self.config.late_policy != "allow"
            and not self._on_late(edge, self._boundary)
        ):
            return
        if self.transport == "process":
            self._apply_process(max(boundary, self._boundary or boundary), [edge])
            return
        self._advance(boundary)
        intern = self.interner.intern
        src, dst = intern(edge.src), intern(edge.trg)
        for shard in self._shards:
            _push_edge(shard, edge.label, src, dst, edge.t)

    def delete(self, edge: SGE) -> None:
        """Explicit deletion: the negative tuple reaches every shard
        (adjacencies are replicated; joins route it like an insert)."""
        self._require_queries()
        intern = self.interner.intern
        sgt = SGT(
            intern(edge.src),
            intern(edge.trg),
            edge.label,
            Interval(edge.t, edge.t + 1),
        )
        if self.transport == "process":
            self._run_logged(("delete", sgt, edge.label))
            return
        for shard in self._shards:
            shard.graph.push(edge.label, Event(sgt, DELETE))

    def advance_to(self, t: int) -> None:
        self._require_queries()
        slide = self._slide
        boundary = t // slide * slide
        if self.transport == "process":
            self._ensure_workers()
            current = self._boundary
            self._advance_boundary_only(boundary)
            if self._boundary != current:
                self._run_logged(("advance", self._boundary))
            return
        self._advance(boundary)

    def _advance_boundary_only(self, boundary: int) -> None:
        if self._boundary is None:
            self._boundary = boundary
            self.last_advance_at = time.time()
        elif boundary > self._boundary:
            slide = self._slide
            steps = (boundary - self._boundary) // slide
            self._boundary += steps * slide
            self.last_advance_at = time.time()

    def push_many(self, stream: Iterable[SGE]) -> RunStats:
        self._require_queries()
        apply = (
            self._apply_inline
            if self.transport == "inline"
            else self._apply_process
        )
        scheduler = BatchScheduler(
            self._slide,
            self.config.batch_size,
            on_late=None if self.config.late_policy == "allow" else self._on_late,
        )
        return scheduler.run(stream, apply)

    def _apply_inline(self, boundary: int, edges: list[SGE]) -> None:
        """Inline transport: every shard ingests every edge, one edge at
        a time across all shards — with synchronous exchange this makes
        the global execution order exactly the serial engine's."""
        self._advance(boundary)
        intern = self.interner.intern
        shards = self._shards
        for e in edges:
            src = intern(e.src)
            dst = intern(e.trg)
            label = e.label
            t = e.t
            for shard in shards:
                source = shard.graph.sources.get(label)
                if source is not None:
                    source.push_scalar(src, dst, t)

    # ------------------------------------------------------------------
    # Process transport
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        self._check_usable()
        if self._workers is not None:
            return
        self._spawn_workers()

    def _spawn_workers(self) -> None:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        queries = [
            (name, plan, options)
            for name, (plan, options) in self._queries.items()
        ]
        workers = []
        for shard_id in range(self.num_shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    shard_id,
                    self.num_shards,
                    queries,
                    self._slide,
                    self.fault_plan,
                    self._generation,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((parent_conn, process))
        self._workers = workers

    def _terminate_pool(self, workers) -> None:
        """Force-stop a pool (failure/recovery path — no protocol)."""
        for conn, process in workers or ():
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            process.terminate()
            process.join(timeout=self._join_timeout)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(timeout=self._join_timeout)

    def _fail(self, reason) -> "ExecutionError":
        """Tear the worker pool down after a protocol/worker failure.

        A worker that raised has left its command loop (and its siblings
        are out of protocol sync mid-round), so the pool is unusable:
        terminate everything and poison subsequent calls with a clear
        ExecutionError instead of raw BrokenPipeError/EOFError surprises.

        A pipe error raced by a concurrent :meth:`shutdown` is not a
        worker failure — the close already owns the pool teardown, so
        the existing poisoned close error is surfaced instead.
        """
        crash = (
            reason
            if isinstance(reason, WorkerCrashError)
            else WorkerCrashError(f"shard worker failed: {reason}")
        )
        with self._state_lock:
            existing = self._usability_error()
            if existing is not None:
                return existing
            workers, self._workers = self._workers, None
            self._failed = crash.summary
        self._terminate_pool(workers)
        crash.args = (
            f"{crash.args[0]}\nthe worker pool has been shut down — "
            "create a fresh engine (or set EngineConfig.checkpoint_policy "
            "to arm supervised auto-recovery)",
        )
        return crash

    def _worker_failure(self, error: WorkerCrashError) -> Exception:
        """Route a worker crash: supervised pools get the internal
        recovery signal, unsupervised pools tear down and poison."""
        if self._supervised:
            return _WorkerFailure(error)
        return self._fail(error)

    def _send(self, shard: int, message: tuple) -> None:
        try:
            self._workers[shard][0].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._worker_failure(
                WorkerCrashError(
                    f"shard {shard} worker pipe broke sending "
                    f"{message[0]!r}: {exc!r}",
                    shard=shard,
                    command=message[0],
                )
            ) from exc

    def _recv(self, shard: int):
        try:
            kind, payload = self._workers[shard][0].recv()
        except (EOFError, OSError) as exc:  # worker died mid-protocol
            raise self._worker_failure(
                WorkerCrashError(
                    f"shard {shard} worker pipe broke mid-protocol: {exc!r}",
                    shard=shard,
                )
            ) from exc
        if kind == "error":
            raise self._worker_failure(_crash_error(payload))
        return payload

    def _drain(self, outboxes: list[list[OutboxMessage]]) -> None:
        """Route cross-shard deltas between workers until quiescent.

        Deliveries are grouped per destination and sent in shard order,
        messages in (origin, arrival) order — deterministic for a given
        shard count.  Each round's deliveries may cascade into further
        sends (a routed binding joins, its result broadcasts, …); the
        dataflow is a DAG, so the rounds terminate.
        """
        pending: dict[int, list[tuple[int, tuple]]] = {}
        for outbox in outboxes:
            for dest, uid, payload in outbox:
                pending.setdefault(dest, []).append((uid, payload))
        while pending:
            round_pending = pending
            pending = {}
            dests = sorted(round_pending)
            for dest in dests:
                self._send(dest, ("exchange", round_pending[dest]))
            for dest in dests:
                for to, uid, payload in self._recv(dest):
                    pending.setdefault(to, []).append((uid, payload))

    def _execute_round(self, entry: tuple) -> None:
        """Drive one logged engine-level command through the pool and
        drain the resulting exchange rounds (io lock held by callers)."""
        kind = entry[0]
        if kind == "clear":
            for shard in range(self.num_shards):
                self._send(shard, ("clear", entry[1]))
            for shard in range(self.num_shards):
                self._recv(shard)
            return
        message = entry  # apply/advance/delete entries are wire messages
        for shard in range(self.num_shards):
            self._send(shard, message)
        self._drain([self._recv(shard) for shard in range(self.num_shards)])

    def _check_liveness(self) -> None:
        """Cheap pre-round probe (supervised only): catch a worker that
        died between rounds before half the pool has consumed the next
        command."""
        if not self._supervised:
            return
        for shard, (conn, process) in enumerate(self._workers):
            if not process.is_alive():
                raise _WorkerFailure(
                    WorkerCrashError(
                        f"shard {shard} worker died between commands "
                        f"(exit code {process.exitcode})",
                        shard=shard,
                    )
                )

    def _run_logged(self, entry: tuple) -> None:
        """Execute one mutating command, logging it for recovery *first*
        so a crash mid-round is replayed, never retried ad hoc."""
        with self._io_lock:
            self._ensure_workers()
            if self._supervised:
                self._replay_log.append(entry)
                try:
                    self._check_liveness()
                    self._execute_round(entry)
                    self._maybe_snapshot()
                except _WorkerFailure as failure:
                    self._recover(failure)
                return
            self._execute_round(entry)

    def _recover(self, failure: _WorkerFailure) -> None:
        """Supervised recovery: tear the pool down, respawn a new
        generation, restore the latest in-memory snapshot, and re-drive
        the replay log — the recovered workers end bit-identical to an
        uninterrupted run.  Exponential backoff between attempts; budget
        exhaustion poisons the pool and raises
        :class:`~repro.errors.RecoveryError`.
        """
        retry = self._policy.retry
        last = failure.error
        for attempt in range(1, retry.max_restarts + 1):
            delay = retry.delay(attempt)
            if delay:
                time.sleep(delay)
            self._generation += 1
            with self._state_lock:
                if self._usability_error() is not None:
                    break  # a concurrent close/fail owns the teardown
                workers, self._workers = self._workers, None
            self._terminate_pool(workers)
            try:
                self._spawn_workers()
                self._restore_snapshot()
                for entry in self._replay_log:
                    self._execute_round(entry)
            except _WorkerFailure as again:
                last = again.error
                continue
            self.recoveries += 1
            return
        error = RecoveryError(
            f"shard worker recovery failed after {retry.max_restarts} "
            f"attempt(s); last failure: {last.summary}"
        )
        with self._state_lock:
            existing = self._usability_error()
            workers, self._workers = self._workers, None
            if existing is None:
                self._failed = str(error)
        self._terminate_pool(workers)
        raise error from last

    def _restore_snapshot(self) -> None:
        """Load the in-memory snapshot into freshly spawned workers.

        With no snapshot yet the fresh workers start from scratch and
        the replay log (which then reaches back to the stream start)
        rebuilds everything.
        """
        snap = self._snapshot
        if snap is None:
            return
        boundary, late_count, states = snap
        self.late_count = late_count
        from repro.errors import CheckpointError

        for shard, blobs in enumerate(states):
            self._send(shard, ("restore", blobs, boundary))
        for shard in range(self.num_shards):
            reply = self._recv(shard)
            if reply is not None:  # pragma: no cover - topology drift
                raise CheckpointError(reply)

    def _take_snapshot(self) -> None:
        """Refresh the in-memory recovery snapshot and clear the log."""
        for shard in range(self.num_shards):
            self._send(shard, ("snapshot",))
        states = [self._recv(shard) for shard in range(self.num_shards)]
        self._snapshot = (self._boundary, self.late_count, states)
        self._snapshot_boundary = self._boundary
        self._snapshot_time = time.monotonic()
        self._replay_log.clear()

    def _maybe_snapshot(self) -> None:
        """Snapshot when the policy cadence has elapsed, or
        unconditionally when the replay log hits its bound."""
        policy = self._policy
        boundary = self._boundary
        if len(self._replay_log) < policy.replay_bound:
            slides = 0
            if boundary is not None:
                if self._snapshot_boundary is None:
                    # First boundary observed becomes the cadence base.
                    self._snapshot_boundary = boundary
                else:
                    slide = self._slide or 1
                    slides = (boundary - self._snapshot_boundary) // slide
            if not policy.due(
                slides_since=slides,
                seconds_since=time.monotonic() - self._snapshot_time,
            ):
                return
        self._take_snapshot()

    def _request_shard(self, shard: int, message: tuple):
        """One request/response against a shard (read-style commands).

        Reads carry no state transition, so under supervision a crash
        mid-read recovers the pool and simply retries the read against
        the restored worker; retries are bounded by the same budget.
        """
        with self._io_lock:
            attempts = 0
            while True:
                with self._state_lock:
                    self._check_usable()
                    if self._workers is None:
                        raise ExecutionError(
                            "worker pool is not running (stream not started)"
                        )
                try:
                    self._send(shard, message)
                    return self._recv(shard)
                except _WorkerFailure as failure:
                    attempts += 1
                    if attempts > self._policy.retry.max_restarts:
                        raise self._fail(failure.error) from failure
                    self._recover(failure)

    def heartbeat(self, timeout: float = 5.0) -> list[bool]:
        """Liveness probe: ping every worker and wait for the echo.

        Returns one boolean per shard.  A dead or wedged worker is a
        real failure (its pipe protocol is desynced): supervised pools
        recover it in place — so a ``True`` may mean "was dead, now
        respawned and restored" — while unsupervised pools poison and
        raise, exactly like any other crash.  Inline transports (and
        not-yet-started pools) are trivially alive.
        """
        if self.transport != "process":
            return [True] * self.num_shards
        with self._io_lock:
            with self._state_lock:
                self._check_usable()
                if self._workers is None:
                    return [True] * self.num_shards
            out = []
            for shard in range(self.num_shards):
                conn, process = self._workers[shard]
                healthy = process.is_alive()
                if healthy:
                    try:
                        self._send(shard, ("ping",))
                        if conn.poll(timeout):
                            self._recv(shard)
                        else:
                            healthy = False
                    except _WorkerFailure:
                        healthy = False
                if healthy:
                    out.append(True)
                    continue
                failure = _WorkerFailure(
                    WorkerCrashError(
                        f"shard {shard} worker failed its liveness probe",
                        shard=shard,
                        command="ping",
                    )
                )
                if not self._supervised:
                    raise self._fail(failure.error)
                self._recover(failure)  # raises RecoveryError past budget
                out.append(True)
            return out

    def _apply_process(self, boundary: int, edges: list[SGE]) -> None:
        """Process transport: intern the slide once, ship columnar runs
        to every worker, then drain the exchange rounds."""
        self._ensure_workers()
        self._advance_boundary_only(boundary)
        intern = self.interner.intern
        runs: list[tuple[str, list[int], list[int], list[int]]] = []
        i = 0
        n = len(edges)
        while i < n:
            label = edges[i].label
            j = i + 1
            while j < n and edges[j].label == label:
                j += 1
            run = edges[i:j]
            runs.append(
                (
                    label,
                    [intern(e.src) for e in run],
                    [intern(e.trg) for e in run],
                    [e.t for e in run],
                )
            )
            i = j
        self._run_logged(("apply", boundary, runs))

    # ------------------------------------------------------------------
    # Read surfaces (merged across shards)
    # ------------------------------------------------------------------
    def sink_refs(self, name: str) -> "list[SinkOp] | None":
        """The query's per-shard sinks (inline transport).

        Handles hold these directly, so a detached handle stays readable
        after ``unregister`` prunes the sinks from the shard graphs —
        the same retention the unsharded engine's handles have.  Process
        transport returns ``None`` (sinks live in the workers).
        """
        if self.transport != "inline":
            return None
        return [
            shard.sinks[name]
            for shard in self._shards
            if name in shard.sinks
        ]

    def tap(self, label: str, interner) -> "MergedTapSink":
        """Attach a tap to a derived label's intermediate stream.

        The sharded equivalent of the serial engine's ``tap()``: one
        sink per shard on the shard-local instance of the producing
        operator, merged back into the *global emission order* through a
        shared arrival clock.  The merged stream carries exactly the
        serial engine's event multiset (the ``shards=1`` golden tests
        pin events, results, coverage and ``valid_at``); for replicated
        streams the order is the serial order too, while partitioned
        streams interleave per-root work shard-major within each push.

        Partitioned streams (PATH/PATTERN outputs, routed coalescers)
        emit each delta on exactly one shard, so the per-shard sinks
        subscribe directly.  Replicated streams (WSCAN outputs, the
        rep-zone chains feeding PATH adjacencies) would arrive N times;
        those get a :class:`ShardPartitionFilterOp` in front of each
        sink — the same owner-of-src dedup ``compile_into`` applies to
        replicated result streams before query sinks.

        Tap sinks pin their producers exactly like serial taps:
        ``graph.prune`` keeps everything a retained sink still reaches.
        """
        if self.transport != "inline":
            raise ExecutionError(
                "tap requires shard_transport='inline' "
                "(intermediate streams live inside the process workers)"
            )
        shards = self._shards
        index: int | None = None
        for i, op in enumerate(shards[0].graph.operators):
            produced = getattr(op, "out_label", None)
            if produced is None:
                produced = getattr(op, "label", None)
            if produced == label and not isinstance(op, SinkOp):
                index = i
                break
        if index is None:
            raise PlanError(f"no operator produces label {label!r}")
        partitioned = self._op_partitioned(
            shards[0], shards[0].graph.operators[index]
        )
        clock = [0]
        parts: list[_TapShardSink] = []
        for shard in shards:
            # Compilation is deterministic, so the operator at the same
            # position is the same logical node on every shard.
            producer = shard.graph.operators[index]
            sink = _TapShardSink(f"tap[{label}]", clock)
            sink.interner = interner
            sink.decode_eagerly = True
            shard.graph.add(sink)
            if partitioned:
                shard.graph.connect(producer, sink, 0)
            else:
                filt = ShardPartitionFilterOp(shard.ctx, label)
                shard.graph.add(filt)
                shard.graph.connect(producer, filt, 0)
                shard.graph.connect(filt, sink, 0)
            parts.append(sink)
        return MergedTapSink(f"tap[{label}]", parts)

    def _op_partitioned(self, shard: _Shard, op) -> bool:
        """Whether ``op``'s output stream is partitioned across shards
        (each delta on exactly one shard) or replicated (every shard
        emits a copy).

        Exchange operators and sources declare their status by type;
        compiled plan operators are reverse-looked-up in the shard's
        compile caches, whose key forms encode the replication zone:
        ``(plan, rep)`` / bare ``plan`` (WScan), ``("coalesce", plan,
        rep)``, ``("route", plan)``, ``("pfilter", plan)``.
        """
        if isinstance(op, (ShardRouteOp, ShardPartitionFilterOp)):
            return True
        if isinstance(op, (ShardBroadcastOp, SourceOp)):
            return False
        for cache in shard.caches.values():
            for key, cached in cache.items():
                if cached is not op:
                    continue
                if not isinstance(key, tuple):
                    # bare WScan key: one instance serves both zones,
                    # output replicated (every shard windows the input)
                    return _stream_partitioned(key)
                if isinstance(key[0], str):
                    if key[0] == "coalesce":
                        return not key[2]
                    return True  # "route" / "pfilter"
                plan, rep = key
                # A rep-zone instance may also be cached under
                # (plan, False) — only when the stream is replicated
                # either way, so rep=True is decisive.
                if not rep:
                    return _stream_partitioned(plan)
                return False
        raise ExecutionError(
            f"cannot determine shard partitioning of {op!r}; "
            "tap the query result through its handle instead"
        )

    def events(self, name: str) -> list[Event]:
        """Every result event of a query, concatenated across shards.

        Each event lives on exactly one shard (partitioned outputs are
        emitted once; replicated outputs pass a partition filter before
        the sink), so the concatenation is the serial engine's event
        multiset — per-shard order preserved, shard order arbitrary.
        The set/cover read surfaces built on top are insensitive to the
        cross-shard interleaving.
        """
        if self.transport == "inline":
            out: list[Event] = []
            for shard in self._shards:
                sink = shard.sinks.get(name)
                if sink is not None:
                    out.extend(sink.events)
            return out
        if self._workers_snapshot() is None:
            return []
        out = []
        for shard in range(self.num_shards):
            out.extend(self._request_shard(shard, ("read", name)))
        return out

    def _usability_error(self) -> ExecutionError | None:
        if self._failed is not None:
            return ExecutionError(
                f"shard workers failed earlier ({self._failed}); "
                "create a fresh engine"
            )
        if self._closed:
            return ExecutionError(
                "the engine has been closed (shard workers stopped); "
                "read results before close()"
            )
        return None

    def _check_usable(self) -> None:
        error = self._usability_error()
        if error is not None:
            raise error

    def _workers_snapshot(self) -> "list | None":
        """The live worker pool (``None`` before streaming starts).

        Snapshotted under the state lock: a read racing ``close()`` (the
        serving layer drains tenants concurrently with subscriber reads)
        observes either the live pool or the poisoned
        :class:`ExecutionError` — never a half-torn-down pool.
        """
        with self._state_lock:
            self._check_usable()
            return self._workers

    def event_counts(self, name: str) -> tuple[int, int]:
        """(insert events, total events) across shards — counted inside
        the workers under the process transport, so reading a count does
        not ship every result event over the pipes."""
        if self.transport == "inline":
            inserts = total = 0
            for shard in self._shards:
                sink = shard.sinks.get(name)
                if sink is not None:
                    inserts += sink.insert_count
                    total += len(sink.events)
            return inserts, total
        if self._workers_snapshot() is None:
            return 0, 0
        inserts = total = 0
        for shard in range(self.num_shards):
            i, n = self._request_shard(shard, ("count", name))
            inserts += i
            total += n
        return inserts, total

    def worker_busy_seconds(self) -> list[float]:
        """Per-shard processing seconds (process transport): time each
        worker spent applying deltas and draining exchanges, excluding
        blocking on the parent.  ``total_edges / max(busy)`` is the
        aggregate throughput an adequately-cored machine approaches —
        the scaling metric the benchmark records, since single-core CI
        serializes the workers and wall-clock shows only overhead.
        """
        if self.transport != "process" or self._workers is None:
            raise ExecutionError(
                "worker_busy_seconds requires shard_transport='process' "
                "with a started stream"
            )
        self._workers_snapshot()
        return [
            self._request_shard(shard, ("busy",))
            for shard in range(self.num_shards)
        ]

    def clear_results(self, name: str) -> None:
        if self.transport == "inline":
            for shard in self._shards:
                sink = shard.sinks.get(name)
                if sink is not None:
                    sink.clear()
            return
        with self._state_lock:
            started = self._workers is not None
        if started:
            self._run_logged(("clear", name))

    def shutdown(self) -> None:
        """Stop the worker pool.  Idempotent: a second (or concurrent)
        close finds the pool already swapped out under the state lock
        and returns without touching anything; reads racing the close
        observe the poisoned :class:`ExecutionError` via
        :meth:`_workers_snapshot`, never a half-closed pool."""
        with self._state_lock:
            if self.transport == "process":
                self._closed = True
            workers, self._workers = self._workers, None
        if workers is not None:
            # Let any in-flight request round complete before stopping
            # the workers — reads that began before the close finish
            # normally, later ones see the poisoned error above.
            with self._io_lock:
                for conn, process in workers:
                    try:
                        conn.send(("stop",))
                    except (BrokenPipeError, OSError):  # pragma: no cover
                        pass
                    process.join(timeout=self._join_timeout)
                    if process.is_alive():
                        # A wedged worker must not hang close(): escalate
                        # SIGTERM, then SIGKILL if it ignores that too.
                        process.terminate()
                        process.join(timeout=self._join_timeout)
                        if process.is_alive():
                            process.kill()
                            process.join(timeout=self._join_timeout)
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - already closed
                        pass

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.shutdown()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    conn,
    shard_id,
    num_shards,
    queries,
    slide,
    fault_plan=None,
    generation=0,
):
    """One shard worker: compile, then serve the parent's command loop.

    Compilation happens inside the worker from the (picklable, already
    interned) logical plans — operator graphs never cross the process
    boundary.  Exchange endpoints get the same uids as every other
    shard because compilation is deterministic.

    ``fault_plan`` is this worker's private copy of the parent's
    :class:`~repro.fault.plan.FaultPlan` (counters restart per
    incarnation); ``generation`` stamps which incarnation of the pool
    this is, so injected crashes can be gated to generation 0 and the
    respawned worker survives.
    """
    import gc
    import os
    import signal as _signal
    import time
    import traceback

    current_command: "str | None" = None
    try:
        shard = _Shard(shard_id, num_shards)
        outbox: list[OutboxMessage] = []
        shard.ctx.set_transport(
            lambda dest, uid, payload: outbox.append((dest, uid, payload))
        )
        for name, plan, options in queries:
            shard.compile_query(name, plan, options)
        boundary: int | None = None
        #: CPU seconds spent processing — process_time excludes both
        #: blocking on the parent and preemption by sibling workers, so
        #: it measures this shard's work division even when a
        #: single-core machine time-slices the workers (the scaling
        #: metric the benchmark reports)
        busy = 0.0

        def advance(target: int) -> None:
            nonlocal boundary
            if boundary is None:
                boundary = target
                shard.graph.push_watermark(target)
                return
            while boundary < target:
                boundary += slide
                shard.graph.push_watermark(boundary)

        while True:
            # Commands run with the cyclic collector paused, as engine
            # calls do in the parent; it gets to run only while idle.
            gc.enable()
            message = conn.recv()
            gc.disable()
            command = message[0]
            current_command = command
            if fault_plan is not None:
                action = fault_plan.fire(
                    "worker.command",
                    shard=shard_id,
                    command=command,
                    generation=generation,
                )
                if action == "kill":
                    # A true hard crash: no cleanup, no goodbye.
                    os.kill(os.getpid(), _signal.SIGKILL)
                elif action == "tear":
                    # Tear the pipe mid-message: declare a 64-byte
                    # length-prefixed reply, deliver 4 bytes, die — the
                    # parent's recv sees EOF inside a partial message.
                    try:
                        os.write(conn.fileno(), b"\x00\x00\x00\x40torn")
                    finally:
                        os._exit(1)
                elif action == "hang":
                    # Wedge the worker (drills shutdown escalation).
                    time.sleep(3600)
                elif action == "raise":
                    raise InjectedFault(
                        f"injected fault in shard {shard_id} "
                        f"(command {command!r}, generation {generation})"
                    )
            if command == "apply":
                started = time.process_time()
                _, target, runs = message
                advance(target)
                sources = shard.graph.sources
                for label, src, dst, ts in runs:
                    source = sources.get(label)
                    if source is not None:
                        source.push_columns(target, src, dst, ts)
                busy += time.process_time() - started
                conn.send(("outbox", outbox[:]))
                outbox.clear()
            elif command == "exchange":
                started = time.process_time()
                endpoints = shard.ctx.endpoints
                for uid, payload in message[1]:
                    endpoints[uid].receive_exchange(payload)
                busy += time.process_time() - started
                conn.send(("outbox", outbox[:]))
                outbox.clear()
            elif command == "advance":
                started = time.process_time()
                advance(message[1])
                busy += time.process_time() - started
                conn.send(("outbox", outbox[:]))
                outbox.clear()
            elif command == "delete":
                started = time.process_time()
                _, sgt, label = message
                shard.graph.push(label, Event(sgt, DELETE))
                busy += time.process_time() - started
                conn.send(("outbox", outbox[:]))
                outbox.clear()
            elif command == "read":
                sink = shard.sinks.get(message[1])
                conn.send(("ok", list(sink.events) if sink is not None else []))
            elif command == "count":
                sink = shard.sinks.get(message[1])
                counts = (
                    (sink.insert_count, len(sink.events))
                    if sink is not None
                    else (0, 0)
                )
                conn.send(("ok", counts))
            elif command == "clear":
                sink = shard.sinks.get(message[1])
                if sink is not None:
                    sink.clear()
                conn.send(("ok", None))
            elif command == "state":
                conn.send(("ok", shard.graph.state_size()))
            elif command == "breakdown":
                conn.send(("ok", shard.graph.state_breakdown()))
            elif command == "snapshot":
                conn.send(("ok", _snapshot_shard_graph(shard.sinks, shard.graph)))
            elif command == "restore":
                # Replies ("ok", None) on success or ("ok", message) on a
                # checkpoint mismatch — a typed failure the parent raises
                # as CheckpointError without poisoning the protocol.
                _, blobs, target = message
                from repro.errors import CheckpointError

                try:
                    keys = operator_keys(
                        list(shard.sinks.items()), shard.graph
                    )
                    load_operator_states(keys, blobs)
                except CheckpointError as exc:
                    conn.send(("ok", str(exc)))
                else:
                    if target is not None:
                        boundary = target
                        shard.graph.push_watermark(target)
                        shard.graph.sync_watermarks()
                    conn.send(("ok", None))
            elif command == "busy":
                conn.send(("ok", busy))
            elif command == "ping":
                conn.send(
                    ("ok", {"shard": shard_id, "generation": generation})
                )
            elif command == "stop":
                break
            else:  # pragma: no cover - protocol error
                conn.send(("error", f"unknown command {command!r}"))
    except EOFError:  # pragma: no cover - parent died
        pass
    except Exception as exc:  # crash surface: ship full context home
        try:
            conn.send(
                (
                    "error",
                    {
                        "shard": shard_id,
                        "command": current_command,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    },
                )
            )
        except Exception:
            pass


# ----------------------------------------------------------------------
# Merged read-surface helpers (used by the session's sharded handle)
# ----------------------------------------------------------------------
class _TapShardSink(SinkOp):
    """One shard's tap sink, stamping a *global* arrival sequence.

    All of a tap's per-shard sinks share one ``clock`` (a one-element
    list); the inline transport is single-threaded, so the stamp each
    event gets is its position in the global execution order.  Merging
    the per-shard streams by stamp restores that global order — the
    serial tap stream's multiset always, and its exact sequence for
    replicated streams (partitioned operators divide one push's work
    across shards, so their within-push interleaving is shard-major).

    Batches are unwrapped eagerly (taps are an observability surface,
    not the hot path): the base class's deferred-batch read path would
    lose per-event arrival positions.
    """

    def __init__(self, name: str, clock: list[int]):
        super().__init__(name)
        self._clock = clock
        #: arrival stamp of ``events[i]``, strictly increasing per shard
        self.seqs: list[int] = []

    def on_event(self, port: int, event: Event) -> None:
        self._clock[0] += 1
        self.seqs.append(self._clock[0])
        super().on_event(port, event)

    def on_batch(self, port: int, batch) -> None:
        signs = batch.signs
        if signs is None:
            for sgt in batch.sgts:
                self.on_event(port, Event(sgt))
        else:
            for sgt, sign in zip(batch.sgts, signs):
                self.on_event(port, Event(sgt, sign))

    def clear(self) -> None:
        super().clear()
        self.seqs.clear()


class MergedTapSink:
    """Read facade over a sharded tap's per-shard sinks.

    Mirrors the :class:`~repro.dataflow.graph.SinkOp` read surface
    (``events`` / ``results`` / ``coverage`` / ``valid_at`` /
    ``insert_count`` / ``set_callback`` / ``clear``) so callers are
    oblivious to shard count.  ``events`` merges the per-shard streams
    by their shared arrival stamps back into the global emission order
    — the same event multiset as the ``shards=1`` tap stream.
    """

    def __init__(self, name: str, parts: list[_TapShardSink]):
        self.name = name
        self._parts = parts

    @property
    def events(self) -> list[Event]:
        # Per-shard (seq, event) runs are each sorted by seq and seqs
        # are globally unique, so a k-way heap merge restores the global
        # emission order without ever comparing events.
        return [
            event
            for _, event in heapq.merge(
                *(zip(part.seqs, part.events) for part in self._parts)
            )
        ]

    @property
    def insert_count(self) -> int:
        return sum(part.insert_count for part in self._parts)

    def set_callback(self, callback) -> None:
        """Push delivery: the per-shard sinks fire synchronously inside
        the lockstep schedule, so callbacks arrive in exactly the global
        emission order (no merge needed on the push path)."""
        for part in self._parts:
            part.set_callback(callback)

    def results(self):
        """Coalesced insert-side sgts across shards (set semantics —
        same fold as :meth:`SinkOp.results`).  Tap events are decoded on
        arrival, so no read-time decode pass is needed."""
        inserts = (e.sgt for e in self.events if e.sign == INSERT)
        return coalesce_stream(inserts)

    def coverage(self) -> dict:
        return events_coverage(self.events)

    def valid_at(self, t: int) -> set:
        return {
            key
            for key, intervals in self.coverage().items()
            if any(iv.contains(t) for iv in intervals)
        }

    def clear(self) -> None:
        for part in self._parts:
            part.clear()


def merged_coverage(events: list[Event], interner) -> dict:
    """Net validity cover per result key over a merged event stream
    (the sharded equivalent of :meth:`SinkOp.coverage` — one shared
    fold, see :func:`~repro.dataflow.graph.events_coverage`)."""
    return events_coverage(events, interner.decode_key)
