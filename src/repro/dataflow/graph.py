"""Dataflow graph: operators, channels, events, batches, watermarks.

Events carry an sgt and a sign: ``+1`` for insertions, ``-1`` for explicit
deletions (negative tuples, Section 6.2.5).  Expirations due to window
movement are *not* events — they are handled by each stateful operator
when the watermark advances (the direct approach), or synthesized into
deletions internally by negative-tuple operators.

Tuples move through the topology either one at a time (:meth:`emit` /
:meth:`PhysicalOperator.on_event`) or as :class:`~repro.core.batch.DeltaBatch`
groups sharing a slide epoch (:meth:`emit_batch` /
:meth:`PhysicalOperator.on_batch`).  The base class provides a per-tuple
fallback shim for ``on_batch``: incoming events are replayed through
``on_event`` while emissions are captured, then forwarded downstream as
one batch — so any operator participates in batched execution, and hot
operators override ``on_batch`` with real bulk implementations.  Batches
preserve arrival order exactly; order is semantically significant (a
retraction must observe the insertions that preceded it, and expand-only
operators keep the *first* derivation they find).

Watermark propagation follows Timely's frontier rule: an operator acts on
the minimum watermark across its input ports, so diamonds in the graph
never observe time moving backwards.
"""

from __future__ import annotations

from typing import Callable

from repro.core.batch import DeltaBatch
from repro.core.coalesce import coalesce_stream
from repro.core.columns import ColumnBuilder
from repro.core.intervals import Interval, net_cover
from repro.core.tuples import SGT, EdgePayload, Label, PathPayload, Vertex
from repro.errors import ExecutionError

INSERT = 1
DELETE = -1


class Event:
    """An insertion (+1) or explicit deletion (-1) of an sgt.

    A hand-written ``__slots__`` value class: per-tuple execution
    allocates one per operator hop, so construction cost is hot (batched
    execution avoids the wrapper entirely for insert-only batches).
    """

    __slots__ = ("sgt", "sign")

    def __init__(self, sgt: SGT, sign: int = INSERT):
        if sign != INSERT and sign != DELETE:
            raise ExecutionError(f"invalid event sign {sign}")
        self.sgt = sgt
        self.sign = sign

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Event:
            return self.sgt == other.sgt and self.sign == other.sign  # type: ignore[union-attr]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sgt, self.sign))

    def __repr__(self) -> str:
        return f"Event(sgt={self.sgt!r}, sign={self.sign!r})"


class PhysicalOperator:
    """Base class for physical operators.

    Subclasses implement :meth:`on_event` (per-tuple processing; push
    outputs with :meth:`emit` or :meth:`emit_sgt`) and optionally
    :meth:`on_advance` (state purge when the watermark moves).  Batched
    execution goes through :meth:`on_batch`, whose default implementation
    replays the batch per tuple while capturing emissions, then flushes
    them downstream as one batch; hot operators override it.
    """

    def __init__(self, name: str):
        self.name = name
        self._downstream: list[tuple["PhysicalOperator", int]] = []
        self._input_watermarks: dict[int, int] = {}
        self._watermark = -1
        #: number of input ports; maintained by DataflowGraph.connect
        self.arity = 0
        #: emission-capture buffers, active only while a batch is being
        #: processed (see :meth:`_begin_batch` / :meth:`_end_batch`)
        self._capture_sgts: list[SGT] | None = None
        self._capture_signs: list[int] = []
        self._capture_mixed = False
        #: columnar emission capture (see :meth:`_begin_batch_cols`):
        #: operators consuming a columnar batch append scalar output rows
        #: here instead of constructing sgts
        self._capture_cols: ColumnBuilder | None = None

    # ------------------------------------------------------------------
    # Wiring (used by DataflowGraph)
    # ------------------------------------------------------------------
    def _subscribe(self, consumer: "PhysicalOperator", port: int) -> None:
        self._downstream.append((consumer, port))

    def _register_input(self, port: int) -> None:
        self._input_watermarks[port] = -1
        self.arity = max(self.arity, port + 1)

    # ------------------------------------------------------------------
    # Event flow
    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        captured = self._capture_sgts
        if captured is not None:
            captured.append(event.sgt)
            self._capture_signs.append(event.sign)
            if event.sign != INSERT:
                self._capture_mixed = True
            return
        if self._capture_cols is not None:
            sgt = event.sgt
            self._append_col(sgt.src, sgt.trg, sgt.label, sgt.interval, event.sign)
            return
        for consumer, port in self._downstream:
            consumer.on_event(port, event)

    def emit_sgt(self, sgt: SGT, sign: int = INSERT) -> None:
        """Emit without allocating an :class:`Event` while capturing.

        Equivalent to ``emit(Event(sgt, sign))`` but batch implementations
        that route through it never pay the wrapper allocation when the
        output is being collected into a batch.
        """
        captured = self._capture_sgts
        if captured is not None:
            captured.append(sgt)
            self._capture_signs.append(sign)
            if sign != INSERT:
                self._capture_mixed = True
            return
        if self._capture_cols is not None:
            self._append_col(sgt.src, sgt.trg, sgt.label, sgt.interval, sign)
            return
        event = Event(sgt, sign)
        for consumer, port in self._downstream:
            consumer.on_event(port, event)

    def _append_col(
        self, src, trg, label: Label, interval: Interval, sign: int
    ) -> None:
        """Route a stray row emission into the active columnar capture."""
        cols = self._capture_cols
        assert cols is not None
        if label != cols.label:
            raise ExecutionError(
                f"{self.name}: emission labeled {label!r} during columnar "
                f"capture of {cols.label!r}"
            )
        cols.append(src, trg, interval.ts, interval.exp, sign)

    def on_event(self, port: int, event: Event) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batch flow
    # ------------------------------------------------------------------
    def emit_batch(self, batch: DeltaBatch) -> None:
        """Forward a batch downstream.

        Batches flow *along linear edges only*: with a single subscriber
        the whole batch is handed over in one call.  At a fanout point —
        several subscriptions, which includes one consumer subscribed on
        several ports (a self-join) and diamonds that reconverge further
        down — delivery degrades to per-event emission in exactly the
        per-tuple interleaving (event 1 to every subscriber, then event
        2, …).  Handing whole batches to each subscriber in turn would
        reorder events *across ports* relative to per-tuple execution,
        and order-sensitive consumers (the expand-only negative-tuple
        PATH keeps the first derivation it finds) would produce
        different results.
        """
        if not len(batch):
            return
        downstream = self._downstream
        if len(downstream) == 1:
            consumer, port = downstream[0]
            consumer.on_batch(port, batch)
            return
        if not downstream:
            return
        for sgt, sign in batch.events():
            event = Event(sgt, sign)
            for consumer, port in downstream:
                consumer.on_event(port, event)

    def on_edge(self, port: int, src, dst, t: int, label: Label) -> None:
        """Process one raw input edge as bare scalars.

        The columnar executor dispatches short same-label runs per edge;
        this entry point skips the intermediate NOW-sgt/Event pair the
        classic ``push`` path allocates.  WSCAN overrides it to window
        the edge directly; the default shim reconstructs the NOW event
        for any other consumer wired to a source.
        """
        self.on_event(
            port, Event(SGT(src, dst, label, Interval(t, t + 1)))
        )

    def on_edge_columns(
        self,
        port: int,
        boundary: int,
        label: Label,
        src: list[int],
        dst: list[int],
        ts: list[int],
    ) -> None:
        """Process one batch of raw input edges in columnar form.

        The columnar executor interns vertices at ingress and hands each
        same-label run to the sources as three parallel scalar columns.
        WSCAN overrides this with a column-at-a-time windowing pass; the
        default shim wraps each edge into its minimal ``[t, t+1)`` NOW
        sgt (carrying interned ids) and processes them as one
        :class:`DeltaBatch`, for any other consumer wired directly to a
        source.
        """
        sgts = [
            SGT(s, d, label, Interval(t, t + 1)) for s, d, t in zip(src, dst, ts)
        ]
        self.on_batch(port, DeltaBatch(boundary, sgts))

    def on_batch(self, port: int, batch: DeltaBatch) -> None:
        """Process one delta batch; the default is a per-tuple shim.

        Events are replayed in arrival order through :meth:`on_event`
        while emissions are captured, then flushed downstream as a single
        batch — one downstream call per batch instead of one per tuple.
        """
        self._begin_batch()
        try:
            on_event = self.on_event
            signs = batch.signs
            if signs is None:
                for sgt in batch.sgts:
                    on_event(port, Event(sgt, INSERT))
            else:
                for sgt, sign in zip(batch.sgts, signs):
                    on_event(port, Event(sgt, sign))
        finally:
            self._end_batch(batch.boundary)

    def _begin_batch(self) -> None:
        """Start capturing emissions into a batch buffer."""
        if self._capture_sgts is not None or self._capture_cols is not None:
            raise ExecutionError(f"{self.name}: nested batch processing")
        self._capture_sgts = []
        self._capture_signs = []
        self._capture_mixed = False

    def _end_batch(self, boundary: int) -> None:
        """Stop capturing and flush collected emissions downstream."""
        sgts = self._capture_sgts
        signs = self._capture_signs if self._capture_mixed else None
        self._capture_sgts = None
        self._capture_signs = []
        if sgts:
            self.emit_batch(DeltaBatch(boundary, sgts, signs))

    def _begin_batch_cols(self, label: Label) -> None:
        """Start capturing emissions as scalar columns under ``label``.

        Used by operators processing a columnar batch whose outputs are
        payload-free and label-constant; the operator appends scalar
        rows to ``self._capture_cols`` directly (any stray
        :meth:`emit_sgt` is routed into the builder too).
        """
        if self._capture_sgts is not None or self._capture_cols is not None:
            raise ExecutionError(f"{self.name}: nested batch processing")
        self._capture_cols = ColumnBuilder(label)

    def _end_batch_cols(self, boundary: int) -> None:
        """Stop columnar capture and flush one columnar batch downstream."""
        builder = self._capture_cols
        self._capture_cols = None
        if builder is not None and len(builder):
            columns, signs = builder.take()
            self.emit_batch(DeltaBatch(boundary, signs=signs, columns=columns))

    # ------------------------------------------------------------------
    # Progress (watermarks)
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        return self._watermark

    def receive_watermark(self, port: int, t: int) -> None:
        """Record an upstream watermark; advance when the frontier moves."""
        watermarks = self._input_watermarks
        current = watermarks.get(port, -1)
        if t < current:
            raise ExecutionError(
                f"{self.name}: watermark regression on port {port}: {t} < {current}"
            )
        watermarks[port] = t
        if len(watermarks) <= 1:
            # Single input port (the overwhelmingly common wiring): the
            # frontier is the port's own watermark — skip the min().
            frontier = t
        else:
            frontier = min(watermarks.values())
        if frontier > self._watermark:
            self._watermark = frontier
            self.on_advance(frontier)
            for consumer, consumer_port in self._downstream:
                consumer.receive_watermark(consumer_port, frontier)

    def on_advance(self, t: int) -> None:
        """Hook: the window has advanced to instant ``t``.

        Stateful operators purge state with ``exp <= t`` here; the default
        is a no-op.  Emissions from this hook are allowed (negative-tuple
        operators emit retractions and re-derivations).
        """

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict | None:
        """Serializable operator state, or ``None`` for stateless
        operators.  Stateful operators override this together with
        :meth:`restore_state`; snapshots are only taken at a watermark
        boundary with no batch in flight."""
        return None

    def restore_state(self, state: dict) -> None:
        """Load a state blob captured by :meth:`snapshot_state`."""
        from repro.errors import CheckpointError

        raise CheckpointError(
            f"{self.name} is stateless but a state blob was provided"
        )

    def state_breakdown(self) -> dict | None:
        """``{"rows": n, "bytes": estimate}`` for stateful operators
        (``None`` for stateless ones).  Bytes are a structural estimate —
        cheap enough for ``/metrics``, close enough to size checkpoints."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class SourceOp(PhysicalOperator):
    """Entry point of a dataflow: forwards externally pushed events.

    One source exists per input label; the executor routes each incoming
    sge to the source of its label.
    """

    def __init__(self, label: Label):
        super().__init__(f"source[{label}]")
        self.label = label

    def push(self, event: Event) -> None:
        self.emit(event)

    def push_scalar(self, src, dst, t: int) -> None:
        """Forward one raw input edge as bare scalars (columnar-executor
        per-edge path for runs too short to batch).  Linear edges reach
        the consumer's :meth:`~PhysicalOperator.on_edge` with no
        intermediate objects; fanout falls back to one NOW event shared
        by every subscriber (per-tuple interleaving preserved)."""
        downstream = self._downstream
        if len(downstream) == 1:
            consumer, port = downstream[0]
            consumer.on_edge(port, src, dst, t, self.label)
            return
        if not downstream:
            return
        event = Event(SGT(src, dst, self.label, Interval(t, t + 1)))
        for consumer, port in downstream:
            consumer.on_event(port, event)

    def push_columns(
        self,
        boundary: int,
        src: list[int],
        dst: list[int],
        ts: list[int],
    ) -> None:
        """Forward one batch of raw input edges as scalar columns.

        Same fanout rule as :meth:`PhysicalOperator.emit_batch`: whole
        batches flow only along linear edges; with several subscribers
        delivery falls back to per-event pushes in per-tuple interleaving
        (the events carry the interned ids the columns hold).
        """
        if not src:
            return
        downstream = self._downstream
        if len(downstream) == 1:
            consumer, port = downstream[0]
            consumer.on_edge_columns(port, boundary, self.label, src, dst, ts)
            return
        if not downstream:
            return
        label = self.label
        for s, d, t in zip(src, dst, ts):
            event = Event(SGT(s, d, label, Interval(t, t + 1)))
            for consumer, port in downstream:
                consumer.on_event(port, event)

    def push_watermark(self, t: int) -> None:
        # Sources have a single implicit input port 0 driven by the
        # executor.
        self.receive_watermark(0, t)

    def on_event(self, port: int, event: Event) -> None:  # pragma: no cover
        raise ExecutionError("sources do not consume events")


class SinkOp(PhysicalOperator):
    """Terminal operator collecting result events.

    Keeps every event in arrival order; :meth:`coverage` folds insertions
    and retractions into per-key disjoint validity covers, and
    :meth:`results` returns the coalesced sgts (set semantics).

    Under interned execution the arriving events carry dense vertex ids;
    an attached ``interner`` decodes them back to the original values at
    read time (``results`` / ``coverage`` / ``valid_at``), or eagerly on
    arrival when ``decode_eagerly`` is set (tap sinks, whose raw
    ``events`` are user-facing).

    Batches are retained as-is and unwrapped into events lazily: result
    delivery inside the timed execution loop is one list append per
    batch, and the per-event ``Event`` wrappers are built only when a
    reader (or an installed callback, which needs push delivery) asks
    for them.
    """

    def __init__(self, name: str = "sink", callback: Callable[[Event], None] | None = None):
        super().__init__(name)
        self._events: list[Event] = []
        #: arrived-but-not-yet-unwrapped batches, in arrival order
        #: relative to ``_events`` (deferred only while no callback is
        #: installed; a marker of the split position is not needed
        #: because deferral stops as soon as a callback exists)
        self._pending: list[DeltaBatch] = []
        self._callback = callback
        #: the engine's vertex interner, when interned ids flow here
        self.interner = None
        #: decode events on arrival instead of at read time
        self.decode_eagerly = False

    @property
    def events(self) -> list[Event]:
        """Every received event, in arrival order (unwraps pending
        batches on access)."""
        if self._pending:
            self._drain_pending()
        return self._events

    def _drain_pending(self) -> None:
        pending = self._pending
        self._pending = []
        for batch in pending:
            self._events.extend(self._batch_events(batch))

    def _batch_events(self, batch: DeltaBatch) -> list[Event]:
        signs = batch.signs
        if signs is None:
            arrived = [Event(sgt) for sgt in batch.sgts]
        else:
            arrived = [Event(sgt, sign) for sgt, sign in zip(batch.sgts, signs)]
        if self.decode_eagerly and self.interner is not None:
            decode = self.interner.decode_event
            arrived = [decode(event) for event in arrived]
        return arrived

    def set_callback(self, callback: Callable[[Event], None] | None) -> None:
        """Install (or clear) a per-event delivery callback.

        The callback observes the raw signed event stream — exactly what
        :meth:`results` coalesces — so push (callback) and pull
        (:meth:`results`) consumers see the same data.
        """
        if self._pending:
            self._drain_pending()
        self._callback = callback

    def on_event(self, port: int, event: Event) -> None:
        if self.decode_eagerly and self.interner is not None:
            event = self.interner.decode_event(event)
        if self._pending:
            self._drain_pending()
        self._events.append(event)
        if self._callback is not None:
            self._callback(event)

    def on_batch(self, port: int, batch: DeltaBatch) -> None:
        if self._callback is None:
            # No push consumer: retain the batch, unwrap at read time.
            self._pending.append(batch)
            return
        if self._pending:
            self._drain_pending()
        arrived = self._batch_events(batch)
        self._events.extend(arrived)
        for event in arrived:
            self._callback(event)

    @property
    def insert_count(self) -> int:
        return sum(1 for e in self.events if e.sign == INSERT)

    def coverage(self) -> dict[tuple[Vertex, Vertex, Label], list[Interval]]:
        """Net validity cover per (src, trg, label) after applying signs.

        Counting semantics: retracting one of several overlapping
        derivations keeps the instants the others still support.
        """
        return events_coverage(self.events, self._key_decoder())

    def results(self) -> list[SGT]:
        """Coalesced insert-side sgts (ignores retractions); see
        :meth:`coverage` for sign-aware folding."""
        inserts = (e.sgt for e in self.events if e.sign == INSERT)
        if self.interner is not None and not self.decode_eagerly:
            decode = self.interner.decode_sgt
            inserts = (decode(sgt) for sgt in inserts)
        return coalesce_stream(inserts)

    def _key_decoder(self):
        if self.interner is not None and not self.decode_eagerly:
            return self.interner.decode_key
        return None

    def valid_at(self, t: int) -> set[tuple[Vertex, Vertex, Label]]:
        """Keys whose net validity cover contains instant ``t``."""
        return {
            key
            for key, intervals in self.coverage().items()
            if any(iv.contains(t) for iv in intervals)
        }

    def clear(self) -> None:
        self._events.clear()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"kind": "sink", "events": encode_events(self.events)}

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "sink":
            from repro.errors import CheckpointError

            raise CheckpointError(
                f"operator {self.name}: expected a sink state blob, got "
                f"kind={state.get('kind')!r}"
            )
        self._pending = []
        self._events = decode_events(state["events"])

    def state_breakdown(self) -> dict:
        rows = len(self.events)
        return {"rows": rows, "bytes": rows * 120}


def encode_events(events: list[Event]) -> list[tuple]:
    """Sink events as plain tuples for checkpoint blobs.

    Default (edge) payloads are reconstructed lazily by ``SGT.payload``,
    so only materialized :class:`PathPayload` hops are captured.
    """
    rows = []
    for event in events:
        sgt = event.sgt
        payload = sgt._payload
        if payload is not None and payload.__class__ is PathPayload:
            hops = tuple(
                (hop.src, hop.trg, hop.label) for hop in payload.hops
            )
        else:
            hops = None
        rows.append(
            (
                sgt.src,
                sgt.trg,
                sgt.label,
                sgt.interval.ts,
                sgt.interval.exp,
                hops,
                event.sign,
            )
        )
    return rows


def decode_events(rows: list[tuple]) -> list[Event]:
    """Rebuild :func:`encode_events` tuples into sink events."""
    out = []
    for src, trg, label, ts, exp, hops, sign in rows:
        payload = (
            PathPayload(
                tuple(EdgePayload(h_src, h_trg, h_label) for h_src, h_trg, h_label in hops)
            )
            if hops is not None
            else None
        )
        out.append(Event(SGT(src, trg, label, Interval(ts, exp), payload), sign))
    return out


def events_coverage(
    events: list[Event], decode: Callable[[tuple], tuple] | None = None
) -> dict[tuple[Vertex, Vertex, Label], list[Interval]]:
    """Net validity cover per result key over a signed event stream.

    The one implementation of the counting-semantics fold (retracting
    one of several overlapping derivations keeps the instants the
    others still support), shared by :meth:`SinkOp.coverage` and the
    sharded engine's merged-sink reads.  ``decode`` optionally maps
    interned result keys back to original vertex values.
    """
    plus: dict[tuple, list[Interval]] = {}
    minus: dict[tuple, list[Interval]] = {}
    for event in events:
        bucket = plus if event.sign == INSERT else minus
        bucket.setdefault(event.sgt.key(), []).append(event.sgt.interval)
    out: dict[tuple, list[Interval]] = {}
    for key, intervals in plus.items():
        remaining = net_cover(intervals, minus.get(key, []))
        if remaining:
            out[decode(key) if decode else key] = remaining
    return out


class DataflowGraph:
    """A small DAG of physical operators with explicit wiring."""

    def __init__(self) -> None:
        self.operators: list[PhysicalOperator] = []
        self.sources: dict[Label, SourceOp] = {}
        self.sinks: list[SinkOp] = []
        #: id-index over ``operators`` — membership checks (one per
        #: connect()) must not scan the list once sessions hold many
        #: queries' operators.
        self._member_ids: set[int] = set()

    def add(self, op: PhysicalOperator) -> PhysicalOperator:
        self.operators.append(op)
        self._member_ids.add(id(op))
        if isinstance(op, SourceOp):
            if op.label in self.sources:
                raise ExecutionError(f"duplicate source for label {op.label!r}")
            self.sources[op.label] = op
        if isinstance(op, SinkOp):
            self.sinks.append(op)
        return op

    def add_source(self, label: Label) -> SourceOp:
        existing = self.sources.get(label)
        if existing is not None:
            return existing
        source = SourceOp(label)
        return self.add(source)  # type: ignore[return-value]

    def connect(
        self, producer: PhysicalOperator, consumer: PhysicalOperator, port: int = 0
    ) -> None:
        if id(producer) not in self._member_ids or id(consumer) not in self._member_ids:
            raise ExecutionError("connect() requires operators added to the graph")
        consumer._register_input(port)
        producer._subscribe(consumer, port)

    def producer_of(self, consumer: PhysicalOperator) -> PhysicalOperator | None:
        """The operator feeding ``consumer``, if any (first match)."""
        for op in self.operators:
            for candidate, _ in op._downstream:
                if candidate is consumer:
                    return op
        return None

    def prune(self, sinks: list[SinkOp]) -> list[PhysicalOperator]:
        """Remove ``sinks`` and every operator reachable *only* through them.

        Liveness is computed upstream from the remaining sinks (query
        sinks and taps alike): an operator survives iff some retained
        sink still consumes — directly or transitively — from it.
        Subscriptions from surviving producers to removed consumers are
        severed, so shared operators keep streaming to the queries that
        remain.  Returns the removed operators (callers evict compilation
        cache entries pointing at them).
        """
        removed = set(sinks)
        kept_sinks = [s for s in self.sinks if s not in removed]
        producers: dict[PhysicalOperator, list[PhysicalOperator]] = {}
        for op in self.operators:
            for consumer, _ in op._downstream:
                producers.setdefault(consumer, []).append(op)
        live: set[PhysicalOperator] = set()
        stack: list[PhysicalOperator] = list(kept_sinks)
        while stack:
            op = stack.pop()
            if op in live:
                continue
            live.add(op)
            stack.extend(producers.get(op, ()))
        dead = [op for op in self.operators if op not in live]
        self.operators = [op for op in self.operators if op in live]
        self._member_ids = {id(op) for op in self.operators}
        self.sinks = kept_sinks
        self.sources = {
            label: source
            for label, source in self.sources.items()
            if source in live
        }
        for op in self.operators:
            op._downstream = [
                (consumer, port)
                for consumer, port in op._downstream
                if consumer in live
            ]
        return dead

    def sync_watermarks(self) -> None:
        """Align consumer input watermarks with their producers'.

        Used when splicing new operators into a *live* dataflow: a cached
        (shared) producer only re-announces its watermark on the next
        frontier movement, so a freshly attached consumer would otherwise
        lag one slide behind.  ``receive_watermark`` cascades, so one
        sweep over all edges converges.
        """
        for op in list(self.operators):
            wm = op._watermark
            if wm < 0:
                continue
            for consumer, port in list(op._downstream):
                if consumer._input_watermarks.get(port, -1) < wm:
                    consumer.receive_watermark(port, wm)

    def source_labels(self) -> set[Label]:
        return set(self.sources)

    def push(self, label: Label, event: Event) -> None:
        source = self.sources.get(label)
        if source is None:
            return  # edges with labels not used by the query are discarded
        source.push(event)

    def push_watermark(self, t: int) -> None:
        for source in self.sources.values():
            source.push_watermark(t)

    def state_size(self) -> int:
        """Total retained state across operators (for memory diagnostics)."""
        total = 0
        for op in self.operators:
            size = getattr(op, "state_size", None)
            if callable(size):
                total += size()
        return total

    def state_breakdown(self) -> dict[str, dict]:
        """Per-operator ``{"rows", "bytes"}`` estimates for every
        stateful operator, keyed on operator name (diagnostics surface;
        exposed through engine ``stats()`` and the server's /metrics)."""
        out: dict[str, dict] = {}
        for op in self.operators:
            breakdown = op.state_breakdown()
            if breakdown is None:
                continue
            merged = out.get(op.name)
            if merged is None:
                out[op.name] = dict(breakdown)
            else:
                # Two instances may share a name (one per query); the
                # metrics surface aggregates them.
                merged["rows"] += breakdown["rows"]
                merged["bytes"] += breakdown["bytes"]
        return out
