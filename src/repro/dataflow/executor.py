"""Event-time executor driving a dataflow over an input graph stream.

The executor consumes sges in timestamp order.  Whenever an edge's
timestamp crosses a slide boundary (multiples of the query's slide
interval ``beta``), the watermark advances first — stateful operators
purge or expire — and only then are edges pushed.  Per-slide wall-clock
times are recorded so the benchmark harness can report the paper's two
metrics: aggregate throughput (edges/s) and tail (p99) slide latency.

Ingress: edges are accumulated per slide by the shared
:class:`~repro.core.batch.BatchScheduler` (the same driver the DD
baseline uses; ``batch_size`` caps flush sizes).  Vertices are
dictionary-encoded to dense ids at ingress — every ingress path (bulk
runs, single pushes and explicit deletions) interns through the same
:class:`~repro.core.interning.Interner` — and each slide is split into
consecutive same-label runs, so every operator observes exactly the
arrival order of the stream.  A run long enough to amortize batch
overhead flows to its source as parallel scalar columns; shorter runs
are dispatched per edge.  Batches flow only along *linear* edges of the
dataflow — at fanout points (one producer feeding several
subscriptions, e.g. a self-join's two ports or a reconverging diamond)
delivery degrades to per-event emission in exact per-tuple interleaving
(see :meth:`repro.dataflow.graph.PhysicalOperator.emit_batch`).

Late edges (timestamps behind the current slide boundary): the watermark
never regresses, and a late edge is **never reassigned to the current
slide** — WSCAN derives validity from the edge's own timestamp.  The
``late_policy`` parameter selects what happens to it:

* ``"allow"`` (default) — process it with its true timestamp; results
  that would have involved already-purged state may be missed.
* ``"drop"`` — discard it and count it in :attr:`Executor.late_count`.
* ``"raise"`` — raise :class:`~repro.errors.StreamOrderError`.

For bounded disorder, compose with
:func:`repro.dataflow.disorder.reorder`, which restores timestamp order
upstream of the executor.

Windowing is *not* the executor's job: sources emit sgts with the minimal
``[t, t+1)`` NOW interval and the WSCAN physical operators assign real
validity intervals (Definition 16), which is what lets a single query mix
windows of different lengths over different input streams (Example 4).
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.batch import BatchScheduler, RunStats, SlideStats
from repro.core.interning import Interner
from repro.core.intervals import Interval
from repro.core.tuples import SGE, SGT
from repro.dataflow.graph import DELETE, INSERT, DataflowGraph, Event
from repro.errors import StreamOrderError

__all__ = ["Executor", "RunStats", "SlideStats"]

#: Late-edge policies (see module docstring).
LATE_POLICIES = ("allow", "drop", "raise")


class Executor:
    """Drives a dataflow graph over an sge stream in event time.

    Parameters
    ----------
    graph:
        The physical dataflow.
    slide:
        The slide interval ``beta`` at which the watermark advances.
    batch_size:
        ``None`` flushes each slide's runs whole; a positive integer
        caps every flush at that many edges.
    late_policy:
        What to do with edges behind the current watermark boundary
        (``"allow"``, ``"drop"`` or ``"raise"``; see module docstring).
    interner:
        The vertex dictionary ingress interns through (a fresh one when
        omitted).  Sinks attached to the graph must decode through the
        same interner; the engine session wires this up.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        slide: int = 1,
        batch_size: int | None = None,
        late_policy: str = "allow",
        interner: Interner | None = None,
    ):
        if slide <= 0:
            raise ValueError(f"slide must be positive, got {slide}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if late_policy not in LATE_POLICIES:
            raise ValueError(
                f"unknown late policy {late_policy!r}; expected one of {LATE_POLICIES}"
            )
        self.graph = graph
        self.slide = slide
        self.batch_size = batch_size
        self.late_policy = late_policy
        self.interner = interner if interner is not None else Interner()
        #: Late edges discarded under ``late_policy="drop"``.
        self.late_count = 0
        #: Wall-clock time of the most recent window movement (None
        #: before the first edge) — the observability hook behind
        #: ``QueryHandle.stats()`` and the serving layer's watermark-lag
        #: metric.  Written once per boundary movement, not per edge.
        self.last_advance_at: float | None = None
        self._current_boundary: int | None = None

    @property
    def current_boundary(self) -> int | None:
        """The slide boundary the watermark has advanced to (``None``
        before the first edge)."""
        return self._current_boundary

    def run(self, stream: Iterable[SGE]) -> RunStats:
        """Process the whole stream; returns per-slide timing statistics."""
        scheduler = BatchScheduler(
            self.slide,
            self.batch_size,
            on_late=None if self.late_policy == "allow" else self._on_late,
        )
        return scheduler.run(stream, self._apply)

    # ------------------------------------------------------------------
    # Step-wise API (used by the engine facade and by tests)
    # ------------------------------------------------------------------
    def push_edge(self, edge: SGE) -> None:
        """Advance the watermark if needed, then insert one edge."""
        boundary = self._boundary(edge.t)
        if (
            self._current_boundary is not None
            and boundary < self._current_boundary
            and self.late_policy != "allow"
            and not self._on_late(edge, self._current_boundary)
        ):
            return
        self._advance(boundary)
        self.graph.push(edge.label, Event(self._now_sgt(edge), INSERT))

    def delete_edge(self, edge: SGE) -> None:
        """Explicitly delete a previously inserted edge (negative tuple).

        WSCAN assigns intervals deterministically, so replaying the edge
        with a negative sign reaches stateful operators with exactly the
        interval the insertion carried.
        """
        self.graph.push(edge.label, Event(self._now_sgt(edge), DELETE))

    def advance_to(self, t: int) -> None:
        """Advance the watermark to the slide boundary at or before t."""
        self._advance(self._boundary(t))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_clock(self) -> dict:
        """The executor's event-time position (taken at a boundary with
        no batch in flight)."""
        return {
            "boundary": self._current_boundary,
            "late_count": self.late_count,
        }

    def restore_clock(self, state: dict) -> None:
        """Re-announce the checkpointed watermark through the restored
        topology.

        Called *after* operator state is loaded: re-advancing at the
        pre-snapshot boundary is a no-op for every stateful operator
        (wheels already drained to the boundary, adjacency purged,
        coalescer keys re-scheduled strictly beyond it), and the sweep
        rebuilds each operator's watermark bookkeeping, which is not
        checkpointed.
        """
        self.late_count = state["late_count"]
        boundary = state["boundary"]
        if boundary is not None:
            self._current_boundary = boundary
            self.graph.push_watermark(boundary)
            self.graph.sync_watermarks()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    #: Minimum same-label run length that flows as a columnar batch.
    #: Shorter runs are dispatched per event (still interned): the fixed
    #: per-batch cost — column/batch construction, capture buffers, one
    #: extra dispatch per operator hop — only amortizes across a few
    #: tuples, and heavily interleaved streams (the SNB workload carries
    #: four labels) produce runs of 2-3 edges where per-event dispatch
    #: is measurably cheaper.  Order is preserved either way, so the two
    #: forms mix freely within one slide.
    columnar_min_run = 8

    def _apply(self, boundary: int, edges: list[SGE]) -> None:
        """Apply one flush: split it into consecutive same-label runs,
        intern each at ingress and hand it to its source as parallel
        scalar columns (or per edge, below :attr:`columnar_min_run`) —
        no per-edge object of any kind flows into the dataflow.

        Splitting on label changes (rather than grouping the whole
        flush per label) preserves global arrival order.  Edges whose
        label has no source are discarded *before* segmenting — the
        query never observes them, so they must not shorten runs.
        """
        self._advance(boundary)
        sources = self.graph.sources
        intern = self.interner.intern
        min_run = self.columnar_min_run
        if len(sources) == 1:
            ((label, source),) = sources.items()
            src, dst, ts = self.interner.intern_edges(
                [e for e in edges if e.label == label]
            )
            if len(src) >= min_run:
                source.push_columns(boundary, src, dst, ts)
            else:
                push_scalar = source.push_scalar
                for s, d, t in zip(src, dst, ts):
                    push_scalar(s, d, t)
            return
        kept = [e for e in edges if e.label in sources]
        i = 0
        n = len(kept)
        while i < n:
            label = kept[i].label
            j = i + 1
            while j < n and kept[j].label == label:
                j += 1
            source = sources[label]
            if j - i >= min_run:
                run = kept[i:j]
                source.push_columns(
                    boundary,
                    [intern(e.src) for e in run],
                    [intern(e.trg) for e in run],
                    [e.t for e in run],
                )
            else:
                push_scalar = source.push_scalar
                while i < j:
                    e = kept[i]
                    push_scalar(intern(e.src), intern(e.trg), e.t)
                    i += 1
            i = j

    def _now_sgt(self, edge: SGE) -> SGT:
        """The interned sgt of ``edge`` with the minimal single-instant
        NOW interval ``[t, t+1)``."""
        intern = self.interner.intern
        src = intern(edge.src)
        return SGT(src, intern(edge.trg), edge.label, Interval(edge.t, edge.t + 1))

    def _on_late(self, edge: SGE, boundary: int) -> bool:
        """Apply the drop/raise late policy; True keeps the edge.

        ``boundary`` is the slide the stream has progressed to — the one
        the edge is behind.
        """
        if self.late_policy == "raise":
            raise StreamOrderError(
                f"edge at t={edge.t} (slide {self._boundary(edge.t)}) "
                f"arrived behind the slide boundary {boundary}"
            )
        self.late_count += 1
        return False

    def _boundary(self, t: int) -> int:
        return (t // self.slide) * self.slide

    def _advance(self, boundary: int) -> None:
        """Advance the watermark through every slide boundary up to
        ``boundary``.

        A time-based sliding window moves at *every* multiple of the slide
        interval, whether or not edges arrived in between (Definition 16);
        the negative-tuple PATH operator performs its expiry re-derivations
        exactly on those movements, so boundaries must not be skipped.
        """
        if self._current_boundary is None:
            self._current_boundary = boundary
            self.last_advance_at = time.time()
            self.graph.push_watermark(boundary)
            return
        if self._current_boundary < boundary:
            self.last_advance_at = time.time()
        while self._current_boundary < boundary:
            self._current_boundary += self.slide
            self.graph.push_watermark(self._current_boundary)

