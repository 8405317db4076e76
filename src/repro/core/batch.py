"""Batched delta processing: the value type and scheduler shared by the
SGA dataflow executor and the DD baseline engine.

Tuple-at-a-time execution pays Python call overhead at every operator hop
for every sgt, which caps throughput far below what the algorithms allow
and lets the SGA-vs-DD comparison measure interpreter overhead instead of
algorithmic difference.  This module provides the common machinery both
engines are driven by:

* :class:`DeltaBatch` — a group of INSERT/DELETE sgts sharing one slide
  epoch.  The insert-only common case stores bare sgts (no per-event
  wrapper objects at all); mixed batches carry a parallel sign list so
  event order — which is semantically significant for retractions — is
  preserved exactly.
* :class:`SlideStats` / :class:`RunStats` — per-slide wall-clock
  accounting, previously duplicated between the two engines.
* :class:`BatchScheduler` — the one loop that consumes a timestamp-ordered
  sge stream, accumulates edges per slide boundary (optionally capped at a
  batch size), times each flush, and hands `(boundary, edges)` batches to
  an engine-specific ``apply`` callable.  Both engines now share this
  driver, so benchmark differences between them reflect the algorithms,
  not the drivers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.intervals import Interval
from repro.core.tuples import SGE, SGT

#: Event signs (shared convention with :mod:`repro.dataflow.graph`).
INSERT = 1
DELETE = -1


class DeltaBatch:
    """A group of sgt deltas that share one slide epoch.

    Parameters
    ----------
    boundary:
        The slide boundary the batch belongs to (the watermark has been
        advanced to this boundary before the batch flows).
    sgts:
        The sgts, in arrival order — or ``None`` when the batch carries
        ``columns`` instead (rows are then materialized lazily on first
        access, e.g. by the per-tuple fallback shim or a fanout edge).
    signs:
        Parallel list of signs (+1 insert / -1 delete), or ``None`` when
        every delta is an insertion — the hot-path common case, which
        spares one wrapper object per event.
    columns:
        Optional :class:`~repro.core.columns.DeltaColumns` view: the same
        deltas as parallel scalar columns of interned ids.  Columnar
        operators iterate this directly and never touch ``sgts``.

    Order within a batch is meaningful and preserved end to end: a
    retraction must observe the effects of the insertions that preceded
    it, and order-sensitive operators (the expand-only negative-tuple RPQ
    keeps the *first* derivation it finds) produce different — wrong —
    output if a batch is reordered.
    """

    __slots__ = ("boundary", "_sgts", "signs", "columns")

    def __init__(
        self,
        boundary: int,
        sgts: list[SGT] | None = None,
        signs: list[int] | None = None,
        columns=None,
    ):
        if sgts is None and columns is None:
            raise ValueError("DeltaBatch requires sgts or columns")
        length = len(sgts) if sgts is not None else len(columns)
        if signs is not None and len(signs) != length:
            raise ValueError(
                f"signs length {len(signs)} != batch length {length}"
            )
        self.boundary = boundary
        self._sgts = sgts
        self.signs = signs
        self.columns = columns

    @property
    def sgts(self) -> list[SGT]:
        """Row view; materialized from the columns on first access.

        Materialized rows carry interned vertex ids (decoding happens
        only at result-sink read time), a per-row
        :class:`~repro.core.intervals.Interval` and the default edge
        payload — exactly what the row-wise producers would have built.
        """
        rows = self._sgts
        if rows is None:
            cols = self.columns
            label = cols.label
            rows = [
                SGT(s, d, label, Interval(ts, exp))
                for s, d, ts, exp in zip(cols.src, cols.dst, cols.ts, cols.exp)
            ]
            self._sgts = rows
        return rows

    @property
    def insert_only(self) -> bool:
        return self.signs is None

    def events(self) -> Iterator[tuple[SGT, int]]:
        """Iterate ``(sgt, sign)`` pairs in arrival order."""
        if self.signs is None:
            for sgt in self.sgts:
                yield sgt, INSERT
        else:
            yield from zip(self.sgts, self.signs)

    @property
    def inserts(self) -> list[SGT]:
        if self.signs is None:
            return self.sgts
        return [s for s, sign in zip(self.sgts, self.signs) if sign == INSERT]

    @property
    def deletes(self) -> list[SGT]:
        if self.signs is None:
            return []
        return [s for s, sign in zip(self.sgts, self.signs) if sign == DELETE]

    def __len__(self) -> int:
        if self._sgts is not None:
            return len(self._sgts)
        return len(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "+" if self.signs is None else "±"
        form = "col" if self.columns is not None else "row"
        return f"<DeltaBatch @{self.boundary} {kind}{len(self)} {form}>"


@dataclass
class SlideStats:
    """Wall-clock accounting for one window slide (one DD epoch)."""

    boundary: int
    seconds: float = 0.0
    edges: int = 0
    batches: int = 0


@dataclass
class RunStats:
    """Aggregate statistics of one execution (either engine)."""

    slides: list[SlideStats] = field(default_factory=list)
    total_edges: int = 0
    total_seconds: float = 0.0

    @property
    def epochs(self) -> list[SlideStats]:
        """DD vocabulary: one epoch per slide."""
        return self.slides

    @property
    def total_batches(self) -> int:
        return sum(s.batches for s in self.slides)

    @property
    def throughput(self) -> float:
        """Edges per second over the whole run."""
        if self.total_seconds == 0:
            return float("inf")
        return self.total_edges / self.total_seconds

    def tail_latency(self, quantile: float = 0.99) -> float:
        """The ``quantile`` (default p99) of per-slide processing time."""
        if not self.slides:
            return 0.0
        ordered = sorted(s.seconds for s in self.slides)
        index = min(len(ordered) - 1, int(quantile * len(ordered)))
        return ordered[index]


class BatchScheduler:
    """Accumulates a timestamp-ordered sge stream into per-slide batches.

    Parameters
    ----------
    boundary_of:
        Maps an event timestamp to its slide boundary — either a
        callable, or (the fast path) a positive ``int`` slide interval
        ``beta``, for which the scheduler computes
        ``(t // beta) * beta`` inline instead of paying one Python call
        per stream element.
    batch_size:
        Maximum edges per flush.  ``None`` flushes once per slide (DD's
        epoch batching, and the SGA executor's whole-slide batches); a
        positive value also flushes whenever that many edges of the
        current slide have accumulated, bounding both memory and the
        latency contributed by batching.
    on_late:
        Invoked as ``on_late(edge, boundary)`` for each *late* edge — one
        whose slide boundary precedes ``boundary``, the slide currently
        being accumulated.  When the callback returns ``True`` the edge
        is still appended to the current batch (it keeps its own
        timestamp; it is never reassigned to the wrong slide); ``False``
        discards it.  Without a callback late edges are kept.

    The scheduler times every flush and attributes it to the slide it
    belongs to, so per-slide latency reflects processing cost only (not
    the time spent waiting for stream elements).
    """

    def __init__(
        self,
        boundary_of: Callable[[int], int] | int,
        batch_size: int | None = None,
        on_late: Callable[[SGE, int], bool] | None = None,
    ):
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if isinstance(boundary_of, int) and boundary_of < 1:
            raise ValueError(f"slide must be >= 1, got {boundary_of}")
        self.boundary_of = boundary_of
        self.batch_size = batch_size
        self.on_late = on_late

    def run(
        self,
        stream: Iterable[SGE],
        apply: Callable[[int, list[SGE]], None],
    ) -> RunStats:
        """Drive ``apply(boundary, edges)`` over the whole stream.

        ``apply`` must consume the edge list immediately (it is reused
        between flushes).
        """
        stats = RunStats()
        boundary_of = self.boundary_of
        slide = boundary_of if isinstance(boundary_of, int) else None
        batch_size = self.batch_size
        on_late = self.on_late
        pending: list[SGE] = []
        current: SlideStats | None = None
        start = time.perf_counter()

        for edge in stream:
            if slide is not None:
                boundary = edge.t // slide * slide
            else:
                boundary = boundary_of(edge.t)
            if current is None:
                current = SlideStats(boundary=boundary)
            elif boundary > current.boundary:
                self._flush(pending, current, apply)
                stats.slides.append(current)
                stats.total_edges += current.edges
                current = SlideStats(boundary=boundary)
            elif boundary < current.boundary:
                if on_late is not None and not on_late(edge, current.boundary):
                    continue
            pending.append(edge)
            if batch_size is not None and len(pending) >= batch_size:
                self._flush(pending, current, apply)

        if current is not None:
            self._flush(pending, current, apply)
            stats.slides.append(current)
            stats.total_edges += current.edges
        stats.total_seconds = time.perf_counter() - start
        return stats

    @staticmethod
    def _flush(
        pending: list[SGE],
        current: SlideStats,
        apply: Callable[[int, list[SGE]], None],
    ) -> None:
        if not pending:
            return
        started = time.perf_counter()
        apply(current.boundary, pending)
        current.seconds += time.perf_counter() - started
        current.edges += len(pending)
        current.batches += 1
        pending.clear()
