"""One engine API: ``StreamingGraphEngine`` sessions with query handles.

The paper's core claim is that a single algebra evaluates many persistent
queries over one streaming graph.  This module is that claim as an API: a
long-lived engine session that queries attach to and detach from *while
the stream is live*, in the spirit of the shared-arrangement multi-view
systems (e.g. Graphsurge) discussed in the paper's Section 2.2.

* :class:`EngineConfig` — one frozen, validated configuration object
  replacing the kwarg sprawl of the historical facades
  (``path_impl`` / ``materialize_paths`` / ``coalesce_intermediate`` /
  ``batch_size`` / ``late_policy``), plus ``backend`` selection.
* :class:`StreamingGraphEngine` — owns one dataflow + scheduler;
  ``register`` returns a :class:`QueryHandle`, ``unregister`` detaches a
  query and prunes now-unshared operators from the live dataflow.
* :class:`QueryHandle` — per-query surface: ``results()``, ``valid_at``,
  ``coverage``, ``stats()``, ``explain()``, push (``on_result``
  callbacks) and pull delivery over the same event stream.
* ``backend="sga" | "dd"`` — the SGA dataflow or the DD baseline behind
  the *same* handle API, so SGA-vs-DD comparisons are a one-line config
  flip (both are driven by the shared
  :class:`~repro.core.batch.BatchScheduler`).

Live lifecycle semantics
------------------------

**Register mid-stream** splices the compiled operators into the shared
dataflow: common sub-expressions re-share the cached operators, new
sources/operators are aligned to the current watermark
(:meth:`~repro.dataflow.graph.DataflowGraph.sync_watermarks`), and the
new query *backfills* from retained window state where possible:

* shared stateful operators (a Δ-PATH closure, a join's delta index)
  already hold the live window's tuples, so future results incorporate
  edges that arrived before registration;
* if the whole plan is already compiled for another live query, the new
  sink additionally backfills that query's accumulated result events, so
  ``results()`` parity is immediate;
* state that only *non-shared* operators would have held is gone — a
  partially-shared query registered mid-stream misses results whose
  non-shared constituents arrived before registration, until those edges
  would have expired anyway.  (The ``dd`` backend never backfills: a
  query registered mid-stream starts from an empty window.)

**Unregister mid-stream** detaches the sink and prunes every operator
reachable only through it; shared operators keep serving the surviving
queries untouched.  The handle stays readable (its accumulated results
are retained) but no longer receives new results.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.algebra.operators import Plan, WScan
from repro.algebra.translate import sgq_to_sga
from repro.checkpoint.rebalance import rebalance_states
from repro.checkpoint.topology import load_operator_states, operator_keys
from repro.core.batch import BatchScheduler, RunStats
from repro.core.coalesce import coalesce_stream
from repro.core.gcpause import gc_paused
from repro.core.interning import Interner, intern_plan
from repro.core.nplib import HAVE_NUMPY
from repro.core.intervals import Interval
from repro.core.tuples import SGE, SGT, Label, Vertex
from repro.dataflow.executor import LATE_POLICIES, Executor
from repro.dataflow.graph import INSERT, DataflowGraph, PhysicalOperator, SinkOp
from repro.dd.runtime import DDRuntime
from repro.engine.sharded import (
    MergedTapSink,
    ShardedSgaRuntime,
    merged_coverage,
)
from repro.errors import (
    CheckpointError,
    ExecutionError,
    HorizonError,
    PlanError,
    StreamOrderError,
)
from repro.fault.policy import CheckpointPolicy
from repro.physical.planner import (
    PATH_IMPLS,
    compile_into,
    compile_plan,
    evict_dead,
    plan_slide,
)
from repro.physical.state_arrays import apply_state_layout
from repro.ql.query import Query
from repro.query.datalog import ANSWER
from repro.query.sgq import SGQ

#: Engine implementations selectable behind the same handle API.
BACKENDS = ("sga", "dd")

#: Execution representations for the sga backend.  ``"vector"`` (the
#: default whenever numpy is importable) carries interned deltas as
#: numpy int64 column arrays through vectorized operator kernels;
#: ``"columnar"`` interns vertices to dense ids at ingress and streams
#: deltas as parallel scalar *list* columns; ``"rows"`` is the
#: historical object-graph path (per-tuple events, or row batches when
#: ``batch_size`` is set).  The two non-default modes are kept
#: selectable as golden references proving all three produce identical
#: decoded results.  ``"auto"`` — the config default — resolves to
#: ``"vector"`` when numpy is available and degrades to ``"columnar"``
#: (with a single warning) when it is not.
EXECUTIONS = ("vector", "columnar", "rows")

#: Shard transports for ``shards > 1`` (see :mod:`repro.engine.sharded`):
#: ``"inline"`` is the in-process deterministic scheduler (exact serial
#: semantics, used by golden tests), ``"process"`` the multiprocessing
#: backend (real multi-core speedup).
SHARD_TRANSPORTS = ("inline", "process")

#: Config fields a single query may override at ``register`` time (they
#: only affect how *that* query's plan is compiled).  The remaining
#: fields — ``backend``, ``batch_size``, ``late_policy`` — configure the
#: shared scheduler and are engine-wide.
PER_QUERY_OPTIONS = frozenset(
    {"path_impl", "materialize_paths", "coalesce_intermediate"}
)

#: One degrade warning per process (not one per EngineConfig).
_warned_vector_degrade = False


def _resolve_auto_execution() -> str:
    """``"vector"`` when numpy is importable, else ``"columnar"``.

    The degrade path warns exactly once per process: engines are
    constructed freely in tests and benchmarks, and the actionable fact
    — numpy missing, vector default unavailable — does not change
    between constructions.
    """
    if HAVE_NUMPY:
        return "vector"
    global _warned_vector_degrade
    if not _warned_vector_degrade:
        _warned_vector_degrade = True
        warnings.warn(
            "numpy is not installed: execution='auto' degrades to "
            "'columnar' (install the optional extra, pip install "
            '"repro[vector]", for the vectorized default)',
            RuntimeWarning,
            stacklevel=4,
        )
    return "columnar"


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Validated, immutable engine configuration.

    Parameters
    ----------
    backend:
        ``"sga"`` (the paper's algebra, the default) or ``"dd"`` (the
        Differential-Dataflow-style baseline) — same handle API either
        way.
    path_impl:
        Physical PATH implementation for the sga backend
        (``"spath"`` or ``"negative"``; Table 3 swaps these).
    materialize_paths:
        Whether PATH operators reconstruct hop sequences (requirement
        R3) or emit bare reachability pairs.
    coalesce_intermediate:
        Whether the Section 5.1 coalescing stage is inserted on
        stateful→stateful edges.
    batch_size:
        Edges per scheduler flush; ``None`` = one flush per slide for
        columnar sga execution (per-tuple for ``execution="rows"``), one
        whole epoch per slide for dd.
    late_policy:
        ``"allow"`` / ``"drop"`` / ``"raise"`` for edges behind the
        current slide boundary.
    execution:
        ``"auto"`` (the default) resolves at construction time to
        ``"vector"`` when numpy is importable, else to ``"columnar"``
        (warning once per process).  ``"vector"`` carries interned
        deltas as numpy int64 arrays through vectorized kernels and
        *requires* numpy — an explicit request without it raises.
        ``"columnar"`` is interned ids + column-at-a-time operators over
        plain lists; ``"rows"`` the historical object-per-tuple path.
        All three decode transparently at every read surface.  sga
        backend only; the dd baseline ignores it.
    columnar_min_run:
        Minimum same-label ingress run length that flows as a columnar
        batch (shorter runs dispatch per event, where batch overhead
        does not amortize); applies to the columnar and vector
        executions.  Default 8 (the measured break-even of the batch
        fixed costs on the benchmark workloads).
    shards:
        Number of partition-parallel shard workers (default 1 = the
        unsharded engine, bit-identical to historical behavior).  With
        ``shards > 1`` the sga backend hash-partitions the stateful work
        of every registered plan — PATH forests by root vertex, PATTERN
        joins by join key — across that many shards behind the same
        handle API (see :mod:`repro.engine.sharded`).  Requires
        ``backend="sga"`` and an interned execution (``"columnar"`` or
        ``"vector"`` — dense interned ids are what shards exchange).
    shard_transport:
        ``"inline"`` (default): all shards in this process, stepped
        deterministically — exact serial semantics, full live-lifecycle
        support, no parallel speedup.  ``"process"``: one OS process per
        shard for real multi-core throughput; queries must be registered
        before streaming starts and push callbacks are unsupported.
    checkpoint_policy:
        A :class:`~repro.fault.policy.CheckpointPolicy` (or the
        equivalent dict) arming fault tolerance.  On the sharded
        process transport it turns on *supervision*: crashed shard
        workers are respawned, restored from a bounded in-memory
        snapshot + replay log, and the recovered engine is
        bit-identical to an uninterrupted run (retry budget and
        backoff come from ``checkpoint_policy.retry``).  It is also the
        default cadence for
        :meth:`StreamingGraphEngine.enable_auto_checkpoint` and the
        serve layer's periodic durable checkpoints.  ``None`` (default)
        keeps the historical fail-fast behavior.
    """

    backend: str = "sga"
    path_impl: str = "spath"
    materialize_paths: bool = True
    coalesce_intermediate: bool = True
    batch_size: int | None = None
    late_policy: str = "allow"
    execution: str = "auto"
    columnar_min_run: int = 8
    shards: int = 1
    shard_transport: str = "inline"
    checkpoint_policy: "CheckpointPolicy | None" = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.execution == "auto":
            # Resolve the numpy-optional default once, at construction:
            # downstream code only ever sees a concrete execution.
            object.__setattr__(
                self, "execution", _resolve_auto_execution()
            )
        elif self.execution == "vector" and not HAVE_NUMPY:
            raise ValueError(
                "execution='vector' requires numpy, which is not "
                'installed; install the optional extra (pip install '
                '"repro[vector]") or use execution="columnar"'
            )
        if self.execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {self.execution!r}; "
                f"expected one of {EXECUTIONS} (or 'auto')"
            )
        if not isinstance(self.columnar_min_run, int) or isinstance(
            self.columnar_min_run, bool
        ) or self.columnar_min_run < 1:
            raise ValueError(
                f"columnar_min_run must be an int >= 1, "
                f"got {self.columnar_min_run!r}"
            )
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ValueError(f"shards must be an int >= 1, got {self.shards!r}")
        if self.shard_transport not in SHARD_TRANSPORTS:
            raise ValueError(
                f"unknown shard_transport {self.shard_transport!r}; "
                f"expected one of {SHARD_TRANSPORTS}"
            )
        if self.shards > 1:
            if self.backend != "sga":
                raise ValueError(
                    "shards > 1 requires backend='sga' (the dd baseline "
                    "is single-threaded by design)"
                )
            if self.execution not in ("columnar", "vector"):
                raise ValueError(
                    "shards > 1 requires an interned execution "
                    "('columnar' or 'vector'; shards exchange interned "
                    "columnar deltas)"
                )
        if self.path_impl not in PATH_IMPLS:
            raise PlanError(
                f"unknown PATH implementation {self.path_impl!r}; "
                f"expected one of {PATH_IMPLS}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"unknown late policy {self.late_policy!r}; "
                f"expected one of {LATE_POLICIES}"
            )
        if isinstance(self.checkpoint_policy, dict):
            # Checkpoint round trip: EngineConfig(**asdict(config))
            # hands the nested policy back as a plain dict.
            object.__setattr__(
                self,
                "checkpoint_policy",
                CheckpointPolicy(**self.checkpoint_policy),
            )
        elif self.checkpoint_policy is not None and not isinstance(
            self.checkpoint_policy, CheckpointPolicy
        ):
            raise ValueError(
                "checkpoint_policy must be a CheckpointPolicy (or None), "
                f"got {self.checkpoint_policy!r}"
            )

    def with_overrides(self, **overrides: object) -> "EngineConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(
                f"unknown EngineConfig field(s): {sorted(unknown)}"
            )
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class QueryStats:
    """Per-query execution counters (see :meth:`QueryHandle.stats`)."""

    name: str
    backend: str
    #: Coalesced result count (sga) / current Answer size (dd).
    results: int
    #: Raw result insertions delivered (sga) / cumulative Answer
    #: additions across epochs (dd).
    inserts: int
    #: Raw result retractions delivered (sga) / cumulative Answer
    #: removals across epochs (dd).
    retractions: int
    #: Retained tuples: the whole shared dataflow for sga (state is
    #: shared between queries and not attributable), this query's
    #: relations + closures for dd.
    state_size: int
    live: bool
    #: Raw result events delivered (inserts + retractions) — the
    #: push-delivery volume a subscriber to this query observes.
    events: int = 0
    #: Last performed window movement (engine boundary for sga, this
    #: query's epoch for dd); ``None`` before streaming starts.
    watermark: int | None = None
    #: Wall-clock time (``time.time()``) of the most recent window
    #: movement; ``None`` before streaming starts.  ``time.time() -
    #: last_advance_at`` is the watermark lag the serving layer's
    #: ``/metrics`` endpoint reports.
    last_advance_at: float | None = None


class QueryHandle:
    """A registered persistent query: results, stats, lifecycle."""

    def __init__(self, engine: "StreamingGraphEngine", name: str):
        self._engine = engine
        self.name = name
        self._live = True

    @property
    def is_live(self) -> bool:
        """False once the query has been unregistered (the handle stays
        readable; it just receives no new results)."""
        return self._live

    def unregister(self) -> None:
        """Detach this query from the engine (see
        :meth:`StreamingGraphEngine.unregister`)."""
        self._engine.unregister(self.name)

    # Per-backend surface -------------------------------------------------
    def results(self):
        raise NotImplementedError

    def coverage(self):
        raise NotImplementedError

    def valid_at(self, t: int) -> set[tuple[Vertex, Vertex, Label]]:
        raise NotImplementedError

    def result_count(self) -> int:
        raise NotImplementedError

    def clear_results(self) -> None:
        raise NotImplementedError

    def stats(self) -> QueryStats:
        raise NotImplementedError

    def explain(self, level: str = "logical") -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._live else "detached"
        return f"<QueryHandle {self.name!r} ({state})>"


def _plan_max_window(plan: Plan) -> int:
    """The largest WSCAN window size in a plan (expiry-horizon bound)."""
    sizes = [0]
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, WScan):
            sizes.append(node.window.size)
        stack.extend(node.children())
    return max(sizes)


class SgaQueryHandle(QueryHandle):
    """Handle over a query compiled into the shared SGA dataflow."""

    def __init__(
        self,
        engine: "StreamingGraphEngine",
        name: str,
        plan: Plan,
        sink: SinkOp,
        root: PhysicalOperator | None,
        options: tuple,
    ):
        super().__init__(engine, name)
        self.plan = plan
        self._sink = sink
        self._root = root
        self._options = options
        self._plan_slide = plan_slide(plan)
        self._max_window = _plan_max_window(plan)

    def results(self) -> list[SGT]:
        """Coalesced result sgts (non-destructive, repeatable pull)."""
        return self._sink.results()

    def coverage(self) -> dict[tuple[Vertex, Vertex, Label], list[Interval]]:
        """Net validity cover per result key, honouring retractions."""
        return self._sink.coverage()

    def valid_at(self, t: int) -> set[tuple[Vertex, Vertex, Label]]:
        """Result keys valid at instant ``t``.

        Temporal-read contract (uniform across backends, exclusive at
        interval ends: a result expiring at ``t`` is *not* valid at
        ``t``):

        * ``t`` at or behind the last performed window movement (this
          query's slide grid): answered exactly from retained covers;
        * ``t`` at or past the expiry horizon — the instant by which
          everything ingested so far has expired: exactly the empty set;
        * in between: raises :class:`~repro.errors.HorizonError` (the
          engine has not performed those window movements; call
          ``engine.advance_to(t)`` first), mirroring the dd backend.
        """
        if not self._engine._sga_can_read_at(
            t, self._plan_slide, self._max_window
        ):
            return set()
        return self._sink.valid_at(t)

    def result_count(self) -> int:
        """Raw (pre-coalescing) result insertions delivered."""
        return self._sink.insert_count

    def clear_results(self) -> None:
        """Drop accumulated results (operator state is kept)."""
        self._sink.clear()

    def stats(self) -> QueryStats:
        inserts = self._sink.insert_count
        total = len(self._sink.events)
        return QueryStats(
            name=self.name,
            backend="sga",
            results=len(self._sink.results()),
            inserts=inserts,
            retractions=total - inserts,
            state_size=self._engine.state_size(),
            live=self._live,
            events=total,
            watermark=self._engine.watermark,
            last_advance_at=self._engine.last_advance_at,
        )

    def explain(self, level: str = "logical") -> str:
        """Render this query's plan at a pipeline stage.

        ``"logical"`` (default) is the plan the query was registered
        with; ``"optimized"`` shows it after the relabel-fusion rewrite;
        ``"physical"`` compiles a standalone dataflow with this query's
        options (inside the session the actual dataflow is shared, so
        operators may be fused with other queries' plans).
        """
        from repro.ql.pipeline import explain_plan_stage

        return explain_plan_stage(self.plan, level, self._options)


class ShardedQueryHandle(QueryHandle):
    """Handle over a query partitioned across shard workers.

    The same surface as :class:`SgaQueryHandle`; every read merges the
    per-shard sinks.  Each result event lives on exactly one shard
    (partitioned outputs are emitted once, replicated outputs are
    partition-filtered in front of the sinks), so the merged stream is
    the serial engine's event multiset and the set/cover surfaces are
    identical to ``shards=1``.
    """

    def __init__(
        self,
        engine: "StreamingGraphEngine",
        name: str,
        plan: Plan,
        options: tuple,
    ):
        super().__init__(engine, name)
        self.plan = plan
        self._options = options
        self._plan_slide = plan_slide(plan)
        self._max_window = _plan_max_window(plan)
        #: per-shard sinks (inline transport): held directly so the
        #: handle stays readable after unregister prunes them
        self._sinks = engine._sharded.sink_refs(name)

    def _events(self):
        if self._sinks is not None:
            out = []
            for sink in self._sinks:
                out.extend(sink.events)
            return out
        return self._engine._sharded.events(self.name)

    def results(self) -> list[SGT]:
        """Coalesced decoded result sgts, merged across shards."""
        interner = self._engine._interner
        decode = interner.decode_sgt
        return coalesce_stream(
            decode(e.sgt) for e in self._events() if e.sign == INSERT
        )

    def coverage(self) -> dict[tuple[Vertex, Vertex, Label], list[Interval]]:
        """Net validity cover per result key, merged across shards."""
        return merged_coverage(self._events(), self._engine._interner)

    def valid_at(self, t: int) -> set[tuple[Vertex, Vertex, Label]]:
        """Result keys valid at instant ``t`` (see
        :meth:`SgaQueryHandle.valid_at` for the temporal-read contract,
        which is identical)."""
        if not self._engine._sga_can_read_at(
            t, self._plan_slide, self._max_window
        ):
            return set()
        return {
            key
            for key, intervals in self.coverage().items()
            if any(iv.contains(t) for iv in intervals)
        }

    def _event_counts(self) -> tuple[int, int]:
        """(inserts, total) across shards — via the held sink refs when
        inline (detached handles stay countable), else counted inside
        the workers (no events cross a process boundary)."""
        if self._sinks is not None:
            inserts = sum(sink.insert_count for sink in self._sinks)
            total = sum(len(sink.events) for sink in self._sinks)
            return inserts, total
        return self._engine._sharded.event_counts(self.name)

    def result_count(self) -> int:
        """Raw (pre-coalescing) result insertions across all shards."""
        return self._event_counts()[0]

    def clear_results(self) -> None:
        """Drop accumulated results on every shard (state is kept)."""
        if self._sinks is not None:
            for sink in self._sinks:
                sink.clear()
            return
        self._engine._sharded.clear_results(self.name)

    def stats(self) -> QueryStats:
        inserts, total = self._event_counts()
        return QueryStats(
            name=self.name,
            backend="sga",
            results=len(self.results()),
            inserts=inserts,
            retractions=total - inserts,
            state_size=self._engine.state_size(),
            live=self._live,
            events=total,
            watermark=self._engine.watermark,
            last_advance_at=self._engine.last_advance_at,
        )

    def explain(self, level: str = "logical") -> str:
        """Render this query's plan (see :meth:`SgaQueryHandle.explain`;
        the physical level shows the unsharded compilation — each shard
        runs that topology plus the spliced exchange operators)."""
        from repro.ql.pipeline import explain_plan_stage

        return explain_plan_stage(self.plan, level, self._options)


class DDQueryHandle(QueryHandle):
    """Handle over a query evaluated by the DD baseline runtime.

    The DD baseline is snapshot-based: it maintains the *current* Answer
    relation per epoch and has neither validity intervals nor
    materialized paths.  ``valid_at(t)`` therefore answers from the
    recorded per-epoch history (advancing through empty epochs if ``t``
    lies ahead of the stream), ``results()`` returns the current Answer
    keys, and ``coverage()`` is unsupported.
    """

    def __init__(
        self,
        engine: "StreamingGraphEngine",
        name: str,
        sgq: SGQ,
        runtime: DDRuntime,
        on_result: Callable | None,
    ):
        super().__init__(engine, name)
        self.sgq = sgq
        self.window = sgq.window
        self._runtime = runtime
        self._callback = on_result
        self._boundaries: list[int] = []
        self._answers: list[frozenset] = []
        self._last_answer: frozenset = frozenset()
        #: wall-clock time of the most recent epoch movement
        self._last_advance_at: float | None = None

    # Epoch bookkeeping ---------------------------------------------------
    def advance_epoch(self, boundary: int, inserts: list[SGE]) -> set:
        """Apply one epoch (see :meth:`DDRuntime.advance_epoch`) and
        record its Answer snapshot for :meth:`valid_at` history.

        A time-based sliding window moves at *every* multiple of the
        slide interval (Definition 16), so a jump over quiet slides
        first steps through the intervening empty epochs — expirations
        are then attributed to the epoch that performs them, which keeps
        :meth:`valid_at` exact for instants between batches of arrivals.
        The stepping is bounded by the window extent, not the gap: once
        the runtime's retained state drains, the Answer is constantly
        empty and the remaining distance is one direct jump."""
        current = self._runtime.boundary
        if current is not None:
            slide = self.window.slide
            step = current + slide
            while step < boundary and self._runtime.has_retained_state:
                self._record(step, self._runtime.advance_epoch(step, []))
                step += slide
        answer = self._runtime.advance_epoch(boundary, inserts)
        if current is None or boundary > current:
            self._last_advance_at = time.time()
        self._record(boundary, answer)
        return answer

    def _record(self, boundary: int, answer: set) -> None:
        """Record one epoch's Answer for history/callbacks/counters.

        Only *changes* are stored: the Answer is constant between
        recorded boundaries, so :meth:`valid_at`'s latest-at-or-before
        lookup stays exact while an unchanged epoch costs one set
        equality and no allocation (the common case in quiet stretches —
        this bookkeeping sits inside the benchmark-timed apply loop).
        Per-epoch delta sets are computed only for push delivery; the
        pull-side counters derive lazily from the history
        (:meth:`_delivery_counts`).
        """
        if answer == self._last_answer:
            return
        frozen = frozenset(answer)
        if self._callback is not None:
            for pair in frozen - self._last_answer:
                self._callback((pair, 1))
            for pair in self._last_answer - frozen:
                self._callback((pair, -1))
        self._last_answer = frozen
        if self._boundaries and self._boundaries[-1] == boundary:
            self._answers[-1] = frozen
        else:
            self._boundaries.append(boundary)
            self._answers.append(frozen)

    def _delivery_counts(self) -> tuple[int, int]:
        """Cumulative Answer (additions, removals) across the recorded
        history — the pull-side equivalent of the callback deltas."""
        inserts = 0
        retractions = 0
        previous: frozenset = frozenset()
        for snapshot in self._answers:
            inserts += len(snapshot - previous)
            retractions += len(previous - snapshot)
            previous = snapshot
        return inserts, retractions

    def _ingest(self, edges: list[SGE]) -> None:
        """Apply a timestamp-ordered edge batch, one epoch per run of
        same-boundary edges; late runs join the current epoch with their
        true timestamps (subject to the engine's late policy)."""
        window = self.window
        i = 0
        n = len(edges)
        while i < n:
            boundary = window.slide_boundary(edges[i].t)
            j = i + 1
            while j < n and window.slide_boundary(edges[j].t) == boundary:
                j += 1
            run = edges[i:j]
            i = j
            current = self._runtime.boundary
            if current is not None and boundary < current:
                kept = [
                    e for e in run if self._engine._keep_late(e, current)
                ]
                if kept:
                    self.advance_epoch(current, kept)
            else:
                self.advance_epoch(boundary, run)

    def _advance_to(self, t: int) -> None:
        boundary = self.window.slide_boundary(t)
        if self._runtime.boundary is None or boundary > self._runtime.boundary:
            self.advance_epoch(boundary, [])

    # Query surface -------------------------------------------------------
    def answer(self) -> set:
        """The current Answer relation (DD vocabulary: vertex pairs)."""
        return self._runtime.answer()

    def results(self) -> list[tuple[Vertex, Vertex, Label]]:
        """Current Answer keys, ``(src, trg, "Answer")``, deterministic
        order.  No validity intervals, no paths — the baseline cannot
        produce them (which is part of the paper's point)."""
        return sorted(
            ((u, v, ANSWER) for u, v in self._runtime.answer()),
            key=repr,
        )

    def coverage(self):
        raise ExecutionError(
            "the dd backend does not track validity intervals; "
            "use valid_at(t) or answer()"
        )

    def valid_at(self, t: int) -> set[tuple[Vertex, Vertex, Label]]:
        """Answer keys at the epoch snapshot containing instant ``t``.

        DD batches a whole slide into one logical timestamp, so the
        epoch at boundary ``B`` corresponds to the snapshot at the
        epoch's *final* instant ``B + beta - 1`` — compare against the
        sga backend at those instants (mid-epoch instants are below
        DD's temporal resolution).

        This is a **pure read** following the same temporal-read
        contract as the sga backend (interval ends exclusive): instants
        up to the last performed epoch answer from the recorded history,
        instants at or past the runtime's expiry horizon are exactly the
        empty set (every inserted edge has expired by then), and the
        instants in between — window movements the baseline has *not yet
        performed* — raise :class:`~repro.errors.HorizonError` rather
        than silently advancing the stream; call
        :meth:`StreamingGraphEngine.advance_to` first.
        """
        boundary = self.window.slide_boundary(t)
        current = self._runtime.boundary
        if current is None or boundary > current:
            if boundary >= self._runtime.horizon:
                return set()
            raise HorizonError(
                f"instant {t} is ahead of the last performed window "
                f"movement (epoch {current}); the dd backend cannot "
                f"answer about epochs it has not evaluated — call "
                f"engine.advance_to({t}) first"
            )
        index = bisect.bisect_right(self._boundaries, boundary) - 1
        if index < 0:
            return set()
        return {(u, v, ANSWER) for u, v in self._answers[index]}

    def result_count(self) -> int:
        """Cumulative Answer additions across epochs."""
        return self._delivery_counts()[0]

    def clear_results(self) -> None:
        """Drop the recorded epoch history (runtime state is kept)."""
        self._boundaries.clear()
        self._answers.clear()

    def stats(self) -> QueryStats:
        inserts, retractions = self._delivery_counts()
        return QueryStats(
            name=self.name,
            backend="dd",
            results=len(self._runtime.answer()),
            inserts=inserts,
            retractions=retractions,
            state_size=self._runtime.state_size(),
            live=self._live,
            events=inserts + retractions,
            watermark=self._runtime.boundary,
            last_advance_at=self._last_advance_at,
        )

    def explain(self, level: str = "logical") -> str:
        """The Regular Query program and window the runtime evaluates.

        The dd baseline interprets the rule program directly — there is
        no plan pipeline, so every level renders the same program (the
        ``level`` parameter exists for handle-API parity with the sga
        backend: code written against one backend must not crash on the
        documented one-line backend flip).
        """
        if level not in ("source", "logical", "optimized", "physical"):
            raise PlanError(
                f"unknown explain level {level!r}; expected 'source', "
                "'logical', 'optimized' or 'physical'"
            )
        return f"DD[{self.window}]\n{self.sgq.program}"


class StreamingGraphEngine:
    """A long-lived engine session evaluating many persistent queries.

    One engine owns one scheduler and (for the sga backend) one shared
    :class:`~repro.dataflow.graph.DataflowGraph` with a common
    sub-expression cache per compile-option set: queries registered with
    the same options share every common sub-plan — one WSCAN per
    (label, window), one Δ-PATH index per shared closure.

    Example::

        engine = StreamingGraphEngine(EngineConfig(path_impl="spath"))
        reach = engine.register(SGQ.from_text(REACH, w), name="reach")
        pairs = engine.register(SGQ.from_text(PAIRS, w), name="pairs")
        engine.push_many(stream)
        reach.valid_at(t), pairs.results()
        engine.unregister("pairs")      # prunes now-unshared operators

    Flipping ``EngineConfig(backend="dd")`` runs the same queries on the
    DD baseline behind the same handles.
    """

    def __init__(self, config: EngineConfig | None = None, **overrides: object):
        if config is None:
            config = EngineConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = config.with_overrides(**overrides)
        self._config = config
        self._handles: dict[str, QueryHandle] = {}
        self._auto = 0
        #: serializes lifecycle and streaming mutations (register /
        #: unregister / push / push_many / advance_to / delete / tap /
        #: close) so one session can be driven from several threads —
        #: the serving layer's per-tenant workers and any direct
        #: multi-threaded embedding.  Reentrant: an on_result callback
        #: (fired under the lock, inside push_many) may itself call
        #: register/unregister on the same thread.
        self._lifecycle_lock = threading.RLock()
        # sga backend state
        self._graph = DataflowGraph()
        self._caches: dict[tuple, dict[Plan, PhysicalOperator]] = {}
        self._executor: Executor | None = None
        #: vertex dictionary for interned execution (columnar or vector):
        #: ids flow inside the dataflow, every read surface decodes
        #: through this table
        self._interner: Interner | None = (
            Interner()
            if config.backend == "sga"
            and config.execution in ("columnar", "vector")
            else None
        )
        #: taps observe raw intermediate event streams, whose order the
        #: vector mode's label grouping would change; any tap therefore
        #: pins ingress to segmented runs (see _refresh_vector_mode)
        self._has_tap = False
        #: partition-parallel runtime (``shards > 1``); the session
        #: delegates every streaming and lifecycle call to it
        self._sharded: ShardedSgaRuntime | None = (
            ShardedSgaRuntime(config, self._interner)
            if config.shards > 1
            else None
        )
        # dd backend state: distinct dropped edges (every registered
        # query consults the late policy for the same edge in turn, so
        # the counter must dedupe across queries).
        self._dd_late_dropped: set[tuple] = set()
        # periodic auto-checkpointing (enable_auto_checkpoint): armed
        # with a store + policy, checked after every ingest/advance at
        # the watermark boundary the operation just reached
        self._auto_store = None
        self._auto_policy: CheckpointPolicy | None = None
        self._auto_boundary: int | None = None
        self._auto_time = time.monotonic()
        #: periodic checkpoints taken / last id (observability surface)
        self.auto_checkpoint_count = 0
        self.last_auto_checkpoint_id: str | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def backend(self) -> str:
        return self._config.backend

    @property
    def query_names(self) -> tuple[str, ...]:
        """Live query names in registration order."""
        return tuple(self._handles)

    @property
    def started(self) -> bool:
        """True once the engine has consumed stream input."""
        if self._sharded is not None:
            return self._sharded.started
        if self._config.backend == "sga":
            return (
                self._executor is not None
                and self._executor.current_boundary is not None
            )
        return any(
            h._runtime.boundary is not None
            for h in self._dd_handles()
        )

    @property
    def slide(self) -> int:
        """The slide interval driving watermark/epoch advancement."""
        if self._sharded is not None:
            return self._sharded.slide
        if self._config.backend == "sga":
            if self._executor is not None:
                return self._executor.slide
            return self._watermark_slide()
        handles = self._dd_handles()
        if not handles:
            raise ExecutionError("no queries registered")
        return min(h.window.slide for h in handles)

    @property
    def late_count(self) -> int:
        """Late edges discarded under ``late_policy="drop"``."""
        if self._sharded is not None:
            return self._sharded.late_count
        if self._config.backend == "sga":
            return self._executor.late_count if self._executor else 0
        return len(self._dd_late_dropped)

    @property
    def watermark(self) -> int | None:
        """The last performed window movement (``None`` before the
        stream starts).  For the dd backend: the furthest epoch any
        registered query has performed."""
        if self._sharded is not None:
            return self._sharded._boundary
        if self._config.backend == "sga":
            return (
                self._executor.current_boundary
                if self._executor is not None
                else None
            )
        boundaries = [
            h._runtime.boundary
            for h in self._dd_handles()
            if h._runtime.boundary is not None
        ]
        return max(boundaries) if boundaries else None

    @property
    def last_advance_at(self) -> float | None:
        """Wall-clock time of the most recent window movement (``None``
        before the stream starts) — ``time.time() - last_advance_at``
        is the watermark lag the serving layer reports."""
        if self._sharded is not None:
            return self._sharded.last_advance_at
        if self._config.backend == "sga":
            return (
                self._executor.last_advance_at
                if self._executor is not None
                else None
            )
        stamps = [
            h._last_advance_at
            for h in self._dd_handles()
            if h._last_advance_at is not None
        ]
        return max(stamps) if stamps else None

    def handle(self, name: str) -> QueryHandle:
        """The handle of a live query by name."""
        try:
            return self._handles[name]
        except KeyError as exc:
            raise PlanError(f"unknown query {name!r}") from exc

    def decode(self, ident: int) -> Vertex:
        """The original vertex value behind an interned id.

        Under columnar execution the dataflow carries dense vertex ids;
        every engine read surface decodes transparently, but code
        attached *directly* to the shared graph (custom operators or
        sinks) observes raw ids — this is the sanctioned way to map them
        back.  Under ``execution="rows"`` no interning happens and the
        value is returned unchanged.

        Raises
        ------
        DecodeError
            For an id this engine never interned (negative, out of
            range, or minted by a *different* engine instance — dense
            ids are engine-private).
        """
        if self._interner is None:
            return ident
        return self._interner.value(ident)

    # ------------------------------------------------------------------
    # Lifecycle: register / unregister (live)
    # ------------------------------------------------------------------
    def register(
        self,
        query: "Query | SGQ | Plan",
        name: str | None = None,
        on_result: Callable | None = None,
        **overrides: object,
    ) -> QueryHandle:
        """Attach a persistent query; works while the stream is live.

        Parameters
        ----------
        query:
            A first-class :class:`~repro.ql.query.Query` (any dialect;
            its :class:`~repro.ql.query.CompileOptions` become per-query
            overrides, with explicit ``overrides`` kwargs winning), an
            :class:`~repro.query.sgq.SGQ` (Regular Query + window), or
            a hand-built logical :class:`~repro.algebra.operators.Plan`
            (sga backend only — the dd baseline needs the rule program).
        name:
            Handle name (auto-generated ``"q<N>"`` when omitted).
        on_result:
            Push-delivery callback.  For sga it receives each raw result
            :class:`~repro.dataflow.graph.Event` as it is emitted —
            coalescing the received events yields exactly ``results()``.
            For dd it receives ``((src, trg), sign)`` Answer deltas per
            epoch.
        overrides:
            Per-query :class:`EngineConfig` overrides; only the
            compile-time fields (``path_impl``, ``materialize_paths``,
            ``coalesce_intermediate``) may differ per query.

        See the module docstring for mid-stream registration semantics
        (operator re-sharing, watermark alignment, backfill rules).
        """
        with self._lifecycle_lock:
            if name is None:
                name = f"q{self._auto}"
                self._auto += 1
            if name in self._handles:
                raise PlanError(f"query name {name!r} already registered")
            if isinstance(query, Query):
                overrides = {**query.options.overrides(), **overrides}
            bad = set(overrides) - PER_QUERY_OPTIONS
            if bad:
                raise ValueError(
                    f"engine-wide config field(s) {sorted(bad)} cannot be "
                    f"overridden per query; per-query options are "
                    f"{sorted(PER_QUERY_OPTIONS)}"
                )
            if self._config.backend == "sga":
                handle = self._register_sga(query, name, on_result, overrides)
            else:
                handle = self._register_dd(query, name, on_result, overrides)
            self._handles[name] = handle
            self._refresh_vector_mode()
            return handle

    def unregister(self, name: str) -> None:
        """Detach a query; works while the stream is live.

        For the sga backend, every operator reachable only through the
        query's sink is pruned from the dataflow and the corresponding
        shared-subexpression cache entries are evicted; operators still
        shared with surviving queries (or pinned by :meth:`tap` sinks)
        are untouched.  The returned-earlier handle stays readable but
        receives no further results.
        """
        with self._lifecycle_lock:
            handle = self._handles.get(name)
            if handle is None:
                raise PlanError(f"unknown query {name!r}")
            if isinstance(handle, ShardedQueryHandle):
                self._sharded.unregister(name)  # may refuse (process)
            del self._handles[name]
            handle._live = False
            if isinstance(handle, SgaQueryHandle):
                removed = self._graph.prune([handle._sink])
                for cache in self._caches.values():
                    evict_dead(cache, removed)
            self._refresh_vector_mode()

    def _register_sga(
        self,
        query: SGQ | Plan,
        name: str,
        on_result: Callable | None,
        overrides: dict,
    ) -> QueryHandle:
        config = self._config.with_overrides(**overrides)
        if isinstance(query, Query):
            plan = query.plan()
        elif isinstance(query, SGQ):
            plan = sgq_to_sga(query)
        else:
            plan = query
        options = (
            config.path_impl,
            config.materialize_paths,
            config.coalesce_intermediate,
        )
        interner = self._interner
        if self._sharded is not None:
            compiled = intern_plan(plan, interner)
            callback = (
                _decoding_callback(on_result, interner)
                if on_result is not None
                else None
            )
            self._sharded.register(name, compiled, options, callback)
            return ShardedQueryHandle(self, name, plan, options)
        cache = self._caches.setdefault(options, {})
        live = self.started
        # Under interned execution, vertex-valued predicate constants
        # must compare against ids; the translated plan is compiled (and
        # keys the shared-subexpression cache), the original stays on the
        # handle for explain().
        compiled = intern_plan(plan, interner) if interner is not None else plan
        sink = compile_into(compiled, self._graph, cache, *options)
        sink.interner = interner
        if self._config.execution == "vector":
            # Vector execution runs hot operator state in the
            # struct-of-arrays layout (int64 join tables, flat-pair
            # adjacency, slotted spanning trees).  Applied post-compile
            # over the whole dataflow: freshly compiled operators are
            # empty, shared cached operators are already configured and
            # the call is a no-op for them.
            apply_state_layout(self._graph.operators, "arrays")
        if on_result is not None:
            if interner is not None:
                on_result = _decoding_callback(on_result, interner)
            sink.set_callback(on_result)
        root = self._graph.producer_of(sink)
        handle = SgaQueryHandle(self, name, plan, sink, root, options)
        if live:
            self._splice_live(handle, plan, sink, root)
        return handle

    def _splice_live(
        self,
        handle: SgaQueryHandle,
        plan: Plan,
        sink: SinkOp,
        root: PhysicalOperator | None,
    ) -> None:
        """Align a mid-stream registration with the live dataflow."""
        executor = self._executor
        assert executor is not None and executor.current_boundary is not None
        # A finer-slided query tightens the watermark cadence from here
        # on (boundaries stay monotone; already-passed coarse boundaries
        # are not revisited).  The gcd — not the min — keeps the current
        # boundary on the new grid: with slide 10 at boundary 30, a
        # min() switch to slide 4 would step 30→34→38→42 and overshoot
        # boundary 40, making perfectly ordered edges look late.
        executor.slide = math.gcd(executor.slide, plan_slide(plan))
        # Initialize new sources to the current boundary (a no-op for
        # existing sources) and cascade watermarks across the freshly
        # spliced cached-producer -> new-consumer edges.
        self._graph.push_watermark(executor.current_boundary)
        self._graph.sync_watermarks()
        # Full-plan re-share: backfill the accumulated result events of
        # the richest live handle rooted at the same operator.
        donor: SgaQueryHandle | None = None
        for other in self._handles.values():
            if (
                isinstance(other, SgaQueryHandle)
                and other is not handle
                and other._root is root
            ):
                if donor is None or len(other._sink.events) > len(
                    donor._sink.events
                ):
                    donor = other
        if donor is not None:
            for event in list(donor._sink.events):
                sink.on_event(0, event)

    def _register_dd(
        self,
        query: SGQ | Plan,
        name: str,
        on_result: Callable | None,
        overrides: dict,
    ) -> DDQueryHandle:
        if overrides:
            raise ValueError(
                "the dd backend compiles no physical plans; per-query "
                f"overrides {sorted(overrides)} do not apply"
            )
        if isinstance(query, Query):
            # Any dialect with a rule program works; rpq raises inside.
            query = query.sgq()
        if not isinstance(query, SGQ):
            raise PlanError(
                "the dd backend evaluates Regular Query programs; "
                "register an SGQ (program + window), not a physical plan"
            )
        runtime = DDRuntime(
            query.program,
            query.window,
            query.label_windows,
            batch_size=self._config.batch_size,
        )
        return DDQueryHandle(self, name, query, runtime, on_result)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def push(self, edge: SGE) -> None:
        """Insert one streaming graph edge (advances the window first)."""
        with self._lifecycle_lock, gc_paused():
            if self._sharded is not None:
                self._sharded.push(edge)
            elif self._config.backend == "sga":
                self._ensure_executor().push_edge(edge)
            else:
                for handle in self._require_dd_handles():
                    handle._ingest([edge])
            self._maybe_auto_checkpoint()

    def delete(self, edge: SGE) -> None:
        """Explicitly delete a previously inserted edge (negative tuple).

        sga backend only: the DD baseline models removal exclusively as
        window expiry.
        """
        if self._config.backend != "sga":
            raise ExecutionError(
                "explicit deletions are not supported by the dd backend"
            )
        with self._lifecycle_lock, gc_paused():
            if self._sharded is not None:
                self._sharded.delete(edge)
            else:
                self._ensure_executor().delete_edge(edge)
            self._maybe_auto_checkpoint()

    def advance_to(self, t: int) -> None:
        """Advance the window/epochs without inserting (stream silence)."""
        with self._lifecycle_lock, gc_paused():
            if self._sharded is not None:
                self._sharded.advance_to(t)
            elif self._config.backend == "sga":
                self._ensure_executor().advance_to(t)
            else:
                for handle in self._require_dd_handles():
                    handle._advance_to(t)
            self._maybe_auto_checkpoint()

    def push_many(self, stream: Iterable[SGE]) -> RunStats:
        """Feed a whole timestamp-ordered stream through the shared
        batch scheduler — the fast path: edges are accumulated per slide
        (optionally capped at ``batch_size``) and flushed through the
        engine in bulk, with no per-edge Python call overhead.  Returns
        per-slide timing statistics.

        Streaming holds the engine's lifecycle lock for the whole run:
        concurrent ``register`` / ``unregister`` calls from other
        threads serialize against it — each observes the stream either
        entirely before or entirely after its own splice point, exactly
        as if the calls had been issued between ``push_many`` batches.

        Like every streaming call, it runs with CPython's cyclic garbage
        collector paused (:func:`~repro.core.gcpause.gc_paused`): the
        engine frees its state by reference counting alone.
        """
        with self._lifecycle_lock, gc_paused():
            if self._sharded is not None:
                stats = self._sharded.push_many(stream)
            elif self._config.backend == "sga":
                stats = self._ensure_executor().run(stream)
            else:
                handles = self._require_dd_handles()
                min_slide = min(h.window.slide for h in handles)

                def apply(boundary: int, edges: list[SGE]) -> None:
                    for handle in handles:
                        handle._ingest(edges)

                scheduler = BatchScheduler(min_slide, self._config.batch_size)
                stats = scheduler.run(stream, apply)
            self._maybe_auto_checkpoint()
            return stats

    #: ``run`` is the familiar name from the legacy facades.
    run = push_many

    # ------------------------------------------------------------------
    # Resource lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine-held OS resources.

        With ``shards > 1`` and ``shard_transport="process"`` this stops
        the forked shard workers — read results *before* closing; reads
        and streaming after close raise :class:`ExecutionError`.  A
        no-op for every other configuration, so generic code can always
        call it — or use the engine as a context manager::

            with StreamingGraphEngine(EngineConfig(shards=4,
                    shard_transport="process")) as engine:
                ...

        Idempotent and thread-safe: a double (or concurrent) close is a
        no-op, and a handle read racing the close gets either its result
        or the poisoned :class:`ExecutionError` — the server drains
        tenants concurrently with subscriber reads.
        """
        with self._lifecycle_lock:
            if self._sharded is not None:
                self._sharded.shutdown()

    def __enter__(self) -> "StreamingGraphEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared-dataflow introspection (sga backend)
    # ------------------------------------------------------------------
    def tap(self, label: Label) -> "SinkOp | MergedTapSink":
        """Attach a sink to the intermediate stream of a derived label.

        SGA is closed — every operator's output is a streaming graph —
        so intermediate results are first-class streams too.  The
        returned sink collects the label's sgts from the moment of the
        call on.  A tap pins its producer: :meth:`unregister` never
        prunes operators a tap still observes.

        Sharded sessions (inline transport) tap every shard's instance
        of the producing operator and return a
        :class:`~repro.engine.sharded.MergedTapSink` exposing the same
        read surface, with events merged back into the global emission
        order — the same event multiset (and results / coverage /
        ``valid_at``) as the ``shards=1`` tap stream.
        """
        self._require_sga("tap")
        with self._lifecycle_lock:
            if self._sharded is not None:
                sink = self._sharded.tap(label, self._interner)
                self._has_tap = True
                return sink
            for op in self._graph.operators:
                produced = getattr(op, "out_label", None)
                if produced is None:
                    produced = getattr(op, "label", None)
                if produced == label and not isinstance(op, SinkOp):
                    sink = SinkOp(name=f"tap[{label}]")
                    if self._interner is not None:
                        # Tap events are user-facing raw stream data:
                        # decode on arrival so ``tap.events`` carries
                        # real vertices.
                        sink.interner = self._interner
                        sink.decode_eagerly = True
                    self._graph.add(sink)
                    self._graph.connect(op, sink, 0)
                    self._has_tap = True
                    self._refresh_vector_mode()
                    return sink
            raise PlanError(f"no operator produces label {label!r}")

    def operator_count(self) -> int:
        """Operators in the shared dataflow (excluding sinks).

        Sharded: one shard's topology — every shard runs the same
        operator set (including the spliced exchange operators).
        """
        self._require_sga("operator_count")
        if self._sharded is not None:
            return self._sharded.operator_count()
        return sum(
            1 for op in self._graph.operators if not isinstance(op, SinkOp)
        )

    def sharing_savings(self) -> int:
        """Operators saved by sharing, vs compiling each query alone."""
        self._require_sga("sharing_savings")
        if self._sharded is not None:
            raise ExecutionError(
                "sharing_savings requires shards=1 (per-shard topologies "
                "include exchange operators the isolated compile lacks)"
            )
        isolated = 0
        for handle in self._handles.values():
            assert isinstance(handle, SgaQueryHandle)
            physical = compile_plan(handle.plan, *handle._options)
            isolated += sum(
                1
                for op in physical.graph.operators
                if not isinstance(op, SinkOp)
            )
        return isolated - self.operator_count()

    def state_size(self) -> int:
        """Total tuples retained across the engine's stateful operators.

        Sharded: summed over all shards — replicated state (windowed
        adjacencies, replication-zone operators) counts once per shard.

        Takes the lifecycle lock: the walk iterates operator-internal
        dicts, which a concurrent ``push_many`` resizes (``stats()``
        from a reader thread must not crash mid-ingest).
        """
        with self._lifecycle_lock:
            if self._sharded is not None:
                return self._sharded.state_size()
            if self._config.backend == "sga":
                return self._graph.state_size()
            return sum(h._runtime.state_size() for h in self._dd_handles())

    def state_breakdown(self) -> dict[str, dict]:
        """Per-operator ``{"rows": n, "bytes": estimate}`` across the
        engine's stateful operators (sharded: aggregated over shards;
        dd: one entry per query's runtime).  The diagnostics surface
        behind the serving layer's ``/metrics`` state section.
        """
        with self._lifecycle_lock:
            if self._sharded is not None:
                return self._sharded.state_breakdown()
            if self._config.backend == "sga":
                return self._graph.state_breakdown()
            return {
                f"dd[{h.name}]": h._runtime.state_breakdown()
                for h in self._dd_handles()
            }

    def set_result_callback(
        self, name: str, on_result: Callable | None
    ) -> None:
        """Install (or clear, with ``None``) a live query's push-delivery
        callback after registration.

        Semantics match the ``on_result`` parameter of :meth:`register`
        (decoded events for sga, Answer deltas for dd).  The serving
        layer uses this to re-attach subscriptions to queries that were
        re-registered by :meth:`restore`.
        """
        with self._lifecycle_lock:
            handle = self._handles.get(name)
            if handle is None:
                raise PlanError(f"unknown query {name!r}")
            if isinstance(handle, DDQueryHandle):
                handle._callback = on_result
                return
            callback = on_result
            if callback is not None and self._interner is not None:
                callback = _decoding_callback(callback, self._interner)
            if isinstance(handle, ShardedQueryHandle):
                self._sharded.set_callback(name, callback)
                return
            assert isinstance(handle, SgaQueryHandle)
            handle._sink.set_callback(callback)

    # ------------------------------------------------------------------
    # Durability: checkpoint / restore
    # ------------------------------------------------------------------
    def enable_auto_checkpoint(self, store, policy=None) -> None:
        """Arm periodic background checkpointing into ``store``.

        ``policy`` (default: ``config.checkpoint_policy``) decides the
        cadence: after every ingest/advance the engine checks, at the
        watermark boundary the operation just reached, whether
        ``every_slides`` slides or ``every_seconds`` seconds have
        elapsed since the last checkpoint and snapshots if so — the
        engine is quiescent between flushes, so every periodic
        checkpoint is as consistent as an explicit one.  A checkpoint
        failure propagates out of the triggering ingest call (the
        caller owns the store); the serve layer catches and counts
        these instead.  Pass ``store=None`` to disarm.
        """
        with self._lifecycle_lock:
            if store is None:
                self._auto_store = None
                self._auto_policy = None
                return
            policy = policy or self._config.checkpoint_policy
            if policy is None:
                raise ValueError(
                    "no checkpoint cadence: pass a CheckpointPolicy or "
                    "set EngineConfig.checkpoint_policy"
                )
            if not isinstance(policy, CheckpointPolicy):
                raise ValueError(
                    f"policy must be a CheckpointPolicy, got {policy!r}"
                )
            self._auto_store = store
            self._auto_policy = policy
            self._auto_boundary = self.watermark
            self._auto_time = time.monotonic()

    def _maybe_auto_checkpoint(self) -> None:
        """Cadence check after a streaming mutation (lock held)."""
        store = self._auto_store
        if store is None:
            return
        policy = self._auto_policy
        watermark = self.watermark
        slides = 0
        if watermark is not None:
            if self._auto_boundary is None:
                # First boundary observed becomes the cadence base.
                self._auto_boundary = watermark
            else:
                slides = (watermark - self._auto_boundary) // self.slide
        if not policy.due(
            slides_since=slides,
            seconds_since=time.monotonic() - self._auto_time,
        ):
            return
        self.last_auto_checkpoint_id = self.checkpoint(store, trigger="policy")
        self.auto_checkpoint_count += 1
        self._auto_boundary = watermark
        self._auto_time = time.monotonic()

    def inject_faults(self, plan) -> None:
        """Thread a :class:`~repro.fault.plan.FaultPlan` into the engine
        (tests/chaos drills).  Worker-site faults ship to the sharded
        process workers at spawn; arm the plan *before* streaming
        starts.  Checkpoint-store faults are configured on the store
        itself, serve-layer faults on the
        :class:`~repro.serve.tenants.TenantManager`.
        """
        with self._lifecycle_lock:
            if self._sharded is not None:
                self._sharded.fault_plan = plan

    def heartbeat(self, timeout: float = 5.0) -> list[bool]:
        """Liveness of the engine's execution backends, one flag per
        shard.  Serial engines (and inline shards) are in-process and
        trivially alive; the sharded process transport pings every
        worker — under supervision a dead worker is recovered before
        this returns ``True`` for it, without supervision it poisons
        the pool and raises (see
        :meth:`~repro.engine.sharded.ShardedSgaRuntime.heartbeat`).
        """
        if self._sharded is not None:
            return self._sharded.heartbeat(timeout)
        return [True]

    @property
    def recoveries(self) -> int:
        """Automatic worker recoveries performed (0 when unsupervised)."""
        return self._sharded.recoveries if self._sharded is not None else 0

    def checkpoint(self, store, **meta) -> str:
        """Snapshot this session into ``store``; returns the checkpoint id.

        The snapshot captures everything :meth:`restore` needs to rebuild
        an engine whose suffix replay is bit-identical to never having
        stopped: the full configuration, every registered query (plan +
        per-query options, in registration order), the vertex interner,
        the watermark clock, and each stateful operator's exact state
        (per shard, when ``shards > 1``).  Accumulated result events are
        included, so per-query sequence numbering continues seamlessly.

        Checkpoints are consistent by construction: the engine's
        lifecycle lock is held for the duration, so the snapshot sits on
        a watermark boundary between flushes — no in-flight deltas exist
        mid-lock.  Tap sinks are *not* checkpointed (they are
        observability surfaces; re-attach them after restore).

        Extra keyword arguments become manifest metadata (JSON values
        only) — the serving layer stamps tenant information this way.
        """
        writer = store.begin()
        try:
            self.write_checkpoint(writer)
            writer.set_meta(
                kind="engine",
                backend=self._config.backend,
                shards=self._config.shards,
                boundary=self.watermark,
                queries=list(self._handles),
                **meta,
            )
            return writer.commit()
        except BaseException:
            writer.abort()
            raise

    def write_checkpoint(self, writer, prefix: str = "") -> None:
        """Write this engine's snapshot blobs into an open
        :class:`~repro.checkpoint.store.CheckpointWriter`.

        The serving layer checkpoints many tenants into one atomic
        checkpoint by calling this with per-tenant prefixes
        (``tenants/<name>/``); :meth:`checkpoint` is the
        single-engine convenience over it.  Restore with
        :meth:`restore_from_reader` and the same prefix.
        """
        with self._lifecycle_lock:
            self._write_checkpoint(writer, prefix)

    def _write_checkpoint(self, writer, prefix: str) -> None:
        config = self._config
        queries: list[tuple] = []
        for name, handle in self._handles.items():
            if isinstance(handle, DDQueryHandle):
                queries.append(
                    (
                        name,
                        "dd",
                        handle.sgq,
                        {
                            "boundaries": list(handle._boundaries),
                            "answers": list(handle._answers),
                            "last_advance_at": handle._last_advance_at,
                        },
                    )
                )
            else:
                queries.append((name, "sga", handle.plan, handle._options))
        if self._sharded is not None:
            boundary = self._sharded._boundary
            late = self._sharded.late_count
            states = self._sharded.snapshot_shards()
        elif config.backend == "sga":
            if self._executor is not None:
                clock = self._executor.snapshot_clock()
                boundary, late = clock["boundary"], clock["late_count"]
            else:
                boundary, late = None, 0
            keys = operator_keys(
                [(n, h._sink) for n, h in self._handles.items()], self._graph
            )
            state: dict = {}
            for key, op in keys.items():
                blob = op.snapshot_state()
                if blob is not None:
                    state[key] = blob
            states = [state]
        else:
            boundary = self.watermark
            late = len(self._dd_late_dropped)
            states = [
                {
                    h.name: h._runtime.snapshot_state()
                    for h in self._dd_handles()
                }
            ]
        writer.put(
            f"{prefix}engine",
            {
                "backend": config.backend,
                "config": dataclasses.asdict(config),
                "queries": queries,
                "auto": self._auto,
                "boundary": boundary,
                "late_count": late,
                "interner": (
                    self._interner.snapshot_state()
                    if self._interner is not None
                    else None
                ),
                "dd_late_dropped": sorted(self._dd_late_dropped),
            },
        )
        for shard_id, state in enumerate(states):
            writer.put(f"{prefix}state-{shard_id}", state)

    @classmethod
    def restore(
        cls,
        store,
        config: EngineConfig | None = None,
        checkpoint_id: str | None = None,
        **overrides: object,
    ) -> "StreamingGraphEngine":
        """Rebuild an engine from a checkpoint in ``store``.

        Opens the latest checkpoint (or ``checkpoint_id``), re-registers
        every query in its original order and loads each stateful
        operator's snapshot, so replaying the stream suffix from the
        checkpointed watermark yields bit-identical results to the
        uninterrupted run.

        ``config`` / ``overrides`` may differ from the stored
        configuration **only** in ``shards`` and ``shard_transport``:
        restoring ``shards=N`` state under ``shards=M`` (both >= 2)
        re-partitions operator ownership offline
        (:func:`repro.checkpoint.rebalance.rebalance_states`) — result
        *sets*, coverage and ``valid_at`` are preserved exactly; raw
        event interleavings only for same-count restores.  Any other
        difference raises :class:`~repro.errors.CheckpointError`.

        Failures are all-or-nothing at the API level: a corrupted blob,
        a version mismatch or a topology mismatch raises a typed
        :class:`~repro.errors.CheckpointError` naming the offending
        piece, and no engine is returned — never a half-restored one.
        """
        reader = store.open(checkpoint_id)
        return cls.restore_from_reader(reader, config=config, **overrides)

    @classmethod
    def restore_from_reader(
        cls,
        reader,
        prefix: str = "",
        config: EngineConfig | None = None,
        **overrides: object,
    ) -> "StreamingGraphEngine":
        """:meth:`restore`, but from an already-open
        :class:`~repro.checkpoint.store.CheckpointReader` and an optional
        blob-name ``prefix`` — the counterpart of
        :meth:`write_checkpoint` for multi-engine checkpoints."""
        state = reader.get(f"{prefix}engine")
        try:
            stored = EngineConfig(**state["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {reader.checkpoint_id}: stored engine config "
                f"does not validate: {exc}"
            ) from exc
        if config is None:
            config = stored.with_overrides(**overrides) if overrides else stored
        elif overrides:
            config = config.with_overrides(**overrides)
        _check_restore_config(stored, config, reader.checkpoint_id)
        engine = cls(config)
        engine._restore_from(reader, state, stored.shards, prefix)
        return engine

    def _restore_from(
        self, reader, state: dict, old_shards: int, prefix: str = ""
    ) -> None:
        checkpoint_id = reader.checkpoint_id
        if self._interner is not None:
            values = state.get("interner")
            if values is None:
                raise CheckpointError(
                    f"checkpoint {checkpoint_id}: blob '{prefix}engine' "
                    "holds no interner table (field 'interner' is null)"
                )
            self._interner.restore_state(values)
        for entry in state["queries"]:
            name, kind = entry[0], entry[1]
            if kind == "sga":
                plan, options = entry[2], entry[3]
                self.register(
                    plan,
                    name=name,
                    path_impl=options[0],
                    materialize_paths=options[1],
                    coalesce_intermediate=options[2],
                )
            elif kind == "dd":
                self.register(entry[2], name=name)
            else:
                raise CheckpointError(
                    f"checkpoint {checkpoint_id}: query {name!r} has "
                    f"unknown kind {kind!r} in blob '{prefix}engine'"
                )
        blobs = [reader.get(f"{prefix}state-{i}") for i in range(old_shards)]
        boundary = state["boundary"]
        late = state["late_count"]
        if self._config.backend == "dd":
            table = blobs[0]
            for entry in state["queries"]:
                name, _, _, history = entry
                handle = self._handles[name]
                assert isinstance(handle, DDQueryHandle)
                blob = table.get(name)
                if blob is None:
                    raise CheckpointError(
                        f"checkpoint {checkpoint_id}: blob "
                        f"'{prefix}state-0' holds no runtime state for "
                        f"query {name!r}"
                    )
                handle._runtime.restore_state(blob)
                handle._boundaries = list(history["boundaries"])
                handle._answers = [frozenset(a) for a in history["answers"]]
                handle._last_answer = (
                    handle._answers[-1] if handle._answers else frozenset()
                )
                handle._last_advance_at = history["last_advance_at"]
            self._dd_late_dropped = {
                tuple(item) for item in state["dd_late_dropped"]
            }
        elif self._sharded is not None:
            if len(blobs) != self._config.shards:
                blobs = rebalance_states(blobs, self._config.shards)
            self._sharded.restore_shards(blobs, boundary, late)
        else:
            keys = operator_keys(
                [(n, h._sink) for n, h in self._handles.items()], self._graph
            )
            load_operator_states(keys, blobs[0])
            if boundary is not None:
                self._ensure_executor().restore_clock(
                    {"boundary": boundary, "late_count": late}
                )
        self._auto = state["auto"]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sga_can_read_at(
        self, t: int, query_slide: int, max_window: int
    ) -> bool:
        """The sga temporal-read guard shared by all sga-family handles.

        Returns True when ``valid_at(t)`` may answer from retained
        covers (``t``'s epoch on the query's slide grid is at or behind
        the last performed window movement), False when the exact answer
        is the empty set (engine not started, or ``t`` at/past the
        expiry horizon — every assigned validity interval has ended by
        ``boundary + engine_slide + max_window``), and raises
        :class:`~repro.errors.HorizonError` for the instants in between,
        mirroring the dd backend's contract.
        """
        if self._sharded is not None:
            boundary = self._sharded._boundary
            engine_slide = self._sharded._slide
        elif self._executor is not None:
            boundary = self._executor.current_boundary
            engine_slide = self._executor.slide
        else:
            boundary = None
            engine_slide = None
        if boundary is None:
            return False  # nothing ingested: the answer is exactly empty
        if t // query_slide * query_slide <= boundary:
            return True
        if t >= boundary + engine_slide + max_window:
            return False  # past the horizon: everything has expired
        raise HorizonError(
            f"instant {t} is ahead of the last performed window "
            f"movement (boundary {boundary}) but before the expiry "
            f"horizon; call engine.advance_to({t}) first"
        )

    def _require_sga(self, what: str) -> None:
        if self._config.backend != "sga":
            raise ExecutionError(f"{what} requires the sga backend")

    def _dd_handles(self) -> list[DDQueryHandle]:
        return [
            h for h in self._handles.values() if isinstance(h, DDQueryHandle)
        ]

    def _require_dd_handles(self) -> list[DDQueryHandle]:
        handles = self._dd_handles()
        if not handles:
            raise ExecutionError("no queries registered")
        return handles

    def _watermark_slide(self) -> int:
        """The watermark cadence covering every registered plan.

        The gcd — not the min — of the plan slides: the executor's
        boundary grid must hit *every* plan's slide multiples (the
        negative-tuple PATH performs its expiry re-derivations exactly
        on those movements), and with e.g. slides 10 and 4 a min() grid
        of 0,4,8,… would skip boundary 10 entirely.
        """
        slides = [
            plan_slide(h.plan)
            for h in self._handles.values()
            if isinstance(h, SgaQueryHandle)
        ]
        if not slides:
            raise ExecutionError("no queries registered")
        return math.gcd(*slides)

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            self._executor = Executor(
                self._graph,
                self._watermark_slide(),
                batch_size=self._config.batch_size,
                late_policy=self._config.late_policy,
                interner=self._interner,
                columnar_min_run=self._config.columnar_min_run,
                vector=self._config.execution == "vector",
            )
            self._refresh_vector_mode()
        return self._executor

    def _refresh_vector_mode(self) -> None:
        """Recompute the vector executor's ingress-grouping decision.

        The compile pipeline's analysis
        (:func:`repro.ql.pipeline.vector_ingress_mode`) proves or
        refutes that every registered plan is insensitive to
        within-slide cross-label reordering; the executor groups each
        slide per label only on proof.  Re-run on every register /
        unregister / tap, so live lifecycle changes take effect from the
        next slide on.
        """
        executor = self._executor
        if executor is None or not executor.vector:
            return
        from repro.ql.pipeline import vector_ingress_mode

        plans = [
            (h.plan, h._options)
            for h in self._handles.values()
            if isinstance(h, SgaQueryHandle)
        ]
        executor.vector_grouped = (
            not self._has_tap and vector_ingress_mode(plans) == "grouped"
        )

    def _keep_late(self, edge: SGE, boundary: int) -> bool:
        """Apply the engine's late policy to a dd-backend edge.

        Every registered query consults the policy for the same edge in
        turn (lateness depends on each query's window slide), so the
        drop counter collects distinct edge values — ``late_count``
        counts dropped *edges*, not per-query drops.  An exact duplicate
        of an already-dropped edge is not counted again.
        """
        policy = self._config.late_policy
        if policy == "allow":
            return True
        if policy == "raise":
            raise StreamOrderError(
                f"edge at t={edge.t} arrived behind the epoch boundary "
                f"{boundary}"
            )
        self._dd_late_dropped.add((edge.src, edge.trg, edge.label, edge.t))
        return False


def _decoding_callback(callback: Callable, interner: Interner) -> Callable:
    """Wrap a user on_result callback to decode interned events."""

    def deliver(event):
        callback(interner.decode_event(event))

    return deliver


def _check_restore_config(
    stored: EngineConfig, requested: EngineConfig, checkpoint_id: str
) -> None:
    """Reject restore-time config drift (only the shard layout may move).

    Operator state blobs are exact internal structures — restoring them
    under a different path implementation, execution mode or coalescing
    setting would attach state to operators that never produce it.  The
    shard count/transport is the sanctioned exception: the per-shard
    topologies are isomorphic across counts >= 2, so state re-partitions
    (see :mod:`repro.checkpoint.rebalance`); serial and sharded compiles
    differ structurally (exchange operators), so crossing the 1-shard
    boundary is refused.
    """
    # checkpoint_policy shapes supervision/cadence, not operator state,
    # so it may change freely between snapshot and restore.
    movable = {"shards", "shard_transport", "checkpoint_policy"}
    stored_fields = dataclasses.asdict(stored)
    requested_fields = dataclasses.asdict(requested)
    drift = sorted(
        name
        for name, value in requested_fields.items()
        if name not in movable and value != stored_fields[name]
    )
    if drift:
        raise CheckpointError(
            f"checkpoint {checkpoint_id} was taken under a different "
            f"engine configuration (field(s) {drift} differ); only "
            "'shards', 'shard_transport' and 'checkpoint_policy' may "
            "change on restore"
        )
    if stored.shards != requested.shards and (
        stored.shards < 2 or requested.shards < 2
    ):
        raise CheckpointError(
            f"checkpoint {checkpoint_id}: cannot restore shards="
            f"{stored.shards} state into shards={requested.shards} — "
            "re-partitioned restore requires both shard counts >= 2 "
            "(serial and sharded dataflows compile different topologies)"
        )


