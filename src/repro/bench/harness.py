"""Timed executions of the two engine backends over prepared streams.

Both measurements go through the one session API
(:class:`~repro.engine.session.StreamingGraphEngine`): the backend is an
:class:`~repro.engine.session.EngineConfig` flip, both backends are
driven by the same shared :class:`~repro.core.batch.BatchScheduler` via
``engine.push_many`` (the no-per-edge-overhead fast path), so the
numbers compare the algorithms, not the drivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import Plan
from repro.core.tuples import SGE, Label
from repro.core.windows import SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.query.datalog import RQProgram
from repro.query.sgq import SGQ


@dataclass
class BenchResult:
    """One benchmark measurement (one system × query × configuration)."""

    system: str
    throughput: float
    tail_latency: float
    edges: int
    slides: int
    results: int
    batches: int = 0

    def row(self, **extra: object) -> dict[str, object]:
        data = {
            "system": self.system,
            "throughput (edges/s)": round(self.throughput, 1),
            "p99 latency (s)": round(self.tail_latency, 5),
            "edges": self.edges,
            "slides": self.slides,
            "results": self.results,
        }
        data.update(extra)
        return data


def run_sga_bench(
    plan: Plan,
    stream: list[SGE],
    path_impl: str = "negative",
    batch_size: int | None = None,
) -> BenchResult:
    """Run the SGA backend over a stream and collect metrics.

    ``path_impl`` defaults to the negative-tuple RPQ operator — the
    prototype's default PATH implementation (Section 6.2.3); Table 3
    passes ``"spath"`` to measure the S-PATH alternative.  ``batch_size``
    caps the edges per scheduler flush (``None`` = one flush per slide).
    """
    # Paths are not materialized: the DD baseline cannot return paths,
    # so the comparison is over result-pair production (as in the paper).
    engine = StreamingGraphEngine(
        EngineConfig(
            backend="sga",
            path_impl=path_impl,
            materialize_paths=False,
            batch_size=batch_size,
        )
    )
    handle = engine.register(plan, name="bench")
    stats = engine.push_many(stream)
    suffix = "" if batch_size is None else f",b={batch_size}"
    return BenchResult(
        system=f"SGA[{path_impl}{suffix}]",
        throughput=stats.throughput,
        tail_latency=stats.tail_latency(),
        edges=stats.total_edges,
        slides=len(stats.slides),
        results=handle.result_count(),
        batches=stats.total_batches,
    )


def run_sga_sharded_bench(
    plan: Plan,
    stream: list[SGE],
    path_impl: str = "negative",
    shards: int = 1,
) -> BenchResult:
    """One point of the shard-scaling curve (CPU-work accounting).

    ``shards=1`` runs the plain engine; ``shards>1`` the multiprocessing
    transport.  Throughput is ``edges / busiest-shard CPU seconds``
    (``time.process_time`` inside the workers): per-shard CPU work is
    the quantity sharding divides, and it is measurable on any CI box —
    single-core machines time-slice the workers, so wall clock there
    shows only scheduling overhead, while the busiest shard's CPU time
    is the wall clock an adequately-cored machine approaches.  The
    ``shards=1`` row uses the same accounting (process CPU time of the
    engine loop) so the curve is like for like.
    """
    import time

    if shards == 1:
        engine = StreamingGraphEngine(
            EngineConfig(
                backend="sga", path_impl=path_impl, materialize_paths=False
            )
        )
        handle = engine.register(plan, name="bench")
        cpu_start = time.process_time()
        stats = engine.push_many(stream)
        cpu = time.process_time() - cpu_start
        results = handle.result_count()
    else:
        engine = StreamingGraphEngine(
            EngineConfig(
                backend="sga",
                path_impl=path_impl,
                materialize_paths=False,
                shards=shards,
                shard_transport="process",
            )
        )
        handle = engine.register(plan, name="bench")
        stats = engine.push_many(stream)
        cpu = max(engine._sharded.worker_busy_seconds())
        results = handle.result_count()
        engine.close()
    return BenchResult(
        system=f"SGA[{path_impl},shards={shards}]",
        throughput=stats.total_edges / cpu if cpu else float("inf"),
        tail_latency=stats.tail_latency(),
        edges=stats.total_edges,
        slides=len(stats.slides),
        results=results,
        batches=stats.total_batches,
    )


def run_dd_bench(
    program: RQProgram,
    stream: list[SGE],
    window: SlidingWindow,
    label_windows: dict[Label, SlidingWindow] | None = None,
    batch_size: int | None = None,
) -> BenchResult:
    """Run the DD baseline backend over a stream and collect metrics."""
    engine = StreamingGraphEngine(
        EngineConfig(backend="dd", batch_size=batch_size)
    )
    handle = engine.register(
        SGQ(program, window, dict(label_windows or {})), name="bench"
    )
    stats = engine.push_many(stream)
    return BenchResult(
        system="DD",
        throughput=stats.throughput,
        tail_latency=stats.tail_latency(),
        edges=stats.total_edges,
        slides=len(stats.epochs),
        results=len(handle.answer()),
        batches=stats.total_batches,
    )
