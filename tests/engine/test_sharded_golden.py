"""Golden parity: sharded execution must match the serial engine.

``EngineConfig(shards=N, shard_transport="inline")`` runs N partition-
parallel shards under the deterministic round-robin scheduler, whose
synchronous exchange makes the global execution order exactly the serial
engine's.  Every Table 1 query on both benchmark streams is held to

* the identical coalesced decoded result set,
* the identical net validity coverage,
* the identical ``valid_at`` snapshot at every epoch's final instant,
* and (a stronger property the runtime guarantees by construction) the
  identical raw insert/retraction counts — each result event lives on
  exactly one shard.

The multiprocessing transport exchanges at slide granularity, which can
reorder within-slide derived deltas; it is held to result-set and
coverage parity on a representative query mix.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import Scale, _stream
from repro.core.windows import HOUR
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.workloads import QUERIES, labels_for

ALL = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")
SCALE = Scale(n_edges=400, n_vertices=50, window=6 * HOUR, slide=HOUR)


@pytest.fixture(scope="module")
def streams():
    return {ds: _stream(ds, SCALE) for ds in ("so", "snb")}


def _run(plan, stream, shards, transport="inline", path_impl="spath"):
    engine = StreamingGraphEngine(
        EngineConfig(
            path_impl=path_impl,
            materialize_paths=False,
            shards=shards,
            shard_transport=transport,
        )
    )
    handle = engine.register(plan, name="q")
    engine.push_many(stream)
    return handle, engine


def _epoch_instants(stream, slide):
    boundaries = sorted({(e.t // slide) * slide for e in stream})
    return [b + slide - 1 for b in boundaries]


class TestShardedGolden:
    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    def test_four_shards_match_serial(self, streams, dataset, query_name):
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        serial, _ = _run(plan, stream, shards=1)
        sharded, _ = _run(plan, stream, shards=4)

        assert set(sharded.results()) == set(serial.results())
        cover_serial = {k: tuple(v) for k, v in serial.coverage().items()}
        cover_sharded = {k: tuple(v) for k, v in sharded.coverage().items()}
        assert cover_sharded == cover_serial
        for t in _epoch_instants(stream, window.slide):
            assert sharded.valid_at(t) == serial.valid_at(t), f"t={t}"

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ["Q1", "Q4", "Q5", "Q6"])
    def test_event_multiset_parity(self, streams, dataset, query_name):
        """Beyond the set/cover surfaces: for plans without shared-scan
        fanout, the merged per-shard sinks carry exactly the serial
        event multiset (each result event lives on exactly one shard).

        Plans where one windowed scan feeds several stateful consumers
        (Q2/Q3/Q7) can interleave the consumers' cross-shard cascades
        differently from the serial fanout order; the difference is
        always net-balanced insert/retraction pairs, which the
        set/cover/valid_at surfaces (asserted above for all seven
        queries) are insensitive to.

        The multiset claim is a property of the sharding layer under a
        *fixed* ingress order: both engines ingest in arrival order.
        """
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        serial, _ = _run(plan, stream, shards=1)
        sharded, _ = _run(plan, stream, shards=4)
        assert sharded.result_count() == serial.result_count()
        assert sharded.stats().retractions == serial.stats().retractions

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    def test_negative_path_impl_parity(self, streams, dataset, query_name):
        """The order-sensitive expand-only PATH operator is the acid
        test for the deterministic scheduler's serial-order claim —
        including its expiry rederivations, whose emissions the runtime
        pre-advances across shards before any same-boundary purge."""
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        serial, _ = _run(plan, stream, shards=1, path_impl="negative")
        sharded, _ = _run(plan, stream, shards=3, path_impl="negative")
        assert set(sharded.results()) == set(serial.results())
        assert {k: tuple(v) for k, v in sharded.coverage().items()} == {
            k: tuple(v) for k, v in serial.coverage().items()
        }
        for t in _epoch_instants(stream, window.slide):
            assert sharded.valid_at(t) == serial.valid_at(t), f"t={t}"

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    def test_materialized_paths_survive_sharding(self, streams, dataset):
        """Path payloads stay on the shard that derived them and decode
        through the shared interner at read time."""
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES["Q1"].plan(labels_for("Q1", dataset), window)
        engine = StreamingGraphEngine(EngineConfig(shards=2))
        handle = engine.register(plan, name="q")
        engine.push_many(stream)
        raw_vertices = {e.src for e in stream} | {e.trg for e in stream}
        results = handle.results()
        assert results
        for sgt in results:
            hops = sgt.payload.edges()
            assert hops, "materialized result must carry its path"
            vertices = [hops[0].src] + [hop.trg for hop in hops]
            assert vertices[0] == sgt.src and vertices[-1] == sgt.trg
            assert set(vertices) <= raw_vertices


class TestProcessTransport:
    """The multiprocessing backend: real workers, slide-level exchange."""

    @pytest.mark.parametrize("query_name", ["Q1", "Q5", "Q7"])
    def test_result_parity(self, streams, query_name):
        stream = streams["snb"]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, "snb"), window)
        serial, _ = _run(plan, stream, shards=1)
        sharded, engine = _run(plan, stream, shards=2, transport="process")
        try:
            assert set(sharded.results()) == set(serial.results())
            assert {k: tuple(v) for k, v in sharded.coverage().items()} == {
                k: tuple(v) for k, v in serial.coverage().items()
            }
            t = _epoch_instants(stream, window.slide)[-1]
            assert sharded.valid_at(t) == serial.valid_at(t)
        finally:
            engine.close()

    def test_close_is_idempotent_and_poisons_reads(self):
        from repro.core.tuples import SGE
        from repro.core.windows import SlidingWindow
        from repro.errors import ExecutionError
        from repro.query.sgq import SGQ

        with StreamingGraphEngine(
            EngineConfig(shards=2, shard_transport="process")
        ) as engine:
            handle = engine.register(
                SGQ.from_text(
                    "Answer(x, y) <- k+(x, y) as K.", SlidingWindow(20, 4)
                ),
                name="q",
            )
            engine.push(SGE(1, 2, "k", 0))
            assert handle.result_count() == 1
        engine.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            handle.results()
        with pytest.raises(ExecutionError, match="closed"):
            engine.push(SGE(2, 3, "k", 1))

    def test_lifecycle_restrictions(self):
        from repro.core.tuples import SGE
        from repro.core.windows import SlidingWindow
        from repro.errors import ExecutionError
        from repro.query.sgq import SGQ

        engine = StreamingGraphEngine(
            EngineConfig(shards=2, shard_transport="process")
        )
        query = SGQ.from_text(
            "Answer(x, y) <- k+(x, y) as K.", SlidingWindow(20, 4)
        )
        with pytest.raises(ExecutionError, match="inline"):
            engine.register(query, name="cb", on_result=lambda e: None)
        handle = engine.register(query, name="q")
        engine.push(SGE(1, 2, "k", 0))
        try:
            with pytest.raises(ExecutionError, match="inline"):
                engine.register(query, name="late")
            with pytest.raises(ExecutionError, match="inline"):
                handle.unregister()
            assert (1, 2, "Answer") in handle.valid_at(0)
        finally:
            engine.close()
