"""Golden checks of the S-PATH operator, both ingress forms and sharding.

The companion of ``test_columnar_golden.py`` (which runs the
negative-tuple PATH): every Table 1 query on both benchmark streams,
this time under ``path_impl="spath"``, against
:func:`repro.algebra.reference.evaluate_plan_at` at every epoch's final
instant.  It also pins

* the two ingress forms against each other bit for bit — ``push_many``
  (same-label runs as columns) and per-edge ``push`` (one event per
  edge) must emit the same results in the same order,
* materialized-path decoding (payload vertices chain the endpoints), and
* sharded execution (``shards=2`` against the serial engine).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import Scale, _stream
from repro.core.windows import HOUR
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.workloads import QUERIES, labels_for
from tests.conftest import oracle_at

ALL = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")
SCALE = Scale(n_edges=500, n_vertices=60, window=6 * HOUR, slide=HOUR)


@pytest.fixture(scope="module")
def streams():
    return {ds: _stream(ds, SCALE) for ds in ("so", "snb")}


def _engine(path_impl="spath", materialize_paths=False, shards=1):
    return StreamingGraphEngine(
        EngineConfig(
            backend="sga",
            path_impl=path_impl,
            materialize_paths=materialize_paths,
            shards=shards,
        )
    )


def _run_sga(plan, stream, **config):
    engine = _engine(**config)
    handle = engine.register(plan, name="q")
    engine.push_many(stream)
    return handle


def _epoch_instants(stream, slide):
    boundaries = sorted({(e.t // slide) * slide for e in stream})
    return [b + slide - 1 for b in boundaries]


class TestSPathGolden:
    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    def test_spath_matches_oracle_every_epoch(
        self, streams, dataset, query_name
    ):
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        handle = _run_sga(plan, stream)
        for t in _epoch_instants(stream, window.slide):
            assert handle.valid_at(t) == oracle_at(plan, stream, t), f"t={t}"

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    @pytest.mark.parametrize("path_impl", ["spath", "negative"])
    def test_per_edge_push_matches_push_many_bit_identical(
        self, streams, dataset, query_name, path_impl
    ):
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        bulk = _run_sga(plan, stream, path_impl=path_impl)
        engine = _engine(path_impl=path_impl)
        per_edge = engine.register(plan, name="q")
        for edge in stream:
            engine.push(edge)

        # List equality: identical members in identical order.
        assert list(per_edge.results()) == list(bulk.results())
        cover_bulk = {k: tuple(v) for k, v in bulk.coverage().items()}
        cover_edge = {k: tuple(v) for k, v in per_edge.coverage().items()}
        assert cover_edge == cover_bulk

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ["Q1", "Q4"])
    def test_materialized_path_decoding(self, streams, dataset, query_name):
        """Witness payloads decode to original vertices chaining the
        result's endpoints, and materializing changes no snapshot.

        Q1 is a single-label PATH; Q4 a multi-label one.
        """
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        handle = _run_sga(plan, stream, materialize_paths=True)
        for t in _epoch_instants(stream, window.slide):
            assert handle.valid_at(t) == oracle_at(plan, stream, t), f"t={t}"
        raw_vertices = {e.src for e in stream} | {e.trg for e in stream}
        for sgt in handle.results():
            vertices = sgt.payload.vertices
            assert vertices[0] == sgt.src and vertices[-1] == sgt.trg
            assert set(vertices) <= raw_vertices

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ["Q1", "Q4", "Q5", "Q6"])
    def test_two_shards_match_serial(self, streams, dataset, query_name):
        """``shards=2``: the sharded runtime ingests interned scalars
        itself, and must hold the same set/cover golden against the
        serial engine."""
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        serial = _run_sga(plan, stream, path_impl="negative")
        sharded = _run_sga(plan, stream, path_impl="negative", shards=2)

        assert set(sharded.results()) == set(serial.results())
        cover_serial = {k: tuple(v) for k, v in serial.coverage().items()}
        cover_sharded = {k: tuple(v) for k, v in sharded.coverage().items()}
        assert cover_sharded == cover_serial
