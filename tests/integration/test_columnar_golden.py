"""Golden correctness: the engine's answers against the snapshot oracle.

Every Table 1 query runs on both benchmark streams, and at every epoch's
final instant the engine's ``valid_at`` snapshot must equal
:func:`repro.algebra.reference.evaluate_plan_at` — the non-streaming
operators applied to the input snapshots (snapshot reducibility,
Definition 14).  This pins interning, columnar deltas and the timing
wheels to the paper's semantics.  The dd backend is additionally held
to the sga answers at the final epoch (the cross-backend golden the
engine API guarantees).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import Scale, _stream
from repro.core.windows import HOUR
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.query.parser import parse_rq
from repro.query.sgq import SGQ
from repro.workloads import QUERIES, labels_for
from tests.conftest import oracle_at

ALL = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")
SCALE = Scale(n_edges=500, n_vertices=60, window=6 * HOUR, slide=HOUR)


@pytest.fixture(scope="module")
def streams():
    return {ds: _stream(ds, SCALE) for ds in ("so", "snb")}


def _run_sga(plan, stream, materialize_paths=False):
    engine = StreamingGraphEngine(
        EngineConfig(
            backend="sga",
            path_impl="negative",
            materialize_paths=materialize_paths,
        )
    )
    handle = engine.register(plan, name="q")
    engine.push_many(stream)
    return handle


def _epoch_instants(stream, slide):
    boundaries = sorted({(e.t // slide) * slide for e in stream})
    return [b + slide - 1 for b in boundaries]


class TestColumnarGolden:
    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    def test_matches_oracle_every_epoch(self, streams, dataset, query_name):
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES[query_name].plan(labels_for(query_name, dataset), window)
        handle = _run_sga(plan, stream)

        for t in _epoch_instants(stream, window.slide):
            assert handle.valid_at(t) == oracle_at(plan, stream, t), f"t={t}"

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    def test_columnar_matches_dd_backend(self, streams, dataset, query_name):
        """Both backends, same decoded per-epoch answers.

        DD batches one slide per epoch, so the comparison instant is the
        final instant of the last epoch (DD's temporal resolution).
        """
        stream = streams[dataset]
        window = SCALE.sliding_window()
        labels = labels_for(query_name, dataset)
        plan = QUERIES[query_name].plan(labels, window)
        sga = _run_sga(plan, stream)

        engine = StreamingGraphEngine(EngineConfig(backend="dd"))
        program = parse_rq(QUERIES[query_name].datalog(labels))
        dd = engine.register(SGQ(program, window), name="q")
        engine.push_many(stream)

        t = _epoch_instants(stream, window.slide)[-1]
        sga_keys = {(u, v) for u, v, _ in sga.valid_at(t)}
        dd_keys = {(u, v) for u, v, _ in dd.valid_at(t)}
        assert sga_keys == dd_keys


class TestMaterializedPathsGolden:
    """Materialized paths survive interning.

    Which witness path the expand-only operator records is (and always
    was) hash-order dependent, so hop sequences are not compared
    verbatim; what interning must guarantee is that the result snapshots
    match the oracle and every decoded payload is a well-formed path
    over original vertex values chaining the result's endpoints.
    """

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    def test_path_payloads_decode_to_chained_vertices(self, streams, dataset):
        stream = streams[dataset]
        window = SCALE.sliding_window()
        plan = QUERIES["Q1"].plan(labels_for("Q1", dataset), window)
        handle = _run_sga(plan, stream, materialize_paths=True)
        for t in _epoch_instants(stream, window.slide):
            assert handle.valid_at(t) == oracle_at(plan, stream, t), f"t={t}"
        cols = handle.results()
        assert cols
        raw_vertices = {e.src for e in stream} | {e.trg for e in stream}
        for sgt in cols:
            hops = sgt.payload.edges()
            assert hops, "materialized result must carry its path"
            vertices = [hops[0].src] + [hop.trg for hop in hops]
            assert vertices[0] == sgt.src and vertices[-1] == sgt.trg
            # Decoded, not dense ids: every hop endpoint is a stream vertex.
            assert set(vertices) <= raw_vertices
