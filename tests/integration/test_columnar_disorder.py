"""The engine under out-of-order arrivals, late policies and deletions.

Property-style, over randomized streams with bounded timestamp disorder,
against :func:`repro.algebra.reference.evaluate_plan_at` at every
epoch's final instant:

* ``late_policy="drop"`` must answer exactly the oracle over the edges
  it kept (an edge is late when its slide is behind the furthest slide
  seen so far), and count exactly the others;
* ``late_policy="allow"`` processes late edges with their true
  timestamps, so results involving state that was already purged may be
  missed.  The oracle does not fix that answer; the test pins it between
  two oracles instead: at least the oracle over the in-order edges, at
  most the oracle over every edge;
* ``late_policy="raise"`` raises;
* explicit deletions must answer the oracle over the inserts minus the
  deleted edges.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tuples import SGE
from repro.core.windows import HOUR, SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.errors import StreamOrderError
from repro.workloads import QUERIES, labels_for
from tests.conftest import oracle_at

WINDOW = SlidingWindow(4 * HOUR, HOUR)
CHECK_QUERIES = ("Q1", "Q2", "Q5")


def _disordered_stream(seed: int, n_edges: int = 400, jitter: int = 90):
    """Roughly increasing timestamps with bounded local disorder."""
    rng = random.Random(seed)
    labels = ("knows", "likes", "hasCreator", "replyOf")
    edges = []
    t = 0
    for _ in range(n_edges):
        t += rng.randint(0, 3)
        edges.append(
            SGE(
                ("P", rng.randrange(25)),
                ("P", rng.randrange(25)),
                rng.choice(labels),
                max(0, t + rng.randint(-jitter, jitter)),
            )
        )
    return edges


def _in_order(stream, slide=WINDOW.slide):
    """The edges no late policy touches: those whose slide is not
    behind the furthest slide seen before them."""
    kept = []
    furthest = None
    for edge in stream:
        boundary = edge.t // slide * slide
        if furthest is None or boundary >= furthest:
            furthest = boundary
            kept.append(edge)
    return kept


def _epoch_instants(stream, slide=WINDOW.slide):
    boundaries = sorted({(e.t // slide) * slide for e in stream})
    return [b + slide - 1 for b in boundaries]


def _run(plan, stream, late_policy):
    engine = StreamingGraphEngine(
        EngineConfig(
            backend="sga",
            path_impl="negative",
            materialize_paths=False,
            late_policy=late_policy,
        )
    )
    handle = engine.register(plan, name="q")
    engine.push_many(stream)
    return engine, handle


class TestDisorderOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("query_name", CHECK_QUERIES)
    def test_drop_matches_oracle_over_kept_edges(self, seed, query_name):
        stream = _disordered_stream(seed)
        kept = _in_order(stream)
        assert len(kept) < len(stream)  # the stream must have late edges
        plan = QUERIES[query_name].plan(labels_for(query_name, "snb"), WINDOW)
        engine, handle = _run(plan, stream, "drop")
        assert engine.late_count == len(stream) - len(kept)
        for t in _epoch_instants(kept):
            assert handle.valid_at(t) == oracle_at(plan, kept, t), f"t={t}"

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("query_name", CHECK_QUERIES)
    def test_allow_lies_between_kept_and_all_edges(self, seed, query_name):
        stream = _disordered_stream(seed)
        kept = _in_order(stream)
        plan = QUERIES[query_name].plan(labels_for(query_name, "snb"), WINDOW)
        engine, handle = _run(plan, stream, "allow")
        assert engine.late_count == 0
        for t in _epoch_instants(stream):
            answer = handle.valid_at(t)
            assert oracle_at(plan, kept, t) <= answer, f"t={t}"
            assert answer <= oracle_at(plan, stream, t), f"t={t}"

    @pytest.mark.parametrize("seed", range(2))
    def test_raise_policy_raises(self, seed):
        stream = _disordered_stream(seed)
        plan = QUERIES["Q1"].plan(labels_for("Q1", "snb"), WINDOW)
        with pytest.raises(StreamOrderError):
            _run(plan, stream, "raise")

    @pytest.mark.parametrize("late_policy", ["allow", "drop"])
    def test_ordered_stream_drops_nothing(self, late_policy):
        stream = sorted(_disordered_stream(0), key=lambda e: e.t)
        plan = QUERIES["Q2"].plan(labels_for("Q2", "snb"), WINDOW)
        engine, _ = _run(plan, stream, late_policy)
        assert engine.late_count == 0


class TestExplicitDeletionsOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_negative_tuples_match_oracle(self, seed):
        """Explicit deletions (timing-wheel repair path) leave exactly
        the oracle over the surviving edges under interleaved
        insert/delete traffic."""
        rng = random.Random(seed)
        plan = QUERIES["Q1"].plan(labels_for("Q1", "snb"), WINDOW)
        inserts = sorted(
            _disordered_stream(seed + 100, n_edges=150, jitter=0),
            key=lambda e: e.t,
        )
        knows = [e for e in inserts if e.label == "knows"]
        victims = rng.sample(knows, min(10, len(knows)))

        engine = StreamingGraphEngine(
            EngineConfig(
                backend="sga", path_impl="negative", materialize_paths=False
            )
        )
        handle = engine.register(plan, name="q")
        for edge in inserts:
            engine.push(edge)
        for edge in victims:
            engine.delete(edge)

        survivors = list(inserts)
        for edge in victims:
            survivors.remove(edge)
        for t in _epoch_instants(inserts):
            assert handle.valid_at(t) == oracle_at(plan, survivors, t), f"t={t}"
