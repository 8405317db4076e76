"""Golden equivalence: every flush size must match whole-slide flushes.

For each example query shipped in ``examples/``, running the stream
through the executor with any ``batch_size`` must produce the identical
result-sgt multiset — payloads and intervals included — as one flush
per slide (``batch_size=None``).  Batches preserve arrival order exactly (whole-slide
accumulation, consecutive same-label runs), so every operator observes
the same event sequence; these tests pin that contract end to end.
"""

from __future__ import annotations

import pytest

from repro.core.windows import SlidingWindow
from repro.datasets import stackoverflow_stream
from tests.conftest import SessionHarness
from repro.workloads import labels_for, q4_plan_space

BATCH_SIZES = (1, 7, 64, 1024)

# ----------------------------------------------------------------------
# The example queries (examples/*.py) and their streams
# ----------------------------------------------------------------------

QUICKSTART_QUERY = "Answer(x, y) <- knows+(x, y) as KnowsPath."

SOCIAL_GCORE = """
PATH RL = (u1) -/<:follows*>/-> (u2),
          (u1)-[:likes]->(m1)<-[:posts]-(u2)
CONSTRUCT (u)-[:notify]->(m)
MATCH (u) -/p<~RL*>/-> (v),
      (v)-[:posts]->(m)
ON social_stream WINDOW (360 ticks) SLIDE (60 ticks)
"""

MULTI_STREAM_GCORE = """
GRAPH VIEW rec_stream AS (
CONSTRUCT (u1)-[:recommendation]->(p)
MATCH (u1)
OPTIONAL (u1)-[:follows]->(u2)
OPTIONAL (u1)-[:likes]->(m)<-[:posts]-(u2)
ON social_stream WINDOW (24 ticks)
MATCH (c)-[:purchase]->(p)
ON tx_stream WINDOW (720 ticks) SLIDE (24 ticks)
WHERE (u2) = (c) )
"""


def _social_stream(n_edges=1500):
    social = stackoverflow_stream(n_edges=n_edges, n_users=60, seed=42)
    relabel = {"a2q": "follows", "c2q": "likes", "c2a": "posts"}
    return [e.__class__(e.src, e.trg, relabel[e.label], e.t) for e in social]


def _tx_stream(n_edges=1200):
    social = stackoverflow_stream(n_edges=n_edges, n_users=50, seed=9)
    relabel = {"a2q": "follows", "c2q": "likes", "c2a": "purchase"}
    return [e.__class__(e.src, e.trg, relabel[e.label], e.t) for e in social]


def _signature(processor):
    """The full observable output: raw count, coalesced results with
    payloads, and the net validity coverage."""
    results = sorted(
        (
            repr(s.src),
            repr(s.trg),
            s.label,
            s.interval.ts,
            s.interval.exp,
            str(s.payload),
        )
        for s in processor.results()
    )
    coverage = {
        key: tuple(intervals)
        for key, intervals in processor.coverage().items()
    }
    return processor.result_count(), results, coverage


def _assert_equivalent(make_processor, stream):
    reference = None
    for batch_size in (None,) + BATCH_SIZES:
        processor = make_processor(batch_size)
        processor.run(stream)
        signature = _signature(processor)
        if reference is None:
            reference = signature  # one flush per slide
        else:
            assert signature == reference, (
                f"batch_size={batch_size} diverged from whole-slide flushes"
            )


class TestExampleQueryEquivalence:
    def test_quickstart_closure(self):
        # examples/quickstart.py: knows+ with materialized paths.
        stream = [
            e.__class__(e.src, e.trg, "knows", e.t)
            for e in stackoverflow_stream(n_edges=1200, n_users=50, seed=3)
            if e.label == "a2q"
        ]
        window = SlidingWindow(size=100, slide=10)

        def make(batch_size):
            return SessionHarness.from_datalog(
                QUICKSTART_QUERY, window=window, batch_size=batch_size
            )

        _assert_equivalent(make, stream)

    @pytest.mark.parametrize("path_impl", ["spath", "negative"])
    def test_social_recommendation(self, path_impl):
        # examples/social_recommendation.py: pattern + closure over the
        # derived recentLiker stream, for both PATH implementations.
        stream = _social_stream()

        def make(batch_size):
            return SessionHarness.from_gcore(
                SOCIAL_GCORE, path_impl=path_impl, batch_size=batch_size
            )

        _assert_equivalent(make, stream)

    def test_multi_stream_join(self):
        # examples/multi_stream_join.py: union patterns over two streams
        # with different windows.
        stream = sorted(
            _tx_stream(), key=lambda e: e.t
        )

        def make(batch_size):
            return SessionHarness.from_gcore(
                MULTI_STREAM_GCORE, batch_size=batch_size
            )

        _assert_equivalent(make, stream)

    @pytest.mark.parametrize("path_impl", ["spath", "negative"])
    def test_path_over_derived_self_join(self, path_impl):
        # Regression: a PATH over a relation derived by a *self-join*
        # (the same source label on two join ports).  Whole-batch
        # delivery at the fanout point would reorder the derived-label
        # event stream relative to per-tuple interleaving, and the
        # order-sensitive expand-only PATH then records different first
        # derivations; batches must degrade to per-event delivery there.
        import random

        from repro.core.tuples import SGE

        rng = random.Random(2)
        stream = [
            SGE(rng.randrange(5), rng.randrange(5), "a", t)
            for t in sorted(rng.randrange(60) for _ in range(60))
        ]
        window = SlidingWindow(size=8, slide=2)
        query = "d(x, z) <- a(x, y), a(y, z). Answer(x, z) <- d+(x, z) as P."

        def make(batch_size):
            return SessionHarness.from_datalog(
                query,
                window=window,
                path_impl=path_impl,
                batch_size=batch_size,
            )

        _assert_equivalent(make, stream)

    @pytest.mark.parametrize("plan_name", ["SGA", "P1", "P2", "P3"])
    def test_plan_exploration_q4_plans(self, plan_name):
        # examples/plan_exploration.py: every plan of the Q4 plan space.
        window = SlidingWindow(size=480, slide=60)
        plan = q4_plan_space(labels_for("Q4", "so"), window)[plan_name]
        stream = stackoverflow_stream(n_edges=1500, n_users=80, seed=7)

        def make(batch_size):
            return SessionHarness(
                plan, path_impl="negative", batch_size=batch_size
            )

        _assert_equivalent(make, stream)
