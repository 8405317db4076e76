"""Shared fixtures and stream builders for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import SGE, SlidingWindow


class SessionHarness:
    """One-query engine session with the historical processor's surface.

    Test plumbing over the session API (``StreamingGraphEngine`` +
    ``QueryHandle``): pre-session tests keep their call shape without
    routing through the deprecated facades (which the suite now treats
    as errors outside the dedicated shim tests).
    """

    _CONFIG_FIELDS = frozenset(
        {
            "backend",
            "path_impl",
            "materialize_paths",
            "coalesce_intermediate",
            "batch_size",
            "late_policy",
            "shards",
            "shard_transport",
        }
    )

    def __init__(self, query, **options):
        from repro.engine.session import EngineConfig, StreamingGraphEngine

        config = {
            key: options.pop(key)
            for key in list(options)
            if key in self._CONFIG_FIELDS
        }
        self.engine = StreamingGraphEngine(EngineConfig(**config))
        self.handle = self.engine.register(query, name="q0", **options)
        self.plan = getattr(self.handle, "plan", None)

    @classmethod
    def from_datalog(cls, text, window, label_windows=None, **options):
        from repro.ql.query import Query

        return cls(
            Query.datalog(text, window, label_windows=label_windows), **options
        )

    @classmethod
    def from_gcore(cls, text, **options):
        from repro.ql.query import Query

        return cls(Query.gcore(text), **options)

    # streaming --------------------------------------------------------
    def push(self, edge):
        self.engine.push(edge)

    def delete(self, edge):
        self.engine.delete(edge)

    def advance_to(self, t):
        self.engine.advance_to(t)

    def run(self, stream):
        return self.engine.push_many(stream)

    # reads ------------------------------------------------------------
    def results(self):
        return self.handle.results()

    def coverage(self):
        return self.handle.coverage()

    def valid_at(self, t):
        return self.handle.valid_at(t)

    def result_count(self):
        return self.handle.result_count()

    def clear_results(self):
        return self.handle.clear_results()

    def tap(self, label):
        return self.engine.tap(label)

    def state_size(self):
        return self.engine.state_size()


def make_stream(
    seed: int,
    n_edges: int,
    n_vertices: int,
    labels: tuple[str, ...],
    max_gap: int = 3,
) -> list[SGE]:
    """A random timestamp-ordered sge stream for tests."""
    rng = random.Random(seed)
    t = 0
    edges = []
    for _ in range(n_edges):
        t += rng.randint(0, max_gap)
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.append(SGE(u, v, rng.choice(labels), t))
    return edges


def streams_by_label(edges: list[SGE]) -> dict[str, list[SGE]]:
    out: dict[str, list[SGE]] = {}
    for edge in edges:
        out.setdefault(edge.label, []).append(edge)
    return out


def oracle_at(plan, edges: list[SGE], t: int) -> set:
    """The snapshot-reducibility answer of ``plan`` over ``edges`` at
    ``t``, keyed like ``valid_at``."""
    from repro.algebra.reference import evaluate_plan_at

    label = plan.out_label
    return {
        (u, v, label)
        for u, v in evaluate_plan_at(plan, streams_by_label(edges), t)
    }


@pytest.fixture
def window24() -> SlidingWindow:
    return SlidingWindow(24)


@pytest.fixture
def paper_stream() -> list[SGE]:
    """The input graph stream of Figure 2 in the paper."""
    return [
        SGE("u", "v", "follows", 7),
        SGE("v", "b", "posts", 10),
        SGE("y", "u", "follows", 13),
        SGE("v", "c", "posts", 17),
        SGE("u", "a", "posts", 22),
        SGE("y", "a", "likes", 28),
        SGE("u", "b", "likes", 29),
        SGE("u", "c", "likes", 30),
    ]


PAPER_QUERY = """
RL(u1, u2)   <- likes(u1, m1), follows+(u1, u2) as FP, posts(u2, m1).
Notify(u, m) <- RL+(u, v) as RLP, posts(v, m).
Answer(u, m) <- Notify(u, m).
"""
