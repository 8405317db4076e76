"""The six workloads: inputs, queries, engine configuration, and why.

Sizes are ``--scale 1``.  They are set by the time the driver allows a
run (about 25 s of wall clock per invocation, set-up and checks
included) with three to five passes in it; ``--scale 2`` is close to
the sizes the issue first proposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import streams
from streams import DAY, HOUR

#: The serving tier's workload queries (the paper's notification query
#: and a one-result-per-edge companion), as in ``scripts/load_client.py``.
SERVE_QUERIES = (
    (
        "paper",
        "RL(u1,u2) <- likes(u1,m1), follows+(u1,u2) as FP, posts(u2,m1). "
        "Notify(u,m) <- RL+(u,v) as RLP, posts(v,m). "
        "Answer(u,m) <- Notify(u,m).",
    ),
    ("likes", "Answer(u,m) <- likes(u,m)."),
)

#: Benchmark-owned stateless / near-stateless queries for ``snb_ingest``.
INGEST_QUERIES = (
    ("likes", "Answer(x, y) <- likes(x, y)."),
    (
        "any_link",
        "Answer(x, y) <- hasCreator(x, y). Answer(x, y) <- replyOf(x, y). "
        "Answer(x, y) <- knows(x, y).",
    ),
    ("liked_creator", "Answer(x, z) <- likes(x, y), hasCreator(y, z)."),
)


def so_edges(n: int, seed: int) -> list:
    """32 topic communities of 30 users, 8 of them active at a time
    (see streams.so_communities for why)."""
    return streams.so_communities(n, 32, 30, 8, seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_edges: int
    window: int
    slide: int
    #: ``(n_edges, seed) -> edges``
    stream: Callable[[int, int], list]
    #: Table 1 query names (instantiated for ``dataset``) or
    #: ``(name, datalog text)`` pairs
    queries: tuple
    dataset: str = ""
    #: EngineConfig keyword arguments
    config: dict = field(default_factory=dict)
    #: share of inserted edges later deleted explicitly
    deletions: float = 0.0
    #: "engine" = closed batch job in-process; "serve" = over HTTP
    kind: str = "engine"

    def edges(self, seed: int, scale: float) -> list:
        return self.stream(max(200, int(self.n_edges * scale)), seed)

    def ops(self, seed: int, scale: float) -> list:
        """``("+", edge)`` / ``("-", edge)`` operations in issue order."""
        edges = self.edges(seed, scale)
        if self.deletions:
            return streams.with_deletions(
                edges, seed, self.deletions, HOUR, DAY
            )
        return [("+", e) for e in edges]

    def query_texts(self) -> list[tuple[str, str]]:
        from repro.workloads.queries import QUERIES, labels_for

        return [
            q
            if isinstance(q, tuple)
            else (q, QUERIES[q].datalog(labels_for(q, self.dataset)))
            for q in self.queries
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="so_path",
            why="PATH does most of the work on a dense cyclic stream with "
            "many alternative paths (the paper's hard case); a PATH or "
            "state-layout change must show here.",
            n_edges=9_000,
            window=72 * HOUR,
            slide=HOUR // 3,
            stream=so_edges,
            queries=("Q1", "Q2", "Q3"),
            dataset="so",
            config={"materialize_paths": False},
        ),
        Workload(
            name="so_paths_churn",
            why="Path payloads as results, explicit deletions and coarser "
            "expiry on the running example (PATH > PATTERN > PATH); a gain "
            "for insert that costs deletion or payload building shows here.",
            n_edges=6_500,
            window=72 * HOUR,
            slide=HOUR // 2,
            stream=so_edges,
            queries=("Q1", "Q6", "Q7"),
            dataset="so",
            deletions=0.15,
        ),
        Workload(
            name="snb_pattern",
            why="A four-way join (SNB IS7) on a tree-shaped stream with no "
            "PATH operator; a join change shows here and a PATH change "
            "must not move it.",
            n_edges=30_000,
            window=10 * DAY,
            slide=HOUR,
            # 300 persons as six towns of 50
            stream=lambda n, seed: streams.snb_towns(n, 6, 50, seed),
            # Q5 alone returns about 80 tuples; its replyOf input as a
            # passthrough (the window scan is shared) gives the read
            # path a steady 6,000 to read
            queries=("Q5", ("replies", "Answer(x, y) <- replyOf(x, y).")),
            dataset="snb",
        ),
        Workload(
            name="snb_ingest",
            why="Tiny state at a high edge rate: interning, slide scheduling, "
            "wscan, union, sink and result decode dominate; the fused "
            "stateless prefix shows here, PATH and deep joins do not.",
            n_edges=60_000,
            window=DAY,
            slide=HOUR,
            stream=lambda n, seed: streams.snb_stream(n, 5000, seed),
            queries=INGEST_QUERIES,
            dataset="snb",
        ),
        Workload(
            name="so_path_sharded",
            why="so_path's input (shorter) and queries on two process-transport "
            "shards of a 2-core host, beside a serial pass of the same edges: "
            "wall-clock sharding, replicated adjacency in peak_rss_mb.",
            n_edges=3_000,
            window=72 * HOUR,
            slide=HOUR // 3,
            stream=so_edges,
            queries=("Q1", "Q2", "Q3"),
            dataset="so",
            config={
                "materialize_paths": False,
                "shards": 2,
                "shard_transport": "process",
            },
        ),
        Workload(
            name="serve_stream",
            why="Edges in over HTTP, events out on a WebSocket: JSON, HTTP "
            "framing, tenant hand-off and subscriber queues do the work; "
            "engine changes should not move it, serve changes only it.",
            n_edges=30_000,
            window=24,
            slide=1,
            stream=lambda n, seed: streams.uniform_stream(n, 200, seed),
            queries=SERVE_QUERIES,
            kind="serve",
        ),
    )
}
