"""Benchmark-owned seeded input generators.

The benchmark makes every input from its ``--seed`` and hands the engine
only the generated edges.  The generators are the benchmark's own so
that a change to ``repro.datasets`` cannot silently change what is
measured; ``tests/test_streams.py`` pins them edge-for-edge to the
library generators at the commit this benchmark was written against.

* :func:`so_stream` — StackOverflow-like: one vertex type, three labels,
  preferential attachment, reciprocity, a drifting active-user pool.
  Dense and cyclic, so PATH state is large (the paper's hard case).
* :func:`snb_stream` — LDBC-SNB-like: persons and messages, ``replyOf``
  strictly a forest.  Linear time: the library generator copies the
  message list once per message (``messages[:-1]``), which makes 400k
  edges take over a minute; this one indexes instead and draws the same
  random numbers in the same order.
* :func:`so_communities`, :func:`snb_towns` — several independent
  streams of the above over disjoint vertices, merged by time, so that
  what a run costs depends less on the seed.
* :func:`uniform_stream` — the serve tier's load-client stream.
* :func:`with_deletions` — an insert stream merged with explicit
  deletions of a share of its edges.
"""

from __future__ import annotations

import heapq
import random

from repro.core.tuples import SGE

HOUR = 60
DAY = 24 * HOUR

SO_LABELS = ("a2q", "c2q", "c2a")
_SO_WEIGHTS = (0.5, 0.3, 0.2)
SERVE_LABELS = ("likes", "follows", "posts")


def so_stream(
    n_edges: int,
    n_users: int,
    seed: int,
    reciprocity: float,
    active_pool: int,
    mean_gap: int = HOUR // 12,
) -> list[SGE]:
    rng = random.Random(seed)
    labels = list(SO_LABELS)
    weights = list(_SO_WEIGHTS)
    # one slot per past interaction endpoint, plus one per user
    attachment = list(range(n_users))
    pool_start = 0
    t = 0
    # reciprocal edges scheduled for the future, as (due, order, edge):
    # the order keeps same-instant edges in scheduling order
    pending: list[tuple[int, int, SGE]] = []
    scheduled = 0
    edges: list[SGE] = []
    while len(edges) < n_edges:
        while pending and pending[0][0] <= t and len(edges) < n_edges:
            edges.append(heapq.heappop(pending)[2])
        if len(edges) >= n_edges:
            break
        src = (pool_start + rng.randrange(active_pool)) % n_users
        trg = attachment[rng.randrange(len(attachment))]
        if trg == src:
            trg = (trg + 1) % n_users
        edges.append(SGE(src, trg, rng.choices(labels, weights)[0], t))
        attachment.append(trg)
        attachment.append(src)
        if rng.random() < reciprocity:
            due = t + 1 + rng.randrange(4 * mean_gap + 1)
            back = SGE(trg, src, rng.choices(labels, weights)[0], due)
            heapq.heappush(pending, (due, scheduled, back))
            scheduled += 1
        t += rng.randint(0, 2 * mean_gap)
        if rng.random() < 0.02:
            pool_start = (pool_start + 1) % n_users
    edges.sort(key=lambda e: e.t)
    return edges[:n_edges]


def so_communities(
    n_edges: int,
    communities: int,
    users_each: int,
    pool_each: int,
    seed: int,
    reciprocity: float = 0.4,
) -> list[SGE]:
    """``communities`` independent SO-like streams over disjoint users,
    merged by timestamp, at the edge rate of one.

    A Q&A site is many topic communities.  How much derived work a
    community causes (how far its transitive closure reaches) swings
    widely from seed to seed, because a window of it sits near the
    point where a giant component forms; the sum over several
    independent communities swings much less, so runs with different
    seeds stay comparable.
    """
    parts = []
    for k in range(communities):
        part = so_stream(
            n_edges // communities,
            users_each,
            seed * 1000 + k,
            reciprocity,
            pool_each,
            mean_gap=communities * (HOUR // 12),
        )
        shift = k * users_each
        parts.append(
            [SGE(e.src + shift, e.trg + shift, e.label, e.t) for e in part]
        )
    return list(heapq.merge(*parts, key=lambda e: e.t))


def snb_towns(
    n_edges: int, towns: int, persons_each: int, seed: int
) -> list[SGE]:
    """``towns`` independent SNB-like networks over disjoint persons and
    messages, merged by timestamp, at the edge rate of one: the same
    averaging over seeds as :func:`so_communities`, for the join work a
    random friendship graph causes."""
    parts = []
    for k in range(towns):
        part = snb_stream(
            n_edges // towns,
            persons_each,
            seed * 1000 + k,
            mean_gap=towns * (HOUR // 12),
        )
        shift = k * 1_000_000
        parts.append(
            [
                SGE((e.src[0], e.src[1] + shift), (e.trg[0], e.trg[1] + shift),
                    e.label, e.t)
                for e in part
            ]  # fmt: skip
        )
    return list(heapq.merge(*parts, key=lambda e: e.t))


def snb_stream(
    n_edges: int,
    n_persons: int,
    seed: int,
    mean_gap: int = HOUR // 12,
    reply_fraction: float = 0.55,
) -> list[SGE]:
    rng = random.Random(seed)
    t = 0
    edges: list[SGE] = []
    n_messages = 0  # message ids are 0..n_messages-1, in creation order
    while len(edges) < n_edges:
        action = rng.random()
        if action < 0.15:
            a = rng.randrange(n_persons)
            b = rng.randrange(n_persons)
            if a == b:
                b = (b + 1) % n_persons
            edges.append(SGE(("P", a), ("P", b), "knows", t))
            if len(edges) < n_edges:
                edges.append(SGE(("P", b), ("P", a), "knows", t))
        elif action < 0.55:
            creator = ("P", rng.randrange(n_persons))
            mid = n_messages
            n_messages += 1
            edges.append(SGE(("M", mid), creator, "hasCreator", t))
            if (
                mid
                and rng.random() < reply_fraction
                and len(edges) < n_edges
            ):
                # strictly backwards, so replyOf stays a forest
                parent = mid - 1 - rng.randrange(min(mid, 50))
                edges.append(SGE(("M", mid), ("M", parent), "replyOf", t))
        elif n_messages:
            liked = n_messages - 1 - rng.randrange(min(n_messages, 100))
            liker = ("P", rng.randrange(n_persons))
            edges.append(SGE(liker, ("M", liked), "likes", t))
        t += rng.randint(0, 2 * mean_gap)
    return edges[:n_edges]


def uniform_stream(n_edges: int, n_vertices: int, seed: int) -> list[SGE]:
    rng = random.Random(seed)
    t = 0
    edges = []
    for _ in range(n_edges):
        t += rng.randint(0, 2)
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.append(SGE(u, v, rng.choice(SERVE_LABELS), t))
    return edges


def with_deletions(
    edges: list[SGE],
    seed: int,
    share: float,
    min_delay: int,
    max_delay: int,
) -> list[tuple[str, SGE]]:
    """Merge ``edges`` with explicit deletions of ``share`` of them.

    Returns ``("+", edge)`` / ``("-", edge)`` operations in issue order.
    A deletion is issued once the stream has reached the edge's
    timestamp plus its delay; deletions the stream never reaches are
    left out.
    """
    rng = random.Random(seed ^ 0x5EED)
    due: list[tuple[int, int, SGE]] = []
    for i, edge in enumerate(edges):
        if rng.random() < share:
            due.append((edge.t + rng.randint(min_delay, max_delay), i, edge))
    due.sort()
    ops: list[tuple[str, SGE]] = []
    k = 0
    for edge in edges:
        ops.append(("+", edge))
        while k < len(due) and due[k][0] <= edge.t:
            ops.append(("-", due[k][2]))
            k += 1
    return ops
