"""Synthetic LDBC-SNB-like social network update stream.

The paper extracts the LDBC Social Network Benchmark update stream and
keeps four edge types (Section 7.1.2):

* ``knows``      — person ↔ person friendship (inserted in both
  directions, as LDBC materializes undirected friendships);
* ``likes``      — person → message;
* ``hasCreator`` — message → person;
* ``replyOf``    — message → message, **strictly tree-shaped**: every
  message replies to at most one earlier message, so the replyOf graph is
  a forest.

The forest structure of ``replyOf`` is the property the paper leans on to
explain DD's competitiveness on SNB ("there is only one path between a
pair of vertices, so PATH-specific optimizations do not apply") — this
generator preserves it by construction, and the accompanying tests assert
it.

Vertices are encoded as ``("P", i)`` for persons and ``("M", j)`` for
messages so the two spaces can never collide.
"""

from __future__ import annotations

import random

from repro.core.tuples import SGE, Vertex
from repro.core.windows import HOUR

#: Edge labels of the SNB update stream subset used by the paper.
SNB_LABELS = ("knows", "likes", "hasCreator", "replyOf")


def person(i: int) -> Vertex:
    return ("P", i)


def message(j: int) -> Vertex:
    return ("M", j)


def snb_stream(
    n_edges: int = 20_000,
    n_persons: int = 500,
    seed: int = 0,
    mean_gap: int = HOUR // 12,
    reply_fraction: float = 0.55,
) -> list[SGE]:
    """Generate an SNB-like update stream.

    Each step either creates a friendship, posts a fresh message, replies
    to an existing message, or likes a message.  Message creation emits
    the ``hasCreator`` edge; replies additionally emit ``replyOf`` —
    always pointing to an *earlier* message, keeping the reply graph a
    forest of in-trees.
    """
    rng = random.Random(seed)
    t = 0
    edges: list[SGE] = []
    messages: list[int] = []  # message ids in creation order
    next_message = 0

    def random_person() -> Vertex:
        return person(rng.randrange(n_persons))

    while len(edges) < n_edges:
        action = rng.random()
        if action < 0.15:
            # Friendship: LDBC materializes knows in both directions.
            a = rng.randrange(n_persons)
            b = rng.randrange(n_persons)
            if a == b:
                b = (b + 1) % n_persons
            edges.append(SGE(person(a), person(b), "knows", t))
            if len(edges) < n_edges:
                edges.append(SGE(person(b), person(a), "knows", t))
        elif action < 0.55:
            # New message (post or comment).
            creator = random_person()
            mid = next_message
            next_message += 1
            messages.append(mid)
            edges.append(SGE(message(mid), creator, "hasCreator", t))
            n_earlier = len(messages) - 1  # every message before ``mid``
            if n_earlier and rng.random() < reply_fraction and len(edges) < n_edges:
                # Reply to a recent *earlier* message: strictly backwards,
                # so replyOf stays a forest.
                offset = rng.randrange(min(n_earlier, 50))
                parent = messages[n_earlier - 1 - offset]
                edges.append(SGE(message(mid), message(parent), "replyOf", t))
        else:
            # Like an existing message.
            if messages:
                liked = messages[
                    len(messages) - 1 - rng.randrange(min(len(messages), 100))
                ]
                edges.append(SGE(random_person(), message(liked), "likes", t))
        t += rng.randint(0, 2 * mean_gap)

    return edges[:n_edges]
