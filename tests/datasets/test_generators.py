"""Unit tests for the synthetic dataset generators."""

import hashlib
from collections import Counter

from repro.datasets import (
    SNB_LABELS,
    SO_LABELS,
    snb_stream,
    stackoverflow_stream,
    uniform_stream,
    zipf_stream,
)
from repro.datasets.snb import message, person


class TestUniformAndZipf:
    def test_sizes_and_order(self):
        for generator in (uniform_stream, zipf_stream):
            edges = generator(200, 20, ("a", "b"), seed=1)
            assert len(edges) == 200
            assert all(
                e1.t <= e2.t for e1, e2 in zip(edges, edges[1:])
            ), "timestamps must be non-decreasing"

    def test_deterministic_per_seed(self):
        assert uniform_stream(50, 10, ("a",), seed=3) == uniform_stream(
            50, 10, ("a",), seed=3
        )
        assert uniform_stream(50, 10, ("a",), seed=3) != uniform_stream(
            50, 10, ("a",), seed=4
        )

    def test_labels_restricted(self):
        edges = uniform_stream(100, 10, ("x", "y"), seed=0)
        assert {e.label for e in edges} <= {"x", "y"}

    def test_zipf_is_skewed(self):
        edges = zipf_stream(2000, 100, ("a",), seed=0, skew=1.3)
        degree = Counter(e.src for e in edges)
        top = sum(count for _, count in degree.most_common(10))
        assert top > 0.35 * len(edges), "top-10 vertices should dominate"


class TestStackOverflow:
    def test_basic_shape(self):
        edges = stackoverflow_stream(n_edges=500, n_users=50, seed=0)
        assert len(edges) == 500
        assert {e.label for e in edges} <= set(SO_LABELS)
        assert all(e1.t <= e2.t for e1, e2 in zip(edges, edges[1:]))

    def test_no_self_loops(self):
        edges = stackoverflow_stream(n_edges=500, n_users=50, seed=1)
        assert all(e.src != e.trg for e in edges)

    def test_cyclic_structure(self):
        """Reciprocity must create 2-cycles — the property that makes SO
        the paper's hardest dataset."""
        edges = stackoverflow_stream(
            n_edges=1000, n_users=60, seed=2, reciprocity=0.5
        )
        pairs = {(e.src, e.trg) for e in edges}
        reciprocated = sum(1 for (u, v) in pairs if (v, u) in pairs)
        assert reciprocated > len(pairs) * 0.2

    def test_heavy_tail(self):
        edges = stackoverflow_stream(n_edges=2000, n_users=200, seed=3)
        degree = Counter()
        for e in edges:
            degree[e.trg] += 1
        top = sum(count for _, count in degree.most_common(20))
        assert top > 0.25 * len(edges)

    def test_deterministic(self):
        a = stackoverflow_stream(n_edges=300, n_users=40, seed=9)
        b = stackoverflow_stream(n_edges=300, n_users=40, seed=9)
        assert a == b


class TestSNB:
    def test_basic_shape(self):
        edges = snb_stream(n_edges=800, n_persons=60, seed=0)
        assert len(edges) == 800
        assert {e.label for e in edges} <= set(SNB_LABELS)
        assert all(e1.t <= e2.t for e1, e2 in zip(edges, edges[1:]))

    def test_vertex_spaces_disjoint(self):
        edges = snb_stream(n_edges=800, n_persons=60, seed=1)
        for e in edges:
            if e.label == "knows":
                assert e.src[0] == "P" and e.trg[0] == "P"
            elif e.label == "likes":
                assert e.src[0] == "P" and e.trg[0] == "M"
            elif e.label == "hasCreator":
                assert e.src[0] == "M" and e.trg[0] == "P"
            elif e.label == "replyOf":
                assert e.src[0] == "M" and e.trg[0] == "M"

    def test_replyof_is_forest(self):
        """The tree-shape of replyOf is what the paper's SNB observations
        hinge on: each message replies to at most one earlier message."""
        edges = snb_stream(n_edges=3000, n_persons=100, seed=2)
        parent: dict = {}
        for e in edges:
            if e.label != "replyOf":
                continue
            assert e.src not in parent, "a message replied twice"
            parent[e.src] = e.trg
        # Replies always point to strictly earlier messages: acyclic.
        for child, par in parent.items():
            assert child[1] > par[1]

    def test_knows_inserted_both_directions(self):
        edges = snb_stream(n_edges=2000, n_persons=50, seed=3)
        knows = [(e.src, e.trg, e.t) for e in edges if e.label == "knows"]
        forward = {(u, v, t) for u, v, t in knows}
        matched = sum(1 for (u, v, t) in knows if (v, u, t) in forward)
        assert matched >= len(knows) - 2  # boundary truncation tolerance

    def test_messages_have_creators(self):
        edges = snb_stream(n_edges=1000, n_persons=40, seed=4)
        created = {e.src for e in edges if e.label == "hasCreator"}
        replied = {e.src for e in edges if e.label == "replyOf"}
        assert replied <= created

    def test_stream_is_pinned(self):
        """The exact edge sequence is part of the benchmark's contract:
        a generator rewrite must keep every ``rng`` draw in place."""
        digest = hashlib.sha256()
        for e in snb_stream(5000, n_persons=300, seed=7):
            digest.update(repr((e.src, e.trg, e.label, e.t)).encode() + b"\n")
        assert digest.hexdigest() == (
            "e4622f91910b90430f8453024814271ddb724f1d23b4922092b564fcbef605d7"
        )

    def test_person_message_helpers(self):
        assert person(3) == ("P", 3)
        assert message(7) == ("M", 7)
