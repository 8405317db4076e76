"""The benchmark's generators against the library's, edge for edge.

Run explicitly (``perfbench/tests`` is not in the tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import streams  # noqa: E402

from repro.datasets import snb_stream, stackoverflow_stream  # noqa: E402
from repro.datasets.generators import uniform_stream  # noqa: E402

N = 5_000


def test_so_stream_matches_library_generator():
    ours = streams.so_stream(N, 2000, 7, reciprocity=0.4, active_pool=500)
    theirs = stackoverflow_stream(
        N, n_users=2000, seed=7, reciprocity=0.4, active_pool=500
    )
    assert ours == theirs


def test_snb_stream_matches_library_generator():
    assert streams.snb_stream(N, 300, 7) == snb_stream(N, n_persons=300, seed=7)


def test_uniform_stream_matches_library_generator():
    theirs = uniform_stream(N, 200, streams.SERVE_LABELS, seed=7, max_gap=2)
    assert streams.uniform_stream(N, 200, 7) == theirs


def test_a_second_seed_changes_every_stream():
    assert streams.so_stream(N, 2000, 1, 0.4, 500) != streams.so_stream(
        N, 2000, 2, 0.4, 500
    )
    assert streams.so_communities(N, 16, 125, 31, 1) != streams.so_communities(
        N, 16, 125, 31, 2
    )
    assert streams.snb_stream(N, 300, 1) != streams.snb_stream(N, 300, 2)
    assert streams.uniform_stream(N, 200, 1) != streams.uniform_stream(N, 200, 2)


def test_communities_are_disjoint_and_ordered():
    edges = streams.so_communities(N, 16, 125, 31, 3)
    assert len(edges) == N // 16 * 16
    assert all(a.t <= b.t for a, b in zip(edges, edges[1:]))
    assert all(e.src // 125 == e.trg // 125 for e in edges)
    assert {e.src // 125 for e in edges} == set(range(16))


def test_snb_stream_is_linear_time():
    start = time.perf_counter()
    streams.snb_stream(200_000, 5000, 0)
    assert time.perf_counter() - start < 10


def test_deletions_follow_their_inserts_by_their_delay():
    edges = streams.so_stream(N, 2000, 5, 0.4, 500)
    ops = streams.with_deletions(
        edges, 5, share=0.15, min_delay=streams.HOUR, max_delay=streams.DAY
    )
    assert [e for sign, e in ops if sign == "+"] == edges
    deleted = [e for sign, e in ops if sign == "-"]
    assert 0.10 * N < len(deleted) < 0.15 * N
    position = {id(e): i for i, (sign, e) in enumerate(ops) if sign == "+"}
    now = 0
    for i, (sign, edge) in enumerate(ops):
        if sign == "+":
            now = edge.t
        else:
            assert position[id(edge)] < i
            assert streams.HOUR <= now - edge.t
