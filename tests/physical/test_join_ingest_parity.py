"""PATTERN joins over every ingestion form and over wide vertex ids.

A three-conjunct chain ``out(x, w) <- a(x, y), b(y, z), c(z, w)`` is
fed per event, as row batches and as columns.  Every form must produce exactly
the results of a brute-force nested-loop join of the same stream.
Vertex ids are shifted by offsets that straddle 2**21 and reach 2**40,
so join keys are compared as the ids themselves, whatever their width.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.core.batch import DeltaBatch
from repro.core.columns import DeltaColumns
from repro.core.intervals import Interval
from repro.core.tuples import SGT
from repro.dataflow.graph import INSERT, DataflowGraph, Event, SinkOp
from repro.physical.join import PatternOp

LABELS = ("a", "b", "c")
SLIDE = 5


def chain_op():
    op = PatternOp([("x", "y"), ("y", "z"), ("z", "w")], "x", "w", "out")
    graph = DataflowGraph()
    graph.add(op)
    sink = SinkOp()
    graph.add(sink)
    graph.connect(op, sink, 0)
    return op, sink


def random_stream(seed, offset, n=90, vertices=6, lifetime=12):
    """``(port, sgt)`` insertions in timestamp order."""
    rng = random.Random(seed)
    stream = []
    t = 0
    for _ in range(n):
        t += rng.randint(0, 1)
        port = rng.randrange(len(LABELS))
        src = offset + rng.randrange(vertices)
        trg = offset + rng.randrange(vertices)
        interval = Interval(t, t + rng.randint(1, lifetime))
        stream.append((port, SGT(src, trg, LABELS[port], interval)))
    return stream


def nested_loop_join(stream):
    """Every (a, b, c) triple whose endpoints chain and whose intervals
    intersect, as a multiset of ``(x, w, ts, exp)``."""
    by_port = [[sgt for port, sgt in stream if port == p] for p in range(3)]
    out = Counter()
    for a, b, c in itertools.product(*by_port):
        if a.trg != b.src or b.trg != c.src:
            continue
        ts = max(a.interval.ts, b.interval.ts, c.interval.ts)
        exp = min(a.interval.exp, b.interval.exp, c.interval.exp)
        if ts < exp:
            out[(a.src, c.trg, ts, exp)] += 1
    return out


def _batch(form, boundary, sgts):
    if form == "rows":
        return DeltaBatch(boundary, sgts)
    columns = [
        [sgt.src for sgt in sgts],
        [sgt.trg for sgt in sgts],
        [sgt.interval.ts for sgt in sgts],
        [sgt.interval.exp for sgt in sgts],
    ]
    return DeltaBatch(
        boundary, columns=DeltaColumns(sgts[0].label, *columns)
    )


def run(stream, form):
    """Feed ``stream`` per event, or as one batch per run of same-port
    tuples, advancing the window at every slide boundary on the way."""
    op, sink = chain_op()
    boundary = 0
    run_port, run_sgts = None, []

    def flush():
        if run_sgts:
            op.on_batch(run_port, _batch(form, boundary, list(run_sgts)))
            run_sgts.clear()

    for port, sgt in stream:
        while boundary + SLIDE <= sgt.interval.ts:
            flush()
            boundary += SLIDE
            op.on_advance(boundary)
        if form == "event":
            op.on_event(port, Event(sgt))
            continue
        if port != run_port:
            flush()
            run_port = port
        run_sgts.append(sgt)
    flush()
    return sink


FORMS = ["event", "rows", "columns"]


@pytest.mark.parametrize(
    "offset", [0, 2**21 - 3, 2**40], ids=["small", "straddle-2^21", "2^40"]
)
@pytest.mark.parametrize("form", FORMS)
def test_chain_join_matches_nested_loop(form, offset):
    stream = random_stream(seed=11, offset=offset)
    expected = nested_loop_join(stream)
    assert expected  # the stream must actually produce joins
    sink = run(stream, form)
    assert all(event.sign == INSERT for event in sink.events)
    got = Counter(
        (e.sgt.src, e.sgt.trg, e.sgt.interval.ts, e.sgt.interval.exp)
        for e in sink.events
    )
    assert got == expected
    assert all(type(key[0]) is int for key in got)
