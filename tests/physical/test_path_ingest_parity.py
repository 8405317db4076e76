"""The PATH operators' three ingestion entry points agree bit for bit.

A PATH operator receives its input as single events (``on_event``), as
row batches (from an upstream PATH that materializes paths, or a join
fed by one), or as columnar batches.  Every form runs the same
arrival-order row loop over the same operator state, so over one stream
with window boundaries (and, optionally, explicit deletions)
interleaved, each batched form must emit exactly the events of the
per-event run, in the same order, and end in the same state.
"""

import random

import pytest

from repro.core.batch import DeltaBatch
from repro.core.columns import DeltaColumns
from repro.core.intervals import Interval
from repro.core.tuples import SGT
from repro.dataflow.graph import DELETE, INSERT, DataflowGraph, Event, SinkOp
from repro.physical.rpq_negative import NegativeTupleRpqOp
from repro.physical.spath import SPathOp

LABEL = "RL"


def wire(op):
    graph = DataflowGraph()
    graph.add(op)
    sink = SinkOp()
    graph.add(sink)
    graph.connect(op, sink, 0)
    return sink


def random_script(seed, deletes, n=70, vertices=8, slide=5, lifetime=30):
    """One stream as ``("advance", t)`` and ``("delta", sgt, sign)`` steps.

    Deletions retract a previously inserted edge with its exact
    interval (possibly after it has already expired — a no-op the
    operators must also agree on).
    """
    rng = random.Random(seed)
    steps = []
    live = []
    t = 0
    boundary = 0
    for _ in range(n):
        t += rng.randint(0, 2)
        while boundary + slide <= t:
            boundary += slide
            steps.append(("advance", boundary))
        if deletes and live and rng.random() < 0.25:
            sgt = live.pop(rng.randrange(len(live)))
            steps.append(("delta", sgt, DELETE))
            continue
        src = rng.randrange(vertices)
        trg = rng.randrange(vertices)
        if src == trg:
            continue
        sgt = SGT(src, trg, LABEL, Interval(t, t + rng.randint(1, lifetime)))
        live.append(sgt)
        steps.append(("delta", sgt, INSERT))
    end = max(step[1].interval.exp for step in steps if step[0] == "delta")
    while boundary <= end:
        boundary += slide
        steps.append(("advance", boundary))
    return steps


def _make_batch(form, boundary, sgts, signs):
    if all(sign == INSERT for sign in signs):
        signs = None
    if form == "rows":
        return DeltaBatch(boundary, sgts, signs)
    columns = [
        [sgt.src for sgt in sgts],
        [sgt.trg for sgt in sgts],
        [sgt.interval.ts for sgt in sgts],
        [sgt.interval.exp for sgt in sgts],
    ]
    return DeltaBatch(boundary, signs=signs, columns=DeltaColumns(LABEL, *columns))


def run(op, steps, form):
    """Feed ``steps`` to ``op``: per event, or one batch per run of
    deltas between two window boundaries."""
    sink = wire(op)
    boundary = 0
    pending: list[tuple[SGT, int]] = []

    def flush():
        if pending:
            sgts = [sgt for sgt, _ in pending]
            signs = [sign for _, sign in pending]
            op.on_batch(0, _make_batch(form, boundary, sgts, signs))
            pending.clear()

    for step in steps:
        if step[0] == "advance":
            flush()
            boundary = step[1]
            op.on_advance(boundary)
        elif form == "event":
            op.on_event(0, Event(step[1], step[2]))
        else:
            pending.append((step[1], step[2]))
    flush()
    return sink


def _emitted(sink, materialize):
    if materialize:
        return [(e.sgt, e.sign) for e in sink.events]
    # Without materialized paths a columnar run captures bare columns;
    # compare what both forms carry.
    return [
        (e.sgt.src, e.sgt.trg, e.sgt.label, e.sgt.interval, e.sign)
        for e in sink.events
    ]


FORMS = ["rows", "columns"]


@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize("deletes", [False, True], ids=["inserts", "deletes"])
@pytest.mark.parametrize("op_cls", [NegativeTupleRpqOp, SPathOp])
@pytest.mark.parametrize("form", FORMS)
def test_batched_forms_match_per_event(form, op_cls, deletes, materialize):
    steps = random_script(seed=7 if deletes else 23, deletes=deletes)
    reference = op_cls([LABEL], "RL+", "P", materialize_paths=materialize)
    reference_sink = run(reference, steps, "event")
    op = op_cls([LABEL], "RL+", "P", materialize_paths=materialize)
    sink = run(op, steps, form)

    expected = _emitted(reference_sink, materialize)
    assert expected  # a stream that produces nothing proves nothing
    assert _emitted(sink, materialize) == expected
    assert op.state_size() == reference.state_size()
    assert op.snapshot_state() == reference.snapshot_state()
    assert op.maintenance_counters == reference.maintenance_counters
