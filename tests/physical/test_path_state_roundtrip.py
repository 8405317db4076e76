"""Operator-level checkpoint round trips of the PATH state.

A PATH operator restored from a mid-stream snapshot must continue
exactly like the operator that was never interrupted: same emissions in
the same order, same final state.  Iteration order is part of that
state — the Δ-tree's children and the inverted index are
insertion-ordered, and the adjacency's per-edge interval lists drive
max-expiry tie-breaks — so the blobs must carry it verbatim.
"""

import pickle

import pytest

from repro.core.intervals import Interval
from repro.core.tuples import SGT
from repro.dataflow.graph import DataflowGraph, Event, SinkOp
from repro.physical.delta_index import DeltaPathIndex, WindowAdjacency
from repro.physical.rpq_negative import NegativeTupleRpqOp
from repro.physical.spath import SPathOp

from .test_path_ingest_parity import LABEL, random_script

FIGURE9_EDGES = [
    ("x", "z", 23, 31),
    ("z", "u", 24, 32),
    ("x", "y", 25, 35),
    ("y", "w", 26, 33),
    ("z", "t", 27, 40),
    ("y", "u", 28, 37),
    ("u", "v", 29, 41),
    ("u", "s", 30, 38),
    ("w", "v", 30, 39),
]


def wire(op):
    graph = DataflowGraph()
    graph.add(op)
    sink = SinkOp()
    graph.add(sink)
    graph.connect(op, sink, 0)
    return sink


def feed(op, steps):
    for step in steps:
        if step[0] == "advance":
            op.on_advance(step[1])
        else:
            op.on_event(0, Event(step[1], step[2]))


def figure9_script():
    steps = []
    for src, trg, ts, exp in FIGURE9_EDGES:
        steps.append(("delta", SGT(src, trg, LABEL, Interval(ts, exp)), 1))
    steps.extend(("advance", t) for t in (31, 33, 35, 41))
    return steps


def restore_and_compare(op_cls, steps, cut):
    """Run ``steps`` uninterrupted and as prefix → snapshot → restore
    into a fresh operator → suffix; the two runs must agree."""
    reference = op_cls([LABEL], "RL+", "P")
    reference_sink = wire(reference)
    feed(reference, steps[:cut])
    before = len(reference_sink.events)
    blob = pickle.loads(pickle.dumps(reference.snapshot_state()))

    restored = op_cls([LABEL], "RL+", "P")
    restored_sink = wire(restored)
    restored.restore_state(blob)
    assert restored.state_size() == reference.state_size()

    feed(reference, steps[cut:])
    feed(restored, steps[cut:])
    assert [(e.sgt, e.sign) for e in restored_sink.events] == [
        (e.sgt, e.sign) for e in reference_sink.events[before:]
    ]
    assert restored.snapshot_state() == reference.snapshot_state()
    return reference_sink, restored_sink


@pytest.mark.parametrize(
    "seed,deletes", [(1, False), (7, False), (23, True), (91, True)]
)
@pytest.mark.parametrize("op_cls", [NegativeTupleRpqOp, SPathOp])
def test_restore_mid_stream_continues_identically(op_cls, seed, deletes):
    steps = random_script(seed, deletes)
    reference_sink, _ = restore_and_compare(op_cls, steps, len(steps) // 2)
    assert reference_sink.events


@pytest.mark.parametrize("cut", [2, 4, 6, 8])
@pytest.mark.parametrize("op_cls", [NegativeTupleRpqOp, SPathOp])
def test_figure9_restore_at_cut(op_cls, cut):
    """The paper's Figure 9 stream, cut before and after the edges whose
    expiry forces re-derivation at t=31."""
    restore_and_compare(op_cls, figure9_script(), cut)


@pytest.mark.parametrize("op_cls", [NegativeTupleRpqOp, SPathOp])
def test_snapshot_restore_snapshot_is_identity(op_cls):
    op = op_cls([LABEL], "RL+", "P")
    wire(op)
    feed(op, random_script(seed=5, deletes=True)[:60])
    blob = op.snapshot_state()
    copy = op_cls([LABEL], "RL+", "P")
    wire(copy)
    copy.restore_state(pickle.loads(pickle.dumps(blob)))
    assert copy.snapshot_state() == blob


def test_adjacency_restore_keeps_interval_order_and_wheel():
    adj = WindowAdjacency()
    adj.add("u", "v", "l", Interval(5, 20))
    adj.add("u", "v", "l", Interval(1, 9))
    adj.add("u", "w", "l", Interval(2, 30))
    restored = WindowAdjacency()
    restored.restore_state(pickle.loads(pickle.dumps(adj.snapshot_state())))
    assert len(restored) == 3
    assert restored.out_group("u")[("l", "v")] == [Interval(5, 20), Interval(1, 9)]
    assert restored.in_group("v")[("l", "u")] == [Interval(5, 20), Interval(1, 9)]
    restored.purge(9)  # the restored wheel still drives expiry
    assert len(restored) == 2
    assert restored.out_edges("u", 10) == [
        ("l", "v", Interval(5, 20)),
        ("l", "w", Interval(2, 30)),
    ]


def test_path_index_restore_keeps_insertion_order_after_removals():
    index = DeltaPathIndex(0)
    tree = index.ensure_tree("x")
    tree.add_child(("x", 0), ("y", 1), 2, 9, "a")
    tree.add_child(("x", 0), ("w", 1), 2, 9, "a")
    index.register("x", ("y", 1))
    index.register("x", ("w", 1))
    for key, _ in tree.remove_subtree(("y", 1)):
        index.unregister("x", key)
    tree.add_child(("w", 1), ("v", 2), 3, 9, "b")
    index.register("x", ("v", 2))
    blob = index.snapshot_state()

    restored = DeltaPathIndex(0)
    restored.restore_state(pickle.loads(pickle.dumps(blob)))
    assert list(restored.tree("x").nodes) == [("x", 0), ("w", 1), ("v", 2)]
    assert list(restored.tree("x").get(("x", 0)).children) == [("w", 1)]
    assert restored.roots_containing(("v", 2)) == ("x",)
    assert restored.roots_containing(("y", 1)) == ()
    assert restored.snapshot_state() == blob
