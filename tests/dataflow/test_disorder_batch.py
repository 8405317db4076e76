"""Out-of-order input meeting the batched executor's watermark.

The documented policy (see :mod:`repro.dataflow.executor`):

* a late edge — one whose slide boundary precedes the current watermark
  boundary — is **never reassigned to the current slide**: WSCAN derives
  its validity interval from the edge's own timestamp;
* ``late_policy="allow"`` (default) processes it with that timestamp,
* ``late_policy="drop"`` discards and counts it,
* ``late_policy="raise"`` raises :class:`~repro.errors.StreamOrderError`;
* the watermark itself never regresses;
* bounded disorder composes via :func:`repro.dataflow.disorder.reorder`,
  which restores timestamp order upstream of the executor.
"""

import pytest

from repro.core.tuples import SGE
from repro.core.windows import SlidingWindow
from repro.dataflow.disorder import reorder
from repro.dataflow.executor import Executor
from repro.dataflow.graph import DataflowGraph, PhysicalOperator, SinkOp
from tests.conftest import SessionHarness
from repro.errors import StreamOrderError

WINDOW = SlidingWindow(size=40, slide=10)


class _Recorder(PhysicalOperator):
    def __init__(self):
        super().__init__("recorder")
        self.advances: list[int] = []

    def on_event(self, port, event):
        self.emit(event)

    def on_advance(self, t):
        self.advances.append(t)


def _build(slide=10, batch_size=None, late_policy="allow"):
    from repro.physical.wscan import WScanOp

    graph = DataflowGraph()
    source = graph.add_source("a")
    wscan = WScanOp("a", WINDOW)
    recorder = _Recorder()
    sink = SinkOp()
    graph.add(wscan)
    graph.add(recorder)
    graph.add(sink)
    graph.connect(source, wscan, 0)
    graph.connect(wscan, recorder, 0)
    graph.connect(recorder, sink, 0)
    executor = Executor(
        graph, slide, batch_size=batch_size, late_policy=late_policy
    )
    # Ingress interns vertices; decode on arrival to assert on values.
    sink.interner = executor.interner
    sink.decode_eagerly = True
    return executor, recorder, sink


class TestLatePolicyAllow:
    @pytest.mark.parametrize("batch_size", [None, 1, 4])
    def test_late_edge_keeps_own_slide_interval(self, batch_size):
        """A late sge is not silently merged into the wrong slide: its
        validity interval comes from its own timestamp (Definition 16)."""
        executor, recorder, sink = _build(batch_size=batch_size)
        executor.run([SGE(1, 2, "a", 25), SGE(3, 4, "a", 27), SGE(5, 6, "a", 4)])
        intervals = {(e.sgt.src, e.sgt.interval.ts, e.sgt.interval.exp)
                     for e in sink.events}
        # The late edge (t=4) carries the window interval of t=4 — not
        # an interval derived from the slide at 20.
        assert (5, 4, WINDOW.interval_for(4).exp) in intervals
        assert WINDOW.interval_for(4).exp == 40

    @pytest.mark.parametrize("batch_size", [None, 2])
    def test_watermark_never_regresses(self, batch_size):
        executor, recorder, _ = _build(batch_size=batch_size)
        executor.run([SGE(1, 2, "a", 25), SGE(5, 6, "a", 4)])
        assert recorder.advances == sorted(recorder.advances)
        assert recorder.advances[-1] == 20


class TestLatePolicyDrop:
    @pytest.mark.parametrize("batch_size", [None, 1, 4])
    def test_late_edges_dropped_and_counted(self, batch_size):
        executor, _, sink = _build(batch_size=batch_size, late_policy="drop")
        stats = executor.run(
            [SGE(1, 2, "a", 25), SGE(5, 6, "a", 4), SGE(7, 8, "a", 26)]
        )
        assert executor.late_count == 1
        assert {e.sgt.src for e in sink.events} == {1, 7}
        assert stats.total_edges == 2

    def test_push_edge_respects_drop(self):
        executor, _, sink = _build(late_policy="drop")
        executor.push_edge(SGE(1, 2, "a", 25))
        executor.push_edge(SGE(5, 6, "a", 4))
        assert executor.late_count == 1
        assert len(sink.events) == 1

    def test_same_slide_disorder_is_not_late(self):
        # Within one slide, arrival order may jitter freely.
        executor, _, sink = _build(batch_size=4, late_policy="drop")
        executor.run([SGE(1, 2, "a", 14), SGE(3, 4, "a", 11), SGE(5, 6, "a", 13)])
        assert executor.late_count == 0
        assert len(sink.events) == 3


class TestLatePolicyRaise:
    @pytest.mark.parametrize("batch_size", [None, 1])
    def test_late_edge_raises(self, batch_size):
        executor, _, _ = _build(batch_size=batch_size, late_policy="raise")
        with pytest.raises(StreamOrderError):
            executor.run([SGE(1, 2, "a", 25), SGE(5, 6, "a", 4)])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            _build(late_policy="what")


class TestDisorderBufferComposition:
    def test_reorder_restores_batched_equivalence(self):
        """An out-of-order stream pushed through ``reorder`` produces the
        same results as the in-order stream, at every batch size."""
        query = "Answer(x, y) <- knows+(x, y) as K."
        window = SlidingWindow(size=30, slide=5)
        in_order = [
            SGE("a", "b", "knows", 2),
            SGE("b", "c", "knows", 7),
            SGE("c", "d", "knows", 9),
            SGE("d", "a", "knows", 14),
            SGE("a", "e", "knows", 21),
        ]
        shuffled = [in_order[i] for i in (1, 0, 3, 2, 4)]

        reference = SessionHarness.from_datalog(query, window=window)
        reference.run(in_order)
        expected = reference.coverage()

        for batch_size in (None, 1, 3):
            processor = SessionHarness.from_datalog(
                query, window=window, batch_size=batch_size
            )
            processor.run(reorder(shuffled, lateness=10))
            assert processor.coverage() == expected

    def test_reorder_drops_beyond_lateness(self):
        edges = [SGE(1, 2, "l", 30), SGE(1, 3, "l", 2)]
        released = list(reorder(edges, lateness=5))
        assert [e.t for e in released] == [30]
