"""Window-maintenance counters of the two PATH operators.

The negative-tuple operator groups the nodes that expire at a window
boundary per tree and runs one repair traversal per affected tree —
``rederive_passes <= rederive_trees`` — instead of one per expired node.
A regression to per-node rederivation shows up as passes exceeding
trees, which no wall-clock test at this scale can catch.  S-PATH's
direct approach drops expired subtrees without any repair.
"""

import random

import pytest

from repro.bench.experiments import Scale, _stream
from repro.core.intervals import Interval
from repro.core.tuples import SGT
from repro.core.windows import HOUR
from repro.dataflow.graph import DataflowGraph, Event, SinkOp
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.physical.delta_index import new_maintenance_counters
from repro.physical.rpq_negative import NegativeTupleRpqOp
from repro.physical.spath import SPathOp
from repro.workloads import QUERIES, labels_for


def wire(op):
    graph = DataflowGraph()
    graph.add(op)
    sink = SinkOp()
    graph.add(sink)
    graph.connect(op, sink, 0)
    return sink


def push(op, src, trg, ts, exp, port=0):
    op.on_event(port, Event(SGT(src, trg, op.labels[port], Interval(ts, exp))))


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


def _random_edges(seed, n=60, vertices=8, labels=("RL",), horizon=40):
    rng = random.Random(seed)
    edges = []
    t = 0
    for _ in range(n):
        t += rng.randint(0, 2)
        src = rng.randrange(vertices)
        trg = rng.randrange(vertices)
        if src == trg:
            continue
        edges.append(
            (src, trg, rng.choice(labels), t, t + rng.randint(1, horizon))
        )
    return edges


SEEDS = [1, 3, 7, 17, 23, 91]
TABLE1 = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7")


def _drive(op, edges, boundaries):
    sink = wire(op)
    script = sorted(
        [("edge", e[3], e) for e in edges]
        + [("advance", b, None) for b in boundaries],
        key=lambda step: (step[1], step[0] == "advance"),
    )
    for kind, t, payload in script:
        if kind == "edge":
            src, trg, label, ts, exp = payload
            push(op, src, trg, ts, exp)
        else:
            op.on_advance(t)
    return sink


class TestMaintenanceCounters:
    def test_fresh_counters_are_zero(self):
        counters = new_maintenance_counters()
        assert set(counters) == {
            "boundaries",
            "drained_entries",
            "expired_nodes",
            "rederive_trees",
            "rederive_passes",
        }
        assert all(v == 0 for v in counters.values())

    def test_one_repair_pass_per_tree_per_boundary(self):
        """At a window boundary the rederivation count is bounded by the
        number of *affected trees*, never the number of expired nodes."""
        op = NegativeTupleRpqOp(["RL"], "RL+", "P")
        wire(op)
        for src, trg, ts, exp in FIGURE9_EDGES:
            push(op, src, trg, ts, exp)
        op.on_advance(31)  # expires the z-subtree: several nodes, 1 tree
        counters = op.maintenance_counters
        assert counters["boundaries"] == 1
        assert counters["expired_nodes"] >= 2
        assert counters["rederive_trees"] == 1
        assert counters["rederive_passes"] == counters["rederive_trees"]
        assert counters["rederive_passes"] < counters["expired_nodes"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariant_over_random_streams(self, seed):
        op = NegativeTupleRpqOp(["RL"], "RL+", "P")
        edges = _random_edges(seed)
        horizon = max(e[4] for e in edges) + 1
        _drive(op, edges, list(range(5, horizon + 5, 5)))
        counters = op.maintenance_counters
        assert counters["rederive_passes"] == counters["rederive_trees"]
        assert counters["rederive_trees"] <= counters["expired_nodes"]

    def test_spath_runs_no_boundary_repairs(self):
        op = SPathOp(["RL"], "RL+", "P")
        wire(op)
        for src, trg, ts, exp in FIGURE9_EDGES:
            push(op, src, trg, ts, exp)
        op.on_advance(31)
        counters = op.maintenance_counters
        assert counters["boundaries"] == 1
        assert counters["rederive_passes"] == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spath_never_repairs_over_random_streams(self, seed):
        op = SPathOp(["RL"], "RL+", "P")
        edges = _random_edges(seed)
        horizon = max(e[4] for e in edges) + 1
        _drive(op, edges, list(range(5, horizon + 5, 5)))
        counters = op.maintenance_counters
        assert counters["boundaries"] > 0
        assert counters["rederive_trees"] == counters["rederive_passes"] == 0

    @pytest.mark.parametrize("name", TABLE1)
    @pytest.mark.parametrize("dataset", ["snb", "so"])
    def test_table1_query_keeps_grouped_repair(self, dataset, name):
        totals = _table1_counters(dataset, name)
        assert totals["rederive_passes"] <= totals["rederive_trees"]
        assert totals["expired_nodes"] >= totals["rederive_trees"]

    def test_table1_queries_on_snb_stream(self):
        """Q1-Q7 end to end through the engine: every query keeps the
        grouped-repair invariant, and the stream really exercises expiry
        (a gate that never sees an expired node proves nothing)."""
        expired = 0
        for name in TABLE1:
            totals = _table1_counters("snb", name)
            assert totals["rederive_passes"] <= totals["rederive_trees"], name
            expired += totals["expired_nodes"]
        assert expired > 0


def _table1_counters(dataset, name):
    """Counters summed over every operator of one Table 1 query run
    with the negative-tuple PATH over a 400-edge stream."""
    scale = Scale(n_edges=400, n_vertices=40, window=8 * HOUR, slide=HOUR)
    stream = _stream(dataset, scale)
    engine = StreamingGraphEngine(
        EngineConfig(path_impl="negative", materialize_paths=False)
    )
    engine.register(
        QUERIES[name].plan(labels_for(name, dataset), scale.sliding_window()),
        name=name,
    )
    engine.push_many(stream)
    totals = dict.fromkeys(new_maintenance_counters(), 0)
    for op in engine._graph.operators:
        for key, value in getattr(op, "maintenance_counters", {}).items():
            totals[key] += value
    engine.close()
    return totals
