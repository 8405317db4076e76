"""Batch-size sweep: the crossover of batched delta execution.

Both engines are driven by the shared :class:`repro.core.batch.BatchScheduler`,
so ``batch_size`` means the same thing for each: how many arrivals are
applied per flush (``batch_size=1`` is honest tuple-at-a-time scheduling;
``None`` lets DD batch one whole epoch per slide, its native semantics).

Setup: the Table 2 workload — the SNB stream generator and the Table 2
queries Q1 (recursive closure) and Q5 (subgraph pattern) — at a
paper-like arrival rate (many edges per slide; the real streams carry
hours of traffic per slide, which is what gives batching something to
amortize).  SNB is the dataset where the paper finds the two systems
competitive (Table 2), i.e. where *driver* overhead — what this sweep
isolates — is visible; on the cyclic SO stream the recursive closure
work dominates both systems and the curves flatten (run the SO sweep via
``table2_rows``-style helpers if you want to see that).

Expected shape:

* DD throughput *grows* with the batch size (epoch batching, Figure 11) —
  tuple-at-a-time DD pays one full rule-DAG propagation per edge;
* SGA grows more modestly (its operators are incremental per tuple —
  Figure 10b's flatness — but batching amortizes per-hop dispatch);
* the aggregate throughput over the workload at the best swept batch
  size exceeds 1.5× the ``batch_size=1`` aggregate.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import register_section
from repro.bench.harness import run_dd_bench, run_sga_bench
from repro.core.windows import HOUR, SlidingWindow
from repro.datasets import snb_stream
from repro.query.parser import parse_rq
from repro.workloads import QUERIES, labels_for

QUERIES_SWEPT = ("Q1", "Q5")
#: Swept for both systems; the aggregate compares these directly.
BATCH_SIZES = (1, 16, 64, 256)
#: DD is additionally measured at ``None`` — its native whole-epoch
#: batching (one propagation per slide) — reported as ``epoch`` in the
#: detail table.  (SGA's ``None`` — one flush per slide — is not part
#: of the sweep.)
DD_BATCH_SIZES = BATCH_SIZES + (None,)
WINDOW = SlidingWindow(8 * HOUR, HOUR)

_rows: list[dict] = []


@pytest.fixture(scope="module")
def dense_snb():
    """SNB stream at a paper-like rate: ~30 edges per one-hour slide."""
    return snb_stream(n_edges=6000, n_persons=150, seed=0, mean_gap=2)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("query_name", QUERIES_SWEPT)
def test_sga_batch_size(benchmark, dense_snb, query_name, batch_size):
    plan = QUERIES[query_name].plan(labels_for(query_name, "snb"), WINDOW)
    result = benchmark.pedantic(
        run_sga_bench,
        args=(plan, dense_snb),
        kwargs={"path_impl": "negative", "batch_size": batch_size},
        iterations=1,
        rounds=1,
    )
    _rows.append(result.row(query=query_name, batch_size=batch_size))


@pytest.mark.parametrize("batch_size", DD_BATCH_SIZES)
@pytest.mark.parametrize("query_name", QUERIES_SWEPT)
def test_dd_batch_size(benchmark, dense_snb, query_name, batch_size):
    program = parse_rq(QUERIES[query_name].datalog(labels_for(query_name, "snb")))
    result = benchmark.pedantic(
        run_dd_bench,
        args=(program, dense_snb, WINDOW),
        kwargs={"batch_size": batch_size},
        iterations=1,
        rounds=1,
    )
    _rows.append(
        result.row(query=query_name, batch_size=batch_size or "epoch")
    )


def _aggregate_by_batch_size(rows: list[dict]) -> list[dict]:
    """Aggregate throughput (total edges / total seconds) per batch size.

    Only the sizes swept for *both* systems are aggregated; DD's extra
    ``epoch`` configuration stays in the detail table.
    """
    totals: dict[object, list[float]] = {}
    for row in rows:
        if row["batch_size"] not in BATCH_SIZES:
            continue
        edges = row["edges"]
        throughput = row["throughput (edges/s)"]
        if not throughput:
            continue
        seconds = edges / throughput
        acc = totals.setdefault(row["batch_size"], [0.0, 0.0])
        acc[0] += edges
        acc[1] += seconds
    out = []
    base = None
    for batch_size in BATCH_SIZES:
        if batch_size not in totals:
            continue
        edges, seconds = totals[batch_size]
        agg = edges / seconds if seconds else 0.0
        if batch_size == 1:
            base = agg
        out.append(
            {
                "batch_size": batch_size,
                "aggregate throughput (edges/s)": round(agg, 1),
                "speedup vs batch_size=1": (
                    round(agg / base, 2) if base else ""
                ),
            }
        )
    return out


def teardown_module(module):
    ordered = sorted(
        _rows, key=lambda r: (r["system"], r["query"], str(r["batch_size"]))
    )
    register_section("== Batch-size sweep: SGA and DD, SNB, Q1/Q5 ==", ordered)
    register_section(
        "== Batch-size sweep: aggregate over the workload ==",
        _aggregate_by_batch_size(_rows),
    )
