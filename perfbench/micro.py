"""The per-layer numbers of one traced pass of an in-process workload.

Everything here times calls into public functions from outside: the
operator spans come from :mod:`spans`, the rest from driving one layer
alone on the workload's own input (``Interner.intern_edges``,
``BatchScheduler.run`` with a no-op apply, a ``TimingWheel``, the dd
backend on a prefix, a checkpoint round trip).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import spans
from enginepass import best_of, build_engine, feed

from repro.checkpoint import DirectoryCheckpointStore
from repro.core.batch import BatchScheduler
from repro.core.expiry import TimingWheel
from repro.core.interning import Interner
from repro.engine.session import EngineConfig, StreamingGraphEngine

OUT = Path(__file__).resolve().parent / "out"

#: state_breakdown() names operators "<kind>[<label>]"
_STATE_LAYER = {"pattern": "join", "spath": "spath", "rpq": "spath",
                "coalesce": "coalesce", "sink": "sink"}  # fmt: skip
#: workloads the dd baseline is timed on (the paper's Table 2 pair)
_DD_WORKLOADS = ("so_path", "snb_pattern")


def operators_of(engine) -> list:
    sharded = engine._sharded
    if sharded is None:
        return list(engine._graph.operators)
    return [op for shard in sharded._shards for op in shard.graph.operators]


def state_rows(engine) -> dict[str, int]:
    rows = dict.fromkeys(set(_STATE_LAYER.values()), 0)
    for name, item in engine.state_breakdown().items():
        layer = _STATE_LAYER.get(name.split("[")[0])
        if layer is not None:
            rows[layer] += item["rows"]
    return rows


def traced_feed(spec, args, ops, queries) -> tuple[dict, dict, object]:
    """Feed a second engine with the wrappers installed, in sixteen
    chunks so the operator state can be sized between them."""
    sharded = spec.config.get("shards", 1) > 1
    # process workers hold their operators out of reach; the inline
    # transport runs the same shard topology in this process
    overrides = {"shard_transport": "inline"} if sharded else {}
    engine, handles = build_engine(spec, queries, **overrides)
    engine.advance_to(ops[0][1].t)
    tracer = spans.Tracer()
    tracer.install(operators_of(engine))
    engine_s = 0.0
    peak = 0
    step = max(1, len(ops) // 16)
    for at in range(0, len(ops), step):
        engine_s += feed(engine, ops[at : at + step])["feed_s"]
        rows = state_rows(engine)
        peak = max(peak, sum(rows.values()) - rows["sink"])
    path = OUT / f"{spec.name}.trace.json"
    tracer.write(
        path, {"workload": spec.name, "seed": args.seed, "push_s": engine_s}
    )
    layers = spans.derive(path)
    layers["engine.state_rows_peak"] = peak
    for layer, rows in state_rows(engine).items():
        layers[f"physical.{layer}.state_rows_end"] = rows
    counters = [
        op.maintenance_counters
        for op in operators_of(engine)
        if hasattr(op, "maintenance_counters")
    ]
    layers["physical.path.rederive_passes"] = sum(
        c["rederive_passes"] for c in counters
    )
    layers["physical.path.expired"] = sum(c["expired_nodes"] for c in counters)
    layers["physical.path.drained"] = sum(c["drained_entries"] for c in counters)
    if sharded:
        plain, _ = build_engine(spec, queries, **overrides)
        untraced = feed(plain, ops)
        baseline = untraced["feed_s"]
    else:
        baseline = None
    return layers, {"engine_s": engine_s, "baseline_s": baseline}, engine


def core_layers(spec, inserts) -> dict:
    intern_s = best_of(3, lambda: Interner().intern_edges(inserts))
    schedule_s = best_of(
        3, lambda: BatchScheduler(spec.slide).run(inserts, lambda b, e: None)
    )

    def wheel() -> None:
        # 100,000 entries due over 1,000 instants, drained slide by slide
        timing = TimingWheel()
        for i in range(100_000):
            timing.schedule(i % 1000 + 1, i)
        for t in range(0, 1001, 10):
            timing.drain_epochs(t)

    return {
        "core.intern_s": intern_s,
        "core.intern_edges_per_s": len(inserts) / intern_s,
        "core.schedule_s": schedule_s,
        "core.wheel_ns_per_entry": best_of(3, wheel) / 100_000 * 1e9,
    }


def dd_layers(spec, inserts, queries) -> dict:
    """The paper's Table 2 ratio on the first tenth of the input."""
    prefix = inserts[: len(inserts) // 10]

    def rate(**config) -> float:
        engine = StreamingGraphEngine(EngineConfig(**config))
        for name, query in queries:
            engine.register(query, name=name)
        stats = engine.push_many(prefix)
        return stats.total_edges / stats.total_seconds

    dd = rate(backend="dd")
    return {"dd.edges_per_s": dd, "dd.sga_over_dd": rate(**spec.config) / dd}


def checkpoint_layers(spec, engine) -> dict:
    root = OUT / f"{spec.name}.checkpoint"
    shutil.rmtree(root, ignore_errors=True)
    store = DirectoryCheckpointStore(str(root))
    try:
        start = time.perf_counter()
        engine.checkpoint(store)
        snapshot_s = time.perf_counter() - start
        size = sum(f.stat().st_size for f in root.rglob("*") if f.is_file())
        start = time.perf_counter()
        StreamingGraphEngine.restore(store).close()
        restore_s = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "checkpoint.snapshot_ms": snapshot_s * 1e3,
        "checkpoint.bytes": size,
        "checkpoint.restore_ms": restore_s * 1e3,
    }


def engine_layers(spec, args, ops, queries, engine, handles, out) -> dict:
    """``out`` is the untraced pass this process has just finished on
    ``engine``; the traced feed runs on a second engine."""
    inserts = [edge for sign, edge in ops if sign == "+"]
    layers, timing, traced_engine = traced_feed(spec, args, ops, queries)
    untraced_s = out["feed_s"]
    layers.update(out["stage_ms"])
    layers.update(core_layers(spec, inserts))
    layers.update(checkpoint_layers(spec, traced_engine))
    traced_engine.close()
    if spec.name in _DD_WORKLOADS:
        layers.update(dd_layers(spec, inserts, queries))
    layers.update(
        {
            "engine.push_s": out["push_s"],
            "engine.delete_us": out["delete_s"] / max(1, out["deletes"]) * 1e6,
            "engine.read.results_s": sum(out["results_parts"]),
            "engine.read.coverage_s": out["coverage_s"],
            "engine.read.valid_at_ms": sum(out["valid_at_parts"]) * 1e3,
            "engine.result_events": sum(h.result_count() for h in handles),
            "engine.rss_growth_mb": out["rss_growth_mb"],
            "host.calib_mops": out["calib_mops"],
            "trace.overhead_ratio": timing["engine_s"]
            / (timing["baseline_s"] or untraced_s),
        }
    )
    if engine._sharded is not None:
        busy = engine._sharded.worker_busy_seconds()
        layers.update(
            {
                "engine.sharded.busy_max_s": max(busy),
                "engine.sharded.busy_mean_s": sum(busy) / len(busy),
                "engine.sharded.skew": max(busy) / (sum(busy) / len(busy)),
                "engine.sharded.transport_s": untraced_s - max(busy),
                "engine.sharded.speedup_vs_serial": out["serial_push_s"]
                / untraced_s,
                "engine.sharded.rss_workers_mb": out["workers_mb"],
            }
        )
    return layers
