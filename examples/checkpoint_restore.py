"""Durability quickstart: checkpoint a live session, restore it exactly.

A streaming session accumulates irreplaceable state — window contents,
Δ-path closures, per-query result history.  The checkpoint subsystem
snapshots all of it at a watermark boundary into a versioned, atomic,
self-verifying on-disk checkpoint, and restores it bit-identically:
the restored engine continues the stream as if the process had never
stopped, down to the order of individual retraction events.

Demonstrates:

* `engine.checkpoint(store)` — one atomic snapshot of every query;
* `StreamingGraphEngine.restore(store)` — a fresh engine, same state;
* suffix parity — restored vs uninterrupted runs agree byte-for-byte;
* offline shard rebalancing — restore a 2-shard checkpoint into a
  3-shard engine (`restore(store, shards=3)`);
* retention — the store keeps the last K checkpoints, GC'ing older.

Run with:  python examples/checkpoint_restore.py
"""

import tempfile

from repro import EngineConfig, StreamingGraphEngine
from repro.bench.experiments import Scale, _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR
from repro.workloads import QUERIES, labels_for

# The paper's Q1 (transitive closure over 'knows') on the SNB-like
# benchmark stream, cut in half to simulate an interrupted run.
SCALE = Scale(n_edges=300, n_vertices=40, window=6 * HOUR, slide=HOUR)
stream = _stream("snb", SCALE)
cut = len(stream) // 2
plan = QUERIES["Q1"].plan(labels_for("Q1", "snb"), SCALE.sliding_window())

workdir = tempfile.mkdtemp(prefix="sgs-ckpt-")
store = DirectoryCheckpointStore(workdir, retain=3)

# ----------------------------------------------------------------------
# 1. Run half the stream, checkpoint, and "crash" (close the engine).
# ----------------------------------------------------------------------
engine = StreamingGraphEngine(EngineConfig(backend="sga"))
engine.register(plan, name="Q1")
engine.push_many(stream[:cut])
checkpoint_id = engine.checkpoint(store, note="example")
print(f"checkpointed {cut} edges as {checkpoint_id} in {workdir}")
print(f"  blobs: {store.open(checkpoint_id).blob_names()}")
engine.close()

# ----------------------------------------------------------------------
# 2. Restore into a brand-new engine and replay the suffix.
# ----------------------------------------------------------------------
restored = StreamingGraphEngine.restore(store)
events = []
restored.set_result_callback("Q1", events.append)
restored.push_many(stream[cut:])

# ----------------------------------------------------------------------
# 3. Compare against an uninterrupted engine fed the same two batches.
# ----------------------------------------------------------------------
reference = StreamingGraphEngine(EngineConfig(backend="sga"))
ref_events = []
reference.register(plan, name="Q1", on_result=ref_events.append)
reference.push_many(stream[:cut])
reference.push_many(stream[cut:])

suffix = ref_events[len(ref_events) - len(events):]
assert [repr(e) for e in events] == [repr(e) for e in suffix]
assert restored.handle("Q1").results() == reference.handle("Q1").results()
print(
    f"restored run emitted {len(events)} suffix events — bit-identical "
    "to the uninterrupted reference"
)
restored.close()

# ----------------------------------------------------------------------
# 4. Offline rebalancing: the same technique moves state between shard
#    layouts.  Snapshot under shards=2, restore under shards=3 — result
#    sets match (event *order* is layout-specific, results are not).
# ----------------------------------------------------------------------
sharded = StreamingGraphEngine(EngineConfig(backend="sga", shards=2))
sharded.register(plan, name="Q1")
sharded.push_many(stream[:cut])
sharded.checkpoint(store)
sharded.close()

wider = StreamingGraphEngine.restore(store, shards=3)
wider.push_many(stream[cut:])
assert set(wider.handle("Q1").results()) == set(
    reference.handle("Q1").results()
)
print("rebalanced 2-shard checkpoint into a 3-shard engine: results agree")
wider.close()
reference.close()

print(f"store retains (K=3): {store.list()}")
