"""Golden restore-parity suite, mirroring the sharded golden tests.

The durability contract under test: snapshot an engine mid-stream,
restore it (same process or fresh one, same shard count or not), replay
the stream suffix, and compare against an engine that never stopped.

* Same configuration (any shard count, both transports): the restored
  run is **bit-identical** — the raw result-event stream, ``results()``,
  ``coverage()`` and every ``valid_at`` surface match exactly.
* Restore into a *different* shard count (offline rebalancing): result
  sets, coverage and ``valid_at`` match exactly; raw event
  interleavings may differ (cross-shard cascade order is ownership-
  dependent), which is the same contract the live sharding suite pins.

Both runs ingest the stream as two ``push_many`` calls split at the
same cut so both sides see identical ingress — the *only* difference
between the runs is the snapshot/restore cycle itself.
"""

import pytest

from repro.bench.experiments import Scale, _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.workloads import QUERIES, labels_for

ALL = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]
SCALE = Scale(n_edges=400, n_vertices=50, window=6 * HOUR, slide=HOUR)


@pytest.fixture(scope="module")
def streams():
    return {ds: _stream(ds, SCALE) for ds in ("so", "snb")}


def _epoch_instants(stream, slide):
    boundaries = sorted({(e.t // slide) * slide for e in stream})
    return [b + slide - 1 for b in boundaries]


def _plan(query_name, dataset):
    return QUERIES[query_name].plan(
        labels_for(query_name, dataset), SCALE.sliding_window()
    )


def _surfaces(handle, stream):
    window = SCALE.sliding_window()
    return {
        "results": handle.results(),
        "coverage": {k: tuple(v) for k, v in handle.coverage().items()},
        "valid_at": [
            handle.valid_at(t) for t in _epoch_instants(stream, window.slide)
        ],
    }


def _uninterrupted(config, plan, stream, cut):
    engine = StreamingGraphEngine(config)
    handle = engine.register(plan, name="q")
    events = []
    engine.set_result_callback("q", events.append)
    engine.push_many(stream[:cut])
    engine.push_many(stream[cut:])
    surfaces = _surfaces(handle, stream)
    engine.close()
    return events, surfaces


def _with_restore(config, plan, stream, cut, tmp_path, restore_config=None):
    store = DirectoryCheckpointStore(str(tmp_path / "store"))
    engine = StreamingGraphEngine(config)
    engine.register(plan, name="q")
    events = []
    engine.set_result_callback("q", events.append)
    engine.push_many(stream[:cut])
    engine.checkpoint(store)
    engine.close()

    restored = StreamingGraphEngine.restore(store, config=restore_config)
    handle = restored.handle("q")
    restored.set_result_callback("q", events.append)
    restored.push_many(stream[cut:])
    surfaces = _surfaces(handle, stream)
    restored.close()
    return events, surfaces


class TestRestoreBitParity:
    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_suffix_replay_bit_identical(
        self, streams, tmp_path, dataset, query_name, shards
    ):
        stream = streams[dataset]
        cut = len(stream) // 2
        plan = _plan(query_name, dataset)
        config = EngineConfig(shards=shards)
        ref_events, ref = _uninterrupted(config, plan, stream, cut)
        got_events, got = _with_restore(config, plan, stream, cut, tmp_path)
        assert got_events == ref_events
        assert got == ref

    @pytest.mark.parametrize("batch_size", [1, 7])
    @pytest.mark.parametrize("query_name", ["Q1", "Q5"])
    def test_capped_flushes(self, streams, tmp_path, batch_size, query_name):
        stream = streams["snb"]
        cut = len(stream) // 2
        plan = _plan(query_name, "snb")
        config = EngineConfig(batch_size=batch_size)
        ref_events, ref = _uninterrupted(config, plan, stream, cut)
        got_events, got = _with_restore(config, plan, stream, cut, tmp_path)
        assert got_events == ref_events
        assert got == ref

    @pytest.mark.parametrize("query_name", ["Q1", "Q5"])
    def test_negative_path_impl(self, streams, tmp_path, query_name):
        stream = streams["so"]
        cut = len(stream) // 2
        plan = _plan(query_name, "so")
        config = EngineConfig(path_impl="negative", shards=2)
        ref_events, ref = _uninterrupted(config, plan, stream, cut)
        got_events, got = _with_restore(config, plan, stream, cut, tmp_path)
        assert got_events == ref_events
        assert got == ref

    def test_uneven_cut_points(self, streams, tmp_path):
        """The snapshot boundary is wherever the caller stops pushing —
        not just the midpoint; early and late cuts restore exactly."""
        stream = streams["snb"]
        plan = _plan("Q4", "snb")
        config = EngineConfig(shards=2)
        for cut in (1, len(stream) // 4, len(stream) - 1):
            ref_events, ref = _uninterrupted(config, plan, stream, cut)
            got_events, got = _with_restore(
                config, plan, stream, cut, tmp_path / f"cut{cut}"
            )
            assert got_events == ref_events, f"cut={cut}"
            assert got == ref, f"cut={cut}"


class TestRebalancedRestore:
    """Restore with a different shard count: set/coverage/valid_at
    parity against the uninterrupted run (raw interleavings are
    ownership-dependent, exactly as in the live sharding suite)."""

    @pytest.mark.parametrize("dataset", ["so", "snb"])
    @pytest.mark.parametrize("query_name", ALL)
    @pytest.mark.parametrize("old_new", [(2, 3), (3, 2)])
    def test_repartitioned_restore_parity(
        self, streams, tmp_path, dataset, query_name, old_new
    ):
        old_shards, new_shards = old_new
        stream = streams[dataset]
        cut = len(stream) // 2
        plan = _plan(query_name, dataset)
        _, ref = _uninterrupted(
            EngineConfig(shards=old_shards), plan, stream, cut
        )
        _, got = _with_restore(
            EngineConfig(shards=old_shards),
            plan,
            stream,
            cut,
            tmp_path,
            restore_config=EngineConfig(shards=new_shards),
        )
        assert set(got["results"]) == set(ref["results"])
        assert got["coverage"] == ref["coverage"]
        assert got["valid_at"] == ref["valid_at"]


class TestTransportsAndBackends:
    def test_process_transport_round_trip(self, streams, tmp_path):
        """Snapshot forked workers, restore into fresh forked workers."""
        stream = streams["snb"]
        cut = len(stream) // 2
        plan = _plan("Q1", "snb")
        config = EngineConfig(shards=2, shard_transport="process")
        store = DirectoryCheckpointStore(str(tmp_path / "store"))

        engine = StreamingGraphEngine(config)
        handle = engine.register(plan, name="q")
        engine.push_many(stream[:cut])
        engine.checkpoint(store)
        engine.close()

        ref_engine = StreamingGraphEngine(config)
        ref_handle = ref_engine.register(plan, name="q")
        ref_engine.push_many(stream[:cut])
        ref_engine.push_many(stream[cut:])

        restored = StreamingGraphEngine.restore(store)
        handle = restored.handle("q")
        restored.push_many(stream[cut:])
        assert handle.results() == ref_handle.results()
        assert {k: tuple(v) for k, v in handle.coverage().items()} == {
            k: tuple(v) for k, v in ref_handle.coverage().items()
        }
        restored.close()
        ref_engine.close()

    def test_inline_snapshot_restores_under_process_transport(
        self, streams, tmp_path
    ):
        """Only shards/shard_transport may move between snapshot and
        restore — transport is execution strategy, not state shape."""
        stream = streams["snb"]
        cut = len(stream) // 2
        plan = _plan("Q4", "snb")
        store = DirectoryCheckpointStore(str(tmp_path / "store"))
        engine = StreamingGraphEngine(EngineConfig(shards=2))
        engine.register(plan, name="q")
        engine.push_many(stream[:cut])
        engine.checkpoint(store)

        ref_handle = engine.handle("q")
        engine.push_many(stream[cut:])

        restored = StreamingGraphEngine.restore(
            store, shard_transport="process"
        )
        handle = restored.handle("q")
        restored.push_many(stream[cut:])
        assert set(handle.results()) == set(ref_handle.results())
        restored.close()
        engine.close()

    def test_dd_backend_round_trip(self, streams, tmp_path):
        stream = streams["snb"]
        cut = len(stream) // 2
        sgq = QUERIES["Q1"].sgq(
            labels_for("Q1", "snb"), SCALE.sliding_window()
        )
        config = EngineConfig(backend="dd")
        store = DirectoryCheckpointStore(str(tmp_path / "store"))
        slide = SCALE.sliding_window().slide

        ref = StreamingGraphEngine(config)
        ref_handle = ref.register(sgq, name="q")
        ref.push_many(stream[:cut])
        ref.push_many(stream[cut:])

        engine = StreamingGraphEngine(config)
        engine.register(sgq, name="q")
        engine.push_many(stream[:cut])
        engine.checkpoint(store)
        engine.close()
        restored = StreamingGraphEngine.restore(store)
        handle = restored.handle("q")
        restored.push_many(stream[cut:])

        assert handle.results() == ref_handle.results()
        for t in _epoch_instants(stream, slide):
            assert handle.valid_at(t) == ref_handle.valid_at(t), f"t={t}"
        restored.close()
        ref.close()


CHILD_SCRIPT = """
import sys, json
from repro.bench.experiments import Scale, _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR
from repro.engine.session import StreamingGraphEngine
from repro.workloads import QUERIES, labels_for

store_dir, cut = sys.argv[1], int(sys.argv[2])
scale = Scale(n_edges=400, n_vertices=50, window=6 * HOUR, slide=HOUR)
stream = _stream("snb", scale)
engine = StreamingGraphEngine.restore(DirectoryCheckpointStore(store_dir))
events = []
engine.set_result_callback("q", events.append)
engine.push_many(stream[cut:])
handle = engine.handle("q")
print(json.dumps({
    "events": [repr(e) for e in events],
    "results": sorted(repr(r) for r in handle.results()),
}))
engine.close()
"""


class TestCrossProcess:
    def test_restore_in_fresh_process(self, streams, tmp_path):
        """The headline guarantee: snapshot here, restore in a process
        with no shared memory, replay the suffix, match bit-for-bit."""
        import subprocess
        import sys as _sys
        import json as _json
        import os
        import pathlib

        stream = streams["snb"]
        cut = len(stream) // 2
        plan = _plan("Q4", "snb")
        config = EngineConfig(shards=2)
        store_dir = str(tmp_path / "store")
        store = DirectoryCheckpointStore(store_dir)

        engine = StreamingGraphEngine(config)
        engine.register(plan, name="q")
        events = []
        engine.set_result_callback("q", events.append)
        engine.push_many(stream[:cut])
        engine.checkpoint(store)
        engine.close()

        ref_engine = StreamingGraphEngine(config)
        ref_handle = ref_engine.register(plan, name="q")
        ref_events = []
        ref_engine.set_result_callback("q", ref_events.append)
        ref_engine.push_many(stream[:cut])
        ref_engine.push_many(stream[cut:])

        repo = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        proc = subprocess.run(
            [_sys.executable, "-c", CHILD_SCRIPT, store_dir, str(cut)],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        child = _json.loads(proc.stdout)
        suffix_events = [repr(e) for e in ref_events[len(events) :]]
        assert child["events"] == suffix_events
        assert child["results"] == sorted(
            repr(r) for r in ref_handle.results()
        )
        ref_engine.close()
