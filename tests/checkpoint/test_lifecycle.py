"""Checkpoint lifecycle edges: drift rejection, unregister, re-register.

Beyond the straight-line snapshot/restore path (tests/checkpoint/
test_restore_golden.py), the checkpoint subsystem has to behave at the
lifecycle seams: a query unregistered before the snapshot must not
reappear after restore, a restored engine must accept brand-new query
registrations, restoring the same checkpoint twice must be idempotent,
and any restore-time configuration drift beyond the sanctioned shard
re-layout must be refused with a typed error before any state is
attached.
"""

import hashlib
import json
import pickle
import shutil

import pytest

from repro.bench.experiments import Scale, _stream
from repro.checkpoint import DirectoryCheckpointStore
from repro.core.windows import HOUR
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.errors import CheckpointError
from repro.workloads import QUERIES, labels_for
from tests.checkpoint.test_restore_fixture import FIXTURE

SCALE = Scale(n_edges=120, n_vertices=30, window=6 * HOUR, slide=HOUR)


@pytest.fixture(scope="module")
def stream():
    return _stream("snb", SCALE)


def _plan(query_name):
    return QUERIES[query_name].plan(
        labels_for(query_name, "snb"), SCALE.sliding_window()
    )


def _checkpoint_after(stream, cut, store, config=None, queries=("Q1",)):
    engine = StreamingGraphEngine(config or EngineConfig(backend="sga"))
    for name in queries:
        engine.register(_plan(name), name=name)
    engine.push_many(stream[:cut])
    checkpoint_id = engine.checkpoint(store)
    engine.close()
    return checkpoint_id


class TestConfigDrift:
    def test_path_impl_drift_rejected(self, stream, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(stream, 60, store)
        with pytest.raises(
            CheckpointError, match=r"field\(s\) \['path_impl'\] differ"
        ):
            StreamingGraphEngine.restore(store, path_impl="negative")

    def test_coalesce_drift_rejected(self, stream, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(stream, 60, store)
        with pytest.raises(
            CheckpointError, match=r"field\(s\) \['coalesce_intermediate'\]"
        ):
            StreamingGraphEngine.restore(
                store,
                config=EngineConfig(backend="sga", coalesce_intermediate=False),
            )

    def test_serial_to_sharded_rejected(self, stream, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(stream, 60, store)
        with pytest.raises(
            CheckpointError, match="requires both shard counts >= 2"
        ):
            StreamingGraphEngine.restore(store, shards=2)

    def test_sharded_to_serial_rejected(self, stream, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(
            stream,
            60,
            store,
            EngineConfig(backend="sga", shards=2),
        )
        with pytest.raises(
            CheckpointError, match="requires both shard counts >= 2"
        ):
            StreamingGraphEngine.restore(store, shards=1)

    def test_stored_config_is_the_default(self, stream, tmp_path):
        """Restore with no config inherits the checkpoint's own config."""
        store = DirectoryCheckpointStore(str(tmp_path))
        config = EngineConfig(backend="sga", batch_size=16, late_policy="drop")
        _checkpoint_after(stream, 60, store, config)
        restored = StreamingGraphEngine.restore(store)
        assert restored.config == config
        restored.close()


def _fixture_with_execution(tmp_path, execution):
    """A copy of the committed pre-change checkpoint whose stored config
    says ``execution=execution`` (manifest digest updated to match)."""
    root = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", root)
    ckpt = root / "ckpt-000001"
    state = pickle.loads((ckpt / "engine.pkl").read_bytes())
    assert state["config"]["execution"] == "vector"
    state["config"]["execution"] = execution
    data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    (ckpt / "engine.pkl").write_bytes(data)
    manifest = json.loads((ckpt / "MANIFEST.json").read_text())
    manifest["blobs"]["engine"] = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "size": len(data),
    }
    (ckpt / "MANIFEST.json").write_text(json.dumps(manifest))
    return DirectoryCheckpointStore(str(root))


class TestRetiredConfigFields:
    """Checkpoints taken while ``EngineConfig`` still had ``execution``
    and ``columnar_min_run``."""

    def test_columnar_checkpoint_restores(self, tmp_path):
        store = _fixture_with_execution(tmp_path, "columnar")
        restored = StreamingGraphEngine.restore(store)
        assert restored.query_names == ("Q1", "Q2")
        assert not hasattr(restored.config, "execution")
        restored.close()

    def test_rows_checkpoint_refused(self, tmp_path):
        store = _fixture_with_execution(tmp_path, "rows")
        with pytest.raises(CheckpointError, match="'execution'"):
            StreamingGraphEngine.restore(store)


class TestUnregisterInteraction:
    def test_unregistered_query_stays_gone(self, stream, tmp_path):
        cut = len(stream) // 2
        store = DirectoryCheckpointStore(str(tmp_path))

        engine = StreamingGraphEngine(EngineConfig(backend="sga"))
        engine.register(_plan("Q1"), name="Q1")
        engine.register(_plan("Q5"), name="Q5")
        engine.push_many(stream[:cut])
        engine.unregister("Q5")
        engine.checkpoint(store)
        engine.close()

        ref = StreamingGraphEngine(EngineConfig(backend="sga"))
        ref_handle = ref.register(_plan("Q1"), name="Q1")
        ref.push_many(stream[:cut])
        ref.push_many(stream[cut:])

        restored = StreamingGraphEngine.restore(store)
        assert restored.query_names == ("Q1",)
        restored.push_many(stream[cut:])
        assert restored.handle("Q1").results() == ref_handle.results()
        restored.close()
        ref.close()

    def test_register_new_query_after_restore(self, stream, tmp_path):
        cut = len(stream) // 2
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(stream, cut, store)

        restored = StreamingGraphEngine.restore(store)
        fresh = restored.register(_plan("Q5"), name="Q5")
        restored.push_many(stream[cut:])

        # The late-registered query sees only the suffix, like a live
        # registration at the same point would.
        ref = StreamingGraphEngine(EngineConfig(backend="sga"))
        ref_q1 = ref.register(_plan("Q1"), name="Q1")
        ref.push_many(stream[:cut])
        ref_q5 = ref.register(_plan("Q5"), name="Q5")
        ref.push_many(stream[cut:])

        assert restored.handle("Q1").results() == ref_q1.results()
        assert fresh.results() == ref_q5.results()
        restored.close()
        ref.close()


class TestDoubleRestore:
    def test_restore_twice_is_idempotent(self, stream, tmp_path):
        cut = len(stream) // 2
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(stream, cut, store)

        first = StreamingGraphEngine.restore(store)
        second = StreamingGraphEngine.restore(store)
        first.push_many(stream[cut:])
        second.push_many(stream[cut:])
        assert first.handle("Q1").results() == second.handle("Q1").results()
        assert (
            first.handle("Q1").coverage() == second.handle("Q1").coverage()
        )
        first.close()
        second.close()

    def test_restored_engine_can_checkpoint_again(self, stream, tmp_path):
        third = len(stream) // 3
        store = DirectoryCheckpointStore(str(tmp_path))
        _checkpoint_after(stream, third, store)

        mid = StreamingGraphEngine.restore(store)
        mid.push_many(stream[third : 2 * third])
        second_id = mid.checkpoint(store)
        mid.close()

        final = StreamingGraphEngine.restore(store, checkpoint_id=second_id)
        final.push_many(stream[2 * third :])

        ref = StreamingGraphEngine(EngineConfig(backend="sga"))
        ref_handle = ref.register(_plan("Q1"), name="Q1")
        ref.push_many(stream[:third])
        ref.push_many(stream[third : 2 * third])
        ref.push_many(stream[2 * third :])

        assert final.handle("Q1").results() == ref_handle.results()
        final.close()
        ref.close()


class TestStateBreakdown:
    def test_breakdown_reports_rows_and_bytes(self, stream):
        engine = StreamingGraphEngine(EngineConfig(backend="sga"))
        engine.register(_plan("Q1"), name="Q1")
        engine.push_many(stream)
        breakdown = engine.state_breakdown()
        assert breakdown, "stateful operators expected"
        for name, entry in breakdown.items():
            assert set(entry) >= {"rows", "bytes"}, name
            assert entry["rows"] >= 0
            assert entry["bytes"] >= 0
        assert sum(e["rows"] for e in breakdown.values()) > 0
        assert sum(e["bytes"] for e in breakdown.values()) > 0
        engine.close()

    def test_breakdown_survives_restore(self, stream, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path))
        engine = StreamingGraphEngine(EngineConfig(backend="sga"))
        engine.register(_plan("Q1"), name="Q1")
        engine.push_many(stream)
        before = engine.state_breakdown()
        engine.checkpoint(store)
        engine.close()
        restored = StreamingGraphEngine.restore(store)
        assert restored.state_breakdown() == before
        restored.close()


class TestCheckpointMeta:
    def test_meta_records_boundary_and_queries(self, stream, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path))
        engine = StreamingGraphEngine(EngineConfig(backend="sga"))
        engine.register(_plan("Q1"), name="Q1")
        engine.register(_plan("Q5"), name="Q5")
        engine.push_many(stream)
        engine.checkpoint(store, note="pre-deploy")
        boundary = engine.watermark
        engine.close()

        meta = store.open().meta
        assert meta["kind"] == "engine"
        assert meta["boundary"] == boundary
        assert sorted(meta["queries"]) == ["Q1", "Q5"]
        assert meta["note"] == "pre-deploy"
