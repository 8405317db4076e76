"""Golden tests: engine.tap() under sharding vs the serial engine.

The merged tap (per-shard sinks stitched in global arrival order) must
be indistinguishable from a serial tap for every read surface:

* **replicated** intermediate streams (RL, RLP — and raw input labels)
  replay the exact serial event sequence, signs included;
* **partitioned** streams (the FP closure output) divide one push's
  work across shards, so the guarantee is multiset equality of events
  plus identical ``results()`` / ``coverage()`` / ``valid_at``.
"""

import pytest

from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.errors import ExecutionError, PlanError
from repro.ql.query import Query
from tests.conftest import PAPER_QUERY, make_stream

LABELS = ("likes", "follows", "posts")


def _engine(shards: int) -> StreamingGraphEngine:
    engine = StreamingGraphEngine(
        EngineConfig(shards=shards)
    )
    engine.register(
        Query.datalog(PAPER_QUERY, window=24, slide=1), name="paper"
    )
    return engine


def _event_key(event):
    sgt = event.sgt
    payload = getattr(sgt.payload, "vertices", None)
    return (
        sgt.interval.ts,
        sgt.interval.exp,
        str(sgt.src),
        str(sgt.trg),
        event.sign,
        str(payload),
    )


def _signed(events):
    return [(e.sign, e.sgt) for e in events]


@pytest.fixture(scope="module")
def stream():
    return make_stream(11, 500, 20, LABELS, max_gap=2)


class TestShardedTapGolden:
    @pytest.mark.parametrize("label", ["RL", "RLP", "likes"])
    def test_replicated_streams_replay_serial_order(self, stream, label):
        serial, sharded = _engine(1), _engine(2)
        ref, tap = serial.tap(label), sharded.tap(label)
        serial.push_many(stream)
        sharded.push_many(stream)
        assert _signed(tap.events) == _signed(ref.events)
        assert tap.insert_count == ref.insert_count
        assert tap.results() == ref.results()
        assert tap.coverage() == ref.coverage()
        serial.close()
        sharded.close()

    def test_partitioned_stream_multiset_parity(self, stream):
        serial, sharded = _engine(1), _engine(2)
        ref, tap = serial.tap("FP"), sharded.tap("FP")
        serial.push_many(stream)
        sharded.push_many(stream)
        # FP is the partitioned closure output: shards divide one push's
        # work, so ordering is shard-major — compare as a multiset.
        assert sorted(map(_event_key, tap.events)) == sorted(
            map(_event_key, ref.events)
        )
        assert tap.insert_count == ref.insert_count
        assert tap.results() == ref.results()
        assert tap.coverage() == ref.coverage()
        serial.close()
        sharded.close()

    @pytest.mark.parametrize("label", ["RL", "FP"])
    def test_valid_at_matches_serial(self, stream, label):
        serial, sharded = _engine(1), _engine(2)
        ref, tap = serial.tap(label), sharded.tap(label)
        serial.push_many(stream)
        sharded.push_many(stream)
        horizon = max(e.t for e in stream)
        for t in range(0, horizon, 7):
            assert tap.valid_at(t) == ref.valid_at(t), f"t={t}"
        serial.close()
        sharded.close()

    def test_tap_collects_from_call_time(self, stream):
        serial, sharded = _engine(1), _engine(2)
        half = len(stream) // 2
        serial.push_many(stream[:half])
        sharded.push_many(stream[:half])
        ref, tap = serial.tap("RL"), sharded.tap("RL")
        serial.push_many(stream[half:])
        sharded.push_many(stream[half:])
        assert _signed(tap.events) == _signed(ref.events)
        serial.close()
        sharded.close()

    def test_callbacks_fire_in_merged_order(self, stream):
        serial, sharded = _engine(1), _engine(2)
        ref, tap = serial.tap("RL"), sharded.tap("RL")
        ref_seen, tap_seen = [], []
        ref.set_callback(lambda e: ref_seen.append((e.sign, e.sgt)))
        tap.set_callback(lambda e: tap_seen.append((e.sign, e.sgt)))
        serial.push_many(stream)
        sharded.push_many(stream)
        assert ref_seen  # the workload actually derived RL edges
        assert tap_seen == ref_seen
        serial.close()
        sharded.close()

    def test_three_shards_agree_too(self, stream):
        serial, sharded = _engine(1), _engine(3)
        ref, tap = serial.tap("RL"), sharded.tap("RL")
        serial.push_many(stream)
        sharded.push_many(stream)
        assert _signed(tap.events) == _signed(ref.events)
        serial.close()
        sharded.close()


class TestShardedTapErrors:
    def test_unknown_label_raises_plan_error(self):
        engine = _engine(2)
        with pytest.raises(PlanError, match="zzz"):
            engine.tap("zzz")
        engine.close()

    def test_process_transport_rejects_tap(self):
        engine = StreamingGraphEngine(
            EngineConfig(shards=2, shard_transport="process")
        )
        engine.register(
            Query.datalog(PAPER_QUERY, window=24, slide=1), name="paper"
        )
        try:
            with pytest.raises(ExecutionError, match="inline"):
                engine.tap("RL")
        finally:
            engine.close()

    def test_clear_resets_merged_parts(self, stream):
        engine = _engine(2)
        tap = engine.tap("RL")
        engine.push_many(stream)
        assert tap.insert_count > 0
        tap.clear()
        assert tap.insert_count == 0
        assert list(tap.events) == []
        engine.close()
