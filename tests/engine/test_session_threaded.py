"""Thread-safety of the engine session: lifecycle churn, close races.

The serving layer drives one engine from several threads (worker
threads ingest and register, asyncio handlers read stats, the drain
path closes mid-read).  These tests pin the contracts that makes safe:

* ``register``/``unregister`` racing ``push_many`` never corrupts the
  surviving queries — their result streams stay identical to a
  serially built engine fed the same edges;
* ``close()`` is idempotent and a read racing a process-transport
  close gets either its result or the poisoned ``ExecutionError`` —
  never an ``AttributeError`` from torn-down internals.
"""

import threading

import pytest

from repro.core.tuples import SGE
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.errors import ExecutionError
from repro.ql.query import Query
from tests.conftest import PAPER_QUERY, make_stream

LABELS = ("likes", "follows", "posts")
CHURN_QUERY = "Answer(u,m) <- likes(u,m)."


def _paper_query():
    return Query.datalog(PAPER_QUERY, window=24, slide=1)


def _churn_query():
    # same slide as the survivor: churn must not perturb its windows
    return Query.datalog(CHURN_QUERY, window=24, slide=1)


def _reference(edges, **config):
    engine = StreamingGraphEngine(EngineConfig(**config))
    handle = engine.register(_paper_query(), name="survivor")
    engine.push_many(edges)
    results = handle.results()
    coverage = handle.coverage()
    engine.close()
    return results, coverage


class TestLifecycleChurn:
    @pytest.mark.parametrize(
        "config",
        [{}, {"shards": 2}],
        ids=["serial", "sharded-inline"],
    )
    def test_churn_does_not_perturb_survivor(self, config):
        edges = make_stream(11, 400, 20, LABELS, max_gap=2)
        engine = StreamingGraphEngine(EngineConfig(**config))
        survivor = engine.register(_paper_query(), name="survivor")
        errors: list[BaseException] = []
        stop = threading.Event()

        def churn(worker: int) -> None:
            name = f"churn{worker}"
            try:
                while not stop.is_set():
                    handle = engine.register(_churn_query(), name=name)
                    handle.stats()
                    engine.unregister(name)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        def read() -> None:
            try:
                while not stop.is_set():
                    survivor.stats()
                    survivor.results()
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        try:
            # the pushing "thread" is this one: batches race the churn
            for start in range(0, len(edges), 40):
                engine.push_many(edges[start : start + 40])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors[0]

        want_results, want_coverage = _reference(edges, **config)
        assert survivor.results() == want_results
        assert survivor.coverage() == want_coverage
        stats = survivor.stats()
        assert stats.events >= stats.inserts > 0
        assert stats.watermark == engine.watermark
        assert stats.last_advance_at is not None
        engine.close()

    def test_concurrent_registers_all_land(self):
        engine = StreamingGraphEngine(EngineConfig())
        engine.register(_paper_query(), name="survivor")
        errors: list[BaseException] = []

        def add(worker: int) -> None:
            try:
                engine.register(_churn_query(), name=f"extra{worker}")
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [
            threading.Thread(target=add, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors[0]
        edges = make_stream(3, 100, 10, LABELS, max_gap=2)
        engine.push_many(edges)
        handles = [engine.handle(f"extra{i}") for i in range(8)]
        first = handles[0].results()
        assert all(h.results() == first for h in handles[1:])
        engine.close()


class TestCloseSemantics:
    def test_close_is_idempotent_everywhere(self):
        for config in ({}, {"shards": 2}):
            engine = StreamingGraphEngine(EngineConfig(**config))
            engine.register(_paper_query(), name="q")
            engine.close()
            engine.close()  # double close: no-op, no error

    def test_serial_engine_readable_after_close(self):
        engine = StreamingGraphEngine(EngineConfig())
        handle = engine.register(_paper_query(), name="q")
        engine.push_many(make_stream(3, 100, 10, LABELS, max_gap=2))
        results = handle.results()
        engine.close()
        assert handle.results() == results  # close is a no-op here

    def test_process_close_poisons_reads(self):
        engine = StreamingGraphEngine(
            EngineConfig(shards=2, shard_transport="process")
        )
        handle = engine.register(_paper_query(), name="q")
        engine.push_many(make_stream(3, 150, 12, LABELS, max_gap=2))
        assert handle.results() is not None  # readable before close
        engine.close()
        engine.close()
        with pytest.raises(ExecutionError, match="closed"):
            handle.results()
        with pytest.raises(ExecutionError, match="closed"):
            engine.push(SGE(0, 1, "likes", 10_000))

    def test_reads_racing_process_close(self):
        """Concurrent readers during close() see results or the
        poisoned error — never an AttributeError/TypeError."""
        engine = StreamingGraphEngine(
            EngineConfig(shards=2, shard_transport="process")
        )
        handle = engine.register(_paper_query(), name="q")
        engine.push_many(make_stream(7, 150, 12, LABELS, max_gap=2))
        unexpected: list[BaseException] = []
        start = threading.Barrier(5)

        def read() -> None:
            try:
                start.wait(timeout=10)
                for _ in range(50):
                    handle.results()
                    handle.stats()
            except ExecutionError:
                pass  # the poisoned close error: expected
            except BaseException as exc:  # pragma: no cover - fail loud
                unexpected.append(exc)

        def close() -> None:
            try:
                start.wait(timeout=10)
                engine.close()
            except BaseException as exc:  # pragma: no cover - fail loud
                unexpected.append(exc)

        threads = [threading.Thread(target=read) for _ in range(4)] + [
            threading.Thread(target=close)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not unexpected, unexpected[0]
