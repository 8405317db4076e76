"""The engine frees its state by reference counting alone.

Streaming calls run with CPython's cyclic collector paused
(:mod:`repro.core.gcpause`), which is only free if the engine never
leaves reference cycles behind: a cycle built during a paused call
would sit in memory until the next collection.  Each case here runs a
small stream with the collector disabled and ``DEBUG_SAVEALL`` set,
reads every surface, and asserts a full collection finds nothing; a
failure names the types of the objects found.
"""

import gc
import random
from collections import Counter

import pytest

from repro.checkpoint import DirectoryCheckpointStore
from repro.core.nplib import HAVE_NUMPY
from repro.core.tuples import SGE
from repro.core.windows import SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.query.sgq import SGQ
from tests.conftest import make_stream

W = SlidingWindow(20, 4)
REACH = "Answer(x, y) <- knows+(x, y) as K."
PAIRS = "Answer(x, z) <- knows+(x, y) as K, likes(y, z)."
STREAM = make_stream(5, 400, 14, ("knows", "likes"), max_gap=1)


class _Probe:
    """Checks that streaming calls and reads leave no cyclic garbage.

    Lifecycle calls (``register``, ``unregister``, ``checkpoint``,
    ``restore``, ``close``) run outside the measurement through
    :meth:`lifecycle`:
    they do not pause the collector, and some of them legitimately drop
    cyclic structure (a pattern operator and its join tree point at each
    other), which the next ordinary collection frees.
    """

    def check(self):
        found = gc.collect()
        histogram = Counter(type(o).__name__ for o in gc.garbage)
        assert found == 0, f"cyclic garbage: {histogram.most_common(15)}"

    def lifecycle(self, call, *args, **kwargs):
        self.check()
        gc.set_debug(0)
        try:
            result = call(*args, **kwargs)
            gc.collect()
        finally:
            gc.set_debug(gc.DEBUG_SAVEALL)
        return result

    def engine(self, **config):
        return self.lifecycle(_engine, **config)


def _engine(**config):
    engine = StreamingGraphEngine(EngineConfig(**config))
    engine.register(SGQ.from_text(REACH, W), name="reach")
    engine.register(SGQ.from_text(PAIRS, W), name="pairs")
    return engine


def _feed(probe, **config):
    engine = probe.engine(**config)
    engine.push_many(STREAM)
    return engine


def _with_deletions(probe):
    rng = random.Random(3)
    engine = probe.engine()
    live = []
    for edge in STREAM:
        if live and rng.random() < 0.2:
            engine.advance_to(edge.t)
            engine.delete(live.pop(rng.randrange(len(live))))
        engine.push(edge)
        live.append(edge)
        live = [e for e in live if e.t > edge.t - W.size // 2]
    return engine


def _checkpoint_restore(probe, tmp_path):
    store = DirectoryCheckpointStore(str(tmp_path))
    cut = len(STREAM) // 2
    first = [probe.engine()]
    first[0].push_many(STREAM[:cut])
    probe.lifecycle(first[0].checkpoint, store)
    # Drop the last reference inside the lifecycle call, so the closed
    # engine's teardown is not counted against the restored one's stream.
    probe.lifecycle(lambda: first.pop().close())
    restored = probe.lifecycle(StreamingGraphEngine.restore, store)
    restored.push_many(STREAM[cut:])
    return restored


def _unregister_midstream(probe):
    cut = len(STREAM) // 2
    engine = probe.engine()
    engine.push_many(STREAM[:cut])
    probe.lifecycle(engine.unregister, "pairs")
    engine.push_many(STREAM[cut:])
    return engine


vector = pytest.param(
    "vector",
    marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy installed"),
)
CASES = {
    **{
        f"{impl}-materialize={mat}": (
            lambda probe, tmp, impl=impl, mat=mat: _feed(
                probe, path_impl=impl, materialize_paths=mat, execution="rows"
            )
        )
        for impl in ("spath", "negative")
        for mat in (True, False)
    },
    "deletions": lambda probe, tmp: _with_deletions(probe),
    "dd": lambda probe, tmp: _feed(probe, backend="dd"),
    "shards=2-inline": lambda probe, tmp: _feed(
        probe, shards=2, shard_transport="inline"
    ),
    "checkpoint-restore": _checkpoint_restore,
    "unregister-midstream": lambda probe, tmp: _unregister_midstream(probe),
}


def _read(engine):
    for name in engine.query_names:
        handle = engine.handle(name)
        handle.results()
        handle.valid_at(STREAM[-1].t)
        if engine.config.backend == "sga":
            handle.coverage()  # dd tracks no validity intervals


def _assert_no_cyclic_garbage(run):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    probe = _Probe()
    try:
        engine = run(probe)
        _read(engine)
        probe.lifecycle(engine.close)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_cyclic_garbage(case, tmp_path):
    _assert_no_cyclic_garbage(lambda probe: CASES[case](probe, tmp_path))


@pytest.mark.parametrize("execution", ["rows", "columnar", vector])
def test_no_cyclic_garbage_per_execution(execution):
    _assert_no_cyclic_garbage(
        lambda probe: _feed(probe, execution=execution)
    )
