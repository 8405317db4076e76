"""gc_paused: a counted, process-wide pause of the cyclic collector."""

import gc
import sys
import threading

import pytest

from repro.core.gcpause import gc_paused
from repro.core.windows import SlidingWindow
from repro.engine.session import StreamingGraphEngine
from repro.query.sgq import SGQ
from tests.conftest import make_stream

W = SlidingWindow(20, 4)
REACH = "Answer(x, y) <- knows+(x, y) as K."
STREAM = make_stream(9, 200, 10, ("knows",), max_gap=1)


@pytest.fixture(autouse=True)
def gc_enabled():
    """Every test starts with the collector on and leaves it on."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _engine(on_result):
    engine = StreamingGraphEngine()
    engine.register(SGQ.from_text(REACH, W), on_result=on_result)
    return engine


def test_nesting_restores_only_at_the_outermost_exit():
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_exception_inside_the_block_restores_gc():
    with pytest.raises(ValueError):
        with gc_paused():
            raise ValueError("boom")
    assert gc.isenabled()


def test_raising_result_callback_restores_gc():
    def explode(event):
        raise RuntimeError("callback failed")

    with pytest.raises(RuntimeError):
        _engine(explode).push_many(STREAM)
    assert gc.isenabled()


def test_host_disabled_gc_stays_disabled():
    gc.disable()
    with gc_paused():
        pass
    _engine(None).push_many(STREAM)
    assert not gc.isenabled()


def test_gc_is_paused_inside_result_callbacks():
    seen = []
    _engine(lambda event: seen.append(gc.isenabled())).push_many(STREAM)
    assert seen and not any(seen)
    assert gc.isenabled()


def test_concurrent_engines_share_one_pause():
    """The first engine to finish must not re-enable the collector while
    the second is still streaming; the last one out does."""
    both_inside = threading.Barrier(2, timeout=10)
    first_done = threading.Event()
    second_saw = []
    errors = []

    def meet_once(met):
        if not met:
            met.append(True)
            both_inside.wait()

    first_met = []
    first = _engine(lambda event: meet_once(first_met))

    def second_callback(event):
        if not second_saw:
            both_inside.wait()
            first_done.wait(timeout=10)
            second_saw.append(gc.isenabled())

    second = _engine(second_callback)

    def run(engine, done=None):
        try:
            engine.push_many(STREAM)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    threads = [
        threading.Thread(target=run, args=(first, first_done)),
        threading.Thread(target=run, args=(second,)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert second_saw == [False]
    assert gc.isenabled()


def test_stress_many_threads_never_see_gc_enabled_inside():
    """More threads than cores entering and leaving nested pauses with a
    tiny switch interval: a lost update to the shared depth would let
    one thread re-enable the collector while another is inside."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    violations = []

    def churn():
        for _ in range(2000):
            with gc_paused():
                with gc_paused():
                    if gc.isenabled():
                        violations.append("nested")
                if gc.isenabled():
                    violations.append("outer")

    threads = [threading.Thread(target=churn) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert violations == []
    assert gc.isenabled()
