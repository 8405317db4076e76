"""The unified temporal-read and decode contracts of the session API.

Satellite sweep regressions:

* ``valid_at(t)`` follows one documented contract on every backend
  (sga handles, sharded handles, the dd handle, and the legacy shim):
  exact at or behind the last performed window movement, exactly empty
  at or past the expiry horizon, :class:`~repro.errors.HorizonError`
  in between.
* ``engine.decode`` (and every Interner read surface) raises
  :class:`~repro.errors.DecodeError` naming the offending id for ids
  never interned — e.g. ids minted by a different engine instance —
  instead of returning an arbitrary value.
"""

from __future__ import annotations

import pytest

from repro.core.interning import Interner
from repro.core.tuples import SGE
from repro.core.windows import SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.errors import DecodeError, ExecutionError, HorizonError
from repro.query.sgq import SGQ

REACH = "Answer(x, y) <- knows+(x, y) as K."


def sgq(text=REACH, window=None):
    return SGQ.from_text(text, window or SlidingWindow(20, 4))


def _configs():
    return [
        EngineConfig(),
        EngineConfig(backend="dd"),
        EngineConfig(shards=2),
    ]


class TestValidAtContract:
    @pytest.mark.parametrize("config", _configs(), ids=lambda c: (
        f"{c.backend}-s{c.shards}"
    ))
    def test_contract_uniform_across_backends(self, config):
        engine = StreamingGraphEngine(config)
        handle = engine.register(sgq(), name="q")
        engine.push(SGE(1, 2, "knows", 0))
        # At or behind the last performed movement: exact.
        assert (1, 2, "Answer") in handle.valid_at(0)
        # Ahead of the stream but before the horizon (the edge is still
        # valid at t=10 — the movement just hasn't been performed):
        # HorizonError.
        with pytest.raises(HorizonError, match="advance_to"):
            handle.valid_at(10)
        # HorizonError subclasses ExecutionError (compat).
        with pytest.raises(ExecutionError):
            handle.valid_at(10)
        # At or past the horizon: exactly the empty set, as a pure read.
        assert handle.valid_at(10_000) == set()
        # The pure read performed no window movement: an in-order edge
        # pushed afterwards is not late.
        engine.push(SGE(2, 3, "knows", 1))
        assert (1, 3, "Answer") in handle.valid_at(1)
        # After performing the movements, the gap answers exactly.
        engine.advance_to(30)
        assert handle.valid_at(30) == set()

    def test_legacy_shim_inherits_contract(self):
        from repro.engine import StreamingGraphQueryProcessor

        with pytest.warns(DeprecationWarning):
            p = StreamingGraphQueryProcessor.from_datalog(
                REACH, SlidingWindow(20, 4)
            )
        p.push(SGE(1, 2, "knows", 0))
        with pytest.raises(HorizonError):
            p.valid_at(10)
        assert p.valid_at(10_000) == set()

    def test_not_started_is_empty_everywhere(self):
        for config in _configs():
            engine = StreamingGraphEngine(config)
            handle = engine.register(sgq(), name="q")
            assert handle.valid_at(5) == set()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_epoch_instant_agrees_with_dd(self, shards):
        """At every epoch's final instant — DD's temporal resolution —
        the sga and dd backends answer identically, including at the
        expiry horizon's edge (interval ends exclusive)."""
        window = SlidingWindow(8, 4)
        stream = [
            SGE(1, 2, "knows", 0),
            SGE(2, 3, "knows", 3),
            SGE(4, 5, "knows", 9),
        ]
        sga_engine = StreamingGraphEngine(EngineConfig(shards=shards))
        sga = sga_engine.register(sgq(window=window), name="q")
        dd_engine = StreamingGraphEngine(EngineConfig(backend="dd"))
        dd = dd_engine.register(sgq(window=window), name="q")
        for edge in stream:
            sga_engine.push(edge)
            dd_engine.push(edge)
        final = 20
        sga_engine.advance_to(final)
        dd_engine.advance_to(final)
        for t in range(3, final, 4):  # epoch-final instants
            assert sga.valid_at(t) == dd.valid_at(t), t


class TestDecodeErrors:
    def test_engine_decode_rejects_foreign_ids(self):
        engine = StreamingGraphEngine()
        engine.register(sgq(), name="q")
        engine.push(SGE("alice", "bob", "knows", 0))
        assert engine.decode(0) == "alice"
        with pytest.raises(DecodeError, match="999"):
            engine.decode(999)
        with pytest.raises(DecodeError, match="-1"):
            engine.decode(-1)  # negative must not index from the end
        # DecodeError is a KeyError (the interner is a mapping).
        with pytest.raises(KeyError):
            engine.decode(999)

    def test_ids_from_another_engine_instance(self):
        a = StreamingGraphEngine()
        a.register(sgq(), name="q")
        a.push(SGE("alice", "bob", "knows", 0))
        b = StreamingGraphEngine()
        b.register(sgq(), name="q")
        with pytest.raises(DecodeError):
            b.decode(a._interner.id_of("alice"))

    def test_interner_read_surfaces_raise(self):
        from repro.core.intervals import Interval
        from repro.core.tuples import SGT

        interner = Interner()
        interner.intern("v0")
        with pytest.raises(DecodeError, match="7"):
            interner.value(7)
        with pytest.raises(DecodeError, match="not-an-id"):
            interner.value("not-an-id")
        with pytest.raises(DecodeError, match="3"):
            interner.decode_key((0, 3, "Answer"))
        with pytest.raises(DecodeError, match="5"):
            interner.decode_sgt(SGT(0, 5, "Answer", Interval(0, 1)))
        # Negative ids must not silently decode from the end of the
        # table, and non-int ids must not raise a raw TypeError.
        with pytest.raises(DecodeError, match="-1"):
            interner.decode_sgt(SGT(-1, 0, "Answer", Interval(0, 1)))
        with pytest.raises(DecodeError, match="bogus"):
            interner.decode_sgt(SGT(0, "bogus", "Answer", Interval(0, 1)))

    def test_dd_backend_decode_raises(self):
        engine = StreamingGraphEngine(EngineConfig(backend="dd"))
        with pytest.raises(ExecutionError, match="sga backend"):
            engine.decode(0)
