"""Unit tests for the session API: config, handles, delivery, backends."""

import pytest

from repro.core.batch import RunStats
from repro.core.coalesce import coalesce_stream
from repro.core.tuples import SGE
from repro.core.windows import SlidingWindow
from repro.engine import EngineConfig, StreamingGraphEngine
from repro.engine.session import QueryStats
from repro.errors import ExecutionError, PlanError, StreamOrderError
from repro.query.sgq import SGQ
from tests.conftest import make_stream

W = SlidingWindow(20)

REACH = "Answer(x, y) <- knows+(x, y) as K."
PAIRS = "Answer(x, z) <- knows+(x, y) as K, likes(y, z)."
LIKES = "Answer(x, y) <- likes(x, y)."


def sgq(text, window=W):
    return SGQ.from_text(text, window)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "sga"
        assert config.path_impl == "spath"
        assert config.late_policy == "allow"
        assert config.batch_size is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().backend = "dd"

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="timely")

    def test_invalid_path_impl(self):
        with pytest.raises(PlanError, match="PATH implementation"):
            EngineConfig(path_impl="magic")

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=0)

    def test_invalid_late_policy(self):
        with pytest.raises(ValueError, match="late policy"):
            EngineConfig(late_policy="whatever")

    def test_with_overrides_validates(self):
        config = EngineConfig()
        assert config.with_overrides(path_impl="negative").path_impl == "negative"
        with pytest.raises(PlanError):
            config.with_overrides(path_impl="magic")
        with pytest.raises(ValueError, match="unknown EngineConfig field"):
            config.with_overrides(pathimpl="spath")

    def test_engine_accepts_kwargs_shorthand(self):
        engine = StreamingGraphEngine(path_impl="negative")
        assert engine.config.path_impl == "negative"


class TestRegistration:
    def test_auto_names(self):
        engine = StreamingGraphEngine()
        a = engine.register(sgq(REACH))
        b = engine.register(sgq(LIKES))
        assert (a.name, b.name) == ("q0", "q1")
        assert engine.query_names == ("q0", "q1")

    def test_duplicate_name_rejected(self):
        engine = StreamingGraphEngine()
        engine.register(sgq(REACH), name="a")
        with pytest.raises(PlanError, match="already registered"):
            engine.register(sgq(LIKES), name="a")

    def test_unknown_handle(self):
        with pytest.raises(PlanError, match="unknown"):
            StreamingGraphEngine().handle("zzz")

    def test_push_without_queries(self):
        with pytest.raises(ExecutionError, match="no queries"):
            StreamingGraphEngine().push(SGE(1, 2, "knows", 0))
        with pytest.raises(ExecutionError, match="no queries"):
            StreamingGraphEngine(backend="dd").push(SGE(1, 2, "knows", 0))

    def test_per_query_override_compile_options_only(self):
        engine = StreamingGraphEngine()
        engine.register(sgq(REACH), name="a", path_impl="negative")
        with pytest.raises(ValueError, match="engine-wide"):
            engine.register(sgq(LIKES), name="b", batch_size=4)

    def test_watermark_cadence_covers_all_plan_slides(self):
        """Mixed slides take the gcd so no plan's boundary is skipped
        (the same rule mid-stream registration uses)."""
        engine = StreamingGraphEngine()
        engine.register(sgq(REACH, SlidingWindow(50, 10)), name="a")
        engine.register(sgq(LIKES, SlidingWindow(40, 4)), name="b")
        assert engine.slide == 2

    def test_sharing_matches_multiprocessor_semantics(self):
        engine = StreamingGraphEngine()
        engine.register(sgq(REACH), name="reach")
        engine.register(sgq(PAIRS), name="pairs")
        assert engine.sharing_savings() >= 2

    def test_differing_options_do_not_share_compiled_operators(self):
        engine = StreamingGraphEngine()
        engine.register(sgq(REACH), name="a")
        one = engine.operator_count()
        engine.register(sgq(REACH), name="b", path_impl="negative")
        assert engine.operator_count() > one


class TestHandleSurface:
    def test_pull_results_and_snapshots(self):
        engine = StreamingGraphEngine()
        handle = engine.register(sgq(REACH), name="reach")
        engine.push(SGE(1, 2, "knows", 0))
        engine.push(SGE(2, 3, "knows", 1))
        assert handle.valid_at(1) == {
            (1, 2, "Answer"),
            (2, 3, "Answer"),
            (1, 3, "Answer"),
        }
        assert len(handle.results()) == 3
        assert handle.result_count() >= 3
        assert (1, 3, "Answer") in handle.coverage()
        handle.clear_results()
        assert handle.results() == []

    def test_callback_and_pull_agree(self):
        received = []
        engine = StreamingGraphEngine()
        handle = engine.register(
            sgq(REACH), name="reach", on_result=received.append
        )
        engine.push_many(make_stream(3, 60, 6, ("knows",), max_gap=2))
        inserted = [event.sgt for event in received if event.sign == 1]
        assert coalesce_stream(inserted) == handle.results()
        assert len(received) == len(handle._sink.events)

    def test_stats_and_explain(self):
        engine = StreamingGraphEngine()
        handle = engine.register(sgq(REACH), name="reach")
        engine.push(SGE(1, 2, "knows", 0))
        stats = handle.stats()
        assert isinstance(stats, QueryStats)
        assert stats.name == "reach"
        assert stats.backend == "sga"
        assert stats.results == 1
        assert stats.live
        assert "PATH" in handle.explain()

    def test_tap(self):
        engine = StreamingGraphEngine()
        engine.register(sgq(REACH), name="reach")
        tap = engine.tap("knows")
        engine.push(SGE(1, 2, "knows", 0))
        assert tap.valid_at(0) == {(1, 2, "knows")}

    def test_push_many_returns_stats_and_matches_push(self):
        stream = make_stream(7, 80, 6, ("knows",), max_gap=2)
        fast = StreamingGraphEngine(batch_size=16)
        fast_handle = fast.register(sgq(REACH))
        stats = fast.push_many(stream)
        assert isinstance(stats, RunStats)
        assert stats.total_edges == 80
        assert stats.total_batches >= 1
        slow = StreamingGraphEngine()
        slow_handle = slow.register(sgq(REACH))
        for edge in stream:
            slow.push(edge)
        assert fast_handle.results() == slow_handle.results()

    def test_late_policy_is_engine_wide(self):
        engine = StreamingGraphEngine(late_policy="raise")
        engine.register(sgq(REACH))
        engine.push(SGE(1, 2, "knows", 40))
        with pytest.raises(StreamOrderError):
            engine.push(SGE(2, 3, "knows", 2))
        dropper = StreamingGraphEngine(late_policy="drop")
        dropper.register(sgq(REACH))
        dropper.push(SGE(1, 2, "knows", 40))
        dropper.push(SGE(2, 3, "knows", 2))
        assert dropper.late_count == 1


class TestDDBackend:
    def test_same_handle_api(self):
        engine = StreamingGraphEngine(backend="dd")
        handle = engine.register(sgq(REACH, SlidingWindow(20, 4)), name="reach")
        engine.push_many(
            [SGE(1, 2, "knows", 0), SGE(2, 3, "knows", 1), SGE(3, 4, "knows", 9)]
        )
        assert handle.answer() == {
            (1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4),
        }
        assert (1, 3, "Answer") in handle.results()
        assert handle.valid_at(9) == {
            (u, v, "Answer") for u, v in handle.answer()
        }
        stats = handle.stats()
        assert stats.backend == "dd"
        assert stats.results == 6
        assert "DD[" in handle.explain()

    def test_valid_at_is_a_pure_read(self):
        engine = StreamingGraphEngine(backend="dd")
        handle = engine.register(sgq(REACH, SlidingWindow(8, 4)), name="reach")
        engine.push(SGE(1, 2, "knows", 0))
        assert (1, 2, "Answer") in handle.valid_at(3)
        # Past the expiry horizon the answer is empty — answered purely,
        # without performing any window movement...
        assert handle.valid_at(40) == set()
        # ...so an in-order edge pushed afterwards is NOT late.
        engine.push(SGE(2, 3, "knows", 1))
        assert (1, 3, "Answer") in handle.valid_at(3)

    def test_valid_at_ahead_of_stream_requires_advance(self):
        engine = StreamingGraphEngine(backend="dd")
        handle = engine.register(sgq(REACH, SlidingWindow(20, 4)), name="reach")
        engine.push(SGE(1, 2, "knows", 0))
        # Boundary 8 has not been evaluated and the edge has not yet
        # expired there: reading would require a window movement.
        with pytest.raises(ExecutionError, match="advance_to"):
            handle.valid_at(8)
        engine.advance_to(8)
        assert (1, 2, "Answer") in handle.valid_at(8)

    def test_no_plans_no_deletions_no_taps(self):
        from repro.workloads import QUERIES

        engine = StreamingGraphEngine(backend="dd")
        plan = QUERIES["Q1"].plan({"a": "a", "b": "b", "c": "c"}, W)
        with pytest.raises(PlanError, match="Regular Query"):
            engine.register(plan)
        handle = engine.register(sgq(REACH))
        with pytest.raises(ExecutionError, match="deletions"):
            engine.delete(SGE(1, 2, "knows", 0))
        with pytest.raises(ExecutionError, match="coverage|validity"):
            handle.coverage()
        with pytest.raises(ExecutionError, match="sga"):
            engine.tap("K")

    def test_callback_receives_signed_answer_deltas(self):
        deltas = []
        engine = StreamingGraphEngine(backend="dd")
        engine.register(
            sgq(REACH, SlidingWindow(8, 4)), name="reach",
            on_result=deltas.append,
        )
        engine.push(SGE(1, 2, "knows", 0))
        engine.advance_to(3)
        engine.advance_to(40)
        assert ((1, 2), 1) in deltas
        assert ((1, 2), -1) in deltas

    def test_late_policy_applies(self):
        engine = StreamingGraphEngine(backend="dd", late_policy="drop")
        engine.register(sgq(REACH, SlidingWindow(20, 4)))
        engine.push(SGE(1, 2, "knows", 10))
        engine.push(SGE(5, 6, "knows", 2))
        assert engine.late_count == 1

    def test_late_count_is_per_edge_not_per_query(self):
        engine = StreamingGraphEngine(backend="dd", late_policy="drop")
        engine.register(sgq(REACH, SlidingWindow(20, 4)), name="a")
        engine.register(sgq(REACH, SlidingWindow(20, 4)), name="b")
        # Two late edges in one batch, consulted by both queries.
        engine.push_many(
            [
                SGE(1, 2, "knows", 25),
                SGE(5, 6, "knows", 5),
                SGE(7, 8, "knows", 6),
            ]
        )
        assert engine.late_count == 2

    def test_far_future_probes_and_advances_are_bounded(self):
        """Neither reading far past the horizon nor advancing over a
        huge quiet gap steps through millions of empty epochs."""
        engine = StreamingGraphEngine(backend="dd")
        handle = engine.register(sgq(REACH, SlidingWindow(10, 1)))
        engine.push(SGE(1, 2, "knows", 0))
        assert handle.valid_at(2_000_000) == set()   # pure horizon read
        engine.advance_to(3_000_000)                 # drains, then jumps
        # History stays sparse: only answer-changing epochs are kept.
        assert len(handle._boundaries) <= 4
        assert (1, 2, "Answer") in handle.valid_at(5)

    def test_valid_at_between_sparse_arrivals_reflects_expiry(self):
        """A jump over quiet slides steps through the intervening empty
        epochs, so valid_at inside the gap sees the expiration — and
        agrees with the sga backend."""
        window = SlidingWindow(10, 10)
        dd_engine = StreamingGraphEngine(backend="dd")
        dd = dd_engine.register(sgq(REACH, window))
        sga_engine = StreamingGraphEngine()
        sga = sga_engine.register(sgq(REACH, window))
        for edge in [SGE(1, 2, "knows", 5), SGE(8, 9, "knows", 100)]:
            dd_engine.push(edge)
            sga_engine.push(edge)
        # t=50 lies between the two arrivals; the first edge expired at 15.
        assert dd.valid_at(50) == set()
        assert dd.valid_at(50) == sga.valid_at(50)
        assert dd.valid_at(5) == {(1, 2, "Answer")} == sga.valid_at(5)


class TestDecode:
    def test_decode_maps_interned_ids_back(self):
        from repro.core.tuples import SGE
        from repro.core.windows import SlidingWindow
        from repro.query.sgq import SGQ

        engine = StreamingGraphEngine()  # the sga backend interns
        engine.register(
            SGQ.from_text(
                "Answer(x, y) <- knows(x, y).", SlidingWindow(10)
            ),
            name="q",
        )
        engine.push(SGE(("P", 1), ("P", 2), "knows", 0))
        assert engine.decode(0) == ("P", 1)
        assert engine.decode(1) == ("P", 2)
