"""Vector-mode configuration plumbing: auto resolution, the numpy-less
degrade path, ``columnar_min_run`` promotion into :class:`EngineConfig`,
and the compile-time kernel-selection pass surfaced through ``explain``.

The no-numpy behavior is simulated by monkeypatching the module-level
``HAVE_NUMPY`` flags (the engine must import and run without numpy; the
CI no-numpy leg exercises the real thing).
"""

from __future__ import annotations

import warnings

import pytest

import repro.engine.session as session_mod
from repro.core.nplib import HAVE_NUMPY
from repro.core.tuples import SGE
from repro.core.windows import SlidingWindow
from repro.dataflow.executor import Executor
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.ql.pipeline import (
    kernel_choices,
    resolve_execution,
    vector_ingress_mode,
)
from repro.ql.query import Query

WINDOW = SlidingWindow(size=6, slide=2)


def _rpq(expr="knows+", **options):
    return Query.rpq(expr, window=6, slide=2, **options)


class TestExecutionResolution:
    def test_auto_resolves_to_concrete_mode(self):
        config = EngineConfig(backend="sga")
        assert config.execution == ("vector" if HAVE_NUMPY else "columnar")

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy installed")
    def test_explicit_modes_accepted(self):
        for execution in ("vector", "columnar", "rows"):
            assert EngineConfig(execution=execution).execution == execution

    def test_unknown_execution_rejected(self):
        with pytest.raises(ValueError, match="unknown execution"):
            EngineConfig(execution="simd")

    def test_auto_degrades_to_columnar_without_numpy(self, monkeypatch):
        monkeypatch.setattr(session_mod, "HAVE_NUMPY", False)
        monkeypatch.setattr(session_mod, "_warned_vector_degrade", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = EngineConfig(backend="sga")
        assert config.execution == "columnar"
        degrade = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(degrade) == 1
        assert "repro[vector]" in str(degrade[0].message)

    def test_degrade_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(session_mod, "HAVE_NUMPY", False)
        monkeypatch.setattr(session_mod, "_warned_vector_degrade", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            EngineConfig(backend="sga")
            EngineConfig(backend="sga")
        degrade = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(degrade) == 1

    def test_explicit_vector_errors_without_numpy(self, monkeypatch):
        monkeypatch.setattr(session_mod, "HAVE_NUMPY", False)
        with pytest.raises(ValueError, match="requires numpy"):
            EngineConfig(execution="vector")

    def test_resolve_execution_helper(self):
        assert resolve_execution("columnar") == "columnar"
        assert resolve_execution("auto") == (
            "vector" if HAVE_NUMPY else "columnar"
        )


class TestColumnarMinRun:
    def test_default_matches_executor_class_attribute(self):
        assert EngineConfig().columnar_min_run == Executor.columnar_min_run == 8

    def test_invalid_values_rejected(self):
        for bad in (0, -3, 1.5, True, "8"):
            with pytest.raises(ValueError):
                EngineConfig(columnar_min_run=bad)

    def test_threaded_through_to_executor(self):
        engine = StreamingGraphEngine(
            EngineConfig(backend="sga", columnar_min_run=3)
        )
        engine.register(_rpq(), name="q")
        engine.push(SGE(1, 2, "knows", 0))
        assert engine._executor.columnar_min_run == 3
        # The class default is untouched: the threshold is per session.
        assert Executor.columnar_min_run == 8

    def test_executor_rejects_invalid_override(self):
        from repro.dataflow.graph import DataflowGraph

        with pytest.raises(ValueError, match="columnar_min_run"):
            Executor(DataflowGraph(), slide=1, columnar_min_run=0)

    def test_min_run_one_forces_batches(self):
        """With the threshold at 1 every run flows columnar; results
        must be unchanged from the default threshold."""
        edges = [SGE(1, 2, "knows", 0), SGE(2, 3, "knows", 1), SGE(3, 4, "knows", 2)]
        results = {}
        for min_run in (1, 8):
            engine = StreamingGraphEngine(
                EngineConfig(backend="sga", columnar_min_run=min_run)
            )
            handle = engine.register(_rpq(), name="q")
            for edge in edges:
                engine.push(edge)
            results[min_run] = set(handle.results())
        assert results[1] == results[8]


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector execution requires numpy")
class TestKernelSelection:
    def test_single_label_path_groups(self):
        plan = _rpq().plan()
        assert vector_ingress_mode([plan]) == "grouped"

    def test_multi_label_path_segments(self):
        plan = _rpq("(a b)+").plan()
        assert vector_ingress_mode([plan]) == "segmented"

    def test_plan_options_pairs_accepted(self):
        plan = _rpq("(a b)+").plan()
        assert vector_ingress_mode([(plan, ("negative", False, True))]) == (
            "segmented"
        )

    def test_any_segmented_plan_wins(self):
        grouped = _rpq().plan()
        segmented = _rpq("(a b)+").plan()
        assert vector_ingress_mode([grouped, segmented]) == "segmented"
        assert vector_ingress_mode([grouped]) == "grouped"

    def test_kernel_choices_tags_operators(self):
        from repro.ql.pipeline import compile_plan, logical_plan

        query = _rpq()
        physical = compile_plan(logical_plan(query), "negative", False, True)
        tags = set(kernel_choices(physical, "vector").values())
        assert "wscan.vector" in tags
        assert "path.row-ingest" in tags

    def test_kernel_choices_columnar_mode(self):
        from repro.ql.pipeline import compile_plan, logical_plan

        query = _rpq()
        physical = compile_plan(logical_plan(query), "negative", False, True)
        tags = set(kernel_choices(physical, "columnar").values())
        assert "wscan.columnar" in tags
        assert "path.row-ingest" in tags
        assert not any(t.endswith(".vector") for t in tags)
        assert "path.row-ingest" in set(
            kernel_choices(physical, "rows").values()
        )

    def test_explain_kernels_level(self):
        text = _rpq().explain("kernels")
        assert text.startswith("execution: vector")
        assert "ingress: grouped" in text
        assert "state:" not in text
        assert "[kernel=wscan.vector]" in text
        assert "[kernel=path.row-ingest]" in text

    def test_explain_kernels_segmented_header(self):
        text = _rpq("(a b)+").explain("kernels")
        assert "ingress: segmented" in text

    def test_explain_all_includes_kernels_section(self):
        text = _rpq().explain("all")
        assert "-- kernels " in text

    def test_handle_explain_kernels(self):
        engine = StreamingGraphEngine(EngineConfig(backend="sga"))
        handle = engine.register(_rpq(), name="q")
        assert "[kernel=" in handle.explain("kernels")


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector execution requires numpy")
class TestVectorExecutorGates:
    def test_vector_requires_interner(self):
        from repro.dataflow.graph import DataflowGraph

        with pytest.raises(ValueError, match="interner"):
            Executor(DataflowGraph(), slide=1, vector=True)

    def test_tap_disables_grouping(self):
        engine = StreamingGraphEngine(EngineConfig(execution="vector"))
        engine.register(_rpq(), name="q")
        engine.push(SGE(1, 2, "knows", 0))
        assert engine._executor.vector_grouped
        engine.tap("knows")
        assert not engine._executor.vector_grouped

    def test_unregister_reenables_grouping(self):
        engine = StreamingGraphEngine(EngineConfig(execution="vector"))
        engine.register(_rpq(), name="single")
        engine.register(_rpq("(a b)+"), name="multi")
        engine.push(SGE(1, 2, "knows", 0))
        assert not engine._executor.vector_grouped
        engine.unregister("multi")
        assert engine._executor.vector_grouped
