"""Engine configuration plumbing: typed fields, the retired delta
representation settings, the ingress run threshold, the kernel-selection
pass surfaced through ``explain``, and an engine that runs without numpy.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.tuples import SGE
from repro.dataflow.executor import Executor
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.errors import PlanError
from repro.ql.pipeline import kernel_choices
from repro.ql.query import CompileOptions, Query


def _rpq(expr="knows+", **options):
    return Query.rpq(expr, window=6, slide=2, **options)


class TestRetiredFields:
    @pytest.mark.parametrize("field", ["execution", "columnar_min_run"])
    def test_constructor_rejects_retired_field(self, field):
        with pytest.raises(TypeError, match=field):
            EngineConfig(**{field: "columnar" if field == "execution" else 8})

    def test_override_rejects_retired_field(self):
        with pytest.raises(ValueError, match="execution"):
            EngineConfig().with_overrides(execution="columnar")


class TestTypedFields:
    """Wrongly typed values are refused, not coerced by truthiness."""

    @pytest.mark.parametrize("value", ["false", 0, 1, [1], None])
    def test_materialize_paths_must_be_bool(self, value):
        with pytest.raises(ValueError, match="materialize_paths must be a bool"):
            EngineConfig(materialize_paths=value)

    @pytest.mark.parametrize("value", ["true", 1])
    def test_coalesce_intermediate_must_be_bool(self, value):
        with pytest.raises(
            ValueError, match="coalesce_intermediate must be a bool"
        ):
            EngineConfig(coalesce_intermediate=value)

    @pytest.mark.parametrize("value", [2.5, True, "8", 0])
    def test_batch_size_must_be_positive_int(self, value):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(batch_size=value)

    @pytest.mark.parametrize("value", [True, 2.0, "2", 0])
    def test_shards_must_be_positive_int(self, value):
        with pytest.raises(ValueError, match="shards"):
            EngineConfig(shards=value)

    def test_valid_values_accepted(self):
        config = EngineConfig(
            materialize_paths=False,
            coalesce_intermediate=False,
            batch_size=4,
            shards=2,
        )
        assert (config.batch_size, config.shards) == (4, 2)

    @pytest.mark.parametrize(
        "field", ["materialize_paths", "coalesce_intermediate"]
    )
    @pytest.mark.parametrize("value", ["false", [1], 0])
    def test_compile_options_bools(self, field, value):
        with pytest.raises(PlanError, match=f"{field} must be a bool"):
            CompileOptions(**{field: value})

    def test_query_options_typed(self):
        with pytest.raises(PlanError, match="materialize_paths"):
            _rpq(materialize_paths="false")

    def test_register_override_typed(self):
        engine = StreamingGraphEngine()
        with pytest.raises(ValueError, match="materialize_paths"):
            engine.register(_rpq(), name="q", materialize_paths="false")


class TestIngressRunThreshold:
    def test_class_constant(self):
        assert Executor.columnar_min_run == 8

    def test_threshold_does_not_change_results(self, monkeypatch):
        """Runs below the threshold go per edge, longer ones as columns;
        both forms give the same results."""
        edges = [SGE(i, i + 1, "knows", i // 3) for i in range(12)]
        results = {}
        for min_run in (1, 8, 100):
            monkeypatch.setattr(Executor, "columnar_min_run", min_run)
            engine = StreamingGraphEngine()
            handle = engine.register(_rpq(), name="q")
            engine.push_many(edges)
            results[min_run] = list(handle.results())
        assert results[1] == results[8] == results[100]
        assert results[8]


class TestKernelSelection:
    def test_kernel_choices_tags_operators(self):
        from repro.ql.pipeline import compile_plan, logical_plan

        physical = compile_plan(logical_plan(_rpq()), "negative", False, True)
        tags = set(kernel_choices(physical).values())
        assert {"wscan.columnar", "path.row-ingest"} <= tags

    def test_explain_kernels_level(self):
        text = _rpq().explain("kernels")
        assert text.startswith("ingress: interned same-label runs")
        assert "[kernel=wscan.columnar]" in text
        assert "[kernel=path.row-ingest]" in text

    def test_explain_all_includes_kernels_section(self):
        assert "-- kernels " in _rpq().explain("all")

    def test_handle_explain_kernels(self):
        engine = StreamingGraphEngine(EngineConfig(backend="sga"))
        handle = engine.register(_rpq(), name="q")
        assert "[kernel=" in handle.explain("kernels")


_NO_NUMPY_SCRIPT = """
import sys
import repro
from repro.datasets import stackoverflow_stream
from repro.core.windows import SlidingWindow
from repro.engine.session import StreamingGraphEngine
from repro.workloads import QUERIES, labels_for

window = SlidingWindow(40, 10)
engine = StreamingGraphEngine()
handle = engine.register(QUERIES["Q1"].plan(labels_for("Q1", "so"), window))
stream = stackoverflow_stream(n_edges=200, n_users=30, seed=1)
engine.push_many(stream)
assert handle.results()
handle.valid_at(stream[-1].t)
assert "numpy" not in sys.modules, "the engine imported numpy"
"""


def test_engine_runs_without_importing_numpy():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": src if not path else os.pathsep.join([src, path]),
    }
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
