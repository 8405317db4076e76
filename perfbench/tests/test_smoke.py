"""Every workload end to end at ``--scale 0.02``, traced and untraced.

Run explicitly (``perfbench/tests`` is not in the tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--scale", "0.02", "--seconds", "1", "--seed", "3",
            "--trace", str(trace),
        ],  # fmt: skip
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1])


def test_contract_is_within_the_driver_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        m["name"]
        for m in CONTRACT["workloads"] + CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in CONTRACT["end_to_end"]
    )
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_workload_in_under_a_minute():
    started = time.perf_counter()
    for workload in WORKLOADS:
        for trace, wanted in ((0, "end_to_end"), (1, "per_layer")):
            line = run(workload, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert line["attempted"] >= 1
            assert set(line["metrics"]) == {m["name"] for m in CONTRACT[wanted]}
            for spec in CONTRACT[wanted]:
                got = line["metrics"][spec["name"]]
                assert got["unit"] == spec["unit"]
                assert isinstance(got["value"], (int, float))
                if trace == 0:
                    assert got["value"] > 0, (workload, spec["name"])
    assert time.perf_counter() - started < 60


@pytest.mark.parametrize(
    "workload", [w for w in WORKLOADS if w != "serve_stream"]
)
def test_trace_file_accounts_for_the_engine_time(workload):
    run(workload, 1)
    doc = json.loads((HERE / "out" / f"{workload}.trace.json").read_text())
    field = {name: i for i, name in enumerate(doc["fields"])}
    push_s = doc["meta"]["push_s"]
    self_s = sum(span[field["self_s"]] for span in doc["spans"])
    roots = sum(
        span[field["total_s"]]
        for span in doc["spans"]
        if span[field["parent"]] is None
    )
    # operators push downstream synchronously: the root spans tile the
    # operators' share of the engine time, and the self times add up to it
    assert self_s == pytest.approx(roots, rel=1e-6)
    assert 0 < self_s <= push_s
    layers = spans.derive(HERE / "out" / f"{workload}.trace.json")
    per_operator = sum(
        value
        for name, value in layers.items()
        if name.endswith((".self_s", ".advance_s"))
    )
    assert per_operator == pytest.approx(push_s, rel=0.05)
