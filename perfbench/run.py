#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed 0] [--seconds 12]
                             [--trace [0|1]] [--sets N] [--scale 1.0]

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it every workload runs in turn and a table is printed;
``--trace`` then adds the per-layer table and ``--sets N`` repeats the
whole set N times and compares the sets against the bounds.

A run is three to five passes of the workload, each in a process of its
own (``child.py``), started one after the other while ``--seconds`` are
not used up.  Metric names, units, directions and bounds are read from
``BENCHMARK.json``; ``perfbench/README.md`` defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a run is three to five passes: fewer cannot tell a slow stretch of the
#: host from the work, more than five buy little and cost the cheap
#: workloads the time the expensive ones need
MIN_PASSES, MAX_PASSES = 3, 5


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as src:
        return json.load(src)


def percentile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_pass(workload, seed, scale, trace=0, check=0) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("perfbench: src/repro is missing; nothing to measure")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
        "--trace", str(trace), "--check", str(check),
        "--t0", repr(time.time()),
    ]  # fmt: skip
    # a fixed hash seed takes string-hash luck out of the pass-to-pass noise
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: pass of {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload, seed, seconds, scale, trace, expected) -> dict:
    """All passes of one workload; returns metrics, counts and notes."""
    if trace == 1:
        # the traced pass makes its own untraced pass first, for the
        # tracing overhead; end-to-end numbers never come from it
        passes = [run_pass(workload, seed, scale, trace=1, check=1)]
    else:
        passes = []
        started = before = time.perf_counter()
        while len(passes) < MIN_PASSES or (
            len(passes) < MAX_PASSES
            and 2 * time.perf_counter() - before - started <= seconds
        ):
            before = time.perf_counter()
            # the first pass also runs the output checks, after its timed part
            passes.append(run_pass(workload, seed, scale, check=int(not passes)))
    failures = [f for p in passes for f in p["failures"]]
    checks = sum(p["checks"] for p in passes)
    digests = {p["digest"] for p in passes}
    checks += 1
    if len(digests) != 1:
        failures.append(f"digest differs between passes: {sorted(digests)}")
    # recorded for the untraced run (a traced serve_stream pass feeds
    # more input, for its open-loop phases)
    want = expected.get(workload)
    if want is not None and (seed, scale, trace) == (0, 1.0, 0):
        checks += 1
        if digests != {want}:
            failures.append(f"seed-0 digest is not the recorded {want[:12]}")
    attempted = sum(p["ops"] for p in passes) + checks
    failed = sum(p.get("failed_ops", 0) for p in passes) + len(failures)
    return {
        "workload": workload,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": sorted(digests)[0],
        "metrics": {name: {"value": v} for name, v in passes[0]["layers"].items()}
        if trace == 1
        else end_to_end(passes),
    }


def end_to_end(passes: list[dict]) -> dict[str, dict]:
    """The passes do the same work, and interference on a shared host
    only ever slows a part of one.  So a stage's time is the sum, over
    its parts (the slides of the feed, the handles of a read), of each
    part's best time over the passes; the latency percentiles are taken
    over those per-slide bests.  Set-up and memory are medians."""

    def best_parts(key):
        return [min(times) for times in zip(*(p[key] for p in passes))]

    slides = best_parts("slides")
    if "feed_s" in passes[0]:
        # the feed's time outside the slides (scheduling) is a part too
        rest = min(p["feed_s"] - sum(p["slides"]) for p in passes)
        edges_per_s = passes[0]["ops"] / (sum(slides) + rest)
    else:
        edges_per_s = max(p["edges_per_s"] for p in passes)
    slides.sort()
    setups = [p["setup_s"] for p in passes]
    return {
        "setup_s": {
            "value": statistics.median(setups),
            "spread": (max(setups) - min(setups)) / statistics.median(setups),
        },
        "edges_per_s": {"value": edges_per_s},
        "slide_p50_ms": {"value": percentile(slides, 0.5) * 1e3, "n": len(slides)},
        "slide_p99_ms": {"value": percentile(slides, 0.99) * 1e3, "n": len(slides)},
        "drain_results_per_s": {
            "value": passes[0]["results"] / sum(best_parts("results_parts"))
        },
        "valid_at_ms": {"value": sum(best_parts("valid_at_parts")) * 1e3},
        "peak_rss_mb": {
            "value": statistics.median(p["peak_rss_mb"] for p in passes)
        },
    }


def result_line(contract, run, trace) -> dict:
    """The driver's result object: exactly the contract's metric names."""
    wanted = contract["per_layer"] if trace == 1 else contract["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = run["metrics"].get(spec["name"])
        # a per-layer metric no part of this workload touches reads 0
        value = got["value"] if got is not None else 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def print_table(contract, run, trace) -> None:
    share = run["failed"] / run["attempted"]
    print(f"\n== {run['workload']}: {len(run['passes'])} passes, "
          f"failed_share {share:.6f} ({run['failed']}/{run['attempted']}), "
          f"digest {run['digest'][:16]}")  # fmt: skip
    for failure in run["failures"]:
        print(f"   FAILED: {failure}")
    units = {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }
    for name, got in run["metrics"].items():
        notes = "".join(
            f"  {key} {got[key]:.4g}" for key in ("spread", "n") if key in got
        )
        print(f"   {name:44s} {got['value']:14.6g} {units.get(name, ''):8s}{notes}")


def compare_sets(contract, sets: list[dict[str, dict]]) -> int:
    """Print every end-to-end metric of every workload for each set, the
    relative difference between the extremes and the bound; returns the
    number of pairs outside their bound."""
    outside = 0
    print("\n== sets compared (value per set, relative difference, bound)")
    for workload in sets[0]:
        if any(run["digest"] != sets[0][workload]["digest"] for run in
               (s[workload] for s in sets)):  # fmt: skip
            print(f"   {workload}: digests differ between sets")
            outside += 1
        for spec in contract["end_to_end"]:
            values = [s[workload]["metrics"][spec["name"]]["value"] for s in sets]
            diff = (max(values) - min(values)) / min(values)
            flag = "" if diff <= spec["bound"] else "  OUTSIDE"
            outside += bool(flag)
            shown = " ".join(f"{v:12.5g}" for v in values)
            print(f"   {workload:16s} {spec['name']:22s} {shown}  "
                  f"{diff:7.3f}  {spec['bound']:.2f}{flag}")  # fmt: skip
    return outside


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))  # fmt: skip
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    with open(HERE / "expected.json") as src:
        expected = json.load(src)["digests"]

    def one(workload, trace):
        return run_workload(
            workload, args.seed, args.seconds, args.scale, trace, expected
        )

    if args.workload:
        run = one(args.workload, args.trace)
        print_table(contract, run, args.trace)
        print(json.dumps(result_line(contract, run, args.trace)))
        return 0
    sets = []
    failed = 0
    for _ in range(args.sets):
        runs = {}
        for workload in names:
            runs[workload] = one(workload, 0)
            print_table(contract, runs[workload], 0)
            failed += runs[workload]["failed"]
            if args.trace:
                traced = one(workload, 1)
                print_table(contract, traced, 1)
                failed += traced["failed"]
        sets.append(runs)
    outside = compare_sets(contract, sets) if args.sets > 1 else 0
    return 1 if failed or outside else 0


if __name__ == "__main__":
    raise SystemExit(main())
