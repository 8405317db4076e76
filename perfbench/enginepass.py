"""One pass of an in-process workload: a closed batch job.

Stages:

1. set-up (counted in ``setup_s``): imports, generate the input from
   the seed, build the engine, register the queries, perform the first
   window movement (which forks the shard workers);
2. warm-up (not counted anywhere): the first 10 % of the input through
   a throwaway engine of the same configuration, so lazy imports and
   memoized automata are in place;
3. timed: feed every operation, ``results()`` on every handle,
   ``valid_at(watermark)`` on every handle;
4. checks (not timed): coverage digest, oracle comparison, and for the
   sharded workload a serial reference pass.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import resource
import time

from workloads import Workload

from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.ql.query import Query

#: where the historical oracle epochs sit, as shares of the input
ORACLE_SHARES = (0.3, 0.55, 0.8)


def best_of(repeats: int, call) -> float:
    """Seconds of the fastest of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate() -> float:
    """Million iterations per second of a fixed pure-Python loop: how
    fast this host is right now, read beside every pass."""

    def loop() -> None:
        x = 0
        for i in range(200_000):
            x += i & 3

    return 0.2 / best_of(3, loop)


def rss_mb(pid: int | str = "self", peak: bool = False) -> float:
    """Resident (or peak resident) set size of a process, from /proc."""
    key = "VmHWM:" if peak else "VmRSS:"
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {key} line for pid {pid}")


def build_queries(spec: Workload) -> tuple[list, dict]:
    """Parse and plan the workload's queries, timing each stage."""
    timing = {"ql.parse_ms": 0.0, "ql.plan_ms": 0.0}
    queries = []
    for name, text in spec.query_texts():
        query = Query.datalog(text, spec.window, slide=spec.slide)
        start = time.perf_counter()
        query.sgq()
        parsed = time.perf_counter()
        query.plan()
        timing["ql.parse_ms"] += (parsed - start) * 1e3
        timing["ql.plan_ms"] += (time.perf_counter() - parsed) * 1e3
        queries.append((name, query))
    return queries, timing


def build_engine(spec: Workload, queries, **overrides):
    engine = StreamingGraphEngine(EngineConfig(**{**spec.config, **overrides}))
    handles = [engine.register(query, name=name) for name, query in queries]
    return engine, handles


def feed(engine, ops, per_slide: dict | None = None) -> dict:
    """Issue every operation; time only the calls into the engine.

    Inserts go in as the longest runs ``push_many`` can take; a deletion
    ends the run.  A slide's sample is the engine time of its share of
    each run (from ``RunStats.slides``) plus that of the deletions issued
    while the window stood at it; a caller that feeds in several calls
    passes the same ``per_slide`` to each.
    """
    if per_slide is None:
        per_slide = {}
    clock = time.perf_counter
    push_s = delete_s = 0.0
    deletes = 0
    run: list = []

    def flush() -> None:
        nonlocal push_s
        start = clock()
        stats = engine.push_many(run)
        push_s += clock() - start
        for s in stats.slides:
            per_slide[s.boundary] = per_slide.get(s.boundary, 0.0) + s.seconds
        run.clear()

    for sign, edge in ops:
        if sign == "+":
            run.append(edge)
            continue
        if run:
            flush()
        start = clock()
        engine.delete(edge)
        spent = clock() - start
        delete_s += spent
        deletes += 1
        at = engine.watermark
        per_slide[at] = per_slide.get(at, 0.0) + spent
    if run:
        flush()
    return {
        "feed_s": push_s + delete_s,
        "push_s": push_s,
        "delete_s": delete_s,
        "deletes": deletes,
        "slides": list(per_slide.values()),
    }


def timed_read(read) -> tuple[object, float]:
    """Call ``read`` until 50 ms have been measured; returns what the
    first call returned and the mean seconds per call.  The first call
    pays for unwrapping the sink's retained batches, as a user's first
    read does; where a whole read takes under a millisecond the repeats
    keep the timer's noise out of the number.  A full garbage collection
    first, so that none falls inside the read by the luck of the
    allocation count."""
    gc.collect()
    first = None
    calls = 0
    spent = 0.0
    while spent < 0.05:
        start = time.perf_counter()
        returned = read()
        spent += time.perf_counter() - start
        if not calls:
            first = returned
        calls += 1
    return first, spent / calls


def timed_reads(handles, watermark) -> dict:
    """``results()`` then ``valid_at(watermark)`` on every handle, each
    call timed on its own."""
    results = [timed_read(h.results) for h in handles]
    valid = [timed_read(lambda h=h: h.valid_at(watermark)) for h in handles]
    return {
        "results": sum(len(r) for r, _ in results),
        "results_parts": [s for _, s in results],
        "valid_at_parts": [s for _, s in valid],
        "at_watermark": {h.name: v for h, (v, _) in zip(handles, valid)},
    }


def coverage_digest(covers: dict) -> str:
    """sha256 over the sorted, merged ``coverage()`` of every handle."""
    lines = [
        f"{name}|{key!r}|{[(iv.ts, iv.exp) for iv in intervals]}"
        for name, cover in covers.items()
        for key, intervals in cover.items()
    ]
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def oracle_failures(spec, queries, ops, engine, handles, covers, at_watermark):
    """Compare four epochs per query with the snapshot-reducibility
    oracle; returns (checks made, descriptions of the mismatches).

    Without deletions the epochs are the watermark (the timed
    ``valid_at`` answer itself) and three historical instants read off
    the same ``coverage()`` that ``valid_at`` filters.  A deletion does
    not rewrite history before the instant it was issued at (Section
    6.2.5), and the last ones are issued inside the final slide, so with
    deletions the epochs are the next four window movements, performed
    with ``advance_to`` and read with ``valid_at``; the oracle sees the
    stream without the deleted edges.
    """
    from repro.algebra.reference import evaluate_plan_at

    deleted = {id(edge) for sign, edge in ops if sign == "-"}
    by_label: dict[str, list] = {}
    for sign, edge in ops:
        if sign == "+" and id(edge) not in deleted:
            by_label.setdefault(edge.label, []).append(edge)
    inserts = [edge for sign, edge in ops if sign == "+"]
    watermark = engine.watermark
    failures = []
    checks = 0
    for (name, query), handle in zip(queries, handles):
        plan = query.plan()
        answers = {}
        if deleted:
            for step in (1, 2, 3, 4):
                t = watermark + step * spec.slide
                engine.advance_to(t)
                answers[t] = handle.valid_at(t)
        else:
            answers[watermark] = at_watermark[name]
            for share in ORACLE_SHARES:
                t = inserts[int(share * (len(inserts) - 1))].t
                t = t // spec.slide * spec.slide
                answers[t] = {
                    key
                    for key, intervals in covers[name].items()
                    if any(iv.contains(t) for iv in intervals)
                }
        for t, answer in answers.items():
            checks += 1
            expected = evaluate_plan_at(plan, by_label, t)
            if {(u, v) for u, v, _ in answer} != expected:
                failures.append(
                    f"{name}: valid_at({t}) has {len(answer)} keys, "
                    f"oracle {len(expected)}"
                )
    return checks, failures


def engine_pass(spec: Workload, args) -> dict:
    ops = spec.ops(args.seed, args.scale)
    queries, stage_ms = build_queries(spec)
    start = time.perf_counter()
    engine, handles = build_engine(spec, queries)
    stage_ms["engine.register_ms"] = (time.perf_counter() - start) * 1e3
    engine.advance_to(ops[0][1].t)
    ready = time.time()

    warm_engine, _ = build_engine(spec, queries)
    feed(warm_engine, ops[: len(ops) // 10])
    warm_engine.close()
    del warm_engine
    calib = calibrate()
    rss_before = rss_mb()

    gc.collect()
    fed = feed(engine, ops)
    reads = timed_reads(handles, engine.watermark)
    at_watermark = reads.pop("at_watermark")
    calib = max(calib, calibrate())

    workers_mb = sum(
        rss_mb(worker.pid, peak=True)
        for worker in multiprocessing.active_children()
    )
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    start = time.perf_counter()
    covers = {h.name: h.coverage() for h in handles}
    coverage_s = time.perf_counter() - start
    out = {
        "setup_s": ready - args.t0,
        "ops": len(ops),
        **fed,
        **reads,
        "coverage_s": coverage_s,
        "peak_rss_mb": own_mb + workers_mb,
        "workers_mb": workers_mb,
        "rss_growth_mb": own_mb - rss_before,
        "calib_mops": calib,
        "digest": coverage_digest(covers),
        "stage_ms": stage_ms,
        "checks": 0,
        "failures": [],
    }
    if args.check:
        out["checks"], out["failures"] = oracle_failures(
            spec, queries, ops, engine, handles, covers, at_watermark
        )
    if args.check and engine.config.shards > 1:
        serial, serial_handles = build_engine(spec, queries, shards=1)
        serial_fed = feed(serial, ops)
        serial_digest = coverage_digest(
            {h.name: h.coverage() for h in serial_handles}
        )
        out["serial_push_s"] = serial_fed["push_s"]
        out["checks"] += 1
        if serial_digest != out["digest"]:
            out["failures"].append("sharded and serial coverage differ")
    if args.trace:
        import micro

        out["layers"] = micro.engine_layers(
            spec, args, ops, queries, engine, handles, out
        )
    engine.close()
    return out


