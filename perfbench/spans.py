"""Spans around the calls into each compiled operator, taken from outside.

The tracer replaces the entry points of operator *instances* (the
instance attribute shadows the class method, and operators call each
other through ``consumer.on_batch(...)``-style attribute lookups, so
every hop passes through a wrapper).  Operators push downstream
synchronously, so a span's self time is its duration minus the time its
child spans cover.

One span is kept per (slide boundary, operator, entry point); the slide
boundary is the identifier the spans of one slide share.  Spans stay in
memory and are written once, by :meth:`Tracer.write`; the per-layer
table is derived from that file by :func:`derive`.
"""

from __future__ import annotations

import json
import time

#: operator class name -> layer (module under ``repro/physical`` or
#: ``repro/dataflow``)
LAYERS = {
    "SourceOp": "source",
    "WScanOp": "wscan",
    "FilterOp": "filter",
    "UnionOp": "union",
    "PatternOp": "join",
    "SPathOp": "spath",
    "NegativeTupleRpqOp": "spath",
    "CoalesceOp": "coalesce",
    "ShardBroadcastOp": "exchange",
    "ShardRouteOp": "exchange",
    "ShardPartitionFilterOp": "exchange",
    "SinkOp": "sink",
    "_TapShardSink": "sink",
}
OPS = (
    "source", "wscan", "filter", "union", "join",
    "spath", "coalesce", "exchange", "sink",
)  # fmt: skip

#: entry point -> how many rows one call carries, from its arguments
_ENTRIES = {
    "on_event": lambda a: 1,
    "on_edge": lambda a: 1,
    "on_batch": lambda a: len(a[1]),
    "on_sge_batch": lambda a: len(a[2]),
    "on_edge_columns": lambda a: len(a[3]),
    "on_advance": lambda a: 0,
    # sources are entered by the executor, not by an upstream operator
    "push": lambda a: 1,
    "push_scalar": lambda a: 1,
    "push_sges": lambda a: len(a[1]),
    "push_columns": lambda a: len(a[1]),
}

_SPAN_FIELDS = (
    "slide", "op", "layer", "entry", "first_start",
    "total_s", "self_s", "calls", "rows_in", "rows_out", "parent",
)  # fmt: skip


def layer_of(op) -> str:
    for cls in type(op).__mro__:
        layer = LAYERS.get(cls.__name__)
        if layer is not None:
            return layer
    return "other"


class Tracer:
    def __init__(self) -> None:
        #: (slide, op, entry) -> [layer, first_start, total, self, calls,
        #: rows_in, rows_out, parent]
        self.spans: dict[tuple, list] = {}
        self._stack: list[list] = []
        self.slide: int | None = None

    def install(self, operators) -> None:
        for index, op in enumerate(operators):
            name = f"{index}:{op.name}"
            layer = layer_of(op)
            for entry, rows_of in _ENTRIES.items():
                inner = getattr(op, entry, None)
                if inner is not None:
                    setattr(
                        op, entry, self._wrap(inner, name, layer, entry, rows_of)
                    )

    def _wrap(self, inner, name, layer, entry, rows_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_advance = entry == "on_advance"
        at_slide = object()  # the slide `span` below belongs to
        span: list = []

        def traced(*args):
            nonlocal at_slide, span
            if is_advance:
                self.slide = args[0]
            rows = rows_of(args)
            frame = [0.0, 0, name]  # child seconds, rows out, operator
            stack.append(frame)
            start = clock()
            result = inner(*args)
            total = clock() - start
            stack.pop()
            parent = None
            if stack:
                above = stack[-1]
                above[0] += total
                above[1] += rows
                parent = above[2]
            if self.slide != at_slide:
                at_slide = self.slide
                span = spans[(at_slide, name, entry)] = [
                    layer, start, 0.0, 0.0, 0, 0, 0, parent,
                ]  # fmt: skip
            span[2] += total
            span[3] += total - frame[0]
            span[4] += 1
            span[5] += rows
            span[6] += frame[1]
            return result

        return traced

    def write(self, path, meta: dict) -> None:
        rows = [
            [slide, op, span[0], entry, *span[1:]]
            for (slide, op, entry), span in self.spans.items()
        ]
        with open(path, "w") as out:
            json.dump({"meta": meta, "fields": _SPAN_FIELDS, "spans": rows}, out)


def derive(path) -> dict[str, float]:
    """The ``physical.*`` and ``dataflow.executor.self_s`` numbers of one
    traced pass, from its trace file."""
    with open(path) as src:
        doc = json.load(src)
    field = {name: i for i, name in enumerate(doc["fields"])}
    table = {
        f"physical.{op}.{what}": 0.0
        for op in OPS
        for what in ("self_s", "advance_s", "calls", "rows_in", "rows_out")
    }
    in_operators = 0.0
    for span in doc["spans"]:
        layer = span[field["layer"]]
        self_s = span[field["self_s"]]
        in_operators += self_s
        if layer not in OPS:
            continue
        prefix = f"physical.{layer}."
        if span[field["entry"]] == "on_advance":
            table[prefix + "advance_s"] += self_s
        else:
            table[prefix + "self_s"] += self_s
            table[prefix + "calls"] += span[field["calls"]]
            table[prefix + "rows_in"] += span[field["rows_in"]]
            table[prefix + "rows_out"] += span[field["rows_out"]]
    table["dataflow.executor.self_s"] = doc["meta"]["push_s"] - in_operators
    return table
