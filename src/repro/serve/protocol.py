"""Wire protocol of the serving layer: JSON requests in, JSON events out.

One module owns every schema the server speaks, so the server handlers,
the load client and the tests agree by construction:

* **register** — ``POST /tenants/{t}/queries`` body → a first-class
  :class:`~repro.ql.query.Query` (any dialect, compile options,
  ``$param`` bindings via the prepared-query pipeline);
* **ingest** — ``POST /tenants/{t}/ingest`` body → a list of
  :class:`~repro.core.tuples.SGE` edges;
* **events** — each result :class:`~repro.dataflow.graph.Event` a
  query's ``on_result`` callback emits → one JSON object carrying a
  per-query sequence number, the signed sgt and (when materialized) the
  path vertices.  The load client replays the same edges through an
  in-process engine and compares these objects byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.tuples import SGE, PathPayload
from repro.ql.prepared import prepare
from repro.ql.query import Query

#: Query dialects accepted by the register endpoint; ``"auto"`` defers
#: to :meth:`Query.from_text` detection.
DIALECTS = ("auto", "datalog", "gcore", "rpq")

#: Per-query compile options a register body may carry (the engine's
#: PER_QUERY_OPTIONS — engine-wide fields are tenant-level, not
#: per-query).
QUERY_OPTIONS = ("path_impl", "materialize_paths", "coalesce_intermediate")


class ProtocolError(ValueError):
    """A malformed or invalid request body (HTTP 400)."""


@dataclass(frozen=True)
class RegisterSpec:
    """A validated register request (see :func:`parse_register`)."""

    text: str
    dialect: str = "auto"
    window: int | None = None
    slide: int | None = None
    params: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    name: str | None = None
    #: subscriber backpressure policy for this query's subscriptions
    #: (overridable per subscription via the ``policy`` query param)
    policy: str | None = None

    def build_query(self) -> Query:
        """Construct the engine-facing :class:`Query` value.

        ``$param`` bindings route through :func:`repro.ql.prepared.prepare`
        — the same template/bind pipeline in-process users get, so a
        parameterized register costs one parse per template text.
        """
        dialect = None if self.dialect == "auto" else self.dialect
        if self.params:
            template = prepare(
                self.text,
                self.window,
                slide=self.slide,
                dialect=dialect,
                **self.options,
            )
            return template.bind(**self.params)
        if dialect is None:
            return Query.from_text(
                self.text, self.window, slide=self.slide, **self.options
            )
        if dialect == "gcore":
            if self.window is not None:
                raise ProtocolError(
                    "gcore queries carry their window in ON ... WINDOW "
                    "clauses; drop the 'window' field"
                )
            return Query.gcore(self.text, **self.options)
        ctor = Query.datalog if dialect == "datalog" else Query.rpq
        if self.window is None:
            raise ProtocolError(
                f"the {dialect!r} dialect requires a 'window' field"
            )
        return ctor(self.text, self.window, slide=self.slide, **self.options)


def _require(body: dict, key: str, kind, what: str):
    value = body.get(key)
    if not isinstance(value, kind):
        raise ProtocolError(f"field {key!r} must be {what}")
    return value


def parse_register(body: object) -> RegisterSpec:
    """Validate a register request body into a :class:`RegisterSpec`."""
    if not isinstance(body, dict):
        raise ProtocolError("register body must be a JSON object")
    text = _require(body, "query", str, "the query text (a string)")
    dialect = body.get("dialect", "auto")
    if dialect not in DIALECTS:
        raise ProtocolError(
            f"unknown dialect {dialect!r}; expected one of {DIALECTS}"
        )
    window = body.get("window")
    if window is not None and (isinstance(window, bool) or not isinstance(window, int)):
        raise ProtocolError("field 'window' must be an integer")
    slide = body.get("slide")
    if slide is not None and (isinstance(slide, bool) or not isinstance(slide, int)):
        raise ProtocolError("field 'slide' must be an integer")
    params = body.get("params", {})
    if not isinstance(params, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in params.items()
    ):
        raise ProtocolError(
            "field 'params' must map $param names to label strings"
        )
    options = body.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("field 'options' must be a JSON object")
    unknown = set(options) - set(QUERY_OPTIONS)
    if unknown:
        raise ProtocolError(
            f"unknown compile option(s) {sorted(unknown)}; "
            f"per-query options are {list(QUERY_OPTIONS)}"
        )
    for key, value in options.items():
        expected = str if key == "path_impl" else bool
        if type(value) is not expected:
            raise ProtocolError(
                f"option {key!r} must be a "
                f"{'string' if expected is str else 'boolean'}, got {value!r}"
            )
    name = body.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("field 'name' must be a string")
    policy = body.get("policy")
    if policy is not None and not isinstance(policy, str):
        raise ProtocolError("field 'policy' must be a string")
    return RegisterSpec(
        text=text,
        dialect=dialect,
        window=window,
        slide=slide,
        params=dict(params),
        options=dict(options),
        name=name,
        policy=policy,
    )


def parse_ingest(body: object) -> list[SGE]:
    """Validate an ingest request body into a timestamp-ordered edge list."""
    if not isinstance(body, dict):
        raise ProtocolError("ingest body must be a JSON object")
    edges = _require(body, "edges", list, "a list of edge objects")
    out: list[SGE] = []
    previous_t: int | None = None
    for i, item in enumerate(edges):
        if not isinstance(item, dict):
            raise ProtocolError(f"edge {i} must be a JSON object")
        try:
            src = item["src"]
            trg = item["trg"]
            label = item["label"]
            t = item["t"]
        except KeyError as exc:
            raise ProtocolError(
                f"edge {i} is missing field {exc.args[0]!r} "
                "(need src, trg, label, t)"
            ) from None
        if not isinstance(label, str):
            raise ProtocolError(f"edge {i}: 'label' must be a string")
        if isinstance(t, bool) or not isinstance(t, int):
            raise ProtocolError(f"edge {i}: 't' must be an integer")
        if previous_t is not None and t < previous_t:
            raise ProtocolError(
                f"edge {i} at t={t} breaks the batch's timestamp order "
                f"(previous t={previous_t}); sort each ingest batch"
            )
        previous_t = t
        out.append(SGE(src, trg, label, t))
    return out


def encode_event(seq: int, event) -> dict:
    """One result event as the JSON object subscribers receive.

    The event arrives decoded (the engine wraps ``on_result`` callbacks
    in the interner decode), so ``src``/``trg`` are the original vertex
    values.  ``path`` is present only for materialized path results.
    """
    sgt = event.sgt
    obj = {
        "seq": seq,
        "sign": event.sign,
        "src": sgt.src,
        "trg": sgt.trg,
        "label": sgt.label,
        "from": sgt.interval.ts,
        "to": sgt.interval.exp,
    }
    payload = sgt.payload
    if isinstance(payload, PathPayload):
        obj["path"] = list(payload.vertices)
    return obj


def dumps(obj: object) -> str:
    """Canonical JSON used on every wire surface (stable key order, so
    the parity client can compare encoded strings directly)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
