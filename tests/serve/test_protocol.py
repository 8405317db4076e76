"""Wire-protocol validation: request parsing and event encoding."""

import json

import pytest

from repro.core.intervals import Interval
from repro.core.tuples import SGE, SGT, EdgePayload, PathPayload
from repro.dataflow.graph import DELETE, INSERT, Event
from repro.ql.query import Query
from repro.serve.protocol import (
    ProtocolError,
    dumps,
    encode_event,
    parse_ingest,
    parse_register,
)


class TestParseRegister:
    def test_minimal_datalog(self):
        spec = parse_register(
            {"query": "Answer(x,y) <- likes(x,y).", "window": 24}
        )
        assert spec.text == "Answer(x,y) <- likes(x,y)."
        assert spec.window == 24
        assert spec.dialect == "auto"
        query = spec.build_query()
        assert isinstance(query, Query)

    def test_explicit_dialect_and_slide(self):
        spec = parse_register(
            {
                "query": "Answer(x,y) <- likes(x,y).",
                "dialect": "datalog",
                "window": 24,
                "slide": 4,
                "name": "mine",
            }
        )
        assert spec.slide == 4
        assert spec.name == "mine"
        spec.build_query()

    def test_params_route_through_prepared(self):
        spec = parse_register(
            {
                "query": "Answer(x,y) <- $edge(x,y).",
                "window": 24,
                "params": {"edge": "likes"},
            }
        )
        query = spec.build_query()
        assert isinstance(query, Query)

    def test_datalog_without_window_rejected(self):
        spec = parse_register(
            {"query": "Answer(x,y) <- likes(x,y).", "dialect": "datalog"}
        )
        with pytest.raises(ProtocolError, match="window"):
            spec.build_query()

    @pytest.mark.parametrize(
        "body, match",
        [
            ("nope", "JSON object"),
            ({}, "'query'"),
            ({"query": 7}, "'query'"),
            ({"query": "x", "dialect": "sql"}, "dialect"),
            ({"query": "x", "window": "24"}, "'window'"),
            ({"query": "x", "window": True}, "'window'"),
            ({"query": "x", "slide": 1.5}, "'slide'"),
            ({"query": "x", "params": {"a": 1}}, "'params'"),
            ({"query": "x", "options": [1]}, "'options'"),
            ({"query": "x", "options": {"zap": 1}}, "zap"),
            ({"query": "x", "name": 3}, "'name'"),
        ],
    )
    def test_rejects_malformed_bodies(self, body, match):
        with pytest.raises(ProtocolError, match=match):
            parse_register(body)

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"materialize_paths": "false"}, "'materialize_paths' must be a boolean"),
            ({"materialize_paths": [1]}, "'materialize_paths' must be a boolean"),
            ({"coalesce_intermediate": 0}, "'coalesce_intermediate' must be a boolean"),
            ({"path_impl": 3}, "'path_impl' must be a string"),
        ],
    )
    def test_rejects_wrongly_typed_compile_options(self, options, match):
        with pytest.raises(ProtocolError, match=match):
            parse_register(
                {
                    "query": "Answer(x,y) <- knows+(x,y) as K.",
                    "window": 24,
                    "options": options,
                }
            )

    def test_known_compile_options_accepted(self):
        spec = parse_register(
            {
                "query": "Answer(x,y) <- knows+(x,y) as K.",
                "window": 24,
                "options": {"path_impl": "spath"},
            }
        )
        spec.build_query()


class TestParseIngest:
    def test_roundtrip(self):
        edges = parse_ingest(
            {
                "edges": [
                    {"src": "a", "trg": "b", "label": "likes", "t": 0},
                    {"src": 1, "trg": 2, "label": "posts", "t": 3},
                ]
            }
        )
        assert edges == [SGE("a", "b", "likes", 0), SGE(1, 2, "posts", 3)]

    def test_empty_batch_is_fine(self):
        assert parse_ingest({"edges": []}) == []

    @pytest.mark.parametrize(
        "body, match",
        [
            ([], "JSON object"),
            ({}, "'edges'"),
            ({"edges": [[]]}, "edge 0"),
            ({"edges": [{"src": 1, "trg": 2, "t": 0}]}, "label"),
            (
                {"edges": [{"src": 1, "trg": 2, "label": 3, "t": 0}]},
                "string",
            ),
            (
                {"edges": [{"src": 1, "trg": 2, "label": "x", "t": "0"}]},
                "integer",
            ),
        ],
    )
    def test_rejects_malformed_edges(self, body, match):
        with pytest.raises(ProtocolError, match=match):
            parse_ingest(body)

    def test_rejects_out_of_order_batch(self):
        with pytest.raises(ProtocolError, match="timestamp order"):
            parse_ingest(
                {
                    "edges": [
                        {"src": 1, "trg": 2, "label": "a", "t": 5},
                        {"src": 1, "trg": 2, "label": "a", "t": 4},
                    ]
                }
            )


class TestEncodeEvent:
    def test_insert_event(self):
        event = Event(SGT("u", "v", "Answer", Interval(3, 24)), INSERT)
        obj = encode_event(7, event)
        assert obj == {
            "seq": 7,
            "sign": INSERT,
            "src": "u",
            "trg": "v",
            "label": "Answer",
            "from": 3,
            "to": 24,
        }

    def test_delete_event_keeps_sign(self):
        event = Event(SGT("u", "v", "Answer", Interval(3, 24)), DELETE)
        assert encode_event(1, event)["sign"] == DELETE

    def test_path_payload_included(self):
        payload = PathPayload((EdgePayload("a", "b", "K"),))
        sgt = SGT("a", "b", "K", Interval(0, 9), payload)
        obj = encode_event(1, Event(sgt, INSERT))
        assert obj["path"] == list(payload.vertices)

    def test_dumps_is_canonical(self):
        text = dumps({"b": 1, "a": [2, 3]})
        assert text == '{"a":[2,3],"b":1}'
        assert json.loads(text) == {"a": [2, 3], "b": 1}
