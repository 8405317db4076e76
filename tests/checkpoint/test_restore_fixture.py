"""A checkpoint committed to the repository still restores.

``data/arrays_layout_v1`` was written by the build that still carried a
second, struct-of-arrays operator state layout (the one a default
``EngineConfig`` ran under vector execution): Q1 and Q2 on a 300-edge
StackOverflow-style stream, checkpointed after the first half of the
stream.  The stream itself is stored beside the checkpoint, so the test
does not depend on the generator staying edge-for-edge stable.

Restoring that checkpoint into today's engine and replaying the second
half must give the same ``coverage()`` and ``valid_at`` at every later
epoch as an uninterrupted run — proof that the blobs are plain data
with no pickled reference to operator-state classes, so
``FORMAT_VERSION`` can stay 1.
"""

import json
import pathlib
import shutil

from repro.checkpoint import DirectoryCheckpointStore
from repro.core.tuples import SGE
from repro.core.windows import SlidingWindow
from repro.engine.session import EngineConfig, StreamingGraphEngine
from repro.workloads import QUERIES, labels_for

FIXTURE = pathlib.Path(__file__).parent / "data" / "arrays_layout_v1"
QUERY_NAMES = ("Q1", "Q2")


def _load_stream():
    with open(FIXTURE / "stream.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    stream = [SGE(s, t, label, ts) for s, t, label, ts in doc["edges"]]
    return stream, SlidingWindow(doc["window"], doc["slide"]), doc["cut"]


def _surfaces(engine, stream, window, cut):
    boundaries = sorted({(e.t // window.slide) * window.slide for e in stream[cut:]})
    out = {}
    for name in QUERY_NAMES:
        handle = engine.handle(name)
        out[name] = {
            "coverage": {k: tuple(v) for k, v in handle.coverage().items()},
            "valid_at": [handle.valid_at(b + window.slide - 1) for b in boundaries],
        }
    return out


def test_pre_change_checkpoint_restores(tmp_path):
    stream, window, cut = _load_stream()

    reference = StreamingGraphEngine(EngineConfig())
    for name in QUERY_NAMES:
        reference.register(
            QUERIES[name].plan(labels_for(name, "so"), window), name=name
        )
    reference.push_many(stream[:cut])
    reference.push_many(stream[cut:])
    expected = _surfaces(reference, stream, window, cut)
    reference.close()

    shutil.copytree(FIXTURE / "store", tmp_path / "store")
    restored = StreamingGraphEngine.restore(
        DirectoryCheckpointStore(str(tmp_path / "store"))
    )
    restored.push_many(stream[cut:])
    got = _surfaces(restored, stream, window, cut)
    restored.close()

    for name in QUERY_NAMES:
        assert expected[name]["coverage"], name
        assert got[name] == expected[name], name
