"""Pause CPython's cyclic garbage collector around engine calls.

The engine's state is freed by reference counting alone — it builds no
reference cycles (``tests/engine/test_no_cyclic_garbage.py`` pins that)
— so a cyclic collection during a feed only walks hundreds of thousands
of live tuples and finds nothing.  :func:`gc_paused` disables the
collector for the duration of a block and restores it afterwards.

The pause is process-wide and counted: nested and concurrent blocks
(engines on several threads) share one pause, the last one out restores
the collector, and a collector the host had already disabled stays
disabled.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic collector disabled (re-entrant)."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
