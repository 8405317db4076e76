"""Physical WSCAN: per-tuple windowing map (Definition 16, Section 6.2.1).

WSCAN is stateless: it rewrites the validity interval of each incoming
sgt according to the window specification, applying the optional pushed-
down prefilter first.  Deletions pass through the same mapping, so a
negative tuple reaches downstream state with exactly the interval its
insertion carried.
"""

from __future__ import annotations

from repro.algebra.operators import Predicate
from repro.core.batch import DeltaBatch
from repro.core.columns import DeltaColumns
from repro.core.intervals import Interval
from repro.core.tuples import SGT
from repro.core.windows import SlidingWindow
from repro.dataflow.graph import Event, PhysicalOperator


class WScanOp(PhysicalOperator):
    """Assigns window validity intervals to input tuples."""

    def __init__(
        self,
        label: str,
        window: SlidingWindow,
        prefilter: Predicate | None = None,
    ):
        super().__init__(f"wscan[{label},{window}]")
        self.label = label
        self.window = window
        self.prefilter = prefilter
        #: hot-loop caches of the window parameters; a degenerate
        #: configuration (size < slide) is the only way Definition 16
        #: can assign an empty interval, checked per edge only then
        self._beta = window.slide
        self._size = window.size
        self._degenerate = window.size < window.slide

    def on_event(self, port: int, event: Event) -> None:
        sgt = event.sgt
        if self.prefilter is not None and not self.prefilter.evaluate(
            sgt.src, sgt.trg, sgt.label
        ):
            return
        interval = self.window.interval_for(sgt.ts)
        windowed = SGT(sgt.src, sgt.trg, sgt.label, interval)
        self.emit(Event(windowed, event.sign))

    def on_edge(self, port: int, src, dst, t: int, label: str) -> None:
        """Window one raw edge from bare scalars (per-edge fast path).

        One sgt, one interval and one event are allocated — the NOW-sgt
        stage of the classic push path is skipped entirely.
        """
        prefilter = self.prefilter
        if prefilter is not None and not prefilter.evaluate(src, dst, label):
            return
        exp = t - t % self._beta + self._size
        if self._degenerate and exp <= t:
            self.window.interval_for(t)  # raises InvalidIntervalError
        self.emit(Event(SGT(src, dst, label, Interval(t, exp))))

    def on_edge_columns(
        self,
        port: int,
        boundary: int,
        label: str,
        src: list,
        dst: list,
        ts: list,
    ) -> None:
        """Column-at-a-time windowing (the columnar-executor fast path).

        One pass computes the expiry column straight from the timestamp
        column (Definition 16, ``exp = floor(t / beta) * beta + T``,
        inlined); no per-tuple object of any kind is allocated.  The
        input columns are adopted wholesale when no prefilter applies —
        the executor hands over ownership of freshly built lists.
        """
        window = self.window
        beta = window.slide
        size = window.size
        prefilter = self.prefilter
        if prefilter is None:
            exp = [t - t % beta + size for t in ts]
            if size < beta:
                # Degenerate configurations (window shorter than the
                # slide) are the only way exp <= t can happen; skip the
                # per-row guard pass entirely otherwise.
                for i, e in enumerate(exp):
                    if e <= ts[i]:
                        window.interval_for(ts[i])  # raises InvalidIntervalError
            if exp:
                self.emit_batch(
                    DeltaBatch(
                        boundary,
                        columns=DeltaColumns(self.label, src, dst, ts, exp),
                    )
                )
            return
        evaluate = prefilter.evaluate
        out_src: list[int] = []
        out_dst: list[int] = []
        out_ts: list[int] = []
        out_exp: list[int] = []
        for i in range(len(src)):
            s = src[i]
            d = dst[i]
            if not evaluate(s, d, label):
                continue
            t = ts[i]
            e = t - t % beta + size
            if e <= t:
                window.interval_for(t)  # raises InvalidIntervalError
            out_src.append(s)
            out_dst.append(d)
            out_ts.append(t)
            out_exp.append(e)
        if out_src:
            self.emit_batch(
                DeltaBatch(
                    boundary,
                    columns=DeltaColumns(
                        self.label, out_src, out_dst, out_ts, out_exp
                    ),
                )
            )
