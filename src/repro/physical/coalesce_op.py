"""Physical output coalescing (the Section 5.1 set-semantics stage).

SGA operators may produce several value-equivalent sgts with overlapping
validity (PATTERN finds one result per witness subgraph, PATH re-emits on
interval extension).  The paper coalesces operator outputs so streaming
graphs keep set semantics; operationally this also protects downstream
stateful operators from duplicate-derivation blow-up — a PATH over a
derived relation must not re-traverse once per witness.

Exactness with retractions: our operators emit *derivation-balanced*
streams (every DELETE matches one earlier INSERT with the same interval).
When an INSERT is dropped because its interval is already covered, the
drop is recorded in a ledger; the matching DELETE, if it ever arrives, is
absorbed against the ledger instead of being forwarded.  Net coverage
downstream is therefore exactly the net coverage upstream.

Expiry is driven by a :class:`~repro.core.expiry.TimingWheel` of result
keys: every stored cover piece and ledger entry schedules its key at its
expiry instant, so a watermark advance touches exactly the keys that can
hold expired state — never the whole cover map (the historical
implementation re-scanned all retained keys whenever the cheapest
min-expiry bound tripped).
"""

from __future__ import annotations

from collections import Counter

from repro.core.batch import DeltaBatch
from repro.core.columns import DeltaColumns
from repro.core.expiry import TimingWheel
from repro.core.intervals import FOREVER, Interval, cover, subtract_cover
from repro.core.tuples import Label
from repro.dataflow.graph import INSERT, Event, PhysicalOperator


class CoalesceOp(PhysicalOperator):
    """Suppresses already-covered duplicate results per value key."""

    def __init__(self, label: Label):
        super().__init__(f"coalesce[{label}]")
        #: per key: net emitted validity cover (disjoint, sorted)
        self._cover: dict[tuple, list[Interval]] = {}
        #: per key: multiset of dropped insert intervals awaiting their
        #: balanced retraction
        self._dropped: dict[tuple, Counter] = {}
        #: keys to re-examine when the watermark reaches an expiry
        #: instant of one of their cover pieces / ledger entries
        self._wheel = TimingWheel()
        #: sharded placement: ``True`` when this instance's keys are
        #: routed by shard ownership (stamped by the planner; shard
        #: rebalancing re-partitions partitioned instances and copies
        #: replicated ones)
        self.partitioned = False

    def on_event(self, port: int, event: Event) -> None:
        sgt = event.sgt
        key = (sgt.src, sgt.trg, sgt.label)
        interval = sgt.interval
        wheel = self._wheel
        if event.sign == INSERT:
            existing = self._cover.get(key)
            exp = interval.exp
            bucket = wheel.fine.get(exp)
            if bucket is not None:
                bucket.append(key)
            else:
                wheel.schedule(exp, key)
            if existing is None:
                self._cover[key] = [interval]
            elif _covered(interval.ts, interval.exp, existing):
                self._dropped.setdefault(key, Counter())[interval] += 1
                return
            else:
                self._extend_cover(key, existing, interval.ts, interval.exp)
            self.emit(event)
        else:
            ledger = self._dropped.get(key)
            if ledger is not None and ledger.get(interval, 0) > 0:
                ledger[interval] -= 1
                if ledger[interval] == 0:
                    del ledger[interval]
                return
            # A retraction can cut a cover piece short anywhere at or
            # after its start; re-examine the key from that instant on.
            wheel.schedule(interval.ts, key)
            remaining = subtract_cover(self._cover.get(key, []), [interval])
            self.emit(event)
            # Dropped duplicates that the shrunk cover no longer contains
            # are still supported upstream: resurrect them so net coverage
            # downstream stays exact.
            if ledger:
                resurrect: list[Interval] = []
                for dropped_interval, count in list(ledger.items()):
                    if not _covered(
                        dropped_interval.ts, dropped_interval.exp, remaining
                    ):
                        resurrect.extend([dropped_interval] * count)
                        del ledger[dropped_interval]
                for dropped_interval in resurrect:
                    remaining = cover(remaining + [dropped_interval])
                    self.emit(
                        Event(
                            event.sgt.with_interval(dropped_interval), INSERT
                        )
                    )
            self._cover[key] = remaining

    def on_batch(self, port: int, batch: DeltaBatch) -> None:
        """Bulk coalescing with per-event decisions preserved.

        The covered/duplicate decision for each event depends on the
        events before it, so the loop stays strictly in arrival order;
        the batch win is amortized dispatch (dictionary lookups hoisted,
        suppressed duplicates never touch the output buffer, and one
        downstream flush for the whole batch).  Columnar batches stay
        columnar: intervals are compared as scalars and an
        :class:`~repro.core.intervals.Interval` is allocated only for the
        pieces actually retained in the cover state.
        """
        signs = batch.signs
        if signs is not None:
            # Mixed batches carry retractions whose ledger interplay is
            # exactly the per-event logic; replay through the shim.
            super().on_batch(port, batch)
            return
        cols = batch.columns
        if cols is not None:
            self._on_columns(batch.boundary, cols)
            return
        self._begin_batch()
        try:
            cover_map = self._cover
            dropped = self._dropped
            emit_sgt = self.emit_sgt
            wheel = self._wheel
            fine = wheel.fine
            for sgt in batch.sgts:
                key = sgt.key()
                interval = sgt.interval
                exp = interval.exp
                bucket = fine.get(exp)
                if bucket is not None:
                    bucket.append(key)
                else:
                    wheel.schedule(exp, key)
                existing = cover_map.get(key)
                if existing is None:
                    cover_map[key] = [interval]
                elif _covered(interval.ts, interval.exp, existing):
                    ledger = dropped.get(key)
                    if ledger is None:
                        ledger = dropped[key] = Counter()
                    ledger[interval] += 1
                    continue
                else:
                    self._extend_cover(key, existing, interval.ts, interval.exp)
                emit_sgt(sgt, INSERT)
        finally:
            self._end_batch(batch.boundary)

    def _on_columns(self, boundary: int, cols: DeltaColumns) -> None:
        """Columnar insert-only coalescing: scalar covered-checks, one
        columnar output batch of the surviving rows.

        The covered/duplicate decision is inherently sequential (each
        event's outcome depends on the ones before it).
        """
        label = cols.label
        src, dst, ts_col, exp_col = cols.src, cols.dst, cols.ts, cols.exp
        cover_map = self._cover
        dropped = self._dropped
        wheel = self._wheel
        fine = wheel.fine
        out_src: list[int] = []
        out_dst: list[int] = []
        out_ts: list[int] = []
        out_exp: list[int] = []
        for i in range(len(src)):
            s = src[i]
            d = dst[i]
            ts = ts_col[i]
            exp = exp_col[i]
            key = (s, d, label)
            bucket = fine.get(exp)
            if bucket is not None:
                bucket.append(key)
            else:
                wheel.schedule(exp, key)
            existing = cover_map.get(key)
            if existing is None:
                cover_map[key] = [Interval(ts, exp)]
            elif _covered(ts, exp, existing):
                ledger = dropped.get(key)
                if ledger is None:
                    ledger = dropped[key] = Counter()
                ledger[Interval(ts, exp)] += 1
                continue
            else:
                self._extend_cover(key, existing, ts, exp)
            out_src.append(s)
            out_dst.append(d)
            out_ts.append(ts)
            out_exp.append(exp)
        if out_src:
            out = DeltaColumns(label, out_src, out_dst, out_ts, out_exp)
            self.emit_batch(DeltaBatch(boundary, columns=out))

    def _extend_cover(
        self, key: tuple, existing: list[Interval], ts: int, exp: int
    ) -> None:
        """Add ``[ts, exp)`` (known not covered) to a non-empty cover.

        Streams arrive roughly ts-ordered, so the new interval almost
        always extends or follows the *last* cover piece; patch the
        sorted-disjoint list in place and fall back to the full
        normalization only for out-of-order arrivals.
        """
        if not existing:
            # A retraction may have emptied the key's cover in place.
            existing.append(Interval(ts, exp))
            return
        last = existing[-1]
        if last.ts <= ts:
            if ts <= last.exp:
                # Mergeable with the last piece; exp > last.exp, because
                # containment was already ruled out by the covered check.
                existing[-1] = Interval(last.ts, max(exp, last.exp))
            else:
                existing.append(Interval(ts, exp))
        else:
            self._cover[key] = cover(existing + [Interval(ts, exp)])

    def on_advance(self, t: int) -> None:
        # Bulk epoch drain: one wheel call hands over every due bucket;
        # a key scheduled at several due instants is examined once.
        epochs = self._wheel.drain_epochs(t)
        if not epochs:
            return
        seen: set[tuple] = set()
        expire = self._expire_key
        for _, fired in epochs:
            for key in fired:
                if key in seen:
                    continue
                seen.add(key)
                expire(key, t)

    def _expire_key(self, key: tuple, t: int) -> None:
        """Drop this key's pieces/ledger entries with ``exp <= t``;
        re-schedule the key at the earliest expiry that remains."""
        next_exp = FOREVER
        intervals = self._cover.get(key)
        if intervals is not None:
            kept = [iv for iv in intervals if iv.exp > t]
            if kept:
                self._cover[key] = kept
                for iv in kept:
                    if iv.exp < next_exp:
                        next_exp = iv.exp
            else:
                del self._cover[key]
        ledger = self._dropped.get(key)
        if ledger:
            for interval in [iv for iv in ledger if iv.exp <= t]:
                del ledger[interval]
            if not ledger:
                del self._dropped[key]
            else:
                for interval in ledger:
                    if interval.exp < next_exp:
                        next_exp = interval.exp
        if next_exp < FOREVER:
            self._wheel.schedule(next_exp, key)

    def state_size(self) -> int:
        return sum(len(ivs) for ivs in self._cover.values())

    def state_breakdown(self) -> dict:
        rows = self.state_size()
        ledger = sum(len(c) for c in self._dropped.values())
        return {"rows": rows + ledger, "bytes": (rows + ledger) * 144}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "kind": "coalesce",
            "partitioned": self.partitioned,
            "cover": [
                (key, [(iv.ts, iv.exp) for iv in ivs])
                for key, ivs in self._cover.items()
            ],
            "dropped": [
                (
                    key,
                    [
                        ((iv.ts, iv.exp), count)
                        for iv, count in ledger.items()
                    ],
                )
                for key, ledger in self._dropped.items()
            ],
            "wheel": self._wheel.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "coalesce":
            from repro.errors import CheckpointError

            raise CheckpointError(
                f"operator {self.name}: expected a coalesce state blob, "
                f"got kind={state.get('kind')!r}"
            )
        self._cover = {
            tuple(key): [Interval(ts, exp) for ts, exp in ivs]
            for key, ivs in state["cover"]
        }
        self._dropped = {
            tuple(key): Counter(
                {
                    Interval(ts, exp): count
                    for (ts, exp), count in entries
                }
            )
            for key, entries in state["dropped"]
        }
        wheel = TimingWheel()
        wheel.restore(state["wheel"], decode=tuple)
        self._wheel = wheel


def _covered(ts: int, exp: int, intervals: list[Interval]) -> bool:
    """True iff ``[ts, exp)`` lies within one interval of a disjoint cover."""
    for candidate in intervals:
        if candidate.ts <= ts and exp <= candidate.exp:
            return True
        if candidate.ts > ts:
            break
    return False
