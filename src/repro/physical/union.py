"""Physical UNION: stateless merge with optional relabeling (Definition 18)."""

from __future__ import annotations

from repro.core.batch import DeltaBatch
from repro.core.tuples import SGT, Label
from repro.dataflow.graph import Event, PhysicalOperator


class UnionOp(PhysicalOperator):
    """Merges any number of input ports into one output stream.

    When ``label`` is given, outgoing sgts are relabeled.  *Explicit*
    payloads — materialized paths, operator-provided provenance — are
    preserved, so relabeled paths remain materialized paths.  A lazily
    defaulted edge payload (the common case: the payload is just the
    sgt's own ``(src, label, trg)``) materializes under the *relabeled*
    label: default payloads carry no provenance, which keeps row-wise
    and columnar relabeling identical (columns hold no payloads to
    forward).
    """

    def __init__(self, label: Label | None = None):
        super().__init__(f"union[{label or ''}]")
        self.label = label

    def on_event(self, port: int, event: Event) -> None:
        sgt = event.sgt
        if self.label is None or sgt.label == self.label:
            self.emit(event)
            return
        # The raw slot keeps a lazily-defaulted payload lazy across the
        # relabel; explicit payloads (materialized paths) are preserved.
        relabeled = SGT(sgt.src, sgt.trg, self.label, sgt.interval, sgt._payload)
        self.emit(Event(relabeled, event.sign))

    def on_batch(self, port: int, batch: DeltaBatch) -> None:
        """Bulk merge: forward the batch unchanged (zero copy) when no
        relabeling applies, otherwise relabel in one tight pass.

        A columnar batch relabels by sharing its columns under the new
        label — zero copies either way."""
        label = self.label
        if label is None:
            self.emit_batch(batch)
            return
        cols = batch.columns
        if cols is not None:
            if cols.label != label:
                cols = cols.relabeled(label)
            self.emit_batch(
                DeltaBatch(batch.boundary, signs=batch.signs, columns=cols)
            )
            return
        sgts = batch.sgts
        out = [
            s
            if s.label == label
            else SGT(s.src, s.trg, label, s.interval, s._payload)
            for s in sgts
        ]
        self.emit_batch(DeltaBatch(batch.boundary, out, batch.signs))
