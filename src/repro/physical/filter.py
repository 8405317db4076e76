"""Physical FILTER: stateless predicate evaluation (Definition 17)."""

from __future__ import annotations

from repro.algebra.operators import Predicate
from repro.core.batch import DeltaBatch
from repro.core.columns import DeltaColumns
from repro.dataflow.graph import Event, PhysicalOperator


class FilterOp(PhysicalOperator):
    """Forwards events whose sgt satisfies the predicate.

    Deletions are filtered identically: a tuple that never passed the
    filter produced no downstream effects, so its retraction must not
    either.
    """

    def __init__(self, predicate: Predicate):
        super().__init__(f"filter[{predicate}]")
        self.predicate = predicate

    def on_event(self, port: int, event: Event) -> None:
        sgt = event.sgt
        if self.predicate.evaluate(sgt.src, sgt.trg, sgt.label):
            self.emit(event)

    def on_batch(self, port: int, batch: DeltaBatch) -> None:
        """Bulk filtering: one predicate pass, one downstream flush."""
        evaluate = self.predicate.evaluate
        signs = batch.signs
        cols = batch.columns
        if cols is not None:
            self._on_columns(batch.boundary, cols, signs)
            return
        if signs is None:
            out = [s for s in batch.sgts if evaluate(s.src, s.trg, s.label)]
            if out:
                self.emit_batch(DeltaBatch(batch.boundary, out))
            return
        out_sgts: list = []
        out_signs: list[int] = []
        for sgt, sign in zip(batch.sgts, signs):
            if evaluate(sgt.src, sgt.trg, sgt.label):
                out_sgts.append(sgt)
                out_signs.append(sign)
        if out_sgts:
            self.emit_batch(DeltaBatch(batch.boundary, out_sgts, out_signs))

    def _on_columns(self, boundary: int, cols, signs: list[int] | None) -> None:
        """Columnar filtering: select row indices, copy surviving columns
        (all-pass batches forward zero-copy)."""
        evaluate = self.predicate.evaluate
        label = cols.label
        src, dst, ts, exp = cols.src, cols.dst, cols.ts, cols.exp
        keep = [
            i for i in range(len(src)) if evaluate(src[i], dst[i], label)
        ]
        if not keep:
            return
        if len(keep) == len(src):
            out = cols
            out_signs = signs
        else:
            out = DeltaColumns(
                label,
                [src[i] for i in keep],
                [dst[i] for i in keep],
                [ts[i] for i in keep],
                [exp[i] for i in keep],
            )
            out_signs = [signs[i] for i in keep] if signs is not None else None
        self.emit_batch(DeltaBatch(boundary, signs=out_signs, columns=out))
