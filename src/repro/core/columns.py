"""Columnar delta layout: parallel scalar columns instead of sgt objects.

Row-wise batched execution (PR 1) removed the per-hop ``Event`` wrapper
but still allocates an :class:`~repro.core.tuples.SGT`, an
:class:`~repro.core.intervals.Interval` and an
:class:`~repro.core.tuples.EdgePayload` per tuple per producing
operator.  With vertices dictionary-encoded as dense ids
(:mod:`repro.core.interning`), a delta batch needs no per-tuple objects
at all: a :class:`DeltaColumns` carries one label (batches are
label-constant along every dataflow edge — each physical operator has a
fixed output label) plus parallel ``src`` / ``dst`` / ``ts`` / ``exp``
columns of plain ints.  Hot operators iterate the columns directly;
anything that still wants rows (the per-tuple fallback shim, fanout
edges, sinks) materializes them lazily via
:meth:`~repro.core.batch.DeltaBatch.sgts`.

Columns are plain Python lists: element reads from an ``array('q')``
re-box every int, which makes pure-Python column loops *slower* than
list iteration.
"""

from __future__ import annotations

from repro.core.tuples import Label

#: Event signs (shared convention with :mod:`repro.dataflow.graph`).
INSERT = 1
DELETE = -1


class DeltaColumns:
    """One delta batch as parallel scalar columns.

    ``src`` and ``dst`` hold interned vertex ids, ``ts`` / ``exp`` the
    validity interval bounds; ``label`` is the single label shared by
    every row.  Columns are treated as immutable once emitted — relabel
    (UNION's degenerate form) shares the lists of its input.
    """

    __slots__ = ("label", "src", "dst", "ts", "exp")

    def __init__(
        self,
        label: Label,
        src: list[int],
        dst: list[int],
        ts: list[int],
        exp: list[int],
    ):
        if not (len(src) == len(dst) == len(ts) == len(exp)):
            raise ValueError(
                "column length mismatch: "
                f"src={len(src)} dst={len(dst)} ts={len(ts)} exp={len(exp)}"
            )
        self.label = label
        self.src = src
        self.dst = dst
        self.ts = ts
        self.exp = exp

    def __len__(self) -> int:
        return len(self.src)

    def relabeled(self, label: Label) -> "DeltaColumns":
        """Same rows under a different label (columns shared, zero copy)."""
        return DeltaColumns(label, self.src, self.dst, self.ts, self.exp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeltaColumns [{self.label}] x{len(self.src)}>"


class ColumnBuilder:
    """Append-side buffer for one operator's columnar output.

    Operators that emit while iterating an input batch (PATH expansions,
    join probes) append scalar rows here instead of constructing sgts;
    :meth:`take` converts the buffer into a :class:`DeltaColumns` plus
    the parallel sign list (``None`` while all rows are insertions — the
    hot-path common case, mirroring :class:`~repro.core.batch.DeltaBatch`).
    """

    __slots__ = ("label", "src", "dst", "ts", "exp", "signs")

    def __init__(self, label: Label):
        self.label = label
        self.src: list[int] = []
        self.dst: list[int] = []
        self.ts: list[int] = []
        self.exp: list[int] = []
        #: recorded lazily: stays ``None`` until the first retraction
        #: (the insert-only hot path never touches it)
        self.signs: list[int] | None = None

    def append(self, src: int, dst: int, ts: int, exp: int, sign: int = INSERT) -> None:
        if sign != INSERT and self.signs is None:
            self.signs = [INSERT] * len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self.ts.append(ts)
        self.exp.append(exp)
        if self.signs is not None:
            self.signs.append(sign)

    def __len__(self) -> int:
        return len(self.src)

    def take(self) -> tuple[DeltaColumns, list[int] | None]:
        columns = DeltaColumns(self.label, self.src, self.dst, self.ts, self.exp)
        return columns, self.signs
