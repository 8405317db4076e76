"""Dictionary encoding of vertices (and any hashable values) as dense ids.

The hot path of every stateful operator is dictionary traffic keyed on
vertices: adjacency maps, join tables, spanning-tree node keys.  The
benchmark streams (and real graph workloads) carry structured vertex
values — ``("P", 42)`` tuples, strings — whose hashing and equality cost
is paid again on every operator hop.  An :class:`Interner` assigns each
distinct value a dense ``int`` id at stream ingress; ids flow through the
operators (small-int hashing is a single machine word, and dense ids are
what lets :mod:`repro.core.columns` hold tuples as parallel scalar
columns), and are decoded back to the original values only at result
sinks and ``explain`` — never inside the dataflow.

Interning is a bijection, so equality and hashing over ids agree exactly
with equality and hashing over the original values; golden tests hold
the decoded results to the snapshot oracle of
:mod:`repro.algebra.reference`, which never interns.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.tuples import SGT, EdgePayload, PathPayload
from repro.dataflow.graph import Event
from repro.errors import DecodeError


class Interner:
    """A bijective value ⇄ dense-int dictionary (append-only).

    ``intern`` is the hot direction (one dict lookup); ``value`` is the
    cold decode used by result readers.  Ids are assigned contiguously
    from 0 in first-seen order, so they can index parallel arrays.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, assigning the next dense id if unseen."""
        ids = self._ids
        found = ids.get(value)
        if found is not None:
            return found
        assigned = len(self._values)
        ids[value] = assigned
        self._values.append(value)
        return assigned

    def intern_many(self, values: Iterable[Hashable]) -> list[int]:
        intern = self.intern
        return [intern(v) for v in values]

    def intern_edges(
        self, edges: Iterable
    ) -> tuple[list[int], list[int], list[int]]:
        """Bulk intern one ingress run: ``(src_ids, dst_ids, ts)`` columns.

        Inlining the id-map access here (one bound-method call per *run*
        instead of two per edge) saves ~2 dict ops of Python call
        overhead per edge against :meth:`intern`.  Semantics are identical
        to calling :meth:`intern` per endpoint in stream order, so id
        assignment order — and therefore every downstream golden —
        is unchanged.
        """
        ids = self._ids
        values = self._values
        src_ids: list[int] = []
        dst_ids: list[int] = []
        ts: list[int] = []
        for edge in edges:
            for value, out in ((edge.src, src_ids), (edge.trg, dst_ids)):
                found = ids.get(value)
                if found is None:
                    found = len(values)
                    ids[value] = found
                    values.append(value)
                out.append(found)
            ts.append(edge.t)
        return src_ids, dst_ids, ts

    def value(self, ident: int) -> Hashable:
        """The original value of a previously assigned id.

        Raises
        ------
        DecodeError
            If ``ident`` was never assigned by this interner (negative,
            out of range, or not an int — e.g. an id from a different
            engine instance).  Without the check a negative id would
            silently decode to the *wrong* value via Python's negative
            indexing.
        """
        values = self._values
        if type(ident) is not int or not 0 <= ident < len(values):
            raise DecodeError(ident)
        return values[ident]

    def id_of(self, value: Hashable) -> int | None:
        """The id of ``value`` if already interned, else ``None``."""
        return self._ids.get(value)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interner {len(self)} values>"

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> list:
        """The dictionary in id order (the id map is derivable)."""
        return list(self._values)

    def restore_state(self, values: list) -> None:
        """Rebuild the bijection; re-interning any captured value yields
        exactly the id it had when the snapshot was taken."""
        self._values = list(values)
        self._ids = {value: ident for ident, value in enumerate(self._values)}

    # ------------------------------------------------------------------
    # Decoding (result-sink surface)
    # ------------------------------------------------------------------
    def decode_sgt(self, sgt: SGT) -> SGT:
        """An equal sgt with vertex ids replaced by their original values.

        Payloads are decoded too: a materialized path's hops carry vertex
        ids inside the dataflow, and requirement R3 (paths as data) means
        they are user-visible.  Ids unknown to this interner — including
        negative or non-int values, which raw list indexing would decode
        to the *wrong* value or crash on — raise
        :class:`~repro.errors.DecodeError` naming the offending id.
        This is a read surface (results are decoded once, at pull time),
        so the per-id bounds check is off the streaming hot path.
        """
        value = self.value
        payload = sgt.payload
        if payload.__class__ is PathPayload:
            decoded_payload: EdgePayload | PathPayload = PathPayload(
                tuple(
                    EdgePayload(value(hop.src), value(hop.trg), hop.label)
                    for hop in payload.hops
                )
            )
        else:
            decoded_payload = EdgePayload(
                value(payload.src), value(payload.trg), payload.label
            )
        return SGT(
            value(sgt.src),
            value(sgt.trg),
            sgt.label,
            sgt.interval,
            decoded_payload,
        )

    def decode_event(self, event: Event) -> Event:
        return Event(self.decode_sgt(event.sgt), event.sign)

    def decode_key(self, key: tuple) -> tuple:
        """Decode a ``(src, trg, label)`` result key.

        Raises :class:`~repro.errors.DecodeError` for ids this interner
        never assigned.
        """
        return (self.value(key[0]), self.value(key[1]), key[2])


def intern_plan(plan, interner: Interner):
    """Rewrite a logical plan's vertex-valued predicate constants to ids.

    Operators evaluate predicates against dense ids, so a predicate like
    ``src == "alice"`` must compare against ``intern("alice")``.  Labels
    are untouched (they are not interned — batches are label-constant, so
    labels flow as themselves).
    The rewritten plan is what the engine compiles; the original plan
    stays on the query handle for ``explain``.
    """
    import dataclasses

    from repro.algebra.operators import (
        Filter,
        Path,
        Pattern,
        Predicate,
        Relabel,
        Union,
        WScan,
    )

    def map_predicate(predicate):
        if predicate is None:
            return None
        conditions = tuple(
            (attribute, op, interner.intern(value))
            if attribute in ("src", "trg")
            else (attribute, op, value)
            for attribute, op, value in predicate.conditions
        )
        if conditions == predicate.conditions:
            return predicate
        return Predicate(conditions)

    def rec(node):
        if isinstance(node, WScan):
            prefilter = map_predicate(node.prefilter)
            if prefilter is node.prefilter:
                return node
            return dataclasses.replace(node, prefilter=prefilter)
        if isinstance(node, Filter):
            return Filter(rec(node.child), map_predicate(node.predicate))
        if isinstance(node, Relabel):
            return Relabel(rec(node.child), node.label)
        if isinstance(node, Union):
            return Union(rec(node.left), rec(node.right), node.label)
        if isinstance(node, Pattern):
            return dataclasses.replace(
                node,
                inputs=tuple(
                    dataclasses.replace(c, plan=rec(c.plan))
                    for c in node.inputs
                ),
            )
        if isinstance(node, Path):
            return dataclasses.replace(
                node,
                inputs=tuple((label, rec(child)) for label, child in node.inputs),
            )
        return node

    return rec(plan)
