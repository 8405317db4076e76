"""Physical PATTERN: a binary tree of pipelined symmetric hash joins
(Section 6.2.2).

A PATTERN over conjuncts ``(S_1: (x_1, y_1)), ..., (S_n: (x_n, y_n))`` is
compiled into a left-deep tree of symmetric hash joins over *variable
bindings* — partial assignments of pattern variables to vertices.  The
construction follows the paper: leaves are the conjunct input streams,
internal nodes are non-blocking pipelined hash joins keyed on the shared
variables, and the join order is the textual order of the conjuncts
(join-order optimization is future work in the paper too).

State maintenance uses the *direct approach*: every stored binding keeps
its validity interval (the intersection of the participating tuples'
intervals), and expired bindings are purged when the watermark advances.
Explicit deletions (negative tuples) are processed exactly like
insertions — remove from the own-side table, probe the other side, and
retract the joined results (Section 6.2.5).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.expiry import TimingWheel
from repro.core.intervals import Interval
from repro.core.tuples import SGT, Label, Vertex
from repro.dataflow.graph import INSERT, Event, PhysicalOperator
from repro.errors import CheckpointError, ExecutionError, PlanError

Schema = tuple[str, ...]
Values = tuple[Vertex, ...]


class Binding:
    """A partial assignment of pattern variables with a validity interval.

    Hand-written ``__slots__`` value class: one is allocated per input
    tuple and per probe match in the join tree's hottest loop.
    """

    __slots__ = ("values", "interval")

    def __init__(self, values: Values, interval: Interval):
        self.values = values
        self.interval = interval

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Binding:
            return (
                self.values == other.values  # type: ignore[union-attr]
                and self.interval == other.interval  # type: ignore[union-attr]
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.values, self.interval))

    def __repr__(self) -> str:
        return f"Binding(values={self.values!r}, interval={self.interval!r})"


class _HashTable:
    """One side of a symmetric hash join: key values → binding multiset.

    Bindings with identical variable values but different intervals are
    kept as separate entries (a multiset of intervals), so an explicit
    deletion can remove exactly the interval its insertion added.
    Expiration is driven by a :class:`~repro.core.expiry.TimingWheel`
    (the direct approach): each window slide pays for the tuples that
    actually expired, not a scan of all state.
    """

    def __init__(self) -> None:
        self._table: dict[Values, dict[Values, list[Interval]]] = defaultdict(dict)
        self._count = 0
        self._expiry = TimingWheel()

    def insert(self, key: Values, values: Values, interval: Interval) -> None:
        group = self._table[key]
        rows = group.get(values)
        if rows is None:
            group[values] = rows = []
        rows.append(interval)
        self._count += 1
        # The wheel entry carries a direct reference to the rows list:
        # eviction removes from it without re-walking the two dict levels.
        exp = interval.exp
        wheel = self._expiry
        bucket = wheel.fine.get(exp)
        if bucket is not None:
            bucket.append((rows, interval, key, values))
        else:
            wheel.schedule(exp, (rows, interval, key, values))

    def insert_many(
        self, rows: "list[tuple[Values, Values, Interval]]"
    ) -> None:
        """Bulk insert without intermediate probes.

        Only sound when nothing needs to observe the table between the
        individual insertions — e.g. rebuilding one side, or loading
        tuples that are known not to join with each other.
        """
        table = self._table
        schedule = self._expiry.schedule
        for key, values, interval in rows:
            entry = table[key].setdefault(values, [])
            entry.append(interval)
            schedule(interval.exp, (entry, interval, key, values))
        self._count += len(rows)

    def remove(self, key: Values, values: Values, interval: Interval) -> bool:
        """Remove one occurrence of (values, interval); False if absent."""
        group = self._table.get(key)
        if not group:
            return False
        rows = group.get(values)
        if not rows:
            return False
        try:
            rows.remove(interval)
        except ValueError:
            return False
        self._count -= 1
        if not rows:
            del group[values]
        if not group:
            del self._table[key]
        return True

    def probe(self, key: Values) -> list[tuple[Values, Interval]]:
        group = self._table.get(key)
        if not group:
            return []
        return [
            (values, interval)
            for values, intervals in group.items()
            for interval in intervals
        ]

    def purge(self, t: int) -> None:
        """Drop bindings whose validity ended at or before ``t``.

        Wheel entries for bindings already removed by explicit deletions
        are stale: their rows list no longer holds the interval (explicit
        removal empties lists before detaching them), so the ``remove``
        below raises and the entry is skipped.
        """
        table = self._table
        for rows, interval, key, values in self._expiry.advance(t):
            try:
                rows.remove(interval)
            except ValueError:
                continue  # stale entry
            self._count -= 1
            if not rows:
                group = table.get(key)
                if group is not None and group.get(values) is rows:
                    del group[values]
                    if not group:
                        del table[key]

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable table + wheel layout.

        Wheel entries hold direct references to rows lists; they are
        encoded as ``(ts, exp, key, values)`` and re-resolved against the
        rebuilt table on restore (an unresolvable entry was stale — its
        binding had already been removed — and restores as a reference to
        an empty placeholder list, which :meth:`purge` skips exactly like
        the live stale entry).
        """
        table = [
            (
                key,
                [
                    (values, [(iv.ts, iv.exp) for iv in rows])
                    for values, rows in group.items()
                ],
            )
            for key, group in self._table.items()
        ]
        wheel = self._expiry.snapshot(
            encode=lambda entry: (
                entry[1].ts,
                entry[1].exp,
                entry[2],
                entry[3],
            )
        )
        return {"table": table, "count": self._count, "wheel": wheel}

    def restore_state(self, state: dict) -> None:
        self._table = defaultdict(dict)
        for key, groups in state["table"]:
            group = self._table[key]
            for values, rows in groups:
                group[values] = [Interval(ts, exp) for ts, exp in rows]
        self._count = state["count"]
        table = self._table

        def decode(entry):
            ts, exp, key, values = entry
            group = table.get(key)
            rows = group.get(values) if group is not None else None
            if rows is None:
                rows = []  # stale entry: purge's remove() skips it
            return (rows, Interval(ts, exp), key, values)

        self._expiry = TimingWheel()
        self._expiry.restore(state["wheel"], decode=decode)


class _Node:
    """A node of the internal join tree; produces bindings upward.

    Bindings travel as bare ``(values, interval)`` arguments — no wrapper
    object is allocated on the per-tuple hot path (:class:`Binding`
    remains as the value type for anyone materializing bindings).
    """

    schema: Schema
    parent: "_JoinNode | None"
    parent_side: int

    def output(self, values: Values, interval: Interval, sign: int) -> None:
        if self.parent is None:
            raise ExecutionError("unrooted join node")
        self.parent.on_binding(self.parent_side, values, interval, sign)


class _LeafNode(_Node):
    """Adapts an sgt stream to bindings over (src_var, trg_var).

    A conjunct with a repeated variable, e.g. ``l(x, x)``, binds a single
    variable and filters non-loop edges.
    """

    def __init__(self, src_var: str, trg_var: str):
        self.src_var = src_var
        self.trg_var = trg_var
        self.loop = src_var == trg_var
        self.schema = (src_var,) if self.loop else (src_var, trg_var)
        self.parent = None
        self.parent_side = 0

    def on_sgt(self, sgt: SGT, sign: int) -> None:
        if self.loop:
            if sgt.src != sgt.trg:
                return
            self.parent.on_binding(
                self.parent_side, (sgt.src,), sgt.interval, sign
            )
        else:
            self.parent.on_binding(
                self.parent_side, (sgt.src, sgt.trg), sgt.interval, sign
            )

    def on_row(self, src: Vertex, trg: Vertex, ts: int, exp: int, sign: int) -> None:
        """Columnar ingress: bind one scalar row without an sgt."""
        if self.loop:
            if src != trg:
                return
            self.parent.on_binding(
                self.parent_side, (src,), Interval(ts, exp), sign
            )
        else:
            self.parent.on_binding(
                self.parent_side, (src, trg), Interval(ts, exp), sign
            )


class _JoinNode(_Node):
    """A pipelined symmetric hash join of two child binding streams."""

    def __init__(self, left: _Node, right: _Node):
        self.left = left
        self.right = right
        left.parent = self
        left.parent_side = 0
        right.parent = self
        right.parent_side = 1

        shared = [v for v in left.schema if v in right.schema]
        self.key_vars = tuple(shared)
        self.schema = left.schema + tuple(
            v for v in right.schema if v not in left.schema
        )
        self._left_key = tuple(left.schema.index(v) for v in shared)
        self._right_key = tuple(right.schema.index(v) for v in shared)
        #: single shared variable (the overwhelmingly common join shape):
        #: the key is one tuple index per side — skip the generic
        #: gather-tuple construction on every binding
        self._left_single = self._left_key[0] if len(self._left_key) == 1 else None
        self._right_single = (
            self._right_key[0] if len(self._right_key) == 1 else None
        )
        # positions in the right child's values that extend the output
        self._right_extend = tuple(
            index
            for index, var in enumerate(right.schema)
            if var not in left.schema
        )
        #: single extension position (the common join shape) — lets
        #: _combine build the output tuple without a generator pass
        self._extend_single = (
            self._right_extend[0] if len(self._right_extend) == 1 else None
        )
        self._tables = (_HashTable(), _HashTable())
        self.parent = None
        self.parent_side = 0
        #: sharded execution: (ctx, exchange_uid, join_index, drop_left,
        #: drop_right) — None when the operator runs unsharded
        self._shard: tuple | None = None

    def on_binding(
        self, side: int, values: Values, interval: Interval, sign: int
    ) -> None:
        if side == 0:
            single = self._left_single
            key = (
                (values[single],)
                if single is not None
                else tuple(values[i] for i in self._left_key)
            )
            own, other = self._tables
        else:
            single = self._right_single
            key = (
                (values[single],)
                if single is not None
                else tuple(values[i] for i in self._right_key)
            )
            other, own = self._tables
        shard = self._shard
        if shard is not None:
            # Sharded execution: this join's state is hash-partitioned by
            # its key.  A binding the local shard does not own is either
            # dropped (leaf input over a *replicated* stream — the owner
            # shard observes its own copy) or exchanged to the owner
            # (join output / leaf over a partitioned stream — this shard
            # holds the only copy).
            ctx, uid, index, drop_left, drop_right = shard
            dest = ctx.owner_of_key(key)
            if dest != ctx.shard_id:
                if drop_left if side == 0 else drop_right:
                    return
                ctx.send(
                    dest,
                    uid,
                    (index, side, values, interval.ts, interval.exp, sign),
                )
                return
        if sign == INSERT:
            own.insert(key, values, interval)
        else:
            if not own.remove(key, values, interval):
                # Retraction of a tuple this operator never stored (it may
                # have expired already); nothing joined with it remains.
                return
        group = other._table.get(key)
        if not group:
            return
        parent = self.parent
        parent_side = self.parent_side
        ts = interval.ts
        exp = interval.exp
        for other_values, intervals in group.items():
            if side == 0:
                joined_values = self._combine(values, other_values)
            else:
                joined_values = self._combine(other_values, values)
            for other_interval in intervals:
                # Inlined Interval.intersect: no call (and no allocation)
                # for the disjoint pairs.
                other_ts = other_interval.ts
                joined_ts = ts if ts >= other_ts else other_ts
                other_exp = other_interval.exp
                joined_exp = exp if exp <= other_exp else other_exp
                if joined_ts < joined_exp:
                    parent.on_binding(
                        parent_side,
                        joined_values,
                        Interval(joined_ts, joined_exp),
                        sign,
                    )

    def _combine(self, left_values: Values, right_values: Values) -> Values:
        single = self._extend_single
        if single is not None:
            return left_values + (right_values[single],)
        return left_values + tuple(right_values[i] for i in self._right_extend)

    def purge(self, t: int) -> None:
        self._tables[0].purge(t)
        self._tables[1].purge(t)

    def state_size(self) -> int:
        return len(self._tables[0]) + len(self._tables[1])


class PatternOp(PhysicalOperator):
    """PATTERN as one dataflow vertex wrapping the internal join tree.

    Port ``i`` carries the stream of the ``i``-th conjunct.  The output is
    an sgt stream labeled ``out_label`` with endpoints taken from the
    bindings of ``src_var`` / ``trg_var`` and validity equal to the
    intersection of the participating tuples' intervals (Definition 19).
    """

    def __init__(
        self,
        conjunct_vars: list[tuple[str, str]],
        src_var: str,
        trg_var: str,
        out_label: Label,
    ):
        super().__init__(f"pattern[{out_label}]")
        if not conjunct_vars:
            raise PlanError("PATTERN requires at least one conjunct")
        self.out_label = out_label
        self._leaves = [_LeafNode(src, trg) for src, trg in conjunct_vars]
        self._joins: list[_JoinNode] = []

        root: _Node = self._leaves[0]
        for leaf in self._leaves[1:]:
            join = _JoinNode(root, leaf)
            self._joins.append(join)
            root = join
        self._root = root
        root.parent = _ResultAdapter(self, root.schema, src_var, trg_var, out_label)  # type: ignore[assignment]
        root.parent_side = 0
        #: set by configure_shard; recorded in checkpoints
        self._sharded = False

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------
    def configure_shard(
        self, ctx, uid: int, port_replicated: list[bool]
    ) -> None:
        """Partition the internal join tree across shards.

        Every internal symmetric hash join stores and probes a binding
        only on the shard owning the binding's join key.  How a
        non-owned binding is handled depends on where it came from:

        * a *leaf* over a **replicated** input stream (``port_replicated
          [i]`` true): dropped — the owner shard sees its own copy;
        * a *leaf* over a **partitioned** stream, or an inner join's
          output (which exists on exactly one shard): exchanged to the
          owner via the shard context.

        ``uid`` registers this operator as the exchange endpoint; the
        compiler assigns the same uid on every shard.
        """
        if not self._joins:
            return  # single conjunct: no keys to partition
        self._sharded = True
        ctx.register(uid, self)
        for index, join in enumerate(self._joins):
            drop_left = port_replicated[0] if index == 0 else False
            drop_right = port_replicated[index + 1]
            join._shard = (ctx, uid, index, drop_left, drop_right)

    def receive_exchange(self, payload: tuple) -> None:
        """Deliver one exchanged binding into the owning join node."""
        index, side, values, ts, exp, sign = payload
        self._joins[index].on_binding(side, values, Interval(ts, exp), sign)

    def on_event(self, port: int, event: Event) -> None:
        try:
            leaf = self._leaves[port]
        except IndexError as exc:
            raise ExecutionError(f"{self.name}: no conjunct on port {port}") from exc
        # Inlined leaf.on_sgt: this is the per-event ingress of every
        # pattern conjunct, one call frame saved per tuple.
        sgt = event.sgt
        if leaf.loop:
            if sgt.src != sgt.trg:
                return
            leaf.parent.on_binding(
                leaf.parent_side, (sgt.src,), sgt.interval, event.sign
            )
        else:
            leaf.parent.on_binding(
                leaf.parent_side, (sgt.src, sgt.trg), sgt.interval, event.sign
            )

    def on_batch(self, port: int, batch) -> None:
        """Batched ingestion of one conjunct's deltas.

        Symmetric hash joins are insert-and-probe: each tuple must see
        the state left by the tuples before it (two joining tuples in
        the same batch produce their result exactly once this way), so
        the loop stays per tuple.  The batch amortizes everything around
        it: port/leaf resolution happens once, join results are captured
        without Event wrappers, and downstream receives one batch.

        A columnar batch is consumed column-at-a-time: bindings are built
        straight from the scalar rows, and the join results are captured
        as columns too (join outputs are label-constant and payload-free,
        so nothing is lost).
        """
        try:
            leaf = self._leaves[port]
        except IndexError as exc:
            raise ExecutionError(f"{self.name}: no conjunct on port {port}") from exc
        cols = batch.columns
        if cols is not None:
            self._begin_batch_cols(self.out_label)
            try:
                on_row = leaf.on_row
                signs = batch.signs
                src, dst, ts, exp = cols.src, cols.dst, cols.ts, cols.exp
                if signs is None:
                    for i in range(len(src)):
                        on_row(src[i], dst[i], ts[i], exp[i], INSERT)
                else:
                    for i in range(len(src)):
                        on_row(src[i], dst[i], ts[i], exp[i], signs[i])
            finally:
                self._end_batch_cols(batch.boundary)
            return
        self._begin_batch()
        try:
            on_sgt = leaf.on_sgt
            signs = batch.signs
            if signs is None:
                for sgt in batch.sgts:
                    on_sgt(sgt, INSERT)
            else:
                for sgt, sign in zip(batch.sgts, signs):
                    on_sgt(sgt, sign)
        finally:
            self._end_batch(batch.boundary)

    def on_advance(self, t: int) -> None:
        for join in self._joins:
            join.purge(t)

    def state_size(self) -> int:
        return sum(join.state_size() for join in self._joins)

    def state_breakdown(self) -> dict:
        rows = self.state_size()
        # Estimate: one stored binding ≈ values tuple + Interval + dict /
        # list slots + one wheel entry (4-tuple).
        return {"rows": rows, "bytes": rows * 176}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "kind": "pattern",
            "partitioned": self._sharded,
            "joins": [
                [
                    join._tables[0].snapshot_state(),
                    join._tables[1].snapshot_state(),
                ]
                for join in self._joins
            ],
        }

    def restore_state(self, state: dict) -> None:
        joins = state["joins"]
        if state.get("kind") != "pattern" or len(joins) != len(self._joins):
            raise CheckpointError(
                f"{self.name}: blob does not match this operator "
                f"(kind={state.get('kind')!r}, "
                f"{len(joins)} joins for {len(self._joins)})"
            )
        for join, (left, right) in zip(self._joins, joins):
            join._tables[0].restore_state(left)
            join._tables[1].restore_state(right)


class _ResultAdapter:
    """Projects root bindings to output sgts and emits them."""

    def __init__(
        self,
        op: PatternOp,
        schema: Schema,
        src_var: str,
        trg_var: str,
        out_label: Label,
    ):
        self._op = op
        if src_var not in schema or trg_var not in schema:
            raise PlanError(
                f"output variables ({src_var}, {trg_var}) not in schema {schema}"
            )
        self._src_index = schema.index(src_var)
        self._trg_index = schema.index(trg_var)
        self._label = out_label

    def on_binding(
        self, side: int, values: Values, interval: Interval, sign: int
    ) -> None:
        src = values[self._src_index]
        trg = values[self._trg_index]
        op = self._op
        cols = op._capture_cols
        if cols is not None:
            cols.append(src, trg, interval.ts, interval.exp, sign)
            return
        op.emit_sgt(SGT(src, trg, self._label, interval), sign)
