"""Δ-PATH: spanning-forest state for streaming path navigation
(Definitions 21-22).

The index maintains, per root vertex ``x``, a spanning tree ``T_x`` over
*(vertex, automaton-state)* pairs: ``(u, s)`` is in ``T_x`` at time ``t``
when the snapshot graph contains a path from ``x`` to ``u`` whose label
word drives the DFA from its start state to ``s``.  Each node stores the
validity interval of the *best* (latest-expiring) such path; following
parent pointers reconstructs the actual path, which is how PATH returns
materialized paths as first-class citizens.

The module also provides:

* :class:`WindowAdjacency` — the windowed snapshot graph of the operator's
  inputs (intervals included) with lazy expiry;
* :func:`repair_nodes` — the Dijkstra-style max-expiry re-derivation used
  for explicit deletions (Section 6.2.5) and, by the negative-tuple
  operator, for window expirations.

Both PATH physical operators build on these structures; they differ only
in their maintenance policies (see :mod:`repro.physical.spath` and
:mod:`repro.physical.rpq_negative`).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Callable

from repro.core.columns import INSERT
from repro.core.expiry import TimingWheel
from repro.core.intervals import FOREVER, Interval
from repro.core.tuples import EdgePayload, Label, PathPayload, Vertex
from repro.errors import ExecutionError
from repro.regex.dfa import DFA

NodeKey = tuple[Vertex, int]


class TreeNode:
    """A node of a spanning tree: the best path from the root to a
    (vertex, state) pair.

    ``children`` is an insertion-ordered dict used as a set: removal
    and repair traversals iterate it, and restoring a checkpoint must
    reproduce that iteration order exactly (a rebuilt ``set``'s order
    depends on its hash-table history, which a restore cannot replay).
    """

    __slots__ = ("ts", "exp", "parent", "via_label", "children")

    def __init__(
        self,
        ts: int,
        exp: int,
        parent: NodeKey | None,
        via_label: Label | None,
    ):
        self.ts = ts
        self.exp = exp
        self.parent = parent
        self.via_label = via_label
        self.children: dict[NodeKey, None] = {}


class SpanningTree:
    """Spanning tree ``T_x`` rooted at ``(x, start_state)`` (Definition 21)."""

    def __init__(self, root_vertex: Vertex, start_state: int):
        self.root_vertex = root_vertex
        self.root: NodeKey = (root_vertex, start_state)
        # The root is a zero-length path: always valid, never expiring.
        self.nodes: dict[NodeKey, TreeNode] = {
            self.root: TreeNode(ts=0, exp=FOREVER, parent=None, via_label=None)
        }

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.nodes

    def get(self, key: NodeKey) -> TreeNode | None:
        return self.nodes.get(key)

    def add_child(
        self,
        parent_key: NodeKey,
        child_key: NodeKey,
        ts: int,
        exp: int,
        via_label: Label,
    ) -> TreeNode:
        if child_key in self.nodes:
            raise ExecutionError(f"node {child_key} already in tree {self.root}")
        parent = self.nodes[parent_key]
        node = TreeNode(ts, exp, parent_key, via_label)
        self.nodes[child_key] = node
        parent.children[child_key] = None
        return node

    def reparent(
        self, child_key: NodeKey, new_parent_key: NodeKey, via_label: Label
    ) -> None:
        node = self.nodes[child_key]
        if node.parent is not None:
            old_parent = self.nodes.get(node.parent)
            if old_parent is not None:
                old_parent.children.pop(child_key, None)
        node.parent = new_parent_key
        node.via_label = via_label
        self.nodes[new_parent_key].children[child_key] = None

    def remove_subtree(self, key: NodeKey) -> list[tuple[NodeKey, TreeNode]]:
        """Detach and remove ``key`` and all its descendants.

        Returns the removed (key, node) pairs so callers can unregister
        them from the inverted index and emit retractions.
        """
        root_node = self.nodes.get(key)
        if root_node is None:
            return []
        if key == self.root:
            raise ExecutionError("cannot remove the root of a spanning tree")
        if root_node.parent is not None:
            parent = self.nodes.get(root_node.parent)
            if parent is not None:
                parent.children.pop(key, None)
        removed: list[tuple[NodeKey, TreeNode]] = []
        stack = [key]
        while stack:
            current = stack.pop()
            node = self.nodes.pop(current, None)
            if node is None:
                continue
            removed.append((current, node))
            stack.extend(node.children)
        return removed

    def path_to(self, key: NodeKey) -> PathPayload:
        """Materialize the path from the root to ``key`` (parent walk)."""
        hops: list[EdgePayload] = []
        current = key
        while True:
            node = self.nodes[current]
            if node.parent is None:
                break
            assert node.via_label is not None
            hops.append(EdgePayload(node.parent[0], current[0], node.via_label))
            current = node.parent
        hops.reverse()
        return PathPayload(tuple(hops))

    def size(self) -> int:
        return len(self.nodes)


class DeltaPathIndex:
    """The forest of spanning trees plus the hash-based inverted index
    from (vertex, state) pairs to the trees containing them
    (Definition 22)."""

    def __init__(self, start_state: int):
        self.start_state = start_state
        self.trees: dict[Vertex, SpanningTree] = {}
        # Insertion-ordered dict-as-set per key, for the same restore-
        # determinism reason as ``TreeNode.children``.
        self._inverted: dict[NodeKey, dict[Vertex, None]] = defaultdict(dict)

    def tree(self, root_vertex: Vertex) -> SpanningTree | None:
        return self.trees.get(root_vertex)

    def ensure_tree(self, root_vertex: Vertex) -> SpanningTree:
        tree = self.trees.get(root_vertex)
        if tree is None:
            tree = SpanningTree(root_vertex, self.start_state)
            self.trees[root_vertex] = tree
            self.register(root_vertex, tree.root)
        return tree

    def register(self, root_vertex: Vertex, key: NodeKey) -> None:
        self._inverted[key][root_vertex] = None

    def unregister(self, root_vertex: Vertex, key: NodeKey) -> None:
        roots = self._inverted.get(key)
        if roots is not None:
            roots.pop(root_vertex, None)
            if not roots:
                del self._inverted[key]

    def roots_containing(self, key: NodeKey) -> tuple[Vertex, ...]:
        return tuple(self._inverted.get(key, ()))

    def drop_tree_if_trivial(self, root_vertex: Vertex) -> None:
        tree = self.trees.get(root_vertex)
        if tree is not None and tree.size() == 1:
            self.unregister(root_vertex, tree.root)
            del self.trees[root_vertex]

    def state_size(self) -> int:
        return sum(tree.size() for tree in self.trees.values())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable forest: per tree, nodes in dict (insertion)
        order with children captured in their own insertion order.

        Both orders matter for bit-identical resume: subtree removal and
        repair traverse ``children``, and ``roots_containing`` iterates
        the inverted index's entries.  Because every container here is
        an insertion-ordered dict, re-inserting the captured sequence
        reproduces the live engine's iteration order exactly.
        """
        trees = []
        for root_vertex, tree in self.trees.items():
            nodes = [
                (key, node.ts, node.exp, node.parent, node.via_label,
                 list(node.children))
                for key, node in tree.nodes.items()
            ]
            trees.append((root_vertex, nodes))
        inverted = [
            (key, list(roots)) for key, roots in self._inverted.items()
        ]
        return {
            "start_state": self.start_state,
            "trees": trees,
            "inverted": inverted,
        }

    def restore_state(self, state: dict) -> None:
        self.start_state = state["start_state"]
        self.trees = {}
        for root_vertex, nodes in state["trees"]:
            tree = SpanningTree(root_vertex, self.start_state)
            tree.nodes = {}
            for key, ts, exp, parent, via_label, children in nodes:
                node = TreeNode(ts, exp, parent, via_label)
                node.children = dict.fromkeys(
                    tuple(child) for child in children
                )
                tree.nodes[key] = node
            self.trees[root_vertex] = tree
        self._inverted = defaultdict(dict)
        for key, roots in state["inverted"]:
            self._inverted[tuple(key)] = dict.fromkeys(roots)


class WindowAdjacency:
    """The windowed snapshot graph of a PATH operator's inputs.

    Stores, per directed labeled edge, the multiset of validity intervals
    currently known (parallel re-insertions of the same edge keep separate
    intervals so explicit deletions can remove exactly one occurrence).
    Expired intervals are purged through a
    :class:`~repro.core.expiry.TimingWheel` keyed on expiry instant, so
    each purge touches only the edges that actually expired.
    """

    def __init__(self) -> None:
        self._out: dict[Vertex, dict[tuple[Label, Vertex], list[Interval]]] = (
            defaultdict(dict)
        )
        self._in: dict[Vertex, dict[tuple[Label, Vertex], list[Interval]]] = (
            defaultdict(dict)
        )
        self._expiry = TimingWheel()
        self._size = 0

    def add(self, u: Vertex, v: Vertex, label: Label, interval: Interval) -> None:
        out_group = self._out[u]
        out_key = (label, v)
        rows = out_group.get(out_key)
        if rows is None:
            out_group[out_key] = rows = []
        rows.append(interval)
        in_group = self._in[v]
        in_key = (label, u)
        rows = in_group.get(in_key)
        if rows is None:
            in_group[in_key] = rows = []
        rows.append(interval)
        self._size += 1
        exp = interval.exp
        wheel = self._expiry
        bucket = wheel.fine.get(exp)
        if bucket is not None:
            bucket.append((u, label, v))
        else:
            wheel.schedule(exp, (u, label, v))

    def add_many(
        self, edges: "list[tuple[Vertex, Vertex, Label, Interval]]"
    ) -> None:
        """Bulk insert a batch of windowed edges.

        Only sound when nothing traverses the snapshot graph between the
        individual insertions (the PATH operators' Expand traversals do,
        so their batch handlers ingest per edge; bulk loading is for
        state rebuilds and pre-windowed replays).
        """
        out = self._out
        inn = self._in
        schedule = self._expiry.schedule
        for u, v, label, interval in edges:
            out[u].setdefault((label, v), []).append(interval)
            inn[v].setdefault((label, u), []).append(interval)
            schedule(interval.exp, (u, label, v))
        self._size += len(edges)

    def remove(self, u: Vertex, v: Vertex, label: Label, interval: Interval) -> bool:
        """Remove one occurrence of the exact interval; False when absent."""
        out_rows = self._out.get(u, {}).get((label, v))
        if not out_rows or interval not in out_rows:
            return False
        out_rows.remove(interval)
        if not out_rows:
            del self._out[u][(label, v)]
        in_rows = self._in[v][(label, u)]
        in_rows.remove(interval)
        if not in_rows:
            del self._in[v][(label, u)]
        self._size -= 1
        return True

    def out_group(self, u: Vertex) -> "dict[tuple[Label, Vertex], list[Interval]] | None":
        """Raw ``(label, v) -> intervals`` out-group (hot-path view).

        Traversal loops iterate this directly and pick the valid
        max-expiry interval inline — skipping the per-call result-list
        construction of :meth:`out_edges`, and skipping the interval scan
        entirely for neighbors whose label has no DFA transition.
        """
        return self._out.get(u)

    def in_group(self, v: Vertex) -> "dict[tuple[Label, Vertex], list[Interval]] | None":
        """Raw ``(label, u) -> intervals`` in-group (hot-path view)."""
        return self._in.get(v)

    def out_edges(self, u: Vertex, now: int) -> list[tuple[Label, Vertex, Interval]]:
        """Edges leaving ``u`` that are valid at instant ``now``.

        When parallel occurrences are simultaneously valid, the one with
        the largest expiry is reported (the coalesce aggregation S-PATH
        builds on).  Returns a list (not a generator): this sits inside
        the Expand/repair traversal loops, where generator resumption
        overhead is measurable.
        """
        group = self._out.get(u)
        result: list[tuple[Label, Vertex, Interval]] = []
        if not group:
            return result
        append = result.append
        for (label, v), intervals in group.items():
            best: Interval | None = None
            best_exp = now
            for interval in intervals:
                exp = interval.exp
                if exp > best_exp and interval.ts <= now:
                    best = interval
                    best_exp = exp
            if best is not None:
                append((label, v, best))
        return result

    def in_edges(self, v: Vertex, now: int) -> list[tuple[Label, Vertex, Interval]]:
        """Edges entering ``v`` valid at ``now`` (largest expiry per edge)."""
        group = self._in.get(v)
        result: list[tuple[Label, Vertex, Interval]] = []
        if not group:
            return result
        append = result.append
        for (label, u), intervals in group.items():
            best: Interval | None = None
            best_exp = now
            for interval in intervals:
                exp = interval.exp
                if exp > best_exp and interval.ts <= now:
                    best = interval
                    best_exp = exp
            if best is not None:
                append((label, u, best))
        return result

    def purge(self, t: int) -> None:
        """Drop every interval with ``exp <= t`` (wheel-driven: work is
        proportional to the entries that expired).  Parallel occurrences
        of one edge schedule one entry each; the dedup avoids re-filtering
        the same interval list per occurrence."""
        drained = self._expiry.advance(t)
        for u, label, v in drained if len(drained) < 2 else set(drained):
            out_rows = self._out.get(u, {}).get((label, v))
            if not out_rows:
                continue
            kept = [iv for iv in out_rows if iv.exp > t]
            dropped = len(out_rows) - len(kept)
            if dropped == 0:
                continue
            self._size -= dropped
            if kept:
                self._out[u][(label, v)] = kept
                self._in[v][(label, u)] = list(kept)
            else:
                del self._out[u][(label, v)]
                del self._in[v][(label, u)]

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable snapshot (both directions captured explicitly so
        per-list interval order — which drives max-expiry tie-breaks —
        survives verbatim)."""

        def encode(index):
            return [
                (
                    vertex,
                    [
                        (label, other, [(iv.ts, iv.exp) for iv in rows])
                        for (label, other), rows in groups.items()
                    ],
                )
                for vertex, groups in index.items()
            ]

        return {
            "out": encode(self._out),
            "in": encode(self._in),
            "wheel": self._expiry.snapshot(),
            "size": self._size,
        }

    def restore_state(self, state: dict) -> None:
        def decode(entries):
            index: dict = defaultdict(dict)
            for vertex, groups in entries:
                group = index[vertex]
                for label, other, rows in groups:
                    group[(label, other)] = [
                        Interval(ts, exp) for ts, exp in rows
                    ]
            return index

        self._out = decode(state["out"])
        self._in = decode(state["in"])
        self._expiry = TimingWheel()
        self._expiry.restore(state["wheel"])
        self._size = state["size"]


class ColumnarPathIngest:
    """Columnar ingestion shared by the two PATH operators.

    Mixed into :class:`~repro.dataflow.graph.PhysicalOperator`
    subclasses that provide ``_insert`` / ``_delete``,
    ``materialize_paths``, ``out_label`` and a ``_node_expiry``
    :class:`~repro.core.expiry.TimingWheel` — one copy of the
    column-at-a-time loop and the expiry scheduling, so the
    negative-tuple and S-PATH operators cannot silently diverge.
    """

    def _ingest_columns(self, batch, label: Label) -> None:
        """Consume one columnar batch in arrival order.

        One :class:`~repro.core.intervals.Interval` is allocated per
        edge (the adjacency stores it anyway); with path
        materialization off, results are captured as scalar columns,
        otherwise they stay rows (payloads cannot travel in columns).
        """
        if not self.materialize_paths:
            self._begin_batch_cols(self.out_label)
            try:
                self._consume_columns(batch.columns, batch.signs, label)
            finally:
                self._end_batch_cols(batch.boundary)
        else:
            self._begin_batch()
            try:
                self._consume_columns(batch.columns, batch.signs, label)
            finally:
                self._end_batch(batch.boundary)

    def _consume_columns(self, cols, signs, label: Label) -> None:
        # PATH expansion is order-sensitive (the expand-only operator
        # keeps the first derivation): rows are consumed in arrival order.
        src, dst, ts, exp = cols.src, cols.dst, cols.ts, cols.exp
        if signs is None:
            insert = self._insert
            for i in range(len(src)):
                insert(src[i], dst[i], label, Interval(ts[i], exp[i]))
        else:
            for i in range(len(src)):
                if signs[i] == INSERT:
                    self._insert(src[i], dst[i], label, Interval(ts[i], exp[i]))
                else:
                    self._delete(src[i], dst[i], label, Interval(ts[i], exp[i]))

    def _schedule_expiry(self, root, key: NodeKey, exp: int) -> None:
        wheel = self._node_expiry
        bucket = wheel.fine.get(exp)
        if bucket is not None:
            bucket.append((root, key))
        else:
            wheel.schedule(exp, (root, key))


def new_maintenance_counters() -> dict:
    """Window-maintenance counters kept by both PATH operators.

    Pure counts (never timings) so tests can gate on them
    deterministically: the negative-tuple operator runs at most one
    grouped repair per affected tree per window boundary
    (``rederive_passes <= rederive_trees``), with ``expired_nodes``
    recording how many per-node repairs the grouping replaced.  S-PATH's
    direct approach runs no boundary repairs, so its ``rederive_*``
    counters stay zero by construction.
    """
    return {
        "boundaries": 0,  # advances that found at least one expired node
        "drained_entries": 0,  # wheel entries drained (incl. stale)
        "expired_nodes": 0,  # distinct nodes confirmed expired
        "rederive_trees": 0,  # trees with >= 1 expired node
        "rederive_passes": 0,  # repair traversals actually run
    }


def reverse_transitions(dfa: DFA) -> dict[tuple[Label, int], list[int]]:
    """Map (label, target_state) → source states; used by repairs."""
    reverse: dict[tuple[Label, int], list[int]] = defaultdict(list)
    for source, by_label in dfa.transitions.items():
        for label, target in by_label.items():
            reverse[(label, target)].append(source)
    return reverse


def repair_nodes(
    tree: SpanningTree,
    marked: set[NodeKey],
    adjacency: WindowAdjacency,
    dfa: DFA,
    reverse: dict[tuple[Label, int], list[int]],
    now: int,
    on_fix: Callable[[NodeKey, TreeNode], None],
    on_remove: Callable[[NodeKey, TreeNode], None],
) -> None:
    """Re-derive marked nodes with their max-expiry alternative paths.

    The classical delete–re-derive step (DRed / Section 6.2.5): every
    marked node lost its tree derivation; a Dijkstra-style expansion over
    the remaining snapshot graph finds, for each, the alternative path
    with the largest expiry valid at ``now``.  Nodes that are fixed are
    reparented in place (``on_fix``); nodes with no valid alternative are
    removed from the tree (``on_remove`` runs before detachment).

    Processing candidates in decreasing expiry order guarantees that when
    a node is fixed, its recorded expiry is final — exactly Dijkstra's
    argument with ``min`` along paths and ``max`` at merges.

    A node fixed in this pass is *settled*: its expiry is final, so any
    further candidate for it is dead weight.  The ``settled`` set and the
    per-node best-pushed-expiry guard keep such candidates out of the
    heap — without the guard a diamond-shaped snapshot graph pushes one
    candidate per alternative parent and re-pops them all after the node
    has already been re-derived.  Strictly-worse candidates are safe to
    drop: the heap pops higher expiries first and a pushed candidate's
    parent stays valid for the whole pass (removals happen only after the
    heap drains), so the best pushed candidate always wins.  Equal-expiry
    candidates are kept — the ``ts`` tiebreak decides between them.
    """
    if not marked:
        return

    # Max-heap of candidate derivations: (-exp, ts, child, parent, label).
    heap: list[tuple[int, int, NodeKey, NodeKey, Label]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    nodes_get = tree.nodes.get
    reverse_get = reverse.get
    in_group = adjacency.in_group
    out_group = adjacency.out_group
    root = tree.root
    settled: set[NodeKey] = set()
    best_exp: dict[NodeKey, int] = {}

    def push_candidates(child_key: NodeKey) -> None:
        vertex, state = child_key
        group = in_group(vertex)
        if not group:
            return
        for (label, prev_vertex), intervals in group.items():
            states = reverse_get((label, state))
            if not states:
                continue
            # Best (max-expiry) interval valid at `now`, inline.
            interval = None
            interval_exp = now
            for candidate in intervals:
                exp = candidate.exp
                if exp > interval_exp and candidate.ts <= now:
                    interval = candidate
                    interval_exp = exp
            if interval is None:
                continue
            for prev_state in states:
                parent_key = (prev_vertex, prev_state)
                if parent_key in marked or parent_key == child_key:
                    continue
                parent = nodes_get(parent_key)
                if parent is None or (parent.exp <= now and parent_key != root):
                    continue
                exp = parent.exp
                if interval.exp < exp:
                    exp = interval.exp
                if exp > now:
                    recorded = best_exp.get(child_key, now)
                    if exp < recorded:
                        continue  # a better candidate is already queued
                    best_exp[child_key] = exp
                    ts = max(parent.ts, interval.ts)
                    heappush(heap, (-exp, ts, child_key, parent_key, label))

    for key in marked:
        push_candidates(key)

    dfa_delta = dfa.delta
    while heap:
        neg_exp, ts, child_key, parent_key, label = heappop(heap)
        if child_key in settled or child_key not in marked:
            continue  # already fixed by a better candidate
        parent = nodes_get(parent_key)
        if parent is None or parent_key in marked:
            continue
        exp = -neg_exp
        node = tree.nodes[child_key]
        tree.reparent(child_key, parent_key, label)
        node.ts = ts
        node.exp = exp
        marked.discard(child_key)
        settled.add(child_key)
        on_fix(child_key, node)
        # Relax: the fixed node may now be the best parent for marked
        # neighbours downstream.
        vertex, state = child_key
        group = out_group(vertex)
        if not group:
            continue
        for (out_label, next_vertex), intervals in group.items():
            next_state = dfa_delta(state, out_label)
            if next_state is None:
                continue
            next_key = (next_vertex, next_state)
            if next_key in settled or next_key not in marked:
                continue
            interval = None
            interval_exp = now
            for candidate in intervals:
                candidate_exp = candidate.exp
                if candidate_exp > interval_exp and candidate.ts <= now:
                    interval = candidate
                    interval_exp = candidate_exp
            if interval is None:
                continue
            next_exp = exp
            if interval.exp < next_exp:
                next_exp = interval.exp
            if next_exp > now:
                recorded = best_exp.get(next_key, now)
                if next_exp < recorded:
                    continue  # a better candidate is already queued
                best_exp[next_key] = next_exp
                heappush(
                    heap,
                    (-next_exp, max(ts, interval.ts), next_key, child_key, out_label),
                )

    for key in list(marked):
        node = tree.nodes.get(key)
        if node is None:
            marked.discard(key)
            continue
        on_remove(key, node)
        # Children were either fixed (reparented away) or are themselves
        # marked; remove just this node.
        if node.parent is not None:
            parent = tree.nodes.get(node.parent)
            if parent is not None:
                parent.children.pop(key, None)
        for child in list(node.children):
            child_node = tree.nodes.get(child)
            if child_node is not None and child_node.parent == key:
                child_node.parent = None
        del tree.nodes[key]
        marked.discard(key)
