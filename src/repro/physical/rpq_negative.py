"""Negative-tuple streaming RPQ operator ([Pacaci et al., SIGMOD 2020]).

The default PATH implementation of the paper's prototype (Section 6.2.3):
the same Δ-tree spanning forest as S-PATH, but maintained under the
*negative tuple* discipline:

* **Insertions** only *Expand*: when a (vertex, state) pair is already in
  a tree with a still-valid derivation, the new (possibly later-expiring)
  derivation is ignored — the tree keeps the first derivation found
  (compare Example 10 / Figure 9d of the paper).
* **Expirations** are processed with the same machinery as explicit
  deletions: when the window slides, every tree node whose derivation
  expired is marked (together with its subtree) and the snapshot graph is
  traversed to find alternative, still-valid paths — the DRed-style
  delete-and-re-derive step that S-PATH's direct approach avoids.

This operator exists (a) as the baseline for the Table 3 comparison, and
(b) as an independent implementation of PATH used to cross-validate
S-PATH in the test suite.
"""

from __future__ import annotations

from repro.core.expiry import TimingWheel
from repro.core.intervals import Interval
from repro.core.tuples import SGT, Label
from repro.dataflow.graph import DELETE, INSERT, Event, PhysicalOperator
from repro.errors import ExecutionError
from repro.physical.delta_index import (
    ColumnarPathIngest,
    DeltaPathIndex,
    NodeKey,
    SpanningTree,
    TreeNode,
    WindowAdjacency,
    new_maintenance_counters,
    repair_nodes,
    reverse_transitions,
)
from repro.regex.ast import RegexNode
from repro.regex.dfa import DFA, dfa_from_regex


class NegativeTupleRpqOp(ColumnarPathIngest, PhysicalOperator):
    """Physical PATH operator following the negative-tuple approach."""

    def __init__(
        self,
        labels: list[Label],
        regex: RegexNode | str,
        out_label: Label,
        materialize_paths: bool = True,
    ):
        super().__init__(f"rpq-neg[{out_label}]")
        self.labels = list(labels)
        self.out_label = out_label
        #: When False, result payloads are plain derived edges instead of
        #: materialized paths (cheaper; used by benchmarks comparing pair
        #: production against the path-less DD baseline).
        self.materialize_paths = materialize_paths
        self.dfa: DFA = dfa_from_regex(regex)
        if self.dfa.start_is_accepting():
            raise ExecutionError("PATH regex must not accept the empty word")
        self._reverse = reverse_transitions(self.dfa)
        #: label → [(s, t)] transition pairs, computed once: the per-edge
        #: DFA scan of ``states_with_transition_on`` is hot-path work.
        self._transitions = {
            label: self.dfa.states_with_transition_on(label)
            for label in dict.fromkeys(self.labels)
        }
        self.index = DeltaPathIndex(self.dfa.start)
        self.adjacency = WindowAdjacency()
        #: hot-loop caches of the DFA surface
        self._start = self.dfa.start
        self._accepting = self.dfa.accepting
        self._delta = self.dfa.delta
        # Expiry wheel of (root, key) — nodes to re-derive when the
        # window slides.
        self._node_expiry = TimingWheel()
        self._now = -1
        #: sharded execution: when set, this operator maintains only the
        #: spanning trees whose root vertex the shard owns (the adjacency
        #: stays complete — traversals need the whole snapshot graph)
        self.shard_ctx = None
        self.maintenance_counters = new_maintenance_counters()

    def set_shard(self, ctx) -> None:
        """Partition the Δ-tree forest by root vertex across shards."""
        self.shard_ctx = ctx

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def on_event(self, port: int, event: Event) -> None:
        try:
            label = self.labels[port]
        except IndexError as exc:
            raise ExecutionError(f"{self.name}: unexpected port {port}") from exc
        sgt = event.sgt
        if event.sign == INSERT:
            self._insert(sgt.src, sgt.trg, label, sgt.interval)
        else:
            self._delete(sgt.src, sgt.trg, label, sgt.interval)

    def on_batch(self, port: int, batch) -> None:
        """Batched ingestion of one input label's deltas.

        Expand-only maintenance keeps the *first* derivation of every
        (vertex, state) pair, which makes the operator order-sensitive by
        design: bulk-loading the batch into the adjacency before linking
        would let an earlier edge's expansion traverse later edges and
        record different (wrong) first derivations.  The loop therefore
        stays per edge in arrival order; the batch amortizes dispatch —
        one port/label resolution, Event-free result capture, and one
        downstream flush per input batch.
        """
        try:
            label = self.labels[port]
        except IndexError as exc:
            raise ExecutionError(f"{self.name}: unexpected port {port}") from exc
        if batch.columns is not None:
            self._ingest_columns(batch, label)
            return
        self._begin_batch()
        try:
            signs = batch.signs
            if signs is None:
                insert = self._insert
                for sgt in batch.sgts:
                    insert(sgt.src, sgt.trg, label, sgt.interval)
            else:
                for sgt, sign in zip(batch.sgts, signs):
                    if sign == INSERT:
                        self._insert(sgt.src, sgt.trg, label, sgt.interval)
                    else:
                        self._delete(sgt.src, sgt.trg, label, sgt.interval)
        finally:
            self._end_batch(batch.boundary)

    def _insert(self, u, v, label: Label, interval: Interval) -> None:
        now = self._now
        if interval.ts > now:
            now = interval.ts
            self._now = now
        self.adjacency.add(u, v, label, interval)

        transitions = self._transitions[label]
        index = self.index
        trees = index.trees
        inverted = index._inverted
        start = self._start
        # Building the task list before expanding doubles as the
        # snapshot of the candidate trees (expansion mutates the index).
        shard = self.shard_ctx
        tasks: list[tuple[object, int, int]] = []
        for s, t in transitions:
            if (
                s == start
                and u not in trees
                and (shard is None or shard.owns_vertex(u))
            ):
                index.ensure_tree(u)
            roots = inverted.get((u, s))
            if roots:
                for root in roots:
                    tasks.append((root, s, t))
        for root, s, t in tasks:
            tree = trees.get(root)
            if tree is None:
                continue
            self._expand(tree, (u, s), (v, t), label, interval, now)

    def _expand(
        self,
        tree: SpanningTree,
        parent_key: NodeKey,
        child_key: NodeKey,
        label: Label,
        edge_interval: Interval,
        now: int,
    ) -> None:
        """Expand-only linking: existing valid nodes are never improved."""
        nodes_get = tree.nodes.get
        root = tree.root
        root_vertex = tree.root_vertex
        register = self.index.register
        unregister = self.index.unregister
        accepting = self._accepting
        dfa_delta = self._delta
        out_group = self.adjacency.out_group
        stack = [(parent_key, child_key, label, edge_interval)]
        while stack:
            parent_key, child_key, label, edge_interval = stack.pop()
            parent = nodes_get(parent_key)
            if parent is None:
                continue
            if parent.exp <= now and parent_key != root:
                continue
            ts = edge_interval.ts
            if parent.ts > ts:
                ts = parent.ts
            exp = edge_interval.exp
            if parent.exp < exp:
                exp = parent.exp
            if exp <= now:
                continue

            node = nodes_get(child_key)
            if node is not None and node.exp <= now:
                for removed_key, _ in tree.remove_subtree(child_key):
                    unregister(root_vertex, removed_key)
                node = None
            if node is not None:
                continue  # first derivation wins; no Propagate
            if child_key == root:
                continue

            node = tree.add_child(parent_key, child_key, ts, exp, label)
            register(root_vertex, child_key)
            self._schedule_expiry(root_vertex, child_key, exp)
            if child_key[1] in accepting:
                self._emit_result(tree, child_key, node, INSERT)

            vertex, state = child_key
            group = out_group(vertex)
            if not group:
                continue
            for (out_label, w), intervals in group.items():
                next_state = dfa_delta(state, out_label)
                if next_state is None:
                    continue
                # Max-expiry interval valid at `now`, inline (this is
                # :meth:`WindowAdjacency.out_edges` without building the
                # per-call result list, and the DFA check above skips the
                # scan entirely for labels the state cannot consume).
                best = None
                best_exp = now
                for candidate in intervals:
                    exp = candidate.exp
                    if exp > best_exp and candidate.ts <= now:
                        best = candidate
                        best_exp = exp
                if best is not None:
                    stack.append((child_key, (w, next_state), out_label, best))

    # ------------------------------------------------------------------
    # Window maintenance: expiration via delete & re-derive
    # ------------------------------------------------------------------
    def on_advance(self, t: int) -> None:
        self._now = max(self._now, t)
        # Group expired nodes per tree, then run one repair per tree —
        # this is the expensive re-derivation traversal of the negative
        # tuple approach.  No subtree marking is needed: a child's expiry
        # never exceeds its parent's (``child.exp = min(parent.exp,
        # edge.exp)`` at link time, and re-derivations preserve the
        # bound), so every descendant of an expired node is itself
        # expired and drains its *own* wheel entry at or before this
        # advance — the drained set already covers the subtrees.
        expired: dict[object, set[NodeKey]] = {}
        trees = self.index.trees
        drained = self._node_expiry.advance(t)
        for root, key in drained:
            tree = trees.get(root)
            if tree is None:
                continue
            node = tree.nodes.get(key)
            if node is None or node.exp > t:
                continue
            expired.setdefault(root, set()).add(key)

        counters = self.maintenance_counters
        if drained:
            counters["drained_entries"] += len(drained)
        if expired:
            counters["boundaries"] += 1
            counters["expired_nodes"] += sum(
                len(keys) for keys in expired.values()
            )
            counters["rederive_trees"] += len(expired)
        for root, keys in expired.items():
            tree = trees.get(root)
            if tree is None:
                continue
            counters["rederive_passes"] += 1
            self._rederive(tree, keys, t)
            self.index.drop_tree_if_trivial(root)

        # Adjacency is purged after re-derivation: the traversal may only
        # use edges valid strictly after t, which `in_edges(…, now=t)`
        # already guarantees, but purging late keeps the code honest about
        # what the negative-tuple approach must scan.
        self.adjacency.purge(t)

    def _rederive(self, tree: SpanningTree, marked: set[NodeKey], now: int) -> None:
        def on_fix(fixed_key: NodeKey, node: TreeNode) -> None:
            self._schedule_expiry(tree.root_vertex, fixed_key, node.exp)
            if self.dfa.is_accepting(fixed_key[1]):
                # Re-derived result: its validity continues past `now`.
                self._emit_result(tree, fixed_key, node, INSERT)

        def on_remove(removed_key: NodeKey, node: TreeNode) -> None:
            self.index.unregister(tree.root_vertex, removed_key)
            # Natural expiration: previously emitted intervals already
            # ended at node.exp <= now, so nothing needs retracting.

        repair_nodes(
            tree,
            marked,
            self.adjacency,
            self.dfa,
            self._reverse,
            now,
            on_fix,
            on_remove,
        )

    # ------------------------------------------------------------------
    # Explicit deletions: the original negative-tuple machinery
    # ------------------------------------------------------------------
    def _delete(self, u, v, label: Label, interval: Interval) -> None:
        now = max(self._now, interval.ts)
        if not self.adjacency.remove(u, v, label, interval):
            return
        for s, t in self.dfa.states_with_transition_on(label):
            child_key = (v, t)
            for root in self.index.roots_containing(child_key):
                tree = self.index.tree(root)
                if tree is None:
                    continue
                node = tree.get(child_key)
                if node is None or node.parent != (u, s) or node.via_label != label:
                    continue
                self._repair_after_delete(tree, child_key, now)

    def _repair_after_delete(self, tree: SpanningTree, key: NodeKey, now: int) -> None:
        marked: set[NodeKey] = set()
        old_state: dict[NodeKey, tuple[int, int]] = {}
        stack = [key]
        while stack:
            current = stack.pop()
            node = tree.get(current)
            if node is None or current in marked:
                continue
            marked.add(current)
            old_state[current] = (node.ts, node.exp)
            stack.extend(node.children)

        def on_fix(fixed_key: NodeKey, node: TreeNode) -> None:
            self._schedule_expiry(tree.root_vertex, fixed_key, node.exp)
            if not self.dfa.is_accepting(fixed_key[1]):
                return
            old_ts, old_exp = old_state[fixed_key]
            self._emit_interval(tree, fixed_key, Interval(old_ts, old_exp), DELETE)
            history_end = min(now, old_exp)
            if history_end > old_ts:
                self._emit_interval(
                    tree, fixed_key, Interval(old_ts, history_end), INSERT
                )
            self._emit_result(tree, fixed_key, node, INSERT)

        def on_remove(removed_key: NodeKey, node: TreeNode) -> None:
            self.index.unregister(tree.root_vertex, removed_key)
            if self.dfa.is_accepting(removed_key[1]):
                old_ts, old_exp = old_state[removed_key]
                self._emit_interval(
                    tree, removed_key, Interval(old_ts, old_exp), DELETE
                )
                history_end = min(now, old_exp)
                if history_end > old_ts:
                    self._emit_interval(
                        tree, removed_key, Interval(old_ts, history_end), INSERT
                    )

        repair_nodes(
            tree,
            marked,
            self.adjacency,
            self.dfa,
            self._reverse,
            now,
            on_fix,
            on_remove,
        )
        self.index.drop_tree_if_trivial(tree.root_vertex)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _emit_result(
        self, tree: SpanningTree, key: NodeKey, node: TreeNode, sign: int
    ) -> None:
        cols = self._capture_cols
        if cols is not None:
            cols.append(tree.root_vertex, key[0], node.ts, node.exp, sign)
            return
        payload = tree.path_to(key) if self.materialize_paths else None
        sgt = SGT(
            tree.root_vertex,
            key[0],
            self.out_label,
            Interval(node.ts, node.exp),
            payload,
        )
        self.emit_sgt(sgt, sign)

    def _emit_interval(
        self, tree: SpanningTree, key: NodeKey, interval: Interval, sign: int
    ) -> None:
        """Emit an insertion/retraction for an explicit result interval."""
        cols = self._capture_cols
        if cols is not None:
            cols.append(tree.root_vertex, key[0], interval.ts, interval.exp, sign)
            return
        sgt = SGT(tree.root_vertex, key[0], self.out_label, interval)
        self.emit_sgt(sgt, sign)

    def state_size(self) -> int:
        return self.index.state_size() + len(self.adjacency)

    def state_breakdown(self) -> dict:
        nodes = self.index.state_size()
        edges = len(self.adjacency)
        return {"rows": nodes + edges, "bytes": nodes * 200 + edges * 120}

    # ------------------------------------------------------------------
    # Checkpointing (same blob shape as SPathOp: both maintain the
    # Δ-forest + window adjacency + node-expiry wheel, and restore is
    # structure-for-structure, so the blobs are interchangeable across
    # ``path_impl`` only in shape — never restored cross-impl because
    # restore requires an identical engine config)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "kind": "path",
            "partitioned": self.shard_ctx is not None,
            "now": self._now,
            "index": self.index.snapshot_state(),
            "adjacency": self.adjacency.snapshot_state(),
            "node_expiry": self._node_expiry.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("kind") != "path":
            from repro.errors import CheckpointError

            raise CheckpointError(
                f"operator {self.name}: expected a path state blob, got "
                f"kind={state.get('kind')!r}"
            )
        self._now = state["now"]
        self.index.restore_state(state["index"])
        self.adjacency.restore_state(state["adjacency"])
        wheel = TimingWheel()
        wheel.restore(state["node_expiry"])
        self._node_expiry = wheel
