"""S-PATH: the direct-approach streaming path navigation operator
(Section 6.2.4, Algorithms S-PATH / Expand / Propagate).

S-PATH maintains the Δ-PATH spanning forest (Definition 22) where each
tree node stores the validity interval of the *latest-expiring* path from
the tree's root — the coalesce aggregation with ``max`` over expiry
timestamps.  Because expirations have a temporal order, an expired node
can never be shadowing a still-valid alternative path, so window
maintenance is *direct*: expired nodes are simply dropped when the
watermark advances, with no re-derivation traversals.

On arrival of an sgt ``(u, v, l, [ts, exp))``:

* for every DFA transition ``t = delta(s, l)``: if ``s`` is the start
  state, ensure tree ``T_u`` exists; then for every tree containing a
  valid node ``(u, s)``, link ``(v, t)`` below it —
  *Expand* when ``(v, t)`` is absent (or expired), *Propagate* when the
  new derivation expires later than the recorded one;
* both Expand and Propagate keep traversing the snapshot graph until no
  further improvement is possible (implemented with an explicit worklist
  so deep chains cannot overflow the Python stack);
* whenever an accepting node is created or improved, a result sgt is
  emitted carrying the materialized path from the root.

Explicit deletions use negative tuples: deleting a tree edge disconnects
a subtree, which is repaired with the Dijkstra-style max-expiry
re-derivation of Section 6.2.5; results that no longer hold from the
deletion time onward are retracted.
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


class SPathOp(ColumnarPathIngest, PhysicalOperator):
    """Physical PATH operator following the direct approach."""

    def __init__(
        self,
        labels: list[Label],
        regex: RegexNode | str,
        out_label: Label,
        materialize_paths: bool = True,
    ):
        super().__init__(f"spath[{out_label}]")
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
        # Expiry wheel over tree nodes; entries are (root_vertex, key).
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

        Each insertion's Expand/Propagate traversal must observe exactly
        the snapshot graph left by the events before it (bulk-loading the
        whole batch into the adjacency first would let earlier edges
        traverse through later ones, changing which derivation a node
        records), so the loop stays per edge in arrival order.  The batch
        amortizes the surrounding machinery: port resolution and label
        lookup happen once, result emissions are captured without Event
        wrappers, and downstream receives one batch per input batch.
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
        # Building the task list before linking doubles as the snapshot
        # of the candidate trees (linking mutates the index).
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
            self._link(tree, (u, s), (v, t), label, interval, now)

    # ------------------------------------------------------------------
    # Expand / Propagate (worklist form)
    # ------------------------------------------------------------------
    def _link(
        self,
        tree: SpanningTree,
        parent_key: NodeKey,
        child_key: NodeKey,
        label: Label,
        edge_interval: Interval,
        now: int,
    ) -> None:
        nodes_get = tree.nodes.get
        root = tree.root
        root_vertex = tree.root_vertex
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
                # An expired remnant: by the child.exp <= parent.exp
                # invariant its whole subtree is expired; discard and
                # treat as absent.
                for removed_key, _ in tree.remove_subtree(child_key):
                    self.index.unregister(root_vertex, removed_key)
                node = None

            if node is None:
                if child_key == root:
                    continue  # a cycle back to the root adds nothing
                node = tree.add_child(parent_key, child_key, ts, exp, label)
                self.index.register(root_vertex, child_key)
                self._schedule_expiry(root_vertex, child_key, exp)
                if child_key[1] in accepting:
                    self._emit_result(tree, child_key, node, INSERT)
            elif node.exp < exp:
                old_interval = Interval(node.ts, node.exp)
                tree.reparent(child_key, parent_key, label)
                node.ts = min(node.ts, ts)
                node.exp = max(node.exp, exp)
                self._schedule_expiry(root_vertex, child_key, node.exp)
                if child_key[1] in accepting:
                    # Keep the emitted derivation count at exactly one per
                    # node: retract the previous emission, then emit the
                    # widened interval (which always contains the old one).
                    self._emit_interval(tree, child_key, old_interval, DELETE)
                    self._emit_result(tree, child_key, node, INSERT)
            else:
                continue  # existing derivation is at least as good

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
    # Explicit deletions (negative tuples, Section 6.2.5)
    # ------------------------------------------------------------------
    def _delete(self, u, v, label: Label, interval: Interval) -> None:
        now = max(self._now, interval.ts)
        if not self.adjacency.remove(u, v, label, interval):
            return  # unknown (or already expired) edge: no effect
        for s, t in self.dfa.states_with_transition_on(label):
            child_key = (v, t)
            for root in self.index.roots_containing(child_key):
                tree = self.index.tree(root)
                if tree is None:
                    continue
                node = tree.get(child_key)
                if node is None or node.parent != (u, s) or node.via_label != label:
                    continue  # non-tree edge: spanning trees unchanged
                self._repair_subtree(tree, child_key, now)

    def _repair_subtree(self, tree: SpanningTree, key: NodeKey, now: int) -> None:
        # Mark the disconnected subtree, remember old intervals for
        # retraction, then re-derive (max-expiry alternatives).
        marked: set[NodeKey] = set()
        stack = [key]
        old_state: dict[NodeKey, tuple[int, int]] = {}
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
            # Retract the lost derivation, restore its historical part
            # (it was genuinely valid until the deletion time), and emit
            # the re-derived interval.
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
    # Window maintenance: the direct approach
    # ------------------------------------------------------------------
    def on_advance(self, t: int) -> None:
        self._now = max(self._now, t)
        self.adjacency.purge(t)
        trees = self.index.trees
        drained = self._node_expiry.advance(t)
        counters = self.maintenance_counters
        if drained:
            counters["drained_entries"] += len(drained)
        expired = 0
        for root, key in drained:
            tree = trees.get(root)
            if tree is None:
                continue
            node = tree.nodes.get(key)
            if node is None or node.exp > t:
                continue  # stale wheel entry (node improved or already gone)
            expired += 1
            for removed_key, _ in tree.remove_subtree(key):
                self.index.unregister(tree.root_vertex, removed_key)
            self.index.drop_tree_if_trivial(tree.root_vertex)
        if expired:
            counters["boundaries"] += 1
            counters["expired_nodes"] += expired

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
    # Checkpointing
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
