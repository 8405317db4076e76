"""Hash partitioning primitives for sharded (multi-core) execution.

The sharded engine (:mod:`repro.engine.sharded`) runs N shard workers,
each evaluating the same compiled plan over the full input stream, with
the *stateful* work divided between them:

* PATH operators partition their Δ-tree forests by **root vertex** —
  every shard maintains the full windowed adjacency (traversals need the
  whole snapshot graph) but only expands/repairs the spanning trees whose
  root it owns, which is where the operator's time goes;
* PATTERN operators partition every internal symmetric hash join by its
  **join key**: a binding is stored and probed only on the key's owner
  shard, and bindings produced on the "wrong" shard are exchanged;
* derived streams are re-partitioned between operators the way a shuffle
  would, via the exchange operators of :mod:`repro.physical.exchange`.

Vertices are interned dense ints, so ownership is a cheap modulo.  All
ownership functions here are **deterministic across processes**: they
use only integer arithmetic and Python's seed-independent hashing of
ints/int-tuples, never string hashing, so an inline shard and a
multiprocessing worker agree on every routing decision.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "vertex_owner",
    "key_owner",
    "ShardContext",
]


def vertex_owner(vertex, num_shards: int) -> int:
    """The shard owning a vertex (dense interned id in the fast path)."""
    if type(vertex) is int:
        return vertex % num_shards
    return hash(vertex) % num_shards


def key_owner(key: tuple, num_shards: int) -> int:
    """The shard owning a join-key tuple.

    Single-component keys (the overwhelmingly common join shape) route
    by the component so join ownership and vertex ownership agree when
    the key *is* a vertex; wider keys hash the whole tuple.
    """
    if len(key) == 1:
        return vertex_owner(key[0], num_shards)
    return hash(key) % num_shards


class ShardContext:
    """One shard's identity plus its routing fabric.

    The context is handed to every partition-aware operator at compile
    time.  Operators ask ownership questions through it and hand
    cross-shard deltas to :meth:`send`; what "send" means is the
    transport's business:

    * the **inline** deterministic scheduler wires ``send`` to a
      synchronous call into the destination shard's registered endpoint,
      so the global execution order is exactly the serial engine's;
    * the **process** transport wires ``send`` to an outbox that the
      engine drains into per-slide exchange rounds between workers.

    Endpoints are registered under integer uids assigned during
    compilation; compilation is deterministic, so uid ``k`` names the
    *same* logical operator on every shard.
    """

    __slots__ = ("shard_id", "num_shards", "endpoints", "_send")

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        send: "Callable[[int, int, tuple], None] | None" = None,
    ):
        if not 0 <= shard_id < num_shards:
            raise ValueError(
                f"shard_id {shard_id} out of range for {num_shards} shards"
            )
        self.shard_id = shard_id
        self.num_shards = num_shards
        #: uid -> operator endpoint on *this* shard (receive side)
        self.endpoints: dict[int, object] = {}
        self._send = send

    # -- ownership ------------------------------------------------------
    def owns_vertex(self, vertex) -> bool:
        return vertex_owner(vertex, self.num_shards) == self.shard_id

    def owner_of_key(self, key: tuple) -> int:
        return key_owner(key, self.num_shards)

    # -- wiring ---------------------------------------------------------
    def register(self, uid: int, endpoint: object) -> None:
        """Expose an operator as the receive side of exchange uid."""
        self.endpoints[uid] = endpoint

    def unregister_endpoints(self, dead_ids: set[int]) -> None:
        """Drop endpoints whose operator left the dataflow (pruning)."""
        stale = [
            uid
            for uid, op in self.endpoints.items()
            if id(op) in dead_ids
        ]
        for uid in stale:
            del self.endpoints[uid]

    def set_transport(
        self, send: "Callable[[int, int, tuple], None]"
    ) -> None:
        self._send = send

    # -- routing --------------------------------------------------------
    def send(self, dest: int, uid: int, payload: tuple) -> None:
        """Hand one delta to the shard ``dest``'s endpoint ``uid``.

        ``payload`` is a flat tuple of scalars (interned ids, interval
        bounds, signs) — nothing that needs more than pickling a few
        ints crosses a shard boundary.
        """
        self._send(dest, uid, payload)

    def broadcast(self, uid: int, payload: tuple) -> None:
        """Send one delta to every *other* shard's endpoint ``uid``."""
        send = self._send
        me = self.shard_id
        for dest in range(self.num_shards):
            if dest != me:
                send(dest, uid, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardContext {self.shard_id}/{self.num_shards}>"
