"""Evolving directed graph with per-edge insertion timestamps.

The graph is the single edge store shared by every engine.  Edges are
appended to per-vertex adjacency lists in timestamp order and are unlinked
in place on deletion, so the list of a vertex is always sorted by
timestamp and contains only live edges.  The frozen graph *snapshot* of a
vertex ``r`` (the state the graph had when the last insertion centered at
``r`` was applied, minus everything deleted since) is never materialized:
it is exactly the prefix of every adjacency list whose timestamps do not
exceed ``center_ts[r]``, so one shared structure serves all n snapshots.

Timestamps are issued per insertion batch: all edges of one centered
insertion share a stamp, and stamps grow by one per batch.  Adjacency
lists are therefore non-decreasing in timestamp, with ties only between
edges of the same batch.

Internals are deliberately flat (parallel lists indexed by a dense edge
id) so the engines can walk adjacency in tight loops without attribute
chasing.  Edge ids are never reused; a dead edge keeps its ``nxt``/``prv``
values so that an engine holding a stale cursor can still step forward to
the surviving part of the list (dead entries are skipped by checking
``e_live``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import BadUpdate, CycleCreated, DuplicateEdge, MissingEdge, NotIncident

Edge = tuple[int, int]

NIL = -1


@dataclass(frozen=True)
class InsertCentered:
    """Insertion of a set of edges all incident to one center vertex."""

    center: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class DeleteSet:
    """Deletion of an arbitrary set of currently live edges."""

    edges: tuple[Edge, ...]


Update = InsertCentered | DeleteSet


class TimestampedGraph:
    """Simple digraph on a fixed vertex set [1..n] with timestamped edges."""

    __slots__ = (
        "n",
        "acyclic",
        "m",
        "last_ts",
        "center_ts",
        "eid",
        "e_tail",
        "e_head",
        "e_ts",
        "e_live",
        "out_nxt",
        "out_prv",
        "in_nxt",
        "in_prv",
        "out_first",
        "out_last",
        "in_first",
        "in_last",
    )

    def __init__(self, n: int, *, acyclic: bool = False) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        self.n = n
        self.acyclic = acyclic
        self.m = 0
        self.last_ts = 0
        self.center_ts = [0] * (n + 1)
        self.eid: dict[Edge, int] = {}
        # parallel per-edge arrays, indexed by edge id
        self.e_tail: list[int] = []
        self.e_head: list[int] = []
        self.e_ts: list[int] = []
        self.e_live: list[int] = []
        self.out_nxt: list[int] = []
        self.out_prv: list[int] = []
        self.in_nxt: list[int] = []
        self.in_prv: list[int] = []
        # per-vertex list ends
        self.out_first = [NIL] * (n + 1)
        self.out_last = [NIL] * (n + 1)
        self.in_first = [NIL] * (n + 1)
        self.in_last = [NIL] * (n + 1)

    # ---- queries ----

    def ts_of(self, tail: int, head: int) -> int:
        """Timestamp of a live edge."""
        try:
            return self.e_ts[self.eid[(tail, head)]]
        except KeyError:
            raise MissingEdge(f"edge ({tail}, {head}) is not live") from None

    def edge_list(self) -> list[Edge]:
        """All live edges, sorted lexicographically."""
        return sorted(self.eid)

    def snapshot_adjacency(
        self, v: int, root: int, direction: str = "out"
    ) -> Iterator[Edge]:
        """Live edges at ``v`` visible in the snapshot of ``root``.

        Yields edges of the chosen adjacency list of ``v`` whose timestamp
        does not exceed ``center_ts[root]``, in list (timestamp) order.
        A root that was never an insertion center has an empty snapshot.
        """
        limit = self.center_ts[root]
        e_ts, e_tail, e_head = self.e_ts, self.e_tail, self.e_head
        if direction == "out":
            e, nxt = self.out_first[v], self.out_nxt
        elif direction == "in":
            e, nxt = self.in_first[v], self.in_nxt
        else:
            raise ValueError("direction must be 'out' or 'in'")
        while e != NIL and e_ts[e] <= limit:
            yield (e_tail[e], e_head[e])
            e = nxt[e]

    # ---- mutation ----

    def apply_insert_centered(self, center: int, new_edges: Iterable[Edge]) -> int:
        """Insert a batch of edges incident to ``center``; returns its stamp.

        The whole batch shares one fresh timestamp and ``center_ts[center]``
        is advanced to it.  In acyclic mode a reachability probe rejects
        (and rolls back) a batch that would close a directed cycle.
        """
        raw = list(new_edges)
        batch = sorted(set(raw))
        if not batch:
            raise BadUpdate("empty insertion batch")
        if len(batch) != len(raw):
            raise DuplicateEdge("edge repeated within the batch")
        n = self.n
        for tail, head in batch:
            if not (1 <= tail <= n and 1 <= head <= n) or tail == head:
                raise BadUpdate(f"bad edge ({tail}, {head})")
            if tail != center and head != center:
                raise NotIncident(f"edge ({tail}, {head}) does not touch {center}")
            if (tail, head) in self.eid:
                raise DuplicateEdge(f"edge ({tail}, {head}) already present")
        stamp = self.last_ts + 1
        for tail, head in batch:
            self._link(tail, head, stamp)
        if self.acyclic and self._center_on_cycle(center):
            for tail, head in batch:
                self._unlink(self.eid[(tail, head)])
            del self.e_tail[-len(batch):], self.e_head[-len(batch):]
            del self.e_ts[-len(batch):], self.e_live[-len(batch):]
            del self.out_nxt[-len(batch):], self.out_prv[-len(batch):]
            del self.in_nxt[-len(batch):], self.in_prv[-len(batch):]
            raise CycleCreated(f"insertion at {center} would close a cycle")
        self.last_ts = stamp
        self.center_ts[center] = stamp
        return stamp

    def apply_delete(self, edges: Iterable[Edge]) -> list[int]:
        """Remove a set of live edges from the graph and all snapshots.

        Returns the ids of the removed edges, in batch order.  The whole
        batch is validated before any edge is unlinked.
        """
        ids = []
        seen = set()
        for tail, head in edges:
            e = self.eid.get((tail, head), NIL)
            if e == NIL:
                raise MissingEdge(f"edge ({tail}, {head}) is not live")
            if e in seen:
                raise DuplicateEdge("edge repeated within the batch")
            seen.add(e)
            ids.append(e)
        for e in ids:
            self._unlink(e)
        return ids

    # ---- internals ----

    def _link(self, tail: int, head: int, stamp: int) -> None:
        e = len(self.e_tail)
        self.e_tail.append(tail)
        self.e_head.append(head)
        self.e_ts.append(stamp)
        self.e_live.append(1)
        last = self.out_last[tail]
        self.out_prv.append(last)
        self.out_nxt.append(NIL)
        if last == NIL:
            self.out_first[tail] = e
        else:
            self.out_nxt[last] = e
        self.out_last[tail] = e
        last = self.in_last[head]
        self.in_prv.append(last)
        self.in_nxt.append(NIL)
        if last == NIL:
            self.in_first[head] = e
        else:
            self.in_nxt[last] = e
        self.in_last[head] = e
        self.eid[(tail, head)] = e
        self.m += 1

    def _unlink(self, e: int) -> None:
        # the dead edge keeps its own nxt/prv so stale cursors can advance
        tail, head = self.e_tail[e], self.e_head[e]
        self.e_live[e] = 0
        p, x = self.out_prv[e], self.out_nxt[e]
        if p == NIL:
            self.out_first[tail] = x
        else:
            self.out_nxt[p] = x
        if x == NIL:
            self.out_last[tail] = p
        else:
            self.out_prv[x] = p
        p, x = self.in_prv[e], self.in_nxt[e]
        if p == NIL:
            self.in_first[head] = x
        else:
            self.in_nxt[p] = x
        if x == NIL:
            self.in_last[head] = p
        else:
            self.in_prv[x] = p
        del self.eid[(tail, head)]
        self.m -= 1

    def _center_on_cycle(self, center: int) -> bool:
        """True iff some directed cycle passes through ``center``.

        Every cycle created by a centered insertion into a DAG must pass
        through the center, so one forward search suffices.
        """
        e_head, out_nxt = self.e_head, self.out_nxt
        seen = bytearray(self.n + 1)
        stack = [center]
        while stack:
            v = stack.pop()
            e = self.out_first[v]
            while e != NIL:
                w = e_head[e]
                if w == center:
                    return True
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
                e = out_nxt[e]
        return False
