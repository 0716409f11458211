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

Age order is id order: ids increase in ``(timestamp, tail, head)`` order,
since a batch is linked sorted, stamps only grow, and the ids of a
rejected batch, which never went live, are taken back.  So ``e_ts`` is
sorted and the dict ``eid`` keeps the live edges in id order.  Only this
module validates and orders a batch; both mutations return its ids,
ascending for an insertion and in batch order for a deletion.

Engines walk the lists through two *orientations*, built once per graph:
``fwd = (out_first, out_nxt, e_head, e_tail)`` and ``bwd = (in_first,
in_nxt, e_tail, e_head)``.  An orientation ``(first, nxt, far, near)``
names the lists to walk and, for an edge on the list of v, its endpoint
away from v and at v.  The graph changes those lists only in place, so
the tuples stay current.  Every list is doubly linked, and ``_attach``
and ``_detach`` are its one append and one splice, each called once on
an edge's out-list and once on its in-list.  ``has_detour`` is the one
reach probe over the live out-lists.

``_fit_in_memory`` is the one resource check: each engine asks it, with
its measured construction peak, before its first O(n) or larger
allocation, so a size that cannot fit raises ``TooLarge``; ``TrDag`` and
``TrGeneral`` ask again before they center a new root.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (
    BadUpdate, CycleCreated, DuplicateEdge, MissingEdge, NotIncident, TooLarge
)

Edge = tuple[int, int]

NIL = -1

# construction peak per vertex, by tracemalloc at n = 200,000: five lists
# of 8-byte slots
_BYTES_PER_VERTEX = 40


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
        "fwd",
        "bwd",
    )

    def __init__(self, n: int, *, acyclic: bool = False) -> None:
        self.n = n = _count(n, "vertex count")
        _fit_in_memory(_BYTES_PER_VERTEX * n, f"a graph on {n} vertices")
        self.acyclic = acyclic
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
        self.fwd = (self.out_first, self.out_nxt, self.e_head, self.e_tail)
        self.bwd = (self.in_first, self.in_nxt, self.e_tail, self.e_head)

    # ---- queries ----

    def ts_of(self, tail: int, head: int) -> int:
        """Timestamp of a live edge."""
        tail, head = _vertex(tail), _vertex(head)
        e = self.eid.get((tail, head))
        if e is None:
            raise self.not_live(tail, head)
        return self.e_ts[e]

    def not_live(self, tail: int, head: int) -> BadUpdate | MissingEdge:
        """The error for an edge that is not live: ``BadUpdate`` for a
        self-loop or an endpoint outside 1..n, else ``MissingEdge``."""
        if 1 <= tail <= self.n and 1 <= head <= self.n and tail != head:
            return MissingEdge(f"edge ({tail}, {head}) is not live")
        return BadUpdate(f"bad edge ({tail}, {head})")

    def edge_list(self) -> list[Edge]:
        """All live edges, sorted lexicographically."""
        return sorted(self.eid)

    # ---- mutation ----

    def apply_insert_centered(self, center: int, edges: Iterable[Edge]) -> list[int]:
        """Insert a batch of edges incident to ``center``; returns its ids, ascending.

        The whole batch shares one fresh timestamp and ``center_ts[center]``
        is advanced to it.  In acyclic mode a reachability probe rejects
        (and rolls back) a batch that would close a directed cycle.
        """
        center = _vertex(center)
        raw = [_edge(edge) for edge in _batch(edges)]
        batch = sorted(set(raw))
        if not batch:
            raise BadUpdate("empty insertion batch")
        if len(batch) != len(raw):
            raise DuplicateEdge("edge repeated within the batch")
        n = self.n
        if not 1 <= center <= n:
            raise BadUpdate(f"bad center {center}")
        for tail, head in batch:
            if not (1 <= tail <= n and 1 <= head <= n) or tail == head:
                raise BadUpdate(f"bad edge ({tail}, {head})")
            if tail != center and head != center:
                raise NotIncident(f"edge ({tail}, {head}) does not touch {center}")
            if (tail, head) in self.eid:
                raise DuplicateEdge(f"edge ({tail}, {head}) already present")
        stamp = self.last_ts + 1
        start = len(self.e_tail)
        for tail, head in batch:
            self._link(tail, head, stamp)
        # every cycle a centered batch closes in a DAG passes through the center
        if self.acyclic and has_detour(self, center, center):
            for tail, head in batch:
                self._unlink(self.eid[(tail, head)])
            # take the ids back, so id order stays age order
            del self.e_tail[start:], self.e_head[start:]
            del self.e_ts[start:], self.e_live[start:]
            del self.out_nxt[start:], self.out_prv[start:]
            del self.in_nxt[start:], self.in_prv[start:]
            raise CycleCreated(f"insertion at {center} would close a cycle")
        self.last_ts = stamp
        self.center_ts[center] = stamp
        return list(range(start, len(self.e_tail)))

    def apply_delete(self, edges: Iterable[Edge]) -> list[int]:
        """Remove a set of live edges from the graph and all snapshots.

        Returns the ids of the removed edges, in batch order.  The whole
        batch is validated before any edge is unlinked.
        """
        ids = []
        seen = set()
        for edge in _batch(edges):
            tail, head = _edge(edge)
            e = self.eid.get((tail, head), NIL)
            if e == NIL:
                raise self.not_live(tail, head)
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
        _attach(self.out_first, self.out_last, self.out_nxt, self.out_prv, tail, e)
        _attach(self.in_first, self.in_last, self.in_nxt, self.in_prv, head, e)
        self.eid[(tail, head)] = e

    def _unlink(self, e: int) -> None:
        tail, head = self.e_tail[e], self.e_head[e]
        self.e_live[e] = 0
        _detach(self.out_first, self.out_last, self.out_nxt, self.out_prv, tail, e)
        _detach(self.in_first, self.in_last, self.in_nxt, self.in_prv, head, e)
        del self.eid[(tail, head)]


def _attach(first: list, last: list, nxt: list, prv: list, v: int, e: int) -> None:
    """Append the new edge ``e``, the next id, to the back of v's list."""
    end = last[v]
    prv.append(end)
    nxt.append(NIL)
    if end == NIL:
        first[v] = e
    else:
        nxt[end] = e
    last[v] = e


def _detach(first: list, last: list, nxt: list, prv: list, v: int, e: int) -> None:
    """Splice ``e`` out of v's list; it keeps its nxt/prv for stale cursors."""
    p, x = prv[e], nxt[e]
    if p == NIL:
        first[v] = x
    else:
        nxt[p] = x
    if x == NIL:
        last[v] = p
    else:
        prv[x] = p


def _vertex(v: object) -> int:
    """``v`` as an int; ``BadUpdate`` unless ``operator.index`` takes it."""
    if type(v) is int:
        return v
    try:
        return operator.index(v)
    except TypeError:
        raise BadUpdate(f"a vertex is an int, got {v!r}") from None


def _count(n: object, what: str) -> int:
    """``n`` as a positive int; ``BadUpdate`` unless ``operator.index`` takes it."""
    try:
        n = operator.index(n)
    except TypeError:
        raise BadUpdate(f"{what} is an int, got {n!r}") from None
    if n < 1:
        raise BadUpdate(f"{what} must be positive, got {n}")
    return n


def _fit_in_memory(need: int, what: str) -> None:
    """``TooLarge`` unless ``need`` bytes fit in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise TooLarge(
            f"{what} needs about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )


def _batch(edges: object) -> list:
    """The items of an update batch; ``BadUpdate`` if it is not iterable."""
    try:
        items = iter(edges)
    except TypeError:
        raise BadUpdate(f"a batch is an iterable of edges, got {edges!r}") from None
    return list(items)


def _edge(edge: object) -> Edge:
    if isinstance(edge, tuple) and len(edge) == 2:
        return _vertex(edge[0]), _vertex(edge[1])
    raise BadUpdate(f"an edge is a (tail, head) tuple, got {edge!r}")


def has_detour(g: TimestampedGraph, x: int, y: int) -> bool:
    """True iff ``y`` is reachable from ``x`` without the edge (x, y).

    Walks the graph's own out-lists, which hold live edges only, and
    skips the queried edge by its id.  With ``x == y`` there is no such
    edge, so the probe asks whether a cycle passes through ``x``.
    """
    skip = g.eid.get((x, y), NIL)
    e_head, out_first, out_nxt = g.e_head, g.out_first, g.out_nxt
    seen = bytearray(g.n + 1)
    seen[x] = 1
    stack = [x]
    while stack:
        e = out_first[stack.pop()]
        while e != NIL:
            w = e_head[e]
            if w == y:
                if e != skip:
                    return True
            elif not seen[w]:
                seen[w] = 1
                stack.append(w)
            e = out_nxt[e]
    return False
