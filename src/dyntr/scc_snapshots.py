"""Per-root reachability views over the nested snapshot family.

Each centered vertex keeps a view of its frozen snapshot: the root's
descendant and ancestor sets, plus, for every reached vertex, the
snapshot edge that first reached it in the forward and in the backward
search.  Those parent edges form an out-tree spanning the descendants
and an in-tree spanning the ancestors.  The snapshot's SCC partition and
the per-SCC witness flags (is a component entered from a proper
descendant of the root, or left toward a proper ancestor) are computed
on the first query of a view and kept until the view is replaced.

A deletion replaces the view of every snapshot that held a removed
edge.  A side whose tree lost no edge is carried over unchanged: the
tree still spans the same set in the smaller snapshot, and a subgraph
cannot reach more.  Only a side whose tree lost an edge is searched
again, which is the tree-edge test of decremental reachability (Even and
Shiloach, 1981).  Every other view is left as it was.

A global table of parallel edge groups is kept alongside, on the current
graph: all live edges joining the same ordered pair of components form
one group, ordered by age, and the front member is the marked one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from .graph_core import NIL, Edge, TimestampedGraph


def _strong_components(n: int, edges: Iterable[Edge]) -> list[int]:
    """Kosaraju's two-pass component labeling, vertex -> component id."""
    out_adj: list[list[int]] = [[] for _ in range(n + 1)]
    rev: list[list[int]] = [[] for _ in range(n + 1)]
    for t, h in edges:
        out_adj[t].append(h)
        rev[h].append(t)
    seen = bytearray(n + 1)
    order: list[int] = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        seen[s] = 1
        stack = [(s, 0)]
        while stack:
            v, i = stack.pop()
            if i < len(out_adj[v]):
                stack.append((v, i + 1))
                w = out_adj[v][i]
                if not seen[w]:
                    seen[w] = 1
                    stack.append((w, 0))
            else:
                order.append(v)
    comp = [-1] * (n + 1)
    cid = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        comp[s] = cid
        stack2 = [s]
        while stack2:
            v = stack2.pop()
            for w in rev[v]:
                if comp[w] == -1:
                    comp[w] = cid
                    stack2.append(w)
        cid += 1
    return comp


def condensation(g: TimestampedGraph) -> list[int]:
    """Component id of every vertex of the current graph."""
    return _strong_components(g.n, g.eid)


def _search(
    g: TimestampedGraph, root: int, first: list[int], nxt: list[int], far: list[int]
) -> tuple[bytearray, array]:
    """Vertices ``root`` reaches in its snapshot along one orientation.

    Walks the graph's own adjacency lists (``first``/``nxt``) cut at the
    snapshot limit.  Returns the reached flags and, per vertex, the edge
    that first reached it (``NIL`` for the root and unreached vertices).
    """
    limit = g.center_ts[root]
    e_ts = g.e_ts
    seen = bytearray(g.n + 1)
    par = array("i", [NIL]) * (g.n + 1)
    seen[root] = 1
    stack = [root]
    while stack:
        v = stack.pop()
        e = first[v]
        while e != NIL and e_ts[e] <= limit:
            w = far[e]
            if not seen[w]:
                seen[w] = 1
                par[w] = e
                stack.append(w)
            e = nxt[e]
    return seen, par


@dataclass(frozen=True)
class ParallelGroup:
    """Live edges joining one ordered pair of current-graph components."""

    from_scc: int
    to_scc: int
    members: tuple[Edge, ...]

    @property
    def marked(self) -> Edge:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


class _RootView:
    __slots__ = ("g", "root", "limit", "desc", "out_par", "anc", "in_par", "_labels")

    def __init__(
        self,
        g: TimestampedGraph,
        root: int,
        desc: bytearray,
        out_par: array,
        anc: bytearray,
        in_par: array,
    ) -> None:
        self.g = g
        self.root = root
        self.limit = g.center_ts[root]
        self.desc = desc
        self.out_par = out_par
        self.anc = anc
        self.in_par = in_par
        self._labels: tuple[list[int], set[int], set[int]] | None = None

    def labels(self) -> tuple[list[int], set[int], set[int]]:
        """SCC labeling of the snapshot and its in-/out-witness components."""
        if self._labels is None:
            g, limit = self.g, self.limit
            snap = [(t, h) for (t, h), e in g.eid.items() if g.e_ts[e] <= limit]
            scc_of = _strong_components(g.n, snap)
            r = scc_of[self.root]
            in_wit: set[int] = set()
            out_wit: set[int] = set()
            for w, v in snap:
                cw, cv = scc_of[w], scc_of[v]
                if cw == cv or cw == r or cv == r:
                    continue
                if self.desc[w]:
                    in_wit.add(cv)
                if self.anc[v]:
                    out_wit.add(cw)
            self._labels = (scc_of, in_wit, out_wit)
        return self._labels

    @property
    def scc_of(self) -> list[int]:
        return self.labels()[0]


class SccSnapshots:
    """Snapshot reachability views plus the current-graph parallel-group table."""

    def __init__(self, g: TimestampedGraph) -> None:
        self.g = g
        self.views: dict[int, _RootView] = {}
        self.comp_cur: list[int] = list(range(g.n + 1))
        self.groups: dict[tuple[int, int], ParallelGroup] = {}
        self.refresh_groups()

    # ---- view construction ----

    def _build_view(
        self,
        root: int,
        old: _RootView | None = None,
        redo_out: bool = True,
        redo_in: bool = True,
    ) -> _RootView:
        """A view of ``root``'s snapshot, searching the sides asked for.

        A side not searched again is carried over from ``old``.
        """
        g = self.g
        if redo_out:
            desc, out_par = _search(g, root, g.out_first, g.out_nxt, g.e_head)
        else:
            desc, out_par = old.desc, old.out_par
        if redo_in:
            anc, in_par = _search(g, root, g.in_first, g.in_nxt, g.e_tail)
        else:
            anc, in_par = old.anc, old.in_par
        return _RootView(g, root, desc, out_par, anc, in_par)

    def rebuild(self, root: int) -> None:
        self.views[root] = self._build_view(root)
        self.refresh_groups()

    # ---- deletion ----

    def delete(self, removed_ids: Iterable[int]) -> None:
        """Replace every view whose snapshot held one of the removed ids.

        A side is searched again only when a removed id is the edge that
        reached its head (out-tree) or its tail (in-tree).
        """
        g = self.g
        e_ts, e_tail, e_head = g.e_ts, g.e_tail, g.e_head
        ids = list(removed_ids)
        views = self.views
        for root, old in views.items():
            hit = [e for e in ids if e_ts[e] <= old.limit]
            if not hit:
                continue
            redo_out = any(old.out_par[e_head[e]] == e for e in hit)
            redo_in = any(old.in_par[e_tail[e]] == e for e in hit)
            if redo_out or redo_in:
                views[root] = self._build_view(root, old, redo_out, redo_in)
            else:
                views[root] = _RootView(
                    g, root, old.desc, old.out_par, old.anc, old.in_par
                )
        self.refresh_groups()

    # ---- parallel groups on the current graph ----

    def refresh_groups(self) -> None:
        g = self.g
        comp = self.comp_cur = condensation(g)
        buckets: dict[tuple[int, int], list[tuple[int, Edge]]] = {}
        for (t, h), e in g.eid.items():
            cx, cy = comp[t], comp[h]
            if cx != cy:
                buckets.setdefault((cx, cy), []).append((g.e_ts[e], (t, h)))
        self.groups = {}
        for key, tagged in buckets.items():
            tagged.sort(key=lambda item: (item[0], item[1]))
            self.groups[key] = ParallelGroup(
                key[0], key[1], tuple(e for _, e in tagged)
            )

    # ---- queries ----

    def in_query(self, y: int, root: int) -> bool:
        """Is y's snapshot component entered from a proper descendant of root?"""
        view = self.views.get(root)
        if view is None:
            return False
        scc_of, in_wit, _ = view.labels()
        return scc_of[y] != scc_of[root] and scc_of[y] in in_wit

    def out_query(self, x: int, root: int) -> bool:
        """Is x's snapshot component left toward a proper ancestor of root?"""
        view = self.views.get(root)
        if view is None:
            return False
        scc_of, _, out_wit = view.labels()
        return scc_of[x] != scc_of[root] and scc_of[x] in out_wit
