"""Per-root reachability views over the nested snapshot family.

Each centered vertex keeps a view of its frozen snapshot: the root's
descendant and ancestor sets, plus, for every reached vertex, the
snapshot edge that first reached it in the forward and in the backward
breadth-first search.  Those parent edges form an out-tree spanning the
descendants and an in-tree spanning the ancestors; breadth-first order
keeps the trees shallow.  The snapshot's SCC partition and the per-SCC
witness flags (is a component entered from a proper descendant of the
root, or left toward a proper ancestor) are computed on the first query
of a view and kept until the view is replaced.

A deletion replaces the view of every snapshot that held a removed
edge.  A side whose tree lost no edge is carried over unchanged: the
tree still spans the same set in the smaller snapshot, and a subgraph
cannot reach more (Even and Shiloach, 1981).  A side whose tree lost
edges repairs the tree first, in one pass in the order the edges were
removed: each vertex that lost its parent edge takes a live snapshot
edge from a reached vertex whose tree path to the root avoids every
vertex still waiting for a parent.  When every lost vertex finds one,
each old tree path is rerouted over live edges, so the reached set is
unchanged and only the parent array is new.  A side where some lost
vertex finds no parent in that one pass is searched again.  Only such a
search can shrink a view's reach, so ``delete`` reports those views.

The condensation of the current graph is kept alongside, and recomputed
only when an update can change it: an insertion whose new edge joins
two different components and lies on a cycle, or a deletion of an edge
inside a component whose tail no longer reaches its head.  The parallel
edge groups are not kept: all live edges joining the same ordered pair
of components form one group, ordered by age, with the front member the
marked one, and ``split_edges`` forms them from the condensation when
they are asked for.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph_core import NIL, Edge, TimestampedGraph, has_detour


def _strong_components(g: TimestampedGraph, limit: int) -> list[int]:
    """Kosaraju's two-pass labeling of the snapshot cut at ``limit``,
    vertex -> component id, over the graph's own out- and in-lists."""
    n, e_ts = g.n, g.e_ts
    first, nxt, far, _ = g.fwd
    cursor = list(first)
    seen = bytearray(n + 1)
    order: list[int] = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        seen[s] = 1
        stack = [s]
        while stack:
            v = stack[-1]
            e = cursor[v]
            while e != NIL and e_ts[e] <= limit and seen[far[e]]:
                e = nxt[e]
            if e == NIL or e_ts[e] > limit:
                order.append(stack.pop())
            else:
                cursor[v], w = nxt[e], far[e]
                seen[w] = 1
                stack.append(w)
    first, nxt, far, _ = g.bwd
    comp = [-1] * (n + 1)
    cid = 0
    for s in reversed(order):
        if comp[s] != -1:
            continue
        comp[s] = cid
        stack = [s]
        while stack:
            e = first[stack.pop()]
            while e != NIL and e_ts[e] <= limit:
                w = far[e]
                if comp[w] == -1:
                    comp[w] = cid
                    stack.append(w)
                e = nxt[e]
        cid += 1
    return comp


def condensation(g: TimestampedGraph) -> list[int]:
    """Component id of every vertex of the current graph."""
    return _strong_components(g, g.last_ts)


def _search(g: TimestampedGraph, root: int, walk: tuple) -> tuple[bytearray, array]:
    """Vertices ``root`` reaches in its snapshot along the orientation ``walk``.

    The lists are cut at the snapshot limit and walked breadth first.
    Returns the reached flags and, per vertex, the edge that first
    reached it (``NIL`` for the root and unreached vertices).
    """
    first, nxt, far, _ = walk
    limit, e_ts = g.center_ts[root], g.e_ts
    seen = bytearray(g.n + 1)
    par = array("i", [NIL]) * (g.n + 1)
    seen[root] = 1
    queue = [root]
    # the loop also visits the vertices appended while it runs
    for v in queue:
        e = first[v]
        while e != NIL and e_ts[e] <= limit:
            w = far[e]
            if not seen[w]:
                seen[w] = 1
                par[w] = e
                queue.append(w)
            e = nxt[e]
    return seen, par


def _reparent(
    g: TimestampedGraph,
    root: int,
    side: tuple[bytearray, array],
    hit: list[int],
    back: tuple,
) -> tuple[bytearray, array] | None:
    """A view side ``(reached, par)`` with its tree edges in ``hit`` replaced.

    ``back`` is the orientation opposite to the side's search: its lists
    hold the edges that could reach a vertex, and the tree path of a
    vertex steps to the ``far`` end of its tree edge.  A vertex whose tree
    edge is in ``hit`` takes the first live snapshot edge from a reached
    vertex whose tree path to ``root`` avoids every vertex still waiting
    for a parent; that path can no longer change, so the tree stays
    acyclic and spans the same reached set.  Each lost vertex is tried
    once, in ``hit`` order.  ``par`` is returned as it is when no tree
    edge was hit, else as a repaired copy; the result is ``None`` as soon
    as a lost vertex finds no parent.
    """
    reached, par = side
    first, nxt, far, near = back
    lost = [near[e] for e in hit if par[near[e]] == e]
    if not lost:
        return side
    limit, e_ts = g.center_ts[root], g.e_ts
    par = array("i", par)
    waiting = bytearray(g.n + 1)
    for v in lost:
        waiting[v] = 1
    for v in lost:
        e = first[v]
        while e != NIL and e_ts[e] <= limit:
            u = far[e]
            if reached[u]:
                w = u
                while w != root and not waiting[w]:
                    w = far[par[w]]
                if w == root:
                    par[v] = e
                    waiting[v] = 0
                    break
            e = nxt[e]
        else:
            return None
    return reached, par


def split_edges(
    g: TimestampedGraph, comp: Sequence[int]
) -> tuple[dict[int, list[Edge]], dict[tuple[int, int], list[Edge]]]:
    """The live edges inside each component, and the group of each ordered
    pair of components, every list in ``g.eid`` order, which is age order."""
    intra: dict[int, list[Edge]] = {}
    inter: dict[tuple[int, int], list[Edge]] = {}
    for t, h in g.eid:
        ct, ch = comp[t], comp[h]
        if ct == ch:
            intra.setdefault(ct, []).append((t, h))
        else:
            inter.setdefault((ct, ch), []).append((t, h))
    return intra, inter


@dataclass(frozen=True)
class ParallelGroup:
    """Live edges joining one ordered pair of current-graph components."""

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
            g, limit, e_ts = self.g, self.limit, self.g.e_ts
            scc_of = _strong_components(g, limit)
            r = scc_of[self.root]
            in_wit: set[int] = set()
            out_wit: set[int] = set()
            for (w, v), e in g.eid.items():
                cw, cv = scc_of[w], scc_of[v]
                if e_ts[e] > limit or cw == cv or cw == r or cv == r:
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
    """Snapshot reachability views plus the current graph's condensation."""

    def __init__(self, g: TimestampedGraph) -> None:
        self.g = g
        self.views: dict[int, _RootView] = {}
        self.refresh_groups()

    # ---- view construction ----

    def _build_view(
        self,
        root: int,
        out_side: tuple[bytearray, array] | None = None,
        in_side: tuple[bytearray, array] | None = None,
    ) -> _RootView:
        """A view of ``root``'s snapshot.

        A side given as its (reached flags, parent edges) is kept; a side
        given as ``None`` is searched.
        """
        g = self.g
        desc, out_par = out_side or _search(g, root, g.fwd)
        anc, in_par = in_side or _search(g, root, g.bwd)
        return _RootView(g, root, desc, out_par, anc, in_par)

    def rebuild(self, root: int) -> None:
        """Search ``root``'s snapshot after an insertion centered at it.

        The new edges are the trailing ids, which carry the root's stamp.
        The snapshot is the whole current graph, so the new view tells
        which of them lie on a cycle: (t, h), with t or h the root, does
        iff the root reaches t and h reaches the root.  Only such an edge
        between two components merges components, and only then is the
        condensation recomputed.
        """
        view = self.views[root] = self._build_view(root)
        g, comp = self.g, self.comp_cur
        # ids follow age, so e_ts is sorted
        for e in range(bisect_left(g.e_ts, g.center_ts[root]), len(g.e_ts)):
            t, h = g.e_tail[e], g.e_head[e]
            if comp[t] != comp[h] and view.desc[t] and view.anc[h]:
                self.refresh_groups()
                return

    # ---- deletion ----

    def delete(self, removed_ids: Iterable[int]) -> list[tuple[_RootView, _RootView]]:
        """Replace every view whose snapshot held one of the removed ids.

        A side whose tree lost an edge is repaired by ``_reparent``, and
        searched again only when that fails; a view with both sides
        repaired keeps its reached arrays.  Returns the ``(old, new)`` pair
        of each view with a side searched again.  The condensation is then
        recomputed only if a removed edge inside a component leaves its tail
        without a detour to its head; with one, every old path can take it.
        """
        g, e_ts = self.g, self.g.e_ts
        ids = list(removed_ids)
        views = self.views
        searched = []
        for root, old in views.items():
            hit = [e for e in ids if e_ts[e] <= old.limit]
            if not hit:
                continue
            out_side = _reparent(g, root, (old.desc, old.out_par), hit, g.bwd)
            in_side = _reparent(g, root, (old.anc, old.in_par), hit, g.fwd)
            if out_side and in_side:
                views[root] = _RootView(g, root, *out_side, *in_side)
            else:
                views[root] = self._build_view(root, out_side, in_side)
                searched.append((old, views[root]))
        comp, removed = self.comp_cur, [(g.e_tail[e], g.e_head[e]) for e in ids]
        if any(comp[t] == comp[h] and not has_detour(g, t, h) for t, h in removed):
            self.refresh_groups()
        return searched

    # ---- the condensation and its parallel groups ----

    def refresh_groups(self) -> None:
        """Recompute the condensation; the layer trace times it by this name."""
        self.comp_cur = condensation(self.g)

    @property
    def groups(self) -> dict[tuple[int, int], ParallelGroup]:
        """The parallel groups of the current graph, formed afresh on each
        read; the checks and tests read them, the engines do not."""
        _, inter = split_edges(self.g, self.comp_cur)
        return {key: ParallelGroup(tuple(m)) for key, m in inter.items()}

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
