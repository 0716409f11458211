"""Per-root SCC views over the nested snapshot family.

Each centered vertex keeps a view of its frozen snapshot: the SCC
partition, descendant/ancestor sets, and per-SCC witness flags answering
in O(1) whether a component is entered from a proper descendant of the
root (or left toward a proper ancestor).  A deletion rebuilds from
scratch the view of every snapshot that held a removed edge; every other
view is left as it was.

A global table of parallel edge groups is kept alongside, on the current
graph: all live edges joining the same ordered pair of components form
one group, ordered by age, and the front member is the marked one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import MissingEdge, NotInterScc
from .graph_core import Edge, TimestampedGraph


def _strong_components(n: int, out_adj: list[list[int]]) -> list[int]:
    """Kosaraju's two-pass component labeling, vertex -> component id."""
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
    rev: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        for w in out_adj[v]:
            rev[w].append(v)
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
    out_adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for t, h in g.eid:
        out_adj[t].append(h)
    return _strong_components(g.n, out_adj)


def _bfs_flags(n: int, adj: list[list[int]], src: int) -> bytearray:
    flags = bytearray(n + 1)
    flags[src] = 1
    frontier = [src]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if not flags[w]:
                flags[w] = 1
                frontier.append(w)
    return flags


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
    __slots__ = ("root", "limit", "scc_of", "desc", "anc", "in_wit", "out_wit")

    def __init__(
        self,
        root: int,
        limit: int,
        scc_of: list[int],
        desc: bytearray,
        anc: bytearray,
        in_wit: set[int],
        out_wit: set[int],
    ) -> None:
        self.root = root
        self.limit = limit
        self.scc_of = scc_of
        self.desc = desc
        self.anc = anc
        self.in_wit = in_wit
        self.out_wit = out_wit

    def in_answer(self, y: int) -> bool:
        c = self.scc_of[y]
        return c != self.scc_of[self.root] and c in self.in_wit

    def out_answer(self, x: int) -> bool:
        c = self.scc_of[x]
        return c != self.scc_of[self.root] and c in self.out_wit


class SccSnapshots:
    """Snapshot SCC views plus the current-graph parallel-group table."""

    def __init__(self, g: TimestampedGraph) -> None:
        self.g = g
        self.views: dict[int, _RootView] = {}
        self.comp_cur: list[int] = list(range(g.n + 1))
        self.groups: dict[tuple[int, int], ParallelGroup] = {}
        self.refresh_groups()

    # ---- view construction ----

    def _build_view(self, root: int) -> _RootView:
        g = self.g
        n = g.n
        limit = g.center_ts[root]
        out_adj: list[list[int]] = [[] for _ in range(n + 1)]
        in_adj: list[list[int]] = [[] for _ in range(n + 1)]
        snap: list[Edge] = []
        for (t, h), e in g.eid.items():
            if g.e_ts[e] <= limit:
                out_adj[t].append(h)
                in_adj[h].append(t)
                snap.append((t, h))
        scc_of = _strong_components(n, out_adj)
        desc = _bfs_flags(n, out_adj, root)
        anc = _bfs_flags(n, in_adj, root)
        r = scc_of[root]
        in_wit: set[int] = set()
        out_wit: set[int] = set()
        for w, v in snap:
            cw, cv = scc_of[w], scc_of[v]
            if cw == cv:
                continue
            if cv != r and cw != r and desc[w]:
                in_wit.add(cv)
            if cw != r and cv != r and anc[v]:
                out_wit.add(cw)
        return _RootView(root, limit, scc_of, desc, anc, in_wit, out_wit)

    def rebuild(self, root: int) -> None:
        self.views[root] = self._build_view(root)
        self.refresh_groups()

    # ---- deletion ----

    def delete(self, removed_ids: Iterable[int]) -> None:
        """Rebuild every view whose snapshot held one of the removed ids."""
        g = self.g
        ids = list(removed_ids)
        for root, old in self.views.items():
            if any(g.e_ts[e] <= old.limit for e in ids):
                self.views[root] = self._build_view(root)
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

    def parallel_group(self, x: int, y: int) -> ParallelGroup:
        if (x, y) not in self.g.eid:
            raise MissingEdge(f"edge ({x}, {y}) is not live")
        cx, cy = self.comp_cur[x], self.comp_cur[y]
        if cx == cy:
            raise NotInterScc(f"edge ({x}, {y}) stays inside one component")
        return self.groups[(cx, cy)]

    # ---- queries ----

    def in_query(self, y: int, root: int) -> bool:
        view = self.views.get(root)
        return view is not None and view.in_answer(y)

    def out_query(self, x: int, root: int) -> bool:
        view = self.views.get(root)
        return view is not None and view.out_answer(x)
