"""Transitive reduction maintenance for general directed graphs.

Edges inside a strongly connected component are covered by an
inclusion-minimal strongly connected spanning subset of that component;
edges between components are covered by per-edge redundancy ledgers plus
the one marked representative of every parallel group.  This module owns
the minimal spanning-subset routine, ``general_reduction``, which
assembles both parts for ``TrGeneral`` and ``AlgebraicGeneral`` alike
(each engine supplies the test deciding whether a parallel group keeps
its representative), and the combinatorial engine, whose
``is_redundant`` answers for an edge inside one component with the
``has_detour`` path probe of ``scc_snapshots``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .errors import BadUpdate, MissingEdge, NotStronglyConnected
from .graph_core import Edge, TimestampedGraph
from .scc_snapshots import SccSnapshots, has_detour


def _covers_strongly(vertices: Sequence[int], edges: Iterable[Edge]) -> bool:
    """True iff the edge set strongly connects all the given vertices."""
    verts = list(vertices)
    if len(verts) <= 1:
        return True
    out: dict[int, list[int]] = {v: [] for v in verts}
    rev: dict[int, list[int]] = {v: [] for v in verts}
    for t, h in edges:
        out[t].append(h)
        rev[h].append(t)
    start = verts[0]
    for adj in (out, rev):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(verts):
            return False
    return True


def minimal_scss(
    scc_vertices: Sequence[int], scc_edges: Sequence[Edge]
) -> set[Edge]:
    """Inclusion-minimal strongly connected spanning subset of one SCC.

    Edges are probed for removal in the order given (callers pass them
    oldest first), so the output is deterministic for a fixed input order.
    Removing any member of the result disconnects the component.

    Each probe rests on one identity: if K is strongly connected, then
    K - (u, v) is strongly connected iff u still reaches v in K - (u, v).
    The kept set stays strongly connected after every probe, so a probe
    drops v from u's heads and searches from u, stopping at v; it puts v
    back only if the search did not find it.  A repeated edge that an
    earlier probe dropped is skipped.  An endpoint outside
    ``scc_vertices`` raises ``BadUpdate``.
    """
    verts = list(scc_vertices)
    edges = list(scc_edges)
    heads: dict[int, set[int]] = {v: set() for v in verts}
    for t, h in edges:
        if t not in heads or h not in heads:
            raise BadUpdate(f"edge ({t}, {h}) leaves the given vertices")
        heads[t].add(h)
    if not _covers_strongly(verts, edges):
        raise NotStronglyConnected(f"{len(verts)} vertices not strongly connected")
    for u, v in edges:
        if v not in heads[u]:
            continue
        heads[u].discard(v)
        seen = {u}
        stack = [u]
        while stack and v not in seen:
            for w in heads[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if v not in seen:
            heads[u].add(v)
    return {(t, h) for t, hs in heads.items() for h in hs}


def general_reduction(
    g: TimestampedGraph,
    comp: Sequence[int],
    keep_group: Callable[[list[Edge], int, int], bool],
) -> list[Edge]:
    """The reduction of ``g`` under the component labeling ``comp``.

    Inside each component: the minimal spanning subset of its edges,
    probed oldest first.  Between components: the oldest member of each
    parallel group, ordered by ``(timestamp, edge)``, whenever
    ``keep_group(members, from_comp, to_comp)`` says the group keeps it.
    """
    members: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        members.setdefault(comp[v], []).append(v)
    intra: dict[int, list[tuple[int, Edge]]] = {}
    groups: dict[tuple[int, int], list[tuple[int, Edge]]] = {}
    for (t, h), e in g.eid.items():
        ct, ch = comp[t], comp[h]
        if ct == ch:
            intra.setdefault(ct, []).append((g.e_ts[e], (t, h)))
        else:
            groups.setdefault((ct, ch), []).append((g.e_ts[e], (t, h)))
    result: list[Edge] = []
    for cid, verts in members.items():
        if len(verts) > 1:
            tagged = sorted(intra.get(cid, []))
            result.extend(minimal_scss(verts, [e for _, e in tagged]))
    for (cf, ct), tagged in groups.items():
        edges = [e for _, e in sorted(tagged)]
        if keep_group(edges, cf, ct):
            result.append(edges[0])
    return sorted(result)


class TrGeneral:
    """Combinatorial transitive-reduction engine for general digraphs.

    Inter-component edges carry the same three ledgers as the DAG engine,
    but every component membership test is taken in the current graph and
    the witness roots range over all centered vertices sharing the
    relevant endpoint component.  The ledgers are re-aggregated from the
    per-root snapshot views after every update, over the inter-component
    edges only, collected once per update: one sweep per view counts the
    edges it covers and marks which (root component, target component)
    pairs have an in- or out-witness, then each inter-component edge
    reads its two witness bits off those tables.  The reduction is the
    union of the per-component minimal strongly connected subsets and the
    marked group representatives whose ledgers are all zero.
    """

    def __init__(self, n: int) -> None:
        self.g = TimestampedGraph(n)
        self.scc = SccSnapshots(self.g)
        self.count: dict[Edge, int] = {}
        self.tx: dict[Edge, bool] = {}
        self.ty: dict[Edge, bool] = {}

    # ---- updates ----

    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        self.g.apply_insert_centered(center, new_edges)
        self.scc.rebuild(center)
        self._reaggregate()

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        ids = self.g.apply_delete(removed)
        self.scc.delete(ids)
        self._reaggregate()

    def _reaggregate(self) -> None:
        g = self.g
        comp = self.scc.comp_cur
        e_ts = g.e_ts
        inter: list[tuple[int, int, int, int, int]] = []
        for (t, h), e in g.eid.items():
            ct, ch = comp[t], comp[h]
            if ct != ch:
                inter.append((t, h, e_ts[e], ct, ch))
        counts = [0] * len(inter)
        met_in: set[tuple[int, int]] = set()
        met_out: set[tuple[int, int]] = set()
        for root, view in self.scc.views.items():
            r = comp[root]
            desc, anc, limit = view.desc, view.anc, view.limit
            for i, (t, h, ts, ct, ch) in enumerate(inter):
                if ts > limit:
                    continue
                if ct != r and desc[t]:
                    met_in.add((r, ch))
                if ch != r and anc[h]:
                    met_out.add((r, ct))
                if ct != r and ch != r and anc[t] and desc[h]:
                    counts[i] += 1
        self.count = {(t, h): c for (t, h, _, _, _), c in zip(inter, counts)}
        self.tx = {(t, h): (ct, ch) in met_in for t, h, _, ct, ch in inter}
        self.ty = {(t, h): (ch, ct) in met_out for t, h, _, ct, ch in inter}

    # ---- queries ----

    def tr_edges(self) -> list[Edge]:
        count, tx, ty = self.count, self.tx, self.ty

        def keep_group(members: list[Edge], cf: int, ct: int) -> bool:
            e = members[0]
            return count[e] == 0 and not tx[e] and not ty[e]

        return general_reduction(self.g, self.scc.comp_cur, keep_group)

    def is_redundant(self, x: int, y: int) -> bool:
        if (x, y) not in self.g.eid:
            raise MissingEdge(f"edge ({x}, {y}) is not live")
        comp = self.scc.comp_cur
        if comp[x] == comp[y]:
            return has_detour(self.g, x, y)
        e = (x, y)
        group = self.scc.groups[(comp[x], comp[y])]
        return bool(group.size > 1 or self.count[e] or self.tx[e] or self.ty[e])

    def ledgers(self) -> tuple[dict[Edge, int], dict[Edge, bool], dict[Edge, bool]]:
        """Live inter-component edge view of the maintained ledgers."""
        return dict(self.count), dict(self.tx), dict(self.ty)
