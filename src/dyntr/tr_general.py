"""Transitive reduction maintenance for general directed graphs.

Edges inside a strongly connected component are covered by an
inclusion-minimal strongly connected spanning subset of that component;
edges between components are covered by per-edge redundancy ledgers plus
the one marked representative of every parallel group.  This module owns
the minimal spanning-subset routine.  It drops each edge (u, v) whose
removal leaves u reaching v, since a strongly connected K stays so
without (u, v) iff it does, and it asks that with a two-front probe: a
search forward from u and one backward from v, which meet iff u reaches
v.  It also owns ``general_reduction``, which assembles both parts for
``TrGeneral`` and ``AlgebraicGeneral`` alike (each engine supplies the
test deciding whether a parallel group keeps its representative), and
the combinatorial engine, whose ``is_redundant`` answers for an edge
inside one component with the ``has_detour`` path probe of
``graph_core``.  ``general_reduction`` splits the live edges by
component with ``split_edges`` of ``scc_snapshots``, the split that also
builds the parallel-group table.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .errors import BadUpdate, MissingEdge, NotStronglyConnected
from .graph_core import Edge, TimestampedGraph, _count, _fit_in_memory, _vertex, has_detour
from .scc_snapshots import SccSnapshots, split_edges

# construction peak per vertex, by tracemalloc at n = 200,000: the graph,
# the component list and the first condensation
_BYTES_PER_VERTEX = 169


def _reached(adj: dict[int, set[int]], src: int) -> set[int]:
    """Vertices ``src`` reaches over ``adj``."""
    seen = {src}
    stack = [src]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _meets(
    heads: dict[int, set[int]], tails: dict[int, set[int]], u: int, v: int
) -> bool:
    """True iff ``u`` reaches ``v`` over ``heads``, whose mirror is ``tails``.

    The fronts from ``v`` over ``tails`` and from ``u`` over ``heads``
    expand one vertex each in turn, backward first; they meet when one
    side newly sees a vertex the other side has seen.
    """
    if u == v:
        return True
    fwd_seen, bwd_seen = {u}, {v}
    fwd, bwd = [u], [v]
    while True:
        for w in tails[bwd.pop()]:
            if w not in bwd_seen:
                if w in fwd_seen:
                    return True
                bwd_seen.add(w)
                bwd.append(w)
        if not bwd:
            return False
        for w in heads[fwd.pop()]:
            if w not in fwd_seen:
                if w in bwd_seen:
                    return True
                fwd_seen.add(w)
                fwd.append(w)
        if not fwd:
            return False


def minimal_scss(
    scc_vertices: Iterable[int], scc_edges: Iterable[Edge]
) -> set[Edge]:
    """Inclusion-minimal strongly connected spanning subset of one SCC.

    Edges are probed for removal in the order given (callers pass them
    oldest first), so the output is deterministic for a fixed input order.
    Removing any member of the result disconnects the component.

    Each probe rests on one identity: if K is strongly connected, then
    K - (u, v) is strongly connected iff u still reaches v in K - (u, v).
    The kept set stays strongly connected after every probe, so a probe
    drops (u, v) from the per-vertex ``heads`` and from their mirror
    ``tails``, and asks ``_meets`` whether u still reaches v: a search
    forward from u and one backward from v, which meet iff it does.  The
    edge goes back only if the two fronts did not meet.  A kept edge's
    probe thus ends as soon as either side runs out, after one step when
    v has no other kept in-edge, instead of after everything u reaches.
    A repeated edge that an earlier probe dropped is skipped.  A repeated
    vertex, an edge that is not a pair, or an endpoint outside
    ``scc_vertices`` raises ``BadUpdate``.
    """
    verts = list(scc_vertices)
    edges = list(scc_edges)
    heads: dict[int, set[int]] = {}
    for v in verts:
        if v in heads:
            raise BadUpdate(f"vertex {v} repeated")
        heads[v] = set()
    tails: dict[int, set[int]] = {v: set() for v in verts}
    for e in edges:
        try:
            t, h = e
        except (TypeError, ValueError):
            raise BadUpdate(f"an edge is a (tail, head) pair, got {e!r}") from None
        if t not in heads or h not in heads:
            raise BadUpdate(f"edge ({t}, {h}) leaves the given vertices")
        heads[t].add(h)
        tails[h].add(t)
    if len(verts) > 1 and any(
        len(_reached(adj, verts[0])) != len(verts) for adj in (heads, tails)
    ):
        raise NotStronglyConnected(f"{len(verts)} vertices not strongly connected")
    for u, v in edges:
        if v not in heads[u]:
            continue
        heads[u].discard(v)
        tails[v].discard(u)
        if not _meets(heads, tails, u, v):
            heads[u].add(v)
            tails[v].add(u)
    return {(t, h) for t, hs in heads.items() for h in hs}


def general_reduction(
    g: TimestampedGraph,
    comp: Sequence[int],
    keep_group: Callable[[list[Edge], int, int], bool],
) -> list[Edge]:
    """The reduction of ``g`` under ``comp``, a component label per vertex.

    Inside each component with an edge: the minimal spanning subset of
    its edges, probed oldest first, over their tails, which are all its
    vertices.  Between components: the oldest member of each parallel
    group, ordered by ``(timestamp, edge)``, whenever
    ``keep_group(members, from_label, to_label)`` says the group keeps it.
    """
    intra, groups = split_edges(g, comp)
    result: list[Edge] = []
    for edges in intra.values():
        result.extend(minimal_scss({t for t, _ in edges}, edges))
    for (cf, ct), edges in groups.items():
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
    edges only, read off the group table: one sweep per view counts the
    edges it covers and marks which (root component, target component)
    pairs have an in- or out-witness, then each inter-component edge
    reads its two witness bits off those tables.  The reduction is the
    union of the per-component minimal strongly connected subsets and the
    marked group representatives whose ledgers are all zero.
    """

    def __init__(self, n: int) -> None:
        n = _count(n, "vertex count")
        _fit_in_memory(_BYTES_PER_VERTEX * n, f"TrGeneral on {n} vertices")
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
        comp = self.scc.comp_cur
        e_ts, eid = self.g.e_ts, self.g.eid
        inter = [
            (t, h, e_ts[eid[(t, h)]], ct, ch)
            for (ct, ch), group in self.scc.groups.items()
            for t, h in group.members
        ]
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
        if type(x) is not int or type(y) is not int:
            x, y = _vertex(x), _vertex(y)
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
