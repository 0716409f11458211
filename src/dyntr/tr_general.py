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
builds the parallel-group table, and reuses the spanning subset of a
component whose edges are unchanged since the engine's previous call.

The engine keeps its inter-component ledgers as counters over the
per-root snapshot views, keyed by edge id.  An insertion swaps the
center's view; a deletion takes the removed edges' shares out, then
swaps the views that ``SccSnapshots.delete`` reports as searched again.
Only an update that changes the condensation, and with it every
component label, recounts all views.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .errors import BadUpdate, NotStronglyConnected
from .graph_core import Edge, TimestampedGraph, _count, _fit_in_memory, _vertex, has_detour
from .scc_snapshots import SccSnapshots, _RootView, split_edges

# construction peak per vertex, by tracemalloc at n = 200,000: the graph,
# the component list and the first condensation
_BYTES_PER_VERTEX = 169

# bytes per vertex that a newly centered root's view adds, by tracemalloc
# at n = 4000 over 200 new roots: 10.8 at rest, 11.1 at an insertion's peak
_BYTES_PER_ROOT = 12


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
    vertex, an edge that is not a pair, an endpoint outside
    ``scc_vertices``, an unhashable vertex or an argument that is not
    iterable raises ``BadUpdate``.
    """
    try:
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
    except TypeError as exc:
        # a non-iterable argument or an unhashable vertex
        raise BadUpdate(f"bad vertices or edges: {exc}") from None
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
    kept: dict[tuple[Edge, ...], set[Edge]],
) -> list[Edge]:
    """The reduction of ``g`` under ``comp``, a component label per vertex.

    Inside each component with an edge: the minimal spanning subset of
    its edges, probed oldest first, over their tails, which are all its
    vertices.  ``kept``, owned by the caller, maps a component's edges in
    age order to that subset: a component whose edges match a key exactly
    reuses its subset, since ``minimal_scss`` is deterministic in its
    input order, and afterwards ``kept`` holds only this call's components.
    Between components: the oldest member of each parallel group, ordered
    by ``(timestamp, edge)``, whenever ``keep_group(members, from_label,
    to_label)`` says the group keeps it.
    """
    intra, groups = split_edges(g, comp)
    result: list[Edge] = []
    used: dict[tuple[Edge, ...], set[Edge]] = {}
    for edges in intra.values():
        key = tuple(edges)
        scss = kept.get(key)
        if scss is None:
            scss = minimal_scss({t for t, _ in edges}, edges)
        used[key] = scss
        result.extend(scss)
    kept.clear()
    kept.update(used)
    for (cf, ct), edges in groups.items():
        if keep_group(edges, cf, ct):
            result.append(edges[0])
    return sorted(result)


class TrGeneral:
    """Combinatorial transitive-reduction engine for general digraphs.

    Inter-component edges carry the same three ledgers as the DAG engine,
    but every component membership test is taken in the current graph and
    the witness roots range over all centered vertices sharing the
    relevant endpoint component.  The ledgers are counters over the
    per-root snapshot views: ``count[e]`` per live inter-component edge
    id, and ``n_in``/``n_out``, keyed by (root component, component),
    which count the (view, edge) witnesses of an edge entering or leaving
    a component.  An edge from component ct to ch has ``tx`` iff
    ``n_in[(ct, ch)] > 0`` and ``ty`` iff ``n_out[(ch, ct)] > 0``.  With
    the condensation unchanged, an insertion swaps the center's old view
    for its new one, the only view that holds the new edges; a deletion
    takes the removed edges' shares out under the views in place, then
    swaps each view that ``SccSnapshots.delete`` reports as searched
    again.  A new condensation moves every label, so the full pass counts
    all views afresh.  The reduction is the union of the per-component
    minimal strongly connected subsets and the marked group
    representatives whose ledgers are all zero.
    """

    def __init__(self, n: int) -> None:
        n = _count(n, "vertex count")
        _fit_in_memory(_BYTES_PER_VERTEX * n, f"TrGeneral on {n} vertices")
        self.g = TimestampedGraph(n)
        self.scc = SccSnapshots(self.g)
        # each component's minimal spanning subset, for general_reduction
        self._scss: dict[tuple[Edge, ...], set[Edge]] = {}
        self._full_pass()

    # ---- updates ----

    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        g, scc, comp = self.g, self.scc, self.scc.comp_cur
        center = _vertex(center)
        old = scc.views.get(center)
        if old is None:
            # a new root's view, checked before the graph changes
            k = len(scc.views) + 1
            _fit_in_memory(_BYTES_PER_ROOT * (g.n + 1) * k, f"{k} roots on {g.n} vertices")
        ids = g.apply_insert_centered(center, new_edges)
        scc.rebuild(center)
        if scc.comp_cur is not comp:
            self._full_pass()
            return
        for e in ids:
            if comp[g.e_tail[e]] != comp[g.e_head[e]]:
                self.count[e] = 0
        # the new edges carry the newest stamp, so no other view holds them
        self._swap(old, scc.views[center])

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        ids = self.g.apply_delete(removed)
        scc, comp, count = self.scc, self.scc.comp_cur, self.count
        gone = [e for e in ids if e in count]
        if gone:
            # under the views from before the deletion, which held the edges
            for view in scc.views.values():
                self._contribute(view, gone, -1)
            for e in gone:
                del count[e]
        searched = scc.delete(ids)
        if scc.comp_cur is not comp:
            self._full_pass()
            return
        for old, new in searched:
            self._swap(old, new)

    def _swap(self, old: _RootView | None, new: _RootView) -> None:
        """Replace ``old``'s share (none for a new root) by ``new``'s."""
        if old is not None:
            self._contribute(old, self.count, -1)
        self._contribute(new, self.count, 1)

    def _full_pass(self) -> None:
        """Count every view afresh, on a new condensation."""
        eid = self.g.eid
        self.count: dict[int, int] = {
            eid[m]: 0 for group in self.scc.groups.values() for m in group.members
        }
        self.n_in: dict[tuple[int, int], int] = {}
        self.n_out: dict[tuple[int, int], int] = {}
        for view in self.scc.views.values():
            self._contribute(view, self.count, 1)

    def _contribute(self, view: _RootView, ids: Iterable[int], sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) a view's share over edge ids ``ids``.

        An edge (t, h) of the view's snapshot, from component ct to ch,
        with r the root's component: t reached from the root is an
        in-witness for (r, ch) when ct != r; h reaching the root is an
        out-witness for (r, ct) when ch != r; and the root counts the edge
        when it lies outside both components and its tail is an ancestor
        and its head a descendant.
        """
        g, comp = self.g, self.scc.comp_cur
        e_tail, e_head, e_ts = g.e_tail, g.e_head, g.e_ts
        r = comp[view.root]
        desc, anc, limit = view.desc, view.anc, view.limit
        count, n_in, n_out = self.count, self.n_in, self.n_out
        for e in ids:
            if e_ts[e] > limit:
                continue
            t, h = e_tail[e], e_head[e]
            ct, ch = comp[t], comp[h]
            if ct != r:
                if desc[t]:
                    n_in[(r, ch)] = n_in.get((r, ch), 0) + sign
                if ch != r and anc[t] and desc[h]:
                    count[e] += sign
            if ch != r and anc[h]:
                n_out[(r, ct)] = n_out.get((r, ct), 0) + sign

    # ---- queries ----

    def _zero(self, e: int, ct: int, ch: int) -> bool:
        """True iff all three ledgers of edge id ``e``, from component ct to
        ch, are zero."""
        return not (self.count[e] or self.n_in.get((ct, ch)) or self.n_out.get((ch, ct)))

    def tr_edges(self) -> list[Edge]:
        eid = self.g.eid

        def keep_group(members: list[Edge], cf: int, ct: int) -> bool:
            return self._zero(eid[members[0]], cf, ct)

        return general_reduction(self.g, self.scc.comp_cur, keep_group, self._scss)

    def is_redundant(self, x: int, y: int) -> bool:
        if type(x) is not int or type(y) is not int:
            x, y = _vertex(x), _vertex(y)
        e = self.g.eid.get((x, y))
        if e is None:
            raise self.g.not_live(x, y)
        comp = self.scc.comp_cur
        cx, cy = comp[x], comp[y]
        if cx == cy:
            return has_detour(self.g, x, y)
        return self.scc.groups[(cx, cy)].size > 1 or not self._zero(e, cx, cy)

    def ledgers(self) -> tuple[dict[Edge, int], dict[Edge, bool], dict[Edge, bool]]:
        """Live inter-component edge view of the maintained ledgers."""
        g, comp, n_in, n_out = self.g, self.scc.comp_cur, self.n_in, self.n_out
        count = {(g.e_tail[e], g.e_head[e]): c for e, c in self.count.items()}
        tx = {(t, h): bool(n_in.get((comp[t], comp[h]))) for t, h in count}
        ty = {(t, h): bool(n_out.get((comp[h], comp[t]))) for t, h in count}
        return count, tx, ty
