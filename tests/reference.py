"""Definitional recomputations that the tests check the engines against.

Closures, path counts, snapshot edge sets, the per-edge ledgers of both
combinatorial engines and the per-root In/Out answers, each recomputed
from its set definition on plain ``(n, edges)`` data or on the public
surface of a :class:`~dyntr.graph_core.TimestampedGraph`.  Nothing here
shares a code path with the engines: the only package code it calls is
the graph store's public surface and the brute-force searches of
:mod:`dyntr.oracle`.
"""

from __future__ import annotations

from collections.abc import Iterable

from dyntr.errors import CyclicInput
from dyntr.graph_core import Edge, TimestampedGraph
from dyntr.oracle import _out_adjacency, _reachable, scc_partition, topological_order


def transitive_closure(n: int, edges: Iterable[Edge]) -> list[int]:
    """Reflexive reachability as per-vertex bitmasks (bit ``w`` = reaches w).

    Entry 0 is unused; ``reach[v] >> w & 1`` tells whether v reaches w.
    Computed by one graph search per vertex.
    """
    out = _out_adjacency(n, edges)
    reach = [0] * (n + 1)
    for s in range(1, n + 1):
        mask = 1 << s
        stack = [s]
        while stack:
            v = stack.pop()
            for w in out[v]:
                if not mask >> w & 1:
                    mask |= 1 << w
                    stack.append(w)
        reach[s] = mask
    return reach


def is_acyclic(n: int, edges: Iterable[Edge]) -> bool:
    return topological_order(n, list(edges)) is not None


def dag_path_count(n: int, edges: Iterable[Edge], u: int, v: int) -> int:
    """Exact number of directed u -> v paths in a DAG (empty path counts 1)."""
    es = list(edges)
    order = topological_order(n, es)
    if order is None:
        raise CyclicInput("dag_path_count requires an acyclic graph")
    out = _out_adjacency(n, es)
    count = [0] * (n + 1)
    count[u] = 1
    for z in order:
        c = count[z]
        if c:
            for w in out[z]:
                count[w] += c
    return count[v]


def snapshot_edges_of(g: TimestampedGraph, root: int) -> list[Edge]:
    """Edges of the root's frozen snapshot, read off the public surface."""
    limit = g.center_ts[root]
    return [e for e in g.edge_list() if g.ts_of(*e) <= limit]


def _centers(g: TimestampedGraph) -> list[int]:
    return [z for z in range(1, g.n + 1) if g.center_ts[z] > 0]


def _snapshot_reach(
    g: TimestampedGraph, root: int
) -> tuple[list[Edge], set[int], set[int]]:
    snap = snapshot_edges_of(g, root)
    out = _out_adjacency(g.n, snap)
    rev = _out_adjacency(g.n, [(h, t) for t, h in snap])
    return snap, _reachable(out, root), _reachable(rev, root)


def recompute_dag_ledgers(
    g: TimestampedGraph,
) -> tuple[dict[Edge, int], dict[Edge, bool], dict[Edge, bool]]:
    """Per-edge counters and witness bits, from their set definitions.

    For each live edge (x, y): the count is the number of third vertices z
    whose snapshot contains the edge with x an ancestor and y a descendant
    of z; the tail witness holds when y has an in-neighbor (within the
    snapshot of x) descending from x; the head witness is symmetric.
    """
    live = g.edge_list()
    count = {e: 0 for e in live}
    snaps: dict[int, tuple[list[Edge], set[int], set[int]]] = {}
    for z in _centers(g):
        snaps[z] = _snapshot_reach(g, z)
        snap, desc, anc = snaps[z]
        for x, y in snap:
            if x != z and y != z and x in anc and y in desc:
                count[(x, y)] += 1
    touch_x = {}
    touch_y = {}
    for x, y in live:
        tx = False
        if x in snaps:
            snap, desc, _ = snaps[x]
            tx = any(h == y and t != x and t in desc for t, h in snap)
        ty = False
        if y in snaps:
            snap, _, anc = snaps[y]
            ty = any(t == x and h != y and h in anc for t, h in snap)
        touch_x[(x, y)] = tx
        touch_y[(x, y)] = ty
    return count, touch_x, touch_y


def recompute_general_ledgers(
    g: TimestampedGraph,
) -> tuple[dict[Edge, int], dict[Edge, bool], dict[Edge, bool]]:
    """Inter-SCC edge ledgers from their definitions, SCCs taken in G.

    Counting roots must lie outside both endpoint components of the edge;
    witness roots must share the tail (resp. head) component and see an
    edge entering the head component (resp. leaving the tail component)
    from a vertex outside both involved components.
    """
    live = g.edge_list()
    n = g.n
    comp, _ = scc_partition(n, live)
    snaps = {z: _snapshot_reach(g, z) for z in _centers(g)}
    count: dict[Edge, int] = {}
    touch_x: dict[Edge, bool] = {}
    touch_y: dict[Edge, bool] = {}
    for x, y in live:
        cx, cy = comp[x], comp[y]
        if cx == cy:
            continue
        e = (x, y)
        ts_e = g.ts_of(x, y)
        c = 0
        tx = False
        ty = False
        for z, (snap, desc, anc) in snaps.items():
            cz = comp[z]
            if cz != cx and cz != cy:
                if ts_e <= g.center_ts[z] and x in anc and y in desc:
                    c += 1
            if cz == cx and not tx:
                tx = any(
                    comp[h] == cy and comp[t] != cy and comp[t] != cz and t in desc
                    for t, h in snap
                )
            if cz == cy and not ty:
                ty = any(
                    comp[t] == cx and comp[h] != cx and comp[h] != cz and h in anc
                    for t, h in snap
                )
        count[e] = c
        touch_x[e] = tx
        touch_y[e] = ty
    return count, touch_x, touch_y


def recompute_scc_inout(
    g: TimestampedGraph, root: int
) -> tuple[dict[int, bool], dict[int, bool]]:
    """Per-vertex In/Out answers for one snapshot, from their definitions."""
    n = g.n
    snap, desc, anc = _snapshot_reach(g, root)
    comp, _ = scc_partition(n, snap)
    r = comp[root]
    in_wit: set[int] = set()
    out_wit: set[int] = set()
    for w, v in snap:
        cw, cv = comp[w], comp[v]
        if cw == cv:
            continue
        if cw != r and w in desc:
            in_wit.add(cv)
        if cv != r and v in anc:
            out_wit.add(cw)
    in_map = {y: comp[y] != r and comp[y] in in_wit for y in range(1, n + 1)}
    out_map = {x: comp[x] != r and comp[x] in out_wit for x in range(1, n + 1)}
    return in_map, out_map
