"""Brute-force ground truth and randomized workload generation.

Every function here recomputes its answer from first principles on plain
``(n, edges)`` data (or on the public surface of a
:class:`~dyntr.graph_core.TimestampedGraph`), sharing no state and no code
path with the incremental engines, so engine outputs can be checked
against genuinely independent results.  ``OracleEngine`` puts those
recomputations behind the engine interface for ``dyntr run --engine
oracle``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import CyclicInput, MissingEdge
from .graph_core import (
    DeleteSet,
    Edge,
    InsertCentered,
    TimestampedGraph,
    Update,
    _vertex,
)


def _out_adjacency(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for t, h in edges:
        out[t].append(h)
    return out


def _reachable(out: list[list[int]], src: int) -> set[int]:
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


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


def brute_redundant(n: int, edges: Iterable[Edge], x: int, y: int) -> bool:
    """True iff a path x -> y survives after removing the edge (x, y)."""
    es = set(edges)
    if (x, y) not in es:
        raise MissingEdge(f"edge ({x}, {y}) is not present")
    es.discard((x, y))
    return y in _reachable(_out_adjacency(n, es), x)


def topological_order(n: int, edges: Iterable[Edge]) -> list[int] | None:
    """A topological order of the vertices, or None if the graph has a cycle."""
    out = _out_adjacency(n, edges)
    indeg = [0] * (n + 1)
    for adj in out:
        for w in adj:
            indeg[w] += 1
    order = [v for v in range(1, n + 1) if indeg[v] == 0]
    for v in order:
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order if len(order) == n else None


def is_acyclic(n: int, edges: Iterable[Edge]) -> bool:
    return topological_order(n, list(edges)) is not None


def brute_tr_dag(n: int, edges: Iterable[Edge]) -> set[Edge]:
    """The unique transitive reduction of a DAG: all irredundant edges."""
    es = list(edges)
    order = topological_order(n, es)
    if order is None:
        raise CyclicInput("brute_tr_dag requires an acyclic graph")
    out = _out_adjacency(n, es)
    desc = [0] * (n + 1)
    for v in reversed(order):
        mask = 1 << v
        for w in out[v]:
            mask |= desc[w]
        desc[v] = mask
    keep = set()
    for x, y in es:
        for z in out[x]:
            if z != y and desc[z] >> y & 1:
                break
        else:
            keep.add((x, y))
    return keep


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


def scc_partition(n: int, edges: Iterable[Edge]) -> tuple[list[int], int]:
    """Strongly connected components (iterative Tarjan).

    Returns ``(comp, ncomp)`` where ``comp[v]`` is a component id in
    ``1..ncomp``; ids are assigned in reverse topological order of the
    condensation.
    """
    out = _out_adjacency(n, edges)
    index = [0] * (n + 1)
    low = [0] * (n + 1)
    on = bytearray(n + 1)
    comp = [0] * (n + 1)
    stack: list[int] = []
    counter = 1
    ncomp = 0
    for s in range(1, n + 1):
        if index[s]:
            continue
        index[s] = low[s] = counter
        counter += 1
        stack.append(s)
        on[s] = 1
        work: list[tuple[int, Iterable[int]]] = [(s, iter(out[s]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on[w] = 1
                    work.append((w, iter(out[w])))
                    advanced = True
                    break
                if on[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                ncomp += 1
                while True:
                    w = stack.pop()
                    on[w] = 0
                    comp[w] = ncomp
                    if w == v:
                        break
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comp, ncomp


def brute_minimal_scss(vertices: Sequence[int], edges: Sequence[Edge]) -> set[Edge]:
    """Inclusion-minimal strongly connected spanning subset, by full covers.

    Each edge, in the order given, is dropped when every vertex still
    reaches and is reached from ``vertices[0]`` without it; the caller
    passes a strongly connected component and only its own edges.
    """
    verts = list(vertices)
    if len(verts) <= 1:
        return set()
    n = max(verts)
    root = verts[0]

    def covers(kept: set[Edge]) -> bool:
        fwd = _reachable(_out_adjacency(n, kept), root)
        bwd = _reachable(_out_adjacency(n, [(h, t) for t, h in kept]), root)
        return len(fwd) == len(bwd) == len(verts)

    kept = set(edges)
    for e in edges:
        kept.discard(e)
        if not covers(kept):
            kept.add(e)
    return kept


def brute_tr_general(
    n: int,
    edges: Iterable[Edge],
    edge_order: dict[Edge, object] | None = None,
) -> set[Edge]:
    """A minimal reachability-preserving subgraph of an arbitrary digraph.

    Inside every SCC an inclusion-minimal strongly connected spanning
    subset is kept; between SCCs the oldest edge of each parallel group is
    kept unless the condensation still offers an indirect route once the
    whole group is removed.  ``edge_order`` (smaller = older) fixes the
    probe order and the group representative; it defaults to lexicographic
    order, and passing the live timestamps reproduces the engines' choice
    exactly.
    """
    es = list(edges)
    if edge_order is None:
        key = lambda e: e
    else:
        key = lambda e: (edge_order[e], e)
    es.sort(key=key)
    comp, ncomp = scc_partition(n, es)
    members: list[list[int]] = [[] for _ in range(ncomp + 1)]
    for v in range(1, n + 1):
        members[comp[v]].append(v)
    intra: list[list[Edge]] = [[] for _ in range(ncomp + 1)]
    groups: dict[tuple[int, int], list[Edge]] = {}
    for t, h in es:
        if comp[t] == comp[h]:
            intra[comp[t]].append((t, h))
        else:
            groups.setdefault((comp[t], comp[h]), []).append((t, h))
    tr: set[Edge] = set()
    for cid in range(1, ncomp + 1):
        if len(members[cid]) > 1:
            tr |= brute_minimal_scss(members[cid], intra[cid])
    cond_out: list[set[int]] = [set() for _ in range(ncomp + 1)]
    for a, b in groups:
        cond_out[a].add(b)
    for (a, b), group in groups.items():
        seen = {a}
        stack = [a]
        found = False
        while stack and not found:
            c = stack.pop()
            for d in cond_out[c]:
                if c == a and d == b:
                    continue
                if d == b:
                    found = True
                    break
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        if not found:
            tr.add(group[0])
    return tr


# ---- validity checking ----


def fw_closure(n: int, edges: Iterable[Edge]) -> np.ndarray:
    """Reflexive boolean closure matrix via vectorized Floyd-Warshall."""
    reach = np.zeros((n + 1, n + 1), dtype=bool)
    for t, h in edges:
        reach[t, h] = True
    np.fill_diagonal(reach, True)
    for k in range(1, n + 1):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


def validity_triple(
    n: int, graph_edges: Iterable[Edge], tr_edges: Iterable[Edge]
) -> str | None:
    """Check subgraph, closure equality, and inclusion-minimality.

    Returns None when all three hold, otherwise a human-readable reason.
    """
    g = set(graph_edges)
    tr = set(tr_edges)
    if not tr <= g:
        return f"not a subgraph: {sorted(tr - g)}"
    if not np.array_equal(fw_closure(n, g), fw_closure(n, tr)):
        return "closure differs from the full graph"
    out = _out_adjacency(n, tr)
    for x, y in tr:
        seen = {x}
        stack = [x]
        hit = False
        while stack and not hit:
            v = stack.pop()
            for w in out[v]:
                if v == x and w == y:
                    continue
                if w == y:
                    hit = True
                    break
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if hit:
            return f"edge {(x, y)} is removable"
    return None


# ---- definitional ledger recomputation ----


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


# ---- workload generation ----


def random_update_stream(
    n: int,
    steps: int,
    mode: str = "dag",
    density: float = 0.35,
    seed: int = 0,
) -> list[Update]:
    """Deterministic random update sequence for differential testing.

    A build phase inserts centered batches until roughly ``5 n`` edges are
    live, then insert and delete batches are mixed with insert probability
    ``density`` (``density=0`` therefore degenerates to deletions only).
    DAG mode draws every edge along one fixed random topological order, so
    the stream can never close a cycle.  Batches hold 1..3 edges; deletions
    sample live edges uniformly.  The result depends only on the arguments.
    """
    if mode not in ("dag", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    rank = [0] * (n + 1)
    if mode == "dag":
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for i, v in enumerate(order):
            rank[v] = i
    live: set[Edge] = set()
    live_list: list[Edge] = []
    pos: dict[Edge, int] = {}

    def add(e: Edge) -> None:
        live.add(e)
        pos[e] = len(live_list)
        live_list.append(e)

    def remove(e: Edge) -> None:
        live.discard(e)
        i = pos.pop(e)
        last = live_list.pop()
        if last != e:
            live_list[i] = last
            pos[last] = i

    def insert_batch() -> InsertCentered | None:
        for _ in range(8):
            c = rng.randint(1, n)
            cands: list[Edge] = []
            for w in range(1, n + 1):
                if w == c:
                    continue
                if mode == "dag":
                    e = (c, w) if rank[c] < rank[w] else (w, c)
                    if e not in live:
                        cands.append(e)
                else:
                    if (c, w) not in live:
                        cands.append((c, w))
                    if (w, c) not in live:
                        cands.append((w, c))
            if cands:
                k = min(rng.randint(1, 3), len(cands))
                chosen = rng.sample(sorted(cands), k)
                for e in chosen:
                    add(e)
                return InsertCentered(c, tuple(sorted(chosen)))
        return None

    def delete_batch() -> DeleteSet | None:
        if not live_list:
            return None
        k = min(rng.randint(1, 3), len(live_list))
        chosen = []
        for _ in range(k):
            chosen.append(live_list[rng.randrange(len(live_list))])
            remove(chosen[-1])
        return DeleteSet(tuple(sorted(chosen)))

    cap = n * (n - 1) // 2 if mode == "dag" else n * (n - 1)
    target = min(5 * n, cap)
    updates: list[Update] = []
    while len(updates) < steps and len(live) < target:
        upd = insert_batch()
        if upd is None:
            break
        updates.append(upd)
    while len(updates) < steps:
        if not live and density == 0:
            break
        want_insert = rng.random() < density
        upd: Update | None
        if want_insert or not live:
            upd = insert_batch() or delete_batch()
        else:
            upd = delete_batch() or insert_batch()
        if upd is None:
            break
        updates.append(upd)
    return updates


def replay(n: int, updates: Sequence[Update]) -> set[Edge]:
    """The live edge set after applying a stream to n isolated vertices."""
    live: set[Edge] = set()
    for upd in updates:
        if isinstance(upd, InsertCentered):
            live |= set(upd.edges)
        else:
            live -= set(upd.edges)
    return live


class OracleEngine:
    """From-scratch recomputation behind the engine interface."""

    def __init__(self, n: int, mode: str) -> None:
        self.mode = mode
        self.g = TimestampedGraph(n, acyclic=(mode == "dag"))

    def insert_centered(self, center, edges) -> None:
        self.g.apply_insert_centered(center, edges)

    def delete_edges(self, removed) -> None:
        self.g.apply_delete(removed)

    def tr_edges(self) -> list[Edge]:
        g = self.g
        live = list(g.eid)
        if self.mode == "dag":
            return sorted(brute_tr_dag(g.n, live))
        order = {edge: g.e_ts[e] for edge, e in g.eid.items()}
        return sorted(brute_tr_general(g.n, live, order))

    def is_redundant(self, x: int, y: int) -> bool:
        x, y = _vertex(x), _vertex(y)
        if (x, y) not in self.g.eid:
            raise self.g.not_live(x, y)
        return brute_redundant(self.g.n, list(self.g.eid), x, y)
