"""Brute-force ground truth and randomized workload generation.

The reductions, the redundancy and validity checks and the stream
generator that ``dyntr run --engine oracle``, ``--check`` and the
benchmark call.  Every function recomputes its answer from first
principles on plain ``(n, edges)`` data, sharing no state and no code
path with the incremental engines, so engine outputs can be checked
against genuinely independent results.  ``OracleEngine`` puts those
recomputations behind the engine interface.  The definitional
recomputations that only tests read live in ``tests/reference.py``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import BadUpdate, CyclicInput, MissingEdge
from .graph_core import (
    DeleteSet,
    Edge,
    InsertCentered,
    TimestampedGraph,
    Update,
    _count,
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


def _detour(out: Sequence[Iterable[int]], x: int, y: int) -> bool:
    """True iff y is reachable from x over ``out`` without the edge (x, y)."""
    seen = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        if v == y:
            return True
        for w in out[v]:
            if w not in seen and (v != x or w != y):
                seen.add(w)
                stack.append(w)
    return False


def brute_redundant(n: int, edges: Iterable[Edge], x: int, y: int) -> bool:
    """True iff a path x -> y survives after removing the edge (x, y)."""
    es = set(edges)
    if (x, y) not in es:
        raise MissingEdge(f"edge ({x}, {y}) is not present")
    return _detour(_out_adjacency(n, es), x, y)


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
        if not _detour(cond_out, a, b):
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
        if _detour(out, x, y):
            return f"edge {(x, y)} is removable"
    return None


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
    A vertex count that is not a positive int, or a mode other than these
    two, raises ``BadUpdate``.
    """
    n = _count(n, "vertex count")
    if mode not in ("dag", "general"):
        raise BadUpdate(f"unknown mode {mode!r}")
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
