"""Randomized algebraic redundancy engines over a fixed prime field.

Both engines maintain the explicit inverse of a matrix whose entries are
uniformly random residues, one fresh variable per live edge, updated by
rank-1 corrections in O(size^2) arithmetic per edge change:

* DAG mode inverts ``I - A`` over a three-layer expansion of the graph
  (plain, once-shifted, twice-shifted copies of every vertex).  An entry
  linking a tail to the twice-shifted head is a sum over detours of
  length at least two, so the edge is redundant exactly when that entry
  is nonzero, up to a vanishing false-zero probability.
* General mode inverts the random adjacency matrix itself, kept
  invertible by a random self-loop on every vertex.  A parallel group of
  edges between two components is redundant exactly when one signed
  combination of inverse entries is nonzero, again up to vanishing
  error; self-loops never appear in any reported output.

The modulus is the Mersenne prime 2^61 - 1, so 64-bit vectorized
reduction only needs shifts and masks; products are split 31/30 bits to
stay below 2^64.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    CyclicInput,
    DenominatorZero,
    MissingEdge,
    SingularMatrix,
)
from .graph_core import Edge, TimestampedGraph
from .scc_snapshots import condensation
# minimal_scss stays bound here too: the benchmark's layer trace wraps it
from .tr_general import general_reduction, has_detour, minimal_scss  # noqa: F401

FIELD_PRIME = (1 << 61) - 1

_P = np.uint64(FIELD_PRIME)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_S31 = np.uint64(31)
_S30 = np.uint64(30)
_S61 = np.uint64(61)
_ONE = np.uint64(1)


def _modfold(x: np.ndarray) -> np.ndarray:
    # valid for any uint64 input below 2^64
    x = (x >> _S61) + (x & _P)
    x = (x >> _S61) + (x & _P)
    return np.where(x >= _P, x - _P, x)


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a*b mod 2^61-1 without leaving uint64 range."""
    a1 = a >> _S31
    a0 = a & _MASK31
    b1 = b >> _S31
    b0 = b & _MASK31
    mid = a1 * b0 + a0 * b1
    # 2^62 == 2 and mid * 2^31 == (mid >> 30) + (mid & mask30) * 2^31
    total = ((a1 * b1) << _ONE) + (mid >> _S30) + ((mid & _MASK30) << _S31)
    return _modfold(_modfold(total) + _modfold(a0 * b0))


def _submod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = a + (_P - b)
    return np.where(x >= _P, x - _P, x)


def _addmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = a + b
    return np.where(x >= _P, x - _P, x)


def _fold_axis0(x: np.ndarray) -> np.ndarray:
    """Column sums mod p of a 2-D residue array."""
    while x.shape[0] > 1:
        k = x.shape[0]
        if k & 1:
            x = np.concatenate([x, np.zeros((1, x.shape[1]), np.uint64)])
            k += 1
        half = k // 2
        x = _addmod(x[:half], x[half:])
    return x[0]


def _identity(size: int) -> np.ndarray:
    m = np.zeros((size, size), dtype=np.uint64)
    np.fill_diagonal(m, 1)
    return m


def matrix_inverse(mat: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse mod 2^61-1; raises SingularMatrix."""
    size = mat.shape[0]
    a = mat.astype(np.uint64).copy()
    inv = _identity(size)
    for col in range(size):
        piv = col
        while piv < size and a[piv, col] == 0:
            piv += 1
        if piv == size:
            raise SingularMatrix(f"no pivot in column {col}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        scale = np.uint64(pow(int(a[col, col]), FIELD_PRIME - 2, FIELD_PRIME))
        a[col] = _mulmod(a[col], scale)
        inv[col] = _mulmod(inv[col], scale)
        factors = a[:, col].copy()
        factors[col] = 0
        a = _submod(a, _mulmod(factors[:, None], a[col][None, :]))
        inv = _submod(inv, _mulmod(factors[:, None], inv[col][None, :]))
    return inv


class InverseState:
    """Explicit matrix inverse under rank-1 and row replacements mod p."""

    __slots__ = ("size", "m", "minv", "generation")

    def __init__(self, size: int) -> None:
        self.size = size
        self.m = _identity(size)
        self.minv = _identity(size)
        self.generation = 0

    def rank1_update(self, i: int, j: int, delta: int) -> None:
        """Add delta at entry (i, j), correcting the inverse in O(size^2)."""
        delta %= FIELD_PRIME
        if delta == 0:
            return
        denom = (1 + delta * int(self.minv[j, i])) % FIELD_PRIME
        if denom == 0:
            raise DenominatorZero(f"update at ({i}, {j}) makes M singular")
        self.m[i, j] = np.uint64((int(self.m[i, j]) + delta) % FIELD_PRIME)
        factor = np.uint64(
            delta * pow(denom, FIELD_PRIME - 2, FIELD_PRIME) % FIELD_PRIME
        )
        col = _mulmod(self.minv[:, i], factor)
        self.minv = _submod(self.minv, _mulmod(col[:, None], self.minv[j][None, :]))
        self.generation += 1

    def entry(self, i: int, j: int) -> int:
        return int(self.minv[i, j])

    def probe_ok(self, rng: random.Random, probes: int = 8) -> bool:
        """Check M @ (Minv @ v) == v on random vectors."""
        for _ in range(probes):
            v = np.array(
                [rng.randrange(FIELD_PRIME) for _ in range(self.size)],
                dtype=np.uint64,
            )
            w = _fold_axis0(_mulmod(self.minv, v[None, :]).T)
            u = _fold_axis0(_mulmod(self.m, w[None, :]).T)
            if not np.array_equal(u, v):
                return False
        return True

    def full_product_is_identity(self) -> bool:
        out = np.zeros((self.size, self.size), dtype=np.uint64)
        for i in range(self.size):
            out[i] = _fold_axis0(_mulmod(self.minv, self.m[i][:, None]))
        return np.array_equal(out, _identity(self.size))


# ---- DAG reduction graph ----


def _check_acyclic(n: int, edges: Sequence[Edge]) -> None:
    indeg = [0] * (n + 1)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for t, h in edges:
        out[t].append(h)
        indeg[h] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != n:
        raise CyclicInput("input graph has a directed cycle")


def translate_update(n: int, edges: Iterable[Edge]) -> list[Edge]:
    """Three layered changes per edge: (u,v), (u,v'), (u',v'')."""
    out: list[Edge] = []
    for u, v in edges:
        out.append((u, v))
        out.append((u, n + v))
        out.append((n + u, 2 * n + v))
    return out


def build_reduction_graph(n: int, edges: Sequence[Edge]) -> list[Edge]:
    """Layered graph on 3n vertices; tail reaches a twice-shifted head
    exactly when the original edge has a detour."""
    _check_acyclic(n, edges)
    return translate_update(n, edges)


# ---- spec-shaped initialization ----


def init_inverse(
    n: int,
    edges: Sequence[Edge],
    mode: str,
    assignment: dict[Edge, int],
) -> InverseState:
    """Assemble and invert the mode's matrix under a given assignment.

    DAG mode builds I minus the random adjacency of the layered graph
    (keys of ``assignment`` are layered edges); general mode builds the
    random adjacency itself and requires a self-loop value ``(v, v)`` for
    every vertex.
    """
    if mode == "dag":
        size = 3 * n
        layered = build_reduction_graph(n, edges)
        state = InverseState(size)
        m = _identity(size)
        for a, b in layered:
            x = assignment[(a, b)] % FIELD_PRIME
            m[a - 1, b - 1] = np.uint64((FIELD_PRIME - x) % FIELD_PRIME)
    elif mode == "general":
        size = n
        m = np.zeros((size, size), dtype=np.uint64)
        for v in range(1, n + 1):
            m[v - 1, v - 1] = np.uint64(assignment[(v, v)] % FIELD_PRIME)
        for u, v in edges:
            m[u - 1, v - 1] = np.uint64(assignment[(u, v)] % FIELD_PRIME)
        state = InverseState(size)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    state.m = m
    state.minv = matrix_inverse(m)
    state.generation = 0
    return state


# ---- engines ----


class AlgebraicDag:
    """Per-edge DAG redundancy bits read off one maintained inverse."""

    def __init__(self, n: int, seed: int = 0) -> None:
        self.n = n
        self.g = TimestampedGraph(n, acyclic=True)
        self.state = InverseState(3 * n)
        self._rng = random.Random(seed)
        self._vars: dict[Edge, tuple[int, int, int]] = {}

    def _layered(self, u: int, v: int) -> tuple[Edge, Edge, Edge]:
        n = self.n
        return ((u, v), (u, n + v), (n + u, 2 * n + v))

    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        batch = list(new_edges)
        self.g.apply_insert_centered(center, batch)
        for edge in sorted(set(batch)):
            xs = (
                self._rng.randrange(1, FIELD_PRIME),
                self._rng.randrange(1, FIELD_PRIME),
                self._rng.randrange(1, FIELD_PRIME),
            )
            self._vars[edge] = xs
            for (a, b), x in zip(self._layered(*edge), xs):
                self.state.rank1_update(a - 1, b - 1, FIELD_PRIME - x)

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        batch = list(removed)
        self.g.apply_delete(batch)
        for edge in batch:
            xs = self._vars.pop(edge)
            for (a, b), x in zip(self._layered(*edge), xs):
                self.state.rank1_update(a - 1, b - 1, x)

    def is_redundant(self, x: int, y: int) -> bool:
        if (x, y) not in self.g.eid:
            raise MissingEdge(f"edge ({x}, {y}) is not live")
        return self.state.entry(x - 1, 2 * self.n + y - 1) != 0

    def tr_edges(self) -> list[Edge]:
        return sorted(e for e in self.g.eid if not self.is_redundant(*e))


class AlgebraicGeneral:
    """Group redundancy via the signed inverse-entry identity."""

    def __init__(self, n: int, seed: int = 0) -> None:
        self.n = n
        self.g = TimestampedGraph(n)
        self._rng = random.Random(seed)
        self._vars: dict[Edge, int] = {}
        self._loops = [0] * (n + 1)
        self.state = InverseState(n)
        for v in range(1, n + 1):
            x = self._rng.randrange(1, FIELD_PRIME)
            self._loops[v] = x
            # identity diagonal becomes the random self-loop value
            self.state.rank1_update(v - 1, v - 1, x - 1)

    # ---- rebuild paths ----

    def _rebuild(self) -> None:
        """Invert the matrix afresh, resampling every value while singular.

        The loop and edge values and the matrix pair are committed together,
        only once an inversion succeeds.
        """
        loops, xs, rng = self._loops, self._vars, self._rng
        while True:
            m = np.zeros((self.n, self.n), dtype=np.uint64)
            for v in range(1, self.n + 1):
                m[v - 1, v - 1] = np.uint64(loops[v])
            for (u, v), x in xs.items():
                m[u - 1, v - 1] = np.uint64(x)
            try:
                minv = matrix_inverse(m)
                break
            except SingularMatrix:
                loops = [0] + [rng.randrange(1, FIELD_PRIME) for _ in range(self.n)]
                xs = {edge: rng.randrange(1, FIELD_PRIME) for edge in xs}
        self._loops, self._vars = loops, xs
        self.state.m, self.state.minv = m, minv
        self.state.generation += 1

    # ---- updates ----

    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        batch = list(new_edges)
        self.g.apply_insert_centered(center, batch)
        for edge in sorted(set(batch)):
            u, v = edge
            placed = False
            for _ in range(3):
                x = self._rng.randrange(1, FIELD_PRIME)
                try:
                    self.state.rank1_update(u - 1, v - 1, x)
                except DenominatorZero:
                    continue
                self._vars[edge] = x
                placed = True
                break
            if not placed:
                self._vars[edge] = self._rng.randrange(1, FIELD_PRIME)
                self._rebuild()

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        batch = list(removed)
        self.g.apply_delete(batch)
        for edge in batch:
            u, v = edge
            x = self._vars.pop(edge)
            try:
                self.state.rank1_update(u - 1, v - 1, FIELD_PRIME - x)
            except DenominatorZero:
                self._rebuild()

    # ---- redundancy ----

    def group_redundant(self, members: Sequence[Edge], r: int, t: int) -> bool:
        """Inverse-entry identity over the full parallel group between the
        components of r and t; True means no member belongs to the
        reduction.

        The total equals the (r, t) inverse entry after zeroing every
        group entry at once: the block correction collapses to a plain
        sum because entries from the head component back to the tail
        component are identically zero.
        """
        minv = self.state.minv
        total = int(minv[r - 1, t - 1])
        for u, v in members:
            x = self._vars[(u, v)]
            term = x * int(minv[r - 1, u - 1]) % FIELD_PRIME
            term = term * int(minv[v - 1, t - 1]) % FIELD_PRIME
            total = (total + term) % FIELD_PRIME
        return total != 0

    def tr_edges(self) -> list[Edge]:
        comp = condensation(self.g)
        smallest: dict[int, int] = {}
        for v in range(1, self.n + 1):
            smallest.setdefault(comp[v], v)

        def keep_group(members: list[Edge], cf: int, ct: int) -> bool:
            return not self.group_redundant(members, smallest[cf], smallest[ct])

        return general_reduction(self.g, comp, keep_group)

    def is_redundant(self, x: int, y: int) -> bool:
        g = self.g
        if (x, y) not in g.eid:
            raise MissingEdge(f"edge ({x}, {y}) is not live")
        comp = condensation(g)
        cx, cy = comp[x], comp[y]
        if cx == cy:
            return has_detour(g, x, y)
        group = [(t, h) for t, h in g.eid if comp[t] == cx and comp[h] == cy]
        # comp[0] is -1, so index() finds each component's smallest vertex
        return len(group) > 1 or self.group_redundant(
            group, comp.index(cx), comp.index(cy)
        )
