"""Randomized algebraic redundancy engines over a fixed prime field.

Both engines maintain a matrix M of uniformly random residues, one fresh
variable per live edge, and its explicit inverse.  An update's entries of
M go in by rows or by columns, whichever are fewer: entries along one row
or one column are one rank-1 change, so each line costs one in-place
O(size^2) pass over the inverse, and a centered batch of any size at most
two.  M holds every value: its nonzero entries are the diagonal and the
entries of the live edges.

* DAG mode inverts ``I - A`` over a three-layer expansion of the graph
  (plain, once-shifted, twice-shifted copies of every vertex; three
  entries per edge).  An entry linking a tail to the twice-shifted head
  is a sum over detours of length at least two, so the edge is redundant
  exactly when that entry is nonzero, up to a vanishing false-zero
  probability.
* General mode inverts the random adjacency matrix M itself, kept
  invertible by a random self-loop on every vertex; self-loops never
  appear in any reported output.  ``is_redundant`` reads one edge off
  the single-edge identity: with B = M^-1 and a the edge's value,
  B[x,y]*(1 - a*B[y,x]) + a*B[x,x]*B[y,y] is the (x, y) cofactor of M
  without the edge, divided by det M, so it is nonzero exactly when the
  edge has a detour.  ``tr_edges`` reads the components off B as well:
  B[x,y] is nonzero only if x reaches y, so x's label is the smallest y
  with B[x,y] and B[y,x] both nonzero.  A parallel group between two
  components is redundant exactly when one signed combination of inverse
  entries at their labels is nonzero.  All hold up to vanishing error.

The modulus is the Mersenne prime 2^61 - 1, so 64-bit vectorized
reduction only needs shifts and masks.  A product of two residues, split
31/30 bits, sums to less than 2^63, so one fold and one conditional
subtraction reduce it.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from itertools import chain, compress

import numpy as np

from .errors import DenominatorZero, SingularMatrix
from .graph_core import Edge, TimestampedGraph, _count, _fit_in_memory, _vertex
# minimal_scss stays bound here too: the benchmark's layer trace wraps it
from .tr_general import general_reduction, minimal_scss  # noqa: F401

FIELD_PRIME = (1 << 61) - 1

_P = np.uint64(FIELD_PRIME)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_S31 = np.uint64(31)
_S30 = np.uint64(30)
_S61 = np.uint64(61)
_ONE = np.uint64(1)

# size x size uint64 arrays alive at the peak, m and minv included, by
# tracemalloc at size 200: 4.5 in the first pass (two of them the work
# matrices it keeps), 6.5 in a _rebuild that inverts at once, 7.5 in one
# that resamples a copy of M first; the guard takes the next whole matrix
# above the highest (7.2 at size 300, where fixed overheads weigh less)
_PEAK_MATRICES = 8


def _reduce(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # one fold takes any uint64 to at most p + 7; one subtraction ends it
    np.right_shift(x, _S61, out=tmp)
    x &= _P
    x += tmp
    np.subtract(x, _P, out=tmp)
    return np.minimum(x, tmp, out=x)


def _mulmod(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise a*b mod 2^61-1 without leaving uint64 range.

    Inputs must be below 2^61: the four partial products of the 31/30-bit
    split then sum to less than 2^63, so one ``_reduce`` finishes them.
    The product goes to ``out`` with ``tmp`` as scratch, both uint64
    arrays of the broadcast shape, allocated when not given; a and b are
    split before either is written, so they may be views of ``out``.
    """
    a1 = a >> _S31
    a0 = a & _MASK31
    b1 = b >> _S31
    b0 = b & _MASK31
    shape = np.broadcast_shapes(a1.shape, b1.shape)
    if out is None:
        out = np.empty(shape, np.uint64)
    if tmp is None:
        tmp = np.empty(shape, np.uint64)
    # mid = a1*b0 + a0*b1; 2^62 == 2 and
    # mid * 2^31 == (mid >> 30) + (mid & mask30) * 2^31
    np.multiply(a1, b0, out=out)
    np.multiply(a0, b1, out=tmp)
    out += tmp
    np.right_shift(out, _S30, out=tmp)
    out &= _MASK30
    out <<= _S31
    out += tmp
    np.multiply(a1, b1, out=tmp)
    tmp <<= _ONE
    out += tmp
    np.multiply(a0, b0, out=tmp)
    out += tmp
    return _reduce(out, tmp)


def _submod(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """a - b mod p as a + (p - b) and one conditional subtraction; ``out``
    and ``tmp`` as in ``_mulmod``, and ``tmp`` may be b itself."""
    tmp = np.subtract(_P, b, out=tmp)
    out = np.add(a, tmp, out=out)
    np.subtract(out, _P, out=tmp)
    return np.minimum(out, tmp, out=out)


def _addmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = a + b
    return np.minimum(x, x - _P)


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


def _subtract_outer(m: np.ndarray, col: np.ndarray, row: np.ndarray, work) -> None:
    """m -= col * row^T mod p in place, in one pass over m.

    ``work`` is a pair of m-shaped uint64 scratch matrices.  col and row
    may be views of m: ``_mulmod`` splits them before m is written.
    """
    prod, tmp = work
    _mulmod(col[:, None], row[None, :], prod, tmp)
    _submod(m, prod, m, prod)


def _identity(size: int) -> np.ndarray:
    m = np.zeros((size, size), dtype=np.uint64)
    np.fill_diagonal(m, 1)
    return m


def matrix_inverse(mat: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse mod 2^61-1 of any uint64 matrix; raises SingularMatrix."""
    size = mat.shape[0]
    a = mat.astype(np.uint64) % _P
    inv = _identity(size)
    work = (np.empty_like(a), np.empty_like(a))
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
        # row col itself meets a zero factor, so it stays as scaled
        _subtract_outer(a, factors, a[col], work)
        _subtract_outer(inv, factors, inv[col], work)
    return inv


class InverseState:
    """Explicit matrix inverse mod p under rank-1 updates along one line.

    ``generation`` counts the O(size^2) passes made over the inverse.
    ``work`` holds the two size x size scratch matrices of the update pass.
    They are allocated at the first pass and never pickled.
    """

    __slots__ = ("size", "m", "minv", "generation", "work")

    def __init__(self, size: int) -> None:
        size = _count(size, "inverse size")
        _fit_in_memory(_PEAK_MATRICES * size * size * 8, f"a {size}x{size} inverse")
        self.size = size
        self.m = _identity(size)
        self.minv = _identity(size)
        self.generation = 0
        self.work = None

    def __getstate__(self):
        return self.size, self.m, self.minv, self.generation

    def __setstate__(self, state) -> None:
        self.size, self.m, self.minv, self.generation = state
        self.work = None

    def rank1_update(self, i, j, delta) -> None:
        """Add delta at entry (i, j), correcting the inverse in one O(size^2) pass.

        One of i and j may instead be a list of indices, with delta the
        list of their deltas: row i gains delta[k] at column j[k]
        (M + e_i d^T), or column j gains delta[k] at row i[k] (M + c e_j^T).
        Either change is rank 1, so with B = M^-1 Sherman-Morrison takes
        the whole line at once, B - (B x)(y^T B) / (1 + y^T B x), and
        combining the line's k rows or columns of B costs O(k*size).  A
        zero denominator raises DenominatorZero and changes nothing.
        """
        deltas = delta if np.ndim(delta) else [delta]
        rows = i if np.ndim(i) else [i] * len(deltas)
        cols = j if np.ndim(j) else [j] * len(deltas)
        line = [(a, b, d % FIELD_PRIME) for a, b, d in zip(rows, cols, deltas)]
        line = [entry for entry in line if entry[2]]
        if not line:
            return
        minv = self.minv
        # y^T B x sums delta * B[col, row] over the line's entries
        denom = (1 + sum(d * int(minv[b, a]) for a, b, d in line)) % FIELD_PRIME
        if denom == 0:
            raise DenominatorZero(f"update at ({i}, {j}) makes M singular")
        rows, cols, deltas = (list(t) for t in zip(*line))
        for a, b, d in line:
            self.m[a, b] = (int(self.m[a, b]) + d) % FIELD_PRIME
        weights = np.array(deltas, dtype=np.uint64)[:, None]
        if np.ndim(i):
            # a column: B x = sum of delta * B[:, row], y^T B = B[j]
            bx, ytb = _fold_axis0(_mulmod(minv.T[rows], weights)), minv[j]
        else:
            # a row: B x = B[:, i], y^T B = sum of delta * B[col]
            bx, ytb = minv[:, i], _fold_axis0(_mulmod(minv[cols], weights))
        factor = np.uint64(pow(denom, FIELD_PRIME - 2, FIELD_PRIME))
        if self.work is None:
            self.work = (np.empty_like(minv), np.empty_like(minv))
        _subtract_outer(minv, _mulmod(bx, factor), ytb, self.work)
        self.generation += 1

    def assign_entries(self, rows: list[int], cols: list[int], values: list[int]) -> None:
        """Set M[rows[k], cols[k]] to values[k] at distinct positions.

        The entries go in as lines, grouped by row or by column, whichever
        makes fewer, each line one ``rank1_update`` in order of its first
        entry.  A line with a zero denominator raises DenominatorZero; the
        lines before it stay applied, it and the later ones do not.
        """
        by_row = len(set(rows)) <= len(set(cols))
        lines: dict[int, tuple[list[int], list[int]]] = {}
        for i, j, value in zip(rows, cols, values):
            key, other = (i, j) if by_row else (j, i)
            spots, deltas = lines.setdefault(key, ([], []))
            spots.append(other)
            deltas.append(value - int(self.m[i, j]))
        for key, (spots, deltas) in lines.items():
            if by_row:
                self.rank1_update(key, spots, deltas)
            else:
                self.rank1_update(spots, key, deltas)

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


# ---- engines ----


class AlgebraicDag:
    """Per-edge DAG redundancy bits read off one maintained inverse."""

    def __init__(self, n: int, seed: int = 0) -> None:
        self.n = n = _count(n, "vertex count")
        self.state = InverseState(3 * n)
        self.g = TimestampedGraph(n, acyclic=True)
        self._rng = random.Random(seed)

    def _layered(self, ids: list[int]) -> tuple[list[int], list[int]]:
        """Rows and columns, 0-based, of the three entries of each edge in ids."""
        n, tail, head = self.n, self.g.e_tail, self.g.e_head
        rows: list[int] = []
        cols: list[int] = []
        for e in ids:
            u, v = tail[e] - 1, head[e] - 1
            rows += (u, u, n + u)
            cols += (v, n + v, 2 * n + v)
        return rows, cols

    # every denominator is 1: no entry of B leads from a head back to a tail
    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        rows, cols = self._layered(self.g.apply_insert_centered(center, new_edges))
        values = [FIELD_PRIME - self._rng.randrange(1, FIELD_PRIME) for _ in rows]
        self.state.assign_entries(rows, cols, values)

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        rows, cols = self._layered(self.g.apply_delete(removed))
        self.state.assign_entries(rows, cols, [0] * len(rows))

    def is_redundant(self, x: int, y: int) -> bool:
        if type(x) is not int or type(y) is not int:
            x, y = _vertex(x), _vertex(y)
        if (x, y) not in self.g.eid:
            raise self.g.not_live(x, y)
        return self.state.entry(x - 1, 2 * self.n + y - 1) != 0

    def tr_edges(self) -> list[Edge]:
        edges = list(self.g.eid)
        ends = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2) - 1
        # each edge's entry from its tail to the twice-shifted copy of its head
        zero = self.state.minv[ends[:, 0], 2 * self.n + ends[:, 1]] == 0
        return sorted(compress(edges, zero.tolist()))


class AlgebraicGeneral:
    """Edge and group redundancy read off one maintained inverse."""

    def __init__(self, n: int, seed: int = 0) -> None:
        self.n = n = _count(n, "vertex count")
        self.state = InverseState(n)
        self.g = TimestampedGraph(n)
        self._rng = random.Random(seed)
        # each component's minimal spanning subset, for general_reduction
        self._scss: dict[tuple[Edge, ...], set[Edge]] = {}
        # the identity diagonal becomes a random self-loop; M stays diagonal,
        # so its inverse is read off entry by entry
        loops = [self._rng.randrange(1, FIELD_PRIME) for _ in range(n)]
        np.fill_diagonal(self.state.m, loops)
        np.fill_diagonal(self.state.minv, [pow(x, -1, FIELD_PRIME) for x in loops])

    # ---- rebuild paths ----

    def _rebuild(self) -> None:
        """Invert M afresh, resampling its nonzero entries while it is singular.

        Only a copy of M is resampled, so M and its inverse are committed
        together, once an inversion succeeds.
        """
        # the pass's work matrices would only add to the inversion's peak
        self.state.work = None
        m = self.state.m
        while True:
            # two passes per column; a call that meets a singular M, with
            # chance below size/p, stops earlier and is counted the same
            self.state.generation += 2 * self.state.size
            try:
                minv = matrix_inverse(m)
                break
            except SingularMatrix:
                m = m.copy()
                # row by row, so the draws never take more than a row of memory
                for row in m:
                    nz = np.flatnonzero(row)
                    row[nz] = [self._rng.randrange(1, FIELD_PRIME) for _ in nz]
        self.state.m, self.state.minv = m, minv

    def _assign(self, ids: list[int], values: list[int]) -> None:
        """Set the entries of edges ids to values; a zero denominator writes
        them all into M and rebuilds once."""
        rows = [self.g.e_tail[e] - 1 for e in ids]
        cols = [self.g.e_head[e] - 1 for e in ids]
        try:
            self.state.assign_entries(rows, cols, values)
        except DenominatorZero:
            self.state.m[rows, cols] = values
            self._rebuild()

    # ---- updates ----

    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        ids = self.g.apply_insert_centered(center, new_edges)
        self._assign(ids, [self._rng.randrange(1, FIELD_PRIME) for _ in ids])

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        ids = self.g.apply_delete(removed)
        self._assign(ids, [0] * len(ids))

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
        m, minv = self.state.m, self.state.minv
        total = int(minv[r - 1, t - 1])
        for u, v in members:
            x = int(m[u - 1, v - 1])
            term = x * int(minv[r - 1, u - 1]) % FIELD_PRIME
            term = term * int(minv[v - 1, t - 1]) % FIELD_PRIME
            total = (total + term) % FIELD_PRIME
        return total != 0

    def tr_edges(self) -> list[Edge]:
        nz = self.state.minv != 0
        both = nz & nz.T
        # a singleton's label is exact even if its diagonal entry is a false zero
        np.fill_diagonal(both, True)
        comp = [0, *(both.argmax(axis=1) + 1).tolist()]
        return general_reduction(
            self.g, comp, lambda members, r, t: not self.group_redundant(members, r, t),
            self._scss,
        )

    def is_redundant(self, x: int, y: int) -> bool:
        """Single-edge identity of the module docstring.

        Removing the edge is the rank-1 change M - a*e_x*e_y^T; Sherman-
        Morrison and the matrix determinant lemma give its (x, y) cofactor
        over det M from the entries below.  The cofactor is a polynomial,
        so the formula holds also when the change leaves M singular.
        """
        if type(x) is not int or type(y) is not int:
            x, y = _vertex(x), _vertex(y)
        if (x, y) not in self.g.eid:
            raise self.g.not_live(x, y)
        i, j = x - 1, y - 1
        a = int(self.state.m[i, j])
        minv = self.state.minv
        # det of M without the edge over det M; 0 when that is singular
        ratio = (1 - a * int(minv[j, i])) % FIELD_PRIME
        cofactor = int(minv[i, j]) * ratio + a * int(minv[i, i]) * int(minv[j, j])
        return cofactor % FIELD_PRIME != 0
