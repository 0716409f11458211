"""Fully dynamic transitive reduction of a DAG.

The reduction is exactly the live edges (x, y) where three ledgers are
all zero, of which the engine stores only the first:

* ``count[e]``: how many third vertices z hold the edge inside their
  frozen snapshot with the tail among z's snapshot ancestors and the head
  among its snapshot descendants (such a z certifies a detour through z);
* ``tx``: the tail-rooted witness -- inside x's snapshot, y has an
  in-neighbor that properly descends from x.  It is read off the tail's
  cursor: x is a root and its ``p_in[y]`` is not NIL;
* ``ty``: the mirrored head-rooted witness, y's ``p_out[x]``.

A flag per edge, 1 iff one of the three is nonzero, is refreshed
wherever one of them can change, so ``is_redundant`` reads only the
flag.  The reduction itself is kept as a sorted list of edges, changed
only where a flag flips or an edge with flag 0 is deleted, so
``tr_edges`` copies it and ``tr_size`` reads its length.  A fresh edge
enters flagged, outside the list, and joins it through the refresh.

A centered insertion refreshes only the center's reachability state.  An
edge can gain a detour through the center only when its tail is a new
ancestor and its head a new descendant of the center, so the counter
increments come from scanning the out-edges of the new ancestors alone,
split between edges that were already visible in the old snapshot and
edges that just became visible.  The reduction flags are then refreshed
on the edges whose counter moved and on the center's own edges (whose
witnesses the new cursors give, the fresh batch among them).

A deletion visits a root z only when a removed edge is one of z's
cursors or one of z's own snapshot edges: ``DecReach.delete`` starts a
cascade from no other edge, so any other root would return empty deltas.
Every cursor of z is a live snapshot edge with both endpoints among z's
descendants (``p_in``) or both among its ancestors (``p_out``), and a
root edge (z, y) or (x, z) has both endpoints on one side too, since z's
own bits are set.  So only the roots where a removed snapshot edge has
both endpoints on one side need the exact test.  The visited roots'
reachability deltas become counter decrements by scanning the snapshot
edges that leave a vertex dropped from the ancestor side or enter a
vertex dropped from the descendant side; a root's own edges are
refreshed only where one of its cursors actually moved.

The roots to visit are found with one vectorised read of a mirror of
every root's reach flags: a ``uint8`` array R with one row per root, in
first-centering order (the order of ``states``), where bit 0 of R[i, x]
is ``desc[x]`` of the i-th root and bit 1 is ``anc[x]``.  Root i is a
candidate iff some removed edge (x, y) has ``R[i, x] & R[i, y] != 0``:
one AND of the two columns tests both sides.  The mirror keeps no
stamps: a candidate z is visited iff some removed edge e = (x, y) has
``p_in[y] == e`` or ``p_out[x] == e``, which only a snapshot edge can
be, or has z as an endpoint and a stamp within z's ``limit``.  An
insertion rewrites its center's row from the new state's flags; a
deletion clears bit 0 at each visited root's dropped descendants and bit
1 at its dropped ancestors.  Rows grow geometrically, so the mirror
stays proportional to the number of roots times n.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable
from itertools import compress

import numpy as np

from .dec_reach import DecReach
from .graph_core import NIL, Edge, TimestampedGraph, _fit_in_memory, _vertex

# bytes per vertex that a newly centered root adds, by tracemalloc at
# n=4000: 12.0 at rest, 13.0 where the reach-flag mirror doubles its rows
_BYTES_PER_ROOT = 14


class TrDag:
    """Combinatorial transitive-reduction engine for acyclic histories."""

    def __init__(self, n: int) -> None:
        self.g = TimestampedGraph(n, acyclic=True)
        self.states: dict[int, DecReach] = {}
        # the reach-flag mirror: row i belongs to root self._roots[i]
        self._slot: dict[int, int] = {}
        self._roots: list[int] = []
        self._reach = np.zeros((0, self.g.n + 1), np.uint8)
        self.count: list[int] = []
        self._red: list[int] = []
        # the edges with flag 0, sorted
        self._tr: list[Edge] = []
        self.op_counter = 0

    # ---- updates ----

    def insert_centered(self, center: int, new_edges: Iterable[Edge]) -> None:
        g = self.g
        center = _vertex(center)
        old_state = self.states.get(center)
        if old_state is None:
            # a new root's state and mirror row, checked before the graph changes
            k = len(self.states) + 1
            _fit_in_memory(_BYTES_PER_ROOT * (g.n + 1) * k, f"{k} roots on {g.n} vertices")
        g.apply_insert_centered(center, new_edges)
        count, red = self.count, self._red
        # fresh edges enter flagged, outside the kept reduction; they are
        # among the center's edges, so the refresh below lets them in
        while len(count) < len(g.e_tail):
            count.append(0)
            red.append(1)
        st = DecReach(g, center)
        self.states[center] = st
        self._mirror(center, st)
        ops = st.op_counter
        e_head, e_ts = g.e_head, g.e_ts
        out_first, out_nxt = g.out_first, g.out_nxt
        desc_new, anc_new = st.desc, st.anc
        if old_state is not None:
            desc_old, anc_old, old_limit = old_state.desc, old_state.anc, old_state.limit
        else:
            desc_old, anc_old, old_limit = None, None, 0
        # the new snapshot holds every live edge, so no timestamp cut here
        touched: list[int] = []
        for x in compress(range(len(anc_new)), anc_new):
            ops += 1
            if x == center:
                continue
            e = out_first[x]
            while e != NIL:
                ops += 1
                y = e_head[e]
                # an edge visible before is charged only for a new detour
                if desc_new[y] and y != center and (
                    e_ts[e] > old_limit or not (anc_old[x] and desc_old[y])
                ):
                    count[e] += 1
                    touched.append(e)
                e = out_nxt[e]
        # the center's new cursors are the witnesses of its own edges
        for first, nxt, _, _ in (g.fwd, g.bwd):
            e = first[center]
            while e != NIL:
                ops += 1
                touched.append(e)
                e = nxt[e]
        self._refresh_red(touched)
        self.op_counter += ops + len(touched)

    def delete_edges(self, removed: Iterable[Edge]) -> None:
        g = self.g
        ids = g.apply_delete(removed)
        e_tail, e_head, e_ts = g.e_tail, g.e_head, g.e_ts
        out_first, out_nxt = g.out_first, g.out_nxt
        in_first, in_nxt = g.in_first, g.in_nxt
        count, eid = self.count, g.eid
        red = self._red
        for e in ids:
            if not red[e]:
                self._drop_tr(e)
        touched: set[int] = set()
        # per-entry writes through a memoryview: a numpy fancy write costs
        # more than the few vertices a visited root usually drops
        flags, slot = memoryview(self._reach), self._slot
        # one filter probe per root and removed edge
        ops = len(self.states) * len(ids)
        for z, st in self._roots_to_visit(ids):
            limit = st.limit
            before = st.op_counter
            d_delta, a_delta = st.delete(ids)
            ops += st.op_counter - before
            i = slot[z]
            for x in d_delta:
                flags[i, x] &= 2
            for x in a_delta:
                flags[i, x] &= 1
            desc, anc = st.desc, st.anc
            if a_delta:
                d_set = set(d_delta)
                for x in a_delta:
                    e = out_first[x]
                    while e != NIL and e_ts[e] <= limit:
                        ops += 1
                        y = e_head[e]
                        if y != z and (desc[y] or y in d_set):
                            count[e] -= 1
                            touched.add(e)
                        e = out_nxt[e]
            for y in d_delta:
                e = in_first[y]
                while e != NIL and e_ts[e] <= limit:
                    ops += 1
                    x = e_tail[e]
                    if x != z and anc[x]:
                        count[e] -= 1
                        touched.add(e)
                    e = in_nxt[e]
            for y in st.touched_in:
                e = eid.get((z, y))
                if e is not None:
                    ops += 1
                    touched.add(e)
            for x in st.touched_out:
                e = eid.get((x, z))
                if e is not None:
                    ops += 1
                    touched.add(e)
        self._refresh_red(touched)
        self.op_counter += ops + len(touched)

    def _mirror(self, center: int, st: DecReach) -> None:
        """Write the center's row of the reach-flag mirror from ``st``."""
        i = self._slot.get(center)
        if i is None:
            i = self._slot[center] = len(self._roots)
            self._roots.append(center)
            if i == len(self._reach):
                reach = np.zeros((2 * i or 1, self.g.n + 1), np.uint8)
                reach[:i] = self._reach
                self._reach = reach
        row = self._reach[i]
        np.left_shift(np.frombuffer(st.anc, np.uint8), 1, out=row)
        row |= np.frombuffer(st.desc, np.uint8)

    def _roots_to_visit(self, ids: list[int]) -> list[tuple[int, DecReach]]:
        """Roots of which some removed edge is a cursor or an own edge.

        The mirror, read as it was before the deletion, gives the
        candidates; a root left out would get empty deltas from
        ``DecReach.delete`` and no cursor reassignment.
        """
        k = len(self._roots)
        e_tail, e_head, e_ts = self.g.e_tail, self.g.e_head, self.g.e_ts
        reach = self._reach[:k]
        hit = np.zeros(k, bool)
        for e in ids:
            # bit 0 holds desc and bit 1 anc, so one AND tests both sides
            hit |= (reach[:, e_tail[e]] & reach[:, e_head[e]]) != 0
        edges = [(e, e_tail[e], e_head[e], e_ts[e]) for e in ids]
        roots, states = self._roots, self.states
        visit = []
        for i in np.flatnonzero(hit).tolist():
            z = roots[i]
            st = states[z]
            p_in, p_out = st.p_in, st.p_out
            for e, x, y, ts in edges:
                # a cursor is a snapshot edge, so only an own edge needs the stamp
                if p_in[y] == e or p_out[x] == e or (z in (x, y) and ts <= st.limit):
                    visit.append((z, st))
                    break
        return visit

    def _refresh_red(self, edges: Iterable[int]) -> None:
        """Re-derive the reduction flag of each edge, reading ``tx``/``ty``
        off the end roots' cursors; a flip moves the edge out of or into the
        kept reduction."""
        count, red, states = self.count, self._red, self.states
        e_tail, e_head = self.g.e_tail, self.g.e_head
        for e in edges:
            if count[e]:
                r = 1
            else:
                x, y = e_tail[e], e_head[e]
                st = states.get(x)
                if st is not None and st.p_in[y] != NIL:
                    r = 1
                else:
                    st = states.get(y)
                    r = 1 if st is not None and st.p_out[x] != NIL else 0
            if r != red[e]:
                red[e] = r
                if r:
                    self._drop_tr(e)
                else:
                    insort(self._tr, (e_tail[e], e_head[e]))

    def _drop_tr(self, e: int) -> None:
        """Remove edge ``e`` from the kept reduction."""
        tr = self._tr
        del tr[bisect_left(tr, (self.g.e_tail[e], self.g.e_head[e]))]

    # ---- queries ----

    def is_redundant(self, x: int, y: int) -> bool:
        if type(x) is not int or type(y) is not int:
            x, y = _vertex(x), _vertex(y)
        e = self.g.eid.get((x, y))
        if e is None:
            raise self.g.not_live(x, y)
        return self._red[e] == 1

    def tr_edges(self) -> list[Edge]:
        return list(self._tr)

    def tr_size(self) -> int:
        """Reduction size in O(1), no edge scan."""
        return len(self._tr)

    def ledgers(self) -> tuple[dict[Edge, int], dict[Edge, bool], dict[Edge, bool]]:
        """Live-edge view of the maintained counters and of the witness bits
        read off the end roots' cursors."""
        eid, states = self.g.eid, self.states
        count = {edge: self.count[e] for edge, e in eid.items()}
        tx = {(x, y): x in states and states[x].in_query(y) for x, y in eid}
        ty = {(x, y): y in states and states[y].out_query(x) for x, y in eid}
        return count, tx, ty
