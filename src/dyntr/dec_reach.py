"""Decremental single-source reachability on one frozen DAG snapshot.

One instance serves one root: it answers, in O(1), whether a vertex still
has an in-neighbor among the root's proper descendants (and, mirrored,
an out-neighbor among the proper ancestors), while edges are deleted.
Per vertex the instance keeps two cursors into the shared timestamped
adjacency of the graph: a primary cursor on the first incoming edge whose
tail descends from the root, and a secondary cursor on the second such
edge.  When a deletion invalidates the primary cursor it either adopts
the secondary one or, if none exists, declares the vertex unreachable and
cascades over its outgoing edges.  Cursors only ever move forward through
an adjacency list, which keeps the total maintenance work linear in the
snapshot size.

The instance does not copy adjacency: it walks the graph's own linked
lists, truncated at the snapshot's timestamp limit.  Dead list entries
keep their forward pointers (see graph_core), so a cursor parked on a
deleted edge can still advance; scans simply skip entries whose live flag
is off.

Each job (the snapshot search, the cursor pass, the drain of removed
edges) is written once and takes one of the graph's orientations
(``g.fwd``/``g.bwd``, see graph_core).  The descendant side searches the
out-lists and keeps its cursors on the in-lists; the ancestor side swaps
the two.  The graph must be built with ``acyclic=True``, the only
guarantee of the acyclic snapshots the cursor invariant needs.
"""

from __future__ import annotations

from .errors import CyclicInput
from .graph_core import NIL, TimestampedGraph


class DecReach:
    """Per-root reachability state over the root's snapshot.

    Invariant between calls: every non-NIL cursor is a live edge of the
    snapshot whose endpoints lie on the cursor's side.  ``p_in[y]`` and
    ``c_in[y]`` have tail and head among the descendants, ``p_out[x]``
    and ``c_out[x]`` among the ancestors.  A vertex dropped from the
    descendants queues its out-edges, the only in-cursors it can be the
    tail of (the ancestor side mirrors this), so no cursor is left with
    a dropped endpoint.  Hence ``delete`` changes nothing unless a
    removed edge of the snapshot has both endpoints on one side.
    """

    __slots__ = (
        "g",
        "root",
        "limit",
        "desc",
        "anc",
        "p_in",
        "c_in",
        "p_out",
        "c_out",
        "touched_in",
        "touched_out",
        "op_counter",
    )

    def __init__(self, g: TimestampedGraph, root: int) -> None:
        if not g.acyclic:
            raise CyclicInput("DecReach needs a graph built with acyclic=True")
        self.g = g
        self.root = root
        self.limit = g.center_ts[root]
        self.desc, d_ops = self._search(g.fwd)
        self.anc, a_ops = self._search(g.bwd)
        self.p_in, self.c_in, i_ops = self._cursors(self.desc, g.bwd)
        self.p_out, self.c_out, o_ops = self._cursors(self.anc, g.fwd)
        self.touched_in: set[int] = set()
        self.touched_out: set[int] = set()
        self.op_counter = d_ops + a_ops + i_ops + o_ops

    def _search(self, walk: tuple) -> tuple[bytearray, int]:
        """Snapshot vertices the root reaches along ``walk``; edges scanned."""
        first, nxt, far, _ = walk
        limit, e_ts = self.limit, self.g.e_ts
        reached = bytearray(len(first))
        reached[self.root] = 1
        stack = [self.root]
        ops = 0
        while stack:
            v = stack.pop()
            e = first[v]
            while e != NIL and e_ts[e] <= limit:
                ops += 1
                w = far[e]
                if not reached[w]:
                    reached[w] = 1
                    stack.append(w)
                e = nxt[e]
        return reached, ops

    def _cursors(self, reached: bytearray, back: tuple) -> tuple[list, list, int]:
        """Primary and secondary cursors of the reached vertices on their
        ``back`` lists; edges scanned."""
        first, nxt, far, _ = back
        root, limit, e_ts = self.root, self.limit, self.g.e_ts
        p = [NIL] * len(first)
        c = [NIL] * len(first)
        ops = 0
        for y in range(1, len(first)):
            if reached[y] and y != root:
                # the snapshot list of a reached y holds a reached far end
                e = first[y]
                while not reached[far[e]]:
                    ops += 1
                    e = nxt[e]
                p[y] = e
                e = nxt[e]
                while e != NIL and e_ts[e] <= limit:
                    ops += 1
                    if reached[far[e]]:
                        c[y] = e
                        break
                    e = nxt[e]
        return p, c, ops

    # ---- queries ----

    def in_query(self, y: int) -> bool:
        """True iff y has an in-neighbor among the proper descendants."""
        if y == self.root:
            return False
        e_tail = self.g.e_tail
        e = self.p_in[y]
        if e != NIL and e_tail[e] != self.root:
            return True
        e = self.c_in[y]
        return e != NIL and e_tail[e] != self.root

    def out_query(self, x: int) -> bool:
        """True iff x has an out-neighbor among the proper ancestors."""
        if x == self.root:
            return False
        e_head = self.g.e_head
        e = self.p_out[x]
        if e != NIL and e_head[e] != self.root:
            return True
        e = self.c_out[x]
        return e != NIL and e_head[e] != self.root

    # ---- mutation ----

    def delete(self, removed_ids: list[int]) -> tuple[list[int], list[int]]:
        """Process globally removed edges (already unlinked by the graph).

        Returns the vertices dropped from the descendant and the ancestor
        side by this call.  ``touched_in``/``touched_out`` afterwards hold
        every vertex whose cursors were reassigned, a superset of the
        vertices whose query answers may have flipped.
        """
        fwd, bwd = self.g.fwd, self.g.bwd
        d_delta, self.touched_in, d_ops = self._drain(
            removed_ids, self.desc, self.p_in, self.c_in, fwd, bwd
        )
        a_delta, self.touched_out, a_ops = self._drain(
            removed_ids, self.anc, self.p_out, self.c_out, bwd, fwd
        )
        self.op_counter += d_ops + a_ops
        return d_delta, a_delta

    def _drain(
        self,
        removed_ids: list[int],
        reached: bytearray,
        p: list[int],
        c: list[int],
        walk: tuple,
        back: tuple,
    ) -> tuple[list[int], set[int], int]:
        """A removed primary cursor adopts the secondary or, with none,
        drops its vertex and queues the vertex's ``walk`` edges; a removed
        secondary advances.  Returns the dropped and the touched vertices
        and the edges scanned."""
        limit, e_ts, e_live = self.limit, self.g.e_ts, self.g.e_live
        w_first, w_nxt = walk[0], walk[1]
        nxt, far, near = back[1], back[2], back[3]
        delta: list[int] = []
        touched: set[int] = set()
        ops = 0
        queue = [e for e in removed_ids if e_ts[e] <= limit]
        while queue:
            e = queue.pop()
            ops += 1
            y = near[e]
            if p[y] == e:
                touched.add(y)
                if c[y] == NIL:
                    p[y] = NIL
                    reached[y] = 0
                    delta.append(y)
                    e2 = w_first[y]
                    while e2 != NIL and e_ts[e2] <= limit:
                        ops += 1
                        queue.append(e2)
                        e2 = w_nxt[e2]
                    continue
                p[y] = e = c[y]
            elif c[y] == e:
                touched.add(y)
            else:
                continue
            # the secondary cursor moves past e, the edge it sat on
            c[y] = NIL
            pos = nxt[e]
            while pos != NIL and e_ts[pos] <= limit:
                ops += 1
                if e_live[pos] and reached[far[pos]]:
                    c[y] = pos
                    break
                pos = nxt[pos]
        return delta, touched, ops
