"""Decremental single-source reachability on one frozen DAG snapshot.

One instance serves one root: it answers, in O(1), whether a vertex still
has an in-neighbor among the root's proper descendants (and, mirrored,
an out-neighbor among the proper ancestors), while edges are deleted.
Per vertex and side the instance keeps one cursor into the shared
timestamped adjacency of the graph, on the first incoming edge whose
tail properly descends from the root.  The cursors of a side are edge
ids in one ``array('i')``, 4 bytes per vertex.  A vertex stays reached
while it has a cursor or a live snapshot edge from the root, which the
graph's ``eid`` tells directly.  A deleted cursor edge advances the
cursor to the next such edge; a vertex left with neither is declared
unreachable and cascades over its outgoing edges.  Cursors only ever
move forward through an adjacency list, which keeps the total
maintenance work linear in the snapshot size.

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

from array import array
from itertools import compress

from .errors import CyclicInput
from .graph_core import NIL, TimestampedGraph


class DecReach:
    """Per-root reachability state over the root's snapshot.

    Invariant between calls: ``p_in[y]`` is NIL or the first live
    snapshot in-edge of y whose tail is a proper descendant, so y != root
    is a descendant iff ``p_in[y]`` is set or (root, y) is a live
    snapshot edge; ``p_out`` mirrors this among the ancestors, with
    (y, root).  A dropped vertex queues its edges away from the root, the
    only cursors it can be the far end of, so ``delete`` changes nothing
    unless a removed snapshot edge is a cursor or a root edge.
    """

    __slots__ = (
        "g",
        "root",
        "limit",
        "desc",
        "anc",
        "p_in",
        "p_out",
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
        self.p_in, i_ops = self._cursors(self.desc, g.bwd)
        self.p_out, o_ops = self._cursors(self.anc, g.fwd)
        self.touched_in: set[int] = set()
        self.touched_out: set[int] = set()
        self.op_counter = d_ops + a_ops + i_ops + o_ops

    def _search(self, walk: tuple) -> tuple[bytearray, int]:
        """Snapshot vertices the root reaches along ``walk``, and the edges
        scanned."""
        first, nxt, far, _ = walk
        root, limit, e_ts = self.root, self.limit, self.g.e_ts
        reached = bytearray(len(first))
        reached[root] = 1
        stack = [root]
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

    def _cursors(self, reached: bytearray, back: tuple) -> tuple[array, int]:
        """Cursors of the reached vertices on their ``back`` lists; edges
        scanned."""
        first, nxt, far, _ = back
        root, limit, e_ts = self.root, self.limit, self.g.e_ts
        p = array("i", [NIL]) * len(first)
        ops = 0
        for y in compress(range(len(first)), reached):
            if y != root:
                e = first[y]
                while e != NIL and e_ts[e] <= limit:
                    ops += 1
                    x = far[e]
                    if reached[x] and x != root:
                        p[y] = e
                        break
                    e = nxt[e]
        return p, ops

    # ---- queries ----

    def in_query(self, y: int) -> bool:
        """True iff y has an in-neighbor among the proper descendants."""
        return self.p_in[y] != NIL

    def out_query(self, x: int) -> bool:
        """True iff x has an out-neighbor among the proper ancestors."""
        return self.p_out[x] != NIL

    # ---- mutation ----

    def delete(self, removed_ids: list[int]) -> tuple[list[int], list[int]]:
        """Process globally removed edges (already unlinked by the graph).

        Returns the vertices dropped from the descendant and the ancestor
        side by this call.  ``touched_in``/``touched_out`` afterwards hold
        every vertex whose cursor was reassigned, a superset of the
        vertices whose query answers may have flipped.
        """
        fwd, bwd = self.g.fwd, self.g.bwd
        d_delta, self.touched_in, d_ops = self._drain(removed_ids, self.desc, self.p_in, fwd, bwd)
        a_delta, self.touched_out, a_ops = self._drain(removed_ids, self.anc, self.p_out, bwd, fwd)
        self.op_counter += d_ops + a_ops
        return d_delta, a_delta

    def _drain(
        self,
        removed_ids: list[int],
        reached: bytearray,
        p: array,
        walk: tuple,
        back: tuple,
    ) -> tuple[list[int], set[int], int]:
        """A removed cursor advances, and a vertex left with neither a
        cursor nor a root edge drops and queues its ``walk`` edges.  The
        batch is already out of ``eid``, so a root edge found there is
        live.  Returns the dropped and touched vertices and edges scanned."""
        g = self.g
        root, limit, e_ts, e_live, eid = self.root, self.limit, g.e_ts, g.e_live, g.eid
        w_first, w_nxt = walk[0], walk[1]
        from_root = walk is g.fwd
        nxt, far, near = back[1], back[2], back[3]
        delta, touched, ops = [], set(), 0
        queue = [e for e in removed_ids if e_ts[e] <= limit]
        while queue:
            e = queue.pop()
            ops += 1
            y = near[e]
            if far[e] == root:
                # y may have dropped already, when its cursor ran out first
                if p[y] != NIL or not reached[y]:
                    continue
            elif p[y] == e:
                touched.add(y)
                p[y] = NIL
                pos = nxt[e]
                while pos != NIL and e_ts[pos] <= limit:
                    ops += 1
                    x = far[pos]
                    if e_live[pos] and reached[x] and x != root:
                        p[y] = pos
                        break
                    pos = nxt[pos]
                if p[y] != NIL:
                    continue
                r = eid.get((root, y) if from_root else (y, root))
                if r is not None and e_ts[r] <= limit:
                    continue
            else:
                continue
            reached[y] = 0
            delta.append(y)
            e = w_first[y]
            while e != NIL and e_ts[e] <= limit:
                ops += 1
                queue.append(e)
                e = w_nxt[e]
        return delta, touched, ops
