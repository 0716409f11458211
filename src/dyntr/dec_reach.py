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
is off.  The mirrored ancestor side runs the same machinery on the
reversed orientation (outgoing lists, head-side tests).
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
        self.g = g
        self.root = root
        self.limit = g.center_ts[root]
        n = g.n
        ops = 0
        if not g.acyclic and not self._snapshot_acyclic():
            raise CyclicInput(f"snapshot of {root} contains a cycle")
        e_ts, e_tail, e_head = g.e_ts, g.e_tail, g.e_head
        limit = self.limit
        desc = bytearray(n + 1)
        anc = bytearray(n + 1)
        desc[root] = 1
        stack = [root]
        out_first, out_nxt = g.out_first, g.out_nxt
        while stack:
            v = stack.pop()
            e = out_first[v]
            while e != NIL and e_ts[e] <= limit:
                ops += 1
                w = e_head[e]
                if not desc[w]:
                    desc[w] = 1
                    stack.append(w)
                e = out_nxt[e]
        anc[root] = 1
        stack = [root]
        in_first, in_nxt = g.in_first, g.in_nxt
        while stack:
            v = stack.pop()
            e = in_first[v]
            while e != NIL and e_ts[e] <= limit:
                ops += 1
                w = e_tail[e]
                if not anc[w]:
                    anc[w] = 1
                    stack.append(w)
                e = in_nxt[e]
        # primary cursors first: the secondary scans consult reachability
        # of other tails, which the primary pass has already settled.
        p_in = [NIL] * (n + 1)
        c_in = [NIL] * (n + 1)
        p_out = [NIL] * (n + 1)
        c_out = [NIL] * (n + 1)
        for y in range(1, n + 1):
            if desc[y] and y != root:
                e = in_first[y]
                while not desc[e_tail[e]]:
                    ops += 1
                    e = in_nxt[e]
                p_in[y] = e
            if anc[y] and y != root:
                e = out_first[y]
                while not anc[e_head[e]]:
                    ops += 1
                    e = out_nxt[e]
                p_out[y] = e
        for y in range(1, n + 1):
            e = p_in[y]
            if e != NIL:
                e = in_nxt[e]
                while e != NIL and e_ts[e] <= limit:
                    ops += 1
                    if desc[e_tail[e]]:
                        c_in[y] = e
                        break
                    e = in_nxt[e]
            e = p_out[y]
            if e != NIL:
                e = out_nxt[e]
                while e != NIL and e_ts[e] <= limit:
                    ops += 1
                    if anc[e_head[e]]:
                        c_out[y] = e
                        break
                    e = out_nxt[e]
        self.desc = desc
        self.anc = anc
        self.p_in, self.c_in = p_in, c_in
        self.p_out, self.c_out = p_out, c_out
        self.touched_in: set[int] = set()
        self.touched_out: set[int] = set()
        self.op_counter = ops

    def _snapshot_acyclic(self) -> bool:
        g = self.g
        limit, e_ts = self.limit, g.e_ts
        indeg = [0] * (g.n + 1)
        total = 0
        for v in range(1, g.n + 1):
            e = g.in_first[v]
            while e != NIL and e_ts[e] <= limit:
                indeg[v] += 1
                e = g.in_nxt[e]
            total += indeg[v]
        order = [v for v in range(1, g.n + 1) if indeg[v] == 0]
        for v in order:
            e = g.out_first[v]
            while e != NIL and e_ts[e] <= limit:
                w = g.e_head[e]
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
                e = g.out_nxt[e]
        return len(order) == g.n

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
        g = self.g
        limit = self.limit
        e_ts, e_live = g.e_ts, g.e_live
        e_tail, e_head = g.e_tail, g.e_head
        in_nxt, out_nxt = g.in_nxt, g.out_nxt
        in_first, out_first = g.in_first, g.out_first
        desc, anc = self.desc, self.anc
        p_in, c_in = self.p_in, self.c_in
        p_out, c_out = self.p_out, self.c_out
        d_delta: list[int] = []
        a_delta: list[int] = []
        touched_in: set[int] = set()
        touched_out: set[int] = set()
        ops = 0

        queue = [e for e in removed_ids if e_ts[e] <= limit]
        while queue:
            e = queue.pop()
            ops += 1
            y = e_head[e]
            if p_in[y] == e:
                touched_in.add(y)
                c = c_in[y]
                if c == NIL:
                    p_in[y] = NIL
                    desc[y] = 0
                    d_delta.append(y)
                    e2 = out_first[y]
                    while e2 != NIL and e_ts[e2] <= limit:
                        ops += 1
                        queue.append(e2)
                        e2 = out_nxt[e2]
                else:
                    p_in[y] = c
                    pos = in_nxt[c]
                    new_c = NIL
                    while pos != NIL and e_ts[pos] <= limit:
                        ops += 1
                        if e_live[pos] and desc[e_tail[pos]]:
                            new_c = pos
                            break
                        pos = in_nxt[pos]
                    c_in[y] = new_c
            elif c_in[y] == e:
                touched_in.add(y)
                pos = in_nxt[e]
                new_c = NIL
                while pos != NIL and e_ts[pos] <= limit:
                    ops += 1
                    if e_live[pos] and desc[e_tail[pos]]:
                        new_c = pos
                        break
                    pos = in_nxt[pos]
                c_in[y] = new_c

        queue = [e for e in removed_ids if e_ts[e] <= limit]
        while queue:
            e = queue.pop()
            ops += 1
            x = e_tail[e]
            if p_out[x] == e:
                touched_out.add(x)
                c = c_out[x]
                if c == NIL:
                    p_out[x] = NIL
                    anc[x] = 0
                    a_delta.append(x)
                    e2 = in_first[x]
                    while e2 != NIL and e_ts[e2] <= limit:
                        ops += 1
                        queue.append(e2)
                        e2 = in_nxt[e2]
                else:
                    p_out[x] = c
                    pos = out_nxt[c]
                    new_c = NIL
                    while pos != NIL and e_ts[pos] <= limit:
                        ops += 1
                        if e_live[pos] and anc[e_head[pos]]:
                            new_c = pos
                            break
                        pos = out_nxt[pos]
                    c_out[x] = new_c
            elif c_out[x] == e:
                touched_out.add(x)
                pos = out_nxt[e]
                new_c = NIL
                while pos != NIL and e_ts[pos] <= limit:
                    ops += 1
                    if e_live[pos] and anc[e_head[pos]]:
                        new_c = pos
                        break
                    pos = out_nxt[pos]
                c_out[x] = new_c

        self.touched_in = touched_in
        self.touched_out = touched_out
        self.op_counter += ops
        return d_delta, a_delta
