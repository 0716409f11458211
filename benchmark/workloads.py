"""The four benchmark workloads and the streams they replay.

Each workload drives one engine.  Its stream starts with a build phase of
centered insertions that brings the graph to 5n live edges, then churns
batches of 1-3 edges, inserts and deletes equally likely while the edge
count stays within a few edges of 5n.  Streams depend only on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from dyntr import AlgebraicDag, AlgebraicGeneral, TrDag, TrGeneral
from dyntr.graph_core import DeleteSet, Edge, InsertCentered, Update

# the churn draws inserts and deletes with equal odds while the live edge
# count is within this many edges of 5n, and only the kind that brings it
# back otherwise, so every seed and every stretch of a run sees the same
# graph size
LEVEL_SLACK = 6

@dataclass(frozen=True)
class Workload:
    name: str
    engine: type  # built as engine(n), or engine(n, seed=seed) when seeded
    seeded: bool
    n: int
    mode: str
    generate: Callable[[int, int, int], list[Update]]
    tr_every: int  # one tr_edges call after every this many updates
    check_every: int  # an oracle checkpoint every this many updates
    round_updates: int  # churn updates replayed by every round of a run

    def make_engine(self, seed: int):
        return self.engine(self.n, seed=seed) if self.seeded else self.engine(self.n)


def dag_layout(n: int, rng: random.Random) -> Callable[[int], list[list[Edge]]]:
    """Every edge at a center follows one random topological order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = [0] * (n + 1)
    for i, v in enumerate(order):
        rank[v] = i

    def pools(c: int) -> list[list[Edge]]:
        return [[(c, w) if rank[c] < rank[w] else (w, c) for w in range(1, n + 1) if w != c]]

    return pools


def general_layout(n: int, rng: random.Random) -> Callable[[int], list[list[Edge]]]:
    """Any edge at a center, in either direction."""

    def pools(c: int) -> list[list[Edge]]:
        return [[e for w in range(1, n + 1) if w != c for e in ((c, w), (w, c))]]

    return pools


def condensed_layout(n: int, rng: random.Random) -> Callable[[int], list[list[Edge]]]:
    """A random DAG of small SCCs.

    Vertices fall into clusters of 3-6 in a random order of clusters.
    Edges inside a cluster may point either way; edges between clusters
    always point from the earlier cluster to the later one, so every SCC
    lies inside one cluster.  The two kinds are separate pools, so a drawn
    edge is intra-cluster with probability one half while the center has
    such a candidate left.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cluster = [0] * (n + 1)
    members: list[list[int]] = []
    i = 0
    while i < n:
        rest = n - i
        size = rng.randint(3, 6)
        if rest <= 6:
            size = rest
        elif rest - size < 3:
            size = rest - 3
        members.append(order[i : i + size])
        for v in order[i : i + size]:
            cluster[v] = len(members) - 1
        i += size

    def pools(c: int) -> list[list[Edge]]:
        cc = cluster[c]
        intra = [e for w in members[cc] if w != c for e in ((c, w), (w, c))]
        inter = [
            (c, w) if cc < cluster[w] else (w, c)
            for w in range(1, n + 1)
            if cluster[w] != cc
        ]
        return [intra, inter]

    return pools


def level_stream(layout) -> Callable[[int, int, int], list[Update]]:
    """A stream generator over the edges that ``layout`` allows.

    ``layout(n, rng)`` returns the candidate edges at a center as one or
    more pools; each drawn edge comes from a random pool that still has a
    non-live edge, then a random edge of it.  A build phase inserts until
    5n edges are live; the churn phase then holds that level (see
    ``LEVEL_SLACK``).  Deletions pick live edges uniformly.  The result
    depends only on the arguments, and ``steps`` only cuts its length: a
    longer stream has the shorter one as its prefix.
    """

    def generate(n: int, steps: int, seed: int) -> list[Update]:
        rng = random.Random(seed)
        pools_at = layout(n, rng)
        target = 5 * n
        live: set[Edge] = set()
        live_list: list[Edge] = []
        pos: dict[Edge, int] = {}

        def insert_batch() -> InsertCentered | None:
            for _ in range(8):
                c = rng.randint(1, n)
                pools = [p for p in ([e for e in pool if e not in live] for pool in pools_at(c)) if p]
                chosen = []
                for _ in range(rng.randint(1, 3)):
                    if not pools:
                        break
                    pool = pools[rng.randrange(len(pools))]
                    chosen.append(pool.pop(rng.randrange(len(pool))))
                    pools = [p for p in pools if p]
                if chosen:
                    for e in chosen:
                        live.add(e)
                        pos[e] = len(live_list)
                        live_list.append(e)
                    return InsertCentered(c, tuple(sorted(chosen)))
            return None

        def delete_batch() -> DeleteSet | None:
            chosen = []
            for _ in range(min(rng.randint(1, 3), len(live_list))):
                e = live_list[rng.randrange(len(live_list))]
                live.discard(e)
                j = pos.pop(e)
                last = live_list.pop()
                if last != e:
                    live_list[j] = last
                    pos[last] = j
                chosen.append(e)
            return DeleteSet(tuple(sorted(chosen))) if chosen else None

        updates: list[Update] = []
        while len(updates) < steps and len(live) < target:
            upd = insert_batch()
            if upd is None:
                break
            updates.append(upd)
        while len(updates) < steps:
            if len(live) < target - LEVEL_SLACK:
                want_insert = True
            elif len(live) > target + LEVEL_SLACK:
                want_insert = False
            else:
                want_insert = rng.random() < 0.5
            if want_insert:
                upd = insert_batch() or delete_batch()
            else:
                upd = delete_batch() or insert_batch()
            if upd is None:
                break
            updates.append(upd)
        return updates

    return generate


def build_length(n: int, updates: list[Update]) -> int:
    """Length of the build prefix: insertions until 5n edges are live.

    ``level_stream`` ends its build phase with the first update that
    brings the live edge count to 5n.
    """
    live = 0
    for i, upd in enumerate(updates):
        if live >= 5 * n:
            return i
        if not isinstance(upd, InsertCentered):
            raise ValueError(f"update {i} of the build phase is not an insertion")
        live += len(upd.edges)
    return len(updates)


WORKLOADS = {
    w.name: w
    for w in (
        # TrDag in its amortized-deletion regime: DecReach.delete and the
        # tr_dag ledger scans take the time; no SCC or algebraic code runs
        Workload(
            name="comb-dag-churn",
            engine=TrDag,
            seeded=False,
            n=1000,
            mode="dag",
            generate=level_stream(dag_layout),
            tr_every=25,
            check_every=500,
            round_updates=700,
        ),
        # TrGeneral with one giant SCC: view rebuilds and re-aggregation
        # dominate del, minimal_scss dominates tr
        Workload(
            name="comb-general-giant",
            engine=TrGeneral,
            seeded=False,
            n=100,
            mode="general",
            generate=level_stream(general_layout),
            tr_every=10,
            check_every=50,
            round_updates=100,
        ),
        # AlgebraicDag: a rank-1 update of the 3n x 3n inverse dominates every
        # update.  Set-up pays three of them per build edge, so n stays small
        # enough for three set-ups per run.
        Workload(
            name="alg-dag-churn",
            engine=AlgebraicDag,
            seeded=True,
            n=64,
            mode="dag",
            generate=level_stream(dag_layout),
            tr_every=10,
            check_every=100,
            round_updates=150,
        ),
        # AlgebraicGeneral on a DAG of small SCCs: n x n rank-1 updates, and
        # tr spends its time on condensation and group_redundant
        Workload(
            name="alg-general-condensed",
            engine=AlgebraicGeneral,
            seeded=True,
            n=200,
            mode="general",
            generate=level_stream(condensed_layout),
            tr_every=10,
            check_every=200,
            round_updates=200,
        ),
    )
}
