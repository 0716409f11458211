"""End-to-end acceptance checks, one test per release gate.

The gates, in order: exact DAG reductions against brute force at scale,
general-graph validity at scale, recomputability of every maintained
ledger and witness flag, the amortized work budget for deletion-only
runs, agreement of the algebraic and combinatorial classifications,
path-counting semantics of the maintained inverse, the group identity
against brute force on tiny digraphs, and a throughput smoke run that
records a CSV for regression tracking.

Constants that needed a measurement (the work-budget multiplier, the
history-size mixes) were frozen after one calibration run and are not
tuned to make a failing build pass.
"""

import csv
import io
import random
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from dyntr import cli
from dyntr.algebraic import (
    FIELD_PRIME,
    AlgebraicDag,
    AlgebraicGeneral,
    InverseState,
    matrix_inverse,
)
from dyntr.errors import DenominatorZero
from dyntr.graph_core import InsertCentered
from dyntr.oracle import (
    brute_tr_dag,
    random_update_stream,
    scc_partition,
    validity_triple,
)
from dyntr.tr_dag import TrDag
from dyntr.tr_general import TrGeneral
from reference import (
    dag_path_count,
    recompute_dag_ledgers,
    recompute_general_ledgers,
    recompute_scc_inout,
    transitive_closure,
)

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "test_artifacts"

# Frozen after one calibration run: worst observed deletion-phase ratio
# was 1.80 and worst per-insertion ratio 2.69, so 6 leaves at least 2x
# headroom on both without masking a regression to superlinear work.
WORK_BUDGET_MULTIPLIER = 6


def drive(eng, upd):
    if isinstance(upd, InsertCentered):
        eng.insert_centered(upd.center, upd.edges)
    else:
        eng.delete_edges(upd.edges)


def test_c1_dag_reduction_matches_oracle_on_ten_thousand_histories():
    for seed in range(10_000):
        n = 2 + seed % 29
        steps = (12, 24, 40, 80, 160)[seed % 5]
        density = (0.35, 0.15, 0.0, 0.5)[seed % 4]
        eng = TrDag(n)
        for upd in random_update_stream(n, steps, "dag", density=density, seed=seed):
            drive(eng, upd)
            want = sorted(brute_tr_dag(n, eng.g.edge_list()))
            assert eng.tr_edges() == want, f"seed {seed} after {upd}"


def test_c2_general_reduction_validity_on_three_thousand_histories():
    for seed in range(3_000):
        n = 2 + seed % 24
        steps = (10, 18, 30, 50)[seed % 4]
        density = (0.0, 0.25, 0.45)[seed % 3]
        eng = TrGeneral(n)
        for upd in random_update_stream(
            n, steps, "general", density=density, seed=seed
        ):
            drive(eng, upd)
            live = eng.g.edge_list()
            tr = eng.tr_edges()
            reason = validity_triple(n, live, tr)
            assert reason is None, f"seed {seed}: {reason}"
            comp, _ = scc_partition(n, live)
            kept = Counter(
                (comp[x], comp[y]) for x, y in tr if comp[x] != comp[y]
            )
            worst = max(kept.values(), default=0)
            assert worst <= 1, f"seed {seed}: {worst} edges kept in one group"


def test_c3_ledgers_and_flags_recomputable_on_five_hundred_histories():
    for seed in range(250):
        n = 2 + seed % 11
        steps = (8, 14, 24)[seed % 3]
        density = (0.35, 0.0, 0.5)[seed % 3]
        eng = TrDag(n)
        for upd in random_update_stream(n, steps, "dag", density=density, seed=seed):
            drive(eng, upd)
            assert eng.ledgers() == recompute_dag_ledgers(eng.g), f"dag seed {seed}"
    for seed in range(250):
        n = 2 + seed % 11
        steps = (8, 14, 24)[seed % 3]
        density = (0.0, 0.3, 0.5)[seed % 3]
        eng = TrGeneral(n)
        for upd in random_update_stream(
            n, steps, "general", density=density, seed=seed
        ):
            drive(eng, upd)
            assert eng.ledgers() == recompute_general_ledgers(eng.g), (
                f"general seed {seed}"
            )
            for root in eng.scc.views:
                in_map, out_map = recompute_scc_inout(eng.g, root)
                for v in range(1, n + 1):
                    assert eng.scc.in_query(v, root) == in_map[v], (
                        f"seed {seed} root {root} in {v}"
                    )
                    assert eng.scc.out_query(v, root) == out_map[v], (
                        f"seed {seed} root {root} out {v}"
                    )


def test_c4_deletion_phase_work_stays_linear():
    c = WORK_BUDGET_MULTIPLIER
    for n in (50, 100, 200):
        rng = random.Random(n)
        rank = list(range(1, n + 1))
        rng.shuffle(rank)
        pos = {v: i for i, v in enumerate(rank)}
        eng = TrDag(n)
        m0 = 5 * n
        while len(eng.g.eid) < m0:
            center = rng.randrange(1, n + 1)
            batch = []
            for _ in range(rng.randint(1, 4)):
                other = rng.randrange(1, n + 1)
                if other == center:
                    continue
                edge = (center, other) if pos[center] < pos[other] else (other, center)
                if edge not in eng.g.eid and edge not in batch:
                    batch.append(edge)
            if not batch:
                continue
            before = eng.op_counter
            eng.insert_centered(center, batch)
            spent = eng.op_counter - before
            budget = c * (len(eng.g.eid) + n)
            assert spent <= budget, f"n={n}: insertion spent {spent} > {budget}"
        drain_start = eng.op_counter
        live = eng.g.edge_list()
        rng.shuffle(live)
        i = 0
        while i < len(live):
            k = rng.randint(1, 3)
            eng.delete_edges(live[i : i + k])
            i += k
        assert len(eng.g.eid) == 0
        total = eng.op_counter - drain_start
        budget = c * n * (m0 + n)
        assert total <= budget, f"n={n}: drain spent {total} > {budget}"


def test_c5_algebraic_matches_combinatorial_classification():
    for seed in range(1_000):
        n = 2 + seed % 29
        steps = (10, 20, 36)[seed % 3]
        density = (0.35, 0.15, 0.5)[seed % 3]
        alg = AlgebraicDag(n, seed=seed)
        comb = TrDag(n)
        for upd in random_update_stream(n, steps, "dag", density=density, seed=seed):
            drive(alg, upd)
            drive(comb, upd)
            for edge in comb.g.eid:
                assert alg.is_redundant(*edge) == comb.is_redundant(*edge), (
                    f"dag seed {seed} edge {edge}"
                )
    for seed in range(1_000):
        n = 2 + seed % 29
        steps = (8, 14, 22)[seed % 3]
        density = (0.35, 0.15, 0.5)[seed % 3]
        alg = AlgebraicGeneral(n, seed=seed)
        comb = TrGeneral(n)
        for upd in random_update_stream(
            n, steps, "general", density=density, seed=seed
        ):
            drive(alg, upd)
            drive(comb, upd)
            comb_tr = set(comb.tr_edges())
            comp = comb.scc.comp_cur
            for (cx, cy), group in comb.scc.groups.items():
                r = min(v for v in range(1, n + 1) if comp[v] == cx)
                t = min(v for v in range(1, n + 1) if comp[v] == cy)
                got = alg.group_redundant(list(group.members), r, t)
                want = group.marked not in comb_tr
                assert got == want, f"general seed {seed} group {(cx, cy)}"


def test_c6_unit_weight_inverse_counts_paths_and_stays_consistent():
    for seed in range(200):
        rng = random.Random(seed)
        n = 2 + seed % 11
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = [
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        mat = np.zeros((n, n), dtype=np.uint64)
        for i in range(n):
            mat[i, i] = 1
        for u, v in edges:
            mat[u - 1, v - 1] = FIELD_PRIME - 1
        inv = matrix_inverse(mat)
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                want = dag_path_count(n, edges, u, v) % FIELD_PRIME
                assert int(inv[u - 1, v - 1]) == want, f"seed {seed} pair {(u, v)}"
    rng = random.Random(777)
    state = InverseState(36)
    applied = 0
    while applied < 10_000:
        i = rng.randrange(36)
        j = rng.randrange(36)
        delta = rng.randrange(1, FIELD_PRIME)
        try:
            state.rank1_update(i, j, delta)
        except DenominatorZero:
            continue
        applied += 1
        assert state.probe_ok(rng, 2), f"probe failed after update {applied}"
    assert state.full_product_is_identity()


def test_c7_group_identity_matches_brute_force_on_tiny_digraphs():
    groups_checked = 0
    for seed in range(520):
        rng = random.Random(seed)
        n = 2 + seed % 4
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v
        ]
        edges = [e for e in pairs if rng.random() < 0.45]
        alg = AlgebraicGeneral(n, seed=seed)
        for u, v in edges:
            alg.insert_centered(u, [(u, v)])
        comp, _ = scc_partition(n, edges)
        groups = defaultdict(list)
        for u, v in edges:
            if comp[u] != comp[v]:
                groups[(comp[u], comp[v])].append((u, v))
        full = transitive_closure(n, edges)
        for (cx, cy), members in groups.items():
            gone = set(members)
            brute = transitive_closure(n, [e for e in edges if e not in gone]) == full
            r = min(v for v in range(1, n + 1) if comp[v] == cx)
            t = min(v for v in range(1, n + 1) if comp[v] == cy)
            got = alg.group_redundant(members, r, t)
            assert got == brute, f"seed {seed} group {(cx, cy)}"
            groups_checked += 1
    assert groups_checked >= 500


def test_c8_throughput_twenty_thousand_updates():
    ARTIFACT_DIR.mkdir(exist_ok=True)
    out_csv = ARTIFACT_DIR / "throughput_dag_comb.csv"
    started = time.perf_counter()
    text = cli.bench(
        2_000, 20_000, "dag", "comb", seed=8, out_csv=str(out_csv), density=0.5
    )
    elapsed = time.perf_counter() - started
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.startswith(cli.CSV_HEADER)
    assert len(rows) == 20_000
    assert out_csv.exists()
    edge_counts = [int(row["m"]) for row in rows]
    assert max(edge_counts) >= 9_000
    assert elapsed < 300.0, f"throughput run took {elapsed:.1f}s"
