"""General-digraph reduction engine: fixtures, minimality, oracle checks."""

import hashlib
import os
import random
import statistics
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import (
    AlgebraicGeneral,
    DeleteSet,
    InsertCentered,
    TimestampedGraph,
    TrDag,
    TrGeneral,
    minimal_scss,
)
from dyntr.errors import BadUpdate, MissingEdge, NotStronglyConnected, TooLarge
from dyntr.oracle import (
    brute_minimal_scss,
    brute_redundant,
    brute_tr_dag,
    random_update_stream,
    recompute_general_ledgers,
    scc_partition,
    validity_triple,
)
from dyntr import tr_general
from dyntr.scc_snapshots import split_edges
from dyntr.tr_general import _BYTES_PER_ROOT, has_detour

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMinimalScss:
    def test_triangle_is_kept_whole(self):
        cycle = [(1, 2), (2, 3), (3, 1)]
        assert minimal_scss([1, 2, 3], cycle) == set(cycle)

    def test_chord_is_dropped(self):
        edges = [(1, 2), (2, 3), (3, 1), (1, 3)]
        assert minimal_scss([1, 2, 3], edges) == {(1, 2), (2, 3), (3, 1)}

    def test_single_vertex(self):
        assert minimal_scss([4], []) == set()
        assert minimal_scss([4], [(4, 4)]) == set()
        assert minimal_scss([], []) == set()

    @pytest.mark.parametrize(
        "verts,edges",
        [
            ([1, 2], [(1, 2)]),
            ([10, 20, 30], [(10, 20), (20, 30)]),
            ([1, 2, 3, 4], [(1, 2), (2, 1), (3, 4), (4, 3)]),
            ([3, 1, 2], [(1, 2), (2, 1)]),
        ],
        ids=["one-way-pair", "path-on-sparse-ids", "two-disjoint-two-cycles",
             "vertex-without-edges"],
    )
    def test_disconnected_input_rejected(self, verts, edges):
        with pytest.raises(NotStronglyConnected):
            minimal_scss(verts, edges)

    def test_probe_order_decides_survivors(self):
        # the direct two-cycle is probed first and dropped; the four-cycle
        # probed afterwards has become irreplaceable and survives
        edges = [(1, 3), (3, 2), (2, 4), (4, 1)]
        extra = [(1, 2), (2, 1)]
        kept = minimal_scss([1, 2, 3, 4], extra + edges)
        assert kept == set(edges)

    @pytest.mark.parametrize(
        "stray",
        [(3, 1), (1, 3), (1, 2, 3), 1, ([1], 2)],
        ids=["tail", "head", "triple", "int", "unhashable-tail"],
    )
    def test_endpoint_outside_vertices_rejected(self, stray):
        with pytest.raises(BadUpdate):
            minimal_scss([1, 2], [(1, 2), (2, 1), stray])

    @pytest.mark.parametrize(
        "verts,edges",
        [([[1]], []), (5, []), ([1], 5)],
        ids=["unhashable-vertex", "int-vertices", "int-edges"],
    )
    def test_malformed_arguments_rejected(self, verts, edges):
        with pytest.raises(BadUpdate):
            minimal_scss(verts, edges)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(BadUpdate, match="vertex 1 repeated"):
            minimal_scss([1, 1, 2], [(1, 2), (2, 1)])

    def test_repeated_edge_matches_deduplicated_list(self):
        # the repeated chord is dropped on its first probe and skipped on
        # its second; the repeated cycle edge is kept on both
        edges = [(1, 3), (1, 2), (2, 3), (3, 1), (1, 3), (2, 3), (2, 1)]
        unique = list(dict.fromkeys(edges))
        kept = minimal_scss([1, 2, 3], edges)
        assert kept == minimal_scss([1, 2, 3], unique)
        assert kept == {(1, 2), (2, 3), (3, 1)}

    def test_matches_full_cover_reference_on_random_components(self):
        # validity_triple accepts any minimal subset; equality with the
        # oracle's probe-by-full-cover loop also pins the probe order
        rng = random.Random(2024)
        for _ in range(3000):
            n = rng.randint(2, 12)
            order = rng.sample(range(1, n + 1), n)
            edges = set()
            for j in range(1, n):
                edges.add((order[rng.randrange(j)], order[j]))
                edges.add((order[j], order[rng.randrange(j)]))
            for _ in range(rng.randint(0, 3 * n)):
                edges.add(tuple(rng.sample(range(1, n + 1), 2)))
            edges = list(edges)
            rng.shuffle(edges)
            verts = rng.sample(range(1, n + 1), n)
            assert minimal_scss(verts, edges) == brute_minimal_scss(verts, edges)

    def test_probe_after_the_only_other_in_edge_was_dropped(self):
        # (1, 3) and (3, 1) are dropped first; when (4, 1) is probed, 1's
        # only other in-edge (3, 1) is gone, so the backward front ends at
        # once and the edge stays
        edges = [(1, 3), (3, 1), (1, 2), (2, 3), (3, 4), (4, 1), (4, 3)]
        kept = minimal_scss([1, 2, 3, 4], edges)
        assert kept == {(1, 2), (2, 3), (3, 4), (4, 1)}
        assert kept == brute_minimal_scss([1, 2, 3, 4], edges)

    def test_matches_full_cover_reference_on_large_sparse_components(self):
        # a Hamiltonian cycle plus up to n chords: most probes keep their
        # edge, so both fronts of the probe run long before they stop
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(20, 80)
            order = rng.sample(range(1, n + 1), n)
            edges = {(order[j - 1], order[j]) for j in range(n)}
            m = rng.randint(n, 2 * n)
            while len(edges) < m:
                edges.add(tuple(rng.sample(range(1, n + 1), 2)))
            edges = list(edges)
            rng.shuffle(edges)
            assert minimal_scss(order, edges) == brute_minimal_scss(order, edges)


class TestHasDetour:
    def test_only_path_is_the_edge_itself(self):
        g = TimestampedGraph(3)
        g.apply_insert_centered(1, [(1, 2), (3, 1)])
        g.apply_insert_centered(2, [(2, 3)])
        assert has_detour(g, 1, 2) is False
        assert has_detour(g, 2, 3) is False
        g.apply_insert_centered(1, [(1, 3)])
        # 1 -> 3 -> 1 -> 2 only returns to 1, so (1, 2) stays alone
        assert has_detour(g, 1, 2) is False
        assert has_detour(g, 1, 3) is True

    def test_deleted_detour_is_not_followed(self):
        g = TimestampedGraph(3)
        g.apply_insert_centered(1, [(1, 2), (1, 3), (2, 1)])
        g.apply_insert_centered(3, [(3, 2)])
        assert has_detour(g, 1, 2) is True
        g.apply_delete([(3, 2)])
        assert has_detour(g, 1, 2) is False
        g.apply_delete([(1, 3)])
        assert has_detour(g, 1, 2) is False


def two_cycle_engine():
    eng = TrGeneral(5)
    eng.insert_centered(1, [(1, 2), (2, 1)])
    eng.insert_centered(3, [(3, 4), (4, 3)])
    eng.insert_centered(1, [(1, 3)])
    eng.insert_centered(2, [(2, 4)])
    return eng


class TestInsert:
    def test_marked_edge_represents_its_group(self):
        eng = two_cycle_engine()
        group = eng.scc.groups[(eng.scc.comp_cur[1], eng.scc.comp_cur[3])]
        assert group.marked == (1, 3)
        tr = eng.tr_edges()
        assert tr == [(1, 2), (1, 3), (2, 1), (3, 4), (4, 3)]
        assert (2, 4) not in tr
        live = eng.g.edge_list()
        assert validity_triple(eng.g.n, live, tr) is None

    def test_middle_component_starves_the_marked_edge(self):
        eng = two_cycle_engine()
        eng.insert_centered(5, [(1, 5), (5, 3)])
        count, _, _ = eng.ledgers()
        assert count[(1, 3)] >= 1
        tr = eng.tr_edges()
        assert (1, 3) not in tr
        assert (2, 4) not in tr
        assert validity_triple(eng.g.n, eng.g.edge_list(), tr) is None

    def test_cycle_from_empty(self):
        eng = TrGeneral(3)
        eng.insert_centered(1, [(1, 2)])
        eng.insert_centered(2, [(2, 3)])
        eng.insert_centered(3, [(3, 1)])
        assert eng.tr_edges() == [(1, 2), (2, 3), (3, 1)]


class TestDelete:
    def test_surviving_sibling_is_promoted(self):
        eng = two_cycle_engine()
        eng.delete_edges([(1, 3)])
        group = eng.scc.groups[(eng.scc.comp_cur[2], eng.scc.comp_cur[4])]
        assert group.marked == (2, 4)
        tr = eng.tr_edges()
        assert (2, 4) in tr
        assert validity_triple(eng.g.n, eng.g.edge_list(), tr) is None

    def test_component_split_updates_condensation(self):
        eng = two_cycle_engine()
        eng.delete_edges([(1, 2)])
        group = eng.scc.groups[(eng.scc.comp_cur[2], eng.scc.comp_cur[1])]
        assert group.size == 1
        tr = eng.tr_edges()
        assert validity_triple(eng.g.n, eng.g.edge_list(), tr) is None

    def test_down_to_empty(self):
        eng = TrGeneral(3)
        eng.insert_centered(1, [(1, 2), (2, 1)])
        eng.delete_edges([(1, 2), (2, 1)])
        assert eng.tr_edges() == []

    def test_missing_edge_rejected(self):
        eng = two_cycle_engine()
        with pytest.raises(MissingEdge):
            eng.delete_edges([(4, 2)])
        assert validity_triple(
            eng.g.n, eng.g.edge_list(), eng.tr_edges()
        ) is None


def test_acyclic_history_matches_dag_engine():
    general = TrGeneral(3)
    dag = TrDag(3)
    for center, batch in [(1, [(1, 2), (1, 3)]), (3, [(3, 2)])]:
        general.insert_centered(center, batch)
        dag.insert_centered(center, batch)
    assert general.tr_edges() == dag.tr_edges() == [(1, 3), (3, 2)]
    general.delete_edges([(1, 3)])
    dag.delete_edges([(1, 3)])
    assert general.tr_edges() == dag.tr_edges() == [(1, 2), (3, 2)]


@st.composite
def general_streams(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    steps = draw(st.integers(min_value=5, max_value=40))
    density = draw(st.sampled_from([0.0, 0.25, 0.45]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    stream = random_update_stream(
        n, steps, mode="general", density=density, seed=seed
    )
    return n, stream


def drive(eng, upd):
    if isinstance(upd, InsertCentered):
        eng.insert_centered(upd.center, upd.edges)
    else:
        assert isinstance(upd, DeleteSet)
        eng.delete_edges(upd.edges)


@given(general_streams())
@PROPERTY_SETTINGS
def test_validity_triple_after_every_update(case):
    n, updates = case
    eng = TrGeneral(n)
    for upd in updates:
        drive(eng, upd)
        tr = eng.tr_edges()
        assert validity_triple(n, eng.g.edge_list(), tr) is None


@given(general_streams())
@PROPERTY_SETTINGS
def test_group_exclusivity(case):
    n, updates = case
    eng = TrGeneral(n)
    for upd in updates:
        drive(eng, upd)
        tr = set(eng.tr_edges())
        groups = eng.scc.groups
        for group in groups.values():
            assert len(tr.intersection(group.members)) <= 1
        # the kept group sizes match the groups formed afresh
        kept = {key: size for key, size in eng.group_size.items() if size}
        assert kept == {key: group.size for key, group in groups.items()}


@given(general_streams())
@PROPERTY_SETTINGS
def test_ledgers_match_definitional_recomputation(case):
    n, updates = case
    eng = TrGeneral(n)
    for upd in updates:
        drive(eng, upd)
        count, tx, ty = eng.ledgers()
        want_count, want_tx, want_ty = recompute_general_ledgers(eng.g)
        assert count == want_count
        assert tx == want_tx
        assert ty == want_ty


def spy_full_pass(monkeypatch) -> list[None]:
    calls = []
    full_pass = TrGeneral._full_pass

    def counted(self):
        calls.append(None)
        full_pass(self)

    monkeypatch.setattr(TrGeneral, "_full_pass", counted)
    return calls


def test_ledger_deltas_match_recomputation_on_seeded_histories(monkeypatch):
    # counts the updates that took the delta path, so the check is known
    # to cover it and not only the full pass
    full = spy_full_pass(monkeypatch)
    updates = deltas = 0
    for seed in range(150):
        n = 3 + seed % 12
        density = (0.0, 0.25, 0.45)[seed % 3]
        eng = TrGeneral(n)
        # 6n steps: the build phase takes about 2.5n, so most are churn
        for upd in random_update_stream(n, 6 * n, "general", density=density, seed=seed):
            calls = len(full)
            drive(eng, upd)
            updates += 1
            deltas += len(full) == calls
            assert eng.ledgers() == recompute_general_ledgers(eng.g)
    assert deltas > updates // 2


def test_searched_view_side_moves_ledgers_by_deltas(monkeypatch):
    # components {1, 2} and {3, 4}; 5 and 6 stand alone.  Deleting (2, 5)
    # leaves 5 without a parent in root 1's out-tree and 2 without one in
    # root 5's in-tree, so both sides are searched again; the condensation
    # stays, since (2, 5) joins two components
    eng = TrGeneral(6)
    for center, batch in [
        (1, [(1, 2), (2, 1)]),
        (3, [(3, 4), (4, 3)]),
        (5, [(2, 5), (5, 3)]),
        (6, [(6, 1), (6, 5)]),
        (1, [(1, 3)]),
    ]:
        eng.insert_centered(center, batch)
    count, tx, _ = eng.ledgers()
    assert count[(6, 5)] == 1 and tx[(6, 5)] and tx[(1, 3)]
    full = spy_full_pass(monkeypatch)
    comp, views = eng.scc.comp_cur, dict(eng.scc.views)
    eng.delete_edges([(2, 5)])
    assert full == []
    assert eng.scc.comp_cur is comp
    assert eng.scc.views[1].desc is not views[1].desc
    assert eng.scc.views[5].anc is not views[5].anc
    count, tx, ty = eng.ledgers()
    assert (count, tx, ty) == recompute_general_ledgers(eng.g)
    assert count[(6, 5)] == 0 and not tx[(6, 5)] and not tx[(1, 3)]


@given(general_streams())
@PROPERTY_SETTINGS
def test_redundancy_query_matches_brute_force(case):
    n, updates = case
    eng = TrGeneral(n)
    for upd in updates:
        drive(eng, upd)
        live = eng.g.edge_list()
        for x, y in live:
            assert eng.is_redundant(x, y) == brute_redundant(n, live, x, y)


def test_detour_probe_matches_brute_force_on_seeded_histories():
    for seed in range(60):
        n = 2 + seed % 9
        density = (0.0, 0.25, 0.45)[seed % 3]
        eng = TrGeneral(n)
        for upd in random_update_stream(n, 30, "general", density=density, seed=seed):
            drive(eng, upd)
            live = eng.g.edge_list()
            for x, y in live:
                assert has_detour(eng.g, x, y) == brute_redundant(n, live, x, y)


@st.composite
def dag_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, random_update_stream(n, 30, mode="dag", seed=seed)


@given(dag_cases())
@PROPERTY_SETTINGS
def test_dag_streams_through_general_engine(case):
    n, updates = case
    eng = TrGeneral(n)
    for upd in updates:
        drive(eng, upd)
        assert eng.tr_edges() == sorted(brute_tr_dag(n, eng.g.edge_list()))


@pytest.mark.parametrize("cls", [TrGeneral, AlgebraicGeneral])
def test_kept_spanning_subsets_are_exact_and_bounded(cls, monkeypatch):
    probed = []

    def counted(vertices, edges):
        probed.append(edges)
        return minimal_scss(vertices, edges)

    monkeypatch.setattr(tr_general, "minimal_scss", counted)
    components = misses = 0
    for seed in range(60):
        n = 4 + seed % 12
        density = (0.0, 0.25, 0.45)[seed % 3]
        eng = cls(n)
        for upd in random_update_stream(n, 4 * n, "general", density=density, seed=seed):
            drive(eng, upd)
            before = len(probed)
            got = eng.tr_edges()
            misses += len(probed) - before
            kept = eng._scss
            # the keys are the current components' edges, in age order
            comp, _ = scc_partition(n, list(eng.g.eid))
            intra, _ = split_edges(eng.g, comp)
            assert set(kept) == {tuple(edges) for edges in intra.values()}
            components += len(intra)
            # the same call with nothing kept probes every component afresh
            eng._scss = {}
            assert eng.tr_edges() == got
            eng._scss = kept
    # some components come through an update unchanged and are not probed
    assert 0 < misses < components


@pytest.mark.parametrize("cls", [TrGeneral, AlgebraicGeneral])
def test_reduction_digest_over_seeded_histories(cls):
    # SHA-256 over every tr_edges() result of 150 seeded histories, as the
    # one-search probe that preceded the two-front probe gave it
    digest = hashlib.sha256()
    for seed in range(150):
        n = 4 + seed % 24
        density = (0.0, 0.25, 0.45)[seed % 3]
        eng = cls(n)
        for upd in random_update_stream(n, 3 * n, "general", density=density, seed=seed):
            drive(eng, upd)
            digest.update(repr(eng.tr_edges()).encode())
    assert digest.hexdigest() == (
        "d0dac09229b0c39f683d0b4d06d9583451e55d0d53d66ba424067f3f85b117ca"
    )


def engine_view(eng):
    views = {z: (bytes(v.desc), bytes(v.anc)) for z, v in eng.scc.views.items()}
    return eng.tr_edges(), eng.ledgers(), dict(eng.g.eid), views


def test_a_new_root_past_memory_leaves_the_engine_as_it_was(monkeypatch):
    n = 20
    eng, twin = TrGeneral(n), TrGeneral(n)
    for e in (eng, twin):
        e.insert_centered(1, [(1, 2), (1, 3)])
        e.insert_centered(2, [(2, 4)])
    # room for two roots' views, not for a third
    pages = _BYTES_PER_ROOT * (n + 1) * 2
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else pages)
    for e in (eng, twin):
        # re-centering a root builds no new view
        e.insert_centered(1, [(1, 5)])
        e.delete_edges([(1, 3)])
    # the batch would close the cycle 1 -> 2 -> 3 -> 1
    with pytest.raises(TooLarge):
        eng.insert_centered(3, [(3, 1), (2, 3)])
    assert engine_view(eng) == engine_view(twin)
    monkeypatch.undo()
    for e in (eng, twin):
        e.insert_centered(3, [(3, 1), (2, 3)])
    assert engine_view(eng) == engine_view(twin)
    assert validity_triple(n, eng.g.edge_list(), eng.tr_edges()) is None


def test_a_new_root_insertion_peaks_at_its_view():
    # one hub feeds every vertex, so every live edge joins two components
    # and each later center is a new root
    n, k = 2000, 100
    eng = TrGeneral(n)
    eng.insert_centered(1, [(1, v) for v in range(2, n + 1)])
    peaks = []
    tracemalloc.start()
    try:
        for v in range(2, 2 + k):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            eng.insert_centered(v, [(v, v + k)])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert len(eng.scc.views) == k + 1 and len(eng.ledgers()[0]) == n - 1 + k
    # the median: a single insertion may also grow a dict
    assert statistics.median(peaks) <= _BYTES_PER_ROOT * (n + 1)
