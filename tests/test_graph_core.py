"""Shared timestamped graph: stamps, snapshots, nesting, and error cases."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import oracle
from dyntr.errors import (
    BadUpdate,
    CycleCreated,
    DuplicateEdge,
    MissingEdge,
    NotIncident,
)
from dyntr.graph_core import NIL, DeleteSet, InsertCentered, TimestampedGraph
from dyntr.tr_dag import TrDag
from dyntr.tr_general import TrGeneral
import reference

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_d3() -> TimestampedGraph:
    g = TimestampedGraph(3, acyclic=True)
    g.apply_insert_centered(1, [(1, 2), (1, 3)])
    g.apply_insert_centered(3, [(3, 2)])
    return g


def test_first_insertion_stamps():
    g = TimestampedGraph(3)
    ids = g.apply_insert_centered(1, [(1, 3), (1, 2)])
    assert ids == [g.eid[(1, 2)], g.eid[(1, 3)]] == [0, 1]
    assert g.last_ts == 1
    assert len(g.eid) == 2
    assert g.center_ts[1] == 1


def test_second_insertion_extends_chain():
    g = build_d3()
    assert g.last_ts == 2
    assert g.center_ts[2] == 0
    assert g.center_ts[1] == 1
    assert g.center_ts[3] == 2
    snap = lambda r: set(reference.snapshot_edges_of(g, r))
    assert snap(2) <= snap(1) <= snap(3)
    assert snap(3) == {(1, 2), (1, 3), (3, 2)}


def test_insert_not_incident():
    g = TimestampedGraph(3)
    with pytest.raises(NotIncident):
        g.apply_insert_centered(1, [(2, 3)])


@pytest.mark.parametrize("batch", [[], [(1, 1)], [(1, 4)], [(0, 1)]])
def test_bad_insertion_is_a_dyntr_value_error(batch):
    g = TimestampedGraph(3)
    with pytest.raises(BadUpdate) as err:
        g.apply_insert_centered(1, batch)
    assert isinstance(err.value, ValueError)
    assert len(g.eid) == 0 and g.last_ts == 0


def test_insert_duplicate():
    g = TimestampedGraph(3)
    g.apply_insert_centered(1, [(1, 2)])
    with pytest.raises(DuplicateEdge):
        g.apply_insert_centered(1, [(1, 2)])
    with pytest.raises(DuplicateEdge):
        g.apply_insert_centered(1, [(1, 3), (1, 3)])


def test_cycle_probe_rejects_and_rolls_back():
    g = TimestampedGraph(3, acyclic=True)
    g.apply_insert_centered(1, [(1, 2)])
    g.apply_insert_centered(2, [(2, 3)])
    before = g.edge_list()
    with pytest.raises(CycleCreated):
        g.apply_insert_centered(3, [(3, 1)])
    assert g.edge_list() == before
    assert g.last_ts == 2
    assert g.center_ts[3] == 0
    # a batch that closes a cycle through two fresh edges is also caught
    g3 = TimestampedGraph(3, acyclic=True)
    g3.apply_insert_centered(1, [(1, 2)])
    with pytest.raises(CycleCreated):
        g3.apply_insert_centered(3, [(2, 3), (3, 1)])
    assert g3.edge_list() == [(1, 2)]
    # general mode accepts the same batch
    h = TimestampedGraph(3)
    h.apply_insert_centered(1, [(1, 2)])
    h.apply_insert_centered(2, [(2, 3)])
    h.apply_insert_centered(3, [(3, 1)])
    assert len(h.eid) == 3


def test_delete_examples():
    g = build_d3()
    g.apply_delete([(1, 2)])
    assert len(g.eid) == 2
    with pytest.raises(MissingEdge):
        g.apply_delete([(1, 2)])
    # vertices outside 1..n make a bad edge, not a missing one
    with pytest.raises(BadUpdate):
        g.apply_delete([(9, 9)])
    assert len(g.eid) == 2
    g2 = build_d3()
    g2.apply_delete([(1, 2), (3, 2)])
    assert len(g2.eid) == 1
    reach = reference.transitive_closure(3, g2.edge_list())
    assert not reach[1] >> 2 & 1


def test_snapshots_observe_deletions():
    g = build_d3()
    g.apply_delete([(1, 2)])
    assert sorted(reference.snapshot_edges_of(g, 1)) == [(1, 3)]
    assert sorted(reference.snapshot_edges_of(g, 3)) == [(1, 3), (3, 2)]


@pytest.mark.parametrize("tail", ["1", None, 1.0])
def test_ts_of_checks_its_vertices(tail):
    g = build_d3()
    with pytest.raises(BadUpdate, match="a vertex is an int"):
        g.ts_of(tail, 2)


def test_ts_of_names_a_bad_or_missing_edge():
    g = build_d3()
    assert g.ts_of(3, 2) == 2
    with pytest.raises(BadUpdate, match="bad edge"):
        g.ts_of(0, 1)
    with pytest.raises(MissingEdge):
        g.ts_of(2, 1)


def _apply_stream(g: TimestampedGraph, updates) -> None:
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
        else:
            g.apply_delete(upd.edges)


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["dag", "general"]),
)
@PROPERTY_SETTINGS
def test_snapshot_nesting_on_random_histories(n, seed, mode):
    g = TimestampedGraph(n, acyclic=(mode == "dag"))
    updates = oracle.random_update_stream(n, 25, mode, 0.45, seed=seed)
    _apply_stream(g, updates)
    assert sorted(g.eid) == sorted(oracle.replay(n, updates))
    snaps = {r: set(reference.snapshot_edges_of(g, r)) for r in range(1, n + 1)}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if g.center_ts[u] <= g.center_ts[v]:
                assert snaps[u] <= snaps[v] or g.center_ts[u] == 0
        if g.center_ts[u] == 0:
            assert snaps[u] == set()
    if any(g.center_ts[r] for r in range(1, n + 1)):
        newest = max(range(1, n + 1), key=lambda r: g.center_ts[r])
        assert snaps[newest] == set(g.eid)


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32),
)
@PROPERTY_SETTINGS
def test_adjacency_stays_ts_sorted(n, seed):
    g = TimestampedGraph(n)
    updates = oracle.random_update_stream(n, 30, "general", 0.4, seed=seed)
    _apply_stream(g, updates)
    # each list holds exactly the live edges at v, in timestamp order,
    # which DecReach's cursors rely on
    for v in range(1, n + 1):
        for first, nxt, end in ((g.out_first, g.out_nxt, 0), (g.in_first, g.in_nxt, 1)):
            walked = []
            e = first[v]
            while e != NIL:
                walked.append(e)
                e = nxt[e]
            live = [e for edge, e in g.eid.items() if edge[end] == v]
            assert sorted(walked) == sorted(live)
            stamps = [g.e_ts[e] for e in walked]
            assert stamps == sorted(stamps)


def _assert_age_order_is_id_order(g: TimestampedGraph) -> None:
    by_age = sorted(g.eid, key=lambda edge: (g.ts_of(*edge), edge))
    assert [(g.e_tail[e], g.e_head[e]) for e in sorted(g.eid.values())] == by_age
    # split_edges reads age order off the dict, rebuild bisects the stamps
    assert list(g.eid) == by_age
    assert g.e_ts == sorted(g.e_ts)


@pytest.mark.parametrize("mode", ["dag", "general"])
def test_age_order_is_id_order_on_seeded_histories(mode):
    # split_edges, SccSnapshots.rebuild and the engines read edge order
    # off the ids; a rejected batch must leave no id behind
    for seed in range(40):
        n = 3 + seed % 10
        g = TimestampedGraph(n, acyclic=(mode == "dag"))
        for upd in oracle.random_update_stream(n, 40, mode, 0.5, seed=seed):
            if isinstance(upd, InsertCentered):
                ids = g.apply_insert_centered(upd.center, upd.edges)
                assert ids == [g.eid[edge] for edge in sorted(upd.edges)]
            else:
                g.apply_delete(upd.edges)
            _assert_age_order_is_id_order(g)
            if not g.eid:
                continue
            size = len(g.e_tail)
            t, h = next(iter(g.eid))
            with pytest.raises(BadUpdate):
                g.apply_insert_centered(h, [(h, n + 1)])
            if mode == "dag":
                with pytest.raises(CycleCreated):
                    g.apply_insert_centered(h, [(h, t)])
            assert len(g.e_tail) == size
            _assert_age_order_is_id_order(g)


def _apply(eng, upd) -> None:
    if isinstance(upd, InsertCentered):
        eng.insert_centered(upd.center, upd.edges)
    else:
        eng.delete_edges(upd.edges)


@pytest.mark.parametrize("cls,mode", [(TrDag, "dag"), (TrGeneral, "general")])
def test_orientations_survive_a_pickle_round_trip(cls, mode):
    # the benchmark restores every set-up engine from a pickle; the copy's
    # orientations must hold the copy's own lists, which the graph
    # changes in place
    n = 9
    updates = oracle.random_update_stream(n, 80, mode, 0.45, seed=3)
    eng = cls(n)
    for upd in updates[:40]:
        _apply(eng, upd)
    copy = pickle.loads(pickle.dumps(eng))
    g = copy.g
    fwd = (g.out_first, g.out_nxt, g.e_head, g.e_tail)
    bwd = (g.in_first, g.in_nxt, g.e_tail, g.e_head)
    assert all(a is b for a, b in zip(g.fwd + g.bwd, fwd + bwd))
    for upd in updates[40:]:
        _apply(eng, upd)
        _apply(copy, upd)
        assert copy.tr_edges() == eng.tr_edges()
        assert copy.ledgers() == eng.ledgers()
        assert getattr(copy, "op_counter", None) == getattr(eng, "op_counter", None)
