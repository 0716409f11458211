"""DAG transitive-reduction engine: frozen examples and oracle equivalence."""

import copy
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import DeleteSet, InsertCentered
from dyntr.errors import MissingEdge, TooLarge
from dyntr.graph_core import NIL
from dyntr.oracle import brute_tr_dag, random_update_stream
from dyntr.tr_dag import _BYTES_PER_ROOT, TrDag
from reference import recompute_dag_ledgers

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def d3_engine():
    eng = TrDag(3)
    eng.insert_centered(1, [(1, 2), (1, 3)])
    eng.insert_centered(3, [(3, 2)])
    return eng


class TestInsert:
    def test_single_edge_never_redundant(self):
        eng = TrDag(2)
        eng.insert_centered(1, [(1, 2)])
        count, tx, ty = eng.ledgers()
        assert count[(1, 2)] == 0
        assert not tx[(1, 2)] and not ty[(1, 2)]
        assert eng.tr_edges() == [(1, 2)]
        assert eng.is_redundant(1, 2) is False

    def test_d3_count_and_reduction(self):
        eng = d3_engine()
        count, _, _ = eng.ledgers()
        assert count[(1, 2)] == 1
        assert eng.tr_edges() == [(1, 3), (3, 2)]
        assert eng.is_redundant(1, 2) is True
        assert eng.is_redundant(1, 3) is False

    def test_path_is_its_own_reduction(self):
        eng = TrDag(3)
        eng.insert_centered(1, [(1, 2)])
        eng.insert_centered(2, [(2, 3)])
        assert eng.tr_edges() == [(1, 2), (2, 3)]
        assert eng.is_redundant(1, 2) is False

    def test_shortcut_through_two_hubs_blankets_a_biclique(self):
        # V1 = {1,2,3}, V2 = {4,5,6}, hubs 7 then 8; the single edge
        # (7, 8) gives every V1 x V2 edge a detour at once
        eng = TrDag(8)
        for v in (1, 2, 3):
            eng.insert_centered(v, [(v, 4), (v, 5), (v, 6), (v, 7)])
        eng.insert_centered(8, [(8, 4), (8, 5), (8, 6)])
        assert eng.tr_edges() == sorted(
            {(v, w) for v in (1, 2, 3) for w in (4, 5, 6)}
            | {(v, 7) for v in (1, 2, 3)}
            | {(8, w) for w in (4, 5, 6)}
        )
        eng.insert_centered(7, [(7, 8)])
        for v in (1, 2, 3):
            for w in (4, 5, 6):
                assert eng.is_redundant(v, w) is True
        assert eng.tr_edges() == sorted(
            {(v, 7) for v in (1, 2, 3)} | {(8, w) for w in (4, 5, 6)} | {(7, 8)}
        )

    def test_reinserted_edge_sees_existing_witness(self):
        eng = d3_engine()
        eng.delete_edges([(1, 2)])
        eng.insert_centered(1, [(1, 2)])
        assert eng.is_redundant(1, 2) is True
        assert eng.tr_edges() == [(1, 3), (3, 2)]


class TestDelete:
    def test_detour_removal_revives_the_edge(self):
        eng = d3_engine()
        eng.delete_edges([(1, 3)])
        count, _, _ = eng.ledgers()
        assert count[(1, 2)] == 0
        assert eng.tr_edges() == [(1, 2), (3, 2)]

    def test_removing_the_redundant_edge_changes_nothing(self):
        eng = d3_engine()
        eng.delete_edges([(1, 2)])
        assert eng.tr_edges() == [(1, 3), (3, 2)]

    def test_down_to_empty(self):
        eng = TrDag(2)
        eng.insert_centered(1, [(1, 2)])
        eng.delete_edges([(1, 2)])
        assert eng.tr_edges() == []

    def test_missing_edge_leaves_engine_intact(self):
        eng = d3_engine()
        with pytest.raises(MissingEdge):
            eng.delete_edges([(1, 3), (2, 1)])
        assert eng.tr_edges() == [(1, 3), (3, 2)]
        with pytest.raises(MissingEdge):
            eng.is_redundant(2, 1)


@st.composite
def dag_streams(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    steps = draw(st.integers(min_value=5, max_value=50))
    density = draw(st.sampled_from([0.0, 0.2, 0.4]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    stream = random_update_stream(n, steps, mode="dag", density=density, seed=seed)
    return n, stream


def drive(eng, upd):
    if isinstance(upd, InsertCentered):
        eng.insert_centered(upd.center, upd.edges)
    else:
        assert isinstance(upd, DeleteSet)
        eng.delete_edges(upd.edges)


@given(dag_streams())
@PROPERTY_SETTINGS
def test_reduction_matches_oracle_after_every_update(case):
    n, updates = case
    eng = TrDag(n)
    for upd in updates:
        drive(eng, upd)
        live = eng.g.edge_list()
        tr = eng.tr_edges()
        assert tr == sorted(brute_tr_dag(n, live))
        assert eng.tr_size() == len(tr)


@given(dag_streams())
@PROPERTY_SETTINGS
def test_ledgers_match_definitional_recomputation(case):
    n, updates = case
    eng = TrDag(n)
    for upd in updates:
        drive(eng, upd)
        count, tx, ty = eng.ledgers()
        want_count, want_tx, want_ty = recompute_dag_ledgers(eng.g)
        assert count == want_count
        assert tx == want_tx
        assert ty == want_ty
        assert all(c >= 0 for c in count.values())


@given(dag_streams())
@PROPERTY_SETTINGS
def test_redundancy_query_agrees_with_reduction(case):
    n, updates = case
    eng = TrDag(n)
    for upd in updates:
        drive(eng, upd)
        tr = set(eng.tr_edges())
        for edge in eng.g.edge_list():
            assert eng.is_redundant(*edge) == (edge not in tr)


@given(dag_streams())
@PROPERTY_SETTINGS
def test_every_cursor_has_both_endpoints_on_its_side(case):
    n, updates = case
    eng = TrDag(n)
    g = eng.g

    def snapshot_list(first, nxt, limit):
        # a list from first[v] holds live edges only
        e = first
        while e != NIL and g.e_ts[e] <= limit:
            yield e
            e = nxt[e]

    for upd in updates:
        drive(eng, upd)
        for z, st_ in eng.states.items():
            for cursors, side, walk, back in (
                (st_.p_in, st_.desc, g.fwd, g.bwd),
                (st_.p_out, st_.anc, g.bwd, g.fwd),
            ):
                # the far ends of the root's own snapshot edges on this side
                w_first, w_nxt, w_far, _ = walk
                ends = {w_far[e] for e in snapshot_list(w_first[z], w_nxt, st_.limit)}
                first, nxt, far, _ = back
                for v in range(1, n + 1):
                    # the first snapshot edge of v from a proper member of the side
                    want = NIL
                    if v != z:
                        for e in snapshot_list(first[v], nxt, st_.limit):
                            if side[far[e]] and far[e] != z:
                                want = e
                                break
                    assert cursors[v] == want
                    assert side[v] == (v == z or want != NIL or v in ends)


@given(dag_streams())
@PROPERTY_SETTINGS
def test_roots_the_deletion_filter_skips_are_no_ops(case):
    n, updates = case
    eng = TrDag(n)
    for upd in updates:
        if isinstance(upd, InsertCentered):
            drive(eng, upd)
            continue
        ids = [eng.g.eid[edge] for edge in upd.edges]
        visited = {z for z, _ in eng._roots_to_visit(ids)}
        drive(eng, upd)
        for z, st_ in eng.states.items():
            if z in visited:
                continue
            probe = copy.deepcopy(st_)
            assert probe.delete(ids) == ([], [])
            assert not probe.touched_in and not probe.touched_out


def per_root_predicate(eng, ids):
    """The roots a deletion of ``ids`` must visit, read state by state:
    those of which a removed snapshot edge is a cursor or an own edge."""
    g = eng.g
    visit = []
    for z, st_ in eng.states.items():
        for e in ids:
            x, y = g.e_tail[e], g.e_head[e]
            if g.e_ts[e] <= st_.limit and (
                st_.p_in[y] == e or st_.p_out[x] == e or z in (x, y)
            ):
                visit.append(z)
                break
    return visit


def reach_state(st_):
    return bytes(st_.desc), bytes(st_.anc), st_.p_in, st_.p_out


@given(dag_streams())
@PROPERTY_SETTINGS
def test_reach_mirror_and_root_filter_follow_the_states(case):
    n, updates = case
    eng = TrDag(n)
    for i, upd in enumerate(updates):
        drive(eng, upd)
        assert eng._roots == list(eng.states)
        k = len(eng._roots)
        for row, st_ in zip(eng._reach[:k], eng.states.values()):
            desc = np.frombuffer(st_.desc, np.uint8)
            anc = np.frombuffer(st_.anc, np.uint8)
            assert np.array_equal(row, desc | anc << 1)
        batches = [[e] for e in eng.g.eid.values()]
        if i + 1 < len(updates) and isinstance(updates[i + 1], DeleteSet):
            batches.append([eng.g.eid[edge] for edge in updates[i + 1].edges])
        for ids in batches:
            visit = eng._roots_to_visit(ids)
            assert [z for z, _ in visit] == per_root_predicate(eng, ids)
            assert all(st_ is eng.states[z] for z, st_ in visit)
            # a root left out is a no-op for DecReach.delete
            for z in set(eng.states) - {z for z, _ in visit}:
                probe = pickle.loads(pickle.dumps(eng.states[z]))
                assert probe.delete(ids) == ([], [])
                assert not probe.touched_in and not probe.touched_out
                assert reach_state(probe) == reach_state(eng.states[z])


def test_a_million_vertices_allocate_nothing_quadratic():
    n = 10**6
    tracemalloc.start()
    try:
        eng = TrDag(n)
        eng.insert_centered(1, [(1, 2), (1, n)])
        eng.delete_edges([(1, n)])
        assert eng.tr_edges() == [(1, 2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row of n + 1 flags would be 1 MB; (n + 1)^2 flags would be 1 TB
    assert peak < 200 * 2**20


def test_a_new_root_holds_at_most_14_bytes_per_vertex():
    n, k = 2000, 200
    eng = TrDag(n)
    # one hub feeds every vertex, so each later center is a new root
    eng.insert_centered(1, [(1, v) for v in range(2, n + 1)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for v in range(2, 2 + k):
            eng.insert_centered(v, [(v, v + k)])
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(eng.states) == k + 1
    assert held <= 14 * (n + 1) * k


def engine_view(eng):
    states = {z: reach_state(st_) for z, st_ in eng.states.items()}
    return eng.tr_edges(), eng.ledgers(), dict(eng.g.eid), states


def test_a_new_root_past_memory_leaves_the_engine_as_it_was(monkeypatch):
    n = 20
    eng, twin = TrDag(n), TrDag(n)
    for e in (eng, twin):
        e.insert_centered(1, [(1, 2), (1, 3)])
        e.insert_centered(2, [(2, 4)])
    # room for two roots' state, not for a third
    pages = _BYTES_PER_ROOT * (n + 1) * 2
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else pages)
    for e in (eng, twin):
        # re-centering a root allocates no new row
        e.insert_centered(1, [(1, 5)])
        e.delete_edges([(1, 3)])
    with pytest.raises(TooLarge):
        eng.insert_centered(3, [(3, 4), (2, 3)])
    assert engine_view(eng) == engine_view(twin)
    monkeypatch.undo()
    for e in (eng, twin):
        e.insert_centered(3, [(3, 4), (2, 3)])
    assert engine_view(eng) == engine_view(twin)
    assert set(eng.tr_edges()) == brute_tr_dag(n, eng.g.edge_list())
