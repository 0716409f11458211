"""Decremental reachability states: frozen examples and oracle properties."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import DeleteSet, InsertCentered, TimestampedGraph
from dyntr.dec_reach import DecReach
from dyntr.errors import CyclicInput
from dyntr.graph_core import NIL
from dyntr.oracle import random_update_stream
from reference import snapshot_edges_of, transitive_closure

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def full_d3():
    # center 1 last so its snapshot holds the whole diamond
    g = TimestampedGraph(3, acyclic=True)
    g.apply_insert_centered(3, [(3, 2)])
    g.apply_insert_centered(1, [(1, 2), (1, 3)])
    return g


def full_p3_from_1():
    g = TimestampedGraph(3, acyclic=True)
    g.apply_insert_centered(2, [(2, 3)])
    g.apply_insert_centered(1, [(1, 2)])
    return g


def reach_sets(g, root):
    snap = snapshot_edges_of(g, root)
    masks = transitive_closure(g.n, snap)
    desc = {v for v in range(1, g.n + 1) if masks[root] >> v & 1}
    rev = transitive_closure(g.n, [(h, t) for t, h in snap])
    anc = {v for v in range(1, g.n + 1) if rev[root] >> v & 1}
    return snap, desc, anc


def flags_to_set(flags):
    return {v for v, bit in enumerate(flags) if bit}


class TestInit:
    def test_d3_descendants_and_cursors(self):
        g = full_d3()
        st_ = DecReach(g, 1)
        assert flags_to_set(st_.desc) == {1, 2, 3}
        assert flags_to_set(st_.anc) == {1}
        # 2 has in-edges from 3 and from the root; the cursor skips the root's
        assert st_.p_in[2] == g.eid[(3, 2)]
        # 3's only in-edge is the root's
        assert st_.p_in[3] == NIL
        assert st_.d_root == {2, 3}
        assert st_.a_root == set()

    def test_p3_root_children_have_no_cursor(self):
        g = full_p3_from_1()
        st_ = DecReach(g, 1)
        assert flags_to_set(st_.desc) == {1, 2, 3}
        assert st_.p_in[2] == NIL
        assert st_.p_in[3] == g.eid[(2, 3)]
        assert st_.d_root == {2}

    def test_isolated_root(self):
        g = TimestampedGraph(4, acyclic=True)
        g.apply_insert_centered(1, [(1, 2)])
        st_ = DecReach(g, 3)
        assert flags_to_set(st_.desc) == {3}
        assert flags_to_set(st_.anc) == {3}
        assert list(st_.p_in) == [NIL] * 5
        assert list(st_.p_out) == [NIL] * 5

    def test_cyclic_snapshot_rejected(self):
        cyclic = TimestampedGraph(2)
        cyclic.apply_insert_centered(1, [(1, 2)])
        cyclic.apply_insert_centered(2, [(2, 1)])
        # an acyclic snapshot is refused too: only acyclic=True promises one
        path = TimestampedGraph(2)
        path.apply_insert_centered(1, [(1, 2)])
        for g, root in ((cyclic, 2), (path, 1)):
            try:
                DecReach(g, root)
            except CyclicInput:
                pass
            else:
                raise AssertionError("expected CyclicInput")


class TestDelete:
    def test_d3_survives_via_other_parent(self):
        g = full_d3()
        st_ = DecReach(g, 1)
        eid = g.eid[(1, 2)]
        keep = g.eid[(3, 2)]
        g.apply_delete([(1, 2)])
        d, a = st_.delete([eid])
        assert d == []
        assert a == []
        # the root edge leaves d_root; the cursor of 2 stays on (3, 2)
        assert st_.p_in[2] == keep
        assert st_.d_root == {3}
        assert st_.touched_in == set()
        assert flags_to_set(st_.desc) == {1, 2, 3}

    def test_d3_cascade_stops_at_reconvergence(self):
        g = full_d3()
        st_ = DecReach(g, 1)
        eid = g.eid[(1, 3)]
        g.apply_delete([(1, 3)])
        d, a = st_.delete([eid])
        assert d == [3]
        assert flags_to_set(st_.desc) == {1, 2}
        # 2 survived on its remaining parent edge, the root's, so its
        # cursor found nothing past (3, 2)
        assert st_.p_in[2] == NIL
        assert st_.d_root == {2}
        assert st_.touched_in == {2}

    def test_p3_cascade_takes_everything(self):
        g = full_p3_from_1()
        st_ = DecReach(g, 1)
        eid = g.eid[(1, 2)]
        g.apply_delete([(1, 2)])
        d, _ = st_.delete([eid])
        assert sorted(d) == [2, 3]
        assert flags_to_set(st_.desc) == {1}

    def test_edges_outside_snapshot_are_skipped(self):
        g = TimestampedGraph(3, acyclic=True)
        g.apply_insert_centered(1, [(1, 2)])
        st_ = DecReach(g, 1)
        g.apply_insert_centered(2, [(2, 3)])
        eid = g.eid[(2, 3)]
        g.apply_delete([(2, 3)])
        d, a = st_.delete([eid])
        assert (d, a) == ([], [])
        assert flags_to_set(st_.desc) == {1, 2}


def holdout_desc():
    # 3 has two in-edges: (2, 3) from a proper descendant, (1, 3) from root 1
    g = TimestampedGraph(3, acyclic=True)
    g.apply_insert_centered(2, [(2, 3)])
    g.apply_insert_centered(1, [(1, 2), (1, 3)])
    return g, DecReach(g, 1)


def holdout_anc():
    # 1 has two out-edges: (1, 2) to a proper ancestor, (1, 3) to root 3
    g = TimestampedGraph(3, acyclic=True)
    g.apply_insert_centered(1, [(1, 2)])
    g.apply_insert_centered(3, [(1, 3), (2, 3)])
    return g, DecReach(g, 3)


# (build, the held vertex, its edge from a proper member, its root edge,
#  the query, the index of the side's delta)
HOLDOUTS = (
    (holdout_desc, 3, (2, 3), (1, 3), DecReach.in_query, 0),
    (holdout_anc, 1, (1, 2), (1, 3), DecReach.out_query, 1),
)


class TestRootEdgeHoldout:
    @pytest.mark.parametrize("case", HOLDOUTS, ids=["desc", "anc"])
    def test_root_edge_holds_the_vertex_until_it_goes(self, case):
        build, v, member_edge, root_edge, query, side = case
        g, st_ = build()
        assert query(st_, v) is True
        ids = [g.eid[member_edge]]
        g.apply_delete([member_edge])
        assert st_.delete(ids)[side] == []
        assert query(st_, v) is False
        ids = [g.eid[root_edge]]
        g.apply_delete([root_edge])
        assert st_.delete(ids)[side] == [v]
        assert query(st_, v) is False

    @pytest.mark.parametrize("case", HOLDOUTS, ids=["desc", "anc"])
    @pytest.mark.parametrize("order", [0, 1])
    def test_both_supports_in_one_batch_drop_the_vertex(self, case, order):
        build, v, member_edge, root_edge, query, side = case
        g, st_ = build()
        batch = [member_edge, root_edge][:: 1 - 2 * order]
        ids = [g.eid[edge] for edge in batch]
        g.apply_delete(batch)
        assert st_.delete(ids)[side] == [v]
        assert query(st_, v) is False
        assert v not in (st_.d_root, st_.a_root)[side]


class TestQueries:
    def test_in_query_d3(self):
        st_ = DecReach(full_d3(), 1)
        assert st_.in_query(2) is True
        assert st_.in_query(1) is False

    def test_in_query_p3_sole_parent_is_root(self):
        st_ = DecReach(full_p3_from_1(), 1)
        assert st_.in_query(2) is False
        assert st_.in_query(3) is True

    def test_out_query_d3_from_sink(self):
        g = TimestampedGraph(3, acyclic=True)
        g.apply_insert_centered(1, [(1, 3)])
        g.apply_insert_centered(2, [(1, 2), (3, 2)])
        st_ = DecReach(g, 2)
        assert st_.out_query(1) is True
        assert st_.out_query(2) is False

    def test_out_query_p3_sole_child_is_root(self):
        g = TimestampedGraph(3, acyclic=True)
        g.apply_insert_centered(1, [(1, 2)])
        g.apply_insert_centered(3, [(2, 3)])
        st_ = DecReach(g, 3)
        assert st_.out_query(2) is False
        assert st_.out_query(1) is True


def brute_in(snap, desc, root, y):
    return y != root and any(t in desc and t != root for t, h in snap if h == y)


def brute_out(snap, anc, root, x):
    return x != root and any(h in anc and h != root for t, h in snap if t == x)


@st.composite
def dag_streams(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    steps = draw(st.integers(min_value=10, max_value=70))
    density = draw(st.sampled_from([0.0, 0.15, 0.35]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    stream = random_update_stream(n, steps, mode="dag", density=density, seed=seed)
    return n, stream


@given(dag_streams())
@PROPERTY_SETTINGS
def test_states_track_oracle_reachability(case):
    n, updates = case
    g = TimestampedGraph(n, acyclic=True)
    states = {}
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
            states[upd.center] = DecReach(g, upd.center)
            continue
        assert isinstance(upd, DeleteSet)
        ids = [g.eid[e] for e in upd.edges]
        before = {r: flags_to_set(s.desc) for r, s in states.items()}
        before_a = {r: flags_to_set(s.anc) for r, s in states.items()}
        g.apply_delete(upd.edges)
        for root, state in states.items():
            d, a = state.delete(ids)
            snap, desc, anc = reach_sets(g, root)
            assert flags_to_set(state.desc) == desc
            assert flags_to_set(state.anc) == anc
            assert set(d) == before[root] - desc
            assert set(a) == before_a[root] - anc
            for v in range(1, n + 1):
                assert state.in_query(v) == brute_in(snap, desc, root, v)
                assert state.out_query(v) == brute_out(snap, anc, root, v)


@given(dag_streams())
@PROPERTY_SETTINGS
def test_total_work_stays_linear(case):
    n, updates = case
    g = TimestampedGraph(n, acyclic=True)
    states = {}
    m0 = {}
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
            states[upd.center] = DecReach(g, upd.center)
            m0[upd.center] = len(snapshot_edges_of(g, upd.center))
        else:
            ids = [g.eid[e] for e in upd.edges]
            g.apply_delete(upd.edges)
            for state in states.values():
                state.delete(ids)
    for root, state in states.items():
        assert state.op_counter <= 10 * (m0[root] + n)
