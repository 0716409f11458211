"""Snapshot SCC views, witness flags, and parallel group bookkeeping."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import DeleteSet, InsertCentered, TimestampedGraph
from dyntr.errors import MissingEdge, NotInterScc
from dyntr.oracle import (
    random_update_stream,
    recompute_scc_inout,
    scc_partition,
    snapshot_edges_of,
    transitive_closure,
)
from dyntr.scc_snapshots import SccSnapshots

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def two_cycle_fixture():
    # components A = {1,2}, B = {3,4}; inter edges (1,3) then (2,4)
    g = TimestampedGraph(4)
    scc = SccSnapshots(g)
    for center, batch in [
        (1, [(1, 2), (2, 1)]),
        (3, [(3, 4), (4, 3)]),
        (1, [(1, 3)]),
        (2, [(2, 4)]),
    ]:
        g.apply_insert_centered(center, batch)
        scc.rebuild(center)
    return g, scc


def c3_fixture():
    g = TimestampedGraph(3)
    scc = SccSnapshots(g)
    for center, batch in [(1, [(1, 2)]), (2, [(2, 3)]), (3, [(3, 1)])]:
        g.apply_insert_centered(center, batch)
        scc.rebuild(center)
    return g, scc


class TestGroups:
    def test_two_cycle_group_membership(self):
        _, scc = two_cycle_fixture()
        group = scc.parallel_group(2, 4)
        assert group.members == ((1, 3), (2, 4))
        assert group.size == 2
        assert group.marked == (1, 3)
        assert group.marked != (2, 4)
        assert scc.parallel_group(1, 3) is group

    def test_dag_groups_are_marked_singletons(self):
        g = TimestampedGraph(3)
        scc = SccSnapshots(g)
        g.apply_insert_centered(1, [(1, 2), (1, 3)])
        scc.rebuild(1)
        g.apply_insert_centered(3, [(3, 2)])
        scc.rebuild(3)
        for edge in [(1, 2), (1, 3), (3, 2)]:
            group = scc.parallel_group(*edge)
            assert group.size == 1
            assert group.marked == edge

    def test_intra_edge_is_rejected(self):
        _, scc = c3_fixture()
        with pytest.raises(NotInterScc):
            scc.parallel_group(1, 2)

    def test_dead_edge_is_rejected(self):
        g, scc = two_cycle_fixture()
        g.apply_delete([(2, 4)])
        scc.delete([])
        with pytest.raises(MissingEdge):
            scc.parallel_group(2, 4)

    def test_group_reelection_after_delete(self):
        g, scc = two_cycle_fixture()
        eid = g.eid[(1, 3)]
        g.apply_delete([(1, 3)])
        scc.delete([eid])
        group = scc.parallel_group(2, 4)
        assert group.members == ((2, 4),)
        assert group.marked == (2, 4)


class TestDelete:
    def test_c3_split_reports_new_inter_edges(self):
        g, scc = c3_fixture()
        view = scc.views[3]
        assert len({view.scc_of[v] for v in (1, 2, 3)}) == 1
        assert scc.groups == {}
        eid = g.eid[(1, 2)]
        g.apply_delete([(1, 2)])
        scc.delete([eid])
        # root 3 held the full cycle, so its view splits into singletons
        view = scc.views[3]
        assert len({view.scc_of[v] for v in (1, 2, 3)}) == 3
        assert [v for v in (1, 2, 3) if view.desc[v]] == [1, 3]
        # the former cycle edges now cross components, each alone
        assert sorted(grp.members for grp in scc.groups.values()) == [
            ((2, 3),),
            ((3, 1),),
        ]

    def test_older_snapshots_left_alone(self):
        g = TimestampedGraph(3)
        scc = SccSnapshots(g)
        g.apply_insert_centered(1, [(1, 2)])
        scc.rebuild(1)
        g.apply_insert_centered(3, [(2, 3)])
        scc.rebuild(3)
        old1, old3 = scc.views[1], scc.views[3]
        eid = g.eid[(2, 3)]
        g.apply_delete([(2, 3)])
        scc.delete([eid])
        assert scc.views[1] is old1
        assert scc.views[1].limit == 1
        assert scc.views[3] is not old3

    def test_two_cycle_intra_split(self):
        g, scc = two_cycle_fixture()
        assert scc.views[1].desc[2] == 1
        eid = g.eid[(1, 2)]
        g.apply_delete([(1, 2)])
        scc.delete([eid])
        group = scc.parallel_group(2, 4)
        assert group.size == 1
        # component A fell apart in every view, since each held both
        # cycle edges, while B = {3, 4} stayed whole
        for view in scc.views.values():
            assert view.scc_of[1] != view.scc_of[2]
            assert view.scc_of[3] == view.scc_of[4]
        assert scc.views[1].desc[2] == 0
        comp = scc.comp_cur
        assert set(scc.groups) == {
            (comp[1], comp[3]),
            (comp[2], comp[3]),
            (comp[2], comp[1]),
        }


def test_chain_witness_through_middle():
    g = TimestampedGraph(3)
    scc = SccSnapshots(g)
    g.apply_insert_centered(2, [(1, 2), (2, 3)])
    scc.rebuild(2)
    g.apply_insert_centered(1, [(1, 3)])
    scc.rebuild(1)
    # root 1 sees 1 -> 2 -> 3, so component {3} is entered from {2}
    assert scc.in_query(3, 1) is True
    assert scc.in_query(2, 1) is False
    assert scc.in_query(1, 1) is False
    assert scc.out_query(1, 1) is False


def test_chain_witness_mirrored():
    g = TimestampedGraph(4)
    scc = SccSnapshots(g)
    g.apply_insert_centered(2, [(1, 2), (2, 3)])
    scc.rebuild(2)
    g.apply_insert_centered(3, [(3, 4)])
    scc.rebuild(3)
    # root 3 sees 1 -> 2 -> 3: {1} exits toward ancestor {2}, while
    # {2} only exits into the root's own component
    assert scc.out_query(1, 3) is True
    assert scc.out_query(2, 3) is False
    assert scc.out_query(3, 3) is False


def test_queries_on_uncentered_root_are_false():
    g = TimestampedGraph(3)
    scc = SccSnapshots(g)
    g.apply_insert_centered(1, [(1, 2)])
    scc.rebuild(1)
    assert scc.in_query(2, 3) is False
    assert scc.out_query(1, 3) is False


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


def partition_groups(comp, n):
    buckets = {}
    for v in range(1, n + 1):
        buckets.setdefault(comp[v], set()).add(v)
    return {frozenset(s) for s in buckets.values()}


@given(general_streams())
@PROPERTY_SETTINGS
def test_partitions_match_from_scratch_oracle(case):
    n, updates = case
    g = TimestampedGraph(n)
    scc = SccSnapshots(g)
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
            scc.rebuild(upd.center)
        else:
            ids = [g.eid[e] for e in upd.edges]
            g.apply_delete(upd.edges)
            scc.delete(ids)
        for root, view in scc.views.items():
            snap = snapshot_edges_of(g, root)
            comp, _ = scc_partition(n, snap)
            assert partition_groups(view.scc_of, n) == partition_groups(comp, n)


@given(general_streams())
@PROPERTY_SETTINGS
def test_witness_flags_match_definitions(case):
    n, updates = case
    g = TimestampedGraph(n)
    scc = SccSnapshots(g)
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
            scc.rebuild(upd.center)
        else:
            ids = [g.eid[e] for e in upd.edges]
            g.apply_delete(upd.edges)
            scc.delete(ids)
        for root in scc.views:
            in_map, out_map = recompute_scc_inout(g, root)
            for v in range(1, n + 1):
                assert scc.in_query(v, root) == in_map[v]
                assert scc.out_query(v, root) == out_map[v]


@given(general_streams())
@PROPERTY_SETTINGS
def test_group_totality_and_nesting(case):
    n, updates = case
    g = TimestampedGraph(n)
    scc = SccSnapshots(g)
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
            scc.rebuild(upd.center)
        else:
            ids = [g.eid[e] for e in upd.edges]
            g.apply_delete(upd.edges)
            scc.delete(ids)
        comp = scc.comp_cur
        seen = set()
        for t, h in g.edge_list():
            if comp[t] != comp[h]:
                group = scc.parallel_group(t, h)
                assert (t, h) in group.members
                assert group.members.count((t, h)) == 1
                seen.add((t, h))
        covered = {e for grp in scc.groups.values() for e in grp.members}
        assert covered == seen
        # snapshot nesting: older views refine newer views
        views = sorted(scc.views.values(), key=lambda view: view.limit)
        for older, newer in zip(views, views[1:]):
            for v in range(1, n + 1):
                for w in range(1, n + 1):
                    if older.scc_of[v] == older.scc_of[w]:
                        assert newer.scc_of[v] == newer.scc_of[w]


@given(general_streams())
@PROPERTY_SETTINGS
def test_deletion_deltas_are_sound(case):
    n, updates = case
    g = TimestampedGraph(n)
    scc = SccSnapshots(g)
    for upd in updates:
        if isinstance(upd, InsertCentered):
            g.apply_insert_centered(upd.center, upd.edges)
            scc.rebuild(upd.center)
            continue
        before = {
            root: (view, bytes(view.desc), bytes(view.anc), list(view.scc_of))
            for root, view in scc.views.items()
        }
        stamps = [g.ts_of(*e) for e in upd.edges]
        ids = [g.eid[e] for e in upd.edges]
        g.apply_delete(upd.edges)
        scc.delete(ids)
        assert set(scc.views) == set(before)
        for root, view in scc.views.items():
            reach = transitive_closure(n, snapshot_edges_of(g, root))
            for v in range(1, n + 1):
                assert view.desc[v] == reach[root] >> v & 1
                assert view.anc[v] == reach[v] >> root & 1
            old, desc_b, anc_b, scc_b = before[root]
            if not any(ts <= old.limit for ts in stamps):
                assert view is old
                assert bytes(view.desc) == desc_b
                assert bytes(view.anc) == anc_b
                assert view.scc_of == scc_b
