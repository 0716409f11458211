"""Snapshot SCC views, witness flags, and parallel group bookkeeping."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import DeleteSet, InsertCentered, TimestampedGraph
from dyntr.graph_core import NIL
from dyntr.oracle import random_update_stream, scc_partition
from dyntr.scc_snapshots import SccSnapshots, _strong_components, condensation
from reference import (
    recompute_scc_inout,
    snapshot_edges_of,
    transitive_closure,
)

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


def group_of(scc, x, y):
    return scc.groups[(scc.comp_cur[x], scc.comp_cur[y])]


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
        group = group_of(scc, 2, 4)
        assert group.members == ((1, 3), (2, 4))
        assert group.size == 2
        assert group.marked == (1, 3)
        assert group.marked != (2, 4)
        assert group_of(scc, 1, 3) == group

    def test_dag_groups_are_marked_singletons(self):
        g = TimestampedGraph(3)
        scc = SccSnapshots(g)
        g.apply_insert_centered(1, [(1, 2), (1, 3)])
        scc.rebuild(1)
        g.apply_insert_centered(3, [(3, 2)])
        scc.rebuild(3)
        for edge in [(1, 2), (1, 3), (3, 2)]:
            group = group_of(scc, *edge)
            assert group.size == 1
            assert group.marked == edge

    def test_group_reelection_after_delete(self):
        g, scc = two_cycle_fixture()
        eid = g.eid[(1, 3)]
        g.apply_delete([(1, 3)])
        scc.delete([eid])
        group = group_of(scc, 2, 4)
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
        group = group_of(scc, 2, 4)
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


def spy(monkeypatch, name):
    """Record the root (or ``None``) of every call to an SccSnapshots method."""
    calls = []
    original = getattr(SccSnapshots, name)

    def counted(self, *args):
        calls.append(args[0] if args else None)
        return original(self, *args)

    monkeypatch.setattr(SccSnapshots, name, counted)
    return calls


def assert_views_exact(g, scc):
    for root, view in scc.views.items():
        reach = transitive_closure(g.n, snapshot_edges_of(g, root))
        for v in range(1, g.n + 1):
            assert view.desc[v] == reach[root] >> v & 1
            assert view.anc[v] == reach[v] >> root & 1


def test_non_tree_deletion_keeps_reach_and_drops_labels(monkeypatch):
    # root 1 reaches 2 and 3 by its own edges, so the cycle edge (3, 2)
    # lies outside both of its trees; deleting it splits {2, 3}
    g = TimestampedGraph(4)
    scc = SccSnapshots(g)
    g.apply_insert_centered(2, [(2, 3), (3, 2)])
    scc.rebuild(2)
    g.apply_insert_centered(1, [(1, 2), (1, 3)])
    scc.rebuild(1)
    old = scc.views[1]
    assert old.scc_of[2] == old.scc_of[3]
    assert scc.in_query(3, 1) is False
    built = spy(monkeypatch, "_build_view")
    eid = g.eid[(3, 2)]
    g.apply_delete([(3, 2)])
    scc.delete([eid])
    # only root 2, whose in-tree held the edge, was searched again
    assert built == [2]
    view = scc.views[1]
    assert view is not old
    assert view.desc is old.desc and view.anc is old.anc
    comp, _ = scc_partition(4, snapshot_edges_of(g, 1))
    assert partition_groups(view.scc_of, 4) == partition_groups(comp, 4)
    in_map, out_map = recompute_scc_inout(g, 1)
    for v in range(1, 5):
        assert scc.in_query(v, 1) == in_map[v]
        assert scc.out_query(v, 1) == out_map[v]
    assert scc.in_query(3, 1) is True


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


def drive(g, scc, upd):
    if isinstance(upd, InsertCentered):
        g.apply_insert_centered(upd.center, upd.edges)
        scc.rebuild(upd.center)
    else:
        scc.delete(g.apply_delete(upd.edges))


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


@pytest.mark.parametrize("mode", ["dag", "general"])
def test_strong_components_match_oracle_on_every_cut(mode):
    # Kosaraju over the shared lists cut at a stamp, against Tarjan over
    # the edges of each root's snapshot and of the live graph
    for seed in range(40):
        n = 3 + seed % 10
        g = TimestampedGraph(n, acyclic=(mode == "dag"))
        for upd in random_update_stream(n, 40, mode, density=0.5, seed=seed):
            if isinstance(upd, InsertCentered):
                g.apply_insert_centered(upd.center, upd.edges)
            else:
                g.apply_delete(upd.edges)
            cuts = [(g.center_ts[r], snapshot_edges_of(g, r)) for r in range(1, n + 1)]
            cuts.append((g.last_ts, list(g.eid)))
            for limit, edges in cuts:
                want, _ = scc_partition(n, edges)
                got = _strong_components(g, limit)
                assert partition_groups(got, n) == partition_groups(want, n)


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
                group = group_of(scc, t, h)
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
        assert_views_exact(g, scc)
        for root, view in scc.views.items():
            old, desc_b, anc_b, scc_b = before[root]
            if not any(ts <= old.limit for ts in stamps):
                assert view is old
                assert bytes(view.desc) == desc_b
                assert bytes(view.anc) == anc_b
                assert view.scc_of == scc_b


@given(general_streams())
@PROPERTY_SETTINGS
def test_parent_edges_form_live_snapshot_trees(case):
    n, updates = case
    g = TimestampedGraph(n)
    scc = SccSnapshots(g)
    for upd in updates:
        drive(g, scc, upd)
        for root, view in scc.views.items():
            # out-side: edge into v from a descendant; in-side: edge out
            # of v into an ancestor
            for par, reached, near, far in (
                (view.out_par, view.desc, g.e_tail, g.e_head),
                (view.in_par, view.anc, g.e_head, g.e_tail),
            ):
                assert len(par) == n + 1
                for v in range(1, n + 1):
                    e = par[v]
                    if v == root or not reached[v]:
                        assert e == NIL
                        continue
                    assert g.eid.get((g.e_tail[e], g.e_head[e])) == e
                    assert g.e_ts[e] <= view.limit
                    assert far[e] == v
                    assert reached[near[e]]
                    # the parent path reaches the root: the tree has no cycle
                    w = v
                    for _ in range(n):
                        if w == root:
                            break
                        w = near[par[w]]
                    assert w == root


@pytest.mark.parametrize("mirror", [False, True], ids=["out-tree", "in-tree"])
@pytest.mark.parametrize(
    "batches,removed,rebuilt",
    [
        # 2 keeps the edge (3, 2) from outside its subtree
        ([(3, [(3, 2)]), (1, [(1, 2), (1, 3)])], [(1, 2)], []),
        # (1, 3) was the last snapshot edge into 3
        ([(3, [(3, 2)]), (1, [(1, 2), (1, 3)])], [(1, 3)], [1]),
        # the other edge into 2 comes from 2's own subtree
        ([(2, [(2, 3), (3, 2)]), (1, [(1, 2)])], [(1, 2)], [1]),
        # 2 can only re-attach through 3, which is still waiting when 2 is
        # tried: the one repair pass fails and the side is searched
        (
            [(3, [(3, 2)]), (4, [(4, 3)]), (1, [(1, 2), (1, 3), (1, 4)])],
            [(1, 2), (1, 3)],
            [1],
        ),
    ],
    ids=["reparented", "last-edge", "own-subtree", "one-pass"],
)
def test_lost_tree_edge_is_reparented_or_searched(
    monkeypatch, mirror, batches, removed, rebuilt
):
    # root 1 reaches 2 through a removed edge; mirrored, every edge is
    # reversed, so the same holds for root 1's in-tree
    def orient(edge):
        return edge[::-1] if mirror else edge

    g = TimestampedGraph(4)
    scc = SccSnapshots(g)
    for center, batch in batches:
        g.apply_insert_centered(center, [orient(e) for e in batch])
        scc.rebuild(center)
    views = dict(scc.views)
    built = spy(monkeypatch, "_build_view")
    searched = scc.delete(g.apply_delete([orient(e) for e in removed]))
    assert built == rebuilt
    # delete reports each searched view, old and new
    assert [new.root for _, new in searched] == rebuilt
    assert all(old is views[new.root] and new is scc.views[new.root] for old, new in searched)
    assert_views_exact(g, scc)


def scratch_groups(g, comp):
    tagged = {}
    for (t, h), e in g.eid.items():
        if comp[t] != comp[h]:
            tagged.setdefault((comp[t], comp[h]), []).append((g.e_ts[e], (t, h)))
    return {key: tuple(edge for _, edge in sorted(items)) for key, items in tagged.items()}


def assert_kept_condensation(g, scc):
    comp = scc.comp_cur
    assert partition_groups(comp, g.n) == partition_groups(condensation(g), g.n)
    got = {key: grp.members for key, grp in scc.groups.items()}
    assert got == scratch_groups(g, comp)


@given(general_streams())
@PROPERTY_SETTINGS
def test_kept_condensation_matches_from_scratch(case):
    n, updates = case
    g = TimestampedGraph(n)
    scc = SccSnapshots(g)
    for upd in updates:
        drive(g, scc, upd)
        assert_kept_condensation(g, scc)


def test_kept_condensation_on_seeded_streams(monkeypatch):
    # counts the insertions that join two components without a refresh,
    # so the check is known to cover insertions that keep the condensation
    refreshed = spy(monkeypatch, "refresh_groups")
    appended = 0
    for seed in range(60):
        n = 3 + seed % 10
        density = (0.0, 0.25, 0.45)[seed % 3]
        g = TimestampedGraph(n)
        scc = SccSnapshots(g)
        for upd in random_update_stream(n, 40, "general", density=density, seed=seed):
            comp, calls = scc.comp_cur, len(refreshed)
            drive(g, scc, upd)
            if isinstance(upd, InsertCentered) and len(refreshed) == calls:
                appended += any(comp[t] != comp[h] for t, h in upd.edges)
            assert_kept_condensation(g, scc)
    assert appended > 100


class TestKeptCondensation:
    def test_intra_deletion_with_detour_keeps_it(self, monkeypatch):
        g, scc = c3_fixture()
        g.apply_insert_centered(1, [(1, 3)])
        scc.rebuild(1)
        comp = scc.comp_cur
        refreshed = spy(monkeypatch, "refresh_groups")
        # 1 still reaches 3 through 2
        scc.delete(g.apply_delete([(1, 3)]))
        assert refreshed == []
        assert scc.comp_cur is comp

    def test_intra_insertion_keeps_it(self, monkeypatch):
        g, scc = c3_fixture()
        refreshed = spy(monkeypatch, "refresh_groups")
        g.apply_insert_centered(1, [(1, 3)])
        scc.rebuild(1)
        assert refreshed == []
        assert scc.groups == {}

    def test_inter_deletion_edits_its_group(self, monkeypatch):
        g, scc = two_cycle_fixture()
        refreshed = spy(monkeypatch, "refresh_groups")
        scc.delete(g.apply_delete([(2, 4)]))
        assert refreshed == []
        assert group_of(scc, 1, 3).members == ((1, 3),)
        scc.delete(g.apply_delete([(1, 3)]))
        assert refreshed == []
        assert scc.groups == {}

    def test_splitting_deletion_recomputes_it(self, monkeypatch):
        g, scc = c3_fixture()
        refreshed = spy(monkeypatch, "refresh_groups")
        scc.delete(g.apply_delete([(1, 2)]))
        assert refreshed == [None]
        assert len(set(scc.comp_cur[1:])) == 3

    def test_inter_insertion_without_cycle_appends_to_groups(self, monkeypatch):
        g = TimestampedGraph(5)
        scc = SccSnapshots(g)
        for center, batch in [(1, [(1, 2), (2, 1)]), (3, [(3, 4), (4, 3)])]:
            g.apply_insert_centered(center, batch)
            scc.rebuild(center)
        refreshed = spy(monkeypatch, "refresh_groups")
        # one batch: two edges into one group, in edge order, and a new group
        for center, batch in [(2, [(2, 4)]), (3, [(3, 5), (2, 3), (1, 3)])]:
            g.apply_insert_centered(center, batch)
            scc.rebuild(center)
        assert refreshed == []
        assert group_of(scc, 1, 3).members == ((2, 4), (1, 3), (2, 3))
        assert group_of(scc, 3, 5).members == ((3, 5),)
        assert_kept_condensation(g, scc)

    def test_inter_insertion_recomputes_it(self, monkeypatch):
        g, scc = two_cycle_fixture()
        refreshed = spy(monkeypatch, "refresh_groups")
        # (4, 1) closes a cycle through both components
        g.apply_insert_centered(4, [(4, 1)])
        scc.rebuild(4)
        assert refreshed == [None]
        assert scc.groups == {}
