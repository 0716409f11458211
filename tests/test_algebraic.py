"""Field arithmetic, maintained inverses, and the algebraic engines."""

import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import DeleteSet, InsertCentered, TrDag, TrGeneral, algebraic, scc_snapshots
from dyntr.algebraic import (
    FIELD_PRIME,
    AlgebraicDag,
    AlgebraicGeneral,
    InverseState,
    _addmod,
    _fold_axis0,
    _mulmod,
    _submod,
    matrix_inverse,
)
from dyntr.errors import (
    DenominatorZero,
    MissingEdge,
    SingularMatrix,
    TooLarge,
)
from dyntr.oracle import (
    brute_redundant,
    random_update_stream,
    validity_triple,
)
from reference import dag_path_count

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

P = FIELD_PRIME

# residues at the edges of the 31/30-bit split and of the final subtraction
CORNERS = [0, 1, 1 << 31, P - 2, P - 1]


def layered(n, u, v):
    """The three positions of DAG edge (u, v) in the 3n x 3n matrix, 1-based."""
    return [(u, v), (u, n + v), (n + u, 2 * n + v)]


def assert_matrix_holds_live_edges(eng):
    """M's nonzero entries are its diagonal and the live edges' positions,
    and the maintained inverse is the inverse of M."""
    m = eng.state.m
    if isinstance(eng, AlgebraicDag):
        edges = [p for e in eng.g.eid for p in layered(eng.n, *e)]
        assert np.all(np.diag(m) == 1)
    else:
        edges = list(eng.g.eid)
    want = {(i, i) for i in range(len(m))} | {(a - 1, b - 1) for a, b in edges}
    assert len(want) == len(m) + len(edges)
    rows, cols = np.nonzero(m)
    assert set(zip(rows.tolist(), cols.tolist())) == want
    assert np.array_equal(matrix_inverse(m), eng.state.minv)


def replay_both(stream, left, right):
    for op in stream:
        if isinstance(op, InsertCentered):
            left.insert_centered(op.center, op.edges)
            right.insert_centered(op.center, op.edges)
        else:
            left.delete_edges(op.edges)
            right.delete_edges(op.edges)
        yield op


class TestFieldArithmetic:
    def test_product_corners(self):
        corners = [0, 1, 2, (1 << 31) - 1, 1 << 31, 1 << 60, P - 2, P - 1]
        a = np.array(corners * len(corners), dtype=np.uint64)
        b = np.array(
            [v for v in corners for _ in corners], dtype=np.uint64
        )
        got = _mulmod(a, b)
        want = [(int(x) * int(y)) % P for x, y in zip(a, b)]
        assert [int(v) for v in got] == want

    def test_sum_and_difference_corners(self):
        a = np.array([x for x in CORNERS for _ in CORNERS], dtype=np.uint64)
        b = np.array(CORNERS * len(CORNERS), dtype=np.uint64)
        pairs = [(int(x), int(y)) for x, y in zip(a, b)]
        added = [int(v) for v in _addmod(a, b)]
        subbed = [int(v) for v in _submod(a, b)]
        assert added == [(x + y) % P for x, y in pairs]
        assert subbed == [(x - y) % P for x, y in pairs]
        assert P not in added and P not in subbed

    def test_outer_product_corners(self):
        # the broadcast shape of InverseState.rank1_update
        col = np.array(CORNERS, dtype=np.uint64)
        row = np.array(CORNERS[::-1] + [(1 << 31) - 1], dtype=np.uint64)
        got = _mulmod(col[:, None], row[None, :])
        assert got.shape == (len(col), len(row))
        assert got.tolist() == [[y * x % P for x in row.tolist()] for y in col.tolist()]

    def test_fold_matches_plain_sum(self):
        rng = random.Random(5)
        x = np.array(
            [[rng.randrange(P) for _ in range(5)] for _ in range(11)],
            dtype=np.uint64,
        )
        got = _fold_axis0(x)
        want = [sum(int(x[i, j]) for i in range(11)) % P for j in range(5)]
        assert [int(v) for v in got] == want

    @given(st.lists(st.tuples(st.integers(0, P - 1), st.integers(0, P - 1)),
                    min_size=1, max_size=64))
    @PROPERTY_SETTINGS
    def test_product_matches_bignum(self, pairs):
        a = np.array([x for x, _ in pairs], dtype=np.uint64)
        b = np.array([y for _, y in pairs], dtype=np.uint64)
        got = _mulmod(a, b)
        assert [int(v) for v in got] == [(x * y) % P for x, y in pairs]


class TestMatrixInverse:
    def test_round_trip(self):
        rng = random.Random(2)
        m = np.array(
            [[rng.randrange(P) for _ in range(7)] for _ in range(7)],
            dtype=np.uint64,
        )
        inv = matrix_inverse(m)
        prod = np.zeros((7, 7), dtype=np.uint64)
        for i in range(7):
            prod[i] = _fold_axis0(_mulmod(inv, m[i][:, None]))
        eye = np.zeros((7, 7), dtype=np.uint64)
        np.fill_diagonal(eye, 1)
        assert np.array_equal(prod, eye)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            matrix_inverse(np.zeros((3, 3), dtype=np.uint64))

    def test_unit_weight_chain_inverse(self):
        # I - A for the single edge 1->2 inverts to [[1, 1], [0, 1]]
        m = np.array([[1, P - 1], [0, 1]], dtype=np.uint64)
        inv = matrix_inverse(m)
        assert inv.tolist() == [[1, 1], [0, 1]]

    def test_entries_past_the_prime_are_reduced_on_entry(self):
        big = [[P + 1, 3], [(1 << 63) + 5, (1 << 64) - 1]]
        residues = [[x % P for x in row] for row in big]
        assert np.array_equal(
            matrix_inverse(np.array(big, dtype=np.uint64)),
            matrix_inverse(np.array(residues, dtype=np.uint64)),
        )


class TestInverseState:
    def test_single_entry_perturbation(self):
        st_ = InverseState(2)
        st_.rank1_update(0, 1, 5)
        assert int(st_.m[0, 1]) == 5
        assert st_.entry(0, 1) == P - 5
        assert st_.generation == 1

    def test_insert_then_delete_is_involution(self):
        rng = random.Random(9)
        st_ = InverseState(5)
        for _ in range(12):
            st_.rank1_update(rng.randrange(5), rng.randrange(5), rng.randrange(P))
        m0 = st_.m.copy()
        inv0 = st_.minv.copy()
        st_.rank1_update(2, 4, 1234567)
        st_.rank1_update(2, 4, P - 1234567)
        assert np.array_equal(st_.m, m0)
        assert np.array_equal(st_.minv, inv0)

    def test_denominator_zero_leaves_state_intact(self):
        st_ = InverseState(1)
        with pytest.raises(DenominatorZero):
            st_.rank1_update(0, 0, P - 1)
        assert int(st_.m[0, 0]) == 1
        assert int(st_.minv[0, 0]) == 1

    def test_rank1_tracks_fresh_inversion(self):
        rng = random.Random(31)
        st_ = InverseState(6)
        applied = 0
        while applied < 40:
            try:
                st_.rank1_update(
                    rng.randrange(6), rng.randrange(6), rng.randrange(P)
                )
            except DenominatorZero:
                continue
            applied += 1
            assert np.array_equal(st_.minv, matrix_inverse(st_.m))

    def test_rank1_matches_bignum_sherman_morrison(self):
        rng = random.Random(41)
        n = 5
        st_ = InverseState(n)
        ref = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(200):
            i, j, delta = rng.randrange(n), rng.randrange(n), rng.randrange(P)
            denom = (1 + delta * ref[j][i]) % P
            if denom == 0:
                with pytest.raises(DenominatorZero):
                    st_.rank1_update(i, j, delta)
                continue
            st_.rank1_update(i, j, delta)
            # Minv - delta * (Minv e_i)(e_j^T Minv) / (1 + delta * Minv[j, i])
            factor = delta * pow(denom, P - 2, P) % P
            col = [ref[r][i] for r in range(n)]
            row = list(ref[j])
            ref = [
                [(ref[r][c] - factor * col[r] * row[c]) % P for c in range(n)]
                for r in range(n)
            ]
            assert st_.minv.tolist() == ref

    def test_probes_and_full_product(self):
        rng = random.Random(33)
        st_ = InverseState(8)
        for _ in range(30):
            try:
                st_.rank1_update(
                    rng.randrange(8), rng.randrange(8), rng.randrange(P)
                )
            except DenominatorZero:
                continue
        assert st_.probe_ok(rng)
        assert st_.full_product_is_identity()


def random_state(size, seed):
    """An InverseState whose M is dense and random."""
    rng = random.Random(seed)
    state = InverseState(size)
    for i in range(size):
        for j in range(size):
            try:
                state.rank1_update(i, j, rng.randrange(1, P))
            except DenominatorZero:
                continue
    return state


def copy_state(state):
    twin = InverseState(state.size)
    twin.m, twin.minv = state.m.copy(), state.minv.copy()
    twin.generation = state.generation
    return twin


def line_call(state, axis, key, spots, deltas):
    if axis == "row":
        state.rank1_update(key, spots, deltas)
    else:
        state.rank1_update(spots, key, deltas)


class TestLineUpdate:
    @pytest.mark.parametrize("axis", ["row", "col"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("shift", range(len(CORNERS)))
    def test_line_matches_entries_and_fresh_inverse(self, axis, k, shift):
        size = 6
        base = random_state(size, 10 * k + shift)
        line, entries = copy_state(base), copy_state(base)
        key, spots = 4, [0, 2, 3, 5][:k]
        deltas = [CORNERS[(shift + t) % len(CORNERS)] for t in range(k)]
        line_call(line, axis, key, spots, deltas)
        for spot, delta in zip(spots, deltas):
            i, j = (key, spot) if axis == "row" else (spot, key)
            entries.rank1_update(i, j, delta)
        assert np.array_equal(line.m, entries.m)
        assert np.array_equal(line.minv, entries.minv)
        assert np.array_equal(line.minv, matrix_inverse(line.m))
        assert line.generation == base.generation + (any(deltas) and 1)

    @pytest.mark.parametrize("axis", ["row", "col"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_denominator_line_changes_nothing(self, axis, k):
        state = random_state(5, k)
        key, spots = 1, [0, 2, 3, 4][:k]
        # 1 + sum of delta * B[col, row] over the line; the last delta zeroes it
        deltas = [CORNERS[2 + t % 3] for t in range(k - 1)]
        pairs = [(key, s) if axis == "row" else (s, key) for s in spots]
        acc = 1 + sum(d * state.entry(j, i) for d, (i, j) in zip(deltas, pairs))
        i, j = pairs[-1]
        deltas.append(-acc * pow(state.entry(j, i), -1, P) % P)
        m0, inv0, generation = state.m.copy(), state.minv.copy(), state.generation
        with pytest.raises(DenominatorZero):
            line_call(state, axis, key, spots, deltas)
        assert np.array_equal(state.m, m0)
        assert np.array_equal(state.minv, inv0)
        assert state.generation == generation

    def test_entries_go_in_as_the_fewer_lines(self):
        dag = AlgebraicDag(6, seed=2)
        dag.insert_centered(1, [(1, 2), (1, 3), (1, 4)])
        # rows 1 and n+1 hold every entry of an out-batch
        assert dag.state.generation == 2
        dag.insert_centered(5, [(2, 5), (3, 5), (4, 5)])
        # the in-batch's columns 5, n+5, 2n+5 are fewer than its six rows
        assert dag.state.generation == 5
        dag.delete_edges([(1, 2), (1, 3)])
        assert dag.state.generation == 7
        assert_matrix_holds_live_edges(dag)
        gen = AlgebraicGeneral(6, seed=2)
        gen.insert_centered(3, [(3, 1), (3, 2), (4, 3), (3, 5)])
        # row 3 takes three entries and row 4 the fourth
        assert gen.state.generation == 2
        assert_matrix_holds_live_edges(gen)

    def test_batch_whose_second_line_hits_zero_rebuilds_once(self, monkeypatch):
        eng = AlgebraicGeneral(3, seed=4)
        ref = TrGeneral(3)
        eng.insert_centered(2, [(2, 3)])
        ref.insert_centered(2, [(2, 3)])
        m = [[int(x) for x in row] for row in eng.state.m]
        # the batch closes the cycle 1->2->3->1, and det M becomes
        # l1*l2*l3 + a12*a23*a31, which this a31 makes zero
        a12 = 5
        a31 = -m[0][0] * m[1][1] * m[2][2] * pow(a12 * m[1][2], -1, P) % P
        script = [a12, a31]
        draw = eng._rng.randrange
        monkeypatch.setattr(
            eng._rng, "randrange", lambda *a: script.pop(0) if script else draw(*a)
        )
        rebuilds = []
        rebuild = eng._rebuild
        monkeypatch.setattr(eng, "_rebuild", lambda: rebuilds.append(1) or rebuild())
        calls = []
        line = InverseState.rank1_update

        def count_lines(state, *args):
            calls.append(args)
            return line(state, *args)

        monkeypatch.setattr(InverseState, "rank1_update", count_lines)
        generation = eng.state.generation
        eng.insert_centered(1, [(1, 2), (3, 1)])
        ref.insert_centered(1, [(1, 2), (3, 1)])
        # rows 0 and 2; the first line went in, the second raised
        assert [args[0] for args in calls] == [0, 2]
        assert rebuilds == [1]
        # the first line, then two inversions of 2 * 3 passes each: the
        # first meets the singular M and is counted in full
        assert eng.state.generation == generation + 1 + 2 * (2 * 3)
        assert not script
        assert_matrix_holds_live_edges(eng)
        assert eng.tr_edges() == ref.tr_edges()
        for edge in eng.g.eid:
            assert eng.is_redundant(*edge) == ref.is_redundant(*edge)


class TestReductionGraph:
    def test_three_layer_translation(self):
        eng = AlgebraicDag(3)
        eng.insert_centered(1, [(1, 2)])
        rows, cols = np.nonzero(eng.state.m - np.eye(9, dtype=np.uint64))
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(0, 1), (0, 4), (3, 7)]
        assert_matrix_holds_live_edges(eng)

    def test_diamond_detour_is_visible(self):
        eng = AlgebraicDag(3, seed=4)
        eng.insert_centered(1, [(1, 2), (1, 3)])
        eng.insert_centered(3, [(3, 2)])
        assert eng.is_redundant(1, 2)
        assert eng.state.entry(0, 2 * 3 + 2 - 1) != 0  # twice-shifted copy of 2

    def test_chain_has_no_detour(self):
        eng = AlgebraicDag(3, seed=4)
        eng.insert_centered(2, [(1, 2), (2, 3)])
        assert not eng.is_redundant(1, 2)
        assert eng.state.entry(0, 2 * 3 + 2 - 1) == 0
        # 1->2->3 is a two-step walk, so the twice-shifted 3 is reached
        assert eng.state.entry(0, 2 * 3 + 3 - 1) != 0


class TestDagEngine:
    def test_diamond_story(self):
        eng = AlgebraicDag(3, seed=7)
        eng.insert_centered(1, [(1, 2), (1, 3)])
        eng.insert_centered(3, [(3, 2)])
        assert eng.is_redundant(1, 2)
        assert not eng.is_redundant(1, 3)
        assert eng.tr_edges() == [(1, 3), (3, 2)]
        eng.delete_edges([(1, 3)])
        assert eng.tr_edges() == [(1, 2), (3, 2)]
        eng.delete_edges([(1, 2), (3, 2)])
        assert eng.tr_edges() == []

    def test_reinsertion_draws_fresh_state(self):
        eng = AlgebraicDag(3, seed=0)
        eng.insert_centered(1, [(1, 2), (1, 3)])
        eng.insert_centered(3, [(3, 2)])
        spots = [(a - 1, b - 1) for a, b in layered(3, 1, 2)]
        first = [int(eng.state.m[spot]) for spot in spots]
        eng.delete_edges([(1, 2)])
        assert all(eng.state.m[spot] == 0 for spot in spots)
        eng.insert_centered(1, [(1, 2)])
        again = [int(eng.state.m[spot]) for spot in spots]
        assert all(again) and again != first
        assert_matrix_holds_live_edges(eng)
        assert eng.is_redundant(1, 2)

    def test_missing_edge_rejected(self):
        eng = AlgebraicDag(3, seed=1)
        eng.insert_centered(1, [(1, 2)])
        with pytest.raises(MissingEdge):
            eng.delete_edges([(2, 3)])
        with pytest.raises(MissingEdge):
            eng.is_redundant(2, 3)
        assert eng.tr_edges() == [(1, 2)]


class TestGeneralEngine:
    def test_lone_bridge_is_not_redundant(self):
        eng = AlgebraicGeneral(4, seed=1)
        eng.insert_centered(1, [(1, 2)])
        assert not eng.group_redundant([(1, 2)], 1, 2)
        assert eng.tr_edges() == [(1, 2)]
        assert not eng.is_redundant(1, 2)

    def test_marked_edge_represents_its_group(self):
        eng = AlgebraicGeneral(5, seed=3)
        eng.insert_centered(1, [(1, 2), (2, 1)])
        eng.insert_centered(3, [(3, 4), (4, 3)])
        eng.insert_centered(1, [(1, 3)])
        eng.insert_centered(2, [(2, 4)])
        assert not eng.group_redundant([(1, 3), (2, 4)], 1, 3)
        assert eng.tr_edges() == [(1, 2), (1, 3), (2, 1), (3, 4), (4, 3)]
        assert eng.is_redundant(2, 4)

    def test_middle_component_starves_the_group(self):
        eng = AlgebraicGeneral(5, seed=3)
        eng.insert_centered(1, [(1, 2), (2, 1)])
        eng.insert_centered(3, [(3, 4), (4, 3)])
        eng.insert_centered(1, [(1, 3)])
        eng.insert_centered(2, [(2, 4)])
        eng.insert_centered(5, [(1, 5), (5, 3)])
        assert eng.group_redundant([(1, 3), (2, 4)], 1, 3)
        tr = eng.tr_edges()
        assert (1, 3) not in tr
        assert (2, 4) not in tr
        assert (1, 5) in tr and (5, 3) in tr

    def test_cycle_keeps_every_edge(self):
        eng = AlgebraicGeneral(3, seed=2)
        eng.insert_centered(1, [(1, 2)])
        eng.insert_centered(2, [(2, 3)])
        eng.insert_centered(3, [(3, 1)])
        assert eng.tr_edges() == [(1, 2), (2, 3), (3, 1)]
        assert not any(eng.is_redundant(*e) for e in eng.g.eid)

    def test_delete_returns_to_bridge(self):
        eng = AlgebraicGeneral(5, seed=3)
        eng.insert_centered(1, [(1, 2), (2, 1)])
        eng.insert_centered(3, [(3, 4), (4, 3)])
        eng.insert_centered(1, [(1, 3)])
        eng.insert_centered(2, [(2, 4)])
        eng.delete_edges([(1, 3)])
        assert not eng.group_redundant([(2, 4)], 1, 3)
        assert (2, 4) in eng.tr_edges()

    def test_rebuild_matches_incremental_inverse(self):
        eng = AlgebraicGeneral(5, seed=8)
        eng.insert_centered(1, [(1, 2), (2, 1)])
        eng.insert_centered(3, [(2, 3), (3, 4)])
        m0 = eng.state.m.copy()
        inv0 = eng.state.minv.copy()
        eng._rebuild()
        assert np.array_equal(eng.state.m, m0)
        assert np.array_equal(eng.state.minv, inv0)

    @pytest.mark.parametrize("failures", [1, 2])
    def test_singular_rebuild_commits_values_with_matrix(self, monkeypatch, failures):
        eng = AlgebraicGeneral(5, seed=8)
        ref = TrGeneral(5)
        for center, batch in [(1, [(1, 2), (2, 1)]), (3, [(2, 3), (3, 4)])]:
            eng.insert_centered(center, batch)
            ref.insert_centered(center, batch)
        m0 = eng.state.m.copy()
        calls = []

        def flaky_inverse(m):
            calls.append(m)
            if len(calls) <= failures:
                raise SingularMatrix("forced")
            return matrix_inverse(m)

        monkeypatch.setattr(algebraic, "matrix_inverse", flaky_inverse)
        eng._rebuild()
        assert len(calls) == failures + 1
        # the failed tries left M as it was; the matrix inverted last is M now
        assert np.array_equal(calls[0], m0)
        assert eng.state.m is calls[-1]
        resampled = eng.state.m
        assert np.array_equal(resampled != 0, m0 != 0)
        assert np.all(resampled[m0 != 0] != m0[m0 != 0])
        assert_matrix_holds_live_edges(eng)
        assert eng.state.full_product_is_identity()
        assert eng.tr_edges() == ref.tr_edges()

    @pytest.mark.parametrize("zero_at", ["insert", "delete"])
    def test_zero_denominator_writes_the_entry_and_rebuilds(self, monkeypatch, zero_at):
        eng = AlgebraicGeneral(5, seed=8)
        ref = TrGeneral(5)
        for center, batch in [(1, [(1, 2), (2, 1)]), (3, [(2, 3), (3, 4)])]:
            eng.insert_centered(center, batch)
            ref.insert_centered(center, batch)
        assign = InverseState.assign_entries

        def zero_once(state, i, j, value):
            monkeypatch.setattr(InverseState, "assign_entries", assign)
            raise DenominatorZero("forced")

        monkeypatch.setattr(InverseState, "assign_entries", zero_once)
        generation = eng.state.generation
        if zero_at == "insert":
            eng.insert_centered(4, [(4, 5)])
            ref.insert_centered(4, [(4, 5)])
        else:
            eng.delete_edges([(2, 3)])
            ref.delete_edges([(2, 3)])
        assert InverseState.assign_entries is assign
        # one inversion of the 5 x 5 matrix: two passes per column
        assert eng.state.generation == generation + 2 * 5
        assert_matrix_holds_live_edges(eng)
        assert eng.tr_edges() == ref.tr_edges()

    def test_identity_holds_when_removal_leaves_matrix_singular(self):
        eng = AlgebraicGeneral(3, seed=0)
        eng.insert_centered(1, [(1, 2), (2, 1)])
        eng.insert_centered(3, [(2, 3), (3, 2)])
        eng.insert_centered(1, [(1, 3)])
        # det of M without (1, 2) is 2*l1 + 13*11*6, zero for this l1
        l1 = -13 * 11 * 6 * pow(2, -1, P) % P
        values = {(1, 1): l1, (2, 2): 2, (3, 3): 4,
                  (1, 2): 7, (2, 1): 11, (2, 3): 1, (3, 2): 6, (1, 3): 13}
        for (u, v), x in values.items():
            eng.state.m[u - 1, v - 1] = x
        eng._rebuild()
        assert {e: int(eng.state.m[e[0] - 1, e[1] - 1]) for e in values} == values
        assert_matrix_holds_live_edges(eng)
        assert (1 - 7 * eng.state.entry(1, 0)) % P == 0
        live = list(eng.g.eid)
        for edge in live:
            assert eng.is_redundant(*edge) == brute_redundant(3, live, *edge)

    def test_is_redundant_needs_no_condensation(self, monkeypatch):
        # tr_edges reads its components off the inverse as well
        def refuse(*args):
            raise AssertionError("the engine condensed the graph")

        monkeypatch.setattr(scc_snapshots, "condensation", refuse)
        monkeypatch.setattr(scc_snapshots, "_strong_components", refuse)
        n = 8
        eng = AlgebraicGeneral(n, seed=6)
        for op in random_update_stream(n, 40, "general", density=0.45, seed=6):
            if isinstance(op, InsertCentered):
                eng.insert_centered(op.center, op.edges)
            else:
                eng.delete_edges(op.edges)
            live = list(eng.g.eid)
            for edge in live:
                assert eng.is_redundant(*edge) == brute_redundant(n, live, *edge)
            assert validity_triple(n, live, eng.tr_edges()) is None


class TestInitInverse:
    def test_dag_mode_matches_incremental_engine(self):
        eng = AlgebraicDag(4, seed=11)
        eng.insert_centered(1, [(1, 2), (1, 3)])
        eng.insert_centered(3, [(3, 2), (3, 4)])
        assert_matrix_holds_live_edges(eng)
        eng.delete_edges([(1, 2), (3, 4)])
        assert_matrix_holds_live_edges(eng)

    def test_general_mode_matches_incremental_engine(self):
        eng = AlgebraicGeneral(4, seed=5)
        eng.insert_centered(1, [(1, 2)])
        eng.insert_centered(2, [(2, 1), (2, 3)])
        assert_matrix_holds_live_edges(eng)
        eng.delete_edges([(2, 1)])
        assert_matrix_holds_live_edges(eng)


class TestSizeGuard:
    def test_matrices_past_physical_memory_are_refused(self):
        # 3n x 3n uint64 matrices at n = 10^6: 72 TB each
        with pytest.raises(TooLarge):
            AlgebraicDag(10**6)

    def test_measured_peak_stays_under_the_guard(self, monkeypatch):
        size = 200
        rng = random.Random(3)
        tries = []

        def singular_once(m):
            tries.append(m)
            if len(tries) == 1:
                raise SingularMatrix("forced")
            return matrix_inverse(m)

        tracemalloc.start()
        try:
            eng = AlgebraicGeneral(size, seed=1)
            tracemalloc.reset_peak()
            eng.state.assign_entries([3], [5], [777])
            peaks = [tracemalloc.get_traced_memory()[1]]
            # a dense M: the resampling draws one value per nonzero entry
            eng.state.m = np.array(
                [[rng.randrange(1, P) for _ in range(size)] for _ in range(size)],
                dtype=np.uint64,
            )
            for inverse in (matrix_inverse, singular_once):
                monkeypatch.setattr(algebraic, "matrix_inverse", inverse)
                tracemalloc.reset_peak()
                eng._rebuild()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(tries) == 2
        matrix = size * size * 8
        assert max(peaks) <= algebraic._PEAK_MATRICES * matrix
        # and the guard asks for less than one matrix beyond the peak
        assert max(peaks) > (algebraic._PEAK_MATRICES - 1) * matrix


class TestWorkMatrices:
    size = 200
    batch = [(5, 6), (7, 5), (5, 8)]

    def warmed(self):
        eng = AlgebraicGeneral(self.size, seed=1)
        for c in range(1, 40, 3):
            eng.insert_centered(c, [(c, c + 1), (c + 2, c), (c, c + 5)])
        assert eng.state.work is not None
        return eng

    def test_updates_allocate_no_matrix(self):
        eng = self.warmed()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eng.insert_centered(5, self.batch)
            eng.delete_edges(self.batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < self.size * self.size * 8

    def test_pickle_leaves_them_out(self):
        eng = self.warmed()
        blob = pickle.dumps(eng, protocol=pickle.HIGHEST_PROTOCOL)
        twin = pickle.loads(blob)
        assert twin.state.work is None
        # m and minv, not the two work matrices besides
        assert len(blob) < 3 * self.size * self.size * 8
        for e in (eng, twin):
            e.insert_centered(5, self.batch)
            e.delete_edges([(1, 2), (3, 1)])
        assert twin.state.work is not None
        assert np.array_equal(twin.state.m, eng.state.m)
        assert np.array_equal(twin.state.minv, eng.state.minv)
        assert twin.tr_edges() == eng.tr_edges()


@st.composite
def unit_dags(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if draw(st.booleans()):
                edges.append((u, v))
    return n, edges


@given(unit_dags())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_unit_weights_count_paths(case):
    n, edges = case
    m = np.zeros((n, n), dtype=np.uint64)
    np.fill_diagonal(m, 1)
    for u, v in edges:
        m[u - 1, v - 1] = P - 1
    inv = matrix_inverse(m)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            assert int(inv[u - 1, v - 1]) == dag_path_count(n, edges, u, v) % P


@st.composite
def dag_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    steps = draw(st.integers(min_value=5, max_value=40))
    density = draw(st.sampled_from([0.0, 0.2, 0.4]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, random_update_stream(n, steps, "dag", density=density, seed=seed)


@st.composite
def general_cases(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    steps = draw(st.integers(min_value=5, max_value=30))
    density = draw(st.sampled_from([0.0, 0.25, 0.45]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, random_update_stream(n, steps, "general", density=density, seed=seed)


@given(dag_cases())
@PROPERTY_SETTINGS
def test_dag_engine_agrees_with_counting_engine(case):
    n, stream = case
    alg = AlgebraicDag(n, seed=n)
    comb = TrDag(n)
    for _ in replay_both(stream, alg, comb):
        assert alg.tr_edges() == comb.tr_edges()
        for edge in alg.g.eid:
            assert alg.is_redundant(*edge) == comb.is_redundant(*edge)


@given(general_cases())
@PROPERTY_SETTINGS
def test_general_engine_agrees_with_counting_engine(case):
    n, stream = case
    alg = AlgebraicGeneral(n, seed=n)
    comb = TrGeneral(n)
    for _ in replay_both(stream, alg, comb):
        assert alg.tr_edges() == comb.tr_edges()
        for edge in alg.g.eid:
            assert alg.is_redundant(*edge) == comb.is_redundant(*edge)


def replay_checking_matrix(eng, stream):
    rng = random.Random(eng.n)
    for op in stream:
        if isinstance(op, InsertCentered):
            eng.insert_centered(op.center, op.edges)
        else:
            eng.delete_edges(op.edges)
        assert eng.state.probe_ok(rng, probes=3)
        assert_matrix_holds_live_edges(eng)
    assert eng.state.full_product_is_identity()


@given(general_cases())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_maintained_inverse_stays_faithful(case):
    n, stream = case
    replay_checking_matrix(AlgebraicGeneral(n, seed=n + 1), stream)


@given(dag_cases())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_maintained_dag_inverse_stays_faithful(case):
    n, stream = case
    replay_checking_matrix(AlgebraicDag(n, seed=n + 1), stream)
