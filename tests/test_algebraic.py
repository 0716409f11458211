"""Field arithmetic, maintained inverses, and the algebraic engines."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import DeleteSet, InsertCentered, TrDag, TrGeneral, algebraic
from dyntr.algebraic import (
    FIELD_PRIME,
    AlgebraicDag,
    AlgebraicGeneral,
    InverseState,
    _fold_axis0,
    _mulmod,
    build_reduction_graph,
    init_inverse,
    matrix_inverse,
    translate_update,
)
from dyntr.errors import (
    CyclicInput,
    DenominatorZero,
    MissingEdge,
    SingularMatrix,
)
from dyntr.oracle import dag_path_count, random_update_stream

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

P = FIELD_PRIME


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


class TestReductionGraph:
    def test_three_layer_translation(self):
        assert translate_update(3, [(1, 2)]) == [(1, 2), (1, 5), (4, 8)]
        assert len(translate_update(5, [(1, 2), (2, 3)])) == 6

    def test_diamond_detour_is_visible(self):
        edges = build_reduction_graph(3, [(1, 2), (1, 3), (3, 2)])
        assert len(edges) == 9
        adj = {}
        for t, h in edges:
            adj.setdefault(t, []).append(h)
        assert self._reaches(adj, 1, 8)  # twice-shifted copy of 2

    def test_chain_has_no_detour(self):
        edges = build_reduction_graph(3, [(1, 2), (2, 3)])
        adj = {}
        for t, h in edges:
            adj.setdefault(t, []).append(h)
        assert not self._reaches(adj, 1, 8)
        # 1->2->3 is a two-step walk, so the twice-shifted 3 is reached
        assert self._reaches(adj, 1, 9)

    def test_cyclic_input_rejected(self):
        with pytest.raises(CyclicInput):
            build_reduction_graph(2, [(1, 2), (2, 1)])

    @staticmethod
    def _reaches(adj, s, t):
        seen, stack = {s}, [s]
        while stack:
            v = stack.pop()
            for w in adj.get(v, []):
                if w == t:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False


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
        first = eng._vars[(1, 2)]
        eng.delete_edges([(1, 2)])
        eng.insert_centered(1, [(1, 2)])
        assert eng._vars[(1, 2)] != first
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
        loops0, vars0 = list(eng._loops), dict(eng._vars)
        calls = []

        def flaky_inverse(m):
            calls.append(m)
            if len(calls) <= failures:
                raise SingularMatrix("forced")
            return matrix_inverse(m)

        monkeypatch.setattr(algebraic, "matrix_inverse", flaky_inverse)
        eng._rebuild()
        assert len(calls) == failures + 1
        assert eng._loops != loops0
        assert set(eng._vars) == set(vars0) and eng._vars != vars0
        expected = np.zeros((5, 5), dtype=np.uint64)
        for v in range(1, 6):
            expected[v - 1, v - 1] = eng._loops[v]
        for (u, v), x in eng._vars.items():
            expected[u - 1, v - 1] = x
        assert np.array_equal(eng.state.m, expected)
        assert eng.state.full_product_is_identity()
        assert eng.tr_edges() == ref.tr_edges()


class TestInitInverse:
    def test_dag_mode_matches_incremental_engine(self):
        eng = AlgebraicDag(4, seed=11)
        eng.insert_centered(1, [(1, 2), (1, 3)])
        eng.insert_centered(3, [(3, 2), (3, 4)])
        assignment = {}
        for edge, xs in eng._vars.items():
            for pair, x in zip(eng._layered(*edge), xs):
                assignment[pair] = x
        state = init_inverse(4, list(eng._vars), "dag", assignment)
        assert np.array_equal(state.m, eng.state.m)
        assert np.array_equal(state.minv, eng.state.minv)

    def test_general_mode_matches_incremental_engine(self):
        eng = AlgebraicGeneral(4, seed=5)
        eng.insert_centered(1, [(1, 2)])
        eng.insert_centered(2, [(2, 1), (2, 3)])
        assignment = dict(eng._vars)
        for v in range(1, 5):
            assignment[(v, v)] = eng._loops[v]
        state = init_inverse(4, list(eng._vars), "general", assignment)
        assert np.array_equal(state.m, eng.state.m)
        assert np.array_equal(state.minv, eng.state.minv)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_inverse(2, [], "mixed", {})


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


@given(general_cases())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_maintained_inverse_stays_faithful(case):
    n, stream = case
    eng = AlgebraicGeneral(n, seed=n + 1)
    rng = random.Random(n)
    for op in stream:
        if isinstance(op, InsertCentered):
            eng.insert_centered(op.center, op.edges)
        else:
            eng.delete_edges(op.edges)
        assert eng.state.probe_ok(rng, probes=3)
        rebuilt = np.zeros((n, n), dtype=np.uint64)
        for v in range(1, n + 1):
            rebuilt[v - 1, v - 1] = eng._loops[v]
        for (u, v), x in eng._vars.items():
            rebuilt[u - 1, v - 1] = x
        assert np.array_equal(eng.state.m, rebuilt)
    assert eng.state.full_product_is_identity()
