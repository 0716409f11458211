"""Self-checks for the brute-force reference layer.

The named fixtures (diamond, path, 3-cycle, two linked 2-cycles) have
hand-checkable answers; the property tests make the oracle vouch for its
own outputs before any engine is compared against it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import oracle
from dyntr.errors import BadUpdate, CyclicInput, MissingEdge
import reference

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

D3 = [(1, 2), (1, 3), (3, 2)]
P3 = [(1, 2), (2, 3)]
C3 = [(1, 2), (2, 3), (3, 1)]
TWO_CYCLES = [(1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (2, 4)]


@st.composite
def dag_instances(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    perm = draw(st.permutations(range(1, n + 1)))
    pairs = [
        (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
    ]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return n, sorted(edges)


@st.composite
def digraph_instances(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return n, sorted(edges)


def test_transitive_closure_fixtures():
    reach = reference.transitive_closure(3, P3)
    assert reach[1] >> 3 & 1
    assert reference.transitive_closure(3, C3)[2] == 0b1110
    assert reference.transitive_closure(3, D3)[2] == 1 << 2


def test_brute_redundant_fixtures():
    assert oracle.brute_redundant(3, D3, 1, 2) is True
    assert oracle.brute_redundant(3, P3, 1, 2) is False
    assert oracle.brute_redundant(3, C3, 1, 2) is False
    with pytest.raises(MissingEdge):
        oracle.brute_redundant(3, P3, 1, 3)


def test_brute_tr_dag_fixtures():
    assert oracle.brute_tr_dag(3, D3) == {(1, 3), (3, 2)}
    assert oracle.brute_tr_dag(3, P3) == set(P3)
    assert oracle.brute_tr_dag(3, []) == set()
    with pytest.raises(CyclicInput):
        oracle.brute_tr_dag(3, C3)


def test_dag_path_count_fixtures():
    assert reference.dag_path_count(3, D3, 1, 2) == 2
    assert reference.dag_path_count(3, P3, 1, 3) == 1
    assert reference.dag_path_count(3, P3, 2, 2) == 1
    with pytest.raises(CyclicInput):
        reference.dag_path_count(3, C3, 1, 2)


def test_brute_tr_general_fixtures():
    tr = oracle.brute_tr_general(4, TWO_CYCLES)
    assert (1, 3) in tr and (2, 4) not in tr
    assert len(tr) == 5
    # a middle component opens an indirect route, the group drops out
    with_middle = TWO_CYCLES + [(1, 5), (5, 3)]
    tr2 = oracle.brute_tr_general(5, with_middle)
    assert (1, 3) not in tr2 and (2, 4) not in tr2
    assert oracle.brute_tr_general(3, C3 + [(1, 3)]) == set(C3)
    assert oracle.brute_tr_general(3, D3) == oracle.brute_tr_dag(3, D3)


def test_scc_partition_two_cycles():
    comp, ncomp = oracle.scc_partition(4, TWO_CYCLES)
    assert ncomp == 2
    assert comp[1] == comp[2] != comp[3] == comp[4]


def test_validity_triple_catches_each_leg():
    assert oracle.validity_triple(3, D3, [(1, 3), (3, 2)]) is None
    assert "subgraph" in oracle.validity_triple(3, D3, [(2, 1)])
    assert "closure" in oracle.validity_triple(3, D3, [(1, 3)])
    assert "removable" in oracle.validity_triple(3, D3, D3)


@given(dag_instances())
@PROPERTY_SETTINGS
def test_brute_tr_dag_is_irredundant_and_closure_equal(instance):
    n, edges = instance
    tr = oracle.brute_tr_dag(n, edges)
    assert oracle.validity_triple(n, edges, tr) is None
    for x, y in tr:
        assert not oracle.brute_redundant(n, tr, x, y)


@given(digraph_instances())
@PROPERTY_SETTINGS
def test_brute_tr_general_passes_validity_triple(instance):
    n, edges = instance
    tr = oracle.brute_tr_general(n, edges)
    assert oracle.validity_triple(n, edges, tr) is None


@given(digraph_instances())
@PROPERTY_SETTINGS
def test_detour_matches_closure_without_the_edge(instance):
    n, edges = instance
    es = set(edges)
    redundant = {}
    for x, y in edges:
        reach = reference.transitive_closure(n, es - {(x, y)})
        redundant[(x, y)] = bool(reach[x] >> y & 1)
        assert oracle.brute_redundant(n, es, x, y) == redundant[(x, y)]
    verdict = oracle.validity_triple(n, es, es)
    assert (verdict is not None and "removable" in verdict) == any(redundant.values())


@given(dag_instances())
@PROPERTY_SETTINGS
def test_closures_agree(instance):
    n, edges = instance
    masks = reference.transitive_closure(n, edges)
    fw = oracle.fw_closure(n, edges)
    for v in range(1, n + 1):
        for w in range(1, n + 1):
            assert bool(masks[v] >> w & 1) == bool(fw[v, w])


@given(digraph_instances())
@PROPERTY_SETTINGS
def test_path_count_diagonal_is_one(instance):
    n, edges = instance
    if not reference.is_acyclic(n, edges):
        return
    for v in range(1, n + 1):
        assert reference.dag_path_count(n, edges, v, v) == 1


def test_stream_seed_replay_is_deterministic():
    a = oracle.random_update_stream(9, 40, "general", 0.4, seed=11)
    b = oracle.random_update_stream(9, 40, "general", 0.4, seed=11)
    assert a == b
    c = oracle.random_update_stream(9, 40, "general", 0.4, seed=12)
    assert a != c


@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=2**32))
@PROPERTY_SETTINGS
def test_dag_streams_stay_acyclic(n, seed):
    updates = oracle.random_update_stream(n, 25, "dag", 0.5, seed=seed)
    live: set = set()
    for upd in updates:
        if hasattr(upd, "center"):
            live |= set(upd.edges)
        else:
            live -= set(upd.edges)
        assert reference.is_acyclic(n, live)


@pytest.mark.parametrize(
    "n, mode", [(0, "dag"), (-2, "general"), (2.0, "dag"), ("3", "dag"), (4, "bogus")]
)
def test_stream_rejects_a_bad_vertex_count_or_mode(n, mode):
    with pytest.raises(BadUpdate):
        oracle.random_update_stream(n, 10, mode)


def test_density_zero_deletes_after_build():
    updates = oracle.random_update_stream(6, 60, "general", 0.0, seed=3)
    kinds = ["ins" if hasattr(u, "center") else "del" for u in updates]
    first_del = kinds.index("del")
    assert all(k == "del" for k in kinds[first_del:])
    assert oracle.replay(6, updates) == set()


def test_fw_closure_is_reflexive_and_transitive():
    fw = oracle.fw_closure(3, P3)
    assert np.all(np.diag(fw)[1:])
    assert fw[1, 3]
