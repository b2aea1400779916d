"""Brute-force references: feasibility, optimum, vertex cover."""

import random

import pytest

from bulkrobust import BudgetError, OracleBudget, brute_force_opt, gen_grid, is_feasible
from bulkrobust.generators import Hypergraph, reduce_hypergraph_vc
from bulkrobust.oracle import brute_force_vc
from conftest import triangle_instance


def test_is_feasible_triangle():
    tri = triangle_instance()
    assert is_feasible(tri, {1, 2}) is True
    assert is_feasible(tri, {0}) is False        # the scenario removes it
    assert is_feasible(tri, {0, 1}) is False     # no s-t path without e0


def test_is_feasible_full_edge_set():
    for seed in range(6):
        inst = gen_grid(2 + seed % 2, 3, 1 + seed % 3, 2, 3, seed=seed)
        assert is_feasible(inst, inst.edge_ids)


def test_is_feasible_monotone():
    rng = random.Random(1)
    inst = gen_grid(3, 3, 2, 2, 3, seed=4)
    edges = sorted(inst.edge_ids)
    for _ in range(60):
        small = frozenset(e for e in edges if rng.random() < 0.5)
        extra = frozenset(e for e in edges if rng.random() < 0.5)
        if is_feasible(inst, small):
            assert is_feasible(inst, small | extra)


def test_brute_force_triangle():
    opt, witness = brute_force_opt(triangle_instance())
    assert opt == 2
    assert witness == frozenset({1, 2})


def test_brute_force_no_scenarios_is_cheapest_path():
    tri = triangle_instance(scenarios=())
    opt, witness = brute_force_opt(tri)
    assert opt == 1
    assert witness == frozenset({0})


def test_brute_force_single_hyperedge_reduction():
    h = Hypergraph(((0,), (1,)), ((0, 1),))
    opt, witness = brute_force_opt(reduce_hypergraph_vc(h))
    assert opt == 1
    assert is_feasible(reduce_hypergraph_vc(h), witness)


def test_brute_force_budget():
    inst = gen_grid(4, 4, 1, 1, 3, seed=1)
    with pytest.raises(BudgetError):
        brute_force_opt(inst, OracleBudget(max_edges=5))
    with pytest.raises(BudgetError):
        brute_force_opt(inst, OracleBudget(max_subsets=3))


def test_brute_force_witness_is_feasible_and_optimal():
    for seed in range(6):
        inst = gen_grid(2, 4, 1 + seed % 3, 2, 3, seed=seed)
        opt, witness = brute_force_opt(inst)
        assert is_feasible(inst, witness)
        assert inst.weight_of(witness) == opt
        again_opt, again_witness = brute_force_opt(inst)
        assert (again_opt, again_witness) == (opt, witness)


def test_brute_force_vc_examples():
    h = Hypergraph(((0,), (1,)), ((0, 1),))
    assert brute_force_vc(h)[0] == 1
    h2 = Hypergraph(((0, 1), (2,)), ((0, 2), (1, 2)))
    size, witness = brute_force_vc(h2)
    assert size == 1 and witness == frozenset({2})
    h3 = Hypergraph(((0,), (1,)), ())
    assert brute_force_vc(h3) == (0, frozenset())


def test_brute_force_vc_budget():
    h = Hypergraph(((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 4)))
    with pytest.raises(BudgetError):
        brute_force_vc(h, OracleBudget(max_edges=4))
