"""The per-solution Feasibility table against Instance.requirement_holds."""

import gc
import weakref
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import gen_hypergraph_vc, solve
from bulkrobust.instance import Feasibility
from conftest import build_suite_instance, suite_schedule

SUITE = [build_suite_instance(p) for p in suite_schedule(24)]
HVC = gen_hypergraph_vc(3, 3, 10, 5)[1]
INSTANCES = SUITE + [HVC]


def first_failure_by_definition(instance, x, size):
    for jdx, full in enumerate(instance.scenario_sets):
        for sub in combinations(sorted(full), min(size, len(full))):
            if not instance.requirement_holds(x - frozenset(sub)):
                return jdx, sub
    return None


def assert_agrees(instance, x):
    """Every S within every scenario, of every size from 0 to |F_j|, and
    `first_failure` at every size from 0 to k."""
    x = frozenset(x)
    table = Feasibility(instance, x)
    for jdx, full in enumerate(instance.scenario_sets):
        for size in range(len(full) + 1):
            for sub in combinations(sorted(full), size):
                expected = instance.requirement_holds(x - frozenset(sub))
                assert table.holds(jdx, sub) == expected, (jdx, sub, sorted(x))
    for size in range(instance.k + 1):
        expected = first_failure_by_definition(instance, x, size)
        assert table.first_failure(size) == expected, (size, sorted(x))


def level_solutions(instance):
    """The base solution and the solution after each level of a real solve."""
    _, trace = solve(instance)
    x = frozenset(trace.base_edges)
    found = [x]
    for level in trace.levels:
        x = x | frozenset(level.added)
        found.append(x)
    return found


def test_schedule_covers_both_problems():
    assert {inst.problem for inst in SUITE} == {"st", "mst"}
    assert any(len(level_solutions(inst)) > 2 for inst in SUITE)


def test_agrees_on_every_level_of_a_solve():
    for instance in INSTANCES:
        for x in level_solutions(instance):
            assert_agrees(instance, x)


def test_agrees_on_empty_and_scenario_free_solutions():
    for instance in INSTANCES:
        touched = frozenset().union(*instance.scenario_sets)
        assert_agrees(instance, frozenset())
        assert_agrees(instance, instance.edge_ids - touched)
        assert_agrees(instance, instance.edge_ids)


@st.composite
def instance_and_solution(draw):
    instance = draw(st.sampled_from(INSTANCES))
    x = draw(st.sets(st.sampled_from(sorted(instance.edge_ids))))
    return instance, x


@settings(max_examples=150, deadline=None)
@given(instance_and_solution())
def test_agrees_on_random_solutions(case):
    assert_agrees(*case)


def test_first_failure_checks_each_subset_once(monkeypatch):
    x = level_solutions(HVC)[-1]
    table = Feasibility(HVC, x)
    calls = []
    holds = Feasibility.holds
    monkeypatch.setattr(Feasibility, "holds",
                        lambda self, j, sub: calls.append(j) or holds(self, j, sub))
    assert table.first_failure(HVC.k) is None
    assert calls
    calls.clear()
    for size in range(HVC.k, -1, -1):     # smaller sizes follow from the larger
        assert table.first_failure(size) is None
    assert calls == []


def test_instance_keeps_the_table_of_the_last_solution():
    instance = SUITE[0]
    x = level_solutions(instance)[-1]
    table = instance.feasibility(x)
    assert instance.feasibility(set(x)) is table
    assert instance.feasibility(frozenset()) is not table
    assert instance.feasibility(frozenset()).x == frozenset()


def test_kept_table_makes_no_reference_cycle():
    instance = build_suite_instance(suite_schedule(1)[0])
    instance.feasibility(level_solutions(instance)[-1])
    ref = weakref.ref(instance)
    gc.disable()
    try:
        del instance
        assert ref() is None     # freed by reference counting alone
    finally:
        gc.enable()
