"""The per-solution Feasibility table against Instance.requirement_holds."""

import gc
import weakref
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import gen_grid, gen_hypergraph_vc, solve
from bulkrobust.instance import Feasibility
from conftest import build_suite_instance, component_of, suite_schedule

SUITE = [build_suite_instance(p) for p in suite_schedule(24)]
HVC = gen_hypergraph_vc(3, 3, 10, 5)[1]
INSTANCES = SUITE + [HVC]
TREE_GRID = gen_grid(10, 10, 36, 3, 1, 101, "mst")     # a tree-cover instance


def failures_by_definition(instance, x, size):
    """`Feasibility.failures(size)` from `requirement_holds` alone: the
    min(size, |F_j & X|)-subsets of each F_j & X in scenario, then
    `combinations`, order, each under the first scenario that holds it, kept
    where removing it breaks the requirement; set -> scenario."""
    found, seen = {}, set()
    for jdx, full in enumerate(instance.scenario_sets):
        live = sorted(full & x)
        for sub in map(frozenset, combinations(live, min(size, len(live)))):
            if sub not in seen:
                seen.add(sub)
                if not instance.requirement_holds(x - sub):
                    found[sub] = jdx
    return found


def assert_failures_agree(instance, table, sizes):
    """`table.failures` at each of `sizes`, asked in that order: its keys in
    order, each set's scenario, and each stored cut that of `cut`."""
    for size in sizes:
        expected = failures_by_definition(instance, table.x, size)
        found = table.failures(size)
        assert list(found) == list(expected), (size, sorted(table.x))
        assert [jdx for jdx, _ in found.values()] == list(expected.values())
        for sub, (jdx, cut) in found.items():
            assert cut == table.cut(jdx, tuple(sorted(sub))), (size, sorted(sub))


def assert_agrees(instance, x):
    """Every S within every scenario, of every size from 0 to |F_j|, and
    `failures` at every size from 0 to k."""
    x = frozenset(x)
    table = Feasibility(instance, x)
    for jdx, full in enumerate(instance.scenario_sets):
        for size in range(len(full) + 1):
            for sub in combinations(sorted(full), size):
                expected = instance.requirement_holds(x - frozenset(sub))
                assert (table.cut(jdx, sub) is None) == expected, (jdx, sub, sorted(x))
    assert_failures_agree(instance, table, range(instance.k + 1))


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


def components(instance, edges):
    return component_of(range(instance.node_count),
                        (instance.edge_map[e][:2] for e in edges))


def assert_cuts_agree(instance, x):
    """`labels` and `cut` of every scenario F_j where X - F_j breaks the
    requirement, against the networkx components of X - F_j and of X - S for every
    S within F_j whose removal breaks it too (`cut` is None for the rest);
    returns the number of such scenarios."""
    x = frozenset(x)
    table = Feasibility(instance, x)
    nodes = range(instance.node_count)
    terminals = [instance.s, instance.t] if instance.problem == "st" else []
    checked = 0
    for jdx, full in enumerate(instance.scenario_sets):
        if instance.requirement_holds(x - full):
            continue
        checked += 1
        labels = table.labels(jdx, nodes)
        # Labels are numbered on first sight: s and t, then the ends of F_j & X.
        sighted = terminals + [n for e in sorted(full & x)
                               for n in instance.edge_map[e][:2]]
        order = list(dict.fromkeys(labels[n] for n in sighted))
        assert order == list(range(len(order))), (jdx, sorted(x))
        # One label per component of X - F_j holding a sighted node, None elsewhere.
        component = components(instance, x - full)
        label_of = {component[n]: labels[n] for n in sighted}
        assert len(set(label_of.values())) == len(label_of)
        assert labels == [label_of.get(component[n]) for n in nodes], (jdx, sorted(x))
        for size in range(len(full) + 1):
            for sub in combinations(sorted(full), size):
                found = table.cut(jdx, sub)
                if instance.requirement_holds(x - frozenset(sub)):
                    assert found is None, (jdx, sub, sorted(x))
                    continue
                count, roots = found
                assert len(roots) == len(order)
                after = components(instance, x - frozenset(sub))
                root_of = {labels[n]: after[n] for n in sighted}
                assert count == len(set(root_of.values())), (jdx, sub, sorted(x))
                for a, b in combinations(range(len(order)), 2):
                    assert (roots[a] == roots[b]) == (root_of[a] == root_of[b])
    return checked


def test_labels_and_cuts_on_a_tree_cover_grid():
    instance = TREE_GRID
    touched = frozenset().union(*instance.scenario_sets)
    solutions = level_solutions(instance)
    # Most of each solution lies outside every scenario.
    assert all(len(x - touched) > len(x & touched) for x in solutions)
    assert sum(assert_cuts_agree(instance, x) for x in solutions) > 20
    # Solutions whose edges all lie in some scenario break every scenario.
    for x in solutions + [touched]:
        assert assert_cuts_agree(instance, x & touched) == len(instance.scenario_sets)


def test_labels_and_cuts_on_every_level_of_a_solve():
    checked = 0
    for instance in INSTANCES:
        for x in level_solutions(instance):
            checked += assert_cuts_agree(instance, x)
    assert checked > 20


@st.composite
def instance_and_solution(draw):
    instance = draw(st.sampled_from(INSTANCES))
    x = draw(st.sets(st.sampled_from(sorted(instance.edge_ids))))
    sizes = draw(st.permutations(range(instance.k + 1)))
    return instance, x, sizes


@settings(max_examples=150, deadline=None)
@given(instance_and_solution())
def test_agrees_on_random_solutions(case):
    # The sizes are also asked in a random order on one fresh table, so the
    # skip below a size answered empty runs out of order too.
    instance, x, sizes = case
    assert_agrees(instance, x)
    assert_failures_agree(instance, Feasibility(instance, frozenset(x)), sizes)


def answers(instance, table):
    """Everything a table answers: `cut` for every S within every
    scenario, `labels` of every node in every non-trivial scenario, and
    `failures` at every size, in order."""
    nodes = range(instance.node_count)
    found = []
    for jdx, full in enumerate(instance.scenario_sets):
        subsets = [sub for size in range(len(full) + 1)
                   for sub in combinations(sorted(full), size)]
        found.append([table.cut(jdx, sub) for sub in subsets])
        if table.cut(jdx, sorted(full)) is not None:
            found.append(table.labels(jdx, nodes))
    found.append([list(table.failures(size).items()) for size in range(instance.k + 1)])
    return found


def test_grown_tables_equal_fresh_ones(monkeypatch):
    """Each level's table, grown by `instance.feasibility` from the one
    before, answers as a table built from scratch on the same X."""
    grown = []
    build = Feasibility.__init__

    def recording_build(self, inst, x, _kept=None):
        if _kept is not None:
            grown.append(x)
        build(self, inst, x, _kept)

    monkeypatch.setattr(Feasibility, "__init__", recording_build)
    levels = 0
    for instance in INSTANCES + [TREE_GRID]:
        solutions = list(dict.fromkeys(level_solutions(instance)))
        levels += len(solutions) - 1
        # After a solve the final X is kept, so the base table is built
        # fresh; from the empty X every table is grown.
        for start in (solutions[-1], frozenset()):
            instance.feasibility(start)
            grown.clear()
            for x in solutions:
                table = instance.feasibility(x)
                assert table.x == x
                assert answers(instance, table) == answers(instance, Feasibility(instance, x))
            assert grown == [x for prev, x in zip([start] + solutions, solutions) if prev < x]
        assert grown == solutions
    assert levels > 20


def test_a_held_table_survives_growth():
    instance = HVC
    base, *_, final = level_solutions(instance)
    assert base < final     # so the final table is grown from the base one
    held = instance.feasibility(base)
    before = answers(instance, held)
    assert before == answers(instance, Feasibility(instance, base))
    newer = instance.feasibility(final)
    assert newer is not held and held.x == base
    assert answers(instance, newer) != before
    assert answers(instance, held) == before


def test_failures_answers_each_size_once(monkeypatch):
    # A size is answered once per table, failing sets or none, and a size
    # no larger than one answered empty asks nothing.
    base, *_, final = level_solutions(HVC)
    calls = []
    cut = Feasibility.cut
    monkeypatch.setattr(Feasibility, "cut",
                        lambda self, j, sub: calls.append(j) or cut(self, j, sub))
    table = Feasibility(HVC, base)
    found = table.failures(1)
    assert found and calls
    calls.clear()
    assert table.failures(1) is found and calls == []
    table = Feasibility(HVC, final)
    assert table.failures(HVC.k) == {}
    assert calls
    calls.clear()
    for size in range(HVC.k, -1, -1):
        assert table.failures(size) == {}
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
