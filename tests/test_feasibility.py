"""The per-solution Feasibility table against Instance.requirement_holds."""

import gc
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import Instance, gen_grid, gen_hypergraph_vc, solve
from bulkrobust.instance import Feasibility
from conftest import (build_suite_instance, component_of, fresh_table,
                      square_with_chords, suite_schedule, triangle_instance)

SUITE = [build_suite_instance(p) for p in suite_schedule(24)]
HVC = gen_hypergraph_vc(3, 3, 10, 5)[1]
INSTANCES = SUITE + [HVC]
TREE_GRID = gen_grid(10, 10, 36, 3, 1, 101, "mst")     # a tree-cover instance


def chords(problem, scenarios=((4, 5),)):
    """The square cycle 0-1-2-3 (edges 0 to 3) with two parallel chords
    0-2 (edges 4 and 5); s = 0 and t = 2 for 'st'."""
    square = square_with_chords()
    terminals = (0, 2) if problem == "st" else (None, None)
    return Instance(4, square.edges, square.rotation, problem, *terminals, scenarios)


MULTIGRAPHS = [chords("st"), chords("mst"), chords("st", ((0, 4), (1, 5), (2, 3))),
               chords("mst", ((0, 4, 5), (1, 2)))]


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
    """Every S within every scenario, of every size from 0 to |F_j|,
    `failures` at every size from 0 to k, and `holds` on X itself."""
    x = frozenset(x)
    table = fresh_table(instance, x)
    assert table.holds == instance.requirement_holds(x), sorted(x)
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
    """`cut` of every S within every scenario F_j where X - F_j breaks the
    requirement, against the networkx components of X - S: None where the
    requirement holds, else the number of components that hold s, t or an
    end of F_j & X; returns the number of such scenarios."""
    x = frozenset(x)
    table = fresh_table(instance, x)
    terminals = [instance.s, instance.t] if instance.problem == "st" else []
    checked = 0
    for jdx, full in enumerate(instance.scenario_sets):
        if instance.requirement_holds(x - full):
            continue
        checked += 1
        sighted = terminals + [n for e in sorted(full & x)
                               for n in instance.edge_map[e][:2]]
        for size in range(len(full) + 1):
            for sub in combinations(sorted(full), size):
                found = table.cut(jdx, sub)
                if instance.requirement_holds(x - frozenset(sub)):
                    assert found is None, (jdx, sub, sorted(x))
                    continue
                after = components(instance, x - frozenset(sub))
                assert found == len({after[n] for n in sighted}), (jdx, sub, sorted(x))
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


def cuts(table, j, subsets):
    return [table.cut(j, sub) for sub in subsets]


@pytest.mark.parametrize("problem", ["st", "mst"])
def test_parallel_edges_cut_only_together(problem):
    instance = chords(problem)
    # 'st': the two chords alone; 'mst': a spanning tree through chord 4,
    # with chord 5 beside it.
    x = frozenset({4, 5} if problem == "st" else {0, 2, 4, 5})
    table = fresh_table(instance, x)
    assert cuts(table, 0, [(), (4,), (5,), (4, 5)]) == [None, None, None, 2]
    assert table.failures(1) == {}
    assert table.failures(2) == {frozenset({4, 5}): (0, 2)}
    assert assert_cuts_agree(instance, x) == 1


@pytest.mark.parametrize("problem, x", [("st", {1, 2}), ("mst", {0, 2})])
def test_a_bridge_is_cut_alone(problem, x):
    # Triangle edges 0 = 01, 1 = 02, 2 = 21.  X is a path through edge 2,
    # so removing that bridge leaves two components.
    instance = triangle_instance(problem, ((1,), (2,)))
    table = fresh_table(instance, x)
    assert cuts(table, 1, [(), (2,)]) == [None, 2]
    assert_failures_agree(instance, table, range(instance.k + 1))
    assert assert_cuts_agree(instance, x) == (2 if problem == "st" else 1)


def test_st_with_s_and_t_apart_in_x():
    instance = triangle_instance("st", ((0,), (2,)))    # s = 0, t = 1
    table = fresh_table(instance, {2})
    # No S joins them: the count is s's and t's components, and for S = {2}
    # node 2's as well.
    assert cuts(table, 0, [(), (0,)]) == [2, 2]
    assert cuts(table, 1, [(), (2,)]) == [2, 3]
    assert table.failures(0) == {frozenset(): (0, 2)}
    assert assert_cuts_agree(instance, {2}) == 2


def test_mst_on_a_non_spanning_x():
    instance = triangle_instance("mst", ((0,), (1,)))
    table = fresh_table(instance, {0})      # node 2 is left out
    # Scenario 0 holds X's edge, scenario 1 no X edge: nothing to count.
    assert cuts(table, 0, [(), (0,)]) == [1, 2]
    assert cuts(table, 1, [(), (1,)]) == [0, 0]
    assert table.failures(1) == {frozenset({0}): (0, 2), frozenset(): (1, 0)}
    assert assert_cuts_agree(instance, {0}) == 2


@pytest.mark.parametrize("problem", ["st", "mst"])
def test_x_with_no_scenario_edge(problem):
    instance = triangle_instance(problem, ((0,),))
    table = fresh_table(instance, {1, 2})   # the path 0-2-1 around edge 0
    assert cuts(table, 0, [(), (0,)]) == [None, None]
    assert all(table.failures(size) == {} for size in range(2))
    assert assert_cuts_agree(instance, {1, 2}) == 0
    # One edge of it: 'st' loses t (and 'mst' node 1) whatever is removed.
    table = fresh_table(instance, {1})
    assert cuts(table, 0, [(), (0,)]) == ([2, 2] if problem == "st" else [0, 0])
    assert assert_cuts_agree(instance, {1}) == 1


def test_multigraphs_agree_on_every_solution():
    for instance in MULTIGRAPHS:
        for size in range(len(instance.edge_ids) + 1):
            for x in combinations(sorted(instance.edge_ids), size):
                assert_agrees(instance, x)
                assert_cuts_agree(instance, x)


@st.composite
def instance_and_solution(draw, pool=INSTANCES):
    instance = draw(st.sampled_from(pool))
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
    assert_failures_agree(instance, fresh_table(instance, frozenset(x)), sizes)


@settings(max_examples=100, deadline=None)
@given(instance_and_solution(INSTANCES + [TREE_GRID]))
def test_cuts_agree_on_random_solutions(case):
    instance, x, _ = case
    assert_cuts_agree(instance, x)


def answers(instance, table):
    """Everything a table answers: `cut` for every S within every
    scenario, and `failures` at every size, in order."""
    found = []
    for jdx, full in enumerate(instance.scenario_sets):
        subsets = [sub for size in range(len(full) + 1)
                   for sub in combinations(sorted(full), size)]
        found.append([table.cut(jdx, sub) for sub in subsets])
    found.append([list(table.failures(size).items()) for size in range(instance.k + 1)])
    return found


def test_instance_tables_equal_fresh_ones():
    """Each level's table from `instance.feasibility`, whichever table the
    instance kept before (the final X's or the empty X's), is the table of
    that X: it answers as a fresh one, and its failures are those of the
    definition."""
    levels = 0
    for instance in INSTANCES + [TREE_GRID]:
        solutions = list(dict.fromkeys(level_solutions(instance)))
        levels += len(solutions) - 1
        for start in (solutions[-1], frozenset()):
            instance.feasibility(start)
            for x in solutions:
                table = instance.feasibility(x)
                assert table.x == x
                found = answers(instance, table)
                assert found == answers(instance, fresh_table(instance, x))
                assert [[(sub, jdx) for sub, (jdx, _) in items] for items in found[-1]] == [
                    list(failures_by_definition(instance, x, size).items())
                    for size in range(instance.k + 1)]
    assert levels > 20


def test_a_held_table_survives_growth():
    instance = HVC
    base, *_, final = level_solutions(instance)
    assert base < final
    held = instance.feasibility(base)
    before = answers(instance, held)
    assert before == answers(instance, fresh_table(instance, base))
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
    table = fresh_table(HVC, base)
    found = table.failures(1)
    assert found and calls
    calls.clear()
    assert table.failures(1) is found and calls == []
    table = fresh_table(HVC, final)
    assert table.failures(HVC.k) == {}
    assert calls
    calls.clear()
    for size in range(HVC.k, -1, -1):
        assert table.failures(size) == {}
    assert calls == []


@pytest.mark.parametrize("scenarios, first", [
    (((0, 2, 4), (0, 1, 2), (0, 2)), {2: 0, 3: 0}),
    (((0, 1, 2), (0, 2, 4), (0, 2)), {2: 0, 3: 1}),
])
def test_failures_keeps_the_first_scenario_of_a_shared_live_set(scenarios, first):
    # X is the square cycle, so F & X drops the chord 4: (0, 2, 4) and (0, 2)
    # both leave (0, 2), and a live set no larger than the size is its own one
    # subset.  At size 2, (0, 1, 2) lists (0, 2) among its combinations; at
    # size 3 its one subset is itself.  Removing (0, 2) cuts s = 0 from
    # t = 2, and the first scenario whose subsets hold it is kept.
    instance = chords("st", scenarios)
    x = frozenset({0, 1, 2, 3})
    assert_failures_agree(instance, fresh_table(instance, x), range(instance.k + 2))
    assert_failures_agree(instance, fresh_table(instance, x), range(instance.k + 1, -1, -1))
    for size, jdx in first.items():
        assert fresh_table(instance, x).failures(size)[frozenset({0, 2})][0] == jdx, size


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
