"""End-to-end solving and per-level bookkeeping."""

from itertools import combinations

import pytest

from bulkrobust import (Instance, InvariantError, brute_force_opt, gen_grid,
                        gen_hypergraph_vc, gen_series_parallel, guarantee_factor, is_feasible,
                        serialize_instance, solve)
from bulkrobust.driver import LevelTrace, augment_step, solution_dict
from bulkrobust.generators import Hypergraph, reduce_hypergraph_vc
from conftest import (TREE_GRIDS, build_suite_instance, square_with_chords, suite_schedule,
                      triangle_instance)


def test_triangle_end_to_end():
    tri = triangle_instance()
    x, trace = solve(tri)
    assert trace.base_edges == (0,)
    assert x == frozenset({0, 1, 2})
    assert trace.alg_cost == 3
    opt, _ = brute_force_opt(tri)
    assert opt == 2
    ratio = trace.alg_cost / opt
    assert ratio == 1.5
    assert ratio <= guarantee_factor(tri.k) == 17


def test_solve_still_checks_each_level(monkeypatch):
    import bulkrobust.driver as driver_mod

    def add_nothing(instance, x_edges, level, on_lp=None):
        return frozenset(), LevelTrace(level=level, omega_size=0)

    monkeypatch.setattr(driver_mod, "augment_step", add_nothing)
    with pytest.raises(InvariantError, match=r"^after level 1, removing \[0\] of "
                       r"scenario 0 still disconnects the requirement$"):
        solve(triangle_instance())


def test_empty_scenarios_returns_base():
    tri = triangle_instance(scenarios=())
    x, trace = solve(tri)
    assert x == frozenset({0})
    assert trace.k == 0 and trace.levels == []


def test_final_check_reads_the_last_table(monkeypatch):
    # The check that X meets the base requirement reads the final table's
    # `holds`, which the last level's check built: no union-find of its own.
    import bulkrobust.instance as instance_mod

    instances = [triangle_instance(), triangle_instance("mst"),
                 gen_grid(3, 4, 3, 2, 1, 1), gen_grid(3, 4, 3, 2, 1, 1, "mst")]
    calls = []
    for owner, name in [(instance_mod, "requirement_met"),
                        (instance_mod.Instance, "requirement_holds")]:
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _original=original, _name=name:
                            calls.append(_name) or _original(*args))
    for inst in instances:
        assert inst.k >= 1
        x, trace = solve(inst)
        assert inst.feasibility(x).holds and trace.levels
    assert calls == []
    instances[0].requirement_holds({0})     # the counters are live
    assert calls == ["requirement_holds", "requirement_met"]


@pytest.mark.parametrize("problem, step, broken", [
    ("st", "shortest_st_path", frozenset({1})),
    ("st", "shortest_st_path", frozenset()),
    ("mst", "minimum_spanning_tree", frozenset({0}))], ids=["st-apart", "st-empty", "mst"])
def test_broken_base_fails_the_final_check(problem, step, broken, monkeypatch):
    # With k = 0 no level runs, and the base solution's table answers.
    import bulkrobust.driver as driver_mod

    monkeypatch.setattr(driver_mod, step, lambda instance: broken)
    tri = triangle_instance(problem, scenarios=())
    assert tri.k == 0
    with pytest.raises(InvariantError, match="^final solution fails the base requirement$"):
        solve(tri)


def test_augment_step_triangle():
    tri = triangle_instance()
    added, level = augment_step(tri, {0}, 1)
    assert added == frozenset({1, 2})
    assert level.omega_size == 1


def test_augment_step_square_chord():
    sq = square_with_chords(inner=True, outer=False)
    added, level = augment_step(sq, frozenset({0, 1, 2, 3}), 2)
    assert added == frozenset({4})
    assert level.lp_value is not None
    assert level.round_cost <= level.bound + 1e-6


def test_augment_step_no_relevant_scenarios():
    sq = square_with_chords(inner=True, outer=False, scenarios=((0,),))
    added, level = augment_step(sq, frozenset({0, 1, 2, 3}), 1)
    assert added == frozenset()
    assert level.omega_size == 0


def test_hypergraph_reduction_drives_full_pipeline():
    h = Hypergraph(((0,), (1,)), ((0, 1),))
    inst = reduce_hypergraph_vc(h)
    x, trace = solve(inst)
    assert is_feasible(inst, x)
    opt, _ = brute_force_opt(inst)
    assert opt == 1
    assert trace.alg_cost >= opt


def test_tree_augmentation_level1():
    # spanning-tree problem: the failing tree edge forces the third edge in
    tri = triangle_instance(problem="mst", scenarios=((0,),))
    x, trace = solve(tri)
    assert frozenset(trace.base_edges) == frozenset({0, 1})
    assert x == frozenset({0, 1, 2})


def test_mst_level2_uses_global_cuts():
    from bulkrobust import Instance
    inst = Instance(4, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1),
                        (3, 3, 0, 1), (4, 0, 2, 4), (5, 0, 2, 6)],
                    {0: [0, 4, 3, 5], 1: [1, 0], 2: [5, 2, 4, 1], 3: [3, 2]},
                    "mst", scenarios=((0, 2),))
    x4 = frozenset({0, 1, 2, 3})
    added, level = augment_step(inst, x4, 2)
    assert added == frozenset({4})   # the cheaper chord
    assert level.lp_value == 4.0


def test_monotone_feasibility_over_levels():
    for seed in (3, 8, 13):
        inst = gen_grid(3, 3, 3, 3, 3, seed=seed)
        x, trace = solve(inst)
        running = frozenset(trace.base_edges)
        for level_trace in trace.levels:
            running |= frozenset(level_trace.added)
            for full in inst.scenario_sets:
                size = min(level_trace.level, len(full))
                for sub in combinations(sorted(full), size):
                    assert inst.requirement_holds(running - frozenset(sub))
        assert running == x


def test_every_level_engages_on_nested_parallel_edges():
    # five parallel s-t edges with one size-4 scenario: each level finds a
    # fresh relevant failure set and adds exactly the next-cheapest edge,
    # so levels 2..4 all run the LP and the face rounding
    from bulkrobust import Instance
    onion = Instance(2,
                     [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3),
                      (3, 0, 1, 4), (4, 0, 1, 5)],
                     {0: [0, 1, 2, 3, 4], 1: [4, 3, 2, 1, 0]},
                     "st", 0, 1, [(0, 1, 2, 3)])
    x, trace = solve(onion)
    assert x == frozenset(range(5))
    assert trace.alg_cost == 15
    assert [lv.level for lv in trace.levels] == [1, 2, 3, 4]
    assert all(lv.omega_size == 1 for lv in trace.levels)
    assert [lv.lp_value for lv in trace.levels] == [None, 3.0, 4.0, 5.0]
    opt, witness = brute_force_opt(onion)
    assert opt == 5 and witness == frozenset({4})


def test_determinism_full_solve():
    inst = gen_series_parallel(3, 3, 3, 4, seed=21)
    text = serialize_instance(inst)
    a = solution_dict(inst, *solve(inst))
    again = solution_dict(inst, *solve(inst))
    assert a == again
    assert serialize_instance(inst) == text


def test_cost_decomposition():
    inst = gen_grid(3, 4, 3, 2, 4, seed=2, problem="mst")
    x, trace = solve(inst)
    assert trace.alg_cost == trace.base_cost + sum(
        lv.added_cost for lv in trace.levels)
    assert trace.alg_cost == inst.weight_of(x)
    assert trace.guarantee_factor == guarantee_factor(inst.k)


def spread_ids(inst, label):
    """The instance with every edge id e renamed `label(e)`."""
    rename = lambda ids: [label(e) for e in ids]
    return Instance(inst.node_count, [(label(e), u, v, w) for e, u, v, w in inst.edges],
                    {n: rename(rot) for n, rot in inst.rotation.items()}, inst.problem,
                    inst.s, inst.t, [rename(sc) for sc in inst.scenarios])


def solve_summary(inst, label=lambda e: e):
    """What a solve decides, with every edge id it names renamed `label(e)`:
    X and its cost; per level the added edges, |omega| and the LP value; per
    face its chosen links, their cost and its demand scenarios."""
    x, trace = solve(inst)
    rename = lambda ids: sorted(map(label, ids))
    return (rename(x), trace.alg_cost,
            [(lv.level, rename(lv.added), lv.omega_size, lv.lp_value,
              [(face["face"], face["chosen"], face["cost"],
                [rename(d["scenario"]) for d in face["demands"]]) for face in lv.faces])
             for lv in trace.levels])


def test_sparse_edge_ids_solve_as_dense_ones():
    # The format allows any distinct ids, but the generators number edges
    # 0..m-1.  An increasing relabel with gaps keeps every order the solve
    # reads ids in, so it must decide the same, renamed: suite grids and
    # series-parallel graphs (st and mst), spanning-tree grids and
    # vertex-cover reductions, whose levels run the link LP.
    label = lambda e: 7 * e + 3
    instances = ([build_suite_instance(p) for p in suite_schedule(150)[::3]] + TREE_GRIDS[:5]
                 + [gen_hypergraph_vc(*shape)[1] for shape in
                    ((2, 2, 3, 5), (3, 3, 10, 5), (3, 4, 12, 9), (2, 3, 6, 1), (3, 3, 8, 2))])
    levels = set()
    for inst in instances:
        want = solve_summary(inst, label)
        assert solve_summary(spread_ids(inst, label)) == want
        levels.update(level for level, *_ in want[2])
    assert levels == {1, 2, 3, 4}
