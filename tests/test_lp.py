"""LP solving, the min-cut separation oracle, and the link LP."""

import itertools
import random

import numpy as np
import pytest

from bulkrobust import (FractionalCover, InfeasibleError, LinearProgram,
                        enumerate_typed_links, gen_hypergraph_vc,
                        max_flow_min_cut, preprocess_step, separation_oracle,
                        simplex_min, solve, solve_link_lp)
from conftest import (build_suite_instance, square_with_chords, suite_schedule,
                      triangle_instance)


def test_simplex_single_variable():
    res = simplex_min(LinearProgram([1.0], [([1.0], 1.0)]))
    assert res.status == "optimal"
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.x[0] - 1.0) < 1e-9


def test_simplex_two_variables():
    res = simplex_min(LinearProgram([1.0, 1.0], [([1.0, 1.0], 1.0)]))
    assert res.status == "optimal"
    assert abs(res.value - 1.0) < 1e-9


def test_simplex_infeasible():
    res = simplex_min(LinearProgram([1.0], [([1.0], 1.0), ([-1.0], 0.0)]))
    assert res.status == "infeasible"


def test_simplex_unbounded():
    res = simplex_min(LinearProgram([-1.0], [([1.0], 1.0)]))
    assert res.status == "unbounded"


def _vertex_enumeration_min(c, rows):
    """Independent reference: scan every basic point of the polyhedron."""
    n = len(c)
    cons = [(np.asarray(a, float), float(b)) for a, b in rows]
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        cons.append((unit, 0.0))
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        A = np.array([cons[i][0] for i in combo])
        b = np.array([cons[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        if all(a @ x >= bb - 1e-7 for a, bb in cons):
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


def test_simplex_matches_vertex_enumeration():
    rng = random.Random(7)
    agreed = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        m = rng.randint(1, 8)
        c = np.array([rng.randint(1, 9) for _ in range(n)], float)
        rows = [(np.array([rng.randint(-3, 5) for _ in range(n)], float),
                 float(rng.randint(-4, 6))) for _ in range(m)]
        expect = _vertex_enumeration_min(c, rows)
        got = simplex_min(LinearProgram(c, rows))
        if expect is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert abs(got.value - expect) < 1e-6
        agreed += 1
    assert agreed == 80


def test_max_flow_square():
    arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    value, side = max_flow_min_cut(arcs, 0, 2)
    assert abs(value - 2.0) < 1e-9
    assert 0 in side and 2 not in side


def _square_ctx():
    sq = square_with_chords(inner=True, outer=False)
    return preprocess_step(sq, {0, 1, 2, 3}, 2)


def test_oracle_finds_violating_set():
    ctx = _square_ctx()
    links = enumerate_typed_links(ctx)
    cover = FractionalCover(links, np.zeros(len(links)))
    res = separation_oracle(ctx, cover, 0)
    assert res.violating == frozenset({0, 2})
    assert abs(res.cut_value - 2.0) < 1e-9


def test_oracle_feasible_with_unit_link():
    ctx = _square_ctx()
    links = enumerate_typed_links(ctx)
    assert links  # the chord gives one typed link across the cut
    cover = FractionalCover(links, np.ones(len(links)))
    res = separation_oracle(ctx, cover, 0)
    assert res.violating is None
    assert res.cut_value >= 3.0 - 1e-9


def test_oracle_triangle_level1():
    tri = triangle_instance()
    ctx = preprocess_step(tri, {0}, 1)
    links = enumerate_typed_links(ctx)
    cover = FractionalCover(links, np.zeros(len(links)))
    res = separation_oracle(ctx, cover, 0)
    assert res.violating == frozenset({0})
    assert abs(res.cut_value - 1.0) < 1e-9


def test_solve_link_lp_triangle():
    tri = triangle_instance()
    ctx = preprocess_step(tri, {0}, 1)
    links = enumerate_typed_links(ctx)
    cover = solve_link_lp(ctx, links)
    assert abs(cover.objective - 2.0) < 1e-7
    assert abs(float(cover.values[0]) - 1.0) < 1e-7


def test_solve_link_lp_mass_may_split():
    # equal-cost chords inside and outside: any convex split is optimal,
    # the objective always equals the single chord cost
    sq = square_with_chords(inner=True, outer=True, chord_weight=4)
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    links = enumerate_typed_links(ctx)
    assert len(links) == 2
    assert {link.face for link in links} == {0, 1}
    cover = solve_link_lp(ctx, links)
    assert abs(cover.objective - 4.0) < 1e-7
    assert abs(float(cover.values.sum()) - 1.0) < 1e-6


def test_solve_link_lp_lower_bounds_integral_covers():
    sq = square_with_chords(inner=True, outer=True, chord_weight=3)
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    links = enumerate_typed_links(ctx)
    cover = solve_link_lp(ctx, links)
    # every single-link integral cover costs >= the LP optimum
    from bulkrobust import covers
    cut = ctx.cuts[frozenset({0, 2})]
    for link in links:
        if covers(link, cut):
            assert cover.objective <= link.cost + 1e-7


def test_solve_link_lp_infeasible_without_links():
    from conftest import square_cycle
    sq = square_cycle(scenarios=((0, 2),), precheck=False)
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    with pytest.raises(InfeasibleError):
        solve_link_lp(ctx, ())


def test_upper_bounds_do_not_change_value():
    # covering LPs with nonnegative costs always have an optimum in [0,1]
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        c = np.array([rng.randint(0, 6) for _ in range(n)], float)
        rows = []
        for _ in range(m):
            support = [i for i in range(n) if rng.random() < 0.6] or [rng.randrange(n)]
            a = np.zeros(n)
            a[support] = 1.0
            rows.append((a, 1.0))
        free = simplex_min(LinearProgram(c, rows))
        capped_rows = list(rows)
        for i in range(n):
            a = np.zeros(n)
            a[i] = -1.0
            capped_rows.append((a, -1.0))
        capped = simplex_min(LinearProgram(c, capped_rows))
        assert free.status == capped.status == "optimal"
        assert abs(free.value - capped.value) < 1e-6


def test_duals_certify_the_value():
    # covering LPs with and without -x_i >= -1 rows, and general LPs: the
    # duals are dual feasible and reach the primal value
    rng = random.Random(5)
    checked = 0
    for trial in range(150):
        n = rng.randint(1, 6)
        c = np.array([rng.randint(0, 6) for _ in range(n)], float)
        if trial % 3 == 2:
            rows = [(np.array([rng.randint(-3, 5) for _ in range(n)], float),
                     float(rng.randint(-4, 6))) for _ in range(rng.randint(1, 8))]
        else:
            rows = []
            for _ in range(rng.randint(1, 5)):
                support = [i for i in range(n) if rng.random() < 0.6] or [rng.randrange(n)]
                a = np.zeros(n)
                a[support] = 1.0
                rows.append((a, 1.0))
            if trial % 3 == 1:
                rows += [(-np.eye(n)[i], -1.0) for i in range(n)]
        res = simplex_min(LinearProgram(c, rows))
        if trial % 3 != 2:
            assert res.status == "optimal"
        if res.status != "optimal":
            continue
        a = np.array([row for row, _ in rows])
        b = np.array([bound for _, bound in rows])
        y = res.duals
        assert y.shape == (len(rows),)
        assert (y >= -1e-9).all()
        assert (a.T @ y <= c + 1e-9).all()
        assert abs(float(b @ y) - res.value) < 1e-9
        checked += 1
    assert checked > 110


@pytest.fixture(scope="module")
def lp_levels():
    """(ctx, links, cover) of every link LP in the first 40 suite solves
    and one hypergraph vertex-cover solve."""
    found = []
    instances = [build_suite_instance(p) for p in suite_schedule(40)]
    instances.append(gen_hypergraph_vc(3, 3, 12, 5)[1])
    for instance in instances:
        solve(instance, on_lp=lambda level, ctx, links, cover:
              found.append((ctx, links, cover)))
    return found


def test_lp_solution_passes_the_separation_oracle(lp_levels):
    checked = 0
    for ctx, _, cover in lp_levels:
        for j, full in enumerate(ctx.instance.scenario_sets):
            if len(full) >= ctx.level:
                assert separation_oracle(ctx, cover, j).violating is None
                checked += 1
    assert checked > 0


def test_lp_value_matches_highs(lp_levels):
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert lp_levels
    for ctx, links, cover in lp_levels:
        rows = sorted(set(ctx.covering(links).values()))
        a = np.zeros((len(rows), len(links)))
        for r, row in enumerate(rows):
            a[r, list(row)] = 1.0
        res = linprog([link.cost for link in links], A_ub=-a,
                      b_ub=-np.ones(len(rows)), bounds=(0, None), method="highs")
        assert res.status == 0
        assert abs(res.fun - cover.objective) < 1e-7
