"""LP solving, the min-cut separation oracle, and the link LP."""

import itertools
import random

import numpy as np
import pytest

from bulkrobust import (FractionalCover, InfeasibleError, LinearProgram,
                        enumerate_typed_links, failure_components,
                        gen_hypergraph_vc, max_flow_min_cut, preprocess_step,
                        separation_oracle, simplex_min, solve, solve_link_lp)
from bulkrobust import lp as lp_module
from bulkrobust.lp import _PIVOT_EPS, _STALL_LIMIT, EPS_FEAS, SimplexResult
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


# -- reference: the row-by-row simplex the vectorised one must reproduce ------

def _reference_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 1e-14:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _reference_run(tableau, basis, ncols, bland):
    stall = 0
    last = tableau[-1, -1]
    while True:
        obj = tableau[-1, :ncols]
        if stall < _STALL_LIMIT:
            col = int(np.argmin(obj))
            if obj[col] >= -_PIVOT_EPS:
                return "optimal"
        else:
            negatives = np.nonzero(obj < -_PIVOT_EPS)[0]
            if negatives.size == 0:
                return "optimal"
            col = int(negatives[0])
            bland.append(col)
        column = tableau[:-1, col]
        rhs = tableau[:-1, -1]
        ratios = [(rhs[r] / column[r], basis[r], r)
                  for r in range(len(basis)) if column[r] > _PIVOT_EPS]
        if not ratios:
            return "unbounded"
        _, _, row = min(ratios)
        _reference_pivot(tableau, basis, row, col)
        now = tableau[-1, -1]
        stall = stall + 1 if now >= last - 1e-12 else 0
        last = now


def _reference_simplex_min(lp, bland):
    """Two-phase simplex with one artificial column per b > 0 row, a
    per-row pivot loop and a tuple ratio test; appends every column that
    Bland's rule picks to `bland`."""
    n = lp.objective.shape[0]
    m = len(lp.rows)
    n_art = sum(b > 0 for _, b in lp.rows)
    tableau = np.zeros((m + 1, n + m + n_art + 1))
    basis = [0] * m
    art_col = n + m
    for r, (a, b) in enumerate(lp.rows):
        if b <= 0:
            tableau[r, :n] = -a
            tableau[r, n + r] = 1.0
            tableau[r, -1] = -b
            basis[r] = n + r
        else:
            tableau[r, :n] = a
            tableau[r, n + r] = -1.0
            tableau[r, art_col] = 1.0
            tableau[r, -1] = b
            basis[r] = art_col
            art_col += 1
    if n_art:
        for r in range(m):
            if basis[r] >= n + m:
                tableau[-1] -= tableau[r]
        assert _reference_run(tableau, basis, n + m, bland) == "optimal"
        if -tableau[-1, -1] > EPS_FEAS:
            return SimplexResult("infeasible")
        for r in range(m):
            if basis[r] >= n + m:
                pivots = np.nonzero(np.abs(tableau[r, :n + m]) > _PIVOT_EPS)[0]
                if pivots.size:
                    _reference_pivot(tableau, basis, r, int(pivots[0]))
    tableau[-1, :] = 0.0
    tableau[-1, :n] = lp.objective
    for r in range(m):
        if basis[r] < n + m and abs(tableau[-1, basis[r]]) > 1e-14:
            tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    if _reference_run(tableau, basis, n + m, bland) == "unbounded":
        return SimplexResult("unbounded")
    x = np.zeros(n)
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r, -1]
    return SimplexResult("optimal", float(lp.objective @ x), x,
                         tableau[-1, n:n + m].copy())


def _assert_same_as_reference(lp, bland):
    """Same status, value, x and duals as the reference, float for float
    (array_equal, so a zero may differ only in its sign)."""
    got = simplex_min(lp)
    want = _reference_simplex_min(lp, bland)
    assert got.status == want.status
    assert got.value == want.value
    for field in ("x", "duals"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b)
    return got.status


def _random_covering_rows(rng, n, m, density):
    rows = []
    for _ in range(m):
        a = np.array([1.0 if rng.random() < density else 0.0 for _ in range(n)])
        if not a.any():
            a[rng.randrange(n)] = 1.0
        rows.append((a, 1.0))
    return rows


def test_simplex_matches_reference_on_degenerate_covering_lps():
    # unit and near-unit costs make these LPs degenerate enough that the
    # Dantzig rule stalls and Bland's rule takes over
    rng = random.Random(11)
    reached_bland = 0
    for trial in range(40):
        n, m = rng.randint(10, 40), rng.randint(15, 60)
        c = np.array([rng.randint(1, 1 + trial % 3) for _ in range(n)], float)
        bland = []
        rows = _random_covering_rows(rng, n, m, rng.uniform(0.08, 0.25))
        assert _assert_same_as_reference(LinearProgram(c, rows), bland) == "optimal"
        reached_bland += bool(bland)
    assert reached_bland >= 20


def test_simplex_matches_reference_with_slack_rows():
    # -x_i >= -1 rows (b <= 0) start with a basic slack, not an artificial
    rng = random.Random(12)
    for _ in range(40):
        n, m = rng.randint(2, 20), rng.randint(1, 25)
        c = np.array([rng.randint(0, 5) for _ in range(n)], float)
        rows = _random_covering_rows(rng, n, m, 0.3)
        rows += [(-np.eye(n)[i], -1.0) for i in range(n)]
        rng.shuffle(rows)
        assert _assert_same_as_reference(LinearProgram(c, rows), []) == "optimal"


def test_simplex_matches_reference_on_infeasible_and_unbounded():
    rng = random.Random(13)
    statuses = []
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        c = np.array([rng.randint(-3, 6) for _ in range(n)], float)
        rows = [(np.array([rng.randint(-3, 5) for _ in range(n)], float),
                 float(rng.randint(-4, 6))) for _ in range(m)]
        statuses.append(_assert_same_as_reference(LinearProgram(c, rows), []))
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses)


def test_simplex_matches_reference_on_hypergraph_lp_levels(monkeypatch):
    programs = []

    def record(lp):
        programs.append(lp)
        return simplex_min(lp)

    monkeypatch.setattr(lp_module, "simplex_min", record)
    solve(gen_hypergraph_vc(3, 3, 12, 5)[1])
    assert programs
    for lp in programs:
        assert _assert_same_as_reference(lp, []) == "optimal"


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
    cut = failure_components(ctx, {0, 2})
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
