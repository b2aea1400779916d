"""LP solving, the min-cut separation oracle, and the link LP."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import (InfeasibleError, Instance, InvariantError, gen_hypergraph_vc,
                        solve)
from bulkrobust import lp as lp_module
from bulkrobust import setcover
from bulkrobust.links import enumerate_typed_links, preprocess_step
from bulkrobust.lp import (_PIVOT_EPS, FractionalCover, LinearProgram, covering_matrix,
                           lp_to_text, max_flow_min_cut, separation_oracle, simplex_min,
                           solve_link_lp)
from conftest import (TABLEAU_FORMS, TREE_GRIDS, build_suite_instance, covers_of, crosses,
                      reference_cuts, square_with_chords, suite_schedule, tableau_forms,
                      triangle_instance)


def dense_program(c, a):
    """The LinearProgram of costs c and a dense 0/1 matrix a."""
    return LinearProgram(c, covers_of(a))


def test_simplex_single_variable():
    res = simplex_min(LinearProgram([1.0], [(0,)]))
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.x[0] - 1.0) < 1e-9
    assert abs(res.duals[0] - 1.0) < 1e-9


def test_simplex_two_variables():
    res = simplex_min(LinearProgram([1.0, 1.0], [(0, 1)]))
    assert abs(res.value - 1.0) < 1e-9


def test_simplex_without_rows_is_zero():
    res = simplex_min(LinearProgram([1.0, 2.0], []))
    assert res.value == 0.0
    assert list(res.x) == [0.0, 0.0] and res.duals.shape == (0,)


def test_simplex_infeasible():
    # An infeasible program, a row no column covers, is not a covering LP:
    # it is refused up front.
    with pytest.raises(ValueError):
        LinearProgram([1.0], [(0,), ()])


def test_simplex_unbounded():
    # Only a negative cost makes a covering LP unbounded; it is refused.
    with pytest.raises(ValueError):
        LinearProgram([-1.0], [(0,)])


@pytest.mark.parametrize("costs, rows", [
    ([1.0, 1.0], [(0, 2)]),                     # column out of range
    ([1.0, 1.0], [(0, 0.5)]),                   # index not an int
    ([1.0, 1.0], [(0, np.nan)]),
    ([1.0, -1.0], [(0, 1)]),                    # negative cost
    ([1.0, np.inf], [(0, 1)]),                  # non-finite cost
    ([1.0, np.nan], [(0, 1)]),
    ([1.0, 1.0], [(0,), ()]),                   # empty row
    ([1.0, 1.0], [(0, 1, 2)]),                  # more columns than costs
    ([1.0, 1.0], [(0.0, 1.0)]),                 # float indices
    ([1.0, 1.0], [(True, 0)]),                  # bool index
    ([1.0, 1.0], [(0, 0)]),                     # repeated index
    ([1.0, 1.0], [(-1, 0)]),                    # negative index
])
def test_linear_program_accepts_covering_input_only(costs, rows):
    with pytest.raises(ValueError):
        LinearProgram(costs, rows)


def test_lp_to_text_bytes():
    # The format `solve --lp-dump` writes.
    lp = LinearProgram([1, 2], [(0,), (0, 1)])
    assert lp_to_text(lp) == "min 1.0 2.0\n1.0 0.0 >= 1.0\n1.0 1.0 >= 1.0\nx >= 0\n"


def test_linear_program_builds_its_arrays_when_read():
    lp = LinearProgram([1, 2, 0], [(2, 0), (1,)])
    assert lp.costs == (1.0, 2.0, 0.0) and "matrix" not in vars(lp)
    assert lp.objective.tobytes() == np.array([1.0, 2.0, 0.0]).tobytes()
    assert lp.matrix.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert [b for _, b in lp.rows] == [1.0, 1.0]


def test_uncertified_solution_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(lp_module, "EPS_FEAS", -1.0)
    for _ in tableau_forms(monkeypatch):
        with pytest.raises(InvariantError, match="not certified"):
            simplex_min(LinearProgram([1.0, 2.0], [(0, 1)]))


# (costs, covers, x, y) where exactly one certificate condition fails.
@pytest.mark.parametrize("costs, covers, x, y", [
    ([1.0, 2.0], [(0, 1)], [1.5, -0.25], [1.0]),          # x below 0
    ([1.0, 2.0], [(0, 1)], [0.5, 0.0], [0.5]),            # a row covered by half
    ([1.0, 1.0], [(0, 1), (0, 1)], [1.0, 0.0], [1.5, -0.5]),   # y below 0
    ([1.0], [(0,)], [2.0], [2.0]),                        # a column loaded past its cost
    ([1.0, 2.0], [(0, 1)], [1.0, 0.0], [0.5]),            # c.x above 1.y
], ids=["x", "row", "y", "load", "gap"])
def test_each_certificate_condition_is_checked(costs, covers, x, y, monkeypatch):
    # Each tableau form's solve returns the doctored pair; the certificate
    # must refuse it in both.
    monkeypatch.setattr(lp_module, "_list_simplex", lambda c, rows: (list(x), list(y)))
    monkeypatch.setattr(lp_module, "_array_simplex", lambda c, a: (np.array(x), np.array(y)))
    for _ in tableau_forms(monkeypatch):
        with pytest.raises(InvariantError, match="not certified"):
            simplex_min(LinearProgram(costs, covers))


def test_unbounded_packing_dual_raises_invariant_error(monkeypatch):
    forms = []
    for form in tableau_forms(monkeypatch):
        lp = LinearProgram([1.0], [(0,)])
        lp.covers = ((),)       # past the constructor's check
        with pytest.raises(InvariantError, match="unbounded"):
            simplex_min(lp)
        forms.append(form)
    assert forms == list(TABLEAU_FORMS)


def test_simplex_keeps_small_values_next_to_large_costs():
    res = simplex_min(LinearProgram([1.0, 1e13], [(0, 1)]))
    assert res.value == 1.0
    assert list(res.x) == [1.0, 0.0] and list(res.duals) == [1.0]


def test_simplex_matches_highs_on_mixed_scale_costs():
    # Costs from 0 to 2**53 side by side, as edge weights may have them.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(3)
    for _ in range(200):
        n, m = rng.randint(1, 30), rng.randint(1, 40)
        c, a = _random_covering_lp(rng, n, m, 0.3)
        for j in range(n):
            if rng.random() < 0.3:
                c[j] = rng.choice([1e6, 1e13, 2.0 ** 52, 2.0 ** 53])
        res = simplex_min(dense_program(c, a))
        highs = linprog(c, A_ub=-a, b_ub=-np.ones(m), bounds=(0, None), method="highs")
        assert highs.status == 0
        assert res.value == pytest.approx(highs.fun, rel=1e-9, abs=1e-9)


def _vertex_enumeration_min(c, a, capped=False):
    """Independent reference: scan every basic point of the polyhedron
    a x >= 1, x >= 0, and x <= 1 when `capped`."""
    n = len(c)
    lhs, rhs = [a, np.eye(n)], [np.ones(len(a)), np.zeros(n)]
    if capped:
        lhs.append(-np.eye(n))
        rhs.append(-np.ones(n))
    lhs, rhs = np.vstack(lhs), np.concatenate(rhs)
    best = None
    for combo in itertools.combinations(range(len(rhs)), n):
        A = lhs[list(combo)]
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, rhs[list(combo)])
        if (lhs @ x >= rhs - 1e-7).all():
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


def _random_covering_lp(rng, n, m, density, cost_max=9):
    """Costs in 0..cost_max (zero-cost columns included) and an m x n matrix
    of nonzero 0/1 rows, some of them duplicated."""
    c = np.array([rng.randint(0, cost_max) for _ in range(n)], float)
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.2:
            rows.append(rng.choice(rows))
            continue
        a = np.array([1.0 if rng.random() < density else 0.0 for _ in range(n)])
        if not a.any():
            a[rng.randrange(n)] = 1.0
        rows.append(a)
    return c, np.array(rows)


def _assert_certified(c, a, res, tol=1e-9):
    """x is primal feasible, y dual feasible, and their values agree."""
    assert res.x.shape == c.shape and res.duals.shape == (len(a),)
    assert (res.x >= -tol).all() and (a @ res.x >= 1 - tol).all()
    assert (res.duals >= -tol).all() and (a.T @ res.duals <= c + tol).all()
    assert abs(float(c @ res.x) - res.value) < tol
    assert abs(float(res.duals.sum()) - res.value) < tol


def test_simplex_matches_vertex_enumeration():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(7)
    shapes = {"zero-cost": 0, "duplicate": 0, "single-row": 0}
    for trial in range(120):
        n = rng.randint(1, 6)
        m = 1 if trial % 4 == 0 else rng.randint(2, 8)
        c, a = _random_covering_lp(rng, n, m, rng.uniform(0.2, 0.7))
        res = simplex_min(dense_program(c, a))
        assert abs(res.value - _vertex_enumeration_min(c, a)) < 1e-6
        highs = linprog(c, A_ub=-a, b_ub=-np.ones(m), bounds=(0, None), method="highs")
        assert highs.status == 0 and abs(res.value - highs.fun) < 1e-6
        _assert_certified(c, a, res)
        shapes["zero-cost"] += bool((c == 0).any())
        shapes["duplicate"] += len({row.tobytes() for row in a}) < m
        shapes["single-row"] += m == 1
    assert min(shapes.values()) >= 20


def test_duals_certify_the_value():
    rng = random.Random(5)
    for trial in range(60):
        n, m = rng.randint(1, 30), rng.randint(1, 40)
        c, a = _random_covering_lp(rng, n, m, rng.uniform(0.05, 0.5),
                                   cost_max=[1, 6, 100][trial % 3])
        _assert_certified(c, a, simplex_min(dense_program(c, a)))


def test_upper_bounds_do_not_change_value():
    # covering LPs with nonnegative costs always have an optimum in [0,1],
    # and the simplex returns a vertex, which has one
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        c, a = _random_covering_lp(rng, n, rng.randint(1, 5), 0.6, cost_max=6)
        free = simplex_min(dense_program(c, a))
        assert (free.x <= 1 + 1e-9).all()
        assert abs(free.value - _vertex_enumeration_min(c, a, capped=True)) < 1e-6


# -- reference: the row-by-row simplex the vectorised one must reproduce ------

def _reference_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0] - 1):
        if r == row:
            continue
        scale = abs(tableau[r, -1])
        if abs(tableau[r, col]) > 1e-14:
            scale = max(scale, abs(tableau[r, col] * tableau[row, -1]))
            tableau[r] -= tableau[r, col] * tableau[row]
        if tableau[r, -1] <= 1e-12 * scale:
            tableau[r, -1] = 0.0
    if abs(tableau[-1, col]) > 1e-14:
        tableau[-1] -= tableau[-1, col] * tableau[row]
    basis[row] = col


def _reference_simplex_min(lp, pivots):
    """The packing dual, max 1.y subject to A^T y <= c and y >= 0, from the
    slack basis, with a per-row pivot loop and a tuple ratio test.  A pivot
    sets a basic value to 0 when it is at most 1e-12 times the larger of the
    two terms it came from, and counts as a stall only if it leaves the
    packing value unchanged.  Appends
    (Dantzig's column, Bland's column, rule used, value rose) per pivot to
    `pivots`; returns (value, x, y)."""
    c = lp.objective
    m, n = lp.matrix.shape
    tableau = np.zeros((n + 1, m + n + 1))
    for r, a in enumerate(lp.matrix):
        for j in range(n):
            tableau[j, r] = a[j]
    for j in range(n):
        tableau[j, m + j] = 1.0
        tableau[j, -1] = c[j]
    tableau[-1, :m] = -1.0
    basis = [m + j for j in range(n)]
    stall = 0
    while True:
        obj = tableau[-1, :-1]
        negatives = np.nonzero(obj < -_PIVOT_EPS)[0]
        if negatives.size == 0:
            break
        dantzig, bland = int(np.argmin(obj)), int(negatives[0])
        rule = "dantzig" if stall < lp_module._STALL_LIMIT else "bland"
        col = dantzig if rule == "dantzig" else bland
        column = tableau[:-1, col]
        rhs = tableau[:-1, -1]
        _, _, row = min((rhs[r] / column[r], basis[r], r)
                        for r in range(n) if column[r] > _PIVOT_EPS)
        last = tableau[-1, -1]
        _reference_pivot(tableau, basis, row, col)
        rose = tableau[-1, -1] > last + 1e-12
        stall = 0 if rose else stall + 1
        pivots.append((dantzig, bland, rule, rose))
    x = tableau[-1, m:-1].copy()
    y = np.zeros(m)
    for r, b in enumerate(basis):
        if b < m:
            y[b] = tableau[r, -1]
    return float(c @ x), x, y


def _assert_same_as_reference(lp, pivots, monkeypatch):
    """In both tableau forms, the same value, x and y as the reference,
    float for float (array_equal, so a zero may differ only in its sign)."""
    value, x, y = _reference_simplex_min(lp, pivots)
    for _ in tableau_forms(monkeypatch):
        got = simplex_min(lp)
        assert got.value == value
        assert np.array_equal(got.x, x) and np.array_equal(got.duals, y)


def test_simplex_matches_reference_on_degenerate_covering_lps(monkeypatch):
    # A few zero-cost columns among unit and near-unit costs make these LPs
    # degenerate enough that Dantzig's rule stalls and Bland's rule takes over
    rng = random.Random(11)
    reached_bland = 0
    for _ in range(40):
        n, m = rng.randint(60, 90), rng.randint(80, 120)
        c = np.array([0 if rng.random() < 0.1 else rng.randint(1, 2)
                      for _ in range(n)], float)
        _, a = _random_covering_lp(rng, n, m, rng.uniform(0.1, 0.3))
        pivots = []
        _assert_same_as_reference(dense_program(c, a), pivots, monkeypatch)
        reached_bland += any(rule == "bland" for _, _, rule, _ in pivots)
    assert reached_bland >= 10


def test_simplex_matches_reference_past_the_stall_limit(monkeypatch):
    # More than _STALL_LIMIT improving pivots, and a later pivot on which
    # Dantzig's and Bland's rules pick different columns: a stall counter
    # that counted every pivot would switch rules there and differ.
    rng = random.Random(17)
    telling = 0
    for _ in range(20):
        n, m = rng.randint(60, 80), rng.randint(80, 100)
        c, a = _random_covering_lp(rng, n, m, rng.uniform(0.05, 0.15), cost_max=50)
        pivots = []
        _assert_same_as_reference(dense_program(c, a), pivots, monkeypatch)
        telling += sum(rose for *_, rose in pivots) > lp_module._STALL_LIMIT and any(
            dantzig != bland for dantzig, bland, _, _ in pivots[lp_module._STALL_LIMIT:])
    assert telling >= 10


def test_simplex_matches_reference_on_hypergraph_lp_levels(monkeypatch):
    programs = []

    def record(lp):
        programs.append(lp)
        return simplex_min(lp)

    with monkeypatch.context() as recording:
        recording.setattr(lp_module, "simplex_min", record)
        solve(gen_hypergraph_vc(3, 3, 12, 5)[1])
    assert programs
    for lp in programs:
        _assert_same_as_reference(lp, [], monkeypatch)


@st.composite
def covering_programs(draw):
    """(costs, covers) of a covering LP with 1 to 14 columns and 1 to 16
    rows, so its tableau falls on either side of the list form's limit.
    The costs are of one kind: 0 to 2 (zero costs and ties), any integer up
    to 2**53, or a few values from -0.0 to 2**53 side by side.  Rows may
    repeat, and list their columns in any order."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from([st.integers(0, 2), st.integers(0, 2 ** 53),
                                 st.sampled_from([-0.0, 0, 1, 2 ** 52, 2 ** 53])]))
    costs = draw(st.lists(kind, min_size=n, max_size=n))
    row = st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(tuple)
    return costs, draw(st.lists(row, min_size=1, max_size=16))


@settings(max_examples=400, deadline=None)
@given(covering_programs(), st.sampled_from([0, 1, 3, 30]))
def test_list_and_array_tableaux_agree_bit_for_bit(program, stall_limit):
    # A stall limit of 0 runs Bland's rule from the first pivot, and 1 or 3
    # switch to it after that many degenerate pivots, so small programs
    # reach it too.
    costs, covers = program
    found = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(lp_module, "_STALL_LIMIT", stall_limit)
        for _ in tableau_forms(patched):
            res = simplex_min(LinearProgram(costs, covers))
            found.append((res.value, res.x.tobytes(), res.duals.tobytes()))
    assert found[0] == found[1]


def test_each_tableau_form_carries_its_traffic(monkeypatch):
    # Suite-sized link LPs take the list tableau; a hypergraph reduction's
    # link LPs and the exact cover's LP bounds on the tree grids take numpy's.
    runs = Counter()
    caller = ["link"]
    for name in ("_list_simplex", "_array_simplex"):
        def counted(*args, name=name, solve_form=getattr(lp_module, name)):
            runs[caller[0], name] += 1
            return solve_form(*args)
        monkeypatch.setattr(lp_module, name, counted)

    def bound_simplex(lp):
        caller[0] = "bound"
        try:
            return simplex_min(lp)
        finally:
            caller[0] = "link"

    monkeypatch.setattr(setcover, "simplex_min", bound_simplex)
    for params in suite_schedule(200):
        solve(build_suite_instance(params))
    assert runs["link", "_list_simplex"] >= 1
    runs.clear()
    solve(gen_hypergraph_vc(3, 3, 12, 5)[1])
    assert runs == {("link", "_array_simplex"): 2}
    runs.clear()
    for instance in TREE_GRIDS:
        solve(instance)
    assert runs["bound", "_array_simplex"] >= 10 and not runs["bound", "_list_simplex"]


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
    sides = reference_cuts(ctx)[frozenset({0, 2})]
    for link in links:
        if crosses(link, sides):
            assert cover.objective <= link.cost + 1e-7


def test_solve_link_lp_infeasible_without_links(monkeypatch):
    from conftest import square_cycle
    monkeypatch.setattr(Instance, "check_feasible", lambda self: None)
    sq = square_cycle(scenarios=((0, 2),))
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    with pytest.raises(InfeasibleError):
        solve_link_lp(ctx, ())


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
        a = covering_matrix(rows, len(links))
        res = linprog([link.cost for link in links], A_ub=-a,
                      b_ub=-np.ones(len(rows)), bounds=(0, None), method="highs")
        assert res.status == 0
        assert abs(res.fun - cover.objective) < 1e-7
