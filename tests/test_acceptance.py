"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with `pytest -s` or `-rP`)
and then asserts its criterion.  The shared 200-instance suite is built
and solved once per session.
"""

import itertools
import random
import time
from itertools import combinations

import numpy as np
import pytest

from bulkrobust import (OracleBudget, brute_force_opt, gen_hypergraph_vc,
                        guarantee_factor, is_feasible, solve)
from bulkrobust.cli import face_gap
from bulkrobust.links import enumerate_typed_links, preprocess_step
from bulkrobust.lp import EPS_FEAS, FractionalCover, separation_oracle
from bulkrobust.oracle import brute_force_vc
from bulkrobust.rounding import CircleInstance, chords_to_rectangles, cover_intervals_exact
from bulkrobust.setcover import exact_min_cover
from conftest import (as_masks, build_suite_instance, chords_intersect, component_of, in_rect,
                      suite_schedule)

SUITE_SIZE = 200
ORACLE_EDGE_CAP = 20


@pytest.fixture(scope="session")
def suite():
    schedule = suite_schedule(SUITE_SIZE)
    return [(params, build_suite_instance(params)) for params in schedule]


@pytest.fixture(scope="session")
def solved(suite):
    started = time.perf_counter()
    results = []
    for params, inst in suite:
        x, trace = solve(inst)
        results.append((params, inst, x, trace))
    elapsed = time.perf_counter() - started
    return {"results": results, "elapsed": elapsed}


@pytest.fixture(scope="session")
def oracle_values(solved):
    values = {}
    budget = OracleBudget(max_edges=ORACLE_EDGE_CAP)
    for idx, (params, inst, x, trace) in enumerate(solved["results"]):
        if len(inst.edges) <= ORACLE_EDGE_CAP:
            values[idx] = brute_force_opt(inst, budget)[0]
    return values


def test_criterion_1_feasibility_suite(solved):
    results = solved["results"]
    feasible = sum(1 for _, inst, x, _ in results if is_feasible(inst, x))
    ok = feasible == len(results) == SUITE_SIZE and solved["elapsed"] < 120.0
    print(f"criterion 1 {'PASS' if ok else 'FAIL'}: {feasible}/{len(results)} "
          f"feasible, wall {solved['elapsed']:.1f}s < 120s")
    assert feasible == SUITE_SIZE
    assert solved["elapsed"] < 120.0


def test_criterion_2_approximation_guarantee(solved, oracle_values):
    ratios = []
    for idx, (params, inst, x, trace) in enumerate(solved["results"]):
        if idx not in oracle_values:
            continue
        opt = oracle_values[idx]
        assert opt >= 1   # generator weights are positive
        ratio = trace.alg_cost / opt
        assert ratio <= guarantee_factor(inst.k) + 1e-9, (idx, ratio)
        ratios.append(ratio)
    worst = max(ratios)
    mean = sum(ratios) / len(ratios)
    print(f"criterion 2 PASS: {len(ratios)} instances within guarantee; "
          f"ratios mean {mean:.3f}, max {worst:.3f} "
          f"(expected <= 4, not asserted)")
    assert len(ratios) > 50


def test_criterion_3_lp_sandwich(solved, oracle_values):
    checked = 0
    for idx, (params, inst, x, trace) in enumerate(solved["results"]):
        if idx not in oracle_values:
            continue
        opt = oracle_values[idx]
        for level_trace in trace.levels:
            if level_trace.lp_value is None:
                continue
            assert level_trace.lp_value <= 2 * opt + 1e-6, \
                (idx, level_trace.level, level_trace.lp_value, opt)
            checked += 1
    print(f"criterion 3 PASS: {checked} level LP values all <= 2*OPT")
    assert checked > 0


def test_criterion_4_face_cut_structure(solved):
    # the zero-or-two check runs inside every level >= 2 preprocessing and
    # raises on violation, so a completed suite means zero violations
    checks = sum(lv.cut_face_checks
                 for _, _, _, trace in solved["results"]
                 for lv in trace.levels)
    print(f"criterion 4 PASS: {checks} (failure set, face) boundary checks, "
          "0 violations")
    assert checks > 0


def test_criterion_5_rounding_bound(solved):
    faces = 0
    for _, inst, _, trace in solved["results"]:
        for lv in trace.levels:
            for record in lv.faces:
                assert record["cost"] <= record["bound"] + 1e-6, record
                faces += 1
            if lv.lp_value is not None:
                assert lv.round_cost <= 8 * lv.level * lv.lp_value + 1e-6
    print(f"criterion 5 PASS: {faces} rounded faces within 8*level*lp")
    assert faces > 0


def _violating_sets_by_enumeration(ctx, cover, scenario_index):
    """Independent check on the original (uncontracted) solution graph."""
    inst = ctx.instance
    full = inst.scenario_sets[scenario_index]
    level = ctx.level
    if len(full) < level:
        return []
    x = ctx.x_edges
    preimage = {}
    for orig, contracted in sorted(ctx.node_map.items()):
        preimage.setdefault(contracted, orig)
    vbar = frozenset(n for e in x for n in inst.edge_map[e][:2])
    found = []
    for sub in combinations(sorted(full), level):
        f_set = frozenset(sub)
        if not f_set <= x:
            continue
        component = component_of(vbar, (inst.edge_map[e][:2] for e in x - f_set))
        if inst.problem == "st":
            disconnected = component[inst.s] != component[inst.t]
        else:
            disconnected = len(set(component.values())) != 1
        if not disconnected:
            continue
        mass = sum(float(v) for link, v in zip(cover.links, cover.values)
                   if component[preimage[link.u]] != component[preimage[link.v]])
        if mass < 1 - EPS_FEAS:
            found.append(f_set)
    return found


def test_criterion_6_separation_equivalence(solved):
    rng = random.Random(2024)
    vectors = 0
    comparisons = 0
    target = 1000
    for params, inst, x, trace in solved["results"]:
        if vectors >= target:
            break
        running = frozenset(trace.base_edges)
        for lv in trace.levels:
            level = lv.level
            if level > 3 or vectors >= target:
                break
            ctx = preprocess_step(inst, running, level)
            running = running | frozenset(lv.added)
            if not ctx.omega:
                continue
            links = enumerate_typed_links(ctx)
            if not links:
                continue
            for _ in range(10):
                values = np.array([rng.random() for _ in links])
                cover = FractionalCover(links, values)
                vectors += 1
                for j in range(len(inst.scenario_sets)):
                    if len(inst.scenario_sets[j]) < level:
                        continue
                    oracle = separation_oracle(ctx, cover, j)
                    expected = _violating_sets_by_enumeration(ctx, cover, j)
                    comparisons += 1
                    if oracle.violating is None:
                        assert not expected, (params, level, j)
                    else:
                        assert oracle.violating in expected, (params, level, j)
                if vectors >= target:
                    break
    print(f"criterion 6 PASS: {vectors} random vectors, {comparisons} "
          "oracle-vs-enumeration comparisons agreed")
    assert vectors >= target


def test_criterion_7_hypergraph_equivalence():
    agreed = 0
    for idx in range(50):
        k = 2 + idx % 3
        edge_count = min(2 + idx % 5, 2 ** k)
        h, inst = gen_hypergraph_vc(k, 2, edge_count, seed=500 + idx)
        assert len([v for part in h.parts for v in part]) <= 8
        assert len(h.hyperedges) <= 6
        vc, _ = brute_force_vc(h)
        opt, _ = brute_force_opt(
            inst, OracleBudget(max_edges=24, max_subsets=10_000_000))
        assert vc == opt, (idx, vc, opt)
        agreed += 1
    print(f"criterion 7 PASS: {agreed}/50 vertex-cover reductions agree exactly")
    assert agreed == 50


def test_criterion_8_circle_rectangle_equivalence():
    checked = 0
    for m in range(4, 13):
        for quad in itertools.permutations(range(m), 4):
            demand = (min(quad[0], quad[1]), max(quad[0], quad[1]))
            coverer = (min(quad[2], quad[3]), max(quad[2], quad[3]))
            ci = CircleInstance(size=m, node_pos={}, edge_pos={},
                                demands=((frozenset({0}), demand),),
                                coverers=((0, coverer, 1, 1.0),))
            system = chords_to_rectangles(ci)
            geometric = chords_intersect(demand, coverer)
            in_left = in_rect(system.points[0], system.lefts[0])
            in_top = in_rect(system.points[0], system.tops[0])
            assert geometric == (in_left or in_top), (m, demand, coverer)
            assert system.in_left == ((0,) if in_left else (),), (m, demand, coverer)
            assert system.in_top == ((0,) if in_top else (),), (m, demand, coverer)
            checked += 1
    print(f"criterion 8 PASS: {checked} chord pairs, intersection == "
          "rectangle containment")


def _enumerate_interval_optimum(points, intervals):
    best = None
    for mask in range(1 << len(intervals)):
        cost = 0
        chosen = []
        for i, iv in enumerate(intervals):
            if mask >> i & 1:
                cost += iv[2]
                chosen.append(iv)
        if all(any(lo <= p <= hi for lo, hi, _ in chosen) for p in points):
            if best is None or cost < best:
                best = cost
    return best


def test_criterion_9_exact_small_solvers():
    rng = random.Random(99)
    interval_checks = 0
    for _ in range(500):
        points = sorted(rng.sample(range(12), rng.randint(1, 6)))
        intervals = []
        for _ in range(rng.randint(1, 12)):
            lo = rng.randint(0, 11)
            hi = rng.randint(lo, 11)
            intervals.append((lo, hi, rng.randint(1, 9)))
        expect = _enumerate_interval_optimum(points, intervals)
        if expect is None:
            with pytest.raises(ValueError):
                cover_intervals_exact(points, intervals)
        else:
            _, total = cover_intervals_exact(points, intervals)
            assert total == expect
        interval_checks += 1

    cover_checks = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        sets = []
        for _ in range(rng.randint(1, 10)):
            members = [el for el in range(n) if rng.random() < 0.5]
            sets.append((rng.randint(1, 9), members))
        best = None
        for mask in range(1 << len(sets)):
            covered = set()
            cost = 0
            for i, (c, members) in enumerate(sets):
                if mask >> i & 1:
                    covered.update(members)
                    cost += c
            if len(covered) == n and (best is None or cost < best):
                best = cost
        if best is None:
            with pytest.raises(ValueError):
                exact_min_cover(n, as_masks(sets))
        else:
            total, _ = exact_min_cover(n, as_masks(sets))
            assert total == best
        cover_checks += 1
    print(f"criterion 9 PASS: {interval_checks} interval + {cover_checks} "
          "cover instances match exhaustive enumeration")


def test_criterion_10_measured_integrality_gap(solved):
    worst = 0.0
    faces = 0
    for _, inst, _, trace in solved["results"]:
        for lv in trace.levels:
            for record in lv.faces:
                gap = face_gap(record)
                if gap is None:
                    continue
                faces += 1
                worst = max(worst, gap)
                assert gap <= 8.0 + 1e-6, (record, gap)
    print(f"criterion 10 PASS: {faces} faces, max measured gap {worst:.4f} <= 8")
    assert faces > 0
