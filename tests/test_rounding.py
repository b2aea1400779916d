"""Face rounding: partition, circle/rectangle mapping, exact covers."""

import itertools
import random

import numpy as np
import pytest

from bulkrobust import (CircleInstance, FractionalCover, Instance,
                        build_circle_instance, chords_intersect,
                        chords_to_rectangles, cover_intervals_exact, covers,
                        enumerate_typed_links, exact_min_cover, gen_grid,
                        partition_scenarios, preprocess_step, round_face,
                        solve, solve_anchored_cover, solve_link_lp)
from bulkrobust.driver import augment_step
from bulkrobust.rounding import _in_rect
from conftest import square_with_chords


# -- partition ---------------------------------------------------------------

def _two_face_ctx(chord_weight=4):
    sq = square_with_chords(inner=True, outer=True, chord_weight=chord_weight)
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    links = enumerate_typed_links(ctx)
    return ctx, links


def test_partition_tie_breaks_to_lowest_face():
    ctx, links = _two_face_ctx()
    cover = FractionalCover(links, np.array([0.5, 0.5]))
    part = partition_scenarios(ctx, cover)
    f = frozenset({0, 2})
    assert part.masses[f] == {0: 0.5, 1: 0.5}
    assert part.chosen_face[f] == 0
    assert part.face_scenarios == {0: (f,)}


def test_partition_prefers_face_with_enough_mass():
    ctx, links = _two_face_ctx()
    cover = FractionalCover(links, np.array([0.2, 0.8]))
    part = partition_scenarios(ctx, cover)
    f = frozenset({0, 2})
    assert part.chosen_face[f] == 1


def test_partition_conserves_mass():
    ctx, links = _two_face_ctx()
    cover = solve_link_lp(ctx, links)
    part = partition_scenarios(ctx, cover)
    total = sum(links[i].cost * float(cover.values[i])
                for ids in part.face_links.values() for i in ids)
    assert abs(total - cover.objective) < 1e-9


# -- circle construction -------------------------------------------------------

def test_circle_point_layout():
    # square face with 4 boundary nodes: 8 circle points alternating v, w
    sq = square_with_chords(inner=True, outer=False,
                            scenarios=((0, 2), (1, 3)))
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    links = enumerate_typed_links(ctx)
    cover = solve_link_lp(ctx, links)
    part = partition_scenarios(ctx, cover)
    face = part.chosen_face[frozenset({0, 2})]
    scen = part.face_scenarios[face]
    circle = build_circle_instance(ctx, face, scen, cover)
    assert circle.size == 2 * len(ctx.subgraph.faces.faces[face])
    assert sorted(circle.node_pos.values()) == list(
        range(0, circle.size, 2))
    assert sorted(circle.edge_pos.values()) == list(
        range(1, circle.size, 2))
    for _, (a, b) in circle.demands:
        assert a % 2 == 1 and b % 2 == 1 and a < b
    for _, (a, b), _, _ in circle.coverers:
        assert a % 2 == 0 and b % 2 == 0 and a < b


def test_chords_intersect_cases():
    assert chords_intersect((1, 5), (2, 6)) is True
    assert chords_intersect((1, 3), (5, 7)) is False
    assert chords_intersect((1, 5), (0, 2)) is True
    with pytest.raises(ValueError, match="share"):
        chords_intersect((1, 5), (5, 7))


def test_rectangle_formulas():
    ci = CircleInstance(
        size=8, node_pos={}, edge_pos={},
        demands=((frozenset({0}), (1, 5)),),
        coverers=((0, (2, 6), 3, 1.0),))
    system = chords_to_rectangles(ci)
    assert system.lefts[0] == (0, 2, 2, 6)
    assert system.tops[0] == (2, 6, 6, 7)
    assert system.points[0] == (1, 5)
    assert _in_rect((1, 5), system.lefts[0])
    assert system.left_demands == (0,)


def test_rectangle_figure_configuration():
    # demand (v1, v3) and coverer (v2, v4) on four points clockwise from the
    # top: the demand point lands inside the coverer's left rectangle
    ci = CircleInstance(
        size=4, node_pos={}, edge_pos={},
        demands=((frozenset({0}), (0, 2)),),
        coverers=((0, (1, 3), 1, 1.0),))
    system = chords_to_rectangles(ci)
    assert _in_rect(system.points[0], system.lefts[0])


def test_domination_equivalence_exhaustive_small():
    for m in range(4, 13):
        for quad in itertools.permutations(range(m), 4):
            a = (min(quad[0], quad[1]), max(quad[0], quad[1]))
            b = (min(quad[2], quad[3]), max(quad[2], quad[3]))
            ci = CircleInstance(size=m, node_pos={}, edge_pos={},
                                demands=((frozenset({0}), a),),
                                coverers=((0, b, 1, 1.0),))
            system = chords_to_rectangles(ci)
            geometric = chords_intersect(a, b)
            contained = (_in_rect(system.points[0], system.lefts[0])
                         or _in_rect(system.points[0], system.tops[0]))
            assert geometric == contained, (m, a, b)


# -- exact covers ---------------------------------------------------------------

def test_anchored_cover_prefers_cheaper():
    points = {0: (1, 2)}
    rects = {0: ((0, 1, 1, 3), 3), 1: ((0, 2, 2, 3), 5)}
    chosen, cost = solve_anchored_cover(points, rects)
    assert chosen == (0,) and cost == 3


def test_anchored_cover_two_points():
    points = {0: (0, 1), 1: (2, 3)}
    rects = {
        "A": ((0, 2, 0, 3), 3),     # covers both
        "B": ((0, 0, 1, 1), 1),     # covers point 0
        "C": ((0, 2, 3, 3), 1),     # covers point 1
    }
    chosen, cost = solve_anchored_cover(points, rects)
    assert set(chosen) == {"B", "C"} and cost == 2


def test_anchored_cover_no_points():
    chosen, cost = solve_anchored_cover({}, {0: ((0, 1, 0, 1), 2)})
    assert chosen == () and cost == 0


def test_exact_cover_matches_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        sets = []
        for _ in range(rng.randint(1, 10)):
            members = [e for e in range(n) if rng.random() < 0.5]
            sets.append((rng.randint(1, 9), members))
        best = None
        for mask in range(1 << len(sets)):
            covered = set()
            cost = 0
            for i in range(len(sets)):
                if mask >> i & 1:
                    covered.update(sets[i][1])
                    cost += sets[i][0]
            if len(covered) == n and (best is None or cost < best):
                best = cost
        if best is None:
            with pytest.raises(ValueError):
                exact_min_cover(n, sets)
        else:
            cost, picked = exact_min_cover(n, sets)
            assert cost == best
            covered = set()
            for i in picked:
                covered.update(sets[i][1])
            assert covered == set(range(n))


# -- round_face -----------------------------------------------------------------

def test_round_face_triangle_level_like():
    # two-face square step: rounding picks exactly one chord per run
    ctx, links = _two_face_ctx(chord_weight=2)
    cover = solve_link_lp(ctx, links)
    part = partition_scenarios(ctx, cover)
    total = 0.0
    chosen = []
    for face in sorted(set(part.face_scenarios) | set(part.face_links)):
        rounded = round_face(ctx, cover, part, face)
        total += rounded.cost
        chosen.extend(rounded.chosen)
        assert rounded.cost <= rounded.bound + 1e-6
    assert len(chosen) == 1
    assert total == 2.0


def test_round_face_empty_scenarios():
    ctx, links = _two_face_ctx()
    cover = solve_link_lp(ctx, links)
    part = partition_scenarios(ctx, cover)
    empty_face = next(f for f in part.face_links if f not in part.face_scenarios)
    rounded = round_face(ctx, cover, part, empty_face)
    assert rounded.chosen == () and rounded.cost == 0.0


def test_round_face_forced_pair():
    # two failure sets, each coverable only by its own chord
    sq = square_with_chords(inner=True, outer=True,
                            scenarios=((0, 2), (1, 3)))
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    links = enumerate_typed_links(ctx)
    cover = solve_link_lp(ctx, links)
    part = partition_scenarios(ctx, cover)
    picked = set()
    for face in sorted(set(part.face_scenarios) | set(part.face_links)):
        rounded = round_face(ctx, cover, part, face)
        picked.update(rounded.chosen)
    covered = set()
    for f_set in ctx.omega:
        cut = ctx.cuts[f_set]
        assert any(covers(cover.links[i], cut) for i in picked)
        covered.add(f_set)
    assert covered == set(ctx.omega)


def test_round_face_circle_on_repeated_boundary_node():
    # bowtie: two triangles sharing node c, every solution edge threatened,
    # detours a-b and s-t drawn in the outer face.  The outer face walk
    # visits c twice; c sits at its first corner and the face still takes
    # the circle/rectangle path.
    bow = Instance(
        5,
        [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1), (3, 2, 3, 1),
         (4, 3, 4, 1), (5, 4, 2, 1), (6, 1, 3, 3), (7, 0, 4, 5)],
        {0: [0, 2, 7], 1: [6, 1, 0], 2: [3, 5, 2, 1], 3: [6, 4, 3],
         4: [4, 7, 5]},
        "st", 0, 4,
        [(0, 2), (1, 2), (3, 5), (4, 5)],
    )
    x = frozenset(range(6))
    ctx = preprocess_step(bow, x, 2)
    assert ctx.contracted == ()
    walks = [[tail for tail, _ in w] for w in ctx.subgraph.faces.faces]
    repeated = [f for f, w in enumerate(walks) if len(set(w)) != len(w)]
    assert repeated
    added, level = augment_step(bow, x, 2)
    assert added == frozenset({7})
    assert level.round_cost <= level.bound + 1e-6
    records = [r for r in level.faces if r["face"] in repeated and r["demands"]]
    assert records
    for record in records:
        assert "fallback" not in record
        assert record["circle_points"] == 2 * len(walks[record["face"]])
        assert all("chord" in d for d in record["demands"])
        assert all("chord" in c and "rect_left" in c and "rect_top" in c
                   for c in record["coverers"])
        assert record["cost"] <= record["bound"] + 1e-6
    assert "fallback_faces" not in level.to_dict()


def test_chord_crossing_is_cover_on_faces_with_repeated_nodes():
    # Spanning-tree grids give level-2 faces whose walks repeat a node.  On
    # each, put every failure set with edges on the face on the circle and
    # compare chord crossing with `covers` for every link of the face.
    faces = pairs = 0
    for seed in range(60):
        inst = gen_grid(10, 10, 36, 3, 1, seed, "mst")
        levels = []
        solve(inst, on_lp=lambda lv, ctx, links, cover: levels.append((ctx, cover)))
        for ctx, cover in levels:
            for face, walk in enumerate(ctx.subgraph.faces.faces):
                tails = [tail for tail, _ in walk]
                on_face = [f for f in ctx.omega if face in ctx.scenario_faces[f]]
                if len(set(tails)) == len(tails) or not on_face:
                    continue
                circle = build_circle_instance(ctx, face, on_face, cover)
                if not circle.coverers:
                    continue
                faces += 1
                for f_set, d_chord in circle.demands:
                    for lidx, c_chord, _, _ in circle.coverers:
                        assert chords_intersect(d_chord, c_chord) == covers(
                            cover.links[lidx], ctx.cuts[f_set]), (seed, face, lidx)
                        pairs += 1
        if faces >= 30:
            break
    assert faces >= 30 and pairs > faces


# -- interval covering ------------------------------------------------------------

def test_intervals_example():
    points = [1, 3]
    intervals = [(1, 2, 1), (3, 3, 1), (1, 3, 3)]
    chosen, total = cover_intervals_exact(points, intervals)
    assert set(chosen) == {0, 1} and total == 2


def test_intervals_single_point():
    chosen, total = cover_intervals_exact([2], [(0, 4, 7)])
    assert chosen == (0,) and total == 7


def test_intervals_no_points():
    assert cover_intervals_exact([], [(0, 1, 1)]) == ((), 0)


def test_intervals_uncoverable():
    with pytest.raises(ValueError, match="not covered"):
        cover_intervals_exact([5], [(0, 4, 1)])


def test_intervals_match_enumeration():
    rng = random.Random(5)
    for _ in range(120):
        n_pts = rng.randint(1, 7)
        points = sorted(rng.sample(range(12), n_pts))
        intervals = []
        for _ in range(rng.randint(1, 10)):
            lo = rng.randint(0, 11)
            hi = rng.randint(lo, 11)
            intervals.append((lo, hi, rng.randint(1, 9)))
        best = None
        for mask in range(1 << len(intervals)):
            cost = 0
            chosen = [iv for i, iv in enumerate(intervals) if mask >> i & 1]
            for i, iv in enumerate(intervals):
                if mask >> i & 1:
                    cost += iv[2]
            if all(any(lo <= p <= hi for lo, hi, _ in chosen) for p in points):
                if best is None or cost < best:
                    best = cost
        if best is None:
            with pytest.raises(ValueError):
                cover_intervals_exact(points, intervals)
        else:
            _, total = cover_intervals_exact(points, intervals)
            assert total == best
