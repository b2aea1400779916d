"""Face rounding: partition, circle/rectangle mapping, exact covers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import Instance, gen_grid, gen_hypergraph_vc, rounding, solve
from bulkrobust.driver import augment_step
from bulkrobust.errors import InvariantError
from bulkrobust.links import enumerate_typed_links, preprocess_step
from bulkrobust.lp import EPS_FEAS, FractionalCover, solve_link_lp
from bulkrobust.rounding import (CircleInstance, ScenarioPartition, build_circle_instance,
                                 chords_to_rectangles, cover_intervals_exact,
                                 partition_scenarios, round_face)
from bulkrobust.setcover import exact_min_cover
from conftest import (as_masks, build_suite_instance, chords_intersect, crosses, in_rect,
                      reference_cuts, square_with_chords, suite_schedule)


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
    assert part.face_scenarios == {0: (f,)}


def test_partition_prefers_face_with_enough_mass():
    ctx, links = _two_face_ctx()
    cover = FractionalCover(links, np.array([0.2, 0.8]))
    part = partition_scenarios(ctx, cover)
    assert part.face_scenarios == {1: (frozenset({0, 2}),)}


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
    face = next(f for f, sets in part.face_scenarios.items() if frozenset({0, 2}) in sets)
    circle = build_circle_instance(ctx, cover, part, face)
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
    assert in_rect((1, 5), system.lefts[0])
    assert system.left_demands == (0,)


def test_rectangle_figure_configuration():
    # demand (v1, v3) and coverer (v2, v4) on four points clockwise from the
    # top: the demand point lands inside the coverer's left rectangle
    ci = CircleInstance(
        size=4, node_pos={}, edge_pos={},
        demands=((frozenset({0}), (0, 2)),),
        coverers=((0, (1, 3), 1, 1.0),))
    system = chords_to_rectangles(ci)
    assert in_rect(system.points[0], system.lefts[0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mask_relations_match_the_scalar_definitions(data):
    # Up to 80 coverers, so the masks span several machine words; on a small
    # circle many coverers share ends, and demand ends are often drawn from
    # coverer ends.  Containment must equal `in_rect` on every pair, the mass
    # split must sum each demand's left holders in ascending order, and on
    # four distinct ends the crossing mask must equal `chords_intersect`.
    size = data.draw(st.integers(3, 40), label="size")
    pos = st.integers(0, size - 1)
    coverers = data.draw(st.lists(st.tuples(pos, pos).map(lambda p: (min(p), max(p))),
                                  max_size=80), label="coverers")
    ends = [e for chord in coverers for e in chord]
    end = st.one_of(pos, st.sampled_from(ends)) if ends else pos
    demands = data.draw(st.lists(st.tuples(end, end).filter(lambda p: p[0] != p[1])
                                 .map(lambda p: (min(p), max(p))), min_size=1, max_size=40),
                        label="demands")
    weights = data.draw(st.lists(st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 1.0)),
                                 min_size=len(coverers), max_size=len(coverers)))
    ci = CircleInstance(
        size=size, node_pos={}, edge_pos={},
        demands=tuple((frozenset({d}), chord) for d, chord in enumerate(demands)),
        coverers=tuple((c, chord, 1, z) for c, (chord, z) in enumerate(zip(coverers, weights))))
    system = chords_to_rectangles(ci)
    left_demands = []
    for d_idx, point in enumerate(demands):
        in_left = tuple(c for c, rect in enumerate(system.lefts) if in_rect(point, rect))
        in_top = tuple(c for c, rect in enumerate(system.tops) if in_rect(point, rect))
        assert system.in_left[d_idx] == in_left
        assert system.in_top[d_idx] == in_top
        assert system.held[d_idx] == sum(1 << c for c in set(in_left) | set(in_top))
        touching = {c for c, chord in enumerate(coverers) if set(chord) & set(point)}
        assert system.touching[d_idx] == sum(1 << c for c in touching)
        for c, chord in enumerate(coverers):
            if c not in touching and chord[0] != chord[1]:
                assert bool(system.crossing[d_idx] >> c & 1) == chords_intersect(point, chord)
        if sum(weights[c] for c in in_left) >= 0.5 - EPS_FEAS:
            left_demands.append(d_idx)
    assert system.left_demands == tuple(left_demands)
    assert system.top_demands == tuple(d for d in range(len(demands)) if d not in left_demands)


# -- exact covers ---------------------------------------------------------------

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
                exact_min_cover(n, as_masks(sets))
        else:
            cost, picked = exact_min_cover(n, as_masks(sets))
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
    for f_set, sides in reference_cuts(ctx).items():
        assert any(crosses(cover.links[i], sides) for i in picked)
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


def test_face_records_replay_the_side_covers():
    # Re-derive each rounded face's picks from its trace record alone: the
    # demand points and each coverer's rectangle give, by `in_rect`, every
    # side's sets, with the coverers' costs, in coverer order.  The cheapest
    # cover of each side, mapped back to link ids, must be what was chosen.
    faces = split = 0
    instances = [build_suite_instance(p) for p in suite_schedule(200)]
    instances.append(gen_hypergraph_vc(3, 3, 12, 5)[1])
    for instance in instances:
        _, trace = solve(instance)
        for record in (r for level in trace.levels for r in level.faces):
            if "left_demands" not in record:
                continue
            coverers = record["coverers"]
            chosen = set()
            for side, rect in (("left_demands", "rect_left"), ("top_demands", "rect_top")):
                points = [record["demands"][d]["chord"] for d in record[side]]
                if not points:
                    continue
                sets = [(c["cost"], [i for i, p in enumerate(points) if in_rect(p, c[rect])])
                        for c in coverers]
                _, picked = exact_min_cover(len(points), as_masks(sets))
                chosen.update(coverers[c]["link"] for c in picked)
            assert record["chosen"] == sorted(chosen), record
            faces += 1
            split += bool(record["left_demands"] and record["top_demands"])
    assert faces > 50 and split > 5


def test_chord_crossing_is_cover_on_faces_with_repeated_nodes():
    # Spanning-tree grids give level-2 faces whose walks repeat a node.  On
    # each, put every failure set with edges on the face on the circle and
    # compare chord crossing with the reference cut for every link of the face.
    faces = pairs = 0
    for seed in range(60):
        inst = gen_grid(10, 10, 36, 3, 1, seed, "mst")
        levels = []
        solve(inst, on_lp=lambda lv, ctx, links, cover: levels.append((ctx, cover)))
        for ctx, cover in levels:
            face_links = partition_scenarios(ctx, cover).face_links
            cuts = reference_cuts(ctx)
            for face, walk in enumerate(ctx.subgraph.faces.faces):
                tails = [tail for tail, _ in walk]
                on_face = [f for f in ctx.omega if face in ctx.scenario_faces[f]]
                if len(set(tails)) == len(tails) or not on_face:
                    continue
                part = ScenarioPartition({face: tuple(on_face)}, face_links)
                circle = build_circle_instance(ctx, cover, part, face)
                if not circle.coverers:
                    continue
                faces += 1
                for f_set, d_chord in circle.demands:
                    for lidx, c_chord, _, _ in circle.coverers:
                        assert chords_intersect(d_chord, c_chord) == crosses(
                            cover.links[lidx], cuts[f_set]), (seed, face, lidx)
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


# -- the three-way check ------------------------------------------------------------

def _hvc_level():
    """Level 2 of a small hypergraph vertex cover: face 0 holds five demands
    and the six links 0..5, in that coverer order."""
    levels = []
    solve(gen_hypergraph_vc(2, 3, 6, 1)[1],
          on_lp=lambda lv, ctx, links, cover: levels.append((ctx, cover)))
    ctx, cover = levels[0]
    return ctx, cover, partition_scenarios(ctx, cover)


@pytest.mark.parametrize("tamper, scenario, link, payload", [
    # demands 1 and 2 lose a face link each from their rows: demand 1's is
    # the lowest disagreeing (demand, coverer) pair
    ({1: (2, None), 2: (1, None)}, [1, 8], 2,
     {"demand": (3, 19), "coverer": (0, 10), "geo": True, "cut": False, "rect": True}),
    # demand 0 gains links 5 and 3, both chords inside its own
    ({0: (None, (5, 3))}, [0, 11], 3,
     {"demand": (1, 13), "coverer": (6, 12), "geo": False, "cut": True, "rect": False}),
], ids=["dropped", "added"])
def test_round_face_reports_the_lowest_disagreeing_pair(tamper, scenario, link, payload):
    ctx, cover, part = _hvc_level()
    circle = build_circle_instance(ctx, cover, part, 0)
    assert [c[0] for c in circle.coverers] == [0, 1, 2, 3, 4, 5]
    table = ctx.covering(cover.links)
    for d_idx, (dropped, added) in tamper.items():
        f_set = circle.demands[d_idx][0]
        row = set(table[f_set])
        assert (dropped is None or dropped in row) and row.isdisjoint(added or ())
        table[f_set] = tuple(sorted((row - {dropped}) | set(added or ())))
    with pytest.raises(InvariantError) as info:
        round_face(ctx, cover, part, 0)
    assert str(info.value) == (
        f"chord/rectangle/cut disagreement on face 0: demand {scenario}, link {link}")
    assert info.value.payload == payload
    assert all(type(info.value.payload[key]) is bool for key in ("geo", "cut", "rect"))


def test_round_face_rejects_side_covers_that_miss_a_demand(monkeypatch):
    # The final check reads the cut relation, not the side covers: link 4's
    # chord (10, 12) lies inside every demand chord of face 0, so side covers
    # that pick only link 4 leave every demand, the first named, uncovered.
    ctx, cover, part = _hvc_level()
    monkeypatch.setattr(rounding, "exact_min_cover", lambda count, sets: (sets[4][0], (4,)))
    with pytest.raises(InvariantError) as info:
        round_face(ctx, cover, part, 0)
    assert str(info.value) == "rounded face 0 leaves failure set [0, 11] uncovered"
    assert info.value.payload == {"chosen": (4,)}
