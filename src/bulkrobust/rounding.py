"""Rounding a fractional link cover, one induced face at a time.

Each face with assigned failure sets becomes a restricted dominating-set
instance on a circle: the face's boundary walk (with one subdivision point
per boundary edge) is the circle, failure sets become demand chords between
subdivision points, links become weighted covering chords between boundary
nodes.  A node the walk visits more than once sits at its first corner, so
every face takes this one path.  Chord domination transfers to containment
of points in anchored axis-aligned rectangles inside a square, demands
split by where at least half their fractional mass lives (left-anchored vs
top-anchored), and each side is then solved exactly within a node budget.
The level-1 cases never build circles: an s-t path step is a weighted
interval covering problem solved by dynamic programming, and a
spanning-tree step is a plain exact cover over tree-edge cuts.  Which links
cover which failure set is read from the level's table
`StepContext.covering`, the same one the LP used.
"""

import bisect
from dataclasses import dataclass

from .errors import BudgetError, InvariantError
from .links import covered_by
from .lp import EPS_FEAS
from .setcover import exact_min_cover

ROUND_SLACK = 1e-6


@dataclass(frozen=True)
class ScenarioPartition:
    """Assignment of every relevant failure set to one of its faces."""

    face_scenarios: dict     # face index -> tuple of failure sets
    chosen_face: dict        # failure set -> face index carrying >= 1/level mass
    masses: dict             # failure set -> {face index: covering mass}
    face_links: dict         # face index -> tuple of link indices


@dataclass(frozen=True)
class CircleInstance:
    """A face boundary as a circle with demand and covering chords."""

    size: int                # number of circle points (2 * boundary length)
    node_pos: dict           # boundary node -> even position
    edge_pos: dict           # boundary edge id -> odd subdivision position
    demands: tuple           # (failure set, normalized chord) in face order
    coverers: tuple          # (link index, normalized chord, cost, z value)


@dataclass(frozen=True)
class RectangleSystem:
    """The circle instance mapped into a size x size square."""

    size: int
    points: dict             # demand index -> (x, y) above the main diagonal
    lefts: dict              # coverer index -> left-anchored rectangle
    tops: dict               # coverer index -> top-anchored rectangle
    z: dict                  # coverer index -> fractional value
    left_demands: tuple      # demand indices with >= 1/2 mass on left rectangles
    top_demands: tuple       # the rest


@dataclass(frozen=True)
class RoundedFace:
    face: int
    chosen: tuple            # link indices
    cost: float
    bound: float
    record: dict
    fallback = False         # no face has another path; perfbench's tracer reads it


def partition_scenarios(ctx, cover):
    """Assign each failure set to the lowest-index face carrying at least
    1/level of its covering mass; split the LP solution accordingly."""
    level = ctx.level
    if level < 2:
        raise ValueError("the face partition applies to levels >= 2")
    face_links = {}
    for idx, link in enumerate(cover.links):
        face_links.setdefault(link.face, []).append(idx)
    face_links = {f: tuple(lst) for f, lst in face_links.items()}

    face_scenarios = {}
    chosen_face = {}
    masses = {}
    threshold = 1.0 / level - EPS_FEAS
    table = ctx.covering(cover.links)
    for f_set in ctx.omega:
        per_face = {face: 0.0 for face in ctx.scenario_faces[f_set]}
        for idx in table[f_set]:
            face = cover.links[idx].face
            if face in per_face:
                per_face[face] += float(cover.values[idx])
        masses[f_set] = per_face
        eligible = [f for f in sorted(per_face) if per_face[f] >= threshold]
        if not eligible:
            raise InvariantError(
                f"no face carries 1/{level} of the mass covering "
                f"{sorted(f_set)}; the LP solution is not feasible")
        chosen_face[f_set] = eligible[0]
        face_scenarios.setdefault(eligible[0], []).append(f_set)
    face_scenarios = {f: tuple(lst) for f, lst in face_scenarios.items()}
    return ScenarioPartition(face_scenarios, chosen_face, masses, face_links)


def build_circle_instance(ctx, face, scenarios, cover):
    """Subdivide the face boundary and attach demand and covering chords.

    Corner l of the boundary walk is circle point 2l and its edge l is
    point 2l + 1.  A node the walk visits more than once takes the point of
    its first corner, and chord crossing still equals the cover relation:
    the two edges a failure set has on the face cut the walk into two arcs,
    each arc is joined by kept edges outside the set, and both failure
    edges cross the set's cut, so the arcs lie on opposite sides of it.
    Every corner of a node therefore lies on the arc of the node's own
    side, and a link's chord crosses a demand chord iff the link covers
    that failure set.  `round_face` checks this on every pair.
    """
    walk = ctx.subgraph.faces.faces[face]
    node_pos = {}
    for l, (tail, _) in enumerate(walk):
        node_pos.setdefault(tail, 2 * l)
    edge_pos = {eid: 2 * l + 1 for l, (_, eid) in enumerate(walk)}

    demands = []
    for f_set in scenarios:
        on_face = sorted(edge_pos[e] for e in f_set if e in edge_pos)
        if len(on_face) != 2:
            raise InvariantError(
                f"failure set {sorted(f_set)} has {len(on_face)} edges on face "
                f"{face}, expected 2")
        demands.append((f_set, (on_face[0], on_face[1])))

    coverers = []
    level = ctx.level
    for idx, link in enumerate(cover.links):
        if link.face != face:
            continue
        a, b = node_pos[link.u], node_pos[link.v]
        chord = (a, b) if a < b else (b, a)
        coverers.append((idx, chord, link.cost, level * float(cover.values[idx])))
    return CircleInstance(2 * len(walk), node_pos, edge_pos,
                          tuple(demands), tuple(coverers))


def chords_intersect(a, b):
    """True iff the two chords interleave strictly around the circle."""
    a1, a2 = min(a), max(a)
    if len({a[0], a[1], b[0], b[1]}) != 4:
        raise ValueError(f"chords {a} and {b} share an endpoint")
    return (a1 < b[0] < a2) != (a1 < b[1] < a2)


def _in_rect(point, rect):
    x1, x2, y1, y2 = rect
    px, py = point
    return x1 <= px <= x2 and y1 <= py <= y2


def chords_to_rectangles(ci):
    """Map demand chords to points and covering chords to rectangle pairs.

    A covering chord (p_l, p_r) becomes the left-anchored rectangle
    [p_0, p_l] x [p_l, p_r] and the top-anchored rectangle
    [p_l, p_r] x [p_r, p_last]; a demand chord becomes the point of its
    endpoint pair.  Domination is exactly containment in either rectangle.
    """
    last = ci.size - 1
    points = {}
    for d_idx, (_, chord) in enumerate(ci.demands):
        points[d_idx] = chord        # already normalized (l, r), l < r
    lefts = {}
    tops = {}
    z = {}
    for c_idx, (_, chord, _, zval) in enumerate(ci.coverers):
        l, r = chord
        lefts[c_idx] = (0, l, l, r)
        tops[c_idx] = (l, r, r, last)
        z[c_idx] = zval
    left_demands = []
    top_demands = []
    for d_idx in range(len(ci.demands)):
        left_mass = sum(z[c] for c in lefts if _in_rect(points[d_idx], lefts[c]))
        if left_mass >= 0.5 - EPS_FEAS:
            left_demands.append(d_idx)
        else:
            top_demands.append(d_idx)
    return RectangleSystem(ci.size, points, lefts, tops, z,
                           tuple(left_demands), tuple(top_demands))


def solve_anchored_cover(points, rects, node_cap=None):
    """Exact minimum-cost rectangle cover of the given points.

    `points` maps point ids to (x, y); `rects` maps rectangle ids to
    (rectangle, cost).  Returns (chosen rect ids, total cost).  The search
    visits at most `node_cap` nodes (BudgetError past that).
    """
    point_ids = sorted(points)
    rect_ids = sorted(rects)
    index_of = {p: i for i, p in enumerate(point_ids)}
    sets = []
    for rid in rect_ids:
        rect, cost = rects[rid]
        covered = [index_of[p] for p in point_ids if _in_rect(points[p], rect)]
        sets.append((cost, covered))
    try:
        cost, picked = exact_min_cover(len(point_ids), sets, node_cap=node_cap)
    except ValueError as exc:
        raise ValueError(f"anchored cover is infeasible: {exc}") from None
    return tuple(rect_ids[i] for i in picked), cost


def _record_face(ctx, face, scenarios, cover, link_ids, chosen, cost, lp_face_cost,
                 bound, circle=None, system=None):
    covered = covered_by(ctx.covering(cover.links), scenarios)
    demand_list = []
    for pos, f_set in enumerate(scenarios):
        entry = {"scenario": sorted(f_set)}
        if circle is not None:
            entry["chord"] = list(circle.demands[pos][1])
        demand_list.append(entry)
    chord_of = {}
    rect_of = {}
    if circle is not None:
        for c_idx, (lidx, chord, _, _) in enumerate(circle.coverers):
            chord_of[lidx] = chord
            if system is not None:
                rect_of[lidx] = (system.lefts[c_idx], system.tops[c_idx])
    cover_list = []
    for idx in link_ids:
        link = cover.links[idx]
        entry = {
            "link": idx,
            "u": link.u,
            "v": link.v,
            "cost": link.cost,
            "x": float(cover.values[idx]),
            "covers": covered.get(idx, []),
        }
        if idx in chord_of:
            entry["chord"] = list(chord_of[idx])
        if idx in rect_of:
            entry["rect_left"] = list(rect_of[idx][0])
            entry["rect_top"] = list(rect_of[idx][1])
        cover_list.append(entry)
    record = {
        "face": face,
        "level": ctx.level,
        "lp_face_cost": lp_face_cost,
        "bound": bound,
        "cost": cost,
        "demands": demand_list,
        "coverers": cover_list,
        "chosen": sorted(chosen),
    }
    if circle is not None:
        record["circle_points"] = circle.size
    if system is not None:
        record["left_demands"] = list(system.left_demands)
        record["top_demands"] = list(system.top_demands)
    return record


def round_face(ctx, cover, partition, face, node_cap=None):
    """Cover the failure sets assigned to one face with its typed links.

    The face becomes a circle instance (`build_circle_instance`), its
    chords anchored rectangles, and each anchored side is solved exactly,
    visiting at most `node_cap` search nodes per side.  The result covers
    every assigned failure set and its cost is checked against
    8 * level * (face share of the LP objective).
    """
    level = ctx.level
    scenarios = partition.face_scenarios.get(face, ())
    link_ids = partition.face_links.get(face, ())
    lp_face_cost = sum(cover.links[i].cost * float(cover.values[i]) for i in link_ids)
    bound = 8.0 * level * lp_face_cost
    if not scenarios:
        record = _record_face(ctx, face, (), cover, link_ids, (), 0.0, lp_face_cost,
                              bound)
        return RoundedFace(face, (), 0.0, bound, record)

    table = ctx.covering(cover.links)
    circle = build_circle_instance(ctx, face, scenarios, cover)
    system = chords_to_rectangles(circle)
    # live equivalence check: chord domination == endpoint cover relation
    for d_idx, (f_set, d_chord) in enumerate(circle.demands):
        cut_links = set(table[f_set])
        for c_idx, (lidx, c_chord, _, _) in enumerate(circle.coverers):
            geo = chords_intersect(d_chord, c_chord)
            rect = (_in_rect(system.points[d_idx], system.lefts[c_idx])
                    or _in_rect(system.points[d_idx], system.tops[c_idx]))
            via_cut = lidx in cut_links
            if geo != via_cut or geo != rect:
                raise InvariantError(
                    "chord/rectangle/cut disagreement on face "
                    f"{face}: demand {sorted(f_set)}, link {lidx}",
                    payload={"demand": d_chord, "coverer": c_chord,
                             "geo": geo, "cut": via_cut, "rect": rect})
    rect_costs = {c_idx: ci_cost for c_idx, (_, _, ci_cost, _)
                  in enumerate(circle.coverers)}
    chosen_cov = set()
    for demands, rects in ((system.left_demands, system.lefts),
                           (system.top_demands, system.tops)):
        if not demands:
            continue
        try:
            picked, _ = solve_anchored_cover(
                {d: system.points[d] for d in demands},
                {c: (rects[c], rect_costs[c]) for c in rects}, node_cap)
        except BudgetError:
            raise BudgetError(
                f"level {level}, face {face}: anchored-side cover exceeded its "
                f"budget of {node_cap} search nodes") from None
        chosen_cov.update(picked)
    chosen = tuple(sorted(circle.coverers[c][0] for c in chosen_cov))

    for f_set in scenarios:
        if set(chosen).isdisjoint(table[f_set]):
            raise InvariantError(
                f"rounded face {face} leaves failure set {sorted(f_set)} uncovered",
                payload={"chosen": chosen})
    cost = float(sum(cover.links[idx].cost for idx in chosen))
    if cost > bound + ROUND_SLACK:
        raise InvariantError(
            f"face {face} rounding cost {cost} exceeds its bound {bound}",
            payload={"chosen": chosen, "lp_face_cost": lp_face_cost,
                     "level": level})
    record = _record_face(ctx, face, scenarios, cover, link_ids, chosen, cost,
                          lp_face_cost, bound, circle, system)
    return RoundedFace(face, chosen, cost, bound, record)


def cover_intervals_exact(points, intervals):
    """Minimum-cost interval cover of integer points, by dynamic programming.

    `intervals` holds (lo, hi, cost) triples covering every point p with
    lo <= p <= hi.  Returns (chosen interval indices, total cost).
    """
    pts = sorted(set(points))
    if not pts:
        return (), 0
    INF = float("inf")
    count = len(pts)
    best = [INF] * (count + 1)
    best[0] = 0
    back = [None] * (count + 1)
    for t in range(1, count + 1):
        p = pts[t - 1]
        for idx, (lo, hi, cost) in enumerate(intervals):
            if lo <= p <= hi:
                # points before the interval's start must be covered by others
                prev = bisect.bisect_left(pts, lo)
                cand = cost + best[prev]
                if cand < best[t]:
                    best[t] = cand
                    back[t] = (idx, prev)
    if best[count] == INF:
        uncovered = next(p for t, p in enumerate(pts)
                         if best[t + 1] == INF)
        raise ValueError(f"point {uncovered} is not covered by any interval")
    chosen = set()
    t = count
    while t > 0:
        idx, prev = back[t]
        chosen.add(idx)
        t = prev
    total = sum(intervals[idx][2] for idx in chosen)
    return tuple(sorted(chosen)), total
