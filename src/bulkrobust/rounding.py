"""Rounding a fractional link cover, one induced face at a time.

Each face with assigned failure sets becomes a restricted dominating-set
instance on a circle: the face's boundary walk (with one subdivision point
per boundary edge) is the circle, failure sets become demand chords between
subdivision points, links become weighted covering chords between boundary
nodes.  A node the walk visits more than once sits at its first corner, so
every face takes this one path.  Chord domination transfers to containment
of points in anchored axis-aligned rectangles inside a square.  Every
relation of the reduction compares integer circle positions, so each face
builds prefix masks over its coverers once (which coverers have an end
below each position) and reads every demand's rectangles, crossing chords
and shared ends from a few big-int operations on them.  From the
rectangles demands split by where at least half their fractional mass
lives (left- vs top-anchored), `round_face` checks them against the chords
and the cuts, one coverer mask per demand, and each side is solved exactly
within the budget of `setcover.exact_min_cover`.
The level-1 cases never build circles: the contracted path or tree induces
one face, and its typed links are covered exactly (`cover_intervals_exact`
on the path, an exact cut cover on the tree, both read from the side masks
of `StepContext`).  At levels >= 2, which links cover which failure set is
read from the level's table `StepContext.covering`, the same one the LP
used.
"""

import bisect
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from .errors import BudgetError, InvariantError
from .links import bit_positions
from .lp import EPS_FEAS
from .setcover import exact_min_cover

ROUND_SLACK = 1e-6


@dataclass(frozen=True)
class ScenarioPartition:
    """Assignment of every relevant failure set to one of its faces."""

    face_scenarios: dict     # face index -> tuple of failure sets
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

    points: tuple            # per demand: (x, y) above the main diagonal
    lefts: tuple             # per coverer: left-anchored rectangle
    tops: tuple              # per coverer: top-anchored rectangle
    in_left: tuple           # per demand: coverers whose left rectangle holds it
    in_top: tuple            # per demand: coverers whose top rectangle holds it
    left_demands: tuple      # demand indices with >= 1/2 mass on left rectangles
    top_demands: tuple       # the rest
    # per demand, masks whose bit c stands for coverer c: its left or top
    # rectangle holds the point; its chord has exactly one end strictly
    # inside the demand chord; its chord shares an end with the demand chord
    held: tuple
    crossing: tuple
    touching: tuple


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
    face_links, faces = {}, []
    for idx, link in enumerate(cover.links):
        face_links.setdefault(link.face, []).append(idx)
        faces.append(link.face)
    face_links = {f: tuple(lst) for f, lst in face_links.items()}

    face_scenarios = {}
    threshold = 1.0 / level - EPS_FEAS
    table = ctx.covering(cover.links)
    values = cover.values.tolist()
    for f_set in ctx.omega:
        per_face = {face: 0.0 for face in ctx.scenario_faces[f_set]}
        for idx in table[f_set]:
            face = faces[idx]
            if face in per_face:
                per_face[face] += values[idx]
        eligible = [f for f in sorted(per_face) if per_face[f] >= threshold]
        if not eligible:
            raise InvariantError(
                f"no face carries 1/{level} of the mass covering "
                f"{sorted(f_set)}; the LP solution is not feasible")
        face_scenarios.setdefault(eligible[0], []).append(f_set)
    face_scenarios = {f: tuple(lst) for f, lst in face_scenarios.items()}
    return ScenarioPartition(face_scenarios, face_links)


def build_circle_instance(ctx, cover, partition, face):
    """Subdivide the face boundary and attach demand and covering chords:
    one demand per failure set the partition assigns to the face, one
    coverer per link of `partition.face_links[face]`, in that order.

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
    for f_set in partition.face_scenarios.get(face, ()):
        on_face = sorted(edge_pos[e] for e in f_set if e in edge_pos)
        if len(on_face) != 2:
            raise InvariantError(
                f"failure set {sorted(f_set)} has {len(on_face)} edges on face "
                f"{face}, expected 2")
        demands.append((f_set, (on_face[0], on_face[1])))

    coverers = []
    level = ctx.level
    values = cover.values.tolist()
    for idx in partition.face_links.get(face, ()):
        link = cover.links[idx]
        a, b = node_pos[link.u], node_pos[link.v]
        chord = (a, b) if a < b else (b, a)
        coverers.append((idx, chord, link.cost, level * values[idx]))
    return CircleInstance(2 * len(walk), node_pos, edge_pos,
                          tuple(demands), tuple(coverers))


def chords_to_rectangles(ci):
    """Map demand chords to points and covering chords to rectangle pairs.

    A covering chord (p_l, p_r) becomes the left-anchored rectangle
    [p_0, p_l] x [p_l, p_r] and the top-anchored rectangle
    [p_l, p_r] x [p_r, p_last]; a demand chord becomes the point of its
    endpoint pair.  Domination is exactly containment in either rectangle.

    Every relation here compares circle positions, so it is read per demand
    from prefix masks built once per face: bit c of `l_below[x]`
    (`r_below[x]`) is set iff coverer c's left (right) end is below x.  A
    point (px, py) lies in c's left rectangle iff px <= l <= py <= r and in
    its top one iff l <= px <= r <= py; c's chord crosses the demand chord
    iff exactly one of its ends lies strictly between px and py.  The mass
    split, `round_face`'s check and both side covers read the result.
    """
    size = ci.size
    last = size - 1
    points = tuple(chord for _, chord in ci.demands)    # normalized (l, r), l < r
    lefts = tuple((0, l, l, r) for _, (l, r), _, _ in ci.coverers)
    tops = tuple((l, r, r, last) for _, (l, r), _, _ in ci.coverers)
    l_at = [0] * size
    r_at = [0] * size
    for c, (_, (l, r), _, _) in enumerate(ci.coverers):
        l_at[l] |= 1 << c
        r_at[r] |= 1 << c
    l_below = list(accumulate(l_at, or_, initial=0))
    r_below = list(accumulate(r_at, or_, initial=0))
    in_left, in_top, held, crossing, touching = [], [], [], [], []
    left_demands, top_demands = [], []
    for d_idx, (px, py) in enumerate(points):
        left = l_below[py + 1] & ~(l_below[px] | r_below[py])
        top = l_below[px + 1] & r_below[py + 1] & ~r_below[px]
        in_left.append(tuple(bit_positions(left)))
        in_top.append(tuple(bit_positions(top)))
        held.append(left | top)
        # nested prefixes: l_below[py] ^ l_below[px + 1] has px < l < py
        crossing.append(l_below[py] ^ l_below[px + 1] ^ r_below[py] ^ r_below[px + 1])
        touching.append(l_at[px] | l_at[py] | r_at[px] | r_at[py])
        if sum(ci.coverers[c][3] for c in in_left[-1]) >= 0.5 - EPS_FEAS:
            left_demands.append(d_idx)
        else:
            top_demands.append(d_idx)
    return RectangleSystem(points, lefts, tops, tuple(in_left), tuple(in_top),
                           tuple(left_demands), tuple(top_demands),
                           tuple(held), tuple(crossing), tuple(touching))


def _record_face(ctx, face, scenarios, cover, values, link_ids, chosen, cost,
                 lp_face_cost, bound, circle=None, system=None, cuts=()):
    """The face's trace record; coverer i of `circle` and `system` is link
    `link_ids[i]`, and bit i of `cuts[d]` is set iff it covers scenario d."""
    covers = [[] for _ in link_ids]
    for d_idx, cut in enumerate(cuts):
        for c_idx in bit_positions(cut):
            covers[c_idx].append(d_idx)
    demand_list = []
    for pos, f_set in enumerate(scenarios):
        entry = {"scenario": sorted(f_set)}
        if circle is not None:
            entry["chord"] = list(circle.demands[pos][1])
        demand_list.append(entry)
    cover_list = []
    for pos, idx in enumerate(link_ids):
        link = cover.links[idx]
        entry = {
            "link": idx,
            "u": link.u,
            "v": link.v,
            "cost": link.cost,
            "x": values[idx],
            "covers": covers[pos],
        }
        if circle is not None:
            entry["chord"] = list(circle.coverers[pos][1])
            entry["rect_left"] = list(system.lefts[pos])
            entry["rect_top"] = list(system.tops[pos])
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
        record["left_demands"] = list(system.left_demands)
        record["top_demands"] = list(system.top_demands)
    return record


def round_face(ctx, cover, partition, face):
    """Cover the failure sets assigned to one face with its typed links.

    The face becomes a circle instance (`build_circle_instance`), its
    chords anchored rectangles, and each anchored side goes to
    `exact_min_cover` as one set per coverer: the mask of the side's
    demands whose point its rectangle holds.  Past the search budget the
    BudgetError names the level and the face.  The result covers every
    assigned failure set and its cost is checked against 8 * level * (face
    share of the LP objective).
    """
    level = ctx.level
    scenarios = partition.face_scenarios.get(face, ())
    link_ids = partition.face_links.get(face, ())
    values = cover.values.tolist()
    lp_face_cost = sum(cover.links[i].cost * values[i] for i in link_ids)
    bound = 8.0 * level * lp_face_cost
    if not scenarios:
        record = _record_face(ctx, face, (), cover, values, link_ids, (), 0.0,
                              lp_face_cost, bound)
        return RoundedFace(face, (), 0.0, bound, record)

    table = ctx.covering(cover.links)
    circle = build_circle_instance(ctx, cover, partition, face)
    system = chords_to_rectangles(circle)
    # Live equivalence check, one coverer mask per demand: chord crossing ==
    # endpoint cover relation (the table row) == rectangle containment.  A
    # coverer that shares an end with the demand chord fails too, since
    # crossing is not defined for such a pair, and the lowest failing
    # (demand, coverer) pair is named.  Rows ascend, so only the slice
    # between the face's lowest and highest link can hold its links.
    position = {lidx: c for c, (lidx, _, _, _) in enumerate(circle.coverers)}
    first, last = (min(position), max(position)) if position else (0, -1)
    cuts = []
    for d_idx, (f_set, d_chord) in enumerate(circle.demands):
        row = table[f_set]
        cut = 0
        for idx in row[bisect.bisect_left(row, first):bisect.bisect_right(row, last)]:
            c_idx = position.get(idx)
            if c_idx is not None:
                cut |= 1 << c_idx
        geo, rect = system.crossing[d_idx], system.held[d_idx]
        bad = (geo ^ cut) | (geo ^ rect) | system.touching[d_idx]
        if bad:
            c_idx = (bad & -bad).bit_length() - 1
            lidx, c_chord, _, _ = circle.coverers[c_idx]
            raise InvariantError(
                "chord/rectangle/cut disagreement on face "
                f"{face}: demand {sorted(f_set)}, link {lidx}",
                payload={"demand": d_chord, "coverer": c_chord,
                         "geo": bool(geo >> c_idx & 1), "cut": bool(cut >> c_idx & 1),
                         "rect": bool(rect >> c_idx & 1)})
        cuts.append(cut)
    chosen_cov = 0
    for demands, holders in ((system.left_demands, system.in_left),
                             (system.top_demands, system.in_top)):
        if not demands:
            continue
        members = [0] * len(circle.coverers)
        for pos, d_idx in enumerate(demands):
            for c_idx in holders[d_idx]:
                members[c_idx] |= 1 << pos
        sets = [(c_cost, members[c_idx])
                for c_idx, (_, _, c_cost, _) in enumerate(circle.coverers)]
        try:
            _, picked = exact_min_cover(len(demands), sets)
        except BudgetError as exc:
            raise BudgetError(f"level {level}, face {face}: anchored-side cover",
                              exc.budget) from None
        for c_idx in picked:
            chosen_cov |= 1 << c_idx
    chosen = tuple(sorted(circle.coverers[c][0] for c in bit_positions(chosen_cov)))

    for f_set, cut in zip(scenarios, cuts):
        if not cut & chosen_cov:
            raise InvariantError(
                f"rounded face {face} leaves failure set {sorted(f_set)} uncovered",
                payload={"chosen": chosen})
    cost = float(sum(cover.links[idx].cost for idx in chosen))
    if cost > bound + ROUND_SLACK:
        raise InvariantError(
            f"face {face} rounding cost {cost} exceeds its bound {bound}",
            payload={"chosen": chosen, "lp_face_cost": lp_face_cost,
                     "level": level})
    record = _record_face(ctx, face, scenarios, cover, values, link_ids, chosen, cost,
                          lp_face_cost, bound, circle, system, cuts)
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
