"""End-to-end solver: base solution, augmentation levels, audit trace.

The base solution is a cheapest s-t path (or a minimum spanning tree),
then one augmentation per level i = 1..k makes the solution survive every
failure of i edges from a single scenario.  Every level has one shape:
the current solution induces faces, the typed links of those faces go in,
and a cover step returns the links it picks and their cost.  At level 1 the contracted path or tree induces exactly one face and
the cover is exact (an interval DP on the path, an exact cut cover on the
tree); levels two and up run the LP plus per-face rounding.  Only those
levels read face walks: `preprocess_step` gives level 1 its one face from
the check that the kept edges form a tree, with no contracted rotation
and no face trace.

Every level reads the cover relation from `StepContext.side_masks`, the
cut side of each solution node per failure set, built by `preprocess_step`
from one checked parity walk over the kept edges: a link covers the set
bits of the XOR of its ends' masks (`StepContext.cover_masks`).  At level
1 the failure sets are the edges of the path or tree.  On the tree they
are the elements of an exact cut cover, one set per link.  When the
tree's one face takes the closure (every tree-cover face does), the cover
reads its sets from the closure's arrays and the unpacked side masks
(`StepContext.cover_candidates`), calls `cover_search` on them, and builds
a TypedLink for each pick only; a smaller tree's face, with Dijkstra
maps, hands the links' XORs to `exact_min_cover` undecoded.  On the path a
node's position is the popcount of its mask XOR s's: a link covers the
positions between its ends'.  The path step checks that the positions run
from s to t.

The exact searches own their budget (`setcover.NODE_CAP` nodes, and the
simplex's pivot cap); past it `solve` raises `BudgetError` naming the
level.  Every guarantee the algorithm relies on is re-checked at runtime,
and the trace records enough per-level and per-face data to audit a run
after the fact.

Feasibility checks go through the instance's `Feasibility` table of the
current solution X, one per distinct X: the base solution's and one per
level that adds edges.  Each is built from its X alone, in one forest
pass.  A table answers each failure size once (`Feasibility.failures`):
the check in `solve` after level i is level i + 1's precondition, and
after a level that adds no edge it is the answer that level's
preprocessing found.  The final check that X meets the base requirement
reads `Feasibility.holds` from the last level's table, or with k = 0 from
the base solution's.
"""

from dataclasses import dataclass, field

from .errors import BudgetError, InvariantError
from .instance import _union
from .links import (TypedLink, closure_pairs, enumerate_typed_links, face_graphs,
                    lex_shortest_path, preprocess_step, takes_closure)
from .lp import solve_link_lp
from .rounding import cover_intervals_exact, partition_scenarios, round_face
from .setcover import cover_search, exact_min_cover


@dataclass
class LevelTrace:
    level: int
    omega_size: int
    contracted: tuple = ()
    lp_value: float = None
    round_cost: float = 0.0
    bound: float = None
    added: tuple = ()
    added_cost: int = 0
    faces: list = field(default_factory=list)
    cut_face_checks: int = 0

    def to_dict(self):
        return {
            "level": self.level,
            "omega_size": self.omega_size,
            "contracted_edges": sorted(self.contracted),
            "lp_value": self.lp_value,
            "round_cost": self.round_cost,
            "bound": self.bound,
            "added_edges": sorted(self.added),
            "added_cost": self.added_cost,
            "faces": self.faces,
            "cut_face_checks": self.cut_face_checks,
        }


@dataclass
class SolveTrace:
    problem: str
    k: int
    base_edges: tuple
    base_cost: int
    levels: list = field(default_factory=list)
    alg_cost: int = 0
    guarantee_factor: int = 1

    def to_dict(self):
        return {
            "problem": self.problem,
            "k": self.k,
            "base_edges": sorted(self.base_edges),
            "base_cost": self.base_cost,
            "levels": [lv.to_dict() for lv in self.levels],
            "alg_cost": self.alg_cost,
            "guarantee_factor": self.guarantee_factor,
        }


def guarantee_factor(k):
    """Worst-case ratio of the algorithm: 1 + 8k(k+1)."""
    return 1 + 8 * k * (k + 1)


def shortest_st_path(instance):
    """Cheapest s-t path, deterministic edge-sequence tie-breaking."""
    found = lex_shortest_path(instance.graph.adjacency, instance.s, instance.t)
    if found is None:
        raise InvariantError("terminals are disconnected despite validation")
    return frozenset(found[1])


def minimum_spanning_tree(instance):
    """Kruskal with (weight, edge id) ordering."""
    parent = list(range(instance.node_count))
    return frozenset(e for e, u, v, _ in sorted(instance.edges, key=lambda r: (r[3], r[0]))
                     if _union(parent, u, v))


def _cover_path(ctx, links):
    """Level 1 on the s-t path: a node's position is the number of failure
    edges between it and s, and a link covers the failure edges between its
    ends' positions, so the cover is an interval DP.  The cuts are an s-t
    path's exactly when the positions are 0 .. |nodes| - 1 and t has the
    last one."""
    root = ctx.side_masks[ctx.s]
    pos = {node: (mask ^ root).bit_count() for node, mask in ctx.side_masks.items()}
    if sorted(pos.values()) != list(range(len(pos))) or pos[ctx.t] != len(pos) - 1:
        raise InvariantError("level-1 solution is not an s-t path")
    intervals = []
    for link in links:
        a, b = sorted((pos[link.u], pos[link.v]))
        intervals.append((a, b - 1, link.cost))
    picked, total = cover_intervals_exact(range(len(ctx.omega)), intervals)
    return [links[i] for i in picked], total


def _cover_tree(ctx):
    """Level 1 on the spanning tree: an exact cover of the tree-edge cuts,
    one set per link, holding the failure sets it covers.  When the tree's
    one face takes the closure, the sets come from its arrays
    (`StepContext.cover_candidates`) and only the picked links are built;
    otherwise from the links' side-mask XORs."""
    faces = face_graphs(ctx)
    try:
        if len(faces) == 1 and takes_closure(*faces[0]):
            adj, ends = faces[0]
            maps, first, second, costs = closure_pairs(adj, ends)
            ctx.face_maps[0] = (adj, maps)
            candidates = ctx.cover_candidates(ends, first, second, costs)
            costs = costs.tolist()
            total, picked = cover_search(candidates, costs)
            return [TypedLink(ends[first[i]], ends[second[i]], 0, costs[i])
                    for i in picked], total
        links = enumerate_typed_links(ctx, faces)
        total, picked = exact_min_cover(
            len(ctx.omega), list(zip([link.cost for link in links], ctx.cover_masks(links))))
    except BudgetError as exc:
        raise BudgetError("level-1 spanning-tree cover", exc.budget) from None
    return [links[i] for i in picked], total


def _round_faces(ctx, links, trace, on_lp):
    """Levels 2 and up: the link LP, then every face rounded on its circle."""
    level = ctx.level
    try:
        cover = solve_link_lp(ctx, links)
    except BudgetError as exc:
        raise BudgetError(f"level {level} link LP", exc.budget) from None
    if on_lp is not None:
        on_lp(level, ctx, links, cover)
    trace.lp_value = cover.objective
    trace.bound = 8.0 * level * cover.objective
    partition = partition_scenarios(ctx, cover)
    picked = []
    total = 0.0
    for face in sorted(set(partition.face_scenarios) | set(partition.face_links)):
        rounded = round_face(ctx, cover, partition, face)
        trace.faces.append(rounded.record)
        total += rounded.cost
        picked.extend(links[i] for i in rounded.chosen)
    if total > trace.bound + 1e-6:
        raise InvariantError(
            f"level {level} rounding cost {total} exceeds 8i * lp "
            f"= {trace.bound}")
    return picked, total


def augment_step(instance, x_edges, level, on_lp=None):
    """One augmentation level; returns (added edge set, LevelTrace).

    One cover step picks among the typed links of the faces X induces and
    returns the picked links and their cost; `solve` checks that X plus
    their paths meets the level's contract.  The tree step reads a closure
    face's links as arrays and builds only the picked ones, so it takes no
    tuple of links.
    """
    ctx = preprocess_step(instance, x_edges, level)
    trace = LevelTrace(level=level, omega_size=len(ctx.omega))
    if not ctx.omega:
        return frozenset(), trace
    trace.contracted = ctx.contracted
    trace.cut_face_checks = ctx.cut_face_checks

    if level > 1:
        picked, total = _round_faces(ctx, enumerate_typed_links(ctx), trace, on_lp)
    else:
        try:
            if instance.problem == "st":
                picked, total = _cover_path(ctx, enumerate_typed_links(ctx))
            else:
                picked, total = _cover_tree(ctx)
        except ValueError as exc:
            raise InvariantError(f"level-1 augmentation impossible: {exc}") from None
    added = frozenset(e for link in picked for e in ctx.link_path(link))
    trace.round_cost = float(total)
    trace.added = tuple(sorted(added))
    trace.added_cost = instance.weight_of(added)
    return added, trace


def solve(instance, on_lp=None):
    """Full solve; returns (edge set, SolveTrace).

    The returned set is verified feasible: after level i against every
    min(i, |F_j|)-edge subset of every scenario F_j.  k is the largest
    scenario size, so the check after level k covers every full scenario.
    """
    if instance.problem == "st":
        base = shortest_st_path(instance)
    else:
        base = minimum_spanning_tree(instance)
    k = instance.k
    trace = SolveTrace(
        problem=instance.problem,
        k=k,
        base_edges=tuple(sorted(base)),
        base_cost=instance.weight_of(base),
        guarantee_factor=guarantee_factor(k),
    )
    x = base
    for level in range(1, k + 1):
        added, level_trace = augment_step(instance, x, level, on_lp=on_lp)
        if added & x:
            raise InvariantError("augmentation re-added already chosen edges")
        x = x | added
        trace.levels.append(level_trace)
        if failed := instance.feasibility(x).failures(level):
            sub, (j, _) = next(iter(failed.items()))
            raise InvariantError(
                f"after level {level}, removing {sorted(sub)} of scenario "
                f"{j} still disconnects the requirement")

    if not instance.feasibility(x).holds:
        raise InvariantError("final solution fails the base requirement")

    trace.alg_cost = instance.weight_of(x)
    if trace.alg_cost != trace.base_cost + sum(lv.added_cost for lv in trace.levels):
        raise InvariantError("cost bookkeeping mismatch across levels")
    return x, trace


def solution_dict(instance, x, trace):
    """The solution file payload."""
    return {
        "chosen_edges": sorted(x),
        "cost": instance.weight_of(x),
        "trace": trace.to_dict(),
    }
