"""End-to-end solver: base solution, augmentation levels, audit trace.

The base solution is a cheapest s-t path (or a minimum spanning tree),
then one augmentation per level i = 1..k makes the solution survive every
failure of i edges from a single scenario.  Level 1 is solved exactly
(interval covering on the path, exact cut covering on the tree); levels
two and up run the LP plus per-face rounding.  Every guarantee the
algorithm relies on is re-checked at runtime, and the trace records enough
per-level and per-face data to audit a run after the fact.

On the tree, level 1 covers every relevant failure set with cheapest
detours between pairs of tree nodes: the typed links of the one face the
contracted tree induces.  An exact branch and bound picks them.  It and
the two anchored-side covers of every rounded face may each visit at most
`NODE_CAP` nodes; past that `solve` raises `BudgetError`.

Feasibility checks go through the instance's `Feasibility` table of the
current solution X: O(n + |X|) per scenario, built once per distinct X
(so once per level), then O(k) per failure subset.  The table of X after
level i serves this level's checks here and level i + 1's preprocessing.
"""

from dataclasses import dataclass, field

from itertools import combinations

from .errors import BudgetError, InvariantError
from .instance import UnionFind
from .links import (covered_by, enumerate_typed_links, lex_shortest_path,
                    lex_shortest_paths, preprocess_step)
from .lp import solve_link_lp
from .rounding import cover_intervals_exact, partition_scenarios, round_face
from .setcover import exact_min_cover

# Search nodes each exact cover inside `solve` may visit (the level-1 tree
# and every anchored side); the largest search in the benchmark's tree-cover
# and small-mix workloads (seeds 101 and 102) visits under 10**5.
NODE_CAP = 10 ** 6


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
    opt: int = None
    ratio: float = None

    def to_dict(self):
        return {
            "problem": self.problem,
            "k": self.k,
            "base_edges": sorted(self.base_edges),
            "base_cost": self.base_cost,
            "levels": [lv.to_dict() for lv in self.levels],
            "alg_cost": self.alg_cost,
            "guarantee_factor": self.guarantee_factor,
            "opt": self.opt,
            "ratio": self.ratio,
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
    uf = UnionFind(range(instance.node_count))
    chosen = []
    for e, u, v, w in sorted(instance.edges, key=lambda r: (r[3], r[0])):
        if uf.union(u, v):
            chosen.append(e)
    return frozenset(chosen)


def _walk_path(ctx):
    """Order the contracted solution path from s to t; returns (nodes, edge ids)."""
    adj = {}
    for e in ctx.kept_x:
        u, v, _ = ctx.graph.edges[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    for node, nbrs in adj.items():
        expected = 1 if node in (ctx.s, ctx.t) else 2
        if len(nbrs) != expected:
            raise InvariantError(
                f"level-1 solution is not an s-t path (degree {len(nbrs)} at {node})")
    nodes = [ctx.s]
    edges = []
    prev_edge = None
    while nodes[-1] != ctx.t:
        options = [(e, nxt) for e, nxt in adj[nodes[-1]] if e != prev_edge]
        if len(options) != 1:
            raise InvariantError("level-1 solution is not an s-t path")
        prev_edge, nxt = options[0]
        edges.append(prev_edge)
        nodes.append(nxt)
    return nodes, edges


def _rest_adjacency(ctx):
    adj = {}
    for e in sorted(ctx.e_rest):
        u, v, w = ctx.e_rest[e]
        adj.setdefault(u, []).append((e, v, w))
        adj.setdefault(v, []).append((e, u, w))
    return {n: tuple(sorted(lst)) for n, lst in adj.items()}


def _detour_links(ctx, endpoints):
    """Cheapest candidate-edge paths between the given solution nodes."""
    return [(u, v, found[0], found[1]) for u, v, found
            in lex_shortest_paths(_rest_adjacency(ctx), endpoints)
            if found is not None]


def _augment_level1_st(ctx, trace):
    nodes, path_edges = _walk_path(ctx)
    pos_of_node = {n: i for i, n in enumerate(nodes)}
    pos_of_edge = {e: i for i, e in enumerate(path_edges)}
    points = sorted(pos_of_edge[next(iter(f))] for f in ctx.omega)

    detours = _detour_links(ctx, combinations(nodes, 2))
    intervals = []
    for u, v, cost, path in detours:
        a, b = sorted((pos_of_node[u], pos_of_node[v]))
        intervals.append((a, b - 1, cost))
    try:
        picked, total = cover_intervals_exact(points, intervals)
    except ValueError as exc:
        raise InvariantError(f"level-1 augmentation impossible: {exc}") from None
    added = frozenset(e for i in picked for e in detours[i][3])
    trace.round_cost = float(total)
    return added


def _augment_level1_mst(ctx, trace):
    links = enumerate_typed_links(ctx)     # the contracted tree induces one face
    covered = covered_by(ctx.covering(links), ctx.omega)
    sets = [(link.cost, covered.get(i, [])) for i, link in enumerate(links)]
    try:
        total, picked = exact_min_cover(len(ctx.omega), sets, node_cap=NODE_CAP)
    except ValueError as exc:
        raise InvariantError(f"level-1 augmentation impossible: {exc}") from None
    except BudgetError:
        raise BudgetError(
            f"level-1 spanning-tree cover exceeded its budget of {NODE_CAP} "
            "search nodes") from None
    added = frozenset(e for i in picked for e in links[i].path)
    trace.round_cost = float(total)
    return added


def augment_step(instance, x_edges, level, on_lp=None):
    """One augmentation level; returns (added edge set, LevelTrace).

    Wherever the solution changes hands the contract is re-checked: the
    result must cover every relevant failure set of this level.
    """
    ctx = preprocess_step(instance, x_edges, level)
    trace = LevelTrace(level=level, omega_size=len(ctx.omega))
    if not ctx.omega:
        return frozenset(), trace
    trace.contracted = ctx.contracted
    trace.cut_face_checks = ctx.cut_face_checks

    if level == 1:
        if instance.problem == "st":
            added = _augment_level1_st(ctx, trace)
        else:
            added = _augment_level1_mst(ctx, trace)
    else:
        links = enumerate_typed_links(ctx)
        cover = solve_link_lp(ctx, links)
        if on_lp is not None:
            on_lp(level, ctx, links, cover)
        trace.lp_value = cover.objective
        trace.bound = 8.0 * level * cover.objective
        partition = partition_scenarios(ctx, cover)
        added = set()
        total = 0.0
        for face in sorted(set(partition.face_scenarios) | set(partition.face_links)):
            rounded = round_face(ctx, cover, partition, face, NODE_CAP)
            trace.faces.append(rounded.record)
            total += rounded.cost
            for idx in rounded.chosen:
                added.update(cover.links[idx].path)
        trace.round_cost = total
        if total > trace.bound + 1e-6:
            raise InvariantError(
                f"level {level} rounding cost {total} exceeds 8i * lp "
                f"= {trace.bound}")
        added = frozenset(added)

    feasible = instance.feasibility(frozenset(x_edges) | added)
    for f_set in ctx.omega:
        if not feasible.holds(ctx.omega_scenario[f_set], f_set):
            raise InvariantError(
                f"augmentation at level {level} leaves failure set "
                f"{sorted(f_set)} disconnecting")
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
        feasible = instance.feasibility(x)
        for jdx, full in enumerate(instance.scenario_sets):
            size = min(level, len(full))
            for sub in combinations(sorted(full), size):
                if not feasible.holds(jdx, sub):
                    raise InvariantError(
                        f"after level {level}, removing {sorted(sub)} of scenario "
                        f"{jdx} still disconnects the requirement")

    if not instance.requirement_holds(x):
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
