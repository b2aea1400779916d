"""Per-augmentation-level preprocessing and typed-link enumeration.

A level-i step receives the current solution X (feasible when at most i-1
edges of any one scenario fail) and prepares everything the LP and the
rounding stage need: the relevant failure sets, the contracted embedded
subgraph, the two-sided cuts, and the per-face shortest-path links.

The X edges in no relevant failure set are contracted in one pass
(`PlaneGraph.contract`), not with one copy of the graph per edge.

A link covers a relevant failure set iff its endpoints lie on different
sides of that set's two-sided cut: `covers` for one pair.  The relation is
computed once per level by `StepContext.covering`, and the LP, the face
partition, the rounding and the trace all read that one table.

Feasibility questions go through the instance's `Feasibility` table of X:
O(n + |X|) per scenario to build, once per distinct X, then O(k) per
failure subset.  The no-bridge guarantee of the contracted solution is
checked by one depth-first pass, O(|kept|).
"""

import heapq
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

from .errors import BudgetError, InvariantError
from .instance import UnionFind, induced_faces

OMEGA_CAP = 10 ** 5


# -- deterministic shortest paths -----------------------------------------

def dijkstra(adj, source):
    """Distance map from source; adj maps node -> ((edge_id, other, w), ...)."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for _, other, w in adj.get(node, ()):
            nd = d + w
            if nd < dist.get(other, float("inf")):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


def lex_shortest_path(adj, src, dst, dist=None):
    """Minimum-cost simple src-dst path; ties broken by the lexicographically
    smallest edge-id sequence.  Returns (cost, edge id tuple) or None.

    Runs a depth-first search in increasing edge-id order, pruned with exact
    distances to the target, and stops at the first optimum it completes;
    that path is the lexicographic minimum.  The search keeps its own stack,
    so path length is not limited by Python's recursion limit.  `dist` is
    `dijkstra(adj, dst)` when the caller already has it.
    """
    if src == dst:
        return 0, ()
    if dist is None:
        dist = dijkstra(adj, dst)
    if src not in dist:
        return None
    best = dist[src]
    path = []
    visited = {src}
    stack = [(src, 0, iter(adj.get(src, ())))]
    while stack:
        node, cost, todo = stack[-1]
        for eid, other, w in todo:
            if other in visited:
                continue
            rest = dist.get(other)
            if rest is None or cost + w + rest > best:
                continue
            path.append(eid)
            if other == dst:
                return best, tuple(path)
            visited.add(other)
            stack.append((other, cost + w, iter(adj.get(other, ()))))
            break
        else:
            stack.pop()
            if stack:
                path.pop()
                visited.remove(node)
    raise InvariantError("pruned path search missed a reachable target")


def lex_shortest_paths(adj, pairs):
    """`lex_shortest_path` for each (src, dst) pair, in order, skipping pairs
    with an endpoint outside `adj`; yields (src, dst, result).  Pairs with the
    same destination share one distance map."""
    dists = {}
    for src, dst in pairs:
        if src not in adj or dst not in adj:
            continue
        dist = dists.get(dst)
        if dist is None:
            dist = dists[dst] = dijkstra(adj, dst)
        yield src, dst, lex_shortest_path(adj, src, dst, dist)


# -- step data -------------------------------------------------------------

@dataclass(frozen=True)
class TypedLink:
    """A shortest path between two boundary nodes, confined to one induced face."""

    u: int
    v: int
    face: int
    path: tuple      # edge ids, all assigned to `face`
    cost: int


@dataclass(frozen=True)
class FailureCut:
    """The two components a relevant failure set leaves behind."""

    scenario: frozenset
    side_s: frozenset
    side_t: frozenset


@dataclass
class StepContext:
    """Everything one augmentation level needs; immutable but for its covering cache."""

    instance: object
    level: int
    x_edges: frozenset
    omega: tuple                    # relevant failure sets, deterministic order
    omega_scenario: dict = field(default_factory=dict)  # failure set -> a scenario holding it
    graph: object = None            # contracted PlaneGraph
    node_map: dict = field(default_factory=dict)   # original node -> contracted node
    kept_x: frozenset = frozenset()
    e_rest: dict = field(default_factory=dict)     # candidate edge ids -> (u, v, w)
    subgraph: object = None         # EmbeddedSubgraph of (graph, kept_x)
    contracted: tuple = ()          # X edges contracted away
    cuts: dict = field(default_factory=dict)       # failure set -> FailureCut
    scenario_faces: dict = field(default_factory=dict)  # failure set -> face indices
    s: int = None
    t: int = None
    cut_face_checks: int = 0        # validated (failure set, face) pairs

    def covering(self, links):
        """For each failure set of omega, the ascending indices of the
        TypedLinks that cover it; the last table is kept."""
        links = tuple(links)
        cached = self.__dict__.get("_covering")
        if cached is not None and cached[0] == links:
            return cached[1]
        if not self.omega:
            return {}
        ends = [(link.u, link.v) for link in links]
        for node in chain.from_iterable(ends):
            if node not in self.subgraph.nodes:
                raise ValueError(f"node {node} is not incident to the current solution")
        table = {}
        for f_set in self.omega:
            side = self.cuts[f_set].side_s
            table[f_set] = tuple(i for i, (u, v) in enumerate(ends)
                                 if (u in side) != (v in side))
        self._covering = (links, table)
        return table


def bridges(edges):
    """Sorted ids of the bridges of a multigraph given as (id, u, v) rows.

    One iterative depth-first pass (Tarjan 1974): the edge into a node is a
    bridge iff no edge from that node's subtree reaches above it.  The edge
    into a node is skipped by id, not by the parent node, so an edge
    parallel to it counts as a way back and parallel edges are never
    bridges.
    """
    adj = {}
    for e, u, v in edges:
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    order = {}      # node -> discovery index
    low = {}        # node -> lowest discovery index its subtree reaches
    found = []
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            node, via, todo = stack[-1]
            for e, other in todo:
                if e == via:
                    continue
                if other in order:
                    low[node] = min(low[node], order[other])
                else:
                    order[other] = low[other] = len(order)
                    stack.append((other, e, iter(adj[other])))
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > order[parent]:
                        found.append(via)
    return sorted(found)


def preprocess_step(instance, x_edges, level):
    """Build the StepContext for augmentation level `level`.

    Enumerates the relevant failure sets (size-`level` subsets of input
    scenarios that disconnect the requirement in (V, X)), contracts every
    X edge that appears in none of them, and validates the structural
    guarantees the later stages rely on.
    """
    x = frozenset(x_edges)
    if not x <= instance.edge_ids:
        raise ValueError("X contains unknown edge ids")
    if not 1 <= level:
        raise ValueError("level must be >= 1")

    # X must survive every failure of fewer than `level` edges.
    feasible = instance.feasibility(x)
    for jdx, full in enumerate(instance.scenario_sets):
        size = min(level - 1, len(full))
        for sub in combinations(sorted(full), size):
            if not feasible.holds(jdx, sub):
                raise ValueError(
                    f"X is not feasible for level {level - 1}: removing "
                    f"{sorted(sub)} from scenario {jdx} disconnects it")

    total = sum(comb(len(f), level) for f in instance.scenario_sets if len(f) >= level)
    if total > OMEGA_CAP:
        raise BudgetError(
            f"failure-set enumeration needs {total} subsets (cap {OMEGA_CAP})")

    relevant = {}
    for jdx, full in enumerate(instance.scenario_sets):
        if len(full) < level:
            continue
        for sub in combinations(sorted(full), level):
            fs = frozenset(sub)
            if not fs <= x:
                continue  # removal reduces to a smaller subset, never disconnects
            if fs in relevant:
                continue
            if not feasible.holds(jdx, sub):
                relevant[fs] = jdx
    omega = tuple(sorted(relevant, key=lambda f: tuple(sorted(f))))

    ctx = StepContext(instance=instance, level=level, x_edges=x, omega=omega,
                      omega_scenario=relevant)
    if not omega:
        return ctx

    union_omega = frozenset().union(*omega)
    if not union_omega <= x:
        raise InvariantError("a relevant failure set contains a non-X edge")

    graph, node_map, contracted, loops = instance.graph.contract(x - union_omega)
    if union_omega.intersection(loops):
        raise InvariantError("contraction deleted an edge of a relevant failure set")
    if graph.euler_defect() != 0:
        raise InvariantError("contracted graph lost its planar embedding")

    kept = union_omega
    sub_nodes = frozenset(n for e in kept for n in graph.endpoints(e))
    if level >= 2:
        found = bridges((e, *graph.endpoints(e)) for e in kept)
        if found:
            raise InvariantError(
                f"edge {found[0]} is a bridge of the contracted solution at level {level}")

    subgraph = induced_faces(graph, kept)
    e_rest = {e: graph.edges[e] for e in sorted(graph.edges) if e not in kept}

    cuts = {}
    for f_set in omega:
        uf = UnionFind(sub_nodes)
        for e in kept:
            if e not in f_set:
                uf.union(*graph.endpoints(e))
        comps = uf.components()
        if len(comps) != 2:
            raise InvariantError(
                f"failure set {sorted(f_set)} leaves {len(comps)} components, "
                "expected exactly 2")
        if instance.problem == "st":
            s_c = node_map[instance.s]
            first = comps[0] if s_c in comps[0] else comps[1]
        else:
            first = comps[0] if min(sub_nodes) in comps[0] else comps[1]
        second = comps[1] if first is comps[0] else comps[0]
        for e in f_set:
            u, v, _ = graph.edges[e]
            if (u in first) == (v in first):
                raise InvariantError(
                    f"edge {e} of failure set {sorted(f_set)} does not cross its cut")
        cuts[f_set] = FailureCut(f_set, frozenset(first), frozenset(second))

    scenario_faces = {}
    checks = 0
    if level >= 2:
        face_edges = subgraph.face_edge_sets
        for f_set in omega:
            two_sided = []
            for idx, edges_on_face in enumerate(face_edges):
                cnt = len(f_set & edges_on_face)
                checks += 1
                if cnt not in (0, 2):
                    raise InvariantError(
                        f"face {idx} carries {cnt} edges of failure set "
                        f"{sorted(f_set)}; expected 0 or 2")
                if cnt == 2:
                    two_sided.append(idx)
            if len(two_sided) != level:
                raise InvariantError(
                    f"failure set {sorted(f_set)} lies on {len(two_sided)} faces, "
                    f"expected exactly {level}")
            scenario_faces[f_set] = tuple(two_sided)

    ctx.graph = graph
    ctx.node_map = node_map
    ctx.kept_x = kept
    ctx.e_rest = e_rest
    ctx.subgraph = subgraph
    ctx.contracted = contracted
    ctx.cuts = cuts
    ctx.scenario_faces = scenario_faces
    ctx.cut_face_checks = checks
    if instance.problem == "st":
        ctx.s = node_map[instance.s]
        ctx.t = node_map[instance.t]
    return ctx


def failure_components(ctx, f_set):
    """The two-sided cut of a relevant failure set."""
    cut = ctx.cuts.get(frozenset(f_set))
    if cut is None:
        raise ValueError(f"{sorted(f_set)} is not a relevant failure set of this step")
    return cut


def covers(link_or_pair, cut):
    """True iff the link's endpoints lie on different sides of the cut.

    Depends only on the endpoints, never on the representative path.
    """
    if isinstance(link_or_pair, TypedLink):
        u, v = link_or_pair.u, link_or_pair.v
    else:
        u, v = link_or_pair
    for node in (u, v):
        if node not in cut.side_s and node not in cut.side_t:
            raise ValueError(f"node {node} is not incident to the current solution")
    return (u in cut.side_s) != (v in cut.side_s)


def covered_by(table, f_sets):
    """Link index -> ascending positions in `f_sets` of the sets it covers,
    read from a `StepContext.covering` table."""
    found = {}
    for pos, f_set in enumerate(f_sets):
        for idx in table[f_set]:
            found.setdefault(idx, []).append(pos)
    return found


def enumerate_typed_links(ctx):
    """All face-confined shortest-path links between boundary node pairs.

    For each induced face and each unordered pair of distinct boundary
    nodes, the cheapest path through the candidate edges assigned to that
    face (omitted when none exists).  Tie-breaking is deterministic.
    """
    links = []
    face_edge_lists = {}
    for e, f in ctx.subgraph.edge_face.items():
        face_edge_lists.setdefault(f, []).append(e)
    for face_idx in range(len(ctx.subgraph.faces)):
        pool = sorted(face_edge_lists.get(face_idx, ()))
        if not pool:
            continue
        adj = {}
        for e in pool:
            u, v, w = ctx.e_rest[e]
            adj.setdefault(u, []).append((e, v, w))
            adj.setdefault(v, []).append((e, u, w))
        adj = {n: tuple(sorted(lst)) for n, lst in adj.items()}
        boundary = sorted(ctx.subgraph.face_nodes[face_idx])
        for u, v, found in lex_shortest_paths(adj, combinations(boundary, 2)):
            if found is not None:
                links.append(TypedLink(u, v, face_idx, found[1], found[0]))
    return tuple(links)
