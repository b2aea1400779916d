"""Per-augmentation-level preprocessing and typed-link enumeration.

A level-i step receives the current solution X (feasible when at most i-1
edges of any one scenario fail) and prepares everything the LP and the
rounding stage need: the relevant failure sets, the contracted embedded
subgraph, the two-sided cuts, and the per-face shortest-path links.
A typed link is (u, v, face, cost): the LP, the covers and the rounding
read nothing else (the level-1 tree cover of a closure face reads the
same ends and costs as arrays), and `StepContext.link_path` builds the
edges of the links a level picks, O(picked) path searches instead of one
per link.

A face's links need the path cost between every pair of its ends.  A face
whose candidate edges touch only ends, at least `CLOSURE_MIN_ENDS` of them
(10, from the measured crossover; `takes_closure`), reads them all from
one int64 Floyd-Warshall closure over its ends (`face_closure`): the
level-1 tree face is one, since every contracted node is a solution node.
`closure_pairs` gives such a face's links as arrays (pair ends and
costs); `enumerate_typed_links` builds its TypedLinks from them, and the
level-1 tree cover reads them without building any.  Every other face
runs one Dijkstra per far end: faces with nodes that are not ends, where
the closure would relax through every node, and small faces, where
numpy's fixed cost per call loses.  Both give the same links in the same
order, and `link_path` reads the distance map to `link.v` from either.

The X edges in no relevant failure set are contracted in one pass, not with
one copy of the graph per edge.  At levels >= 2 `PlaneGraph.contract` walks
the instance graph's darts (parse's), and `induced_faces` walks the
contracted graph's, built once for its Euler check, restricted to the kept
edges.  Level 1 reads no face walk, so it takes only the node grouping
(`PlaneGraph.group`) and checks that the kept edges form a tree on their
ends: connected, one edge fewer than nodes.  A tree in a connected plane
graph induces exactly one face, so every candidate edge lies on face 0,
whose nodes are the solution's (`TreeFace`).  The instance's embedding was
checked once at parse, and no contracted graph is built.

A link covers a relevant failure set iff its endpoints lie on different
sides of that set's two-sided cut.  `preprocess_step` stores every cut as
one bit per set in each solution node's side mask, so a link covers the
set bits of its ends' masks XORed (`StepContext.cover_masks`).  Every level
reads that one relation: the level-1 path cover reads the masks; the
level-1 tree cover, on a face that takes the closure, unpacks them into a
boolean matrix and reads each set's covering pairs from it
(`StepContext.cover_candidates`), and on a face with Dijkstra maps hands
the links' XORs to `exact_min_cover` undecoded; at levels >= 2 the table
`StepContext.covering` decodes them once per level for the LP, the face
partition, the rounding and the trace.

Feasibility questions go through the instance's `Feasibility` table of X,
built once per distinct X.  `Feasibility.failures(level)` gives the
relevant sets, each with its first scenario and the number of components
its removal leaves around s, t and the ends of that scenario's X edges.
No component label is read back: a node's side of a set is the parity of
the set's edges on a path of kept edges from the anchor, so one walk over
the kept edges gives every side mask, O(|kept|) big-int XORs (see
`preprocess_step`).

At level >= 2 no pass looks for bridges of the contracted solution: the
face check rules them out.  Every kept edge lies in a relevant failure set,
and in the connected solution a non-bridge borders two distinct induced
faces, a bridge one.  The face check wants 2 * level edge-face incidences
from each set's `level` edges (0 or 2 on every face, 2 on exactly `level`
faces), which a set holding a bridge cannot give.  Each set's faces are
read from the edge-to-face map of the induced faces, O(level) per set.
"""

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, repeat
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, InvariantError
from .instance import _merge, induced_faces

OMEGA_CAP = 10 ** 5
_INF = float("inf")

# Faces with at least this many ends, and no other nodes, take the closure.
# Measured per face, `enumerate_typed_links` with either build forced (best
# of 15, in-process, 2-core x86-64 VM, Python 3.11, numpy 2.4), on the
# level-1 faces of small spanning-tree grids plus every such face of the
# benchmark's seed-101 workloads: the closure took 1.13-1.45 times the
# Dijkstra maps' time at 8 ends, 0.94-1.05 at 9, 0.76-0.90 at 10 and about
# 0.35 on the level-1 tree faces of 25-43 ends (0.3-0.9 ms against 0.8-2.7).
# At 9, hvc-lp's 9-end faces took the closure, and its peak RSS rose 0.3 MB.
CLOSURE_MIN_ENDS = 10
# The closure's "no path" entry: above every path cost (the total weight is
# at most 2**53), and the sum of two still fits in an int64.
_UNREACHED = np.iinfo(np.int64).max // 2


# -- deterministic shortest paths -----------------------------------------

def dijkstra(adj, source):
    """Distance map from source; adj maps node -> ((edge_id, other, w), ...)."""
    dist = {source: 0}
    heap = [(0, source)]
    pop, push, get = heapq.heappop, heapq.heappush, dist.get
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        for _, other, w in adj.get(node, ()):
            nd = d + w
            if nd < get(other, _INF):
                dist[other] = nd
                push(heap, (nd, other))
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


def face_closure(adj, ends):
    """All-pairs path costs of a graph whose nodes are `ends` (ascending):
    an int64 matrix over `ends`, `_UNREACHED` where no path exists.  The
    cheapest of any parallel edges seeds it, then Floyd-Warshall relaxes
    through each end in turn, one min-plus pass per end."""
    index = {n: i for i, n in enumerate(ends)}
    rows, cols, weights = [], [], []
    for node, lst in adj.items():
        i = index[node]
        for _, other, w in lst:
            rows.append(i)
            cols.append(index[other])
            weights.append(w)
    size = len(ends)
    dist = np.full((size, size), _UNREACHED, dtype=np.int64)
    np.minimum.at(dist, (rows, cols), weights)
    np.fill_diagonal(dist, 0)
    for k in range(size):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return dist


class ClosureMaps:
    """end -> distance map of a closure face, read from the end's row of
    `face_closure` when asked: the map `dijkstra(adj, end)` gives, up to
    key order."""

    def __init__(self, ends, dist):
        self.ends = ends
        self.dist = dist

    def __getitem__(self, end):
        row = self.dist[bisect_left(self.ends, end)].tolist()
        return {n: d for n, d in zip(self.ends, row) if d != _UNREACHED}


# -- step data -------------------------------------------------------------

def bit_positions(mask):
    """The positions of the set bits of a non-negative int, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _not_incident(node):
    """The error for a link end that has no side mask."""
    return ValueError(f"node {node} is not incident to the current solution")


class TypedLink(NamedTuple):
    """The ends, face and cost of a face-confined shortest path; see `link_path`."""

    u: int
    v: int
    face: int
    cost: int


@dataclass
class StepContext:
    """Everything one augmentation level needs; immutable but for its link caches."""

    instance: object
    level: int
    x_edges: frozenset
    omega: tuple                    # relevant failure sets, deterministic order
    edges: dict = field(default_factory=dict)      # contracted edge id -> (u, v, w)
    node_map: dict = field(default_factory=dict)   # original node -> contracted node
    kept_x: frozenset = frozenset()
    # the faces kept_x induces: an EmbeddedSubgraph, or at level 1 a TreeFace
    subgraph: object = None
    contracted: tuple = ()          # X edges contracted away
    cut_nodes: tuple = ()           # the solution's nodes, ascending
    # cut node -> int whose bit p is set iff the node is not on the anchor's
    # side (s, or for mst the smallest node) of omega[p]'s cut
    side_masks: dict = field(default_factory=dict)
    scenario_faces: dict = field(default_factory=dict)  # failure set -> face indices
    s: int = None
    t: int = None
    cut_face_checks: int = 0        # validated (failure set, face) pairs
    # face -> (adj, end -> distance map): Dijkstra maps, or on faces that
    # took the closure a `ClosureMaps` that reads them from it
    face_maps: dict = field(default_factory=dict)

    def cover_masks(self, links):
        """Per link, the int whose bit p is set iff it covers omega[p]: its
        ends' side masks XORed."""
        side = self.side_masks
        try:
            return [side[link.u] ^ side[link.v] for link in links]
        except KeyError as exc:
            raise _not_incident(exc.args[0]) from None

    def cover_candidates(self, ends, first, second, costs):
        """Per failure set of omega, the indices i of the pairs (ends[first[i]],
        ends[second[i]]) that cover it, by (costs[i], i): `cover_search`'s
        candidate lists, read from the side masks as `cover_masks` reads
        them.  `first`, `second` and `costs` are arrays, as `closure_pairs`
        gives them.  Each end's mask is unpacked into one column of an
        |omega| by ends boolean matrix; a pair covers omega[p] where its
        ends' columns differ in row p.  With the pairs in cost order, one
        scan of that set-by-pair matrix lists every set's candidates."""
        size = len(self.omega)
        width = (size + 7) // 8
        side = self.side_masks
        try:
            raw = b"".join([side[n].to_bytes(width, "little") for n in ends])
        except KeyError as exc:
            raise _not_incident(exc.args[0]) from None
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(ends), width),
                             axis=1, count=size, bitorder="little").view(bool).T
        order = np.argsort(costs, kind="stable")
        found = np.flatnonzero(bits[:, first[order]] != bits[:, second[order]])
        ids = order[found % len(order)].tolist()
        stops = np.searchsorted(found, np.arange(1, size + 1) * len(order)).tolist()
        return [ids[start:stop] for start, stop in zip([0] + stops, stops)]

    def covering(self, links):
        """For each failure set of omega, the ascending indices of the
        TypedLinks that cover it; the last table is kept."""
        links = tuple(links)
        cached = self.__dict__.get("_covering")
        if cached is not None and cached[0] == links:
            return cached[1]
        if not self.omega:
            return {}
        rows = [[] for _ in self.omega]
        for idx, mask in enumerate(self.cover_masks(links)):
            for p in bit_positions(mask):
                rows[p].append(idx)
        table = dict(zip(self.omega, map(tuple, rows)))
        self._covering = (links, table)
        return table

    def link_path(self, link):
        """The edge ids of a link from `enumerate_typed_links`, searched with
        the distance map to `link.v` (its Dijkstra map, or its row of the
        face's closure), so with the same tie-break; they must weigh
        `link.cost` and lie on `link.face`."""
        adj, dists = self.face_maps[link.face]
        found = lex_shortest_path(adj, link.u, link.v, dists[link.v])
        if (found is None or sum(self.edges[e][2] for e in found[1]) != link.cost
                or any(self.subgraph.edge_face[e] != link.face for e in found[1])):
            raise InvariantError(f"{link} has no path of its cost on its face")
        return found[1]


@dataclass(frozen=True)
class TreeFace:
    """The one face a tree induces in a connected plane graph, as level 1
    reads it: every candidate edge lies on face 0, whose nodes are the
    tree's.  No walk is traced, so asking for one fails."""

    nodes: frozenset        # the tree's nodes
    edge_face: dict         # candidate edge id -> 0

    @property
    def face_nodes(self):
        return (self.nodes,)

    @property
    def faces(self):
        raise InvariantError("level 1 traces no face walks; only levels >= 2 read them")


def _tree_face(edges, kept):
    """The TreeFace of the kept edges, which must form a tree on their ends
    in the contracted edge map `edges`: connected, one edge fewer than
    nodes.  Every other edge of `edges` is a candidate."""
    nodes = frozenset(n for e in kept for n in edges[e][:2])
    _, merges = _merge(list(range(max(nodes) + 1)), [edges[e] for e in kept])
    if not len(kept) == merges == len(nodes) - 1:
        raise InvariantError(
            f"level-1 solution is not a tree: {len(kept)} kept edges on "
            f"{len(nodes)} nodes in {len(nodes) - merges} components")
    return TreeFace(nodes, {e: 0 for e in sorted(edges) if e not in kept})


def preprocess_step(instance, x_edges, level):
    """Build the StepContext for augmentation level `level`.

    Reads the relevant failure sets (size-`level` subsets of input
    scenarios that disconnect the requirement in (V, X)) from
    `Feasibility.failures`, contracts every X edge that appears in none of
    them, and validates the structural guarantees the later stages rely
    on.  Level 1 groups the nodes only and reads its one face from the
    tree check (`TreeFace`).

    Side masks: bit p of an edge's `bits` is set iff omega[p] holds it.  A
    walk from the anchor (s, or for mst the smallest node) over the kept
    edges K gives each node the XOR of `bits` along its tree path, and
    every kept edge must join masks that differ by exactly its `bits`.
    With the check that each f = omega[p] leaves two components, that
    proves bit p is the true side of f.  By the edge check, bit p is
    constant on each component of K - f and differs across every f-edge,
    so both values occur.  K is connected and its contracted edges lie in
    no relevant set, so the components of K - f are those of X - f, two by
    the count: each value is one component, the anchor's 0.  True sides
    pass the check, since an f-edge within one side could be put back
    without joining them, and the level - 1 precondition rules that out.
    """
    x = frozenset(x_edges)
    if not x <= instance.edge_ids:
        raise ValueError("X contains unknown edge ids")
    if not 1 <= level:
        raise ValueError("level must be >= 1")

    # X must survive every failure of fewer than `level` edges.
    feasible = instance.feasibility(x)
    if failed := feasible.failures(level - 1):
        sub, (j, _) = next(iter(failed.items()))
        raise ValueError(
            f"X is not feasible for level {level - 1}: removing "
            f"{sorted(sub)} from scenario {j} disconnects it")

    total = sum(comb(len(f), level) for f in instance.scenario_sets)
    if total > OMEGA_CAP:
        raise BudgetError(f"level {level} failure-set enumeration ({total} subsets)",
                          f"{OMEGA_CAP} subsets")

    relevant = feasible.failures(level)     # set -> (first scenario, count)
    omega = tuple(sorted(relevant, key=lambda f: tuple(sorted(f))))

    ctx = StepContext(instance=instance, level=level, x_edges=x, omega=omega)
    if not omega:
        return ctx

    kept = frozenset().union(*omega)    # inside X: sets hold X edges only
    if level == 1:
        node_map, contracted, loops, edges = instance.graph.group(x - kept)
    else:
        graph, node_map, contracted, loops = instance.graph.contract(x - kept)
        if graph.euler_defect() != 0:
            raise InvariantError("contracted graph lost its planar embedding")
        edges = graph.edges
    if kept.intersection(loops):
        raise InvariantError("contraction deleted an edge of a relevant failure set")
    subgraph = _tree_face(edges, kept) if level == 1 else induced_faces(graph, kept)

    cut_nodes = tuple(sorted(subgraph.nodes))
    bits = dict.fromkeys(kept, 0)
    for p, f_set in enumerate(omega):
        if (count := relevant[f_set][1]) != 2:
            raise InvariantError(
                f"failure set {sorted(f_set)} leaves {count} components, "
                "expected exactly 2")
        for e in f_set:
            bits[e] |= 1 << p
    adj = {}
    for e in sorted(kept):
        u, v, _ = edges[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    anchor = node_map[instance.s] if instance.problem == "st" else cut_nodes[0]
    masks = {anchor: 0}
    todo = [anchor]
    while todo:
        u = todo.pop()
        for e, v in adj[u]:
            if v not in masks:
                masks[v] = masks[u] ^ bits[e]
                todo.append(v)
    for e in sorted(kept):
        u, v, _ = edges[e]
        if wrong := masks[u] ^ masks[v] ^ bits[e]:
            p = (wrong & -wrong).bit_length() - 1
            f_set = sorted(omega[p])
            if bits[e] >> p & 1:
                raise InvariantError(
                    f"edge {e} of failure set {f_set} does not cross its cut")
            raise InvariantError(
                f"edge {e} crosses the cut of failure set {f_set}, which does not hold it")
    side_masks = {n: masks[n] for n in cut_nodes}

    scenario_faces = {}
    if level >= 2:
        edge_faces = subgraph.faces.edge_faces
        for f_set in omega:
            counts = Counter(idx for e in f_set for idx in edge_faces[e])
            for idx in sorted(counts):
                if counts[idx] != 2:
                    raise InvariantError(
                        f"face {idx} carries {counts[idx]} edges of failure set "
                        f"{sorted(f_set)}; expected 0 or 2")
            if len(counts) != level:
                raise InvariantError(
                    f"failure set {sorted(f_set)} lies on {len(counts)} faces, "
                    f"expected exactly {level}")
            scenario_faces[f_set] = tuple(sorted(counts))

    ctx.edges = edges
    ctx.node_map = node_map
    ctx.kept_x = kept
    ctx.subgraph = subgraph
    ctx.contracted = contracted
    ctx.cut_nodes = cut_nodes
    ctx.side_masks = side_masks
    ctx.scenario_faces = scenario_faces
    ctx.cut_face_checks = len(omega) * len(subgraph.faces) if level >= 2 else 0
    if instance.problem == "st":
        ctx.s = node_map[instance.s]
        ctx.t = node_map[instance.t]
    return ctx


def face_graphs(ctx):
    """face -> (adj, ends), by ascending face: the candidate edges assigned
    to the face, as `dijkstra`'s adjacency with each node's entries sorted,
    and the face's boundary nodes that touch one of them, ascending."""
    face_adj = {}
    for e in sorted(ctx.subgraph.edge_face):
        u, v, w = ctx.edges[e]
        adj = face_adj.setdefault(ctx.subgraph.edge_face[e], {})
        adj.setdefault(u, []).append((e, v, w))
        adj.setdefault(v, []).append((e, u, w))
    faces = {}
    for face_idx, adj in sorted(face_adj.items()):
        adj = {n: tuple(sorted(lst)) for n, lst in adj.items()}
        faces[face_idx] = (adj, [n for n in sorted(ctx.subgraph.face_nodes[face_idx])
                                 if n in adj])
    return faces


def takes_closure(adj, ends):
    """True iff a face of `face_graphs` reads its links from `face_closure`:
    its edges touch only ends, at least `CLOSURE_MIN_ENDS` of them."""
    return len(ends) == len(adj) >= CLOSURE_MIN_ENDS


def closure_pairs(adj, ends):
    """The links of a face that takes the closure, as arrays: (maps, first,
    second, costs), where pair i joins ends[first[i]] < ends[second[i]] by
    a path of cost costs[i] (int64), in the order of `combinations` over
    the ends with unreachable pairs left out, and `maps` is the
    `ClosureMaps` that `StepContext.link_path` reads."""
    dist = face_closure(adj, ends)
    first, second = np.nonzero(dist != _UNREACHED)
    upper = first < second
    first, second = first[upper], second[upper]
    return ClosureMaps(ends, dist), first, second, dist[first, second]


def enumerate_typed_links(ctx, faces=None):
    """All face-confined shortest-path links between boundary node pairs.

    For each induced face and each unordered pair of distinct boundary
    nodes, the cost of the cheapest path through the candidate edges
    assigned to that face (omitted when none exists), in the order of
    `combinations` over the face's ascending ends.  A face that
    `takes_closure` reads its costs from `closure_pairs`; every other face
    takes one Dijkstra map per far end.  `ctx.face_maps` keeps the maps, or
    the closure, for `StepContext.link_path`.  `faces` is
    `face_graphs(ctx)` when the caller already has it.
    """
    links = []
    if faces is None:
        faces = face_graphs(ctx)
    for face_idx, (adj, ends) in faces.items():
        if takes_closure(adj, ends):
            maps, first, second, costs = closure_pairs(adj, ends)
            at = np.array(ends)
            links.extend(map(TypedLink._make, zip(
                at[first].tolist(), at[second].tolist(), repeat(face_idx),
                costs.tolist())))
        else:
            maps = {v: dijkstra(adj, v) for v in ends[1:]}
            for u, v in combinations(ends, 2):
                cost = maps[v].get(u)
                if cost is not None:
                    links.append(TypedLink(u, v, face_idx, cost))
        ctx.face_maps[face_idx] = (adj, maps)
    return tuple(links)
