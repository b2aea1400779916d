"""Seeded instance generators.

All generators are pure functions of their parameters and the seed: the
same call produces byte-identical instance files.  Scenario sampling
retries a bounded number of times, so generation either succeeds or fails
loudly instead of looping forever.  It asks whether a candidate keeps the
requirement through one `Feasibility` table per generated graph (X = every
edge, every edge removable), an elimination of at most k vectors per
candidate, not a union-find over every edge.  That table is the graph's one
table: the generator hands it to `Instance` as the proof of its
connectivity and feasibility checks, which the instance then does not
repeat.  The vertex-cover reduction samples nothing, so its instance builds
and checks its own.
"""

import json
import random
from dataclasses import dataclass

from .errors import InstanceError
from .instance import Feasibility, Instance

_MAX_RESAMPLES = 1000

# A series-parallel instance has 2**depth edges, so a depth such as 40 asks
# for more memory than any machine has.  Depths past 12 (4096 edges, built
# in about 0.1 s on a 2-core machine) are refused before anything is built.
MAX_SP_LEAVES = 2 ** 12


def _sample_scenarios(node_count, weighted, problem, s, t, m, k, rng):
    """Draw m random failure sets of size <= k, each of whose removal from the
    edges `weighted` (rows (e, u, v, w)) keeps the requirement; returns
    (scenarios, table).  One Feasibility table of their edge map
    {e: (u, v, w)}, with every edge removable and one scenario that holds
    them all, answers each candidate, and the generator hands it to the
    instance as the proof of its checks.  A candidate is sorted only once
    accepted."""
    edge_map = {e: (u, v, w) for e, u, v, w in weighted}
    pool = sorted(edge_map)
    every = frozenset(pool)
    table = Feasibility(node_count, edge_map, problem, s, t, every, (every,), every)
    scenarios = []
    for idx in range(m):
        for _ in range(_MAX_RESAMPLES):
            size = rng.randint(1, k)
            cand = rng.sample(pool, min(size, len(pool)))
            if table.cut(0, cand) is None:
                scenarios.append(tuple(sorted(cand)))
                break
        else:
            raise InstanceError(
                f"could not sample a feasible scenario {idx} within "
                f"{_MAX_RESAMPLES} attempts")
    return scenarios, table


def gen_grid(rows, cols, scenario_count, diameter, weight_max, seed, problem="st"):
    """rows x cols grid with the canonical embedding; terminals at opposite corners."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs rows >= 2 and cols >= 2")
    if scenario_count < 1 or diameter < 1 or weight_max < 1:
        raise ValueError("scenario_count, diameter and weight_max must be positive")
    rng = random.Random(seed)
    node = lambda r, c: r * cols + c
    edges = []
    edge_at = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edge_at[(r, c, "E")] = len(edges)
                edges.append((len(edges), node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edge_at[(r, c, "S")] = len(edges)
                edges.append((len(edges), node(r, c), node(r + 1, c)))
    rotation = {}
    for r in range(rows):
        for c in range(cols):
            rot = []
            if r > 0:
                rot.append(edge_at[(r - 1, c, "S")])
            if c + 1 < cols:
                rot.append(edge_at[(r, c, "E")])
            if r + 1 < rows:
                rot.append(edge_at[(r, c, "S")])
            if c > 0:
                rot.append(edge_at[(r, c - 1, "E")])
            rotation[node(r, c)] = rot
    weighted = [(e, u, v, rng.randint(1, weight_max)) for e, u, v in edges]
    s, t = (0, rows * cols - 1) if problem == "st" else (None, None)
    scenarios, table = _sample_scenarios(rows * cols, weighted, problem, s, t,
                                         scenario_count, diameter, rng)
    return Instance(rows * cols, weighted, rotation, problem, s, t, scenarios, _proof=table)


class _SPBuilder:
    """Grows a series-parallel multigraph together with its embedding.  An
    edge keeps the ends it was built with; `end` resolves them after the
    last merge."""

    def __init__(self):
        self.next_node = 0
        self.next_edge = 0
        self.edges = {}      # id -> (u, v), as built
        self.rotation = {}   # node -> list of edge ids
        self.survivor = {}   # merged-away node -> the node it was merged into

    def leaf(self):
        s, t = self.next_node, self.next_node + 1
        self.next_node += 2
        e = self.next_edge
        self.next_edge += 1
        self.edges[e] = (s, t)
        self.rotation[s] = [e]
        self.rotation[t] = [e]
        return s, t

    def _merge(self, into, gone, rot):
        self.survivor[gone] = into
        self.rotation[into] = rot
        del self.rotation[gone]

    def end(self, node):
        """The node that `node` is now part of."""
        while node in self.survivor:
            node = self.survivor[node]
        return node

    def series(self, g1, g2):
        s1, t1 = g1
        s2, t2 = g2
        self._merge(t1, s2, self.rotation[t1] + self.rotation[s2])
        return s1, t2

    def parallel(self, g1, g2):
        s1, t1 = g1
        s2, t2 = g2
        self._merge(s1, s2, self.rotation[s1] + self.rotation[s2])
        self._merge(t1, t2, self.rotation[t2] + self.rotation[t1])
        return s1, t1


def gen_series_parallel(depth, scenario_count, diameter, weight_max, seed, problem="st"):
    """Random full-depth series/parallel composition of 2**depth single
    edges; depth is at most 12 (`MAX_SP_LEAVES` edges)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    # 2**depth > MAX_SP_LEAVES, read from the depth so that a huge one
    # computes no huge power.
    if depth >= MAX_SP_LEAVES.bit_length():
        raise ValueError(f"depth {depth} gives more than {MAX_SP_LEAVES} edges")
    if scenario_count < 0 or weight_max < 1:
        raise ValueError("bad parameters")
    if diameter < 1:
        raise ValueError("diameter must be positive")
    rng = random.Random(seed)
    builder = _SPBuilder()

    def compose(d, op=None):
        if d == 0:
            return builder.leaf()
        if op is None:
            op = rng.choice(("series", "parallel"))
        left = compose(d - 1)
        right = compose(d - 1)
        return builder.series(left, right) if op == "series" else builder.parallel(left, right)

    # A series root would make every edge a bridge and leave no feasible
    # scenario to sample, so the top composition is always parallel.
    s, t = compose(depth, op="parallel" if depth > 0 else None)
    order = [s, t] + sorted(n for n in builder.rotation if n not in (s, t))
    relabel = {old: new for new, old in enumerate(order)}
    weighted = [(e, relabel[builder.end(u)], relabel[builder.end(v)],
                 rng.randint(1, weight_max))
                for e, (u, v) in sorted(builder.edges.items())]
    rotation = {relabel[n]: list(rot) for n, rot in builder.rotation.items()}
    n = len(order)
    st = (0, 1) if problem == "st" else (None, None)
    scenarios, table = _sample_scenarios(n, weighted, problem, *st, scenario_count,
                                         diameter, rng)
    return Instance(n, weighted, rotation, problem, st[0], st[1], scenarios, _proof=table)


# -- hypergraph vertex cover reduction ------------------------------------

@dataclass(frozen=True)
class Hypergraph:
    """A k-partite, k-uniform hypergraph: every hyperedge has exactly one
    node in every part."""

    parts: tuple            # tuple of tuples of node ids
    hyperedges: tuple       # tuple of tuples of node ids

    def __post_init__(self):
        part_of = {}
        for j, part in enumerate(self.parts):
            for v in part:
                if v in part_of:
                    raise InstanceError(f"node {v} appears in two parts")
                part_of[v] = j
        k = len(self.parts)
        for i, edge in enumerate(self.hyperedges):
            if len(set(edge)) != len(edge):
                raise InstanceError(f"hyperedge {i} repeats a node")
            touched = sorted(part_of.get(v, -1) for v in edge)
            if touched != list(range(k)):
                raise InstanceError(
                    f"hyperedge {i} must contain exactly one node of every part")

    @property
    def k(self):
        return len(self.parts)

    def to_dict(self):
        return {"parts": [list(p) for p in self.parts],
                "hyperedges": [list(e) for e in self.hyperedges]}


def serialize_hypergraph(h):
    return json.dumps(h.to_dict(), indent=1) + "\n"


def random_hypergraph(k, part_size, edge_count, seed):
    """Uniform random k-partite k-uniform hypergraph with distinct hyperedges."""
    if k < 2 or part_size < 1 or edge_count < 1:
        raise ValueError("need k >= 2, part_size >= 1, edge_count >= 1")
    if edge_count > part_size ** k:
        raise ValueError("more hyperedges requested than exist")
    rng = random.Random(seed)
    parts = tuple(tuple(range(j * part_size, (j + 1) * part_size)) for j in range(k))
    edges = []
    seen = set()
    for _ in range(edge_count):
        for _ in range(_MAX_RESAMPLES):
            e = tuple(rng.choice(part) for part in parts)
            if e not in seen:
                seen.add(e)
                edges.append(e)
                break
        else:
            raise InstanceError("could not sample distinct hyperedges")
    return Hypergraph(parts, tuple(edges))


def reduce_hypergraph_vc(h):
    """Build the s-t instance whose optimum equals the minimum vertex cover.

    One zero-weight s-t path per part, with the hyperedges ordered so that
    each node's incident hyperedges occupy a contiguous block; a unit-weight
    arc per node spans exactly its block.  One failure scenario per
    hyperedge removes its k associated path edges (one per path).
    """
    k = h.k
    p = len(h.hyperedges)
    if k < 2:
        raise InstanceError("reduction needs at least two parts")
    if p < 1:
        raise InstanceError("reduction needs at least one hyperedge")

    orders = []      # per part: hyperedge indices grouped by incident node
    blocks = []      # per part: list of (node, start, end) with start < end
    for j, part in enumerate(h.parts):
        order = []
        node_blocks = []
        for v in part:
            incident = [i for i, e in enumerate(h.hyperedges) if v in e]
            if incident:
                node_blocks.append((v, len(order), len(order) + len(incident)))
            order.extend(incident)
        if len(order) != p:
            raise InstanceError(f"part {j} does not touch every hyperedge")
        orders.append(order)
        blocks.append(node_blocks)

    s, t = 0, 1

    def path_node(j, pos):
        if pos == 0:
            return s
        if pos == p:
            return t
        return 2 + j * (p - 1) + (pos - 1)

    node_count = 2 + k * (p - 1)
    edges = []
    for j in range(k):
        for l in range(p):
            edges.append((j * p + l, path_node(j, l), path_node(j, l + 1), 0))
    arc_start = {}   # (part, position) -> arc id
    arc_end = {}
    next_id = k * p
    for j in range(k):
        for v, start, end in blocks[j]:
            edges.append((next_id, path_node(j, start), path_node(j, end), 1))
            arc_start[(j, start)] = next_id
            arc_end[(j, end)] = next_id
            next_id += 1

    rotation = {}
    rot_s = []
    for j in range(k):
        rot_s.extend([arc_start[(j, 0)], j * p + 0])
    rotation[s] = rot_s
    rot_t = []
    for j in reversed(range(k)):
        rot_t.extend([j * p + (p - 1), arc_end[(j, p)]])
    rotation[t] = rot_t
    for j in range(k):
        for l in range(1, p):
            rot = [j * p + l, j * p + (l - 1)]
            if (j, l) in arc_end:
                rot.append(arc_end[(j, l)])
            if (j, l) in arc_start:
                rot.append(arc_start[(j, l)])
            rotation[path_node(j, l)] = rot

    scenarios = []
    for i in range(p):
        scenarios.append(tuple(sorted(j * p + orders[j].index(i) for j in range(k))))

    return Instance(node_count, edges, rotation, "st", s, t, scenarios)


def gen_hypergraph_vc(k, part_size, edge_count, seed):
    """Sample a hypergraph and reduce it; returns (hypergraph, instance)."""
    h = random_hypergraph(k, part_size, edge_count, seed)
    return h, reduce_hypergraph_vc(h)
