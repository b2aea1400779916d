"""Shared fixtures, instance builders, and the scalar definitions and parser
that only tests read."""

import json

import networkx as nx
import pytest

from bulkrobust import Instance, InstanceError, gen_grid, gen_series_parallel
from bulkrobust.generators import Hypergraph
from bulkrobust.instance import FaceSet, Feasibility, PlaneGraph, is_int_rows


def triangle_instance(problem="st", scenarios=((0,),)):
    """3 nodes, edges e0={0,1}, e1={0,2}, e2={2,1}, unit weights."""
    s, t = (0, 1) if problem == "st" else (None, None)
    return Instance(3, [(0, 0, 1, 1), (1, 0, 2, 1), (2, 2, 1, 1)],
                    {0: [0, 1], 1: [0, 2], 2: [1, 2]}, problem, s, t, scenarios)


def square_cycle(scenarios=((0,),), weights=(1, 1, 1, 1)):
    """4-cycle s=0, a=1, t=2, b=3 with edges e0=sa, e1=at, e2=tb, e3=bs."""
    w = weights
    return Instance(4, [(0, 0, 1, w[0]), (1, 1, 2, w[1]),
                        (2, 2, 3, w[2]), (3, 3, 0, w[3])],
                    {0: [0, 3], 1: [1, 0], 2: [2, 1], 3: [3, 2]},
                    "st", 0, 2, scenarios)


def square_with_chords(inner=True, outer=True, chord_weight=5,
                       scenarios=((0, 2),)):
    """The square cycle plus an s-t chord inside and/or outside."""
    edges = [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1), (3, 3, 0, 1)]
    rot = {0: [0, 3], 1: [1, 0], 2: [2, 1], 3: [3, 2]}
    if inner:
        edges.append((4, 0, 2, chord_weight))
        rot[0] = [0, 4, 3]
        rot[2] = [2, 4, 1]
    if outer:
        eid = 5 if inner else 4
        edges.append((eid, 0, 2, chord_weight))
        rot[0] = rot[0] + [eid]
        rot[2] = [eid] + rot[2]
    return Instance(4, edges, rot, "st", 0, 2, scenarios)


def fresh_table(instance, x):
    """A new Feasibility table of X built from the instance's views, as
    `Instance.feasibility` builds one, without its cache."""
    return Feasibility(instance.node_count, instance.edge_map, instance.problem,
                       instance.s, instance.t, instance.touched,
                       instance.scenario_sets, x)


def reference_trace_faces(graph):
    """The FaceSet of a PlaneGraph from a dict of rotation successors keyed
    by (node, edge id): the tests' reference for `PlaneGraph.trace_faces`,
    which walks integer darts.  Walks start from the edges in ascending id
    order, u's dart before v's, and follow an edge to its head, then the
    next edge in the head's rotation."""
    succ = {}
    for v, rot in graph.rotation.items():
        for i, e in enumerate(rot):
            succ[(v, e)] = rot[(i + 1) % len(rot)]
    faces, dart_face, edges = [], {}, graph.edges
    for eid in sorted(edges):
        for tail in edges[eid][:2]:
            if (tail, eid) in dart_face:
                continue
            walk, dart = [], (tail, eid)
            while dart not in dart_face:
                dart_face[dart] = len(faces)
                walk.append(dart)
                t, e = dart
                a, b, _ = edges[e]
                head = b if t == a else a
                dart = (head, succ[(head, e)])
            assert dart == walk[0], "face walk closed on a foreign dart"
            faces.append(tuple(walk))
    edge_faces = {e: (a,) if a == b else (a, b) if a < b else (b, a)
                  for e, (u, v, _) in edges.items()
                  for a, b in [(dart_face[(u, e)], dart_face[(v, e)])]}
    return FaceSet(tuple(faces), edge_faces, dart_face)


def restricted_graph(graph, chosen):
    """The PlaneGraph of the chosen edges alone on their ends, each rotation
    restricted to them, its edges in `chosen`'s order: the reference's
    input for `graph.trace_faces(chosen)`."""
    nodes = sorted({n for e in chosen for n in graph.endpoints(e)})
    return PlaneGraph(tuple(nodes), {e: graph.edges[e] for e in chosen},
                      {n: tuple(e for e in graph.rotation[n] if e in chosen) for n in nodes})


def component_of(nodes, ends):
    """node -> index of its component of the graph (nodes, ends), by
    networkx: the tests' reference for the package's union-find."""
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(ends)
    return {n: i for i, comp in enumerate(nx.connected_components(graph)) for n in comp}


def reference_cuts(ctx):
    """Failure set -> (side_s, side_t) of every relevant set of a step, from
    the networkx components of the kept edges outside the set: the tests'
    single-pair cover reference, read from neither `ctx.side_masks` nor the
    Feasibility table.  side_s holds s, or for mst the smallest node."""
    sub_nodes = ctx.subgraph.nodes
    anchor = ctx.s if ctx.instance.problem == "st" else min(sub_nodes)
    cuts = {}
    for f_set in ctx.omega:
        component = component_of(sub_nodes, (ctx.edges[e][:2] for e in ctx.kept_x
                                             if e not in f_set))
        assert len(set(component.values())) == 2, sorted(f_set)
        side_s = frozenset(n for n in sub_nodes if component[n] == component[anchor])
        cuts[f_set] = (side_s, sub_nodes - side_s)
    return cuts


def crosses(link, sides):
    """True iff the link's ends lie on different sides of a reference cut."""
    return (link.u in sides[0]) != (link.v in sides[0])


def as_masks(sets):
    """(cost, elements) pairs as `exact_min_cover` takes them: (cost, mask),
    with bit el of mask set iff el is among the elements."""
    return [(cost, sum(1 << el for el in set(elements))) for cost, elements in sets]


def per_set(candidates, count):
    """Set index -> its elements, ascending, from the per-element candidate
    lists `setcover.cover_search` takes."""
    found = [[] for _ in range(count)]
    for el, ids in enumerate(candidates):
        for i in ids:
            found[i].append(el)
    return found


def chords_intersect(a, b):
    """True iff the two chords interleave strictly around the circle: the
    scalar definition that `rounding.chords_to_rectangles`' crossing masks
    follow."""
    a1, a2 = min(a), max(a)
    if len({a[0], a[1], b[0], b[1]}) != 4:
        raise ValueError(f"chords {a} and {b} share an endpoint")
    return (a1 < b[0] < a2) != (a1 < b[1] < a2)


def in_rect(point, rect):
    """Closed-interval containment: the scalar definition that
    `rounding.chords_to_rectangles`' rectangle masks follow."""
    x1, x2, y1, y2 = rect
    px, py = point
    return x1 <= px <= x2 and y1 <= py <= y2


def parse_hypergraph(data):
    """A `Hypergraph` from the JSON text (str or bytes) or dict that
    `serialize_hypergraph` writes; InstanceError on anything else."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if isinstance(data, str):
            data = json.loads(data)
    except ValueError as exc:   # not UTF-8, bad JSON, or an integer over Python's digit limit
        raise InstanceError(f"malformed hypergraph file: {exc}") from None
    if not isinstance(data, dict) or set(data) != {"parts", "hyperedges"}:
        raise InstanceError("hypergraph file must hold keys 'parts' and 'hyperedges'")
    if not (is_int_rows(data["parts"]) and is_int_rows(data["hyperedges"])):
        raise InstanceError("parts and hyperedges must be lists of integer node id lists")
    return Hypergraph(tuple(tuple(p) for p in data["parts"]),
                      tuple(tuple(e) for e in data["hyperedges"]))


def grid_2x3():
    return gen_grid(2, 3, 1, 1, 1, seed=7)


# The level-1 tree step's larger faces: 10x10 spanning-tree grids with 36
# scenarios of diameter 3, weights up to 1, 3 and 5.
TREE_GRIDS = [gen_grid(10, 10, 36, 3, w, seed, "mst") for w in (1, 3, 5) for seed in range(3)]


SUITE_DIMS = ((2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 4), (2, 6))


def suite_schedule(count=200):
    """Deterministic acceptance-suite schedule: grid and series-parallel,
    both problems, n <= 30, scenario count <= 6, diameter <= 4."""
    schedule = []
    for idx in range(count):
        family = "grid" if idx % 2 == 0 else "sp"
        problem = "st" if (idx // 2) % 2 == 0 else "mst"
        params = {
            "family": family,
            "problem": problem,
            "m": 1 + idx % 6,
            "k": 1 + idx % 4,
            "wmax": (1, 2, 3, 5)[idx % 4],
            "seed": 1000 + idx,
        }
        if family == "grid":
            params["dims"] = SUITE_DIMS[(idx // 2) % len(SUITE_DIMS)]
        else:
            params["depth"] = 1 + (idx // 2) % 4
        schedule.append(params)
    return schedule


def build_suite_instance(params):
    if params["family"] == "grid":
        rows, cols = params["dims"]
        return gen_grid(rows, cols, params["m"], params["k"], params["wmax"],
                        params["seed"], problem=params["problem"])
    return gen_series_parallel(params["depth"], params["m"], params["k"],
                               params["wmax"], params["seed"],
                               problem=params["problem"])


@pytest.fixture
def triangle():
    return triangle_instance()


@pytest.fixture
def square():
    return square_cycle()
