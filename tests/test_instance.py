"""Instance model: parsing, face tracing, induced faces, contraction."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import (InfeasibleError, InstanceError, Instance, gen_grid,
                        gen_hypergraph_vc, gen_series_parallel, parse_instance,
                        serialize_instance)
from bulkrobust.instance import MAX_TOTAL_WEIGHT, PlaneGraph, induced_faces
from conftest import component_of, grid_2x3, square_cycle, triangle_instance

TRIANGLE_JSON = {
    "nodes": 3,
    "edges": [[0, 0, 1, 1], [1, 0, 2, 1], [2, 2, 1, 1]],
    "rotation": {"0": [0, 1], "1": [0, 2], "2": [1, 2]},
    "problem": "st",
    "s": 0,
    "t": 1,
    "scenarios": [[0]],
}


def test_parse_triangle():
    inst = parse_instance(json.dumps(TRIANGLE_JSON))
    assert inst.k == 1
    assert inst.node_count == 3
    assert inst.scenario_sets == (frozenset({0}),)


def test_parse_dangling_node():
    bad = json.loads(json.dumps(TRIANGLE_JSON))
    bad["edges"][2] = [2, 2, 5, 1]
    with pytest.raises(InstanceError, match="dangling node id"):
        parse_instance(json.dumps(bad))


def test_parse_accepts_parallel_edges():
    data = {
        "nodes": 2,
        "edges": [[0, 0, 1, 0], [1, 0, 1, 0], [2, 0, 1, 1], [3, 0, 1, 1]],
        "rotation": {"0": [2, 0, 3, 1], "1": [1, 3, 0, 2]},
        "problem": "st", "s": 0, "t": 1,
        "scenarios": [[0, 1]],
    }
    inst = parse_instance(json.dumps(data))
    assert len(inst.edges) == 4


def test_parse_rejects_self_loop():
    bad = json.loads(json.dumps(TRIANGLE_JSON))
    bad["edges"][0] = [0, 1, 1, 1]
    bad["rotation"] = {"0": [1], "1": [0, 0, 2], "2": [1, 2]}
    with pytest.raises(InstanceError, match="self-loop"):
        parse_instance(json.dumps(bad))


def test_parse_bounds_the_total_weight():
    data = json.loads(json.dumps(TRIANGLE_JSON))
    data["edges"][0][3] = 2 ** 53 - 2       # total exactly 2**53
    inst = parse_instance(json.dumps(data))
    assert inst.weight_of(inst.edge_ids) == 2 ** 53
    data["edges"][0][3] += 1
    with pytest.raises(InstanceError, match="total edge weight exceeds 2"):
        parse_instance(json.dumps(data))


def test_parse_rejects_bad_rotation():
    bad = json.loads(json.dumps(TRIANGLE_JSON))
    bad["rotation"]["0"] = [0]
    with pytest.raises(InstanceError, match="rotation at node 0"):
        parse_instance(json.dumps(bad))


@pytest.mark.parametrize("rotation", [
    {"0": [0, 1], "1": [0, 2], "2": [1, 2], "02": [2, 1]},
    {0: [0, 1], 1: [0, 2], 2: [1, 2], "2": [2, 1]},
])
def test_instance_rejects_two_rotation_keys_for_one_node(rotation):
    # The two keys make four rotation entries for three nodes.
    with pytest.raises(InstanceError, match="rotation must list every node exactly once"):
        Instance(3, [(0, 0, 1, 1), (1, 0, 2, 1), (2, 2, 1, 1)], rotation, "st", 0, 1, [[0]])


@pytest.mark.parametrize("rotation", [
    {"0": [0, 1], "1": [0, 2], "2": [1, 2]},
    {0: [0, 1], "1": [0, 2], 2: [1, 2]},
    {0: [0, 1], 1: [0, 2], None: [1, 2]},
], ids=["str", "mixed", "none"])
def test_instance_rejects_rotation_keys_that_are_not_ints(rotation):
    # n keys, so only the keys' range check can catch them.
    with pytest.raises(InstanceError, match="rotation must list every node exactly once"):
        Instance(3, [(0, 0, 1, 1), (1, 0, 2, 1), (2, 2, 1, 1)], rotation, "st", 0, 1, [[0]])


def test_parse_rejects_infeasible():
    bad = json.loads(json.dumps(TRIANGLE_JSON))
    bad["scenarios"] = [[0, 1, 2]]
    with pytest.raises(InfeasibleError):
        parse_instance(json.dumps(bad))


def test_roundtrip_idempotent():
    for inst in (triangle_instance(), grid_2x3(),
                 gen_series_parallel(3, 2, 2, 5, seed=3)):
        text = serialize_instance(inst)
        again = serialize_instance(parse_instance(text))
        assert text == again


def json_text(inst):
    """The canonical layout by json's own encoder: what `serialize_instance`
    must write byte for byte."""
    return json.dumps(inst.to_dict(), indent=1) + "\n"


@st.composite
def reweighed_instances(draw):
    """A generated grid, series-parallel or vertex-cover instance, its
    weights redrawn up to a total of 2**53."""
    family = draw(st.sampled_from(["grid", "sp", "hvc"]))
    problem = draw(st.sampled_from(["st", "mst"]))
    seed = draw(st.integers(0, 2 ** 31))
    if family == "grid":
        inst = gen_grid(draw(st.integers(2, 4)), draw(st.integers(2, 5)),
                        draw(st.integers(1, 4)), draw(st.integers(1, 3)), 5, seed, problem)
    elif family == "sp":
        depth = draw(st.integers(0, 4))
        inst = gen_series_parallel(depth, draw(st.integers(0, 4)) if depth else 0,
                                   draw(st.integers(1, 3)), 5, seed, problem)
    else:
        inst = gen_hypergraph_vc(draw(st.integers(2, 3)), 2, draw(st.integers(1, 4)), seed)[1]
    cap = MAX_TOTAL_WEIGHT // len(inst.edges)
    weights = draw(st.lists(st.integers(0, cap), min_size=len(inst.edges),
                            max_size=len(inst.edges)))
    return Instance(inst.node_count, [(e, u, v, w) for (e, u, v, _), w in zip(inst.edges, weights)],
                    inst.rotation, inst.problem, inst.s, inst.t, inst.scenarios)


@settings(max_examples=150, deadline=None)
@given(reweighed_instances())
def test_serialize_writes_the_json_layout(inst):
    assert serialize_instance(inst) == json_text(inst)


def test_serialize_edge_cases():
    lone = Instance(1, [], {0: []}, "mst")
    text = serialize_instance(lone)
    assert text == json_text(lone)
    assert '"edges": [],' in text and '"rotation": {\n  "0": []\n },' in text
    assert text.endswith('"scenarios": []\n}\n')
    # no scenarios, st terminals
    bare = gen_series_parallel(2, 0, 1, 3, seed=4)
    assert bare.scenarios == () and serialize_instance(bare) == json_text(bare)
    # node ids past 9: the rotation keys sort as numbers, not as strings
    grid = gen_grid(3, 4, 2, 2, 5, seed=1)
    assert serialize_instance(grid) == json_text(grid)
    assert list(json.loads(serialize_instance(grid))["rotation"]) == [str(n) for n in range(12)]
    # weights near 2**53
    heavy = Instance(2, [(0, 0, 1, 2 ** 52 - 1), (1, 0, 1, 2 ** 52 + 1)],
                     {0: [0, 1], 1: [1, 0]}, "st", 0, 1, [(0,)])
    assert heavy.weight_of(heavy.edge_ids) == 2 ** 53
    assert serialize_instance(heavy) == json_text(heavy)
    assert parse_instance(serialize_instance(heavy)).edges == heavy.edges


def test_trace_faces_counts():
    assert len(triangle_instance().graph.faces) == 2
    assert len(grid_2x3().graph.faces) == 3
    path = Instance(3, [(0, 0, 1, 1), (1, 1, 2, 1)],
                    {0: [0], 1: [0, 1], 2: [1]}, "mst")
    faces = path.graph.faces
    assert len(faces) == 1
    assert len(faces.faces[0]) == 4


def test_trace_faces_euler_everywhere():
    for seed in range(10):
        inst = gen_grid(2 + seed % 3, 3, 1, 2, 3, seed=seed)
        faces = inst.graph.faces
        n, m = inst.node_count, len(inst.edges)
        assert n - m + len(faces) == 2
        # every dart in exactly one face, walk lengths sum to 2 m
        assert sum(len(w) for w in faces.faces) == 2 * m


def test_induced_faces_chosen_equals_all():
    sq = square_cycle()
    sub = induced_faces(sq.graph, {0, 1, 2, 3})
    assert len(sub.faces) == 2
    assert sub.edge_face == {}


def test_induced_faces_triangle_single_edge():
    sub = induced_faces(triangle_instance().graph, {0})
    assert len(sub.faces) == 1
    assert sub.edge_face == {1: 0, 2: 0}


def test_induced_faces_grid_outer_cycle():
    # Worked by hand: the grid has 3 faces, the middle edge borders the two
    # bounded squares, so union-find merges them into one inner face; the
    # outer face stays.  The middle edge lands in the merged inner face.
    g = grid_2x3()
    mid = [e for e, (u, v, _) in g.edge_map.items() if {u, v} == {1, 4}]
    assert len(mid) == 1
    chosen = set(g.edge_map) - set(mid)
    sub = induced_faces(g.graph, chosen)
    assert len(sub.faces) == 2
    inner = sub.edge_face[mid[0]]
    inner_nodes = {tail for tail, _ in sub.faces.faces[inner]}
    assert {1, 4} <= inner_nodes
    walk_lengths = sorted(len(w) for w in sub.faces.faces)
    assert walk_lengths == [6, 6]


def test_induced_faces_partition_property():
    rng = random.Random(0)
    g = gen_grid(3, 4, 1, 1, 1, seed=2)
    all_edges = sorted(g.edge_map)
    tried = 0
    while tried < 25:
        chosen = frozenset(e for e in all_edges if rng.random() < 0.6)
        if not chosen:
            continue
        nodes = {n for e in chosen for n in g.edge_map[e][:2]}
        if len(set(component_of(nodes, (g.edge_map[e][:2] for e in chosen)).values())) > 1:
            continue
        tried += 1
        sub = induced_faces(g.graph, chosen)
        rest = set(all_edges) - chosen
        assert set(sub.edge_face) == rest
        assert all(0 <= f < len(sub.faces) for f in sub.edge_face.values())


def _assert_valid_embedding(graph):
    """What Instance validation checks of a graph: each rotation lists the
    node's incident edges once, the graph is connected, and Euler holds."""
    incident = {n: [] for n in graph.nodes}
    for e, (u, v, _) in graph.edges.items():
        incident[u].append(e)
        incident[v].append(e)
    assert set(graph.rotation) == set(graph.nodes)
    for n, rot in graph.rotation.items():
        assert sorted(rot) == sorted(incident[n])
    component = component_of(graph.nodes, (e[:2] for e in graph.edges.values()))
    assert len(set(component.values())) == 1
    assert graph.euler_defect() == 0


def test_contract_path_edge():
    path = Instance(3, [(0, 0, 2, 1), (1, 2, 1, 1)],
                    {0: [0], 2: [0, 1], 1: [1]}, "st", 0, 1)
    out, node_map, _, loops = path.graph.contract({0})
    assert len(out.nodes) == 2
    assert len(out.edges) == 1 and loops == ()
    assert node_map[2] == 0
    _assert_valid_embedding(out)


def test_contract_creates_parallel_edges():
    tri = triangle_instance(problem="mst", scenarios=((1,),))
    out, _, _, loops = tri.graph.contract({0})
    assert len(out.nodes) == 2
    assert len(out.edges) == 2 and loops == ()   # parallel pair is kept
    _assert_valid_embedding(out)


def test_contract_preserves_planarity_grid():
    g = gen_grid(2, 3, 1, 1, 1, seed=7)
    base = Instance(g.node_count, g.edges, g.rotation, "mst")
    for e in sorted(base.edge_map):
        out, _, _, _ = base.graph.contract({e})
        assert len(out.nodes) == base.node_count - 1
        _assert_valid_embedding(out)


def contract_edge_by_edge(graph, eids):
    """Reference: contract `eids` one edge at a time in ascending id order,
    splicing the two rotations at each contracted edge; returns the
    4-tuple `PlaneGraph.contract` returns."""
    node_map = {n: n for n in graph.nodes}
    contracted, loops = [], set()
    for eid in sorted(eids):
        if eid not in graph.edges:
            continue        # already deleted as a loop
        u, v, _ = graph.edges[eid]
        keep, drop = min(u, v), max(u, v)
        rot_keep, rot_drop = list(graph.rotation[keep]), list(graph.rotation[drop])
        ik, idr = rot_keep.index(eid), rot_drop.index(eid)
        spliced = rot_keep[:ik] + rot_drop[idr + 1:] + rot_drop[:idr] + rot_keep[ik + 1:]
        edges = {}
        for e, (a, b, w) in graph.edges.items():
            a, b = (keep if a == drop else a), (keep if b == drop else b)
            if e != eid and a == b:
                loops.add(e)
            elif e != eid:
                edges[e] = (a, b, w)
        rotation = {n: rot for n, rot in graph.rotation.items() if n != drop}
        rotation[keep] = tuple(e for e in spliced if e in edges)
        graph = PlaneGraph(tuple(n for n in graph.nodes if n != drop), edges, rotation)
        node_map = {n: keep if m == drop else m for n, m in node_map.items()}
        contracted.append(eid)
    return graph, node_map, tuple(contracted), tuple(sorted(loops))


def _cyclic_shift_of(rot, ref):
    return len(rot) == len(ref) and (not ref or any(
        rot[i:] + rot[:i] == ref for i in range(len(rot))))


def test_contract_matches_edge_by_edge_splicing():
    rng = random.Random(2015)
    graphs = [gen_grid(rows, cols, 1, 1, 3, seed=seed).graph
              for rows, cols, seed in ((2, 3, 1), (3, 4, 2), (4, 4, 3), (5, 6, 4))]
    graphs += [gen_series_parallel(depth, 1, 1, 3, seed=seed).graph
               for depth, seed in ((2, 5), (3, 6), (4, 7), (5, 8))]
    graphs += [gen_hypergraph_vc(k, 2, edges, seed)[1].graph
               for k, edges, seed in ((2, 3, 9), (3, 5, 10), (4, 8, 11))]
    cycles = 0
    for graph in graphs:
        ids = sorted(graph.edges)
        for _ in range(25):
            eids = set(rng.sample(ids, rng.randint(0, len(ids))))
            got = graph.contract(eids)
            want = contract_edge_by_edge(graph, eids)
            out, ref = got[0], want[0]
            assert out.nodes == ref.nodes and out.edges == ref.edges
            assert got[1:] == want[1:]
            assert set(out.rotation) == set(ref.rotation)
            for n, rot in out.rotation.items():
                assert _cyclic_shift_of(rot, ref.rotation[n]), (n, rot, ref.rotation[n])
            assert out.trace_faces() == ref.trace_faces()
            cycles += bool(eids & set(got[3]))
    assert cycles > 50      # many subsets hold a cycle or a parallel pair


def test_orientation_mirror_still_valid():
    # reversing every rotation list mirrors the embedding; everything
    # downstream is orientation-agnostic
    g = gen_grid(3, 3, 2, 2, 3, seed=9)
    mirrored = Instance(g.node_count, g.edges,
                        {n: list(reversed(rot)) for n, rot in g.rotation.items()},
                        g.problem, g.s, g.t, g.scenarios)
    assert len(mirrored.graph.faces) == len(g.graph.faces)
