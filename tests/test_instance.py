"""Instance model: parsing, face tracing, induced faces, contraction."""

import json
import random

import pytest

from bulkrobust import (InfeasibleError, InstanceError, Instance, gen_grid,
                        gen_series_parallel, induced_faces, parse_instance,
                        serialize_instance, trace_faces)
from conftest import grid_2x3, square_cycle, triangle_instance

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


def test_parse_rejects_bad_rotation():
    bad = json.loads(json.dumps(TRIANGLE_JSON))
    bad["rotation"]["0"] = [0]
    with pytest.raises(InstanceError, match="rotation at node 0"):
        parse_instance(json.dumps(bad))


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


def test_trace_faces_counts():
    assert len(trace_faces(triangle_instance())) == 2
    assert len(trace_faces(grid_2x3())) == 3
    path = Instance(3, [(0, 0, 1, 1), (1, 1, 2, 1)],
                    {0: [0], 1: [0, 1], 2: [1]}, "mst")
    faces = trace_faces(path)
    assert len(faces) == 1
    assert len(faces.faces[0]) == 4


def test_trace_faces_euler_everywhere():
    for seed in range(10):
        inst = gen_grid(2 + seed % 3, 3, 1, 2, 3, seed=seed)
        faces = trace_faces(inst)
        n, m = inst.node_count, len(inst.edges)
        assert n - m + len(faces) == 2
        # every dart in exactly one face, walk lengths sum to 2 m
        assert sum(len(w) for w in faces.faces) == 2 * m


def test_induced_faces_chosen_equals_all():
    sq = square_cycle()
    sub = induced_faces(sq, {0, 1, 2, 3})
    assert len(sub.faces) == 2
    assert sub.edge_face == {}


def test_induced_faces_triangle_single_edge():
    sub = induced_faces(triangle_instance(), {0})
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
    sub = induced_faces(g, chosen)
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
        from bulkrobust.instance import connected_under
        if not connected_under(nodes, (g.edge_map[e][:2] for e in chosen)):
            continue
        tried += 1
        sub = induced_faces(g, chosen)
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
    assert graph.is_connected()
    assert graph.euler_defect() == 0


def test_contract_path_edge():
    path = Instance(3, [(0, 0, 2, 1), (1, 2, 1, 1)],
                    {0: [0], 2: [0, 1], 1: [1]}, "st", 0, 1)
    out, node_map, loops = path.graph.contract(0)
    assert len(out.nodes) == 2
    assert len(out.edges) == 1 and loops == ()
    assert node_map[2] == 0
    _assert_valid_embedding(out)


def test_contract_creates_parallel_edges():
    tri = triangle_instance(problem="mst", scenarios=((1,),))
    out, _, loops = tri.graph.contract(0)
    assert len(out.nodes) == 2
    assert len(out.edges) == 2 and loops == ()   # parallel pair is kept
    _assert_valid_embedding(out)


def test_contract_preserves_planarity_grid():
    g = gen_grid(2, 3, 1, 1, 1, seed=7)
    base = Instance(g.node_count, g.edges, g.rotation, "mst")
    for e in sorted(base.edge_map):
        out, _, _ = base.graph.contract(e)
        assert len(out.nodes) == base.node_count - 1
        _assert_valid_embedding(out)


def test_orientation_mirror_still_valid():
    # reversing every rotation list mirrors the embedding; everything
    # downstream is orientation-agnostic
    g = gen_grid(3, 3, 2, 2, 3, seed=9)
    mirrored = Instance(g.node_count, g.edges,
                        {n: list(reversed(rot)) for n, rot in g.rotation.items()},
                        g.problem, g.s, g.t, g.scenarios)
    assert len(trace_faces(mirrored)) == len(trace_faces(g))
