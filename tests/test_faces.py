"""Face walks over integer darts: `PlaneGraph.trace_faces`, whole and
restricted to chosen edges, and on contracted graphs, against the
dict-based reference tracer; contraction's dart walk against a walk over
the rotation lists."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import InvariantError, gen_grid, gen_hypergraph_vc, gen_series_parallel
from bulkrobust.instance import PlaneGraph, induced_faces
from conftest import reference_trace_faces, restricted_graph


@st.composite
def graphs(draw):
    """The graph of a generated grid, series-parallel graph (parallel edges)
    or hypergraph vertex-cover reduction."""
    family = draw(st.sampled_from(["grid", "sp", "hvc"]))
    seed = draw(st.integers(0, 2 ** 31))
    if family == "grid":
        inst = gen_grid(draw(st.integers(2, 4)), draw(st.integers(2, 5)), 1, 1, 3, seed)
    elif family == "sp":
        inst = gen_series_parallel(draw(st.integers(1, 5)), 1, 1, 3, seed)
    else:
        inst = gen_hypergraph_vc(draw(st.integers(2, 3)), 2, draw(st.integers(1, 4)), seed)[1]
    return inst.graph


def connected_subset(graph, rng):
    """A random connected edge set, grown from one edge by edges that meet
    the nodes reached so far."""
    ids = sorted(graph.edges)
    chosen = {rng.choice(ids)}
    nodes = set(graph.endpoints(*chosen))
    for _ in range(rng.randint(0, len(ids))):
        frontier = [e for e in ids if e not in chosen and nodes.intersection(graph.endpoints(e))]
        if not frontier:
            break
        chosen.add(e := rng.choice(frontier))
        nodes.update(graph.endpoints(e))
    return frozenset(chosen)


def assert_traced_as_reference(graph, chosen):
    """`trace_faces(chosen)` is the reference trace of the restricted graph:
    the same faces in the same order, each walk from the same dart, and the
    same maps, in the same order."""
    got = graph.trace_faces(chosen)
    want = reference_trace_faces(restricted_graph(graph, chosen))
    assert got == want
    assert list(got.dart_face) == list(want.dart_face)
    assert list(got.edge_faces) == list(want.edge_faces)
    return got


def rotation_list_walk(graph, eids):
    """The contracted rotation, walking each merged group's rotation lists:
    over a tree edge to its other end, on just after it there (found with
    `index`), and past any other edge at the same node.  The reference for
    `contract`'s dart walk."""
    node_map, tree, _, edges = graph.group(eids)
    rotation = {n: rot for n, rot in graph.rotation.items() if node_map[n] == n}
    for root in {node_map[graph.edges[e][0]] for e in tree}:
        walk, node, i = [], root, 0
        while True:
            rot = graph.rotation[node]
            e = rot[i]
            if e in tree:
                u, v = graph.endpoints(e)
                node = v if node == u else u
                rot = graph.rotation[node]
                i = rot.index(e)
            elif e in edges:
                walk.append(e)
            i = (i + 1) % len(rot)
            if i == 0 and node == root:
                break
        rotation[root] = tuple(walk)
    return rotation


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_restricted_walks_equal_the_reference(graph, data):
    assert graph.faces == reference_trace_faces(graph)
    assert_traced_as_reference(graph, frozenset(graph.edges))
    ids = sorted(graph.edges)
    # any subset, connected or not
    assert_traced_as_reference(graph, frozenset(data.draw(st.sets(st.sampled_from(ids)))))
    chosen = connected_subset(graph, random.Random(data.draw(st.integers(0, 2 ** 31))))
    walks = assert_traced_as_reference(graph, chosen)
    assert induced_faces(graph, chosen).faces == walks


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_contracted_graphs_walk_as_the_reference(graph, data):
    ids = sorted(graph.edges)
    eids = data.draw(st.sets(st.sampled_from(ids), max_size=len(ids) - 1))
    out = graph.contract(eids)[0]
    assert list(out.rotation.items()) == list(rotation_list_walk(graph, eids).items())
    assert out.faces == reference_trace_faces(out)
    assert out.euler_defect() == 0
    if out.edges:
        rest = sorted(out.edges)
        assert_traced_as_reference(out, frozenset(data.draw(st.sets(st.sampled_from(rest)))))
        chosen = connected_subset(out, random.Random(data.draw(st.integers(0, 2 ** 31))))
        assert induced_faces(out, chosen).faces == assert_traced_as_reference(out, chosen)


def test_a_rotation_missing_a_dart_is_an_invariant_error():
    # Node 1 lists edge 0 but not edge 1: three of the four darts.
    graph = PlaneGraph((0, 1, 2), {0: (0, 1, 1), 1: (1, 2, 1)}, {0: (0,), 1: (0,), 2: (1,)})
    with pytest.raises(InvariantError, match="not a permutation of the graph's darts"):
        graph.trace_faces()
    with pytest.raises(InvariantError, match="not a permutation"):
        graph.contract({0})
