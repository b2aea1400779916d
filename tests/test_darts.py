"""Parse's one pass over integer darts: the rotation check against the
sorted-list definition, the dart cycles against traced faces, and what
parse computes (no face trace, one Feasibility table, the one dart
permutation the instance graph's face walks and contractions read)."""

import copy
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import (InstanceError, gen_grid, instance, parse_instance, serialize_instance,
                        solve)
from bulkrobust.instance import Feasibility, PlaneGraph, count_cycles, dart_successors
from conftest import fresh_table
from test_parse import VIEW_INSTANCES

DOCUMENTS = [json.loads(serialize_instance(inst)) for inst in VIEW_INSTANCES]
MUTATIONS = ("swap", "duplicate", "drop", "foreign")


def edge_map_of(doc):
    return {e: (u, v, w) for e, u, v, w in doc["edges"]}


def first_bad_node(rotation, edge_map):
    """The sorted-list definition: the first node, in rotation order, whose
    rotation is not a permutation of its incident edges, with the message
    parse gives for it; None when every node's is."""
    incident = {}
    for e, (u, v, _) in edge_map.items():
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    for node, rot in rotation.items():
        if sorted(rot) != (expected := sorted(incident.get(node, ()))):
            return (f"invalid rotation at node {node}: expected the incident edges "
                    f"{expected}, got {sorted(rot)}")
    return None


def mutate(doc, draw):
    """One of the four rotation mutations at a drawn node with an edge."""
    rotation = doc["rotation"]
    key = draw(st.sampled_from(sorted(k for k, rot in rotation.items() if rot)))
    rot = rotation[key]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "swap":
        i, j = draw(st.integers(0, len(rot) - 1)), draw(st.integers(0, len(rot) - 1))
        rot[i], rot[j] = rot[j], rot[i]
    elif kind == "duplicate":
        rot.insert(draw(st.integers(0, len(rot))), draw(st.sampled_from(rot)))
    elif kind == "drop":
        del rot[draw(st.integers(0, len(rot) - 1))]
    else:       # an edge elsewhere in the graph, or an id no row holds
        node = int(key)
        foreign = [e for e, u, v, _ in doc["edges"] if node not in (u, v)]
        foreign.append(max(e for e, *_ in doc["edges"]) + 1)
        rot.insert(draw(st.integers(0, len(rot))), draw(st.sampled_from(foreign)))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_dart_check_accepts_what_the_sorted_lists_accept(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCUMENTS)))
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(doc, data.draw)
    edge_map = edge_map_of(doc)
    rotation = {int(key): tuple(rot) for key, rot in doc["rotation"].items()}
    message = first_bad_node(rotation, edge_map)
    phi = dart_successors(rotation, edge_map)
    assert (phi is None) == (message is not None)
    if phi is not None:
        # one cycle per face: the count equals the traced faces
        graph = PlaneGraph(tuple(range(doc["nodes"])), edge_map, rotation)
        faces = len(graph.trace_faces())
        assert count_cycles(phi) == faces
        defect = len(graph.nodes) - len(edge_map) + max(faces, 1) - 2
        if defect:
            message = "rotation system not planar (Euler check failed)"
    # parse reports the first bad node, or the Euler check, or accepts
    if message is None:
        parse_instance(json.dumps(doc))
    else:
        with pytest.raises(InstanceError) as info:
            parse_instance(json.dumps(doc))
        assert str(info.value) == message


def test_each_mutation_reaches_both_verdicts():
    # A swap keeps the rotation valid; a duplicated, dropped, foreign or
    # unknown entry breaks it, and so does an entry moved from one end of
    # its edge to a node it does not meet, which keeps the count at 2m.
    doc = DOCUMENTS[0]
    edge_map = edge_map_of(doc)
    node, rot = next((int(k), r) for k, r in doc["rotation"].items() if len(r) >= 2)
    rotation = {int(k): tuple(r) for k, r in doc["rotation"].items()}
    foreign = next(e for e, (u, v, _) in edge_map.items() if node not in (u, v))
    for changed, valid in [((rot[1], rot[0], *rot[2:]), True), ((*rot, rot[0]), False),
                           (tuple(rot[1:]), False), ((*rot, foreign), False),
                           ((*rot[1:], max(edge_map) + 1), False)]:
        assert (dart_successors({**rotation, node: changed}, edge_map)
                is not None) == valid, changed
    end = edge_map[foreign][1]
    moved = {**rotation, node: (*rot, foreign),
             end: tuple(e for e in rotation[end] if e != foreign)}
    assert sum(map(len, moved.values())) == 2 * len(edge_map)
    assert dart_successors(moved, edge_map) is None


def test_count_cycles_of_small_permutations():
    assert count_cycles([]) == 0
    assert count_cycles([0]) == 1
    assert count_cycles([1, 0, 2]) == 2
    phi = [1, 2, 0, 4, 3]
    assert count_cycles(phi) == 2
    assert phi == [1, 2, 0, 4, 3]      # read, not used up


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts face traces, dart permutations built (`dart_successors`),
    `requirement_met` and `requirement_holds` calls and Feasibility
    builds."""
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(PlaneGraph, "trace_faces")
    counted(instance, "dart_successors")
    counted(instance, "requirement_met")
    counted(instance.Instance, "requirement_holds")
    counted(Feasibility, "__init__")
    return calls


def test_parse_traces_no_faces_and_builds_one_table(parse_calls):
    texts = [serialize_instance(inst) for inst in VIEW_INSTANCES]
    for text in texts:
        parse_calls.clear()
        inst = parse_instance(text)
        assert parse_calls == {"__init__": 1, "dart_successors": 1}
        assert inst.feasibility(inst.edge_ids) is inst.feasibility(inst.edge_ids)
        assert parse_calls == {"__init__": 1, "dart_successors": 1}
        # the faces, traced on first read from parse's permutation, are
        # those of a fresh trace
        faces = inst.graph.faces
        assert parse_calls["trace_faces"] == 1
        assert faces == inst.graph.trace_faces()
        assert inst.graph.faces is faces
        assert parse_calls["dart_successors"] == 1


def test_dart_successors_runs_once_per_graph(parse_calls, monkeypatch):
    # Parse builds the instance graph's permutation, and its faces and every
    # contraction of it read that one.  Each contracted graph builds its own
    # once, for its Euler check, and its induced faces read it again.
    contract, built = PlaneGraph.contract, []

    def counted(graph, eids):
        result = contract(graph, eids)
        built.append(result[0] is not graph)
        return result

    monkeypatch.setattr(PlaneGraph, "contract", counted)
    # The vertex-cover reductions contract nothing; these grids' levels 2
    # contract 18, 7 and 8 edges.
    grids = [gen_grid(4, 5, 6, 3, 3, 2, "mst"), gen_grid(3, 4, 6, 2, 3, 0),
             gen_grid(3, 4, 6, 2, 3, 1)]
    for inst in VIEW_INSTANCES[-3:] + grids:
        parse_calls.clear()
        inst = parse_instance(serialize_instance(inst))
        inst.graph.faces
        assert parse_calls["dart_successors"] == 1
        start = len(built)
        solve(inst)
        assert parse_calls["dart_successors"] == 1 + sum(built[start:])
    assert sum(built) >= 3


def test_the_counters_are_live(parse_calls):
    inst = VIEW_INSTANCES[0]
    inst.requirement_holds(inst.edge_ids)
    inst.graph.trace_faces()
    graph = inst.graph
    PlaneGraph(graph.nodes, graph.edges, graph.rotation).darts
    fresh_table(inst, inst.edge_ids)
    assert parse_calls == {"requirement_holds": 1, "requirement_met": 1,
                           "trace_faces": 1, "dart_successors": 1, "__init__": 1}
