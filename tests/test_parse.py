"""Parsing: the exact message of every fault `parse_instance` and `Instance`
report, which of two faults is reported, and the views parse builds
against their definitions."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import (InfeasibleError, Instance, InstanceError, gen_hypergraph_vc,
                        parse_instance, serialize_instance)
from conftest import TREE_GRIDS, build_suite_instance, square_with_chords, suite_schedule
from test_cli import FUZZ_BASES, _mutate

EDGES = [[0, 0, 1, 1], [1, 0, 2, 1], [2, 2, 1, 1]]
ROTATION = {"0": [0, 1], "1": [0, 2], "2": [1, 2]}
TRIANGLE = {"nodes": 3, "edges": EDGES, "rotation": ROTATION, "problem": "st",
            "s": 0, "t": 1, "scenarios": [[0]]}
DROP = object()


def triangle(**changes):
    """The triangle document with some keys replaced; DROP removes a key."""
    data = copy.deepcopy(TRIANGLE)
    for key, value in changes.items():
        if value is DROP:
            del data[key]
        else:
            data[key] = value
    return data


def edges_with(index, row):
    return [row if i == index else list(r) for i, r in enumerate(EDGES)]


def square_document(rotation_of_0):
    """The square with both chords, node 0's rotation replaced."""
    data = json.loads(serialize_instance(square_with_chords()))
    data["rotation"]["0"] = rotation_of_0
    return data


# (id, document or instance text, exception type, exact message)
SINGLE_FAULTS = [
    ("empty-text", "", InstanceError,
     "malformed instance file: Expecting value: line 1 column 1 (char 0)"),
    ("key-twice", '{"nodes": 3, "nodes": 3}', InstanceError,
     "malformed instance file: key 'nodes' appears twice in one object"),
    ("not-object", [], InstanceError, "instance file must hold a JSON object"),
    ("unknown-keys", triangle(more=1, extra=2), InstanceError,
     "unknown keys in instance file: ['extra', 'more']"),
    ("missing-nodes", triangle(nodes=DROP), InstanceError, "missing key 'nodes'"),
    ("missing-problem", triangle(problem=DROP), InstanceError, "missing key 'problem'"),
    ("nodes-str", triangle(nodes="3"), InstanceError, "nodes must be an integer"),
    ("nodes-bool", triangle(nodes=True), InstanceError, "nodes must be an integer"),
    ("edge-short", triangle(edges=edges_with(1, [1, 0, 2])), InstanceError,
     "edges must be a list of [id, u, v, w] integer rows"),
    ("rotation-list", triangle(rotation=[[0, 1]]), InstanceError,
     "rotation must map node ids to edge id lists"),
    ("rotation-key-text", triangle(rotation=dict(ROTATION, x=[0])), InstanceError,
     "rotation must map node ids to edge id lists"),
    ("rotation-float", triangle(rotation=dict(ROTATION, **{"0": [0.0, 1]})), InstanceError,
     "rotation must map node ids to edge id lists"),
    ("rotation-key-spelled", triangle(rotation={"0": [0, 1], "+1": [0, 2], "2": [1, 2]}),
     InstanceError, "rotation key '+1' is not a canonical node id"),
    ("terminal-str", triangle(t="1"), InstanceError,
     "terminals s and t must be integer node ids"),
    ("scenario-int", triangle(scenarios=[0]), InstanceError,
     "scenarios must be a list of edge id lists"),
    ("nodes-zero", triangle(nodes=0), InstanceError, "node count must be positive"),
    ("problem", triangle(problem="cut"), InstanceError, "unknown problem kind 'cut'"),
    ("edge-negative", triangle(edges=edges_with(1, [-1, 0, 2, 1])), InstanceError,
     "duplicate or negative edge id -1"),
    ("edge-duplicate", triangle(edges=edges_with(2, [0, 2, 1, 1])), InstanceError,
     "duplicate or negative edge id 0"),
    ("edge-dangling-u", triangle(edges=edges_with(2, [2, 3, 1, 1])), InstanceError,
     "dangling node id 3 on edge 2"),
    ("edge-dangling-v", triangle(edges=edges_with(2, [2, 2, -1, 1])), InstanceError,
     "dangling node id -1 on edge 2"),
    ("self-loop", triangle(edges=edges_with(0, [0, 1, 1, 1])), InstanceError,
     "self-loop on edge 0"),
    ("weight-negative", triangle(edges=edges_with(1, [1, 0, 2, -1])), InstanceError,
     "negative weight on edge 1"),
    ("weight-total", triangle(edges=edges_with(1, [1, 0, 2, 2 ** 53 - 1])), InstanceError,
     "total edge weight exceeds 2**53"),
    ("rotation-missing", triangle(rotation={"0": [0, 1], "1": [0, 2]}), InstanceError,
     "rotation must list every node exactly once"),
    ("rotation-negative", triangle(rotation={"0": [0, 1], "1": [0, 2], "-1": [1, 2]}),
     InstanceError, "rotation must list every node exactly once"),
    ("rotation-beyond", triangle(rotation={"0": [0, 1], "1": [0, 2], "3": [1, 2]}),
     InstanceError, "rotation must list every node exactly once"),
    ("nodes-huge", triangle(nodes=10 ** 30), InstanceError,
     "rotation must list every node exactly once"),
    ("rotation-edges", triangle(rotation=dict(ROTATION, **{"1": [0, 1]})), InstanceError,
     "invalid rotation at node 1: expected the incident edges [0, 2], got [0, 1]"),
    ("rotation-repeat", triangle(rotation=dict(ROTATION, **{"1": [0, 2, 2]})), InstanceError,
     "invalid rotation at node 1: expected the incident edges [0, 2], got [0, 2, 2]"),
    ("st-no-terminal", triangle(t=DROP), InstanceError,
     "problem 'st' requires terminals s and t"),
    ("terminal-dangling", triangle(s=3), InstanceError, "dangling terminal node id 3"),
    ("terminals-equal", triangle(t=0), InstanceError, "terminals s and t must differ"),
    ("mst-terminals", triangle(problem="mst", t=DROP), InstanceError,
     "problem 'mst' takes no terminals"),
    ("scenario-empty", triangle(scenarios=[[0], []]), InstanceError, "scenario 1 is empty"),
    ("scenario-repeat", triangle(scenarios=[[0, 1, 0]]), InstanceError,
     "scenario 0 repeats an edge id"),
    ("scenario-dangling", triangle(scenarios=[[0], [1, 7]]), InstanceError,
     "dangling edge id 7 in scenario 1"),
    ("disconnected", triangle(nodes=4, rotation=dict(ROTATION, **{"3": []})), InstanceError,
     "graph is not connected"),
    ("not-planar", square_document([0, 3, 4, 5]), InstanceError,
     "rotation system not planar (Euler check failed)"),
    ("infeasible", triangle(scenarios=[[0], [1, 2], [0, 1, 2], [0, 1]]), InfeasibleError,
     "infeasible instance: removing scenario 2 breaks the requirement"),
]

# Two faults in one input; the message names the one checked first.
TWO_FAULTS = [
    ("missing-before-unknown-type", triangle(nodes=DROP, edges=5), InstanceError,
     "missing key 'nodes'"),
    ("unknown-before-missing", triangle(extra=1, edges=DROP), InstanceError,
     "unknown keys in instance file: ['extra']"),
    ("nodes-before-edges", triangle(nodes="3", edges=[[0, 0, 1]]), InstanceError,
     "nodes must be an integer"),
    ("rotation-type-before-spelling", triangle(rotation={"01": [0, 1], "1": [0, 2], "2": 5}),
     InstanceError, "rotation must map node ids to edge id lists"),
    ("rotation-key-before-spelling", triangle(rotation={"02": [1, 2], "x": [0, 1]}),
     InstanceError, "rotation must map node ids to edge id lists"),
    ("first-spelling", triangle(rotation={"0": [0, 1], " 1": [0, 2], "02": [1, 2]}),
     InstanceError, "rotation key ' 1' is not a canonical node id"),
    ("spelling-before-terminals", triangle(rotation=dict(ROTATION, **{"00": [0, 1]}), s="0"),
     InstanceError, "rotation key '00' is not a canonical node id"),
    ("terminals-before-scenarios", triangle(s=None, t="1", scenarios=[[0.5]]), InstanceError,
     "terminals s and t must be integer node ids"),
    ("nodes-before-problem", triangle(nodes=0, problem="cut"), InstanceError,
     "node count must be positive"),
    ("problem-before-edges", triangle(problem="cut", edges=edges_with(0, [0, 1, 1, 1])),
     InstanceError, "unknown problem kind 'cut'"),
    ("dangling-before-loop", triangle(edges=edges_with(2, [2, 5, 5, 1])), InstanceError,
     "dangling node id 5 on edge 2"),
    ("dangling-u-before-v", triangle(edges=edges_with(2, [2, 7, 5, 1])), InstanceError,
     "dangling node id 7 on edge 2"),
    ("loop-before-weight", triangle(edges=edges_with(1, [1, 2, 2, -1])), InstanceError,
     "self-loop on edge 1"),
    ("earlier-row-first", triangle(edges=[[0, 0, 1, -1], [0, 0, 2, 1], [2, 2, 1, 1]]),
     InstanceError, "negative weight on edge 0"),
    ("duplicate-before-weight", triangle(edges=[[0, 0, 1, 1], [0, 0, 2, -1], [2, 2, 1, 1]]),
     InstanceError, "duplicate or negative edge id 0"),
    ("row-before-total", triangle(edges=[[0, 0, 1, 2 ** 53], [1, 0, 2, 1], [2, 2, 1, -1]]),
     InstanceError, "negative weight on edge 2"),
    ("total-before-rotation", triangle(edges=edges_with(0, [0, 0, 1, 2 ** 53]),
                                       rotation={"0": [0, 1]}),
     InstanceError, "total edge weight exceeds 2**53"),
    ("huge-before-terminals", triangle(nodes=10 ** 30, s=2, t=2), InstanceError,
     "rotation must list every node exactly once"),
    ("rotation-in-key-order", triangle(rotation={"2": [1], "0": [0, 1], "1": [0]}),
     InstanceError, "invalid rotation at node 2: expected the incident edges [1, 2], got [1]"),
    ("rotation-before-terminals", triangle(rotation=dict(ROTATION, **{"0": [0]}), t=0),
     InstanceError, "invalid rotation at node 0: expected the incident edges [0, 1], got [0]"),
    ("terminals-before-scenarios-checked", triangle(t=DROP, scenarios=[[]]), InstanceError,
     "problem 'st' requires terminals s and t"),
    ("repeat-before-dangling", triangle(scenarios=[[9, 9]]), InstanceError,
     "scenario 0 repeats an edge id"),
    ("first-dangling-id", triangle(scenarios=[[1, 9, 8]]), InstanceError,
     "dangling edge id 9 in scenario 0"),
    ("scenarios-before-connectivity",
     triangle(nodes=4, rotation=dict(ROTATION, **{"3": []}), scenarios=[[4]]),
     InstanceError, "dangling edge id 4 in scenario 0"),
    ("planarity-before-feasibility",
     dict(square_document([0, 3, 4, 5]), scenarios=[[0, 1, 2, 3, 4, 5]]),
     InstanceError, "rotation system not planar (Euler check failed)"),
]


@pytest.mark.parametrize("document, error, message",
                         [case[1:] for case in SINGLE_FAULTS + TWO_FAULTS],
                         ids=[case[0] for case in SINGLE_FAULTS + TWO_FAULTS])
def test_parse_reports_each_fault_with_its_message(document, error, message):
    text = document if isinstance(document, str) else json.dumps(document)
    with pytest.raises(InstanceError) as info:
        parse_instance(text)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("node_count, rotation, message", [
    (3, {0: [0, 1], 1: [0, 2], 2: [1, 2], "2": [2, 1]},
     "rotation must list every node exactly once"),
    (0, {0: [0, 1], "0": [0, 1]}, "node count must be positive"),
    (0, {}, "node count must be positive"),
], ids=["two-keys", "two-keys-before-nodes", "nodes-zero"])
def test_instance_reports_its_faults_with_their_messages(node_count, rotation, message):
    with pytest.raises(InstanceError) as info:
        Instance(node_count, [tuple(row) for row in EDGES], rotation, "st", 0, 1, [[0]])
    assert str(info.value) == message


def assert_views(inst):
    """The views parse builds equal their definitions from the rows, in the
    rows' order, and the graph shares the instance's dicts."""
    assert list(inst.edge_map.items()) == [(e, (u, v, w)) for e, u, v, w in inst.edges]
    assert inst.edge_ids == frozenset(e for e, *_ in inst.edges)
    assert inst.scenario_sets == tuple(frozenset(sc) for sc in inst.scenarios)
    assert inst.k == max((len(sc) for sc in inst.scenarios), default=0)
    assert inst.graph.nodes == tuple(range(inst.node_count))
    assert inst.graph.edges is inst.edge_map
    assert inst.graph.rotation is inst.rotation
    assert_exact_ints(inst)
    text = serialize_instance(inst)
    assert serialize_instance(parse_instance(text)) == text


def assert_exact_ints(inst):
    """Every number the views hold is a Python int itself: `==` alone would
    pass numpy's int64(1) and True for 1."""
    numbers = [inst.node_count, inst.k, *inst.edge_ids, *inst.touched, *inst.graph.nodes]
    numbers += [x for x in (inst.s, inst.t) if x is not None]
    for rows in (inst.edges, inst.edge_map.values(), inst.rotation.values(),
                 inst.scenarios, inst.scenario_sets):
        numbers += [x for row in rows for x in row]
    numbers += [*inst.edge_map, *inst.rotation]
    assert {type(x) for x in numbers} == {int}


VIEW_INSTANCES = ([build_suite_instance(p) for p in suite_schedule(200)] + TREE_GRIDS
                  + [gen_hypergraph_vc(k, size, count, seed)[1]
                     for k, size, count, seed in ((2, 2, 3, 5), (3, 3, 10, 5), (3, 4, 12, 9))])


def test_views_equal_their_definitions():
    for inst in VIEW_INSTANCES:
        assert_views(inst)
        assert_views(parse_instance(serialize_instance(inst)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_views_of_mutated_documents_equal_their_definitions(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    try:
        inst = parse_instance(json.dumps(doc))
    except InstanceError:
        return
    assert_views(inst)
