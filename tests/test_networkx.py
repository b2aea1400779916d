"""Differential tests against networkx, an independent reference used only
in tests: the Euler check on rotation systems, the max-flow min-cut, the
face distances (Dijkstra maps and the all-pairs closure), and what the
union-find and the oracle's search answer (the requirement, feasibility,
contraction groups, the MST weight)."""

import random

import networkx as nx
import pytest

from bulkrobust import Instance, InstanceError, is_feasible
from bulkrobust.driver import minimum_spanning_tree
from bulkrobust.links import ClosureMaps, dijkstra, face_closure
from bulkrobust.lp import max_flow_min_cut
from conftest import build_suite_instance, component_of, suite_schedule


def random_rotation_system(rng):
    """A simple connected graph with a random rotation at every node:
    (node count, [(id, u, v)], {node: [edge ids]})."""
    n = rng.randint(2, 7)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]     # a random tree
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in pairs]
    pairs += rng.sample(others, min(len(others), rng.randint(0, 4)))
    edges = [(e, u, v) for e, (u, v) in enumerate(pairs)]
    rotation = {v: [] for v in range(n)}
    for e, u, v in edges:
        rotation[u].append(e)
        rotation[v].append(e)
    for rot in rotation.values():
        rng.shuffle(rot)
    return n, edges, rotation


def test_euler_check_agrees_with_planar_embedding():
    rng = random.Random(20151)
    verdicts = []
    for _ in range(600):
        n, edges, rotation = random_rotation_system(rng)
        try:
            Instance(n, [(e, u, v, 1) for e, u, v in edges], rotation, "mst")
            ours = True
        except InstanceError as exc:
            assert "not planar" in str(exc)
            ours = False
        ends = {e: (u, v) for e, u, v in edges}
        embedding = nx.PlanarEmbedding()
        embedding.set_data({v: [ends[e][0] + ends[e][1] - v for e in rot]
                            for v, rot in rotation.items()})
        try:
            embedding.check_structure()
            theirs = True
        except nx.NetworkXException:
            theirs = False
        assert ours == theirs, (n, edges, rotation)
        verdicts.append(ours)
    assert 100 < sum(verdicts) < 500     # both verdicts are well represented


@pytest.mark.parametrize("seed", range(4))
def test_max_flow_agrees_with_networkx(seed):
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(2, 7)
        arcs = [(u, v, rng.randint(0, 4))
                for u, v in (rng.sample(range(n), 2) for _ in range(rng.randint(0, 14)))]
        arcs += arcs[:rng.randint(0, 3)]                        # parallel copies
        source, sink = rng.sample(range(n), 2)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(n))
        for u, v, cap in arcs:
            for a, b in ((u, v), (v, u)):
                old = reference.get_edge_data(a, b, {"capacity": 0})["capacity"]
                reference.add_edge(a, b, capacity=old + cap)
        expected = nx.maximum_flow_value(reference, source, sink)

        value, side = max_flow_min_cut(arcs, source, sink)
        assert source in side and sink not in side, (arcs, source, sink)
        cut = sum(cap for u, v, cap in arcs if (u in side) != (v in side))
        assert value == expected and cut == expected, (arcs, source, sink)


def test_face_distances_agree_with_networkx():
    # Parallel edges, zero weights and several components.
    rng = random.Random(22)
    for _ in range(200):
        graph = nx.MultiGraph()
        adj = {}
        for eid in range(rng.randint(1, 30)):
            u, v = rng.sample(range(12), 2)
            w = rng.randint(0, 4)
            graph.add_edge(u, v, weight=w)
            adj.setdefault(u, []).append((eid, v, w))
            adj.setdefault(v, []).append((eid, u, w))
        ends = sorted(adj)
        maps = ClosureMaps(ends, face_closure(adj, ends))
        for source, want in nx.all_pairs_dijkstra_path_length(graph):
            assert dijkstra(adj, source) == want
            assert maps[source] == want


def nx_requirement(instance, edges):
    component = component_of(range(instance.node_count),
                             (instance.edge_map[e][:2] for e in edges))
    if instance.problem == "st":
        return component[instance.s] == component[instance.t]
    return len(set(component.values())) == 1


def test_connectivity_agrees_with_networkx():
    """On random edge subsets of suite instances: the requirement, the
    oracle's feasibility and the contracted node map; per instance, the
    minimum spanning tree's weight."""
    rng = random.Random(2016)
    verdicts = []
    for instance in (build_suite_instance(p) for p in suite_schedule(60)):
        ids = sorted(instance.edge_ids)
        for _ in range(20):
            subset = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            holds = nx_requirement(instance, subset)
            assert instance.requirement_holds(subset) == holds, sorted(subset)
            feasible = all(nx_requirement(instance, subset - full)
                           for full in (frozenset(), *instance.scenario_sets))
            assert is_feasible(instance, subset) == feasible, sorted(subset)
            verdicts.append((holds, feasible))

            _, node_map, _, _ = instance.graph.contract(subset)
            component = component_of(range(instance.node_count),
                                      (instance.edge_map[e][:2] for e in subset))
            smallest = {}
            for n in range(instance.node_count):
                smallest.setdefault(component[n], n)
            assert node_map == {n: smallest[component[n]] for n in range(instance.node_count)}

        reference = nx.MultiGraph()
        reference.add_weighted_edges_from((u, v, w) for _, u, v, w in instance.edges)
        tree = minimum_spanning_tree(instance)
        assert len(tree) == instance.node_count - 1
        assert instance.weight_of(tree) == nx.minimum_spanning_tree(
            reference).size(weight="weight")
    for verdict in ((False, False), (True, False), (True, True)):
        assert verdicts.count(verdict) > 100, verdict
