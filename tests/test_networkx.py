"""Differential tests against networkx, an independent reference used only
in tests: the Euler check on rotation systems and the max-flow min-cut."""

import random

import networkx as nx
import pytest

from bulkrobust import Instance, InstanceError
from bulkrobust.lp import max_flow_min_cut


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
