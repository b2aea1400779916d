"""Generators: structure, determinism, and the vertex-cover reduction."""

import hashlib
import random
from itertools import chain

import pytest

from bulkrobust import (InfeasibleError, Instance, InstanceError, InvariantError,
                        brute_force_opt, gen_grid, gen_hypergraph_vc, gen_series_parallel,
                        generators, instance, parse_instance, serialize_hypergraph,
                        serialize_instance)
from bulkrobust.generators import (Hypergraph, _sample_scenarios, random_hypergraph,
                                   reduce_hypergraph_vc)
from bulkrobust.instance import Feasibility, requirement_met
from bulkrobust.oracle import brute_force_vc
from conftest import parse_hypergraph


def test_grid_basic():
    inst = gen_grid(2, 3, 1, 1, 1, seed=7)
    assert inst.node_count == 6
    assert len(inst.edges) == 7
    assert len(inst.graph.faces) == 3
    assert inst.problem == "st" and inst.s == 0 and inst.t == 5


def test_grid_determinism():
    a = serialize_instance(gen_grid(3, 3, 2, 2, 5, seed=1))
    b = serialize_instance(gen_grid(3, 3, 2, 2, 5, seed=1))
    assert a == b
    c = serialize_instance(gen_grid(3, 3, 2, 2, 5, seed=2))
    assert a != c


def test_grid_small_diameter_cap():
    # on a 2x2 grid no feasible failure set can reach size 4: removing all
    # four edges (or any three) disconnects the corner terminals
    inst = gen_grid(2, 2, 1, 4, 1, seed=3)
    assert all(len(sc) <= 3 for sc in inst.scenarios)


def test_grid_roundtrip_and_feasibility():
    for seed in range(8):
        inst = gen_grid(2 + seed % 3, 3, 1 + seed % 4, 1 + seed % 4, 3,
                        seed=seed, problem="st" if seed % 2 else "mst")
        assert serialize_instance(parse_instance(serialize_instance(inst))) \
            == serialize_instance(inst)


def _series_parallel_reducible(inst):
    """Recognizer: merge parallel edges and splice interior degree-2 nodes
    until only a single s-t edge remains."""
    edges = {e: (u, v) for e, (u, v, _) in inst.edge_map.items()}
    s, t = inst.s, inst.t
    changed = True
    while changed:
        changed = False
        seen = {}
        for e, (u, v) in sorted(edges.items()):
            key = (min(u, v), max(u, v))
            if key in seen:
                del edges[e]
                changed = True
                break
            seen[key] = e
        if changed:
            continue
        degree = {}
        incident = {}
        for e, (u, v) in edges.items():
            for n in (u, v):
                degree[n] = degree.get(n, 0) + 1
                incident.setdefault(n, []).append(e)
        for n, d in sorted(degree.items()):
            if d == 2 and n not in (s, t):
                e1, e2 = incident[n]
                a = edges[e1][0] if edges[e1][1] == n else edges[e1][1]
                b = edges[e2][0] if edges[e2][1] == n else edges[e2][1]
                if a == b and a != n:
                    # would create a self-loop; treat as parallel merge
                    del edges[e2]
                else:
                    edges[e1] = (a, b)
                    del edges[e2]
                changed = True
                break
    return len(edges) == 1 and set(next(iter(edges.values()))) == {s, t}


def test_sp_depth0():
    inst = gen_series_parallel(0, 0, 1, 1, seed=0)
    assert inst.node_count == 2 and len(inst.edges) == 1
    assert len(inst.graph.faces) == 1


def test_sp_depth1_parallel_root():
    inst = gen_series_parallel(1, 1, 1, 1, seed=9)
    assert inst.node_count == 2 and len(inst.edges) == 2
    assert len(inst.graph.faces) == 2


def test_sp_structure_and_recognizer():
    for seed in range(10):
        inst = gen_series_parallel(3, 1, 2, 4, seed=seed)
        assert inst.graph.euler_defect() == 0
        assert _series_parallel_reducible(inst), seed


def test_sp_determinism():
    a = serialize_instance(gen_series_parallel(3, 2, 2, 5, seed=9))
    b = serialize_instance(gen_series_parallel(3, 2, 2, 5, seed=9))
    assert a == b


def _sp_text(depth, seed, problem):
    # Depth 0 is a single edge; every scenario would break it, so it gets none.
    return serialize_instance(gen_series_parallel(depth, 2 if depth else 0, 2, 5, seed,
                                                  problem)).encode()


def test_sp_instances_are_pinned():
    # A change to the builder must leave every instance byte-identical.
    digest = hashlib.sha256()
    for depth in range(11):
        for seed in range(4):
            for problem in ("st", "mst"):
                digest.update(_sp_text(depth, seed, problem))
    assert digest.hexdigest() == \
        "13f89f1205918d8dc925667c2dfcb1ef253b3a140accad85db7ea08efd2ba739"
    assert hashlib.sha256(_sp_text(12, 1, "st")).hexdigest() == \
        "aa76d0fa257d005e8220e55b27f88c5e2f84ba131a58581b039fed70002147ed"


@pytest.fixture
def builds(monkeypatch):
    """Records every Feasibility table built and counts `requirement_met`
    calls, wherever the generators look it up, and `check_feasible` calls."""
    record = {"tables": [], "requirement_met": 0, "check_feasible": 0}
    build = Feasibility.__init__
    check = Instance.check_feasible

    def recording_build(self, *args):
        build(self, *args)
        record["tables"].append(self)

    def counted(*args, **kwargs):
        record["requirement_met"] += 1
        return requirement_met(*args, **kwargs)

    def counted_check(self):
        record["check_feasible"] += 1
        return check(self)

    monkeypatch.setattr(Feasibility, "__init__", recording_build)
    monkeypatch.setattr(Instance, "check_feasible", counted_check)
    monkeypatch.setattr(instance, "requirement_met", counted)
    monkeypatch.setattr(generators, "requirement_met", counted, raising=False)
    return record


def sampled(make, builds):
    """(instance, the table its scenario sampling asked), from one build per
    generated graph: the instance reads that table and keeps none."""
    builds["tables"].clear()
    builds["check_feasible"] = 0
    inst = make()
    assert builds["requirement_met"] == 0 and builds["check_feasible"] == 0
    [sampling] = builds["tables"]
    assert sampling.x == inst.edge_ids
    assert "_feasibility" not in vars(inst)
    return inst, sampling


def every_edge_table(inst, problem):
    """A table of every edge with every edge removable and one scenario
    holding them all, as `_sample_scenarios` builds it."""
    every = inst.edge_ids
    s, t = (inst.s, inst.t) if problem == "st" else (None, None)
    return Feasibility(inst.node_count, inst.edge_map, problem, s, t, every, (every,), every)


def candidates(inst, k, rng, count=60):
    """Random sets of 1..k edges, every node's incident edges (a cut), the
    whole edge set and the empty set, each sorted as sampling draws them."""
    pool = sorted(inst.edge_ids)
    drawn = [rng.sample(pool, min(rng.randint(1, k), len(pool))) for _ in range(count)]
    incident = [[e for e, (u, v, _) in inst.edge_map.items() if node in (u, v)]
                for node in range(inst.node_count)]
    return [tuple(sorted(c)) for c in chain(drawn, incident, [pool, []])]


def assert_sampling_agrees(inst, table, problem, rng, k=3):
    s, t = (inst.s, inst.t) if problem == "st" else (None, None)
    answers = set()
    for cand in candidates(inst, k, rng):
        held = requirement_met(inst.node_count,
                               [row for e, row in inst.edge_map.items() if e not in cand],
                               problem, s, t)
        assert (table.cut(0, cand) is None) == held, (problem, cand)
        answers.add(held)
    assert answers == {True, False}


def generated(seeds=range(6)):
    """(problem, maker) pairs: grids and series-parallel graphs (parallel
    edges), st and mst, 4 scenarios of at most 3 edges, over several seeds.
    Each maker reads the loop's variables, so call it before the next pair."""
    for seed in seeds:
        for problem in ("st", "mst"):
            rows, cols = 2 + seed % 3, 2 + seed % 4
            yield problem, lambda: gen_grid(rows, cols, 4, 3, 5, seed, problem)
            yield problem, lambda: gen_series_parallel(1 + seed % 5, 4, 3, 5, seed, problem)


def test_sampling_asks_one_table_as_requirement_met_answers(builds):
    # Grids and series-parallel graphs (parallel edges), st and mst: the
    # table the generator built accepts exactly what a union-find accepts.
    rng = random.Random(5)
    for problem, make in generated():
        inst, table = sampled(make, builds)
        assert_sampling_agrees(inst, table, problem, rng)
    # Vertex-cover reductions sample nothing; their graphs are asked through
    # the same build, for st and for mst.
    for seed in range(6):
        inst = gen_hypergraph_vc(2 + seed % 2, 3, 4 + seed, seed)[1]
        for problem in ("st", "mst"):
            assert_sampling_agrees(inst, every_edge_table(inst, problem), problem, rng)


def test_the_handed_table_is_the_checks_proof(builds):
    # The table a generator hands to its instance answers connectivity and
    # every scenario as a fresh check does: the instance's own table, which
    # it builds on demand, `check_feasible` on it, a union-find per
    # scenario, and parse, which builds and checks its own table.
    for problem, make in generated():
        inst, table = sampled(make, builds)
        s, t = (inst.s, inst.t) if problem == "st" else (None, None)
        fresh = inst.feasibility(inst.edge_ids)
        assert fresh is not table and fresh.x == inst.edge_ids
        assert table.connected and fresh.connected
        assert inst.k <= 3 and fresh.failures(inst.k) == {}
        for j, scenario in enumerate(inst.scenarios):
            assert table.cut(0, scenario) is None and fresh.cut(j, scenario) is None
            assert requirement_met(inst.node_count, [row for e, row in inst.edge_map.items()
                                                     if e not in scenario], problem, s, t)
        builds["tables"].clear()
        inst.check_feasible()
        assert builds["check_feasible"] == 1 and builds["tables"] == []
        parsed = parse_instance(serialize_instance(inst))
        # parse builds one table and checks every scenario through it
        assert builds["check_feasible"] == 2
        assert builds["tables"] == [parsed.feasibility(parsed.edge_ids)]
        assert serialize_instance(parsed) == serialize_instance(inst)


def test_sampling_draws_as_before_and_sorts_what_it_accepts():
    # The sampler asks `cut` with the drawn list and sorts only the accepted
    # candidates, so its rng draws, and so its scenarios, are those of
    # sorting every candidate first.
    for problem, make in generated(range(4)):
        inst = make()
        s, t = (inst.s, inst.t) if problem == "st" else (None, None)
        weighted = list(inst.edges)
        for k in (1, 2, 3):
            rng, ref = random.Random(k), random.Random(k)
            scenarios, table = _sample_scenarios(inst.node_count, weighted, problem, s, t,
                                                 6, k, rng)
            expected, pool = [], sorted(inst.edge_ids)
            while len(expected) < 6:
                cand = tuple(sorted(ref.sample(pool, min(ref.randint(1, k), len(pool)))))
                if table.cut(0, cand) is None:
                    expected.append(cand)
            assert scenarios == expected
            assert rng.getstate() == ref.getstate()


def test_direct_and_reduced_instances_check_their_own_table(builds):
    # An `Instance(...)` built directly, or by a reduction, which samples
    # nothing, builds its own table and asks it; an infeasible scenario
    # still raises.
    inst = gen_grid(3, 3, 2, 2, 3, seed=4)
    args = (inst.node_count, inst.edges, inst.rotation, "st", inst.s, inst.t)
    builds["tables"].clear()
    builds["check_feasible"] = 0
    again = Instance(*args, inst.scenarios)
    assert builds["tables"] == [again.feasibility(again.edge_ids)]
    assert builds["check_feasible"] == 1
    corner = [e for e, (u, v, _) in inst.edge_map.items() if 0 in (u, v)]
    with pytest.raises(InfeasibleError, match="removing scenario 1 breaks"):
        Instance(*args, [inst.scenarios[0], corner])
    with pytest.raises(InfeasibleError, match="removing scenario 0 breaks"):
        Instance(*args[:3], "mst", scenarios=[corner])
    builds["tables"].clear()
    builds["check_feasible"] = 0
    reduced = gen_hypergraph_vc(3, 3, 6, 2)[1]
    assert builds["tables"] == [reduced.feasibility(reduced.edge_ids)]
    assert builds["check_feasible"] == 1


def test_a_table_of_other_edges_is_no_proof():
    inst = gen_grid(2, 3, 1, 1, 1, seed=7)
    every = frozenset(list(inst.edge_ids)[1:])
    other = Feasibility(inst.node_count, inst.edge_map, "st", inst.s, inst.t,
                        every, (every,), every)
    with pytest.raises(InvariantError, match="sampling table"):
        Instance(inst.node_count, inst.edges, inst.rotation, "st", inst.s, inst.t,
                 inst.scenarios, _proof=other)


def test_hypergraph_validation():
    with pytest.raises(InstanceError, match="two parts"):
        Hypergraph(((0, 1), (1,)), ())
    with pytest.raises(InstanceError, match="exactly one node"):
        Hypergraph(((0,), (1,)), ((0,),))
    h = Hypergraph(((0, 1), (2,)), ((0, 2), (1, 2)))
    assert h.k == 2
    assert parse_hypergraph(serialize_hypergraph(h)).hyperedges == h.hyperedges
    # Files that are not UTF-8, not integer id lists, or hold an integer past
    # Python's digit limit, fail as instance errors.
    for text, message in [
            (b'\xff', "malformed"),
            ('{"parts": 5, "hyperedges": []}', "integer node id lists"),
            ('{"parts": [[' + "9" * 5000 + '], [1]], "hyperedges": []}', "malformed"),
            ('{"parts": [["a"], [1]], "hyperedges": [["a", 1]]}', "integer node id lists"),
            ('{"parts": [[true], [2]], "hyperedges": [[true, 2]]}', "integer node id lists"),
            ('{"parts": [[0], [1]], "hyperedges": [[0, 1.5]]}', "integer node id lists")]:
        with pytest.raises(InstanceError, match=message):
            parse_hypergraph(text)


def test_reduction_single_hyperedge():
    h = Hypergraph(((0,), (1,)), ((0, 1),))
    inst = reduce_hypergraph_vc(h)
    assert inst.node_count == 2
    zero = [e for e, u, v, w in inst.edges if w == 0]
    unit = [e for e, u, v, w in inst.edges if w == 1]
    assert len(zero) == 2 and len(unit) == 2
    assert len(inst.scenarios) == 1 and len(inst.scenarios[0]) == 2
    opt, _ = brute_force_opt(inst)
    vc, _ = brute_force_vc(h)
    assert opt == vc == 1


def test_reduction_two_hyperedges_shared_node():
    h = Hypergraph(((0, 1), (2,)), ((0, 2), (1, 2)))
    vc, witness = brute_force_vc(h)
    assert vc == 1 and witness == frozenset({2})
    opt, _ = brute_force_opt(reduce_hypergraph_vc(h))
    assert opt == 1


def test_reduction_scenario_shape():
    for seed in range(12):
        k = 2 + seed % 3
        edges = min(2 + seed % 4, 2 ** k)
        h, inst = gen_hypergraph_vc(k, 2, edges, seed)
        assert len(inst.scenarios) == len(h.hyperedges)
        assert all(len(sc) == k for sc in inst.scenarios)
        assert inst.graph.euler_defect() == 0
        assert serialize_instance(parse_instance(serialize_instance(inst))) \
            == serialize_instance(inst)


def test_random_hypergraph_determinism():
    a = random_hypergraph(3, 2, 4, seed=5)
    b = random_hypergraph(3, 2, 4, seed=5)
    assert a == b
