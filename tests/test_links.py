"""Step preprocessing, cuts, the cover relation, typed links."""

from collections import Counter
from itertools import combinations

import pytest

from bulkrobust import BudgetError, Instance, InvariantError, gen_grid, gen_hypergraph_vc, solve
from bulkrobust import driver
from bulkrobust.driver import minimum_spanning_tree as mst
from bulkrobust.driver import shortest_st_path
from bulkrobust.instance import Feasibility, induced_faces
from bulkrobust.links import (TypedLink, dijkstra, enumerate_typed_links, lex_shortest_path,
                              preprocess_step)
from conftest import (TREE_GRIDS, build_suite_instance, reference_cuts, square_with_chords,
                      suite_schedule, triangle_instance)


def table_sides(ctx, f_set):
    """(side_s, side_t) of a relevant failure set as `preprocess_step` stores
    it: the nodes whose side mask has the set's bit clear are on s's side."""
    bit = 1 << ctx.omega.index(frozenset(f_set))
    side_s = frozenset(n for n in ctx.cut_nodes if not ctx.side_masks[n] & bit)
    return side_s, frozenset(ctx.cut_nodes) - side_s


def test_preprocess_triangle_level1():
    tri = triangle_instance()
    ctx = preprocess_step(tri, {0}, 1)
    assert ctx.omega == (frozenset({0}),)
    assert ctx.contracted == ()
    assert table_sides(ctx, {0}) == (frozenset({0}), frozenset({1}))
    assert ctx.covering([TypedLink(0, 1, 0, 2)]) == {frozenset({0}): (0,)}


def test_st_sides_are_anchored_at_s_not_the_smallest_node():
    # t = 0 and s = 1: s's side has every bit clear, as the reference has it
    tri = triangle_instance()
    flipped = Instance(tri.node_count, tri.edges, tri.rotation, "st", 1, 0, [(0,)])
    ctx = preprocess_step(flipped, {0}, 1)
    assert ctx.side_masks == {0: 1, 1: 0}
    assert table_sides(ctx, {0}) == reference_cuts(ctx)[frozenset({0})] == (
        frozenset({1}), frozenset({0}))


def test_preprocess_square_level2():
    sq = square_with_chords(inner=True, outer=False)
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    assert ctx.omega == (frozenset({0, 2}),)
    # the two cycle edges outside the failure set contract away, leaving a
    # two-edge cycle between the merged s-side and the merged a/t-side
    assert set(ctx.contracted) == {1, 3}
    assert ctx.kept_x == frozenset({0, 2})
    s_side = ctx.node_map[0]
    a_side = ctx.node_map[1]
    assert ctx.node_map[3] == s_side and ctx.node_map[2] == a_side
    assert table_sides(ctx, {0, 2}) == (frozenset({s_side}), frozenset({a_side}))
    assert ctx.covering([TypedLink(s_side, a_side, 0, 1)]) == {frozenset({0, 2}): (0,)}


def test_preprocess_irrelevant_scenario():
    g = gen_grid(2, 3, 1, 1, 1, seed=7)
    tree = mst(g)
    non_tree = sorted(set(g.edge_map) - tree)
    inst = type(g)(g.node_count, g.edges, g.rotation, g.problem, g.s, g.t,
                   scenarios=[(non_tree[0],)])
    ctx = preprocess_step(inst, tree, 1)
    assert ctx.omega == ()


def test_preprocess_rejects_infeasible_x():
    sq = square_with_chords(inner=True, outer=False)
    with pytest.raises(ValueError, match="not feasible"):
        preprocess_step(sq, {0, 1}, 2)  # a bare path cannot survive level 1


def test_preprocess_names_the_failing_subset_and_scenario():
    # scenario 0 survives X = {0, 1}; removing e0 of scenario 1 cuts s from t
    sq = square_with_chords(inner=True, outer=False, scenarios=((3,), (0, 2)))
    with pytest.raises(ValueError, match=r"^X is not feasible for level 1: "
                       r"removing \[0\] from scenario 1 disconnects it$"):
        preprocess_step(sq, {0, 1}, 2)


def test_preprocess_contracts_unprotected_edges():
    # X is the path s-a-t; only e0 is threatened, so e1 contracts away
    sq = square_with_chords(inner=True, outer=False, scenarios=((0,),))
    ctx = preprocess_step(sq, {0, 1}, 1)
    assert ctx.omega == (frozenset({0}),)
    assert ctx.contracted == (1,)
    assert ctx.kept_x == frozenset({0})


def test_preprocess_cycle_ignores_single_failures():
    # removing one edge of a cycle never disconnects it
    sq = square_with_chords(inner=True, outer=False, scenarios=((0,),))
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 1)
    assert ctx.omega == ()


def cut_instances():
    yield from (build_suite_instance(p) for p in suite_schedule(200))
    yield gen_hypergraph_vc(3, 3, 12, 5)[1]
    for weight in (1, 3):
        for seed in range(4):
            yield gen_grid(10, 10, 36, 3, weight, seed, "mst")


def test_table_cuts_match_the_per_set_union_find(monkeypatch):
    contexts = []

    def recording(instance, x_edges, level):
        ctx = preprocess_step(instance, x_edges, level)
        if ctx.omega:
            contexts.append(ctx)
        return ctx

    monkeypatch.setattr(driver, "preprocess_step", recording)
    levels, sets = set(), 0
    for idx, instance in enumerate(cut_instances()):
        contexts.clear()
        solve(instance)
        for ctx in contexts:
            for f_set, sides in reference_cuts(ctx).items():
                assert table_sides(ctx, f_set) == sides, sorted(f_set)
                sets += 1
            levels.add((idx, ctx.level))
    assert {level for _, level in levels} == {1, 2, 3} and len(levels) > 200
    assert sets > 700


SUITE_200 = [build_suite_instance(p) for p in suite_schedule(200)]


def test_preprocess_asks_each_failure_subset_once(monkeypatch):
    # Per level, every size-`level` subset of F_j & X is asked once, at the
    # first scenario that holds it; the relevant sets' cuts are read as that
    # one query returned them.  No (table, subset) is asked twice in a solve.
    asked = []          # (table, scenario, subset) per query inside preprocess_step
    inside = []
    cut = Feasibility.cut

    def recording_cut(self, j, removed):
        if inside:
            asked.append((self, j, tuple(removed)))
        return cut(self, j, removed)

    def recording_step(instance, x_edges, level):
        start = len(asked)
        inside.append(level)
        try:
            ctx = preprocess_step(instance, x_edges, level)
        finally:
            inside.pop()
        x = frozenset(x_edges)
        expected = []
        for j, full in enumerate(instance.scenario_sets):
            for sub in combinations(sorted(full & x), level):
                if all(sub != found for _, found in expected):
                    expected.append((j, sub))
        found = [(j, sub) for _, j, sub in asked[start:] if len(sub) == level]
        assert found == expected, (level, sorted(x))
        levels.add(level)
        return ctx

    monkeypatch.setattr(Feasibility, "cut", recording_cut)
    monkeypatch.setattr(driver, "preprocess_step", recording_step)
    levels, queries = set(), 0
    for instance in SUITE_200 + [gen_hypergraph_vc(3, 3, 12, 5)[1]]:
        asked.clear()
        solve(instance)
        keys = [(id(table), frozenset(sub)) for table, _, sub in asked]
        assert len(set(keys)) == len(keys)
        queries += len(keys)
    assert {1, 2, 3} <= levels and queries > 800


def test_a_solve_asks_each_subset_once_per_table(monkeypatch):
    # Across scenarios, sizes and the check after each level, no
    # (table, subset) is asked twice.  The list keeps every table alive, so
    # no freed table's id is taken by a new one.
    tables, asked = [], Counter()
    cut = Feasibility.cut

    def recording_cut(self, j, removed):
        tables.append(self)
        asked[id(self), frozenset(removed)] += 1
        return cut(self, j, removed)

    monkeypatch.setattr(Feasibility, "cut", recording_cut)
    for instance in SUITE_200 + [gen_hypergraph_vc(3, 3, 12, 5)[1]]:
        solve(instance)
    assert sum(asked.values()) > 1000
    assert [key for key, count in asked.items() if count > 1] == []


def test_scenario_faces_match_the_face_walks(monkeypatch):
    # Each set's faces, read from the edge-to-face map, are the faces whose
    # boundary walk holds exactly two of its edges; every (set, face) pair
    # still counts as checked.
    seen = {"contexts": 0, "sets": 0}

    def recording(instance, x_edges, level):
        ctx = preprocess_step(instance, x_edges, level)
        if level >= 2 and ctx.omega:
            walks = ctx.subgraph.faces.faces
            walk_edges = [{e for _, e in walk} for walk in walks]
            assert set(ctx.scenario_faces) == set(ctx.omega)
            for f_set in ctx.omega:
                assert ctx.scenario_faces[f_set] == tuple(
                    idx for idx, edges in enumerate(walk_edges) if len(f_set & edges) == 2)
            assert ctx.cut_face_checks == len(ctx.omega) * len(ctx.subgraph.faces)
            seen["contexts"] += 1
            seen["sets"] += len(ctx.omega)
        return ctx

    monkeypatch.setattr(driver, "preprocess_step", recording)
    for instance in SUITE_200 + [gen_hypergraph_vc(3, 3, 10, 5)[1],
                                     gen_hypergraph_vc(4, 3, 8, 1)[1]]:
        solve(instance)
    assert seen["contexts"] > 50 and seen["sets"] > 100


@pytest.mark.parametrize("patch, message", [
    ("cut", r"^failure set \[0, 2\] leaves 3 components, expected exactly 2$"),
    ("sides", r"^edge 0 of failure set \[0, 2\] does not cross its cut$"),
    ("labels", r"^solution node 1 lies in no labelled component of scenario 0 "
               r"at level 2$"),
])
def test_preprocess_checks_the_cuts_it_reads(monkeypatch, patch, message):
    # The forged cuts keep None where the requirement holds, so only the
    # relevant set's cut changes.
    cut, labels = Feasibility.cut, Feasibility.labels
    if patch == "cut":
        monkeypatch.setattr(Feasibility, "cut", lambda self, j, removed: (
            found := cut(self, j, removed)) and (3, found[1]))
    elif patch == "sides":     # two components, but every label on one side
        monkeypatch.setattr(Feasibility, "cut", lambda self, j, removed: (
            found := cut(self, j, removed)) and (2, [0] * len(found[1])))
    else:
        monkeypatch.setattr(Feasibility, "labels", lambda self, j, nodes: [
            None if node == max(nodes) else found
            for node, found in zip(nodes, labels(self, j, nodes))])
    sq = square_with_chords(inner=True, outer=False)
    with pytest.raises(InvariantError, match=message):
        preprocess_step(sq, {0, 1, 2, 3}, 2)


def test_typed_links_triangle():
    tri = triangle_instance()
    ctx = preprocess_step(tri, {0}, 1)
    links = enumerate_typed_links(ctx)
    assert len(links) == 1
    link = links[0]
    assert (link.u, link.v) == (0, 1)
    assert ctx.link_path(link) == (1, 2)
    assert link.cost == 2


def test_typed_links_empty_interior(monkeypatch):
    # chord-free square cycle: no candidate edges, so no links (the bare
    # instance is infeasible as a whole, which is fine for a step test)
    from conftest import square_cycle
    monkeypatch.setattr(Instance, "check_feasible", lambda self: None)
    sq = square_cycle(scenarios=((0, 2),))
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    assert ctx.omega == (frozenset({0, 2}),)
    assert enumerate_typed_links(ctx) == ()


def test_typed_links_grid_outer_cycle():
    # X = the grid's outer cycle; a two-edge failure splits it and the
    # middle edge is the only candidate, living in the merged inner face
    g = gen_grid(2, 3, 1, 1, 1, seed=7)
    mid = next(e for e, (u, v, _) in g.edge_map.items() if {u, v} == {1, 4})
    outer = frozenset(g.edge_map) - {mid}
    e_a = next(e for e, (u, v, _) in g.edge_map.items() if {u, v} == {0, 1})
    e_b = next(e for e, (u, v, _) in g.edge_map.items() if {u, v} == {4, 5})
    inst = type(g)(g.node_count, g.edges, g.rotation, g.problem, g.s, g.t,
                   scenarios=[(e_a, e_b)])
    ctx = preprocess_step(inst, outer, 2)
    links = enumerate_typed_links(ctx)
    assert len(links) == 1
    assert ctx.link_path(links[0]) == (mid,)
    assert {links[0].u, links[0].v} == {ctx.node_map[1], ctx.node_map[4]}
    assert links[0].cost == g.edge_map[mid][2]


def test_typed_link_costs_match_face_dijkstra():
    for seed in range(6):
        g = gen_grid(3, 3, 2, 2, 3, seed=seed)
        x0 = frozenset(mst(g))
        ctx = preprocess_step(g, x0, 1)
        if not ctx.omega:
            continue
        links = enumerate_typed_links(ctx)
        face_edges = {}
        for e, f in ctx.subgraph.edge_face.items():
            face_edges.setdefault(f, []).append(e)
        for link in links:
            adj = {}
            for e in face_edges[link.face]:
                u, v, w = ctx.edges[e]
                adj.setdefault(u, []).append((e, v, w))
                adj.setdefault(v, []).append((e, u, w))
            dist = dijkstra(adj, link.u)
            assert dist[link.v] == link.cost
            assert sum(ctx.edges[e][2] for e in ctx.link_path(link)) == link.cost


def test_link_path_checks_cost_and_face():
    g = gen_grid(3, 3, 2, 2, 3, seed=4)
    ctx = preprocess_step(g, frozenset(mst(g)), 1)
    link = max(enumerate_typed_links(ctx), key=lambda found: found.cost)
    path = ctx.link_path(link)
    assert path
    with pytest.raises(InvariantError, match="no path of its cost on its face"):
        ctx.link_path(link._replace(cost=link.cost + 1))
    ctx.subgraph.edge_face[path[-1]] = link.face + 1
    with pytest.raises(InvariantError, match="no path of its cost on its face"):
        ctx.link_path(link)


def test_face_cut_structure_validated():
    # level-2 contexts run the zero-or-two check on every face
    sq = square_with_chords(inner=True, outer=True)
    ctx = preprocess_step(sq, {0, 1, 2, 3}, 2)
    assert ctx.cut_face_checks > 0
    assert ctx.scenario_faces[frozenset({0, 2})] == (0, 1)


def test_enumeration_cap(monkeypatch):
    import bulkrobust.links as links_mod
    monkeypatch.setattr(links_mod, "OMEGA_CAP", 1)
    tri = triangle_instance(scenarios=((0,), (1,)))
    with pytest.raises(BudgetError, match=r"^level 1 failure-set enumeration \(2 subsets\) "
                       r"exceeded its budget of 1 subsets$"):
        preprocess_step(tri, {0}, 1)


def test_lex_shortest_path_tie_break():
    # two equal-cost routes; the lexicographically smaller edge sequence wins
    adj = {
        0: ((0, 1, 1), (1, 2, 1)),
        1: ((0, 0, 1), (2, 3, 1)),
        2: ((1, 0, 1), (3, 3, 1)),
        3: ((2, 1, 1), (3, 2, 1)),
    }
    cost, path = lex_shortest_path(adj, 0, 3)
    assert cost == 2
    assert path == (0, 2)


@pytest.mark.parametrize("forge_cut, message", [
    (False, r"^edge 0 of failure set \[0, 4\] does not cross its cut$"),
    (True, r"^face \d carries 1 edges of failure set \[0, 4\]; expected 0 or 2$"),
], ids=["cut-check", "face-check"])
def test_preprocess_rejects_a_bridge_in_a_failure_set(monkeypatch, forge_cut, message):
    # A square 0-1-2-3 with a pendant edge 4 = (2, 4), a bridge of X that
    # both level-2 failure sets hold.  Only an X that fails level 1 has one,
    # so the level-1 checks are switched off.  The cut check refuses the set;
    # with the cut of each failing set forged to pass (contracted node 1
    # against nodes 0 and 4), the face check refuses it: edge 4 borders one
    # face, edge 0 two.
    monkeypatch.setattr(Instance, "check_feasible", lambda self: None)
    failures = Feasibility.failures
    monkeypatch.setattr(Feasibility, "failures", lambda self, size: (
        {} if size < 2 else failures(self, size)))
    if forge_cut:
        monkeypatch.setattr(Feasibility, "labels",
                            lambda self, j, nodes: list(range(len(nodes))))
        cut = Feasibility.cut
        monkeypatch.setattr(Feasibility, "cut", lambda self, j, removed: (
            cut(self, j, removed) and (2, [0, 1, 0])))
    inst = Instance(5, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1), (3, 3, 0, 1),
                        (4, 2, 4, 1)],
                    {0: [0, 3], 1: [1, 0], 2: [2, 1, 4], 3: [3, 2], 4: [4]},
                    "mst", scenarios=[(0, 4), (2, 4)])
    with pytest.raises(InvariantError, match=message):
        preprocess_step(inst, range(5), 2)


# -- the level-1 tree face -------------------------------------------------------

def level1_context(instance, x=None):
    """preprocess_step at level 1 on the base solution, or on `x`."""
    if x is None:
        x = shortest_st_path(instance) if instance.problem == "st" else mst(instance)
    return preprocess_step(instance, x, 1)


def test_level1_tree_face_matches_the_contracted_faces():
    # Level 1 groups the nodes and checks the tree; the contracted rotation
    # and `induced_faces` must find the same groups and the one face.
    seen = {"st": 0, "mst": 0}
    for instance in ([build_suite_instance(p) for p in suite_schedule(200)] + TREE_GRIDS
                     + [gen_hypergraph_vc(3, 3, 10, 5)[1]]):
        ctx = level1_context(instance)
        if not ctx.omega:
            continue
        cut = ctx.x_edges - ctx.kept_x
        graph, node_map, contracted, loops = instance.graph.contract(cut)
        assert instance.graph.group(cut) == (node_map, contracted, loops, graph.edges)
        assert not ctx.kept_x.intersection(loops)
        faces = induced_faces(graph, ctx.kept_x)
        assert len(faces.faces) == 1
        assert ctx.node_map == node_map and ctx.contracted == contracted
        assert ctx.edges == graph.edges
        assert ctx.cut_nodes == tuple(sorted(faces.nodes))
        assert ctx.subgraph.nodes == faces.nodes
        assert list(ctx.subgraph.edge_face.items()) == list(faces.edge_face.items())
        assert ctx.subgraph.face_nodes == faces.face_nodes
        seen[instance.problem] += 1
    assert seen["st"] > 50 and seen["mst"] > 50 + len(TREE_GRIDS)


def test_level1_context_has_no_face_walks():
    ctx = level1_context(TREE_GRIDS[0])
    with pytest.raises(InvariantError, match="^level 1 traces no face walks"):
        ctx.subgraph.faces


TREE_GUARD = r"^level-1 solution is not a tree: "


def test_kept_edge_closing_a_cycle_raises(monkeypatch):
    # Every X edge in a scenario counts as relevant, so a scenario edge
    # added to the tree is kept along with the tree edges on its cycle.
    instance = TREE_GRIDS[0]
    tree = mst(instance)
    union = frozenset().union(*instance.scenario_sets)
    node_map = instance.graph.group(tree - union)[0]
    extra = min(e for e in union - tree
                if node_map[instance.edge_map[e][0]] != node_map[instance.edge_map[e][1]])
    # Every nonempty subset is forged to fail; the tree check raises before
    # any cut is read.
    monkeypatch.setattr(Feasibility, "cut", lambda self, j, removed: (
        (2, [0, 1]) if removed else None))
    kept = len((tree | {extra}) & union)     # one cycle: as many edges as nodes
    with pytest.raises(InvariantError, match=TREE_GUARD + f"{kept} kept edges on {kept} "
                       "nodes in 1 components$"):
        level1_context(instance, tree | {extra})


def test_disconnected_kept_edges_raise(monkeypatch):
    # X is a face's 4-cycle plus an edge apart from it: one edge fewer than
    # nodes, as a tree has, but in two components.
    g = gen_grid(2, 4, 1, 1, 1, seed=7)
    ends = {frozenset((u, v)): e for e, (u, v, _) in g.edge_map.items()}
    x = [ends[frozenset(pair)] for pair in ((0, 1), (1, 5), (5, 4), (4, 0), (3, 7))]
    inst = Instance(g.node_count, g.edges, g.rotation, "mst", scenarios=[(e,) for e in x])
    failures = Feasibility.failures
    monkeypatch.setattr(Feasibility, "failures", lambda self, size: (
        {} if size < 1 else failures(self, size)))
    monkeypatch.setattr(Feasibility, "cut", lambda self, j, removed: (2, [0, 1]))
    with pytest.raises(InvariantError,
                       match=TREE_GUARD + r"5 kept edges on 6 nodes in 2 components$"):
        level1_context(inst, x)
