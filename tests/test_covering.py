"""StepContext.covering, the per-level cover table, and the level-1 tree
and path steps' cover relations, against cuts built independently with
networkx."""

from collections import Counter
from itertools import combinations

import pytest

from bulkrobust import driver, gen_grid, gen_hypergraph_vc, solve
from bulkrobust.driver import minimum_spanning_tree, shortest_st_path
from bulkrobust.errors import InvariantError
from bulkrobust.instance import PlaneGraph
from bulkrobust.links import (StepContext, TypedLink, bit_positions, enumerate_typed_links,
                              preprocess_step)
from conftest import (TREE_GRIDS, build_suite_instance, crosses, per_set, reference_cuts,
                      square_with_chords, suite_schedule)

SUITE = [build_suite_instance(p) for p in suite_schedule(40)]
HVC = gen_hypergraph_vc(3, 3, 10, 5)[1]


def by_definition(ctx, links):
    """The table built pair by pair: a link covers a failure set iff its ends
    lie on different sides of the set's reference cut."""
    return {f_set: tuple(i for i, link in enumerate(links) if crosses(link, sides))
            for f_set, sides in reference_cuts(ctx).items()}


def lp_levels(instance):
    """(ctx, links) of every level of a solve that runs the link LP."""
    found = []
    solve(instance, on_lp=lambda level, ctx, links, cover: found.append((ctx, links)))
    return found


def square_level2():
    ctx = preprocess_step(square_with_chords(), {0, 1, 2, 3}, 2)
    return ctx, enumerate_typed_links(ctx)


def test_table_matches_definition_on_every_lp_level():
    seen = 0
    for instance in SUITE + [HVC]:
        for ctx, links in lp_levels(instance):
            assert ctx.level >= 2
            assert ctx.covering(links) == by_definition(ctx, links)
            seen += 1
    assert seen > 0


def per_link(table, f_sets, count):
    """Link index -> ascending positions in `f_sets` of the sets a
    failure set -> link indices table says it covers."""
    found = [[] for _ in range(count)]
    for pos, f_set in enumerate(f_sets):
        for idx in table[f_set]:
            found[idx].append(pos)
    return found


def test_table_matches_definition_on_level1_tree_detours(monkeypatch):
    # A tree whose face takes the closure hands `cover_search` per-element
    # candidate lists read from the closure's arrays; a smaller tree hands
    # `exact_min_cover` one mask per link, its bits the omega positions on
    # the link's tree path.  Either must be the cut relation, as the
    # networkx reference and the covering table both give it, over the links
    # `enumerate_typed_links` lists, in their order.
    captured = []
    monkeypatch.setattr(driver, "cover_search", lambda candidates, costs:
                        captured.append(("arrays", candidates, costs)) or (0, ()))
    monkeypatch.setattr(driver, "exact_min_cover", lambda count, sets:
                        captured.append(("masks", sets)) or (0, ()))
    seen = Counter()
    for instance in [i for i in SUITE if i.problem == "mst"] + TREE_GRIDS:
        ctx = preprocess_step(instance, minimum_spanning_tree(instance), 1)
        if not ctx.omega:
            continue
        assert driver._cover_tree(ctx) == ([], 0)
        links = enumerate_typed_links(ctx)
        route, *given = captured.pop()
        if route == "arrays":
            candidates, costs = given
            assert all(ids == sorted(ids, key=lambda i: (costs[i], i)) for ids in candidates)
            by_path = per_set(candidates, len(links))
        else:
            [sets] = given
            costs = [cost for cost, _ in sets]
            by_path = [bit_positions(mask) for _, mask in sets]
        assert costs == [link.cost for link in links]
        assert by_path == per_link(by_definition(ctx, links), ctx.omega, len(links))
        assert by_path == per_link(ctx.covering(links), ctx.omega, len(links))
        seen[route] += 1
    assert seen["arrays"] == len(TREE_GRIDS) and seen["masks"] > 0


def test_tree_step_reads_no_covering_table(monkeypatch):
    levels = []
    table_of = StepContext.covering

    def counted(ctx, links):
        levels.append(ctx.level)
        return table_of(ctx, links)

    monkeypatch.setattr(StepContext, "covering", counted)
    for instance in [i for i in SUITE if i.problem == "mst"] + TREE_GRIDS[:1]:
        solve(instance)
    # the LP levels still read the table, so the counter is live
    assert levels and 1 not in levels


def test_level1_traces_no_faces(monkeypatch):
    # Level 1 reads its one face from the tree check: no face trace and no
    # rotation walk (`contract`) after parse.  The levels above still read
    # faces, so the counters are live.
    at_level = [None]
    calls = Counter()
    for name in ("trace_faces", "contract"):
        def counted(graph, *args, _name=name, _original=getattr(PlaneGraph, name)):
            calls[_name, at_level[0]] += 1
            return _original(graph, *args)

        monkeypatch.setattr(PlaneGraph, name, counted)
    step = driver.preprocess_step

    def tracked(instance, x_edges, level):
        at_level[0] = level
        ctx = step(instance, x_edges, level)
        calls["with omega", level] += bool(ctx.omega)
        return ctx

    monkeypatch.setattr(driver, "preprocess_step", tracked)
    for instance in SUITE + TREE_GRIDS[:1]:
        solve(instance)
    assert calls["with omega", 1] > len(SUITE) // 2
    assert calls["trace_faces", 1] == calls["contract", 1] == 0
    assert calls["trace_faces", 2] > 0 and calls["contract", 2] > 0
    assert calls["trace_faces", None] == calls["contract", None] == 0    # parsed earlier


ST_PATHS = [build_suite_instance(p) for p in suite_schedule(200) if p["problem"] == "st"]


def level1_path(instance):
    ctx = preprocess_step(instance, shortest_st_path(instance), 1)
    return ctx, enumerate_typed_links(ctx) if ctx.omega else []


def test_path_positions_match_covering_on_level1_path_links(monkeypatch):
    # The path step hands `cover_intervals_exact` the omega positions as
    # points and each link as the interval of positions it covers.  On an
    # s-t path a failure edge's position is the number of nodes on s's side
    # of its reference cut, less one; the link must cover exactly the sets
    # whose cut it crosses.
    captured = []
    monkeypatch.setattr(driver, "cover_intervals_exact",
                        lambda points, intervals: captured.append((points, intervals)) or ((), 0))
    seen = pairs = 0
    for instance in ST_PATHS + [HVC]:
        ctx, links = level1_path(instance)
        if not ctx.omega:
            continue
        driver._cover_path(ctx, links)
        points, intervals = captured.pop()
        assert list(points) == list(range(len(ctx.omega)))
        cuts = reference_cuts(ctx)
        position = {f: len(cuts[f][0]) - 1 for f in ctx.omega}
        assert sorted(position.values()) == list(points)
        for link, (lo, hi, cost) in zip(links, intervals, strict=True):
            assert cost == link.cost
            by_interval = {f for f in ctx.omega if lo <= position[f] <= hi}
            by_cut = {f for f in ctx.omega if crosses(link, cuts[f])}
            assert by_interval == by_cut, link
            pairs += len(by_cut)
        seen += 1
    assert seen > len(ST_PATHS) // 2 and pairs > 0


def test_moved_path_end_raises():
    # With s moved inside the path, two nodes sit one failure edge from it;
    # with t moved there, t no longer has the last position.
    for end in ("s", "t"):
        ctx, links = level1_path(HVC)
        setattr(ctx, end, next(n for n in ctx.cut_nodes if n not in (ctx.s, ctx.t)))
        with pytest.raises(InvariantError, match="level-1 solution is not an s-t path"):
            driver._cover_path(ctx, links)


def test_non_incident_endpoint_raises():
    ctx, _ = square_level2()
    u = min(ctx.subgraph.nodes)
    with pytest.raises(ValueError, match="node 99 is not incident"):
        ctx.covering([TypedLink(u, 99, 0, 1)])


def test_level1_tree_link_with_a_non_incident_end_is_an_invariant_error(monkeypatch):
    # The tree step reads its sets without the covering table; an end
    # outside the solution still names the node, never a bare KeyError.  A
    # closure face reads every end's side mask, so one dropped mask is such
    # an end; a smaller tree's face reads its links' masks.
    dropped = []
    step = driver.preprocess_step

    def drop_one(instance, x_edges, level):
        ctx = step(instance, x_edges, level)
        del ctx.side_masks[dropped[-1]]
        return ctx

    small = next(i for i in SUITE if i.problem == "mst" and i.k)
    original = driver.enumerate_typed_links
    monkeypatch.setattr(driver, "enumerate_typed_links", lambda ctx, faces=None:
                        original(ctx, faces) + (TypedLink(0, 10 ** 6, 0, 1),))
    with pytest.raises(InvariantError) as info:
        driver.augment_step(small, minimum_spanning_tree(small), 1)
    assert str(info.value) == ("level-1 augmentation impossible: node 1000000 is not "
                               "incident to the current solution")

    instance = TREE_GRIDS[0]
    tree = minimum_spanning_tree(instance)
    dropped.append(max(preprocess_step(instance, tree, 1).side_masks))
    monkeypatch.setattr(driver, "preprocess_step", drop_one)
    with pytest.raises(InvariantError) as info:
        driver.augment_step(instance, tree, 1)
    assert str(info.value) == (f"level-1 augmentation impossible: node {dropped[-1]} is "
                               "not incident to the current solution")


def test_same_links_reuse_the_table_and_new_links_rebuild_it():
    ctx, links = square_level2()
    table = ctx.covering(links)
    assert ctx.covering(links) is table
    assert ctx.covering(list(links)) is table
    pairs = [TypedLink(u, v, 0, 1)
             for u, v in combinations(sorted(ctx.subgraph.nodes), 2)]
    other = ctx.covering(pairs)
    assert other is not table
    assert other == by_definition(ctx, pairs)
    rebuilt = ctx.covering(links)
    assert rebuilt is not table
    assert rebuilt == table == by_definition(ctx, links)
    assert ctx.covering([link._replace(u=link.v, v=link.u) for link in links]) == table
