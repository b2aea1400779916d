"""StepContext.covering, the per-level cover table, against `covers`."""

from itertools import combinations

import pytest

from bulkrobust import (TypedLink, covers, enumerate_typed_links,
                        gen_hypergraph_vc, preprocess_step, solve)
from bulkrobust.driver import minimum_spanning_tree
from conftest import build_suite_instance, square_with_chords, suite_schedule

SUITE = [build_suite_instance(p) for p in suite_schedule(40)]
HVC = gen_hypergraph_vc(3, 3, 10, 5)[1]


def by_definition(ctx, links):
    """The table built pair by pair from the single-pair definition."""
    return {f_set: tuple(i for i, link in enumerate(links)
                         if covers(link, ctx.cuts[f_set]))
            for f_set in ctx.omega}


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


def test_table_matches_definition_on_level1_tree_detours():
    seen = 0
    for instance in SUITE:
        if instance.problem != "mst":
            continue
        ctx = preprocess_step(instance, minimum_spanning_tree(instance), 1)
        if not ctx.omega:
            continue
        links = enumerate_typed_links(ctx)
        assert ctx.covering(links) == by_definition(ctx, links)
        seen += 1
    assert seen > 0


def test_non_incident_endpoint_raises():
    ctx, _ = square_level2()
    u = min(ctx.subgraph.nodes)
    with pytest.raises(ValueError, match="node 99 is not incident"):
        ctx.covering([TypedLink(u, 99, 0, (), 1)])


def test_same_links_reuse_the_table_and_new_links_rebuild_it():
    ctx, links = square_level2()
    table = ctx.covering(links)
    assert ctx.covering(links) is table
    assert ctx.covering(list(links)) is table
    pairs = [TypedLink(u, v, 0, (), 1)
             for u, v in combinations(sorted(ctx.subgraph.nodes), 2)]
    other = ctx.covering(pairs)
    assert other is not table
    assert other == by_definition(ctx, pairs)
    rebuilt = ctx.covering(links)
    assert rebuilt is not table
    assert rebuilt == table == by_definition(ctx, links)
