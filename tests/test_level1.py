"""The level-1 spanning-tree step: grouped shortest paths (per-end Dijkstra
maps or one all-pairs closure per face), the lazily bounded exact cover, and
its node budget.

`per_pair_lex_shortest_path`, `bound_free_exact_min_cover` and
`recursive_exact_min_cover` are the earlier implementations, kept here as
references: one Dijkstra per pair, a branch and bound whose only bound is the
cheapest set of the branching element, and the node-by-node search with the
lazy packing and LP bounds and the table of covered masks it has entered,
one call per visited node.  The fast versions must return exactly what they
return, and the exact cover must visit as many nodes as the node-by-node
search.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkrobust import driver, gen_grid, is_feasible, links, serialize_instance, solve
from bulkrobust import lp, setcover
from bulkrobust.cli import main
from bulkrobust.driver import minimum_spanning_tree
from bulkrobust.errors import BudgetError, InvariantError
from bulkrobust.instance import MAX_TOTAL_WEIGHT
from bulkrobust.links import (StepContext, bit_positions, dijkstra, enumerate_typed_links,
                              preprocess_step)
from bulkrobust.setcover import cover_search, exact_min_cover
from conftest import TREE_GRIDS, as_masks, build_suite_instance, per_set, suite_schedule


def per_pair_lex_shortest_path(adj, src, dst):
    if src == dst:
        return 0, ()
    dist = dijkstra(adj, dst)
    if src not in dist:
        return None
    best = dist[src]
    path = []
    visited = {src}

    def walk(node, cost):
        if node == dst:
            return True
        for eid, other, w in adj.get(node, ()):
            if other in visited:
                continue
            rest = dist.get(other)
            if rest is None or cost + w + rest > best:
                continue
            visited.add(other)
            path.append(eid)
            if walk(other, cost + w):
                return True
            path.pop()
            visited.remove(other)
        return False

    if not walk(src, 0):
        raise InvariantError("pruned path search missed a reachable target")
    return best, tuple(path)


def bound_free_exact_min_cover(element_count, sets, node_cap=None):
    full = (1 << element_count) - 1
    masks = []
    costs = []
    for cost, elements in sets:
        mask = 0
        for el in elements:
            if not 0 <= el < element_count:
                raise ValueError(f"element {el} out of range")
            mask |= 1 << el
        masks.append(mask)
        costs.append(cost)

    if element_count == 0:
        return 0, ()

    candidates = [[] for _ in range(element_count)]
    order = sorted(range(len(masks)), key=lambda i: (costs[i], i))
    for i in order:
        mask = masks[i]
        for el in range(element_count):
            if mask >> el & 1:
                candidates[el].append(i)
    for el in range(element_count):
        if not candidates[el]:
            raise ValueError(f"element {el} is uncoverable")
    cheapest = [costs[candidates[el][0]] for el in range(element_count)]

    best_cost = None
    best_pick = None
    nodes = 0

    def branch(covered, cost, picked):
        nonlocal best_cost, best_pick, nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise BudgetError(f"set-cover search exceeded {node_cap} nodes")
        if covered == full:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_pick = tuple(picked)
            return
        if best_cost is not None and cost >= best_cost:
            return
        target, fanout = -1, None
        for el in range(element_count):
            if covered >> el & 1:
                continue
            size = len(candidates[el])
            if fanout is None or size < fanout:
                target, fanout = el, size
        if best_cost is not None and cost + cheapest[target] >= best_cost:
            return
        for i in candidates[target]:
            picked.append(i)
            branch(covered | masks[i], cost + costs[i], picked)
            picked.pop()

    branch(0, 0, [])
    return best_cost, best_pick


def recursive_exact_min_cover(element_count, sets, node_cap=None):
    """`exact_min_cover` with one call per visited node, scanning every element
    for the branching one; returns (cost, picks, visited nodes).  Reads
    `setcover`'s `PACKING_BOUND_AFTER`, `LP_BOUND_AFTER`, `NODE_CAP`,
    `REACHED_CAP`, `packing_bound` and `dual_bound` at call time.  A packing
    bound that would start with or after the LP bound never runs.  Like the
    search, it remembers the least cost at which it entered each covered mask
    that is neither a leaf nor too costly, up to `REACHED_CAP` masks, and
    returns at once from a mask entered before at a cost no higher."""
    if node_cap is None:
        node_cap = setcover.NODE_CAP
    reached_cap = setcover.REACHED_CAP
    full = (1 << element_count) - 1
    masks = []
    costs = []
    members = []
    for cost, elements in sets:
        mask = 0
        for el in elements:
            if not 0 <= el < element_count:
                raise ValueError(f"element {el} out of range")
            mask |= 1 << el
        masks.append(mask)
        costs.append(cost)
        members.append(elements)

    if element_count == 0:
        return 0, (), 0

    candidates = [[] for _ in range(element_count)]
    order = sorted(range(len(masks)), key=lambda i: (costs[i], i))
    for i in order:
        for el in set(members[i]):
            candidates[el].append(i)
    for el in range(element_count):
        if not candidates[el]:
            raise ValueError(f"element {el} is uncoverable")
    cheapest = [costs[candidates[el][0]] for el in range(element_count)]
    step = 1 if all(type(c) is int for c in costs) else 0

    best_cost = None
    best_pick = None
    nodes = 0
    reached = {}
    y = None
    tol = 0.0
    bounds = {setcover.LP_BOUND_AFTER: setcover.dual_bound}
    if setcover.PACKING_BOUND_AFTER < setcover.LP_BOUND_AFTER:
        bounds[setcover.PACKING_BOUND_AFTER] = setcover.packing_bound

    def branch(covered, cost, picked):
        nonlocal best_cost, best_pick, nodes, y, tol
        nodes += 1
        if nodes > node_cap:
            raise BudgetError("set-cover search", f"{node_cap} search nodes")
        if nodes in bounds:
            found = bounds[nodes](candidates, costs)
            if found is not None:
                y = found
                tol = setcover._BOUND_RTOL * max(1.0, sum(y))
        if covered == full:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_pick = tuple(picked)
            return
        if best_cost is not None and cost >= best_cost:
            return
        entered = reached.get(covered)
        if entered is not None and entered <= cost:
            return
        if entered is not None or len(reached) < reached_cap:
            reached[covered] = cost
        target, fanout = -1, None
        need = 0.0
        for el in range(element_count):
            if covered >> el & 1:
                continue
            if y is not None:
                need += y[el]
            size = len(candidates[el])
            if fanout is None or size < fanout:
                target, fanout = el, size
        if best_cost is not None:
            if cost + cheapest[target] >= best_cost:
                return
            if y is not None and need > (best_cost - step - cost) + tol:
                return
        for i in candidates[target]:
            picked.append(i)
            branch(covered | masks[i], cost + costs[i], picked)
            picked.pop()

    branch(0, 0, [])
    return best_cost, best_pick, nodes


# -- shortest paths ------------------------------------------------------------

def random_multigraph(rng):
    """adj for `lex_shortest_path`: several components, parallel edges, weights
    0..3 (many ties), and some nodes with no edge at all."""
    n = rng.randint(2, 14)
    adj = {}
    for eid in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n - n // 4), 2)   # the top quarter stays isolated
        if rng.random() < 0.3:
            u, v = u % 3, v % 3 + 3                # splits off a second component
        if u == v:
            continue
        w = rng.randint(0, 3)
        adj.setdefault(u, []).append((eid, v, w))
        adj.setdefault(v, []).append((eid, u, w))
    return n, {node: tuple(sorted(lst)) for node, lst in adj.items()}


def one_face_context(adj, boundary):
    """A StepContext whose only face holds every edge of `adj`."""
    edges = {e: (node, other, w) for node, lst in adj.items() for e, other, w in lst}
    subgraph = SimpleNamespace(face_nodes=(frozenset(boundary),),
                               edge_face=dict.fromkeys(edges, 0))
    return StepContext(None, 1, frozenset(), (), edges=edges, subgraph=subgraph)


def took_closure(ctx, face=0):
    """True iff `enumerate_typed_links` gave `face` its costs from the closure."""
    return isinstance(ctx.face_maps[face][1], links.ClosureMaps)


def check_against_per_pair_search(adj, boundary):
    """Enumerate the one face of `adj` with `boundary` and check each link, in
    order, against `per_pair_lex_shortest_path`.  Returns (took the closure,
    unreachable pairs, pairs with an end off the face's edges)."""
    ctx = one_face_context(adj, boundary)
    got = {(link.u, link.v): link for link in enumerate_typed_links(ctx)}
    assert list(got) == sorted(got)     # the combinations order of the ends
    unreachable = skipped = 0
    for u, v in combinations(sorted(boundary), 2):
        if u not in adj or v not in adj:
            assert (u, v) not in got
            skipped += 1
            continue
        found = per_pair_lex_shortest_path(adj, u, v)
        unreachable += found is None
        if found is None:
            assert (u, v) not in got
            continue
        link = got.pop((u, v))
        assert link.face == 0
        assert all(type(value) is int for value in link)
        assert (link.cost, ctx.link_path(link)) == found
    assert got == {}
    return bool(ctx.face_maps) and took_closure(ctx), unreachable, skipped


@pytest.mark.parametrize("min_ends", [2, 10 ** 6], ids=["closure", "dijkstra"])
def test_grouped_paths_match_per_pair_search(min_ends, monkeypatch):
    # At 2 every face whose nodes are all boundary nodes takes the closure;
    # a boundary subset leaves some nodes off, so that face takes Dijkstra
    # maps under either threshold.
    monkeypatch.setattr(links, "CLOSURE_MIN_ENDS", min_ends)
    rng = random.Random(6)
    subsets = random.Random(7)
    unreachable = skipped = 0
    took = {True: 0, False: 0}
    for _ in range(300):
        n, adj = random_multigraph(rng)
        for boundary in (range(n), subsets.sample(range(n), subsets.randint(2, n))):
            closure, missed, off = check_against_per_pair_search(adj, boundary)
            assert closure == (min_ends == 2 and bool(adj) and set(adj) <= set(boundary))
            took[closure] += 1
            unreachable += missed
            skipped += off
    assert unreachable > 100 and skipped > 100
    assert took[False] > 100 and (took[True] > 100) == (min_ends == 2)

    # Path costs near the weight cap, and pairs in different components:
    # relaxing through a "no path" entry must not overflow int64.
    big = MAX_TOTAL_WEIGHT // 8
    edges = [(0, 0, 1, 2 * big), (1, 1, 2, 2 * big), (2, 2, 3, 2 * big - 2), (3, 3, 0, big),
             (4, 0, 1, big + 1), (5, 4, 5, 1)]
    assert sum(w for *_, w in edges) == MAX_TOTAL_WEIGHT
    heavy = {}
    for e, u, v, w in edges:
        heavy.setdefault(u, []).append((e, v, w))
        heavy.setdefault(v, []).append((e, u, w))
    heavy = {node: tuple(lst) for node, lst in heavy.items()}
    closure, missed, _ = check_against_per_pair_search(heavy, range(6))
    assert closure == (min_ends == 2) and missed == 8


def test_paths_are_built_for_picked_links_only(monkeypatch):
    # Level 1 takes the closure arrays and builds no link but its picks;
    # the levels above enumerate theirs.  Every cover step returns its picked
    # links, and only those get a path search.
    inst = gen_grid(10, 10, 36, 3, 1, 101, "mst")
    searches = []
    picked = []
    enumerated = []
    pairs = []

    def wrap(owner, name, record):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            record(args, result)
            return result

        monkeypatch.setattr(owner, name, wrapped)

    wrap(links, "lex_shortest_path", lambda args, found: searches.append(args[1:3]))
    wrap(driver, "enumerate_typed_links",
         lambda args, found: enumerated.append((args[0].level, len(found))))
    wrap(driver, "closure_pairs", lambda args, found: pairs.append(len(found[1])))
    for step in ("_cover_tree", "_round_faces"):    # each returns (picked links, cost)
        wrap(driver, step, lambda args, found: picked.extend(found[0]))
    _, trace = solve(inst)
    assert trace.levels[0].omega_size > 0
    assert len(searches) == len(picked) > 0
    assert searches == [(link.u, link.v) for link in picked]
    assert all(type(value) is int for link in picked for value in link)
    assert len(pairs) == 1 and enumerated and all(level >= 2 for level, _ in enumerated)
    assert pairs[0] + sum(count for _, count in enumerated) > 10 * len(picked)


def test_closure_links_match_dijkstra_on_tree_grids(monkeypatch):
    for instance in TREE_GRIDS:
        tree = minimum_spanning_tree(instance)
        ctx = preprocess_step(instance, tree, 1)
        got = enumerate_typed_links(ctx)
        with monkeypatch.context() as forced:
            forced.setattr(links, "CLOSURE_MIN_ENDS", 10 ** 6)
            reference = preprocess_step(instance, tree, 1)
            want = enumerate_typed_links(reference)
        [face] = ctx.face_maps
        assert took_closure(ctx, face) and not took_closure(reference, face)
        assert got == want
        assert [ctx.link_path(link) for link in got] == list(map(reference.link_path, want))


def test_the_suite_takes_both_link_builds(monkeypatch):
    # The suite's faces with only ends have fewer than CLOSURE_MIN_ENDS, so
    # the closure side comes from one 10x10 tree grid, whose level-1 step
    # reads the closure's arrays; every level's face maps are counted.
    took = {True: 0, False: 0}
    contexts = []
    step = driver.preprocess_step
    monkeypatch.setattr(driver, "preprocess_step",
                        lambda *args: contexts.append(step(*args)) or contexts[-1])

    def count():
        for ctx in contexts:
            for face in ctx.face_maps:
                took[took_closure(ctx, face)] += 1
        contexts.clear()

    for params in suite_schedule(40):
        solve(build_suite_instance(params))
    count()
    assert took[False] >= 1
    solve(TREE_GRIDS[0])
    count()
    assert took[True] >= 1


# -- exact cover -----------------------------------------------------------------

def random_cover(rng, n, cost):
    """Singletons for every element plus 30-60 random sets of 2-5 elements."""
    sets = [(cost(), [el]) for el in range(n)]
    for _ in range(rng.randint(30, 60)):
        sets.append((cost(), rng.sample(range(n), rng.randint(2, 5))))
    rng.shuffle(sets)
    return sets


def counted_calls(monkeypatch, name):
    """The candidate lists of every call to `setcover`'s bound `name`."""
    calls = []
    original = getattr(setcover, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(setcover, name, counted)
    return calls


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the searches that reached the LP bound."""
    return counted_calls(monkeypatch, "dual_bound")


@pytest.fixture
def packing_calls(monkeypatch):
    """Counts the searches that reached the packing bound."""
    return counted_calls(monkeypatch, "packing_bound")


def set_triggers(monkeypatch, packing, lp):
    """The node counts at which the packing and the LP bound start."""
    monkeypatch.setattr(setcover, "PACKING_BOUND_AFTER", packing)
    monkeypatch.setattr(setcover, "LP_BOUND_AFTER", lp)


COSTS = {
    "small": lambda rng: lambda: rng.randint(1, 20),
    "with-zero": lambda rng: lambda: max(0, rng.randint(-2, 20)),
    "near-2**53": lambda rng: lambda: 2 ** 53 - rng.randint(0, 3),
    "float": lambda rng: lambda: rng.randint(1, 40) / 4,
}


@pytest.mark.parametrize("kind", sorted(COSTS))
def test_lazy_bound_keeps_cost_and_picks(kind, packing_calls):
    # 100 covers: the table of covered masks ends many zero-cost searches
    # before the first trigger.
    rng = random.Random(kind)
    for _ in range(100):
        n = rng.randint(16, 24)
        sets = random_cover(rng, n, COSTS[kind](rng))
        assert exact_min_cover(n, as_masks(sets)) == bound_free_exact_min_cover(n, sets)
    assert len(packing_calls) >= 10     # enough searches crossed the first trigger


@pytest.mark.parametrize("kind", sorted(COSTS))
def test_bound_from_the_first_node_keeps_cost_and_picks(kind, lp_calls, packing_calls,
                                                       monkeypatch):
    # Each cover twice: with the packing bound alone from the root, and with
    # the LP bound from the root.
    rng = random.Random("small " + kind)
    for _ in range(150):
        n = rng.randint(1, 9)
        cost = COSTS[kind](rng)
        sets = [(cost(), rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 12))]
        for packing, lp in [(1, setcover.NODE_CAP + 1), (1000, 1)]:
            set_triggers(monkeypatch, packing, lp)
            try:
                expected = bound_free_exact_min_cover(n, sets)
            except ValueError:
                with pytest.raises(ValueError):
                    exact_min_cover(n, as_masks(sets))
                continue
            assert exact_min_cover(n, as_masks(sets)) == expected
    assert len(lp_calls) >= 50 and len(packing_calls) >= 50


def visited_nodes(n, sets, candidates=None):
    """The recursive search's visited-node count, after checking that
    `exact_min_cover` returns the same (cost, picks) within exactly that many
    nodes and raises BudgetError with one node fewer; so does `cover_search`
    on `candidates`, the sets' candidate lists, when they are given."""
    cost, picks, nodes = recursive_exact_min_cover(n, sets)
    searches = [partial(exact_min_cover, n, as_masks(sets))]
    if candidates is not None:
        searches.append(partial(cover_search, candidates, [c for c, _ in sets]))
    for search in searches:
        assert search(node_cap=nodes) == (cost, picks)
        with pytest.raises(BudgetError):
            search(node_cap=nodes - 1)
    return nodes


# (packing trigger, LP trigger) pairs.  The id is the LP trigger alone where
# the packing bound would start with or after it, and so never runs.
TRIGGERS = [pytest.param((1000, lp), id=str(lp)) for lp in (1, 2, 5, 1000)] + [
    pytest.param(pair, id="-".join(map(str, pair)))
    for pair in [(1, 2), (2, 5), (5, 1000), (1000, 5000)]]


@pytest.mark.parametrize("triggers", TRIGGERS)
@pytest.mark.parametrize("kind", sorted(COSTS))
def test_search_visits_the_nodes_of_the_recursive_search(kind, triggers, lp_calls,
                                                        packing_calls, monkeypatch):
    # Triggers 2 and 5 fall among the first children, often inside a run of
    # siblings the parent counts in one step; 1000 and 5000 inside larger
    # searches.
    packing, lp = triggers
    set_triggers(monkeypatch, packing, lp)
    rng = random.Random(f"nodes {kind} {min(triggers)}")
    for _ in range(30):
        n = rng.randint(1, 9)
        cost = COSTS[kind](rng)
        sets = [(cost(), rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 12))] + [(cost(), range(n))]
        visited_nodes(n, sets)
    # 20 to 26 elements: the table of covered masks ends smaller zero-cost
    # searches before 1000 nodes.
    for _ in range(6):
        n = rng.randint(20, 26)
        visited_nodes(n, random_cover(rng, n, COSTS[kind](rng)))
    # the first bound of the schedule ran
    assert packing_calls if packing < lp else (lp_calls and not packing_calls)


@pytest.mark.parametrize("sets", [
    [(0, [0, 1]), (0, [0]), (0, [1]), (1, [0, 1])],
    [(0, [0]), (3, [1, 2]), (0, [1]), (2, [2]), (0, [0, 2]), (1, [1, 2])],
    [(2, [0, 1]), (1, [0]), (1, [1]), (2, [0, 1]), (2, [1, 2]), (0, [2])],
    [(1, [0, 1, 2]), (1, [0, 1, 2]), (1, [0]), (2, [1, 2, 1]), (1, [0, 1, 2])],
], ids=["zero-cost-cover", "zero-cost-mix", "ties-at-the-incumbent", "repeats"])
@pytest.mark.parametrize("triggers", [
    pytest.param((1000, lp), id=str(lp)) for lp in (1, 2, 3, 1000)] + [
    pytest.param(pair, id="-".join(map(str, pair))) for pair in [(1, 2), (2, 3), (1, 1000)]])
def test_zero_costs_and_ties_visit_the_same_nodes(sets, triggers, monkeypatch):
    set_triggers(monkeypatch, *triggers)
    visited_nodes(1 + max(el for _, els in sets for el in els), sets)


# zero costs, ties, and floats that make the integer step 0
COVER_COSTS = st.integers(0, 3) | st.sampled_from([0.5, 1.25])


@st.composite
def list_covers(draw):
    """(element count, (cost, element list) pairs): empty sets, repeats and
    uncoverable elements all drawn."""
    n = draw(st.integers(0, 8))
    elements = st.lists(st.integers(0, n - 1), max_size=n + 1) if n else st.just([])
    return n, draw(st.lists(st.tuples(COVER_COSTS, elements), max_size=10))


@settings(max_examples=300, deadline=None)
@given(list_covers(), st.tuples(*[st.sampled_from([1, 2, 5, 1000])] * 2))
def test_masks_match_the_list_references(cover, triggers):
    # The mask search against the list-based references: the bound-free
    # search's (cost, picks), the recursive search's node count, and the
    # same uncoverable element, under (packing, LP) trigger pairs, equal
    # ones included.
    n, sets = cover
    with pytest.MonkeyPatch.context() as patched:
        set_triggers(patched, *triggers)
        try:
            expected = bound_free_exact_min_cover(n, sets)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                exact_min_cover(n, as_masks(sets))
            assert str(info.value) == str(exc)
            return
        assert exact_min_cover(n, as_masks(sets)) == expected
        if n:
            visited_nodes(n, sets)


@st.composite
def tie_covers(draw):
    """(element count, (cost, element list) pairs) like `random_cover`'s: a
    singleton for every element and up to 40 sets of 2 to 5 elements, all
    costs of one kind: 0 to 4 (zero costs and many ties), or integers near
    2**53."""
    n = draw(st.integers(6, 18))
    elements = st.lists(st.integers(0, n - 1), min_size=2, max_size=5, unique=True)
    members = [[el] for el in range(n)] + draw(st.lists(elements, max_size=40))
    costs = draw(st.sampled_from([st.integers(0, 4), st.integers(2 ** 53 - 4, 2 ** 53)]))
    return n, draw(st.permutations([(draw(costs), els) for els in members]))


@settings(max_examples=200, deadline=None)
@given(tie_covers(), st.tuples(*[st.sampled_from([1, 2, 5, 1000])] * 2))
def test_reached_table_keeps_cost_and_picks(cover, triggers):
    # No table, a table of 3 masks, and the default one return the same
    # (cost, picks), from the mask and the list entry alike, each within the
    # recursive reference's node count under the same cap.
    n, sets = cover
    candidates = candidate_lists(n, sets)
    costs = [c for c, _ in sets]
    with pytest.MonkeyPatch.context() as patched:
        set_triggers(patched, *triggers)
        found = set()
        for cap in (0, 3, setcover.REACHED_CAP):
            patched.setattr(setcover, "REACHED_CAP", cap)
            visited_nodes(n, sets, candidates)
            found.add(exact_min_cover(n, as_masks(sets)))
    assert len(found) == 1, found


@pytest.mark.parametrize("count, sets, message", [
    (2, [(1, 0b11), (1, 0b101)], "element 2 out of range"),
    (3, [(1, 0b111), (1, 1 << 9 | 1 << 5 | 1)], "element 5 out of range"),
    (0, [(0, 0), (0, 0b10)], "element 1 out of range"),
    (2, [(1, -4)], "element 2 out of range"),
    (3, [(1, 0b111), (1, ~0b1000)], "element 4 out of range"),
    (3, [(1, 0b011), (2, 0b001), (0, 0)], "element 2 is uncoverable"),
    (2, [(1, 0b11), (-5, 0b01)], "set 1 has negative cost -5"),
    (1, [(0.5, 0b1), (-0.25, 0b11)], "set 1 has negative cost -0.25"),
], ids=["bit", "lowest-bit", "no-elements", "negative-mask", "negative-mask-gap",
        "uncoverable", "negative-cost", "negative-float-cost"])
def test_bad_covers_raise_value_errors(count, sets, message):
    # Before the negative-cost check, the set of cost -5 was never picked:
    # (1, (0,)) came back although both sets together cost -4.
    with pytest.raises(ValueError) as info:
        exact_min_cover(count, sets)
    assert str(info.value) == message


def test_counts_that_skip_siblings_cross_the_trigger_and_the_budget(lp_calls, packing_calls,
                                                                    monkeypatch):
    # Root (node 1), a leaf at cost 1 (node 2), then five siblings no cheaper
    # than that leaf, counted in one step (nodes 3 to 7).  Each bound runs
    # exactly when the node-by-node reference runs it.
    sets = [(1, [0]), (1, [0]), (2, [0]), (3, [0]), (4, [0]), (5, [0])]
    assert recursive_exact_min_cover(1, sets)[2] == 7
    # (packing trigger, LP trigger, node cap, (packing runs, LP runs), within the cap)
    for packing, lp, cap, runs, within in [
            # the LP bound alone: a packing trigger after it never fires
            (1000, 5, 7, (0, 1), True), (1000, 8, 7, (0, 0), True),
            (1000, 5, 6, (0, 1), False), (1000, 7, 6, (0, 0), False),
            (1000, 3, 2, (0, 0), False), (1000, 2, 2, (0, 1), False),
            # one bulk count crosses both triggers, and then the budget too
            (4, 6, 7, (1, 1), True), (3, 7, 7, (1, 1), True), (4, 6, 6, (1, 1), False),
            # the packing bound at the leaf, the LP bound in the bulk count
            (2, 3, 7, (1, 1), True),
            # the packing bound in the bulk count, the LP bound never or past the cap
            (3, 8, 7, (1, 0), True), (4, 7, 6, (1, 0), False),
            # a packing trigger at or after the LP one never fires, so it
            # never replaces the LP's tables
            (6, 4, 7, (0, 1), True), (5, 5, 7, (0, 1), True), (2, 1, 7, (0, 1), True),
            # a node cap below either trigger: neither bound runs
            (3, 4, 2, (0, 0), False), (4, 3, 2, (0, 0), False)]:
        set_triggers(monkeypatch, packing, lp)
        for search, given in [(recursive_exact_min_cover, sets),
                              (exact_min_cover, as_masks(sets))]:
            packing_calls.clear()
            lp_calls.clear()
            if within:
                assert search(1, given, node_cap=cap)[:2] == (1, (0,))
            else:
                with pytest.raises(BudgetError):
                    search(1, given, node_cap=cap)
            assert (len(packing_calls), len(lp_calls)) == runs, (packing, lp, cap, search)


def candidate_lists(n, sets):
    """Per element, the indices of the (cost, elements) sets that hold it,
    cheapest first: the bounds' `candidates`."""
    costs = [c for c, _ in sets]
    return [sorted((i for i, (_, els) in enumerate(sets) if el in els),
                   key=lambda i: (costs[i], i)) for el in range(n)]


def covering_lp_value(n, sets):
    """The covering LP's value by HiGHS, and the set-by-element 0/1 matrix."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    costs = [c for c, _ in sets]
    a = np.zeros((len(sets), n))
    for i, (_, els) in enumerate(sets):
        a[i, list(els)] = 1.0
    scale = max(1, max(costs))      # HiGHS fails on costs near 2**53
    highs = linprog(np.array(costs, float) / scale, A_ub=-a.T,
                    b_ub=-np.ones(n), bounds=(0, None), method="highs")
    assert highs.status == 0
    return highs.fun * scale, a


def test_dual_bound_is_dual_feasible():
    rng = random.Random(3)
    for kind in sorted(COSTS):
        cost = COSTS[kind](rng)
        for _ in range(20):
            n = rng.randint(5, 16)
            sets = random_cover(rng, n, cost)
            costs = [c for c, _ in sets]
            candidates = [sorted((i for i, (_, els) in enumerate(sets) if el in els),
                                 key=lambda i: (costs[i], i)) for el in range(n)]
            y = setcover.dual_bound(candidates, costs)
            assert min(y) >= 0
            for c, els in sets:
                assert sum(y[el] for el in set(els)) <= c


def test_dual_bound_reaches_the_lp_value(monkeypatch):
    # Before scaling, y is the mean of the last round's two packing optima:
    # it must reach the covering LP's value (HiGHS) and fit under every set.
    pytest.importorskip("scipy.optimize")
    solves = []

    def record(lp):
        solves.append(setcover_simplex(lp))
        return solves[-1]

    setcover_simplex = setcover.simplex_min
    monkeypatch.setattr(setcover, "simplex_min", record)
    rng = random.Random(4)
    for kind in sorted(COSTS):
        cost = COSTS[kind](rng)
        for _ in range(20):
            n = rng.randint(5, 16)
            sets = random_cover(rng, n, cost)
            costs = [c for c, _ in sets]
            solves.clear()
            setcover.dual_bound(candidate_lists(n, sets), costs)
            forward, backward = solves[-2:]
            y = np.clip((forward.duals + backward.duals[::-1]) / 2, 0.0, None)
            value, a = covering_lp_value(n, sets)
            assert abs(float(y.sum()) - value) <= 1e-9 * max(1.0, value)
            assert (a @ y <= np.array(costs, float) + 1e-9 * max(1, max(costs))).all()


def test_dual_bound_skips_costs_floats_cannot_hold():
    assert setcover.dual_bound([[0]], [2 ** 53 + 1]) is None
    assert setcover.dual_bound([[0]], [-1]) is None


# As in COSTS: zero costs and ties, floats, and integers near 2**53.
PACKING_COSTS = [st.integers(0, 6), st.integers(0, 40).map(lambda q: q / 4),
                 st.integers(2 ** 53 - 3, 2 ** 53)]


@st.composite
def packing_covers(draw):
    """(element count, (cost, element list) pairs) with every element covered,
    all costs of one kind."""
    n = draw(st.integers(1, 10))
    elements = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    members = draw(st.lists(elements, min_size=1, max_size=14))
    members += [[el] for el in range(n) if not any(el in els for els in members)]
    costs = draw(st.sampled_from(PACKING_COSTS))
    return n, [(draw(costs), els) for els in members]


@settings(max_examples=300, deadline=None)
@given(packing_covers(), st.sampled_from([-1, -0.25, 2 ** 53 + 1, 2 ** 60]))
def test_packing_bound_is_a_maximal_packing_under_the_lp(cover, out_of_range):
    n, sets = cover
    costs = [c for c, _ in sets]
    candidates = candidate_lists(n, sets)
    y = setcover.packing_bound(candidates, costs)
    assert min(y) >= 0
    for c, els in sets:
        assert sum(map(Fraction, (y[el] for el in els))) <= c
        if c == 0:
            assert not any(y[el] for el in els)
    # Before the scaling, each order's packing is maximal: every element has
    # a set it fills.  These costs keep every float step exact.
    ids = [np.array(i) for i in candidates]
    for order in (range(n), range(n - 1, -1, -1)):
        packed = setcover.maximal_packing([ids[el] for el in order], np.array(costs, float))
        weight = dict(zip(order, map(Fraction, packed.tolist())))
        residual = [c - sum(weight[el] for el in els) for c, els in sets]
        assert min(residual) >= 0
        assert all(any(residual[i] == 0 for i in candidates[el]) for el in range(n))
    value, _ = covering_lp_value(n, sets)
    assert sum(y) <= value + 1e-9 * max(1.0, value)
    # out-of-range costs give no bound
    for i in range(len(costs)):
        assert setcover.packing_bound(candidates, costs[:i] + [out_of_range] + costs[i + 1:]) \
            is None


def test_packing_loads_match_the_dense_matrix(monkeypatch):
    # `packing_bound` sums each set's load with `np.bincount` over the
    # candidate lists; on the level-1 tree searches its y equals, bit for
    # bit, the one the dense element-by-set matrix gives, so the searches
    # visit the same nodes.
    seen = []
    bound = setcover.packing_bound
    monkeypatch.setattr(setcover, "packing_bound",
                        lambda candidates, costs: seen.append((candidates, costs))
                        or bound(candidates, costs))
    for instance in TREE_GRIDS[:3]:
        solve(instance)
    assert len(seen) >= 3
    for candidates, costs in seen:
        c = np.array(costs, dtype=float)
        ids = [np.array(i) for i in candidates]
        y = (setcover.maximal_packing(ids, c) + setcover.maximal_packing(ids[::-1], c)[::-1]) / 2
        a = lp.covering_matrix(candidates, c.size)
        dense = setcover._valid_packing(np.clip(y, 0.0, None), candidates, c,
                                        lambda y: a.T @ y)
        assert bound(candidates, costs) == dense


# -- the level-1 tree step -----------------------------------------------------

# (scenarios, weight cap); the id of a 36-scenario grid is its weight cap
@pytest.mark.parametrize("scenarios, weight_max", [
    pytest.param(s, w, id=f"{w}" if s == 36 else f"{s}-{w}") for s in (36, 14) for w in (3, 5)])
@pytest.mark.parametrize("seed", range(8))
def test_weighted_tree_grids_finish_under_the_cap(scenarios, weight_max, seed):
    # Their longest level-1 searches pass both bound triggers.  With the
    # packing bound alone, and no LP bound after it, the search of
    # (36 scenarios, weights up to 5, seed 5) passes the node budget.
    inst = gen_grid(10, 10, scenarios, 3, weight_max, seed, "mst")
    x, trace = solve(inst)
    assert trace.levels[0].omega_size > 0
    assert is_feasible(inst, x)


def test_narrow_tree_grid_finishes_under_the_cap():
    # 43 failure sets over 703 pairs: the search visits about 805,000 of the
    # default NODE_CAP's 10**6 nodes.  Without the table of covered masks it
    # passes the budget.
    inst = gen_grid(3, 30, 90, 1, 1, 0, "mst")
    x, trace = solve(inst)
    assert trace.levels[0].omega_size == 43
    assert is_feasible(inst, x)


@pytest.mark.parametrize("seed", [0, 6, 11])
def test_tree_searches_visit_the_nodes_of_the_recursive_search(seed, lp_calls, packing_calls,
                                                               monkeypatch):
    # The tree-cover workload's shape: every level-1 search here passes both
    # triggers, so the packing and then the LP bound prune from per-byte
    # tables.  The tree step hands `cover_search` the closure's candidate
    # lists.
    set_triggers(monkeypatch, 1000, 1500)
    searches = []
    original = driver.cover_search

    def record(candidates, costs, node_cap=None):
        searches.append((candidates, costs))
        return original(candidates, costs, node_cap)

    monkeypatch.setattr(driver, "cover_search", record)
    solve(gen_grid(10, 10, 36, 3, 1, seed, "mst"))
    [(candidates, costs)] = searches
    n = len(candidates)
    assert n > 8
    sets = list(zip(costs, per_set(candidates, len(costs))))
    assert candidate_lists(n, sets) == candidates
    lp_calls.clear()
    packing_calls.clear()
    assert visited_nodes(n, sets, candidates) > setcover.LP_BOUND_AFTER
    # the reference, and each search capped twice
    assert len(lp_calls) == len(packing_calls) == 5


def closure_route(ctx):
    """(candidate lists, costs) of the tree step's closure route on face 0."""
    [(adj, ends)] = links.face_graphs(ctx).values()
    assert links.takes_closure(adj, ends)
    _, first, second, costs = links.closure_pairs(adj, ends)
    return ctx.cover_candidates(ends, first, second, costs), costs.tolist()


def decoded(ctx):
    """(candidate lists, costs) that `exact_min_cover` decodes from the
    cover masks of `enumerate_typed_links`, and its result or ValueError."""
    found = enumerate_typed_links(ctx)
    sets = list(zip([link.cost for link in found], ctx.cover_masks(found)))
    seen = []
    with pytest.MonkeyPatch.context() as patched:
        search = setcover.cover_search
        patched.setattr(setcover, "cover_search", lambda candidates, costs, node_cap:
                        seen.append((candidates, costs)) or search(candidates, costs))
        try:
            result = exact_min_cover(len(ctx.omega), sets)
        except ValueError as exc:
            result = str(exc)
    [(candidates, costs)] = seen
    return candidates, costs, result


def check_closure_route(ctx, nodes=False):
    """The closure route's candidate lists, costs and (cost, picks) equal
    those `exact_min_cover` takes from the links' masks, or both raise the
    same ValueError.  The search reads nothing else, so equal lists give
    equal node counts; with `nodes` both counts are also checked against
    the recursive reference.  Returns the candidate lists."""
    candidates, costs = closure_route(ctx)
    want_candidates, want_costs, want = decoded(ctx)
    assert (candidates, costs) == (want_candidates, want_costs)
    assert all(type(c) is int for c in costs)
    try:
        assert cover_search(candidates, costs) == want
    except ValueError as exc:
        assert str(exc) == want
        return candidates
    if nodes:
        visited_nodes(len(candidates), list(zip(costs, per_set(candidates, len(costs)))),
                      candidates)
    return candidates


# Trees whose level-1 omega passes 64 sets, so side masks take more than 8
# bytes, and whose searches stay small.
WIDE_TREES = [gen_grid(4, 20, 300, 1, 1, 0, "mst"), gen_grid(6, 15, 200, 2, 1, 0, "mst"),
              gen_grid(2, 60, 300, 1, 1, 0, "mst")]
WEIGHTED_TREES = [gen_grid(10, 10, 36, 3, w, seed, "mst") for w in (3, 5) for seed in (7, 8)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TREE_GRIDS + WEIGHTED_TREES + WIDE_TREES))
def test_closure_route_matches_the_mask_route_on_trees(instance):
    ctx = preprocess_step(instance, minimum_spanning_tree(instance), 1)
    check_closure_route(ctx)
    if instance in WIDE_TREES:
        assert len(ctx.omega) > 64


def closure_face(rng):
    """A one-face StepContext whose face takes the closure: 10 to 16 ends,
    every one on an edge, weights 0..2 (many cost ties), often more than one
    component (unreachable pairs), and random side masks over 1 to 100
    failure sets."""
    n = rng.randint(10, 16)
    rows = [(u, (u + 1) % n, 1) for u in range(0, n, 2)]   # every node on an edge
    rows += [(*rng.sample(range(n), 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 2 * n))]
    adj = {}
    for eid, (u, v, w) in enumerate(rows):
        adj.setdefault(u, []).append((eid, v, w))
        adj.setdefault(v, []).append((eid, u, w))
    ctx = one_face_context({node: tuple(lst) for node, lst in adj.items()}, range(n))
    width = rng.randint(1, 100)
    ctx.omega = tuple(range(width))
    ctx.side_masks = {node: rng.getrandbits(width) for node in range(n)}
    return ctx


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_closure_route_matches_the_mask_route_on_random_faces(rng):
    ctx = closure_face(rng)
    check_closure_route(ctx, nodes=len(ctx.omega) <= 12)


def test_random_faces_reach_every_case():
    # Among faces like the property test's: unreachable pairs, cost ties
    # within an element's candidates, masks past 8 bytes, uncoverable sets,
    # and searches whose node counts are compared.
    rng = random.Random(9)
    seen = Counter()
    for _ in range(80):
        ctx = closure_face(rng)
        [(adj, ends)] = links.face_graphs(ctx).values()
        _, first, _, costs = links.closure_pairs(adj, ends)
        candidates = check_closure_route(ctx, nodes=len(ctx.omega) <= 12)
        costs = costs.tolist()
        seen["unreachable"] += len(first) < len(ends) * (len(ends) - 1) // 2
        seen["ties"] += any(costs[a] == costs[b] for ids in candidates
                            for a, b in zip(ids, ids[1:]))
        seen["wide"] += len(ctx.omega) > 64
        seen["uncoverable"] += not all(candidates)
        seen["nodes"] += len(ctx.omega) <= 12 and all(candidates)
    assert min(seen[case] for case in ("unreachable", "ties", "wide", "uncoverable",
                                       "nodes")) >= 5, seen


def test_level1_budget_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(setcover, "NODE_CAP", 1)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(gen_grid(10, 10, 36, 3, 5, 0, "mst")))
    assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "sol.json")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: level-1 ") and "budget of 1 search nodes" in err


def test_level1_pivot_budget_keeps_its_cause(tmp_path, capsys, monkeypatch):
    # The tree search's dual bound runs the simplex; its budget is reported
    # as a pivot budget, not as search nodes.
    monkeypatch.setattr(setcover, "LP_BOUND_AFTER", 1)
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(gen_grid(10, 10, 36, 3, 5, 0, "mst")))
    assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "sol.json")]) == 4
    err = capsys.readouterr().err
    assert err == "error: level-1 spanning-tree cover exceeded its budget of 1 pivots\n"
