"""The level-1 spanning-tree step: grouped shortest paths, the lazily bounded
exact cover, and its node budget.

`per_pair_lex_shortest_path` and `bound_free_exact_min_cover` are the
earlier implementations, kept here as references: one Dijkstra per pair,
and a branch and bound whose only bound is the cheapest set of the branching
element.  The fast versions must return exactly what they return.
"""

import random

import pytest

from bulkrobust import gen_grid, is_feasible, serialize_instance, solve
from bulkrobust import setcover
from bulkrobust.cli import main
from bulkrobust.errors import BudgetError, InvariantError
from bulkrobust.links import dijkstra, lex_shortest_paths
from bulkrobust.setcover import exact_min_cover


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


def test_grouped_paths_match_per_pair_search():
    rng = random.Random(6)
    unreachable = same = 0
    for _ in range(300):
        n, adj = random_multigraph(rng)
        pairs = [(u, v) for u in range(n) for v in range(n)]
        rng.shuffle(pairs)
        got = list(lex_shortest_paths(adj, pairs))
        kept = [(u, v) for u, v in pairs if u in adj and v in adj]
        assert [(u, v) for u, v, _ in got] == kept
        for u, v, found in got:
            assert found == per_pair_lex_shortest_path(adj, u, v)
            unreachable += found is None
            same += u == v
    assert unreachable > 100 and same > 100


# -- exact cover -----------------------------------------------------------------

def random_cover(rng, n, cost):
    """Singletons for every element plus 30-60 random sets of 2-5 elements."""
    sets = [(cost(), [el]) for el in range(n)]
    for _ in range(rng.randint(30, 60)):
        sets.append((cost(), rng.sample(range(n), rng.randint(2, 5))))
    rng.shuffle(sets)
    return sets


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the searches that reached the LP bound."""
    calls = []
    original = setcover.dual_bound

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(setcover, "dual_bound", counted)
    return calls


COSTS = {
    "small": lambda rng: lambda: rng.randint(1, 20),
    "with-zero": lambda rng: lambda: max(0, rng.randint(-2, 20)),
    "near-2**53": lambda rng: lambda: 2 ** 53 - rng.randint(0, 3),
    "float": lambda rng: lambda: rng.randint(1, 40) / 4,
}


@pytest.mark.parametrize("kind", sorted(COSTS))
def test_lazy_bound_keeps_cost_and_picks(kind, lp_calls):
    rng = random.Random(kind)
    for _ in range(40):
        n = rng.randint(16, 24)
        sets = random_cover(rng, n, COSTS[kind](rng))
        assert exact_min_cover(n, sets) == bound_free_exact_min_cover(n, sets)
    assert len(lp_calls) >= 10     # enough searches crossed the trigger


@pytest.mark.parametrize("kind", sorted(COSTS))
def test_bound_from_the_first_node_keeps_cost_and_picks(kind, lp_calls, monkeypatch):
    monkeypatch.setattr(setcover, "LP_BOUND_AFTER", 1)
    rng = random.Random("small " + kind)
    for _ in range(150):
        n = rng.randint(1, 9)
        cost = COSTS[kind](rng)
        sets = [(cost(), rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 12))]
        try:
            expected = bound_free_exact_min_cover(n, sets)
        except ValueError:
            with pytest.raises(ValueError):
                exact_min_cover(n, sets)
            continue
        assert exact_min_cover(n, sets) == expected
    assert len(lp_calls) >= 50


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


def test_dual_bound_skips_costs_floats_cannot_hold():
    assert setcover.dual_bound([[0]], [2 ** 53 + 1]) is None
    assert setcover.dual_bound([[0]], [-1]) is None


# -- the level-1 tree step -----------------------------------------------------

@pytest.mark.parametrize("weight_max", [3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_weighted_tree_grids_finish_under_the_cap(weight_max, seed):
    inst = gen_grid(10, 10, 36, 3, weight_max, seed, "mst")
    x, trace = solve(inst)
    assert trace.levels[0].omega_size > 0
    assert is_feasible(inst, x)


def test_level1_budget_exits_4(tmp_path, capsys, monkeypatch):
    import bulkrobust.driver as driver_mod
    monkeypatch.setattr(driver_mod, "NODE_CAP", 1)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(gen_grid(10, 10, 36, 3, 5, 0, "mst")))
    assert main(["solve", "-i", str(inst), "-o", str(tmp_path / "sol.json")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: level-1 ") and "budget of 1 search nodes" in err
