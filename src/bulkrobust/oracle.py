"""Exact brute-force references for desk-scale verification.

Feasibility and the instance optimum share no code paths with the solver:
feasibility is re-derived from scratch by a depth-first search over the
subset's edges, with none of the solver's union-find, and the optimum
comes from a pruned subset search.  Removing fewer edges never hurts, so
feasibility only needs the full scenarios (plus the solution itself); the
same monotonicity lets the search pre-include every zero-weight edge and
branch over the rest.  `brute_force_vc`, the hypergraph vertex-cover
reference, does share one: it runs the solver's `exact_min_cover`, with
its own node budget.  Acceptance criterion 9 checks `exact_min_cover`
against exhaustive enumeration independently.
"""

from dataclasses import dataclass

from .errors import BudgetError, InfeasibleError
from .setcover import exact_min_cover


@dataclass(frozen=True)
class OracleBudget:
    """Caps for the brute-force searches.

    `max_edges` bounds the number of branching items (positive-weight
    edges, or hypergraph nodes for the vertex-cover search); `max_subsets`
    bounds visited search nodes.
    """

    max_edges: int = 24
    max_subsets: int = 2_000_000


def _requirement_holds(instance, edges):
    """The requirement on (V, edges), `edges` a set: a depth-first search from
    s (from node 0 for 'mst') that follows only those edges."""
    adjacency = instance.graph.adjacency
    mst = instance.problem == "mst"
    seen, stack = set(), [0 if mst else instance.s]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(other for e, other, _ in adjacency[node] if e in edges)
    return len(seen) == instance.node_count if mst else instance.t in seen


def is_feasible(instance, edge_subset):
    """True iff the subset satisfies the requirement under every scenario.

    The subset itself must satisfy the requirement too (removing nothing
    is always an allowed failure); per-subset checks inside scenarios are
    redundant because removing fewer edges only helps.
    """
    chosen = frozenset(edge_subset)
    return all(_requirement_holds(instance, chosen - full)
               for full in (frozenset(), *instance.scenario_sets))


def brute_force_opt(instance, budget=None):
    """Exact optimum by pruned subset search; returns (value, witness).

    Zero-weight edges are always included (monotonicity makes that free),
    positive-weight edges are branched over heaviest-first with
    exclusion tried before inclusion.  A branch dies as soon as the
    chosen-plus-undecided edges cannot be feasible, and closes as soon as
    the chosen edges alone are feasible.  The witness is the first optimum
    the deterministic search establishes.
    """
    budget = budget or OracleBudget()
    weights = {e: w for e, _, _, w in instance.edges}
    base = frozenset(e for e, w in weights.items() if w == 0)
    branchable = sorted((e for e, w in weights.items() if w > 0),
                        key=lambda e: (-weights[e], e))
    if len(branchable) > budget.max_edges:
        raise BudgetError(
            f"{len(branchable)} positive-weight edges exceed the oracle budget "
            f"of {budget.max_edges}")
    if not is_feasible(instance, instance.edge_ids):
        raise InfeasibleError("the full edge set is already infeasible")

    # Greedy seed: drop heavy edges while feasibility survives.
    seed = set(instance.edge_ids)
    for e in branchable:
        if is_feasible(instance, seed - {e}):
            seed.discard(e)
    best_cost = sum(weights[e] for e in seed)
    best_set = frozenset(seed)

    suffix = [frozenset(branchable[i:]) for i in range(len(branchable) + 1)]
    visited = 0

    def search(idx, chosen, cost):
        nonlocal best_cost, best_set, visited
        visited += 1
        if visited > budget.max_subsets:
            raise BudgetError(f"subset search exceeded {budget.max_subsets} nodes")
        if cost >= best_cost:
            return
        if is_feasible(instance, base | chosen):
            best_cost = cost
            best_set = frozenset(base | chosen)
            return
        if idx == len(branchable):
            return
        if not is_feasible(instance, base | chosen | suffix[idx]):
            return
        search(idx + 1, chosen, cost)
        e = branchable[idx]
        chosen.add(e)
        search(idx + 1, chosen, cost + weights[e])
        chosen.discard(e)

    search(0, set(), 0)
    return best_cost, best_set


def brute_force_vc(hypergraph, budget=None):
    """Exact minimum vertex cover of a hypergraph; returns (size, witness)."""
    budget = budget or OracleBudget()
    nodes = sorted(v for part in hypergraph.parts for v in part)
    if len(nodes) > budget.max_edges:
        raise BudgetError(
            f"{len(nodes)} nodes exceed the oracle budget of {budget.max_edges}")
    edges = hypergraph.hyperedges
    sets = [(1, sum(1 << i for i, e in enumerate(edges) if v in e)) for v in nodes]
    size, picked = exact_min_cover(len(edges), sets, node_cap=budget.max_subsets)
    return size, frozenset(nodes[i] for i in picked)
