"""Exact weighted set cover by branch and bound.

Used wherever an exact small cover is needed: per-side rectangle covering,
spanning-tree augmentation at level 1, `bulkrobust gap`'s face optima, and
the hypergraph vertex cover reference.  Elements are 0..n-1, and every
caller hands in each set as a bitmask over them: the level-1 tree cover
passes its links' side-mask XORs as they are.  Each mask is range-checked
once and read once, lowest bit first, into the per-element candidate
lists; a mask cannot repeat an element, so nothing checks for repeats.
Coverage is tracked in bitmasks too, so instances stay fast well past the
sizes this package generates.

The search is a depth-first branch and bound; the incumbent changes only on
a strictly cheaper leaf, so the result is the first optimal leaf in DFS
order.  A node is pruned only when a lower bound shows that no strictly
cheaper leaf lies below it, which never prunes that leaf: pruning changes
how many nodes are visited, never the returned (cost, picks).  Two bounds
are used: the cheapest set of the branching element, and, once a search has
visited `LP_BOUND_AFTER` nodes, an LP dual bound.  The covering LP is
solved once per search; an optimal packing y, clipped to y >= 0 and scaled
down until every set S has sum(y over S) <= cost(S) (checked, not trusted),
makes sum(y over the uncovered elements) a lower bound on the cost of
covering them.  y is the mean of two packing optima, found with the
elements in forward and in reverse order.  The optima form a convex set, so
the mean is optimal too, with the same total; but a single vertex puts its
weight on few elements, and a node deep in the search, where only some
elements are uncovered, then sees a weaker bound.  On the benchmark's
tree-cover workload (seed 101) the mean visits 600,383 nodes in all, a
single vertex 1,546,060.  With integer costs a node is pruned once cost + that
bound > best - 1, since a strictly cheaper leaf costs at most best - 1; a
tolerance relative to the dual value keeps float error from pruning that
leaf.  Small searches never reach the trigger and never pay for the LP.
Past `node_cap` visited nodes (default `NODE_CAP`, read when the search
starts) it raises `BudgetError`.

A visited node is the root or any child the search reaches, leaves and
children pruned at once included; `NODE_CAP`, `LP_BOUND_AFTER` and the node
counts above count exactly these.  The parent settles its children itself,
and recurses only into a child that is neither a leaf nor at least as
costly as the incumbent.  Children are tried by (cost, index), so costs only
rise along the loop: once a child reaches the incumbent, it and every later
sibling are counted in one step, and a bulk count that crosses the LP
trigger or the budget acts as a node-by-node count would.  A child that
covers every element becomes the incumbent without a call.  The branching
order is fixed once per search: each element's mask bit is its rank by
(candidate count, index), so the uncovered element with the fewest
candidates is the lowest zero bit of the covered mask.  When the LP bound
starts, y becomes one table per byte of the uncovered mask, holding the y
sum of every byte value; a node's bound is one lookup per byte, read only
when the cheapest-set test has not pruned.
"""

import numpy as np

from .errors import BudgetError, InvariantError
from .lp import LinearProgram, covering_matrix, simplex_min

LP_BOUND_AFTER = 1000
# The largest search in the benchmark's tree-cover and small-mix workloads
# (seeds 101 and 102) visits under 10**5 nodes.
NODE_CAP = 10 ** 6
_FLOAT_EXACT = 2 ** 53      # costs up to this convert to float exactly
_BOUND_RTOL = 1e-9          # prune tolerance, relative to the dual value


def dual_bound(candidates, costs):
    """Per-element weights y >= 0 with sum(y over S) <= cost(S) for every set
    S, from the covering LP's packing dual; None when the costs are not all
    nonnegative and exact as floats.  `candidates[el]` lists the indices of
    the sets that hold element el, cheapest first.

    The LP is solved by column generation: first over each element's
    cheapest set, then again with every set whose constraint y violates
    added, until none is; each tableau stays a fraction of the full one.
    Every round solves the restricted LP twice, with the elements in forward
    and in reverse order, and y is the mean of the two packing optima.
    """
    if not all(0 <= c <= _FLOAT_EXACT for c in costs):
        return None
    c = np.array(costs, dtype=float)
    a = covering_matrix(candidates, c.size)
    slack = -_BOUND_RTOL * max(1.0, float(c.max()))
    columns = sorted({ids[0] for ids in candidates})
    while True:
        restricted = a[:, columns]
        forward = simplex_min(LinearProgram(c[columns], restricted)).duals
        backward = simplex_min(LinearProgram(c[columns], restricted[::-1])).duals[::-1]
        y = np.clip((forward + backward) / 2, 0.0, None)
        violated = set((c - a.T @ y < slack).nonzero()[0].tolist()) - set(columns)
        if not violated:
            break
        columns = sorted(violated.union(columns))
    y[c[[ids[0] for ids in candidates]] == 0] = 0.0     # elements of zero-cost sets
    load = a.T @ y
    loaded = load > 0
    if loaded.any():
        y *= min(1.0, float((c[loaded] / load[loaded]).min())) * (1 - 1e-12)
    if (a.T @ y > c).any():
        raise InvariantError("scaled covering LP duals exceed a set's cost")
    return y.tolist()


def exact_min_cover(element_count, sets, node_cap=None):
    """Minimum-cost subcollection covering all elements.

    `sets` is a sequence of (cost, mask) pairs with nonnegative costs: bit
    el of the int `mask` is set iff the set holds element el.  Returns
    (total_cost, tuple of chosen set indices).  Deterministic: branching
    always targets the uncovered element with the fewest candidates (the
    lowest index among ties) and children are explored by (cost, index).
    That order is fixed once per search: each element's mask bit is its rank
    by (candidate count, index), so the branching element is the lowest
    uncovered bit.  A parent settles its children itself and recurses only
    into those that are neither leaves nor at least as costly as the
    incumbent; every child still counts as one visited node.  Raises
    ValueError on a negative cost, on a mask that is negative or has a bit at
    or above `element_count` (naming the lowest such element), and on an
    uncoverable element; BudgetError when more than `node_cap` search nodes
    (default `NODE_CAP`) are visited.
    """
    if node_cap is None:
        node_cap = NODE_CAP
    trigger = LP_BOUND_AFTER
    costs = [cost for cost, _ in sets]
    if costs and min(costs) < 0:
        i = next(i for i, cost in enumerate(costs) if cost < 0)
        raise ValueError(f"set {i} has negative cost {costs[i]}")
    candidates = [[] for _ in range(element_count)]
    # by (cost, index), and below by (candidate count, index): sorted is stable
    for i in sorted(range(len(costs)), key=costs.__getitem__):
        mask = sets[i][1]
        if out := mask >> element_count:    # a negative mask keeps its high bits
            raise ValueError(
                f"element {element_count + (out & -out).bit_length() - 1} out of range")
        while mask:
            low = mask & -mask
            candidates[low.bit_length() - 1].append(i)
            mask ^= low

    if element_count == 0:
        return 0, ()
    for el in range(element_count):
        if not candidates[el]:
            raise ValueError(f"element {el} is uncoverable")

    rank = sorted(range(element_count), key=lambda el: len(candidates[el]))
    masks = [0] * len(costs)
    for bit, el in enumerate(rank):
        bit = 1 << bit
        for i in candidates[el]:
            masks[i] |= bit
    branch_ids = [candidates[el] for el in rank]
    cheapest = [costs[ids[0]] for ids in branch_ids]
    full = (1 << element_count) - 1
    width = (element_count + 7) // 8
    # With integer costs a strictly cheaper leaf is cheaper by at least one.
    step = 1 if all(type(c) is int for c in costs) else 0

    best_cost = None
    best_pick = None
    picked = []
    nodes = 0
    tables = None   # y sums per byte value of the uncovered mask, from the trigger on
    tol = 0.0

    def visit(count):
        """Count `count` visited nodes, with the LP trigger and the budget
        taking effect exactly where a node-by-node count would."""
        nonlocal nodes, tables, tol
        start = nodes
        nodes += count
        if start < trigger <= nodes and trigger <= node_cap:
            y = dual_bound(candidates, costs)
            if y is not None:
                tol = _BOUND_RTOL * max(1.0, sum(y))
                tables = []
                for byte in range(width):
                    table = [0.0]
                    for el in rank[8 * byte:8 * byte + 8]:
                        table += [s + y[el] for s in table]
                    tables.append(table)
        if nodes > node_cap:
            raise BudgetError("set-cover search", f"{node_cap} search nodes")

    def branch(covered, cost):
        # Entered for a counted node that is neither a leaf nor, against the
        # incumbent, too costly.
        nonlocal best_cost, best_pick
        bit = (~covered & (covered + 1)).bit_length() - 1    # lowest zero bit
        if best_cost is not None:
            if cost + cheapest[bit] >= best_cost:
                return
            # The gap best - step - cost is exact; only the dual sum is a float.
            if tables is not None:
                need = sum(map(list.__getitem__, tables,
                               (full ^ covered).to_bytes(width, "little")))
                if need > (best_cost - step - cost) + tol:
                    return
        ids = branch_ids[bit]
        for j, i in enumerate(ids):
            child = cost + costs[i]
            if best_cost is not None and child >= best_cost:
                # Costs only rise along ids: this child and every later one
                # is a leaf no cheaper than the incumbent or a pruned node.
                visit(len(ids) - j)
                return
            visit(1)
            picked.append(i)
            mask = covered | masks[i]
            if mask == full:
                best_cost = child
                best_pick = tuple(picked)
            else:
                branch(mask, child)
            picked.pop()

    visit(1)
    branch(0, 0)
    return best_cost, best_pick
