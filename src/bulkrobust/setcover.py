"""Exact weighted set cover by branch and bound.

Used wherever an exact small cover is needed: per-side rectangle covering,
spanning-tree augmentation at level 1, `bulkrobust gap`'s face optima, and
the hypergraph vertex cover reference.  Elements are 0..n-1.  One search
has two entries.  `exact_min_cover` takes each set as a bitmask over the
elements: each mask is range-checked once and read once, lowest bit
first, into the per-element candidate lists; a mask cannot repeat an
element, so nothing checks for repeats.  `cover_search` takes those lists
themselves, each by (cost, index), and holds everything after the decode:
the cost and coverage checks, the branching order, the bounds and the
search.  The level-1 tree cover calls it directly on a face that takes
the closure, with lists read from the closure's arrays
(`StepContext.cover_candidates`); its smaller trees hand
`exact_min_cover` their links' side-mask XORs as they are.  Coverage is
tracked in bitmasks too, so instances stay fast well past the sizes this
package generates.

The search is a depth-first branch and bound; the incumbent changes only on
a strictly cheaper leaf, so the result is the first optimal leaf in DFS
order.  A node is pruned only when a lower bound shows that no strictly
cheaper leaf lies below it, which never prunes that leaf: pruning changes
how many nodes are visited, never the returned (cost, picks).  The first
bound is the cheapest set of the branching element.  The others are
packings: weights y >= 0 per element with sum(y over S) <= cost(S) for
every set S make sum(y over the uncovered elements) a lower bound on the
cost of covering them.  A search that visits `PACKING_BOUND_AFTER` nodes
takes y from `packing_bound`, two greedy maximal packings and no LP; one
that goes on to `LP_BOUND_AFTER` nodes replaces it with `dual_bound`'s,
from the covering LP, solved once per search.  Of the searches that pass
the first trigger most end before the second, and the few long ones get the
stronger bound.  Both bounds take the mean of two packings, made with the
elements in forward and in reverse order, and both pass y through one tail
that zeroes the elements of zero-cost sets and scales y down until every
set fits, checked, not trusted.  A single packing puts its weight on few
elements, and a node deep in the search, where only some elements are
uncovered, then sees a weaker bound.  On the benchmark's tree-cover
workload (seed 101) the searches visit 558,866 nodes in all; with the
forward packing alone in place of the mean, 838,449, and with one LP vertex
in place of the mean of two optima, 679,471.  With integer costs a node is
pruned once cost + that bound > best - 1, since a strictly cheaper leaf
costs at most best - 1; a tolerance relative to the packing's total keeps
float error from pruning that leaf.  Small searches never reach a trigger
and pay for neither bound.  Past `node_cap` visited nodes (default
`NODE_CAP`, read when the search starts) it raises `BudgetError`.

Different pick orders often reach the same covered mask, so the search
remembers the masks it has searched: a table maps each covered mask that
the search enters to the least cost it was entered at, and a mask entered
before at a cost no higher returns at once.  That never changes the
returned (cost, picks).  The incumbent changes only on a strictly cheaper
leaf, and a mask never recurs inside its own subtree, since each pick
covers the lowest uncovered element.  So once the first visit to mask M, at
cost c0, has ended, the incumbent costs at most c0 plus M's cheapest
completion: either that visit reached such a leaf or one no dearer was
already held, or a bound showed that no strictly cheaper leaf lay below M.
A later visit at c1 >= c0 therefore holds no strictly cheaper leaf; if
c1 = c0, the first optimal leaf in DFS order below M was already reached in
the first visit.  The bounds do not depend on the path, so they stay valid.
The table holds at most `REACHED_CAP` masks (read when the search starts);
past that, no new mask is inserted, but a held mask's cost still drops when
it is entered more cheaply.  Without the table the tree-cover searches
above visit 634,720 nodes, and 38 of them, not 19, reach the LP bound; the
largest table there holds 1,284 masks.

A visited node is the root or any child the search reaches, leaves and
children pruned at once included; `NODE_CAP`, both triggers and the node
counts above count exactly these.  The parent settles its children itself,
and recurses only into a child that is neither a leaf nor at least as
costly as the incumbent.  Children are tried by (cost, index), so costs only
rise along the loop: once a child reaches the incumbent, it and every later
sibling are counted in one step, and a bulk count that crosses either
trigger, both, or the budget acts as a node-by-node count would.  A child
that covers every element becomes the incumbent without a call.  The
branching order is fixed once per search: each element's mask bit is its
rank by (candidate count, index), so the uncovered element with the fewest
candidates is the lowest zero bit of the covered mask.  When a bound starts,
y becomes one table per byte of the uncovered mask, holding the y sum of
every byte value; a node's bound is one lookup per byte, read only when the
cheapest-set test has not pruned.
"""

from itertools import accumulate, chain, pairwise

import numpy as np

from .errors import BudgetError, InvariantError
from .lp import LinearProgram, covering_matrix, simplex_min

PACKING_BOUND_AFTER = 1000
LP_BOUND_AFTER = 5000
# The largest search in the benchmark's tree-cover and small-mix workloads
# (seeds 101 and 102) visits under 25,000 nodes; the narrow spanning-tree
# grid gen_grid(3, 30, 90, 1, 1, 0, "mst") about 805,000.
NODE_CAP = 10 ** 6
# Covered masks one search remembers: that grid's search holds about 108,000.
REACHED_CAP = 2 ** 18
_FLOAT_EXACT = 2 ** 53      # costs up to this convert to float exactly
_BOUND_RTOL = 1e-9          # prune tolerance, relative to the packing's total


def _exact_floats(costs):
    """Whether every cost is nonnegative and exact as a float."""
    return 0 <= min(costs) and max(costs) <= _FLOAT_EXACT


def _valid_packing(y, candidates, c, load):
    """The packing y >= 0, with the elements of zero-cost sets zeroed and
    scaled down until every set S has sum(y over S) <= cost(S), as a list.
    `load(y)` gives every set's sum(y over S); the last inequality is
    checked, not trusted."""
    y[c[[ids[0] for ids in candidates]] == 0] = 0.0     # elements of zero-cost sets
    sums = load(y)
    loaded = sums > 0
    if loaded.any():
        y *= min(1.0, float((c[loaded] / sums[loaded]).min())) * (1 - 1e-12)
    if (load(y) > c).any():
        raise InvariantError("scaled packing exceeds a set's cost")
    return y.tolist()


def maximal_packing(candidates, costs):
    """One maximal packing, the elements taken in the order of `candidates`:
    each element takes the least residual slack of its sets, and those sets'
    slacks drop by that amount.  `costs` is a float array; returns y as an
    array, one entry per element."""
    slack = costs.copy()
    y = np.empty(len(candidates))
    for el, ids in enumerate(candidates):
        y[el] = least = slack[ids].min()
        if least:
            slack[ids] -= least
    return y


def packing_bound(candidates, costs):
    """Per-element weights y >= 0 with sum(y over S) <= cost(S) for every set
    S, with no LP; None when the costs are not all nonnegative and exact as
    floats.  `candidates` is as for `dual_bound`.

    y is the mean of two maximal packings (`maximal_packing`), with the
    elements in index order and in reverse index order: the primal-dual
    lower bound of Bar-Yehuda and Even for weighted set cover.  Each packing
    fits under every set by construction, and so does their mean; the
    scaling and the check that `dual_bound` makes still run on it.
    """
    if not _exact_floats(costs):
        return None
    c = np.array(costs, dtype=float)
    counts = [len(i) for i in candidates]
    sets = np.fromiter(chain.from_iterable(candidates), np.intp, sum(counts))
    ids = [sets[start:end] for start, end in pairwise(accumulate(counts, initial=0))]
    y = (maximal_packing(ids, c) + maximal_packing(ids[::-1], c)[::-1]) / 2
    return _valid_packing(np.clip(y, 0.0, None), candidates, c,
                          lambda y: np.bincount(sets, np.repeat(y, counts), c.size))


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
    if not _exact_floats(costs):
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
    return _valid_packing(y, candidates, c, lambda y: a.T @ y)


def _check_costs(costs):
    """ValueError naming the first negative cost, if there is one."""
    if costs and min(costs) < 0:
        i = next(i for i, cost in enumerate(costs) if cost < 0)
        raise ValueError(f"set {i} has negative cost {costs[i]}")


def exact_min_cover(element_count, sets, node_cap=None):
    """Minimum-cost subcollection covering all elements.

    `sets` is a sequence of (cost, mask) pairs with nonnegative costs: bit
    el of the int `mask` is set iff the set holds element el.  Returns
    (total_cost, tuple of chosen set indices).  Each mask is range-checked
    and read, lowest bit first, into the per-element candidate lists, which
    go to `cover_search` with the costs.  Raises ValueError on a negative
    cost, then on a mask that is negative or has a bit at or above
    `element_count` (naming the lowest such element), and otherwise as
    `cover_search` does.
    """
    costs = [cost for cost, _ in sets]
    candidates = [[] for _ in range(element_count)]
    # by (cost, index): sorted is stable
    for i in sorted(range(len(costs)), key=costs.__getitem__):
        mask = sets[i][1]
        if out := mask >> element_count:    # a negative mask keeps its high bits
            _check_costs(costs)     # a negative cost is named first
            raise ValueError(
                f"element {element_count + (out & -out).bit_length() - 1} out of range")
        while mask:
            low = mask & -mask
            candidates[low.bit_length() - 1].append(i)
            mask ^= low
    return cover_search(candidates, costs, node_cap)


def cover_search(candidates, costs, node_cap=None):
    """Minimum-cost subcollection covering all elements, from the element
    side: `candidates[el]` lists the indices of the sets that hold element
    el by (cost, index), and `costs` gives every set's nonnegative cost.
    Returns (total_cost, tuple of chosen set indices).

    Deterministic: branching always targets the uncovered element with the
    fewest candidates (the lowest index among ties) and children are
    explored by (cost, index).  That order is fixed once per search: each
    element's mask bit is its rank by (candidate count, index), so the
    branching element is the lowest uncovered bit.  A parent settles its
    children itself and recurses only into those that are neither leaves
    nor at least as costly as the incumbent; every child still counts as
    one visited node.  From `PACKING_BOUND_AFTER` visited nodes on, a node
    is also pruned by `packing_bound`'s greedy packing, and from
    `LP_BOUND_AFTER` on by `dual_bound`'s LP packing instead; a packing
    trigger at or after the LP one never fires.  Both triggers are read
    when the search starts.  A node whose covered mask was entered before at
    a cost no higher is not searched again (up to `REACHED_CAP` masks are
    remembered; see the module docstring).  Raises ValueError on a negative
    cost and on an uncoverable element; BudgetError when more than
    `node_cap` search nodes (default `NODE_CAP`) are visited.
    """
    if node_cap is None:
        node_cap = NODE_CAP
    _check_costs(costs)
    element_count = len(candidates)
    if element_count == 0:
        return 0, ()
    for el in range(element_count):
        if not candidates[el]:
            raise ValueError(f"element {el} is uncoverable")

    # by (candidate count, index): sorted is stable
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
    step = 1 if set(map(type, costs)) <= {int} else 0

    best_cost = None
    best_pick = None
    picked = []
    nodes = 0
    reached = {}    # covered mask -> least cost `branch` entered it at
    reached_cap = REACHED_CAP
    tables = None   # y sums per byte value of the uncovered mask, once a bound starts
    tol = 0.0
    # The bounds still to start, the next on top.  A packing bound that would
    # start with or after the LP bound never runs, so it never replaces the
    # LP's tables; a bound past the budget never runs either.
    schedule = [(LP_BOUND_AFTER, dual_bound)]
    if PACKING_BOUND_AFTER < LP_BOUND_AFTER:
        schedule.append((PACKING_BOUND_AFTER, packing_bound))
    schedule = [(at, bound) for at, bound in schedule if 0 < at <= node_cap]
    pending = schedule[-1][0] if schedule else node_cap + 1

    def visit(count):
        """Count `count` visited nodes; from `pending` on, `advance` acts."""
        nonlocal nodes
        nodes += count
        if nodes >= pending:
            advance()

    def advance():
        """Start every bound whose node has been counted, in order, then check
        the budget: the bounds and the budget take effect exactly where a
        node-by-node count would."""
        nonlocal pending, tables, tol
        while schedule and schedule[-1][0] <= nodes:
            y = schedule.pop()[1](candidates, costs)
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
        pending = schedule[-1][0] if schedule else node_cap + 1

    def branch(covered, cost):
        # Entered for a counted node that is neither a leaf nor, against the
        # incumbent, too costly.
        nonlocal best_cost, best_pick
        entered = reached.get(covered)
        if entered is not None and entered <= cost:
            return
        if entered is not None or len(reached) < reached_cap:
            reached[covered] = cost
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
