"""Covering LPs by a one-phase dense simplex, max-flow separation oracles,
and the link LP.

Every LP here is a covering LP: minimize c.x subject to A x >= 1 and
x >= 0, with A 0/1, every row covering some column, and c >= 0.
`LinearProgram` checks c and A and keeps them as given; every caller
builds A with `covering_matrix` from rows of column indices.
`simplex_min` solves its packing dual, maximize 1.y subject to A^T y <= c
and y >= 0, from the slack basis, which c >= 0 makes feasible; each y_r is
at most the cost of a column row r covers, so the dual is bounded and one
phase suffices.  Pivots follow Dantzig's rule, and Bland's rule once
`_STALL_LIMIT` pivots in a row leave the packing value unchanged, until a
pivot raises it again.  A basic value within rounding of zero, relative to
the two terms a pivot subtracts, is set to 0.  y is read from the basic
values and x from the slacks' reduced costs, and the solve checks the pair
as a certificate: x primal feasible, y dual feasible, equal values.  Each
pivot is one whole-array update and each ratio test one vector division.
The link LP has one row per relevant failure set; `preprocess_step` already
enumerates them all, so it is solved once over the distinct rows of the
level's `StepContext.covering` table.  The min-cut separation oracle
(`separation_oracle`) is the paper's way to find violated rows when they
are not enumerated.  No stage of the solve calls it: acceptance criterion 6
compares it with subset enumeration, and the benchmark harness traces it.
Everything is deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InfeasibleError, InvariantError

EPS_FEAS = 1e-6     # constraint satisfaction tolerance
_PIVOT_EPS = 1e-9
_STALL_LIMIT = 30
_MAX_PIVOTS = 20000    # per solve; past it the solve raises BudgetError


@dataclass
class LinearProgram:
    """minimize c.x subject to A x >= 1, x >= 0, where A = `matrix` is a 0/1
    matrix with one column per cost and no all-zero row, and every cost is
    finite and >= 0."""

    objective: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.objective = c = np.asarray(self.objective, dtype=float)
        self.matrix = a = np.asarray(self.matrix, dtype=float)
        if c.ndim != 1 or not (np.isfinite(c) & (c >= 0)).all():
            raise ValueError("LP costs must be finite and nonnegative")
        if a.ndim != 2 or a.shape[1] != c.size:
            raise ValueError("constraint matrix needs two dimensions and one column per cost")
        if ((a != 0) & (a != 1)).any() or not a.any(axis=1).all():
            raise ValueError("covering rows are nonzero 0/1 vectors")

    @property
    def rows(self):
        """(coefficients, bound) per row, read-only; perfbench's tracer reads it."""
        return [(a, 1.0) for a in self.matrix]


def covering_matrix(rows, width):
    """The 0/1 matrix with one row per entry of `rows`, each a collection of
    the column indices in [0, width) that hold a 1."""
    a = np.zeros((len(rows), width))
    for r, columns in enumerate(rows):
        a[r, list(columns)] = 1.0
    return a


@dataclass
class SimplexResult:
    value: float                    # c.x, equal to 1.y
    x: np.ndarray                   # a covering optimum
    duals: np.ndarray               # y, one per row: a packing optimum


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    # Factors of at most 1e-14 are zeroed, so those rows keep their values.
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    factors[np.abs(factors) <= 1e-14] = 0.0
    rhs = tableau[:-1, -1]
    # Each basic value is the difference of two terms; a result within 1e-12
    # of the larger term (or below 0) is rounding error and is set to 0, so
    # a degenerate pivot keeps the packing value exactly and Bland's rule
    # sees exact ties.  The scale is per row: a small value is kept beside a
    # large cost in another row.
    scale = np.maximum(np.abs(rhs), np.abs(factors[:-1] * tableau[row, -1]))
    tableau -= np.multiply.outer(factors, tableau[row])
    rhs[rhs <= 1e-12 * scale] = 0.0
    basis[row] = col


def simplex_min(lp):
    """Optimum of the covering LP `lp`, solved as its packing dual and
    certified; raises BudgetError after `_MAX_PIVOTS` pivots."""
    c = lp.objective
    a = lp.matrix
    m, n = a.shape
    if m == 0:
        return SimplexResult(0.0, np.zeros(n), np.zeros(0))
    # One row per column j, A_j^T y + s_j = c_j; columns y, s, right-hand
    # side.  The objective row minimizes -1.y, so its last cell is 1.y.
    tableau = np.zeros((n + 1, m + n + 1))
    tableau[:-1, :m] = a.T
    np.fill_diagonal(tableau[:-1, m:-1], 1.0)
    tableau[:-1, -1] = c
    tableau[-1, :m] = -1.0
    basis = np.arange(m, m + n)
    rhs = tableau[:-1, -1]
    stall = 0
    last = tableau[-1, -1]
    for _ in range(_MAX_PIVOTS):
        obj = tableau[-1, :-1]
        if stall < _STALL_LIMIT:
            col = int(obj.argmin())
            if obj[col] >= -_PIVOT_EPS:
                break
        else:
            negatives = (obj < -_PIVOT_EPS).nonzero()[0]
            if negatives.size == 0:
                break
            col = int(negatives[0])    # Bland's rule
        column = tableau[:-1, col]
        rows = (column > _PIVOT_EPS).nonzero()[0]
        if rows.size == 0:
            raise InvariantError("the packing dual of a covering LP is unbounded")
        if rows.size > 1:
            ratios = rhs[rows] / column[rows]
            rows = rows[ratios == ratios.min()]
        # Among exact ties the row with the smallest basic index leaves.
        _pivot(tableau, basis, int(rows[basis[rows].argmin()]), col)
        # Only a degenerate pivot leaves the packing value where it was.
        now = tableau[-1, -1]
        stall = stall + 1 if now <= last + 1e-12 else 0
        last = now
    else:
        raise BudgetError("simplex", f"{_MAX_PIVOTS} pivots")

    y = np.zeros(m)
    packing = basis < m
    y[basis[packing]] = rhs[packing]
    x = tableau[-1, m:-1].copy()
    value, bound = float(c @ x), float(y.sum())
    # The certificate is computed from A and c, not from the tableau.  x is
    # at most 1 at a vertex; each column's load scales with its own cost.
    if (x < -EPS_FEAS).any() or (a @ x < 1 - EPS_FEAS).any() \
            or (y < -EPS_FEAS).any() \
            or (a.T @ y > c + EPS_FEAS * np.maximum(1.0, c)).any() \
            or abs(bound - value) > EPS_FEAS * max(1.0, value):
        raise InvariantError(
            f"covering LP value {value:.9f} is not certified by its packing "
            f"dual (value {bound:.9f})")
    return SimplexResult(value, x, y)


def lp_to_text(lp):
    """Plain-text dump: `min c.x; a_i.x >= 1.0; x >= 0`, one row per line."""
    lines = ["min " + " ".join(repr(float(c)) for c in lp.objective)]
    for a in lp.matrix:
        lines.append(" ".join(repr(float(v)) for v in a) + " >= 1.0")
    lines.append("x >= 0")
    return "\n".join(lines) + "\n"


# -- max flow / min cut ----------------------------------------------------

def max_flow_min_cut(arc_list, source, sink):
    """Edmonds-Karp on an undirected capacitated graph.

    `arc_list` holds (u, v, capacity) undirected edges (parallel edges
    allowed).  Returns (flow value, frozenset of nodes on the source side
    of a minimum cut).  Deterministic given the arc order.
    """
    arcs = []                       # [to, residual]
    adjacency = {}
    for u, v, cap in arc_list:
        adjacency.setdefault(u, []).append(len(arcs))
        arcs.append([v, float(cap)])
        adjacency.setdefault(v, []).append(len(arcs))
        arcs.append([u, float(cap)])
    for node in (source, sink):     # an isolated end gives flow 0
        adjacency.setdefault(node, [])

    flow = 0.0
    while True:
        parent_arc = {source: None}
        queue = [source]
        qi = 0
        while qi < len(queue) and sink not in parent_arc:
            node = queue[qi]
            qi += 1
            for idx in adjacency[node]:
                to, residual = arcs[idx]
                if residual > 1e-12 and to not in parent_arc:
                    parent_arc[to] = idx
                    queue.append(to)
        if sink not in parent_arc:
            break
        push = float("inf")
        node = sink
        while node != source:
            idx = parent_arc[node]
            push = min(push, arcs[idx][1])
            node = arcs[idx ^ 1][0]
        node = sink
        while node != source:
            idx = parent_arc[node]
            arcs[idx][1] -= push
            arcs[idx ^ 1][1] += push
            node = arcs[idx ^ 1][0]
        flow += push

    reachable = {source}
    queue = [source]
    qi = 0
    while qi < len(queue):
        node = queue[qi]
        qi += 1
        for idx in adjacency[node]:
            to, residual = arcs[idx]
            if residual > 1e-12 and to not in reachable:
                reachable.add(to)
                queue.append(to)
    return flow, frozenset(reachable)


# -- separation oracle -------------------------------------------------------

@dataclass
class FractionalCover:
    """A fractional link-covering solution."""

    links: tuple
    values: np.ndarray
    objective: float = 0.0


@dataclass
class SeparationResult:
    violating: frozenset            # None when feasible
    cut_value: float


def separation_oracle(ctx, cover, scenario_index):
    """Find a violated failure set inside one input scenario, if any.

    Builds the capacitated graph on the solution nodes: kept solution
    edges get capacity 1 when they belong to the scenario and a large
    finite sentinel otherwise; every link contributes one edge with its
    fractional value.  A violated set exists iff the minimum cut (s-t cut
    for `st`, global cut for `mst`) stays strictly below level+1; the
    scenario edges crossing that cut form the violated set.
    """
    level = ctx.level
    full = ctx.instance.scenario_sets[scenario_index]
    values = np.asarray(cover.values, dtype=float)
    sentinel = level + 2.0 + float(values.sum())

    arc_list = []
    for e in sorted(ctx.kept_x):
        u, v, _ = ctx.edges[e]
        arc_list.append((u, v, 1.0 if e in full else sentinel))
    for link, val in zip(cover.links, values):
        arc_list.append((link.u, link.v, max(0.0, float(val))))

    if ctx.instance.problem == "st":
        value, side = max_flow_min_cut(arc_list, ctx.s, ctx.t)
    else:
        nodes = sorted(ctx.subgraph.nodes)
        anchor = nodes[0]
        value, side = float("inf"), None
        for other in nodes[1:]:
            v2, s2 = max_flow_min_cut(arc_list, anchor, other)
            if v2 < value - 1e-12:
                value, side = v2, s2

    if value >= level + 1 - EPS_FEAS:
        return SeparationResult(None, value)

    crossing = frozenset(
        e for e in full & ctx.kept_x
        if (ctx.edges[e][0] in side) != (ctx.edges[e][1] in side))
    if len(crossing) != level:
        raise InvariantError(
            f"separation cut crosses {len(crossing)} scenario edges at level "
            f"{level}; the previous solution was not feasible")
    if crossing not in ctx.omega:
        raise InvariantError(
            f"separated set {sorted(crossing)} is not among the enumerated "
            "relevant failure sets")
    return SeparationResult(crossing, value)


def solve_link_lp(ctx, links):
    """Solve the link-covering LP over typed links in one simplex call.

    One row per distinct covering set of omega (first occurrence kept, in
    omega order), no upper-bound rows: with nonnegative costs an optimum
    never needs x_i > 1, and the result is clipped to [0, 1].  `simplex_min`
    certifies the value and checks every row's mass; clipping leaves each
    row at least min(1, its mass), so every enumerated failure set stays
    covered.
    """
    links = tuple(links)
    costs = np.array([link.cost for link in links], dtype=float)
    if not ctx.omega:
        return FractionalCover(links, np.zeros(len(links)))
    if not links:
        raise InfeasibleError(
            "augmentation impossible: no candidate links at this level")

    table = ctx.covering(links)
    rows = {}
    for f_set in ctx.omega:
        if not table[f_set]:
            raise InfeasibleError(
                f"augmentation impossible: failure set {sorted(f_set)} has no "
                "covering link")
        rows.setdefault(table[f_set], None)
    x = np.clip(simplex_min(LinearProgram(costs, covering_matrix(rows, len(links)))).x,
                0.0, 1.0)
    return FractionalCover(links, x, float(costs @ x))
