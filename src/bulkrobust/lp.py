"""Small dense LP solving, max-flow separation oracles, and the link LP.

The covering LP has one row per relevant failure set.  `preprocess_step`
already enumerates them all, so the LP is solved once over the distinct
rows of the level's `StepContext.covering` table by a dense two-phase
simplex (Dantzig pivoting, Bland's rule after a stall), and its value is
certified by the duals read off the final tableau.  The tableau holds the
structural, surplus/slack and right-hand-side columns only; each pivot is
one whole-array update and each ratio test one vector division.  The min-cut
separation oracle is the paper's way to find violated rows when they are
not enumerated; here it stays as an independent check of the solution.
Everything is deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InfeasibleError, InvariantError

EPS_FEAS = 1e-6     # constraint satisfaction tolerance
EPS_LP = 1e-7       # objective tolerance
_PIVOT_EPS = 1e-9
_STALL_LIMIT = 30
_MAX_PIVOTS = 20000    # per simplex phase; past it the solve raises BudgetError


@dataclass
class LinearProgram:
    """minimize c.x subject to a.x >= b per row, x >= 0."""

    objective: np.ndarray
    rows: list                      # list of (coefficients, bound)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = [(np.asarray(a, dtype=float), float(b)) for a, b in self.rows]
        n = self.objective.shape[0]
        for a, b in self.rows:
            if a.shape != (n,):
                raise ValueError("constraint row has wrong width")
            if not (np.isfinite(a).all() and np.isfinite(b)):
                raise ValueError("non-finite LP entry")
        if not np.isfinite(self.objective).all():
            raise ValueError("non-finite objective entry")


@dataclass
class SimplexResult:
    status: str                     # "optimal" | "infeasible" | "unbounded"
    value: float = None
    x: np.ndarray = None
    duals: np.ndarray = None        # one per row, >= 0 at an optimum


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    # Factors of at most 1e-14 are zeroed, so those rows keep their values.
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    factors[np.abs(factors) <= 1e-14] = 0.0
    tableau -= np.multiply.outer(factors, tableau[row])
    basis[row] = col


def _run_simplex(tableau, basis):
    """Minimize the objective row in place; returns 'optimal' or 'unbounded',
    or raises BudgetError after `_MAX_PIVOTS` pivots.

    Entering columns are the structural and surplus/slack columns, all but
    the right-hand side; the tableau has no artificial columns, so an
    artificial variable cannot re-enter during phase 1.
    """
    stall = 0
    last = tableau[-1, -1]
    for _ in range(_MAX_PIVOTS):
        obj = tableau[-1, :-1]
        if stall < _STALL_LIMIT:
            col = int(obj.argmin())
            if obj[col] >= -_PIVOT_EPS:
                return "optimal"
        else:
            negatives = (obj < -_PIVOT_EPS).nonzero()[0]
            if negatives.size == 0:
                return "optimal"
            col = int(negatives[0])    # Bland's rule
        column = tableau[:-1, col]
        rows = (column > _PIVOT_EPS).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        if rows.size > 1:
            ratios = tableau[rows, -1] / column[rows]
            rows = rows[ratios == ratios.min()]
        # Among exact ties the row with the smallest basic index leaves.
        _pivot(tableau, basis, int(rows[basis[rows].argmin()]), col)
        now = tableau[-1, -1]
        stall = stall + 1 if now >= last - 1e-12 else 0
        last = now
    raise BudgetError("simplex", f"{_MAX_PIVOTS} pivots")


def simplex_min(lp):
    """Two-phase dense simplex for `min c.x, A x >= b, x >= 0`."""
    n = lp.objective.shape[0]
    m = len(lp.rows)
    if m == 0:
        return SimplexResult("optimal", 0.0, np.zeros(n), np.zeros(0))

    # Equality form with nonnegative right-hand sides: rows with b <= 0 get a
    # slack that starts basic; rows with b > 0 get a surplus and start with
    # an artificial variable basic.  No artificial column is ever read, so
    # the tableau has none: basis[r] = n + m + r marks an artificial row,
    # and orders artificials after every real column, by row.
    tableau = np.zeros((m + 1, n + m + 1))
    basis = np.arange(n, n + m)
    for r, (a, b) in enumerate(lp.rows):
        if b <= 0:
            tableau[r, :n] = -a
            tableau[r, n + r] = 1.0
            tableau[r, -1] = -b
        else:
            tableau[r, :n] = a
            tableau[r, n + r] = -1.0
            tableau[r, -1] = b
            basis[r] += m

    artificial = np.nonzero(basis >= n + m)[0]
    if artificial.size:
        for r in artificial:
            tableau[-1] -= tableau[r]
        if _run_simplex(tableau, basis) == "unbounded":
            raise InvariantError("phase-1 objective cannot be unbounded")
        if -tableau[-1, -1] > EPS_FEAS:
            return SimplexResult("infeasible")
        for r in range(m):
            if basis[r] >= n + m:
                pivots = np.nonzero(np.abs(tableau[r, :-1]) > _PIVOT_EPS)[0]
                if pivots.size:
                    _pivot(tableau, basis, r, int(pivots[0]))
                # else: redundant row, the artificial stays basic at zero

    tableau[-1, :] = 0.0
    tableau[-1, :n] = lp.objective
    for r in range(m):
        if basis[r] < n + m and abs(tableau[-1, basis[r]]) > 1e-14:
            tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    if _run_simplex(tableau, basis) == "unbounded":
        return SimplexResult("unbounded")
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[:-1, -1][structural]
    # The reduced cost of row r's surplus (or slack) column is that row's dual.
    return SimplexResult("optimal", float(lp.objective @ x), x,
                         tableau[-1, n:n + m].copy())


def lp_to_text(lp):
    """Plain-text dump: `min c.x; a_i.x >= b_i; x >= 0`, one row per line."""
    lines = ["min " + " ".join(repr(float(c)) for c in lp.objective)]
    for a, b in lp.rows:
        lines.append(" ".join(repr(float(v)) for v in a) + " >= " + repr(float(b)))
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
        u, v, _ = ctx.graph.edges[e]
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
        if (ctx.graph.edges[e][0] in side) != (ctx.graph.edges[e][1] in side))
    if len(crossing) != level:
        raise InvariantError(
            f"separation cut crosses {len(crossing)} scenario edges at level "
            f"{level}; the previous solution was not feasible")
    if crossing not in ctx.cuts:
        raise InvariantError(
            f"separated set {sorted(crossing)} is not among the enumerated "
            "relevant failure sets")
    return SeparationResult(crossing, value)


def solve_link_lp(ctx, links):
    """Solve the link-covering LP over typed links in one simplex call.

    One row per distinct covering set of omega (first occurrence kept, in
    omega order), no upper-bound rows: with nonnegative costs an optimum
    never needs x_i > 1, and the result is clipped to [0, 1].  The duals
    must certify the value, and every enumerated failure set is re-checked
    against the clipped solution.
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
    matrix = np.zeros((len(rows), len(links)))
    for r, row in enumerate(rows):
        matrix[r, list(row)] = 1.0
    result = simplex_min(LinearProgram(costs, [(a, 1.0) for a in matrix]))
    if result.status == "infeasible":
        raise InfeasibleError("augmentation impossible: covering LP infeasible")
    if result.status == "unbounded":
        raise InvariantError("covering LP cannot be unbounded")
    x = np.clip(result.x, 0.0, 1.0)
    objective = float(costs @ x)

    y = result.duals
    gap = abs(float(y.sum()) - objective)
    if (y < -EPS_FEAS).any() or (matrix.T @ y > costs + EPS_FEAS).any() \
            or gap > EPS_FEAS * max(1.0, objective):
        raise InvariantError(
            f"covering LP value {objective:.9f} is not certified by its duals "
            f"(dual value {float(y.sum()):.9f})")

    for f_set in ctx.omega:
        mass = float(sum(x[i] for i in table[f_set]))
        if mass < 1 - EPS_FEAS:
            raise InvariantError(
                f"final LP solution leaves failure set {sorted(f_set)} uncovered "
                f"(mass {mass:.9f})")
    return FractionalCover(links, x, objective)
