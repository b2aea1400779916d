"""Correctness checks on the solver's serialized outputs.

They run after the timed phase, with tracing stopped, and re-derive
everything from the instance text and the solution JSON: feasibility
through `oracle.is_feasible`, the cost from the edge weights, the cost
bookkeeping across levels, and the `1 + 8k(k+1)` ratio wherever a
reference optimum exists.
"""

import json

from bulkrobust.driver import guarantee_factor
from bulkrobust.errors import BudgetError
from bulkrobust.instance import parse_instance
from bulkrobust.oracle import OracleBudget, brute_force_opt, brute_force_vc, is_feasible

# Caps the brute-force optimum on small instances at a few milliseconds each;
# an instance over budget gets no reference and skips the ratio check.
SMALL_REFERENCE_BUDGET = OracleBudget(max_edges=16, max_subsets=5000)


def reference_opt(case, inst):
    """OPT of the case, or None when it has no affordable reference."""
    if case.hypergraph is not None:
        # The reduction's optimum equals the hypergraph's minimum vertex cover.
        return brute_force_vc(case.hypergraph)[0]
    if case.reference:
        try:
            return brute_force_opt(inst, SMALL_REFERENCE_BUDGET)[0]
        except BudgetError:
            return None
    return None


def check_case(case, output):
    """Problems found in one solution; returns (problems, reference OPT)."""
    inst = parse_instance(case.text)
    sol = json.loads(output)
    chosen = frozenset(sol["chosen_edges"])
    if not chosen <= inst.edge_ids:
        return [f"unknown edge ids {sorted(chosen - inst.edge_ids)}"], None
    problems = []
    if not is_feasible(inst, chosen):
        problems.append("solution is not feasible")
    cost = inst.weight_of(chosen)
    trace = sol["trace"]
    if sol["cost"] != cost or trace["alg_cost"] != cost:
        problems.append(f"cost {sol['cost']} / alg_cost {trace['alg_cost']} "
                        f"!= edge weights {cost}")
    added = sum(level["added_cost"] for level in trace["levels"])
    if trace["alg_cost"] != trace["base_cost"] + added:
        problems.append(f"alg_cost {trace['alg_cost']} != base_cost "
                        f"{trace['base_cost']} + added {added}")
    opt = reference_opt(case, inst)
    if opt is not None:
        if cost < opt:
            problems.append(f"cost {cost} below the reference optimum {opt}")
        elif opt == 0 and cost != 0:
            problems.append(f"cost {cost} with a zero optimum")
        elif opt and cost > guarantee_factor(inst.k) * opt:
            problems.append(f"ratio {cost / opt:.3f} exceeds 1 + 8k(k+1) at k={inst.k}")
    return problems, opt
