"""Bulk-robust network design on planar graphs.

A solver for minimum-cost s-t connection and spanning subgraphs that stay
connected when any one of a list of explicit failure scenarios removes its
edges, together with exact brute-force references, seeded instance
generators, and a benchmark harness that re-checks every per-level
guarantee at runtime.

The package root holds the entry points the command line uses; the solver's
stages are imported from their own modules (`bulkrobust.links`,
`bulkrobust.lp`, `bulkrobust.rounding`, ...).
"""

from .driver import guarantee_factor, solution_dict, solve
from .errors import BudgetError, InfeasibleError, InstanceError, InvariantError
from .generators import gen_grid, gen_hypergraph_vc, gen_series_parallel, serialize_hypergraph
from .instance import Instance, parse_instance, serialize_instance
from .oracle import OracleBudget, brute_force_opt, is_feasible

__version__ = "0.1.0"

__all__ = [
    "solve", "solution_dict", "guarantee_factor",
    "Instance", "parse_instance", "serialize_instance",
    "is_feasible", "brute_force_opt", "OracleBudget",
    "gen_grid", "gen_series_parallel", "gen_hypergraph_vc", "serialize_hypergraph",
    "BudgetError", "InfeasibleError", "InstanceError", "InvariantError",
]
