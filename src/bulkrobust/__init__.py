"""Bulk-robust network design on planar graphs.

A solver for minimum-cost s-t connection and spanning subgraphs that stay
connected when any one of a list of explicit failure scenarios removes its
edges, together with exact brute-force references, seeded instance
generators, and a benchmark harness that re-checks every per-level
guarantee at runtime.
"""

from .driver import augment_step, guarantee_factor, solution_dict, solve
from .errors import BudgetError, InfeasibleError, InstanceError, InvariantError
from .generators import (Hypergraph, gen_grid, gen_hypergraph_vc,
                         gen_series_parallel, parse_hypergraph,
                         random_hypergraph, reduce_hypergraph_vc,
                         serialize_hypergraph)
from .instance import (EmbeddedSubgraph, FaceSet, Instance, PlaneGraph,
                       parse_instance, serialize_instance)
from .links import (FailureCut, StepContext, TypedLink, covers,
                    enumerate_typed_links, failure_components,
                    preprocess_step)
from .lp import (FractionalCover, LinearProgram, SeparationResult,
                 max_flow_min_cut, separation_oracle, simplex_min,
                 solve_link_lp)
from .oracle import OracleBudget, brute_force_opt, brute_force_vc, is_feasible
from .rounding import (CircleInstance, RectangleSystem, ScenarioPartition,
                       build_circle_instance, chords_intersect,
                       chords_to_rectangles, cover_intervals_exact,
                       partition_scenarios, round_face)
from .setcover import exact_min_cover

__version__ = "0.1.0"

__all__ = [
    "augment_step", "guarantee_factor", "solution_dict", "solve",
    "BudgetError", "InfeasibleError", "InstanceError", "InvariantError",
    "Hypergraph", "gen_grid", "gen_hypergraph_vc", "gen_series_parallel",
    "parse_hypergraph", "random_hypergraph", "reduce_hypergraph_vc",
    "serialize_hypergraph",
    "EmbeddedSubgraph", "FaceSet", "Instance", "PlaneGraph",
    "parse_instance", "serialize_instance",
    "FailureCut", "StepContext", "TypedLink", "covers",
    "enumerate_typed_links", "failure_components", "preprocess_step",
    "FractionalCover", "LinearProgram", "SeparationResult",
    "max_flow_min_cut", "separation_oracle", "simplex_min", "solve_link_lp",
    "OracleBudget", "brute_force_opt", "brute_force_vc", "is_feasible",
    "CircleInstance", "RectangleSystem", "ScenarioPartition",
    "build_circle_instance", "chords_intersect", "chords_to_rectangles",
    "cover_intervals_exact", "partition_scenarios", "round_face",
    "exact_min_cover",
]
