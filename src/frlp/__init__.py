"""Solver toolkit for deviation and cyclic flow-refueling location problems.

Place charging stations on a network so that limited-range origin-destination
demands can complete repeatable trips: exact covering formulations, LP
relaxation bound analysis, a branch-and-cut solver with lazy separation, and
brute-force oracles for verification.
"""

from .covering import (AggregationOverflowError, ConstructionError,
                       CutSetFamily, WitnessUndefinedError, aggregate_cut_sets,
                       cut_sets_for_cycle, minimality_witness, minimalize)
from .feasibility import (CycleQuery, Label, corridor, find_traversable_path,
                          find_witness, is_served, search_cycle, shrink_cut)
from .generators import (gen_example, gen_prop5a, gen_prop5b, gen_random,
                         prop5b_analytic_family)
from .lp import (AGG, DISAGG, DemandRoutes, LinearProgram, LpSolution,
                 NumericalError, build_model, covering_lp, eval_v_agg,
                 eval_v_disagg, eval_v_tight, lp_bound, prepare_route_data,
                 solve_lp)
from .network import (CYCLIC, MAX_COVER, MIN_STATIONS, ORIGINAL, Demand,
                      Edge, Instance, Network, ParseError,
                      PlacementConstraints, UnknownNodeError, ValidationError,
                      build_instance, parse_instance, serialize_instance,
                      shortest_distance, trip_length, validate_instance)
from .oracle import OracleResult, OracleSizeError, brute_force_solve, exhaustive_served
from .routes import (EnumerationOverflowError, NoRouteError, Route,
                     enumerate_routes, is_traversable, make_route,
                     route_budget)
from .solver import (Solution, SolveRequest, SolveStats, UnservableError,
                     reevaluate, separate, solve)

__version__ = "0.1.0"
