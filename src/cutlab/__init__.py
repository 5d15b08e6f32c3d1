"""Gadget laboratory for cut, interdiction, and fire-containment
instances: generators, exact solvers, LP relaxations with cutting planes,
and influence/correlation numerics."""

from .graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    CutSolution,
    GraphEdge,
    LengthBound,
    Multicut,
    Path,
    Rmfc,
    Schedule,
    WeightedGraph,
    constrained_min_weight_path,
    instance_from_json_str,
    instance_to_json_str,
    min_st_cut,
    min_weight_path,
    shortest_path_length,
)
from .probspace import (
    CorrelatedSpace,
    FiniteProbSpace,
    ProductFunction,
    efron_stein_influences,
    gamma_rho,
    product_mass,
)
from .gadgets import (
    DictParamsE,
    DictParamsF,
    DictParamsM,
    DictParamsV,
    build_dict_edge,
    build_dict_multicut,
    build_dict_rmfc,
    build_dict_vertex,
    build_saks_gap,
    declared_symmetries,
    dictator_cut,
)
from .solvers import (
    exact_interdiction,
    exact_min_length_bounded_cut,
    exact_min_multicut,
    exact_rmfc_decision,
    rmfc_simulate,
)
from .lp import GapReport, LPProblem, gap_report, multicut_lp, short_path_cover_lp, simplex_solve
from .approx import threshold_round_lbc, trivial_multicut
from .ug import (
    Labeling,
    UGEdge,
    UniqueGamesInstance,
    completeness_cut,
    compose,
    reachable_set_influences,
    synth_ug,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
