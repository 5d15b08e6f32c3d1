"""Baseline approximation algorithms: per-pair cut union and threshold
rounding of the short-path covering LP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InfeasibleLpInput, require, require_problem
from .graphs import CutInstance, CutSolution, Element, LengthBound
from .lp import _has_cheap_walk
from .solvers import length_bound_is_feasible, per_pair_cut_union, solution_cost


def trivial_multicut(inst: CutInstance) -> CutSolution:
    """Union of per-pair minimum cuts; at most k times the optimum."""
    elements = per_pair_cut_union(inst)
    return CutSolution(elements, solution_cost(inst, elements))


def threshold_round_lbc(
    inst: CutInstance, lp_solution: Mapping[Element, Fraction]
) -> CutSolution:
    """Round a feasible fractional covering by keeping elements with
    value at least 1/(bound-1).

    Every covered path shorter than the bound has fewer than ``bound``
    cuttable elements, so some element on it clears the threshold; the
    cost is at most (bound-1) times the LP value.
    """
    require_problem(inst.problem, LengthBound)
    bound = inst.problem.bound
    if _has_cheap_walk(inst, lp_solution):
        raise InfeasibleLpInput("a short path has fractional mass below 1")
    if bound == 1:
        return CutSolution(frozenset(), Fraction(0))
    threshold = Fraction(1, bound - 1)
    elements = frozenset(
        el
        for el in inst.cuttable_elements()
        if lp_solution.get(el, Fraction(0)) >= threshold
    )
    require(
        length_bound_is_feasible(inst, elements),
        "threshold rounding left a path shorter than the bound",
    )
    return CutSolution(elements, solution_cost(inst, elements))
