"""Baseline approximation algorithms: per-pair cut union, the two-cut
bound for the bidirectional pair case, and threshold rounding of the
short-path covering LP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InfeasibleLpInput, require, require_problem
from .graphs import (
    CutInstance,
    CutSolution,
    Element,
    LengthBound,
    Multicut,
    min_st_cut,
)
from .lp import _dfs_has_cheap_path
from .solvers import (
    length_bound_is_feasible,
    multicut_is_feasible,
    solution_cost,
)


def trivial_multicut(inst: CutInstance) -> CutSolution:
    """Union of per-pair minimum cuts; at most k times the optimum."""
    require_problem(inst.problem, Multicut)
    elements: set[Element] = set()
    for s, t in inst.problem.pairs:
        _, cut = min_st_cut(inst.graph, s, t, inst.mode)
        elements |= cut
    require(
        multicut_is_feasible(inst, elements), "per-pair cut union leaves a pair connected"
    )
    return CutSolution(frozenset(elements), solution_cost(inst, elements))


def bicut_2approx(inst: CutInstance) -> CutSolution:
    """Union of the forward and backward minimum cuts for the two-pair
    instance {(s,t), (t,s)}; at most twice the optimum."""
    require_problem(inst.problem, Multicut)
    pairs = inst.problem.pairs
    if len(pairs) != 2 or pairs[0] != (pairs[1][1], pairs[1][0]):
        raise ValueError("bicut expects pairs ((s,t), (t,s))")
    return trivial_multicut(inst)


def threshold_round_lbc(
    inst: CutInstance,
    bound: int | None,
    lp_solution: Mapping[Element, Fraction],
) -> CutSolution:
    """Round a feasible fractional covering by keeping elements with
    value at least 1/(bound-1).

    Every covered path shorter than the bound has fewer than ``bound``
    cuttable elements, so some element on it clears the threshold; the
    cost is at most (bound-1) times the LP value.
    """
    require_problem(inst.problem, LengthBound)
    use = inst.problem.bound if bound is None else bound
    src, dst = inst.problem.source, inst.problem.sink
    if _dfs_has_cheap_path(inst, src, dst, lp_solution, use):
        raise InfeasibleLpInput("a short path has fractional mass below 1")
    if use == 1:
        return CutSolution(frozenset(), Fraction(0))
    threshold = Fraction(1, use - 1)
    elements = frozenset(
        el
        for el in inst.cuttable_elements()
        if lp_solution.get(el, Fraction(0)) >= threshold
    )
    require(
        length_bound_is_feasible(inst, elements, use),
        "threshold rounding left a path shorter than the bound",
    )
    return CutSolution(elements, solution_cost(inst, elements))
