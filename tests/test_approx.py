import random
from fractions import Fraction

import pytest

import helpers
from cutlab.approx import threshold_round_lbc, trivial_multicut
from cutlab.errors import InfeasibleLpInput, UnknownNode
from cutlab.gadgets import DictParamsE, build_dict_edge, build_saks_gap
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    LengthBound,
    Multicut,
    WeightedGraph,
    min_st_cut,
    shortest_path_length,
)
from cutlab.lp import short_path_cover_lp
from cutlab.solvers import (
    exact_min_multicut,
    length_bound_is_feasible,
    multicut_is_feasible,
)


class TestTrivialMulticut:
    def test_single_pair_equals_min_cut(self):
        rng = random.Random(73)
        for _ in range(10):
            inst = helpers.random_instance(rng, "length_bound", VERTEX)
            as_multicut = CutInstance(
                graph=inst.graph, mode=VERTEX, problem=Multicut((("S", "T"),))
            )
            sol = trivial_multicut(as_multicut)
            value, _ = min_st_cut(inst.graph, "S", "T", VERTEX)
            assert sol.cost == value

    def test_saks_2_2_within_twice_optimum(self):
        inst = build_saks_gap(2, 2)
        sol = trivial_multicut(inst)
        assert multicut_is_feasible(inst, sol.elements)
        assert sol.cost <= 2 * exact_min_multicut(inst).cost

    def test_ratio_bound_on_random_suite(self):
        rng = random.Random(79)
        for trial in range(60):
            mode = VERTEX if rng.random() < 0.5 else EDGE
            inst = helpers.random_instance(rng, "multicut", mode)
            sol = trivial_multicut(inst)
            assert multicut_is_feasible(inst, sol.elements)
            k = len(inst.problem.pairs)
            opt = exact_min_multicut(inst).cost
            assert sol.cost <= k * opt, f"trial {trial}"


def bicut_instance(wt_forward, wt_backward):
    g = WeightedGraph()
    g.add_node("s")
    g.add_node("t")
    g.add_node("a", wt_forward)
    g.add_node("b", wt_backward)
    g.add_edge("s", "a", directed=True)
    g.add_edge("a", "t", directed=True)
    g.add_edge("t", "b", directed=True)
    g.add_edge("b", "s", directed=True)
    return CutInstance(
        graph=g, mode=VERTEX, problem=Multicut((("s", "t"), ("t", "s")))
    )


class TestBicut:
    def test_symmetric_gadget_is_exact(self):
        inst = bicut_instance(Fraction(2), Fraction(3))
        sol = trivial_multicut(inst)
        assert sol.cost == 5
        assert sol.cost == exact_min_multicut(inst).cost

    def test_directed_cycle_ratio(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        cycle = ["x0", "x1", "t", "x2", "x3"]
        for v in ("x0", "x1", "x2", "x3"):
            g.add_node(v, Fraction(1))
        prev = "s"
        for v in cycle + ["s"]:
            g.add_edge(prev, v, directed=True)
            prev = v
        inst = CutInstance(
            graph=g, mode=VERTEX, problem=Multicut((("s", "t"), ("t", "s")))
        )
        sol = trivial_multicut(inst)
        assert multicut_is_feasible(inst, sol.elements)
        assert sol.cost <= 2 * exact_min_multicut(inst).cost

    def test_grid_reinterpreted_as_bicut(self):
        grid = build_saks_gap(2, 2)
        inst = CutInstance(
            graph=grid.graph,
            mode=VERTEX,
            problem=Multicut((("s1", "t1"), ("t1", "s1"))),
        )
        sol = trivial_multicut(inst)
        assert multicut_is_feasible(inst, sol.elements)
        assert sol.cost <= 2 * exact_min_multicut(inst).cost


class TestThresholdRounding:
    def test_single_path_rounds_one_edge(self):
        g = WeightedGraph()
        for v in ("s", "a", "b", "t"):
            g.add_node(v)
        g.add_edge("s", "a", directed=False, weight=Fraction(1))
        g.add_edge("a", "b", directed=False, weight=Fraction(1))
        g.add_edge("b", "t", directed=False, weight=Fraction(1))
        inst = CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 4))
        value, sol = short_path_cover_lp(inst)
        rounded = threshold_round_lbc(inst, sol)
        assert rounded.cost == value == 1

    def test_dict_edge_rounding(self):
        inst = helpers.with_bound(build_dict_edge(DictParamsE(4, 3, 2, 1)), 8)
        value, sol = short_path_cover_lp(inst)
        rounded = threshold_round_lbc(inst, sol)
        assert rounded.cost <= 7 * value
        assert length_bound_is_feasible(inst, rounded.elements)

    def test_infeasible_input_rejected(self):
        g = WeightedGraph()
        for v in ("s", "a", "t"):
            g.add_node(v)
        g.add_edge("s", "a", directed=False, weight=Fraction(1))
        g.add_edge("a", "t", directed=False, weight=Fraction(1))
        inst = CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 3))
        with pytest.raises(InfeasibleLpInput):
            threshold_round_lbc(inst, {0: Fraction(1, 4), 1: Fraction(1, 4)})

    @pytest.mark.parametrize(
        "solution, error",
        [
            ({0: 0.25, 1: 1}, ValueError),
            ({0: Fraction(-1), 1: 1}, ValueError),
            ({7: Fraction(1)}, UnknownNode),
        ],
        ids=["float", "negative", "unknown-edge"],
    )
    def test_malformed_solution_rejected(self, solution, error):
        # the recheck search validates the solution like the LP's oracles
        g = WeightedGraph()
        for v in ("s", "a", "t"):
            g.add_node(v)
        g.add_edge("s", "a", directed=False, weight=Fraction(1))
        g.add_edge("a", "t", directed=False, weight=Fraction(1))
        inst = CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 3))
        with pytest.raises(error):
            threshold_round_lbc(inst, solution)

    def test_ratio_bound_on_random_suite(self):
        rng = random.Random(83)
        for trial in range(40):
            mode = VERTEX if rng.random() < 0.5 else EDGE
            inst = helpers.random_instance(rng, "length_bound", mode)
            bound = inst.problem.bound
            value, sol = short_path_cover_lp(inst)
            rounded = threshold_round_lbc(inst, sol)
            assert length_bound_is_feasible(inst, rounded.elements)
            assert rounded.cost <= (bound - 1) * value, f"trial {trial}"
            post = shortest_path_length(inst.graph, "S", "T", rounded.elements)
            assert post is None or post >= bound
