import gc
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cutlab
import helpers
from cutlab.errors import Infeasible, SaveBurntVertex, SizeGuard
from cutlab.gadgets import (
    DictParamsE,
    DictParamsF,
    build_dict_edge,
    build_dict_rmfc,
    build_saks_gap,
    dictator_cut,
    harmonic,
)
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    LengthBound,
    Multicut,
    Rmfc,
    Schedule,
    WeightedGraph,
)
from cutlab.solvers import (
    brute_force_min_cut,
    exact_interdiction,
    exact_min_length_bounded_cut,
    exact_min_multicut,
    exact_rmfc_decision,
    length_bound_is_feasible,
    multicut_is_feasible,
    rmfc_simulate,
)


def single_path_instance():
    g = WeightedGraph()
    g.add_node("s")
    g.add_node("a", Fraction(3))
    g.add_node("t")
    g.add_edge("s", "a", directed=True)
    g.add_edge("a", "t", directed=True)
    return CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))


class TestExactMulticut:
    def test_single_path(self):
        sol = exact_min_multicut(single_path_instance())
        assert sol.cost == 3 and sol.elements == frozenset({"a"})

    def test_saks_2_2_equals_brute_force(self):
        # subset enumeration over the 2^4 grid subsets gives 3
        inst = build_saks_gap(2, 2)
        sol = exact_min_multicut(inst)
        oracle = brute_force_min_cut(inst)
        assert sol.cost == oracle.cost == 3

    def test_saks_3_2_reaches_grid_bound(self):
        sol = exact_min_multicut(build_saks_gap(3, 2))
        assert sol.cost >= 4
        assert sol.cost == 5  # frozen from subset brute force

    @pytest.mark.parametrize("r,k,floor", [(2, 2, 2), (3, 2, 4), (2, 3, 3)])
    def test_saks_family_meets_grid_lower_bound(self, r, k, floor):
        inst = build_saks_gap(r, k)
        sol = exact_min_multicut(inst)
        assert sol.cost >= floor
        assert sol.cost == brute_force_min_cut(inst).cost

    def test_infeasible_uncuttable_path(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("m")  # uncuttable interior
        g.add_node("t")
        g.add_edge("s", "m", directed=True)
        g.add_edge("m", "t", directed=True)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        with pytest.raises(Infeasible):
            exact_min_multicut(inst)

    def test_size_guard(self):
        inst = build_saks_gap(2, 2)
        with pytest.raises(SizeGuard):
            exact_min_multicut(inst, element_limit=2)

    def test_feasibility_certificate_survives_optimize_flag(self):
        # python -O strips asserts; the type guard, the min-cut and branch
        # certificates and the feasibility check must still raise. The child
        # imports the suite's cutlab
        child = "\n".join(
            [
                "from cutlab import graphs, solvers",
                "from cutlab.errors import CertificateFailed, WrongProblemType",
                "from cutlab.gadgets import DictParamsE, build_dict_edge, build_saks_gap",
                "assert False, 'asserts are on'",
                "def expect(error, call, *args):",
                "    try:",
                "        call(*args)",
                "    except error:",
                "        return",
                "    raise SystemExit(f'{call.__name__} did not raise {error.__name__}')",
                "saks = build_saks_gap(2, 2)",
                "edge = build_dict_edge(DictParamsE(2, 1, 2, 1))",
                "expect(WrongProblemType, solvers.exact_min_multicut, edge)",
                "max_flow = graphs._FlowNet.max_flow",
                "graphs._FlowNet.max_flow = lambda net, s, t: max_flow(net, s, t) + 1",
                "expect(CertificateFailed, graphs.min_st_cut, saks.graph, 's1', 't1', 'vertex')",
                "graphs._FlowNet.max_flow = max_flow",
                "no_cuttable = graphs.Path(('s1',), (), 0)",
                "solvers.find_violating_path = lambda inst, removed, bound: no_cuttable",
                "expect(CertificateFailed, solvers.exact_min_multicut, saks)",
                "solvers._branch_and_bound = lambda *args: (0, frozenset())",
                "expect(CertificateFailed, solvers.exact_min_multicut, saks)",
            ]
        )
        package_root = str(Path(cutlab.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", child],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr


class TestExactLengthBoundedCut:
    def test_unit_path_needs_one_edge(self):
        g = WeightedGraph()
        for v in ("s", "a", "b", "t"):
            g.add_node(v)
        g.add_edge("s", "a", directed=False, weight=Fraction(1))
        g.add_edge("a", "b", directed=False, weight=Fraction(1))
        g.add_edge("b", "t", directed=False, weight=Fraction(1))
        inst = CutInstance(
            graph=g, mode=EDGE, problem=LengthBound("s", "t", 4)
        )
        assert exact_min_length_bounded_cut(inst).cost == 1

    def test_dict_edge_cut_at_most_dictator(self):
        p = DictParamsE(4, 3, 2, 1)
        inst = build_dict_edge(p)
        dict_cut = dictator_cut("dict_edge", p, 0, inst)
        sol = exact_min_length_bounded_cut(inst, 8)
        assert sol.cost <= dict_cut.cost
        assert length_bound_is_feasible(inst, sol.elements, 8)

    def test_monotone_in_bound(self):
        rng = random.Random(23)
        for _ in range(10):
            inst = helpers.random_instance(rng, "length_bound", EDGE)
            prev = Fraction(0)
            for bound in (2, 3, 4, 5):
                cost = exact_min_length_bounded_cut(inst, bound).cost
                assert cost >= prev
                prev = cost


class TestRandomCrossChecks:
    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_multicut_equals_brute_force(self, mode):
        rng = random.Random(31)
        for trial in range(40):
            inst = helpers.random_instance(rng, "multicut", mode)
            sol = exact_min_multicut(inst)
            oracle = helpers.brute_force_min_feasible(
                inst, lambda els: multicut_is_feasible(inst, els)
            )
            assert sol.cost == oracle, f"trial {trial}"
            assert multicut_is_feasible(inst, sol.elements)

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_length_bound_equals_brute_force(self, mode):
        rng = random.Random(37)
        for trial in range(40):
            inst = helpers.random_instance(rng, "length_bound", mode)
            sol = exact_min_length_bounded_cut(inst)
            oracle = helpers.brute_force_min_feasible(
                inst, lambda els: length_bound_is_feasible(inst, els)
            )
            assert sol.cost == oracle, f"trial {trial}"
            assert length_bound_is_feasible(inst, sol.elements)


class TestInterdiction:
    def test_zero_budget_keeps_base_distance(self):
        rng = random.Random(41)
        for _ in range(10):
            inst = helpers.random_instance(rng, "length_bound", EDGE)
            from cutlab.graphs import shortest_path_length

            base = shortest_path_length(inst.graph, "S", "T")
            best, cut = exact_interdiction(inst, Fraction(0))
            assert cut.cost == 0
            assert best is not None and best >= base

    def test_two_disjoint_paths(self):
        # branches of lengths 2 and 5; removing the short middle node
        # forces the long way around
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        g.add_node("m", Fraction(1))
        g.add_edge("s", "m", directed=False)
        g.add_edge("m", "t", directed=False)
        prev = "s"
        for i in range(4):
            g.add_node(f"l{i}", Fraction(1))
            g.add_edge(prev, f"l{i}", directed=False)
            prev = f"l{i}"
        g.add_edge(prev, "t", directed=False)
        inst = CutInstance(graph=g, mode=VERTEX, problem=LengthBound("s", "t", 2))
        best, cut = exact_interdiction(inst, Fraction(1))
        assert best == 5 and cut.elements == frozenset({"m"})

    def test_matches_exhaustive_budgeted_search(self):
        rng = random.Random(43)
        for trial in range(25):
            inst = helpers.random_instance(
                rng, "length_bound", EDGE, n_nodes=4, extra_edges=2, max_cuttable=8
            )
            budget = Fraction(rng.randint(0, 6), rng.randint(1, 2))
            best, cut = exact_interdiction(inst, budget)
            assert cut.cost <= budget
            # oracle: max distance over all affordable subsets
            from cutlab.graphs import shortest_path_length

            oracle_best = None
            cuttable = inst.cuttable_elements()
            for mask in range(1 << len(cuttable)):
                subset = [cuttable[i] for i in range(len(cuttable)) if mask >> i & 1]
                cost = sum(
                    (inst.graph.element_weight(e) for e in subset), Fraction(0)
                )
                if cost > budget:
                    continue
                dist = shortest_path_length(inst.graph, "S", "T", subset)
                key = (1, 0) if dist is None else (0, dist)
                if oracle_best is None or key > oracle_best:
                    oracle_best = key
            expected = None if oracle_best[0] == 1 else oracle_best[1]
            assert best == expected, f"trial {trial}"

    def test_monotone_in_budget(self):
        rng = random.Random(47)
        inst = helpers.random_instance(rng, "length_bound", EDGE)
        prev = -1
        for budget in range(0, 8):
            best, _ = exact_interdiction(inst, Fraction(budget))
            cur = 10**9 if best is None else best
            assert cur >= prev
            prev = cur


def path_rmfc_instance():
    g = WeightedGraph()
    g.add_node("s")
    g.add_node("a", Fraction(1))
    g.add_node("t")
    g.add_edge("s", "a", directed=False)
    g.add_edge("a", "t", directed=False)
    return CutInstance(
        graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"}))
    )


class TestRmfcSimulate:
    def test_save_interior_node(self):
        inst = path_rmfc_instance()
        trace = rmfc_simulate(inst, Schedule((frozenset({"a"}),), (Fraction(1),)))
        assert not trace.target_burnt
        assert trace.saved == frozenset({"a"})

    def test_empty_schedule_burns_everything(self):
        inst = path_rmfc_instance()
        trace = rmfc_simulate(inst, Schedule((), ()))
        assert trace.target_burnt
        assert trace.burnt == frozenset({"s", "a", "t"})

    def test_save_burnt_vertex_rejected(self):
        inst = path_rmfc_instance()
        schedule = Schedule(
            (frozenset(), frozenset({"a"})), (Fraction(0), Fraction(1))
        )
        with pytest.raises(SaveBurntVertex):
            rmfc_simulate(inst, schedule)

    def test_harmonic_schedule_saves_target(self):
        p = DictParamsF(2, 1, Fraction(1, 100))
        inst = build_dict_rmfc(p)
        schedule = dictator_cut("dict_rmfc", p, 0)
        bound = 2 * p.eps + 1 / harmonic(2)
        trace = rmfc_simulate(inst, schedule, budget=bound)
        assert not trace.target_burnt


class TestRmfcDecision:
    def test_star_with_three_leaves(self):
        g = WeightedGraph()
        g.add_node("s")
        targets = []
        for i in range(3):
            v = f"t{i}"
            g.add_node(v, Fraction(1))
            g.add_edge("s", v, directed=False)
            targets.append(v)
        inst = CutInstance(
            graph=g, mode=VERTEX, problem=Rmfc("s", frozenset(targets))
        )
        savable, schedule = exact_rmfc_decision(inst, Fraction(3))
        assert savable and schedule.days[0] == frozenset(targets)
        savable, _ = exact_rmfc_decision(inst, Fraction(2))
        assert not savable

    def test_path_needs_unit_budget(self):
        g = WeightedGraph()
        for v in ("s", "a", "b", "t"):
            g.add_node(v, None if v in ("s", "t") else Fraction(1))
        g.add_edge("s", "a", directed=False)
        g.add_edge("a", "b", directed=False)
        g.add_edge("b", "t", directed=False)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"})))
        savable, schedule = exact_rmfc_decision(inst, Fraction(1))
        assert savable
        trace = rmfc_simulate(inst, schedule)
        assert not trace.target_burnt

    def test_matches_unmemoized_brute_force_on_random_trees(self):
        rng = random.Random(53)
        for trial in range(15):
            g = WeightedGraph()
            g.add_node("s")
            n = rng.randint(3, 5)
            nodes = []
            for i in range(n):
                v = f"v{i}"
                g.add_node(v, Fraction(rng.randint(1, 2)))
                parent = "s" if i == 0 else rng.choice(["s"] + nodes)
                g.add_edge(parent, v, directed=False)
                nodes.append(v)
            g.add_node("t", None)
            g.add_edge(rng.choice(nodes), "t", directed=False)
            inst = CutInstance(
                graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"}))
            )
            k = Fraction(rng.randint(1, 3))
            savable, schedule = exact_rmfc_decision(inst, k)
            oracle = brute_force_rmfc(inst, k)
            assert savable == oracle, f"trial {trial}"
            if savable:
                trace = rmfc_simulate(inst, schedule, budget=k)
                assert not trace.target_burnt



class TestNoReferenceCycles:
    """The searches keep their memo tables in plain locals, so the tables
    die with the call instead of waiting for the cycle collector."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: exact_min_multicut(build_saks_gap(3, 2)),
            lambda: exact_rmfc_decision(
                build_dict_rmfc(DictParamsF(2, 1, Fraction(1, 100))), Fraction(1, 2)
            ),
        ],
        ids=["exact_min_multicut", "exact_rmfc_decision"],
    )
    def test_call_leaves_no_cyclic_garbage(self, solve):
        solve()  # warm caches and lazy imports outside the measured call
        gc.collect()
        gc.disable()
        try:
            solve()
            assert gc.collect() == 0
        finally:
            gc.enable()

def brute_force_rmfc(inst, k, max_days=8):
    """Unmemoized exhaustive schedule search (independent oracle)."""
    g = inst.graph
    nbrs = {v: [nb for _, nb in g.out_arcs(v)] for v in g.nodes}
    targets = inst.problem.targets
    cuttable = sorted(v for v in g.nodes if g.node_weight(v) is not None)

    def rec(burnt, saved, depth):
        if any(t in burnt for t in targets):
            return False
        frontier = {
            nb for v in burnt for nb in nbrs[v] if nb not in burnt and nb not in saved
        }
        if not frontier:
            return True
        if depth >= max_days:
            return False
        options = [v for v in cuttable if v not in burnt and v not in saved]
        for mask in range(1 << len(options)):
            day = [options[i] for i in range(len(options)) if mask >> i & 1]
            if sum((g.node_weight(v) for v in day), Fraction(0)) > k:
                continue
            nsaved = saved | set(day)
            spread = {
                nb
                for v in burnt
                for nb in nbrs[v]
                if nb not in burnt and nb not in nsaved
            }
            if rec(burnt | spread, nsaved, depth + 1):
                return True
        return False

    return rec({inst.problem.source}, set(), 0)
