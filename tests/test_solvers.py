import gc
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cutlab
import helpers
from helpers import brute_force_min_cut
from cutlab import gadgets, solvers
from cutlab.errors import CertificateFailed, Infeasible, SaveBurntVertex, SizeGuard
from cutlab.gadgets import (
    DictParamsE,
    DictParamsF,
    build_dict_edge,
    build_dict_rmfc,
    build_saks_gap,
    declared_symmetries,
    dictator_cut,
    harmonic,
)
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    CutSolution,
    LengthBound,
    Multicut,
    Rmfc,
    Schedule,
    WeightedGraph,
    shortest_path_length,
)
from cutlab.solvers import (
    exact_interdiction,
    exact_min_length_bounded_cut,
    exact_min_multicut,
    exact_rmfc_decision,
    length_bound_is_feasible,
    multicut_is_feasible,
    rmfc_simulate,
    solution_cost,
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

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(solvers, "BB_ELEMENT_LIMIT", 2)
        inst = build_saks_gap(2, 2)
        with pytest.raises(SizeGuard):
            exact_min_multicut(inst)

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
                "solvers.find_violating_path = lambda search: []",
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
        bound8 = helpers.with_bound(inst, 8)
        sol = exact_min_length_bounded_cut(bound8)
        assert sol.cost <= dict_cut.cost
        assert length_bound_is_feasible(bound8, sol.elements)

    def test_one_search_per_solve(self, monkeypatch):
        # the infeasibility check and the branch and bound index the
        # instance once, so interdiction indexes it once per round: from
        # distance 5 it solves at bounds 6, 9 and 12 (twice each before)
        built = []
        index = solvers.PathSearch.__init__

        def counted(search, inst):
            built.append(inst.problem.bound)
            index(search, inst)

        monkeypatch.setattr(solvers.PathSearch, "__init__", counted)
        inst = build_dict_edge(DictParamsE(4, 3, 2, 1))
        assert exact_min_length_bounded_cut(inst).cost == 1
        assert built == [inst.problem.bound]
        built.clear()
        assert exact_interdiction(inst, Fraction(15, 8))[0] == 11
        assert built == [6, 9, 12]

    def test_monotone_in_bound(self):
        rng = random.Random(23)
        for _ in range(10):
            inst = helpers.random_instance(rng, "length_bound", EDGE)
            prev = Fraction(0)
            for bound in (2, 3, 4, 5):
                cost = exact_min_length_bounded_cut(helpers.with_bound(inst, bound)).cost
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


@pytest.fixture
def forbidden_probe(monkeypatch):
    """Wraps the branch and bound's oracle and counts the violated paths
    that carry a forbidden element ("some") and those whose cuttable
    elements are all forbidden ("all"), which prune their node."""
    counts = {"some": 0, "all": 0}
    live = []
    init = solvers._ExclusionBranching.__init__
    oracle = solvers.find_violating_path

    def record(bb, *args):
        init(bb, *args)
        live[:] = [bb]

    def probe(search):
        path = oracle(search)
        if path is not None:
            flags = [live[0].forbidden[el] for el in path]
            counts["some"] += any(flags)
            counts["all"] += all(flags)
        return path

    monkeypatch.setattr(solvers._ExclusionBranching, "__init__", record)
    monkeypatch.setattr(solvers, "find_violating_path", probe)
    return counts


class TestExclusionBranching:
    def test_grid_instances_equal_brute_force(self, forbidden_probe):
        rng = random.Random(1)
        for kind, solve in [
            ("multicut", exact_min_multicut),
            ("length_bound", exact_min_length_bounded_cut),
        ]:
            is_feasible = multicut_is_feasible if kind == "multicut" else length_bound_is_feasible
            # 15 cells, or 2 x 5 + 1 x 6 = 16 side links
            for mode, rows, cols in [(VERTEX, 3, 5), (EDGE, 2, 6)]:
                for trial in range(6):
                    inst = helpers.random_grid_instance(rng, kind, mode, rows, cols)
                    assert len(inst.cuttable_elements()) in (15, 16)
                    if not is_feasible(inst, inst.cuttable_elements()):
                        # removing more never makes a cut infeasible, so no
                        # subset is feasible either
                        with pytest.raises(Infeasible):
                            solve(inst)
                        continue
                    oracle = brute_force_min_cut(inst)
                    sol = solve(inst)
                    assert sol.cost == oracle.cost, (kind, mode, trial)
                    assert solution_cost(inst, sol.elements) == sol.cost
                    assert is_feasible(inst, sol.elements), (kind, mode, trial)
        assert forbidden_probe["some"] > 0

    def test_brute_force_checks_the_full_set_first(self, monkeypatch):
        # s-m-t with m uncuttable, beside 12 cuttable nodes: one feasibility
        # check of the whole cuttable set settles it, not 2^12
        g = WeightedGraph()
        for v in ("s", "m", "t"):
            g.add_node(v)
        g.add_edge("s", "m", directed=True)
        g.add_edge("m", "t", directed=True)
        for i in range(12):
            g.add_node(f"c{i}", Fraction(1))
            g.add_edge("s", f"c{i}", directed=True)
            g.add_edge(f"c{i}", "t", directed=True)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        calls = []
        real = solvers.multicut_is_feasible
        monkeypatch.setattr(
            solvers, "multicut_is_feasible", lambda *args: calls.append(args) or real(*args)
        )
        with pytest.raises(Infeasible, match="no cuttable subset is feasible"):
            brute_force_min_cut(inst)
        assert len(calls) == 1

    def test_brute_force_size_guard(self):
        inst = build_saks_gap(5, 2)
        assert len(inst.cuttable_elements()) == 25 > helpers.BRUTE_ELEMENT_LIMIT
        with pytest.raises(SizeGuard, match=r"25 cuttable elements \(cap 22\)"):
            brute_force_min_cut(inst)

    def test_path_of_forbidden_elements_prunes(self, forbidden_probe):
        # the root path s-a-b-t branches into "cut a" and "cut b, forbid a".
        # The root's bound family adds s-c-d-u4-t, so each child inherits 1.
        # The first child needs b for s-u3-b-t and c for s-c-d-u4-t, so it
        # reaches {a, b, c} at 4; the second, at 2 + 1 < 4, meets
        # s-a-u1-u2-t, whose only cuttable element a is forbidden, and
        # stops there
        g = WeightedGraph()
        for v, w in [("s", None), ("t", None), ("a", 1), ("b", 2), ("c", 1), ("d", 10)]:
            g.add_node(v, None if w is None else Fraction(w))
        for v in ("u1", "u2", "u3", "u4"):
            g.add_node(v)
        for a, b in [("s", "a"), ("s", "u3"), ("s", "c"), ("a", "b"), ("b", "t"),
                     ("a", "u1"), ("u1", "u2"), ("u2", "t"), ("u3", "b"), ("c", "d"),
                     ("d", "u4"), ("u4", "t")]:
            g.add_edge(a, b, directed=False)
        inst = CutInstance(graph=g, mode=VERTEX, problem=LengthBound("s", "t", 10))
        sol = exact_min_length_bounded_cut(inst)
        assert sol.elements == frozenset({"a", "b", "c"}) and sol.cost == 4
        assert brute_force_min_cut(inst) == sol
        assert forbidden_probe["all"] == 1


class TestMinHop:
    def test_hop_limit(self):
        search = solvers.PathSearch(build_saks_gap(3, 2))
        for s, t in search.pairs:
            path = search.min_hop(s, t)
            assert search.min_hop(s, t, len(path[1])) == path
            assert search.min_hop(s, t, len(path[1]) - 1) is None
        s, _ = search.pairs[0]
        assert search.min_hop(s, s, 0) == ([s], [])
        assert search.min_hop(s, s, -1) is None

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_node_loop_matches_layered_loop(self, mode):
        # the multicut loop keyed by node against the (node, length) loop at
        # width 1, which length-bound searches use
        rng = random.Random(7)
        instances = [helpers.random_grid_instance(rng, "multicut", mode) for _ in range(10)]
        if mode == VERTEX:
            instances += [build_saks_gap(4, 2), build_saks_gap(3, 3)]
        for inst in instances:
            search = solvers.PathSearch(inst)
            assert search.width == 1
            for _ in range(20):
                for el, w in enumerate(search.weights):
                    search.removed[el] = w is not None and rng.random() < 0.3
                for s, t in search.pairs:
                    for hops in (None, 0, 1, 2, 3, 5):
                        want = search._layered_min_hop(s, t, hops)
                        assert search._node_min_hop(s, t, hops) == want

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_layered_loop_matches_unpruned_reference(self, mode):
        # skipping the (node, length) states whose node was entered before
        # at no greater length returns the unpruned loop's path, edge for
        # edge; grids have lengths 1-2, the sparser instances 1-3
        rng = random.Random(11)
        instances = [helpers.random_grid_instance(rng, "length_bound", mode) for _ in range(8)]
        instances += [
            helpers.random_instance(rng, "length_bound", mode, n_nodes=8, extra_edges=8)
            for _ in range(8)
        ]
        for inst in instances:
            g, problem = inst.graph, inst.problem
            for width in (problem.bound, problem.bound + 3):
                search = solvers.PathSearch(helpers.with_bound(inst, width))
                [(s, t)] = search.pairs
                for _ in range(10):
                    for el, w in enumerate(search.weights):
                        search.removed[el] = w is not None and rng.random() < 0.3
                    removed = {search.element(el) for el, out in enumerate(search.removed) if out}
                    for hops in (None, 0, 1, 2, 3, 5):
                        want = helpers.reference_layered_min_hop(
                            g, inst.mode, removed, problem.source, problem.sink, width, hops
                        )
                        got = search._layered_min_hop(s, t, hops)
                        if want is None:
                            assert got is None
                        else:
                            nodes, edges = got
                            assert [search.names[v] for v in nodes] == list(want.nodes)
                            assert edges == list(want.edges)

    def test_violating_path_is_first_fewest_hop_pair(self):
        # the earliest pair among those with the fewest hops, each pair
        # searched without a limit
        rng = random.Random(5)
        for trial in range(20):
            inst = helpers.random_grid_instance(rng, "multicut", VERTEX, cols=4)
            search = solvers.PathSearch(inst)
            for el, w in enumerate(search.weights):
                search.removed[el] = w is not None and rng.random() < 0.3
            found = [p for p in (search.min_hop(s, t) for s, t in search.pairs) if p]
            want = min(found, key=lambda p: len(p[1]), default=None)
            if want is not None:
                # vertex mode: the path's cuttable nodes, node for node
                want = [v for v in want[0] if search.weights[v] is not None]
            assert solvers.find_violating_path(search) == want, trial


# calls to find_violating_path with the declared symmetries. Without them
# the search makes 5,043 on saks r=5 k=2, 69,772 on r=6 k=2 and 19,177 on
# r=3 k=3 (23,547 and 83,009 on the first two before exclusion branching)
SAKS_ORACLE_CAPS = {(5, 2): 1427, (6, 2): 14753, (3, 3): 2856}


@pytest.mark.parametrize(
    "r,k", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3)]
)
def test_saks_optimum_closed_form(r, k, monkeypatch):
    calls = [0]
    oracle = solvers.find_violating_path

    def counted(search):
        calls[0] += 1
        return oracle(search)

    monkeypatch.setattr(solvers, "find_violating_path", counted)
    inst = build_saks_gap(r, k)
    assert exact_min_multicut(inst, declared_symmetries(inst)).cost == r**k - (r - 1) ** k
    assert calls[0] <= SAKS_ORACLE_CAPS.get((r, k), calls[0])


def doubled(inst):
    """Two disjoint copies of ``inst`` with the pairs of both, and the
    swap of the copies as a map of cuttable elements."""
    g, h = inst.graph, WeightedGraph()
    for side in "ab":
        for v in g.nodes:
            h.add_node(f"{side}:{v}", g.node_weight(v))
    for side in "ab":
        h.add_edges(
            (f"{side}:{e.tail}", f"{side}:{e.head}", e.directed, e.length, e.weight)
            for e in g.edges
        )
    pairs = tuple((f"{side}:{s}", f"{side}:{t}") for side in "ab" for s, t in inst.problem.pairs)
    twin = CutInstance(graph=h, mode=inst.mode, problem=Multicut(pairs))
    if inst.mode == VERTEX:
        swap = {f"{a}:{v}": f"{b}:{v}" for a, b in ("ab", "ba") for v in inst.cuttable_elements()}
    else:
        m = len(g.edges)
        swap = {el + m * a: el + m * (1 - a) for a in (0, 1) for el in inst.cuttable_elements()}
    return twin, swap


def reweighted_saks(r, k, rng, mode):
    """Saks r, k with a random weight per orbit of the declared group (a
    node's orbit is fixed by the sorted distances of its coordinates from
    the grid's edge), and that group on its cuttable elements. In edge mode
    each grid node v becomes v/in -> v/out, a cuttable edge."""
    saks = build_saks_gap(r, k)
    group = list(declared_symmetries(saks))
    g, h = saks.graph, WeightedGraph()
    orbit_weight = {}

    def weight(v):
        alpha = gadgets.parse_point(v[1:])
        key = tuple(sorted(min(a, r + 1 - a) for a in alpha))
        return orbit_weight.setdefault(key, Fraction(rng.randint(1, 4), rng.randint(1, 3)))

    grid = [v for v in g.nodes if g.node_weight(v) is not None]
    if mode == VERTEX:
        for v in g.nodes:
            h.add_node(v, weight(v) if v in grid else None)
        h.add_edges(g.edges)
        return CutInstance(graph=h, mode=VERTEX, problem=saks.problem), group
    for v in g.nodes:
        for end in ("/in", "/out") if v in grid else ("",):
            h.add_node(v + end)
    edge = {v: h.add_edge(v + "/in", v + "/out", directed=True, weight=weight(v)) for v in grid}
    h.add_edges(
        (e.tail + ("/out" if e.tail in edge else ""), e.head + ("/in" if e.head in edge else ""),
         True, 1, None)
        for e in g.edges
    )
    inst = CutInstance(graph=h, mode=EDGE, problem=saks.problem)
    return inst, [{edge[a]: edge[b] for a, b in perm.items()} for perm in group]


class TestSymmetryPruning:
    @staticmethod
    def subsets(inst, rng, count):
        """Every cuttable subset, or ``count`` random ones when there are
        more than 2^9."""
        cuttable = inst.cuttable_elements()
        if len(cuttable) <= 9:
            return [
                frozenset(el for i, el in enumerate(cuttable) if mask >> i & 1)
                for mask in range(1 << len(cuttable))
            ]
        return [frozenset(el for el in cuttable if rng.random() < 0.5) for _ in range(count)]

    @pytest.mark.parametrize(
        "r,k,order", [(2, 2, 8), (3, 2, 8), (2, 3, 48), (4, 2, 8), (5, 2, 8), (3, 3, 48)]
    )
    def test_saks_symmetries_keep_weight_and_feasibility(self, r, k, order):
        inst = build_saks_gap(r, k)
        group = list(declared_symmetries(inst))
        assert len(group) == order - 1
        cuttable = set(inst.cuttable_elements())
        weight = inst.graph.node_weight
        feasible = {}
        for cut in self.subsets(inst, random.Random(r * 10 + k), 100):
            feasible[cut] = multicut_is_feasible(inst, cut)
        for g in group:
            assert set(g) == cuttable == set(g.values())
            assert all(weight(a) == weight(b) for a, b in g.items())
            for cut, ok in feasible.items():
                image = frozenset(g[el] for el in cut)
                want = feasible[image] if image in feasible else multicut_is_feasible(inst, image)
                assert want == ok, (g, sorted(cut))

    @pytest.mark.parametrize(
        "r,k", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (2, 5)]
    )
    def test_saks_answer_unchanged_by_pruning(self, r, k):
        inst = build_saks_gap(r, k)
        group = list(declared_symmetries(inst))
        plain = exact_min_multicut(inst)
        assert exact_min_multicut(inst, group) == plain
        # any subset of the declared maps is sound on its own
        some = random.Random(r + k).sample(group, len(group) // 2)
        assert exact_min_multicut(inst, some) == plain

    @pytest.fixture
    def skips(self, monkeypatch):
        """Counts the nodes the skip rule prunes."""
        skipped = [0]
        covered = solvers._ExclusionBranching._covered

        def counted(bb, *args):
            found = covered(bb, *args)
            skipped[0] += found
            return found

        monkeypatch.setattr(solvers._ExclusionBranching, "_covered", counted)
        return skipped

    # (r, k): skip-rule tests, skips and path-oracle calls of the search
    # with the declared group, as first recorded
    SKIP_COUNTS = {
        (5, 2): (610, 88, 1427),
        (6, 2): (5569, 508, 14753),
        (2, 3): (12, 5, 25),
        (3, 3): (721, 140, 2856),
        (2, 4): (28, 9, 116),
        (2, 5): (60, 14, 549),
    }

    @pytest.mark.parametrize("r,k", sorted(SKIP_COUNTS))
    def test_skip_decisions_frozen(self, r, k, monkeypatch):
        counts = [0, 0, 0]
        covered, oracle = solvers._ExclusionBranching._covered, solvers.find_violating_path

        def counted(bb, *args):
            found = covered(bb, *args)
            counts[0] += 1
            counts[1] += found
            return found

        def counted_oracle(search):
            counts[2] += 1
            return oracle(search)

        monkeypatch.setattr(solvers._ExclusionBranching, "_covered", counted)
        monkeypatch.setattr(solvers, "find_violating_path", counted_oracle)
        inst = build_saks_gap(r, k)
        sol = exact_min_multicut(inst, declared_symmetries(inst))
        assert sol.cost == r**k - (r - 1) ** k
        assert tuple(counts) == self.SKIP_COUNTS[(r, k)]

    def test_swapped_copies_answer_unchanged(self, skips):
        # random grids with random weights, and the swap of two copies
        rng = random.Random(3)
        for trial in range(8):
            twin, swap = doubled(helpers.random_grid_instance(rng, "multicut", VERTEX, 3, 3))
            assert exact_min_multicut(twin, [swap]) == exact_min_multicut(twin), trial
        assert skips[0] > 0

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_reweighted_saks_answer_unchanged(self, mode, skips):
        # weights constant on the group's orbits, and in edge mode each grid
        # node split into an in-node, a cuttable edge and an out-node
        rng = random.Random(0)
        for r, k, weightings in [(3, 2, 6), (4, 2, 4), (2, 3, 6), (3, 3, 1)]:
            for _ in range(weightings):
                inst, group = reweighted_saks(r, k, rng, mode)
                plain = exact_min_multicut(inst)
                assert exact_min_multicut(inst, group) == plain, (r, k)
                if len(inst.cuttable_elements()) <= 9:
                    assert plain.cost == brute_force_min_cut(inst).cost
        assert skips[0] > 0

    def test_symmetry_must_keep_weights(self):
        inst = build_saks_gap(2, 2)
        g = inst.graph
        heavy = WeightedGraph()
        for v in g.nodes:
            heavy.add_node(v, Fraction(2) if v == "v[1,1]" else g.node_weight(v))
        heavy.add_edges(g.edges)
        other = CutInstance(graph=heavy, mode=VERTEX, problem=inst.problem)
        with pytest.raises(CertificateFailed, match="keep their weights"):
            exact_min_multicut(other, declared_symmetries(inst))

    @pytest.mark.parametrize("tail, head", [("v[3,1]", "t1"), ("v[2,2]", "v[2,3]")])
    def test_tampered_saks_gets_no_group(self, tail, head):
        # drop one arc and keep the provenance
        inst = build_saks_gap(3, 2)
        g, cut = inst.graph, WeightedGraph()
        for v in g.nodes:
            cut.add_node(v, g.node_weight(v))
        cut.add_edges(e for e in g.edges if (e.tail, e.head) != (tail, head))
        assert len(cut.edges) == len(g.edges) - 1
        tampered = CutInstance(
            graph=cut, mode=VERTEX, problem=inst.problem, provenance=inst.provenance
        )
        assert list(declared_symmetries(inst)) and list(declared_symmetries(tampered)) == []
        sol = exact_min_multicut(tampered, declared_symmetries(tampered))
        assert sol.cost == brute_force_min_cut(tampered).cost
        assert multicut_is_feasible(tampered, sol.elements)
        if tail == "v[3,1]":
            # the untampered group would prune the optimum away
            assert sol.cost == 4
            assert exact_min_multicut(tampered, declared_symmetries(inst)).cost == 5

    @pytest.mark.parametrize(
        "provenance",
        [
            None,
            {"generator": "saks", "params": {"r": 2, "k": 2}},
            {"generator": "saks", "params": {"r": 3}},
            {"generator": "saks", "params": {"r": 3, "k": 2, "R": 1}},
            {"generator": "saks", "params": {"r": 1, "k": 2}},
            # refused before r**k is computed
            {"generator": "saks", "params": {"r": 3, "k": 10**12}},
            {"generator": "dict_multicut", "params": {"r": 3, "k": 2}},
            # a generator that is no string names no family
            {"generator": ["saks"], "params": {"r": 3, "k": 2}},
        ],
    )
    def test_group_needs_matching_provenance(self, provenance):
        inst = build_saks_gap(3, 2)
        inst.provenance = provenance
        assert list(declared_symmetries(inst)) == []

    def test_group_is_built_after_the_size_guard(self, monkeypatch):
        # saks r=2 k=6 has 64 cuttable nodes (cap 40) and a group of order
        # 46,080; neither it nor the fresh build may be made for a refusal
        builds = [0]
        build = gadgets.build_saks_gap

        def counted(*args, **kwargs):
            builds[0] += 1
            return build(*args, **kwargs)

        inst = build_saks_gap(2, 6)
        monkeypatch.setattr(gadgets, "build_saks_gap", counted)
        with pytest.raises(SizeGuard, match="64 cuttable elements"):
            exact_min_multicut(inst, declared_symmetries(inst))
        assert builds[0] == 0

    def test_larger_claimed_build_is_never_made(self, monkeypatch):
        # the provenance claims r=400 k=2, 160,000 cuttable nodes against
        # the file's 9: the counts differ, so no fresh build is made
        def unbuilt(*args, **kwargs):
            raise AssertionError("a fresh instance was built")

        inst = build_saks_gap(3, 2)
        inst.provenance = {"generator": "saks", "params": {"r": 400, "k": 2}}
        monkeypatch.setattr(gadgets, "build_saks_gap", unbuilt)
        assert list(declared_symmetries(inst)) == []


class TestInterdiction:
    def test_each_round_gets_its_bound_on_the_shared_graph(self, monkeypatch):
        # one instance per round, at one more than the distance so far,
        # on the caller's graph object (so on one index); the caller's own
        # bound is left as it was
        rounds = []
        solve = solvers.exact_min_length_bounded_cut

        def spy(inst, **kwargs):
            rounds.append(inst)
            return solve(inst, **kwargs)

        monkeypatch.setattr(solvers, "exact_min_length_bounded_cut", spy)
        inst = build_dict_edge(DictParamsE(4, 3, 2, 1))
        assert exact_interdiction(inst, Fraction(15, 8))[0] == 11
        assert [r.problem.bound for r in rounds] == [6, 9, 12]
        for r in rounds:
            assert r.graph is inst.graph
            assert (r.mode, r.problem.source, r.problem.sink) == (EDGE, "s", "t")
        assert inst.problem.bound == 8

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

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_budget_cap_keeps_the_answer(self, mode):
        # a capped solve returns the uncapped cut, elements included, when
        # the optimum is within the budget and None when it is over; the
        # budgets sit one unit (1/scale) either side of the optimum, at it,
        # and at or above the cost W of every cuttable element. Each bound
        # is above the uncut distance, so every optimum is at least a unit
        rng = random.Random(53)
        over = 0
        for trial in range(20):
            inst = helpers.random_instance(rng, "length_bound", mode)
            cuttable = inst.cuttable_elements()
            weights = [inst.graph.element_weight(el) for el in cuttable]
            unit = Fraction(1, math.lcm(*(w.denominator for w in weights)))
            total = sum(weights, Fraction(0))
            base = shortest_path_length(inst.graph, "S", "T")
            for bound in (base + 1, base + 2, base + 4):
                bounded = helpers.with_bound(inst, bound)
                sol = exact_min_length_bounded_cut(bounded)
                for budget in (sol.cost - unit, sol.cost, sol.cost + unit, total, total + 1):
                    capped = exact_min_length_bounded_cut(bounded, budget=budget)
                    if sol.cost > budget:
                        assert capped is None, f"trial {trial}"
                        over += 1
                    else:
                        assert capped == sol, f"trial {trial}"
        assert over == 20 * 3

    def test_budget_below_the_all_cuttable_optimum(self):
        # the one cuttable edge is the optimum, and it costs exactly the cap
        # of budget 0: that cut is over the budget, so None
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t", directed=False, weight=Fraction(1, 2))
        inst = CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 2))
        sol = CutSolution(frozenset({0}), Fraction(1, 2))
        assert exact_min_length_bounded_cut(inst) == sol
        for budget in (Fraction(-1), Fraction(0), Fraction(1, 4)):
            assert exact_min_length_bounded_cut(inst, budget=budget) is None
        for budget in (Fraction(1, 2), Fraction(1)):
            assert exact_min_length_bounded_cut(inst, budget=budget) == sol

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
        trace = rmfc_simulate(inst, schedule)
        assert all(
            sum(inst.graph.node_weight(v) for v in day) <= bound for day in schedule.days
        )
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

    def test_size_guard(self):
        # a path s - v0 - ... - t with n savable vertices, saved on day one
        def path(n):
            g = WeightedGraph()
            names = ["s", *(f"v{i}" for i in range(n)), "t"]
            for v in names:
                g.add_node(v, None if v in ("s", "t") else Fraction(1))
            for a, b in zip(names, names[1:]):
                g.add_edge(a, b, directed=False)
            return CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"})))

        limit = solvers.RMFC_VERTEX_LIMIT
        assert limit == 14
        assert exact_rmfc_decision(path(limit), Fraction(1))[0]
        with pytest.raises(SizeGuard, match=r"15 cuttable vertices \(cap 14\)"):
            exact_rmfc_decision(path(limit + 1), Fraction(1))

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
                trace = rmfc_simulate(inst, schedule)
                assert all(
                    sum(inst.graph.node_weight(v) for v in day) <= k for day in schedule.days
                )
                assert not trace.target_burnt

    @pytest.mark.parametrize("seed", range(12))
    def test_schedule_matches_mask_order_reference(self, seed):
        rng = random.Random(seed)
        inst = helpers.random_rmfc_instance(rng, n_cuttable=rng.randint(6, 10))
        for k in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)):
            savable, schedule = exact_rmfc_decision(inst, k)
            days = schedule.days if savable else None
            assert (savable, days) == helpers.reference_rmfc_search(inst, k), k

    # 17/25 is B* for b=2 R=1 eps=1/100, met by a two-day schedule
    @pytest.mark.parametrize("k", ["1/2", "17/25", "1", "3/2"])
    def test_fire_gadget_schedule_matches_reference(self, k):
        inst = build_dict_rmfc(DictParamsF(2, 1, Fraction(1, 100)))
        savable, schedule = exact_rmfc_decision(inst, Fraction(k))
        days = schedule.days if savable else None
        assert (savable, days) == helpers.reference_rmfc_search(inst, Fraction(k))
        assert savable == (k != "1/2")
        if k == "17/25":
            assert schedule.per_day_cost == (Fraction(67, 100), Fraction(17, 25))

    @pytest.mark.parametrize("k", ["1/2", "17/25", "1", "3/2"])
    def test_two_coordinate_fire_gadget_matches_reference(self, k):
        inst = build_dict_rmfc(DictParamsF(1, 2, Fraction(1, 10)))
        savable, schedule = exact_rmfc_decision(inst, Fraction(k))
        days = schedule.days if savable else None
        assert (savable, days) == helpers.reference_rmfc_search(inst, Fraction(k))
        assert savable == (Fraction(k) >= 1)

    @staticmethod
    def hand_built(case):
        """s - a - b - t with a and b savable, plus one twist per case."""
        g = WeightedGraph()
        for v, w in (("s", None), ("a", Fraction(1, 2)), ("b", Fraction(1)), ("t", None)):
            g.add_node(v, w)
        g.add_edge("s", "a", directed=False)
        g.add_edge("a", "b", directed=False)
        g.add_edge("b", "t", directed=False)
        targets = {"t"}
        if case == "savable-target":
            g.add_node("u", Fraction(1, 2))
            g.add_edge("s", "u", directed=False)
            targets.add("u")
        elif case == "arc-into-source":
            # c reaches the source and t, but the fire cannot walk c -> s backwards
            g.add_node("c", Fraction(1, 2))
            g.add_edge("c", "s", directed=True)
            g.add_edge("c", "t", directed=False)
        elif case == "source-is-target":
            targets.add("s")
        return CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset(targets)))

    @pytest.mark.parametrize("case", ["savable-target", "arc-into-source", "source-is-target"])
    def test_hand_built_cases_match_reference(self, case):
        inst = self.hand_built(case)
        for k in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)):
            savable, schedule = exact_rmfc_decision(inst, k)
            days = schedule.days if savable else None
            assert (savable, days) == helpers.reference_rmfc_search(inst, k), k
        if case == "source-is-target":
            assert exact_rmfc_decision(inst, Fraction(3)) == (False, None)
        else:
            assert exact_rmfc_decision(inst, Fraction(1))[0]

    def test_first_schedule_follows_sorted_ids(self):
        # s - a - {b1, b2} - t, the savable vertices added in reverse id
        # order: saving a, or b1 then b2, or b2 then b1 all hold the fire,
        # and {a} comes first in mask order over the sorted ids
        g = WeightedGraph()
        g.add_node("s")
        for v in ("b2", "b1", "a"):
            g.add_node(v, Fraction(1))
        g.add_node("t")
        for a, b in (("s", "a"), ("a", "b1"), ("a", "b2"), ("b1", "t"), ("b2", "t")):
            g.add_edge(a, b, directed=False)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"})))
        savable, schedule = exact_rmfc_decision(inst, Fraction(1))
        assert (savable, schedule.days) == helpers.reference_rmfc_search(inst, Fraction(1))
        assert schedule.days == (frozenset({"a"}),)

    @staticmethod
    def mutate_search(monkeypatch, mutate):
        """Patch the fire search so that its outermost call's masks go
        through ``mutate``; the recursion calls ``_fire_search`` through the
        module, so a depth count tells the outermost call apart."""
        real, depth = solvers._fire_search, [0]

        def search(*args):
            depth[0] += 1
            try:
                masks = real(*args)
            finally:
                depth[0] -= 1
            return mutate(masks) if depth[0] == 0 and masks else masks

        monkeypatch.setattr(solvers, "_fire_search", search)

    def test_schedule_missing_a_day_of_saves_refused(self, monkeypatch):
        # the last day of the two-day schedule at B* saves nothing: the
        # fire then reaches the target
        def drop_last_saves(masks):
            last = max(i for i, day in enumerate(masks) if day)
            return (*masks[:last], 0, *masks[last + 1 :])

        inst = build_dict_rmfc(DictParamsF(2, 1, Fraction(1, 100)))
        self.mutate_search(monkeypatch, drop_last_saves)
        with pytest.raises(CertificateFailed, match="burns a target"):
            exact_rmfc_decision(inst, Fraction(17, 25))

    def test_schedule_over_budget_refused(self, monkeypatch):
        # s - a - b - t at unit weights and budget 1: the search saves b on
        # day two, and the mutant saves a and b on day one, which holds the
        # fire at twice the budget
        g = WeightedGraph()
        for v in ("s", "a", "b", "t"):
            g.add_node(v, None if v in ("s", "t") else Fraction(1))
        for a, b in (("s", "a"), ("a", "b"), ("b", "t")):
            g.add_edge(a, b, directed=False)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"})))
        assert exact_rmfc_decision(inst, Fraction(1))[1].days == (frozenset(), frozenset({"b"}))
        self.mutate_search(monkeypatch, lambda masks: (0b11,))
        with pytest.raises(CertificateFailed, match="costs more than the budget"):
            exact_rmfc_decision(inst, Fraction(1))

    def test_negative_budget_rejected(self):
        inst = path_rmfc_instance()
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            exact_rmfc_decision(inst, Fraction(-1))
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        alone = CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t"})))
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            exact_rmfc_decision(alone, Fraction(-1, 2))



# ``_fire_search`` calls, one per search state visited, recorded on the
# search over frozensets of node ids before its states became bitmasks
FIRE_SEARCH_STATES = [
    ((2, 1, Fraction(1, 100)), "1/2", 3589),
    ((2, 1, Fraction(1, 100)), "17/25", 4390),
    ((2, 1, Fraction(1, 100)), "1", 6166),
    ((1, 2, Fraction(1, 10)), "1/2", 17),
    ((1, 2, Fraction(1, 10)), "1", 32),
]


class TestFireSearchWork:
    """Work of the fire-schedule search, gated by counts rather than wall
    time. The recursion calls ``_fire_search`` through the module, so a
    patched one sees every state."""

    @pytest.mark.parametrize(
        "params, k, calls",
        FIRE_SEARCH_STATES,
        ids=["b2-R1-1/2", "b2-R1-17/25", "b2-R1-1", "b1-R2-1/2", "b1-R2-1"],
    )
    def test_search_states(self, monkeypatch, params, k, calls):
        inst = build_dict_rmfc(DictParamsF(*params))
        made = []
        real = solvers._fire_search

        def counted(*args):
            made.append(None)
            return real(*args)

        monkeypatch.setattr(solvers, "_fire_search", counted)
        savable, _ = exact_rmfc_decision(inst, Fraction(k))
        assert savable == (Fraction(k) > Fraction(1, 2))
        assert len(made) == calls


def test_affordable_days_match_the_recursion():
    """The counter yields the unions the recursive enumeration yields, in
    the same increasing order, zero weights and budgets included."""
    rng = random.Random(41)
    for trial in range(300):
        n = rng.randint(0, 9)
        items = [1 << bit for bit in sorted(rng.sample(range(12), n))]
        weights = [rng.randint(0, 6) for _ in items]
        budget = rng.randint(0, sum(weights) + 1)
        got = list(solvers._affordable_days(items, weights, budget))
        assert got == list(helpers.reference_affordable_days(items, weights, n, budget)), trial


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
    nbrs = {v: [nb for _, nb in arcs] for v, arcs in helpers.reference_out_arcs(g).items()}
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
