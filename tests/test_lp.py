import hashlib
import json
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import cutlab
import helpers
from cutlab import gadgets, lp
from cutlab.cli import main, parse_params
from cutlab.errors import (
    CertificateFailed,
    CutLabError,
    Infeasible,
    RowPoolExceeded,
)
from cutlab.gadgets import DictParamsE, build_dict_edge, build_saks_gap, dictator_cut
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    LengthBound,
    Multicut,
    Path as GraphPath,
    WeightedGraph,
)
from cutlab.lp import (
    LPProblem,
    gap_report,
    multicut_lp,
    short_path_cover_lp,
    simplex_solve,
)
from cutlab.solvers import exact_min_length_bounded_cut, exact_min_multicut


def solve_by_vertex_enumeration(lp: LPProblem):
    """Reference solver: enumerate basic solutions of Ax >= b, x >= 0.

    Every vertex of the (pointed) feasible region satisfies n linearly
    independent constraints with equality; try all of them.
    """
    n = len(lp.var_order)
    rows = [
        [lp.rows[i].get(v, Fraction(0)) for v in lp.var_order]
        for i in range(len(lp.rows))
    ]
    rhs = list(lp.rhs)
    for j in range(n):  # x_j >= 0 as constraints
        rows.append([Fraction(int(i == j)) for i in range(n)])
        rhs.append(Fraction(0))

    best = None
    for idx in combinations(range(len(rows)), n):
        mat = [list(rows[i]) + [rhs[i]] for i in idx]
        sol = gauss_solve(mat, n)
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        ok = all(
            sum(r[j] * sol[j] for j in range(n)) >= b
            for r, b in zip(rows, rhs)
        )
        if not ok:
            continue
        value = sum(
            lp.objective[v] * sol[j] for j, v in enumerate(lp.var_order)
        )
        if best is None or value < best:
            best = value
    return best


def gauss_solve(mat, n):
    """Solve an n x n rational system given as rows [a_0..a_{n-1} | b]."""
    m = [row[:] for row in mat]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None  # singular
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def family_instance(family: str, params: str) -> CutInstance:
    """The family's instance at ``params``, as the CLI builds it."""
    fam = gadgets.FAMILIES[family]
    return fam.build(fam.params(parse_params(params)))


class TestSimplex:
    def test_single_variable(self):
        lp = LPProblem(var_order=["x"], objective={"x": Fraction(1)})
        lp.add_row({"x": Fraction(1)}, Fraction(1))
        value, sol = simplex_solve(lp)
        assert value == 1 and sol["x"] == 1

    def test_two_variables_with_extra_row(self):
        lp = LPProblem(
            var_order=["x", "y"],
            objective={"x": Fraction(1), "y": Fraction(1)},
        )
        lp.add_row({"x": Fraction(1), "y": Fraction(1)}, Fraction(1))
        lp.add_row({"x": Fraction(1)}, Fraction(1, 3))
        value, _ = simplex_solve(lp)
        assert value == 1

    def test_infeasible_row(self):
        lp = LPProblem(var_order=["x"], objective={"x": Fraction(1)})
        lp.add_row({"x": Fraction(-1)}, Fraction(1))
        with pytest.raises(Infeasible):
            simplex_solve(lp)

    def test_no_rows_is_zero(self):
        lp = LPProblem(var_order=["x"], objective={"x": Fraction(2)})
        assert simplex_solve(lp) == (0, {"x": 0})

    def test_random_covering_lps_match_vertex_enumeration(self):
        rng = random.Random(61)
        for trial in range(50):
            n = rng.randint(1, 4)
            variables = [f"x{i}" for i in range(n)]
            lp = LPProblem(
                var_order=variables,
                objective={
                    v: Fraction(rng.randint(1, 6), rng.randint(1, 3))
                    for v in variables
                },
            )
            for _ in range(rng.randint(1, 6)):
                coeffs = {v: Fraction(rng.randint(0, 2)) for v in variables}
                if all(c == 0 for c in coeffs.values()):
                    coeffs[rng.choice(variables)] = Fraction(1)
                lp.add_row(coeffs, Fraction(1))
            value, sol = simplex_solve(lp)
            oracle = solve_by_vertex_enumeration(lp)
            assert value == oracle, f"trial {trial}"
            for row, rhs in zip(lp.rows, lp.rhs):
                assert sum(sol[v] * c for v, c in row.items()) >= rhs

    def test_warm_rows_match_cold_solve_and_vertex_enumeration(self):
        rng = random.Random(73)
        for trial in range(60):
            n = rng.randint(1, 3)
            variables = [f"x{i}" for i in range(n)]
            objective = {
                v: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for v in variables
            }
            warm = LPProblem(var_order=variables, objective=objective)
            for added in range(rng.randint(1, 5)):
                coeffs = {v: Fraction(rng.choice((-1, 0, 1, 2))) for v in variables}
                warm.add_row(coeffs, Fraction(rng.randint(-2, 2)))
                cold = LPProblem(var_order=variables, objective=objective)
                for row, rhs in zip(warm.rows, warm.rhs):
                    cold.add_row(row, rhs)
                oracle = solve_by_vertex_enumeration(cold)
                where = f"trial {trial}, row {added}"
                if oracle is None:
                    for lp in (warm, cold):
                        with pytest.raises(Infeasible):
                            simplex_solve(lp)
                    continue
                value, sol = simplex_solve(warm)
                assert value == simplex_solve(cold)[0] == oracle, where
                assert all(x >= 0 for x in sol.values()), where
                for row, rhs in zip(warm.rows, warm.rhs):
                    assert sum(sol[v] * c for v, c in row.items()) >= rhs, where

    def test_infeasible_row_after_warm_solve(self):
        lp = LPProblem(var_order=["x", "y"], objective={"x": Fraction(1), "y": Fraction(2)})
        lp.add_row({"x": Fraction(1), "y": Fraction(1)}, Fraction(1))
        assert simplex_solve(lp)[0] == 1
        lp.add_row({"x": Fraction(-1), "y": Fraction(-1)}, Fraction(-2))
        assert simplex_solve(lp)[0] == 1
        lp.add_row({"x": Fraction(-1), "y": Fraction(-1)}, Fraction(-1, 2))
        with pytest.raises(Infeasible):
            simplex_solve(lp)

    def test_negative_cost_rejected(self):
        lp = LPProblem(var_order=["x", "y"], objective={"x": Fraction(1), "y": Fraction(-1)})
        lp.add_row({"x": Fraction(1), "y": Fraction(1)}, Fraction(1))
        with pytest.raises(CutLabError):
            simplex_solve(lp)


def random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 6))


class TestPivotsMatchFractionReference:
    """The integer tableau against ``helpers.reference_simplex_solve``, the
    Fraction simplex it replaced: same value, same x and the same basis
    after every warm-started solve, so the pivot sequence is unchanged."""

    def test_random_warm_lps(self):
        rng = random.Random(79)
        infeasible = 0
        for trial in range(150):
            n = rng.randint(1, 5)
            variables = [f"x{i}" for i in range(n)]
            # zero costs included
            objective = {v: random_rational(rng, 0, 4) for v in variables}
            fast = LPProblem(var_order=variables, objective=objective)
            ref = LPProblem(var_order=variables, objective=objective)
            for added in range(rng.randint(1, 8)):
                if rng.random() < 0.1:
                    # no x >= 0 meets a row of nonpositive coefficients
                    coeffs = {v: random_rational(rng, -3, 0) for v in variables}
                    rhs = random_rational(rng, 1, 3)
                else:
                    coeffs = {v: random_rational(rng, -2, 3) for v in variables}
                    rhs = random_rational(rng, -3, 3)
                fast.add_row(coeffs, rhs)
                ref.add_row(coeffs, rhs)
                where = f"trial {trial}, row {added}"
                try:
                    want = helpers.reference_simplex_solve(ref)
                except Infeasible:
                    infeasible += 1
                    with pytest.raises(Infeasible):
                        simplex_solve(fast)
                else:
                    assert simplex_solve(fast) == want, where
                assert fast._dual.basis == ref._dual.basis, where
        assert infeasible > 20

    @pytest.mark.parametrize(
        "family, params",
        [
            ("saks", "r=3,k=2"),
            ("dict-m", "r=2,k=2,R=1,eps=1/5"),
            ("dict-e", "a=4,b=3,r=2,R=1"),
        ],
    )
    def test_cutting_plane_rounds(self, monkeypatch, family, params):
        inst = family_instance(family, params)
        real = lp.simplex_solve
        refs: dict[int, LPProblem] = {}

        def checked(problem: LPProblem):
            ref = refs.setdefault(
                id(problem), LPProblem(problem.var_order, problem.objective)
            )
            for row, rhs in zip(problem.rows[len(ref.rows):], problem.rhs[len(ref.rows):]):
                ref.add_row(row, rhs)
            got = real(problem)
            assert got == helpers.reference_simplex_solve(ref), len(ref.rows)
            assert problem._dual.basis == ref._dual.basis, len(ref.rows)
            return got

        monkeypatch.setattr(lp, "simplex_solve", checked)
        if isinstance(inst.problem, Multicut):
            multicut_lp(inst)
        else:
            short_path_cover_lp(inst)
        assert len(refs) == 1 and len(next(iter(refs.values())).rows) > 1


def solved_lp() -> LPProblem:
    """An LP with nonnegative coefficients whose optimum has x > 0, every y
    basic and positive, and every row tight."""
    problem = LPProblem(
        var_order=["x", "y", "z"],
        objective={"x": Fraction(1), "y": Fraction(3, 2), "z": Fraction(2)},
    )
    problem.add_row({"x": Fraction(1), "y": Fraction(1)}, Fraction(1))
    problem.add_row({"y": Fraction(1, 2), "z": Fraction(1)}, Fraction(2, 3))
    problem.add_row({"x": Fraction(1), "z": Fraction(1)}, Fraction(1, 4))
    assert simplex_solve(problem) == (
        Fraction(67, 36),
        {"x": Fraction(1, 18), "y": Fraction(17, 18), "z": Fraction(7, 36)},
    )
    assert problem._dual.det == 36
    return problem


def positive_x(dual) -> int:
    # the first len(dual.table) keys are the slacks, whose costs are x
    return next(j for j, v in dual.z.items() if j < len(dual.table) and v > 0)


def positive_y(dual) -> int:
    n = len(dual.table)
    return next(r for r, k in enumerate(dual.basis) if k >= n and dual.rhs[r] > 0)


def negate_x(dual):
    dual.z[positive_x(dual)] *= -1


def negate_y(dual):
    dual.rhs[positive_y(dual)] *= -1


def bump_det(dual):
    dual.det += 1


def inflate_y(dual):
    dual.rhs[positive_y(dual)] += 1000 * dual.det


def shrink_y(dual):
    dual.rhs[positive_y(dual)] -= 1


class TestCertificate:
    """Each clause of the integer optimality certificate is a real check:
    corrupting the finished tableau so that exactly one clause breaks
    raises CertificateFailed with that clause's message."""

    def test_sound_tableau_passes(self):
        problem = solved_lp()
        assert lp._certify(problem, problem._dual) == simplex_solve(problem)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (negate_x, "x has a negative entry"),
            (negate_y, "y has a negative entry"),
            (bump_det, "x violates a row"),
            (inflate_y, r"y violates A\^T y <= c"),
            (shrink_y, "c.x differs from b.y"),
        ],
        ids=["x-negative", "y-negative", "row", "dual-row", "duality-gap"],
    )
    def test_each_clause_is_checked(self, corrupt, message):
        problem = solved_lp()
        corrupt(problem._dual)
        with pytest.raises(CertificateFailed, match=message):
            lp._certify(problem, problem._dual)

    def test_rows_from_earlier_solves_are_still_checked(self):
        # one row per warm solve; then x loses the entry only the first row
        # needs, so a check of the rows added since the last solve passes
        problem = LPProblem(
            var_order=["a", "b", "c"],
            objective={v: Fraction(1) for v in "abc"},
        )
        for v in "abc":
            problem.add_row({v: Fraction(1)}, Fraction(1))
            simplex_solve(problem)
        del problem._dual.z[0]
        with pytest.raises(CertificateFailed, match="x violates a row"):
            simplex_solve(problem)

    def test_certificate_survives_optimize_flag(self):
        # python -O strips asserts; the certificate must still raise. The
        # child imports the suite's cutlab
        child = "\n".join(
            [
                "from fractions import Fraction",
                "from cutlab import lp",
                "from cutlab.errors import CertificateFailed",
                "assert False, 'asserts are on'",
                "problem = lp.LPProblem(['x'], {'x': Fraction(1)})",
                "problem.add_row({'x': Fraction(1)}, Fraction(1, 2))",
                "lp.simplex_solve(problem)",
                "problem._dual.det += 1",
                "try:",
                "    lp._certify(problem, problem._dual)",
                "except CertificateFailed:",
                "    raise SystemExit(0)",
                "raise SystemExit('the certificate did not raise')",
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


class TestMulticutLp:
    def test_single_path_value_is_node_weight(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("a", Fraction(3))
        g.add_node("t")
        g.add_edge("s", "a", directed=True)
        g.add_edge("a", "t", directed=True)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        value, sol = multicut_lp(inst)
        assert value == 3 and sol["a"] == 1

    def test_saks_2_2_full_enumeration_value(self):
        value, _ = multicut_lp(build_saks_gap(2, 2))
        assert value == 2

    @pytest.mark.parametrize(
        "r,k", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3)]
    )
    def test_saks_lp_closed_form(self, r, k):
        # the LP side of the gap: r^(k-1), the value of weight 1/r on every
        # grid node (the integral side is test_saks_optimum_closed_form)
        value, _ = multicut_lp(build_saks_gap(r, k))
        assert value == Fraction(r) ** (k - 1)

    def test_long_directed_vertex_path_needs_no_recursion(self):
        # every search, the recheck too, walks all 2,000 nodes, past
        # Python's recursion limit
        g = WeightedGraph()
        names = ["s", *(f"v{i}" for i in range(1998)), "t"]
        for i, v in enumerate(names):
            cuttable = 0 < i < len(names) - 1
            g.add_node(v, Fraction(1 if i != 1000 else Fraction(1, 2)) if cuttable else None)
        for a, b in zip(names, names[1:]):
            g.add_edge(a, b, directed=True)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        value, sol = multicut_lp(inst)
        assert value == Fraction(1, 2) and sol["v999"] == 1

    def test_infeasible_when_uncuttable_path(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("m")
        g.add_node("t")
        g.add_edge("s", "m", directed=True)
        g.add_edge("m", "t", directed=True)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        with pytest.raises(Infeasible):
            multicut_lp(inst)

    def test_row_pool_cap(self, monkeypatch):
        # saks r=3 k=2 needs more than one row
        monkeypatch.setattr(lp, "ROW_POOL_CAP", 1)
        with pytest.raises(RowPoolExceeded, match="row pool exceeded 1"):
            multicut_lp(build_saks_gap(3, 2))


class TestShortPathCoverLp:
    def test_unit_path(self):
        g = WeightedGraph()
        for v in ("s", "a", "b", "t"):
            g.add_node(v)
        g.add_edge("s", "a", directed=False, weight=Fraction(1))
        g.add_edge("a", "b", directed=False, weight=Fraction(1))
        g.add_edge("b", "t", directed=False, weight=Fraction(1))
        inst = CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 4))
        value, _ = short_path_cover_lp(inst)
        assert value == 1

    def test_dict_edge_at_most_dictator_cut(self):
        p = DictParamsE(4, 3, 2, 1)
        inst = build_dict_edge(p)
        cut = dictator_cut("dict_edge", p, 0, inst)
        value, _ = short_path_cover_lp(helpers.with_bound(inst, 8))
        assert value <= cut.cost == Fraction(15, 8)

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_huge_bound_is_the_total_length_bound(self, mode):
        # a bound read from an instance file may be 10**12; the DP's levels
        # stop at the total edge length, past which no path is simple
        rng = random.Random(71)
        instances = [
            helpers.random_instance(rng, "length_bound", mode, n_nodes=5, extra_edges=4)
            for _ in range(8)
        ]
        solved = 0
        for inst in [*instances, build_dict_edge(DictParamsE(4, 3, 2, 1))]:
            every_path = helpers.with_bound(inst, helpers.total_length(inst.graph) + 1)
            huge = helpers.with_bound(inst, 10**12)
            try:
                want = short_path_cover_lp(every_path)
            except Infeasible:
                with pytest.raises(Infeasible):
                    short_path_cover_lp(huge)
                continue
            assert short_path_cover_lp(huge) == want
            solved += 1
        assert solved >= 4

    def test_matches_explicit_path_enumeration(self):
        rng = random.Random(67)
        for trial in range(20):
            mode = VERTEX if rng.random() < 0.5 else EDGE
            inst = helpers.random_instance(
                rng, "length_bound", mode, n_nodes=4, extra_edges=3, max_cuttable=8
            )
            bound = inst.problem.bound
            lazy_value, _ = short_path_cover_lp(inst)
            # oracle LP: one row per explicitly enumerated short path
            cuttable = inst.cuttable_elements()
            full = LPProblem(
                var_order=list(cuttable),
                objective={v: inst.graph.element_weight(v) for v in cuttable},
            )
            seen = set()
            for nodes, edges in helpers.all_simple_paths(inst.graph, "S", "T"):
                if helpers.path_length(inst.graph, edges) >= bound:
                    continue
                elements = nodes if mode == VERTEX else edges
                row = frozenset(
                    el
                    for el in elements
                    if inst.graph.element_weight(el) is not None
                )
                if row in seen:
                    continue
                seen.add(row)
                full.add_row({el: Fraction(1) for el in row}, Fraction(1))
            full_value, _ = simplex_solve(full)
            assert lazy_value == full_value, f"trial {trial}"


def reference_cheap_path(inst: CutInstance, x) -> bool:
    """Whether some simple path the instance must cut has x-mass below 1
    (and length below the bound), by enumerating every simple path."""
    g, p = inst.graph, inst.problem
    if isinstance(p, Multicut):
        pairs, bound = p.pairs, None
    else:
        pairs, bound = [(p.source, p.sink)], p.bound
    return any(
        (bound is None or helpers.path_length(g, edges) < bound)
        and helpers.path_x_weight(g, nodes, edges, x, inst.mode) < 1
        for s, t in pairs
        for nodes, edges in helpers.all_simple_paths(g, s, t)
    )


class TestWalkRecheck:
    """``lp._has_cheap_walk``, the LP's independent recheck, against
    simple-path enumeration and as the gate of ``_covering_lp``."""

    @pytest.mark.parametrize("kind", ["multicut", "length_bound"])
    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_matches_simple_path_enumeration(self, kind, mode):
        rng = random.Random(89)
        verdicts = []
        for trial in range(40):
            if trial % 2:
                inst = helpers.random_grid_instance(rng, kind, mode)
            else:
                inst = helpers.random_instance(rng, kind, mode)
            g = inst.graph
            if kind == "length_bound":
                # past the total length too, where the levels are capped
                inst = helpers.with_bound(inst, rng.randint(1, helpers.total_length(g) + 2))
            x = {
                el: rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
                for el in inst.cuttable_elements()
            }
            # one random path, if any, set to mass exactly 1 or just under it
            s, t = inst.terminals()[:2]
            paths = list(helpers.all_simple_paths(g, s, t))
            if paths:
                nodes, edges = rng.choice(paths)
                on_path = [
                    el
                    for el in dict.fromkeys(nodes if mode == VERTEX else edges)
                    if g.element_weight(el) is not None
                ]
                mass = rng.choice([Fraction(1), 1 - Fraction(1, 997)])
                for el in on_path:
                    x[el] = mass / len(on_path)
            want = reference_cheap_path(inst, x)
            assert lp._has_cheap_walk(inst, x) == want, f"trial {trial}"
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    @pytest.mark.parametrize("bound, cheap", [(6, True), (5, False)])
    def test_bound_is_strict(self, mode, bound, cheap):
        # the one s-t path, s-a-b-t, has length 5 and mass 1/2: it counts
        # under bound 6 (length bound - 1) but not under bound 5
        g = WeightedGraph()
        for v in ("s", "a", "b", "t"):
            g.add_node(v, Fraction(1) if mode == VERTEX and v in ("a", "b") else None)
        weight = Fraction(1) if mode == EDGE else None
        g.add_edge("s", "a", directed=False, length=1, weight=weight)
        g.add_edge("a", "b", directed=False, length=2, weight=weight)
        g.add_edge("b", "t", directed=False, length=2, weight=weight)
        inst = CutInstance(graph=g, mode=mode, problem=LengthBound("s", "t", bound))
        share = Fraction(1, 2) / len(inst.cuttable_elements())
        x = {el: share for el in inst.cuttable_elements()}
        assert reference_cheap_path(inst, x) is cheap
        assert lp._has_cheap_walk(inst, x) is cheap

    @pytest.mark.parametrize("r", [10, 16])
    def test_reaches_large_saks(self, r):
        # 1/r on every grid node covers each pair's paths exactly; lowering
        # one node leaves a straight line through it at 1 - 1/(2r)
        inst = build_saks_gap(r, 2)
        x = {v: Fraction(1, r) for v in inst.cuttable_elements()}
        assert not lp._has_cheap_walk(inst, x)
        x[inst.cuttable_elements()[-1]] = Fraction(1, 2 * r)
        assert lp._has_cheap_walk(inst, x)

    @pytest.mark.parametrize(
        "family, params, oracle, solve",
        [
            ("saks", "r=3,k=2", "min_weight_path", multicut_lp),
            ("dict-e", "a=4,b=3,r=2,R=1", "constrained_min_weight_path", short_path_cover_lp),
        ],
        ids=["multicut", "length-bound"],
    )
    def test_blind_separation_fails_the_recheck(
        self, monkeypatch, family, params, oracle, solve
    ):
        # a separation oracle that finds nothing ends the loop at x = 0,
        # where every path is cheap: the recheck must refuse that answer
        inst = family_instance(family, params)
        monkeypatch.setattr(lp, oracle, lambda *args: None)
        with pytest.raises(CertificateFailed, match="independent separation found"):
            solve(inst)


def mutate_oracle(monkeypatch, name, mutate):
    """Replace ``lp``'s separation oracle ``name`` by one that passes each
    path it finds through ``mutate``, keeping the path's mass."""
    real = getattr(lp, name)

    def oracle(*args):
        found = real(*args)
        return None if found is None else (mutate(found[0]), found[1])

    monkeypatch.setattr(lp, name, oracle)


class TestRowPathCheck:
    """Every separated path must be a real row: a walk of the graph from a
    pair's source to its sink and, for a length bound, shorter than the
    bound. Without the check no certificate fails on any mutant below."""

    def test_dropped_cuttable_node(self, monkeypatch):
        inst = build_saks_gap(3, 2)
        assert multicut_lp(inst)[0] == 3
        weight = inst.graph.node_weight

        def drop_last_cuttable(path):
            last = [v for v in path.nodes if weight(v) is not None][-1]
            return replace(path, nodes=tuple(v for v in path.nodes if v != last))

        # the rows lose a node, so they bind harder: the LP returned 4
        mutate_oracle(monkeypatch, "min_weight_path", drop_last_cuttable)
        with pytest.raises(CertificateFailed, match="does not list one edge per step"):
            multicut_lp(inst)

    def test_skipped_edge(self, monkeypatch):
        inst = family_instance("dict-e", "a=4,b=3,r=2,R=1")

        def skip_first_edge(path):
            return replace(path, nodes=path.nodes[:1] + path.nodes[2:], edges=path.edges[1:])

        mutate_oracle(monkeypatch, "constrained_min_weight_path", skip_first_edge)
        with pytest.raises(CertificateFailed, match="is not a walk of the graph"):
            short_path_cover_lp(inst)

    @pytest.mark.parametrize(
        "family, params, oracle, solve",
        [
            ("saks", "r=3,k=2", "min_weight_path", multicut_lp),
            ("dict-e", "a=4,b=3,r=2,R=1", "constrained_min_weight_path", short_path_cover_lp),
        ],
        ids=["multicut", "length-bound"],
    )
    def test_wrong_sink(self, monkeypatch, family, params, oracle, solve):
        inst = family_instance(family, params)
        lengths = [row[3] for row in inst.graph.edge_rows]

        def stop_one_short(path):
            edges = path.edges[:-1]
            return replace(
                path, nodes=path.nodes[:-1], edges=edges, length=sum(lengths[e] for e in edges)
            )

        mutate_oracle(monkeypatch, oracle, stop_one_short)
        with pytest.raises(CertificateFailed, match="does not join a terminal pair"):
            solve(inst)

    @pytest.mark.parametrize("stated", [3, 2], ids=["at-bound", "misstated"])
    def test_length_at_the_bound(self, monkeypatch, stated):
        # s-a-t has length 2 and s-t length 3 = the bound, so only s-a-t is
        # a row and the LP value is 1; a first round that offers s-t as a
        # row, of its true length or claiming 2, would make it 2
        g = WeightedGraph()
        for v in ("s", "a", "t"):
            g.add_node(v)
        g.add_edge("s", "a", directed=True, weight=Fraction(1))
        g.add_edge("a", "t", directed=True, weight=Fraction(1))
        g.add_edge("s", "t", directed=True, length=3, weight=Fraction(1))
        inst = CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 3))
        assert short_path_cover_lp(inst)[0] == 1
        real = lp.constrained_min_weight_path
        calls = []

        def oracle(*args):
            calls.append(args)
            found = real(*args)
            if len(calls) == 1:
                return GraphPath(("s", "t"), (2,), stated), found[1]
            return found

        monkeypatch.setattr(lp, "constrained_min_weight_path", oracle)
        with pytest.raises(CertificateFailed, match="misstates its length or reaches the bound"):
            short_path_cover_lp(inst)


# ``cutlab lp`` stdout on the length_cover benchmark instances, and the
# separation calls of its cutting-plane loop, as the Fraction reference
# oracles of ``helpers`` produce them: a change in how the oracles break
# ties shows up here as other rows, rounds or bytes
LP_DICT_E_A4 = """\
{
  "lp_value": "1/1",
  "support": {
    "6": "1/1",
    "7": "1/1",
    "8": "1/1",
    "9": "1/1"
  }
}
"""

LP_DICT_E_A6 = """\
{
  "lp_value": "3/2",
  "support": {
    "12": "1/2",
    "13": "1/2",
    "14": "1/2",
    "15": "1/2",
    "18": "1/2",
    "19": "1/2",
    "20": "1/2",
    "21": "1/2",
    "6": "1/2",
    "7": "1/2",
    "8": "1/2",
    "9": "1/2"
  }
}
"""

LP_DICT_V = """\
{
  "lp_value": "1/1",
  "support": {
    "v[1]/[*]": "1/1",
    "v[1]/[0]": "1/1",
    "v[1]/[1]": "1/1",
    "v[1]/[2]": "1/1"
  }
}
"""

LENGTH_COVER_CASES = [
    ("dict-e", "a=4,b=3,r=2,R=1", 12, LP_DICT_E_A4),
    ("dict-e", "a=6,b=3,r=2,R=1", 25, LP_DICT_E_A6),
    ("dict-v", "a=4,b=4,r=3,R=1,eps=1/20", 17, LP_DICT_V),
]
LENGTH_COVER_IDS = ["dict-e-a4", "dict-e-a6", "dict-v"]


class TestLengthCoverWork:
    """Work and output of the length-bounded covering LP, gated by counts
    and bytes rather than wall time."""

    @pytest.mark.parametrize(
        "family, params, calls, stdout", LENGTH_COVER_CASES, ids=LENGTH_COVER_IDS
    )
    def test_separation_calls(self, monkeypatch, family, params, calls, stdout):
        inst = family_instance(family, params)
        made = []
        real = lp.constrained_min_weight_path

        def counted(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(lp, "constrained_min_weight_path", counted)
        short_path_cover_lp(inst)
        assert len(made) == calls

    @pytest.mark.parametrize(
        "family, params, calls, stdout", LENGTH_COVER_CASES, ids=LENGTH_COVER_IDS
    )
    def test_lp_stdout_frozen(self, capsys, family, params, calls, stdout):
        assert main(["lp", "--family", family, "--params", params]) == 0
        assert capsys.readouterr().out == stdout


# ``cutlab lp`` on multicut instances: the Dijkstra separation calls of the
# cutting-plane loop, the LP value and the SHA-256 of stdout, recorded on
# the Fraction simplex (commit bb89141) before the integer pivots replaced it
MULTICUT_CASES = [
    ("saks", "r=4,k=2", 30, "4/1",
     "545c4c806526b04d7a8dcbe1128477315ab4d9f6deeeb22f79141bd0dde3e476"),
    ("saks", "r=3,k=3", 48, "9/1",
     "9fa6389af0110281485b9ac36c8125d6009fb2817d4ae0897ad18c3c0af7a88a"),
    ("dict-m", "r=2,k=2,R=2,eps=1/5", 108, "2/1",
     "c694d383a771c12af219bd482166de0da3e2f1c0a34c2a4c5c98333fa349c2bf"),
]
MULTICUT_IDS = ["saks-r4-k2", "saks-r3-k3", "dict-m-R2"]


class TestMulticutWork:
    """Work and output of the multicut covering LP, gated by counts and
    bytes rather than wall time."""

    @pytest.mark.parametrize(
        "family, params, calls, value, digest", MULTICUT_CASES, ids=MULTICUT_IDS
    )
    def test_separation_calls(self, monkeypatch, family, params, calls, value, digest):
        inst = family_instance(family, params)
        made = []
        real = lp.min_weight_path

        def counted(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(lp, "min_weight_path", counted)
        assert multicut_lp(inst)[0] == Fraction(value)
        assert len(made) == calls

    @pytest.mark.parametrize(
        "family, params, calls, value, digest", MULTICUT_CASES, ids=MULTICUT_IDS
    )
    def test_lp_stdout_frozen(self, capsys, family, params, calls, value, digest):
        assert main(["lp", "--family", family, "--params", params]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["lp_value"] == value
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# ``cutlab gap-table``: simplex solves and separation calls, recorded
# before each LP row's integer form was kept with the row
GAP_TABLE_WORK = [
    ("dict-e", "a=6,b=3,r=2,R=1", {"simplex_solve": 24, "constrained_min_weight_path": 25}),
    ("dict-v", "a=4,b=4,r=3,R=1,eps=1/20", {"simplex_solve": 16, "constrained_min_weight_path": 17}),
    ("saks", "r=4,k=2", {"simplex_solve": 14, "min_weight_path": 30}),
]


class TestGapTableWork:
    """A change that alters a cutting-plane row or a separated path changes
    these counts."""

    @pytest.mark.parametrize(
        "family, params, counts", GAP_TABLE_WORK, ids=["dict-e-a6", "dict-v", "saks-r4-k2"]
    )
    def test_call_counts(self, monkeypatch, capsys, family, params, counts):
        made = dict.fromkeys(["simplex_solve", "constrained_min_weight_path", "min_weight_path"], 0)
        for name in made:
            real = getattr(lp, name)

            def counted(*args, _name=name, _real=real):
                made[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lp, name, counted)
        assert main(["gap-table", "--family", family, "--params", params]) == 0
        capsys.readouterr()
        assert made == dict.fromkeys(made, 0) | counts


class TestGapReport:
    def test_single_path_gap_is_one(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("a", Fraction(3))
        g.add_node("t")
        g.add_edge("s", "a", directed=True)
        g.add_edge("a", "t", directed=True)
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        report = gap_report(inst)
        assert report.gap == 1

    def test_saks_values_and_growth(self):
        # frozen from subset brute force (r=2,3) and branch and bound (r=4)
        expected = {2: Fraction(3, 2), 3: Fraction(5, 3), 4: Fraction(7, 4)}
        prev = Fraction(0)
        for r, gap in expected.items():
            report = gap_report(build_saks_gap(r, 2))
            assert report.lp_value == r
            assert report.gap == gap
            assert report.gap >= prev
            prev = report.gap

    def test_integral_never_below_lp_on_random_suite(self):
        rng = random.Random(71)
        for _ in range(25):
            kind = "multicut" if rng.random() < 0.5 else "length_bound"
            mode = VERTEX if rng.random() < 0.5 else EDGE
            inst = helpers.random_instance(rng, kind, mode)
            if kind == "multicut":
                integral = exact_min_multicut(inst).cost
                lp_value, _ = multicut_lp(inst)
            else:
                integral = exact_min_length_bounded_cut(inst).cost
                lp_value, _ = short_path_cover_lp(inst)
            assert lp_value <= integral
