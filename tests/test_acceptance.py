"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cutlab
import helpers
from cutlab.approx import threshold_round_lbc, trivial_multicut
from cutlab.cli import main as cli_main
from cutlab.gadgets import (
    DictParamsE,
    DictParamsF,
    DictParamsM,
    DictParamsV,
    build_dict_edge,
    build_dict_multicut,
    build_dict_rmfc,
    build_dict_vertex,
    build_saks_gap,
    dictator_cut,
    edge_noise_rho,
    fire_alphabet_size,
    fire_thresholds,
    harmonic,
    star_noise_space,
    starred_noise_rho,
)
from cutlab.graphs import EDGE, VERTEX, CutInstance, Multicut, shortest_path_length
from cutlab.lp import multicut_lp, short_path_cover_lp
from cutlab.probspace import (
    FiniteProbSpace,
    ProductFunction,
    efron_stein_influences,
    gamma_rho,
)
from cutlab.solvers import (
    exact_interdiction,
    exact_min_length_bounded_cut,
    exact_min_multicut,
    length_bound_is_feasible,
    multicut_is_feasible,
    rmfc_simulate,
)
from cutlab.ug import Labeling, UGEdge, UniqueGamesInstance, completeness_cut, compose, synth_ug
from test_probspace import brute_influence


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_saks_gap_growth():
    started = time.monotonic()
    exact_floor = {2: 2, 3: 4, 4: 6}
    lp_ceiling = {2: 2, 3: 3, 4: 4}
    gap_floor = {2: Fraction(1), 3: Fraction(4, 3), 4: Fraction(3, 2)}
    gaps = []
    for r in (2, 3, 4):
        inst = build_saks_gap(r, 2)
        integral = exact_min_multicut(inst).cost
        lp_value, _ = multicut_lp(inst)
        assert integral >= exact_floor[r]
        assert lp_value <= lp_ceiling[r]
        gap = integral / lp_value
        assert gap >= gap_floor[r]
        gaps.append(gap)
    assert gaps == sorted(gaps)
    assert all(g <= 2 for g in gaps)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(
        1,
        f"saks k=2 gaps {[str(g) for g in gaps]} nondecreasing toward 2 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_2_multicut_dictator_completeness():
    for r, k, big_r in ((2, 2, 1), (3, 2, 1), (2, 2, 2)):
        p = DictParamsM(r, k, big_r, Fraction(1, 20))
        inst = build_dict_multicut(p)
        expected = Fraction(r) ** k * (p.eps + (1 - p.eps) / r)
        for q in range(big_r):
            cut = dictator_cut("dict_multicut", p, q, inst)
            assert cut.cost == expected
            for s, t in inst.problem.pairs:
                assert shortest_path_length(inst.graph, s, t, cut.elements) is None
    report(2, "dictator cuts disconnect every pair at exact cost r^k(eps+(1-eps)/r)")


def test_criterion_3_edge_test_distance():
    for a, b, r in ((4, 3, 2), (4, 5, 3)):
        p = DictParamsE(a, b, r, 1)
        inst = build_dict_edge(p)
        cut = dictator_cut("dict_edge", p, 0, inst)
        assert cut.cost <= Fraction(2 * b, r)
        dist = shortest_path_length(inst.graph, "s", "t", cut.elements)
        assert dist is not None and dist >= a * (b - r + 1)
    report(3, "edge-test dictator cuts force distance >= a(b-r+1) at weight <= 2b/r")


def test_criterion_4_vertex_test_distance():
    p = DictParamsV(4, 4, 3, 1, Fraction(1, 20))
    inst = build_dict_vertex(p)
    cut = dictator_cut("dict_vertex", p, 0, inst)
    assert cut.cost == Fraction(11, 6)
    dist = shortest_path_length(inst.graph, "s", "t", cut.elements)
    assert dist is not None and dist >= 12
    report(4, f"vertex-test cut weight 11/6 exactly, post-cut distance {dist} >= 12")


def test_criterion_5_fire_harmonic_schedule():
    p = DictParamsF(2, 1, Fraction(1, 100))
    assert fire_alphabet_size(2) == 6
    assert fire_thresholds(2)[1] == 4
    inst = build_dict_rmfc(p)
    schedule = dictator_cut("dict_rmfc", p, 0)
    bound = 2 * Fraction(1, 100) + 1 / harmonic(2)
    assert bound == Fraction(1, 50) + Fraction(2, 3)
    assert all(c <= bound for c in schedule.per_day_cost)
    trace = rmfc_simulate(inst, schedule)
    assert all(sum(inst.graph.node_weight(v) for v in day) <= bound for day in schedule.days)
    assert not trace.target_burnt
    report(5, "B=6, B_1=4; harmonic schedule saves t at per-day cost <= 1/50 + 2/3")


def test_criterion_6_sheppard_values():
    got_a = gamma_rho(math.sqrt(3) / 2, 0.5, 0.5)
    got_b = gamma_rho(0.5, 0.5, 0.5)
    assert abs(got_a - 1 / 12) <= 1e-4
    assert abs(got_b - 1 / 6) <= 1e-4
    report(6, f"quadrature gives {got_a:.6f} ~ 1/12 and {got_b:.6f} ~ 1/6")


def test_criterion_7_correlation_bounds():
    assert edge_noise_rho(2) == Fraction(1, 2)
    for r in range(2, 7):
        assert edge_noise_rho(r) <= math.sqrt(1 - 1 / r)
    for r, eps in ((2, Fraction(1, 4)), (3, Fraction(1, 20))):
        cs = star_noise_space(r, eps)
        assert cs.alpha == eps * eps
        assert starred_noise_rho(r, eps) <= 1 - eps**4 / 2
    report(7, "edge-noise rho(2)=1/2, rho(r)<=sqrt(1-1/r), star-noise <= 1-eps^4/2, exactly")


def test_criterion_8_influence_toolkit():
    checked = 0
    for size in (2, 3, 4):
        space = FiniteProbSpace.uniform(list(range(size)))
        for big_r in (2, 3):
            functions = {
                "dictator": ProductFunction.indicator(
                    space, big_r, lambda p: p[0] == 0
                ),
                "constant": ProductFunction.constant(space, big_r, Fraction(1, 2)),
            }
            if size == 2:
                functions["xor"] = ProductFunction.indicator(
                    space, big_r, lambda p: sum(p) % 2 == 1
                )
            for f in functions.values():
                infl = efron_stein_influences(f, big_r)
                assert [full for full, _ in infl] == brute_influence(f)
                checked += 1
    report(8, f"{checked} influence vectors equal conditional-variance brute force")


def test_criterion_9_oracle_equivalence():
    rng = random.Random(2024)
    instances = 0
    for mode in (VERTEX, EDGE):
        for _ in range(40):
            inst = helpers.random_instance(rng, "multicut", mode)
            sol = exact_min_multicut(inst)
            oracle = helpers.brute_force_min_feasible(
                inst, lambda els: multicut_is_feasible(inst, els)
            )
            assert sol.cost == oracle
            lp_value, _ = multicut_lp(inst)
            assert lp_value <= sol.cost
            instances += 1
    for mode in (VERTEX, EDGE):
        for _ in range(40):
            inst = helpers.random_instance(rng, "length_bound", mode)
            sol = exact_min_length_bounded_cut(inst)
            oracle = helpers.brute_force_min_feasible(
                inst, lambda els: length_bound_is_feasible(inst, els)
            )
            assert sol.cost == oracle
            lp_value, _ = short_path_cover_lp(inst)
            assert lp_value <= sol.cost
            instances += 1
    for _ in range(40):
        inst = helpers.random_instance(
            rng, "length_bound", EDGE, n_nodes=4, extra_edges=2, max_cuttable=8
        )
        budget = Fraction(rng.randint(0, 5))
        best, cut = exact_interdiction(inst, budget)
        assert cut.cost <= budget
        oracle = None
        cuttable = inst.cuttable_elements()
        for mask in range(1 << len(cuttable)):
            subset = [cuttable[i] for i in range(len(cuttable)) if mask >> i & 1]
            cost = sum((inst.graph.element_weight(e) for e in subset), Fraction(0))
            if cost > budget:
                continue
            dist = shortest_path_length(inst.graph, "S", "T", subset)
            key = (1, 0) if dist is None else (0, dist)
            if oracle is None or key > oracle:
                oracle = key
        assert best == (None if oracle[0] == 1 else oracle[1])
        instances += 1
    assert instances >= 200
    report(9, f"{instances} random instances: search equals brute force, LP <= OPT")


def test_criterion_10_composition_identity_and_planted():
    p1 = DictParamsV(4, 4, 3, 1, Fraction(1, 20))
    raw = build_dict_vertex(p1)
    raw_cut = dictator_cut("dict_vertex", p1, 0, raw)
    raw_dist = shortest_path_length(raw.graph, "s", "t", raw_cut.elements)
    identity = UniqueGamesInstance(["u0"], ["w0"], 1, [UGEdge("u0", "w0", (0,))])
    composed = compose(identity, "dict_vertex", p1)
    cert = completeness_cut(
        composed, identity, Labeling({"u0": 0, "w0": 0}), frozenset({"w0"})
    )
    assert cert.cost == raw_cut.cost == Fraction(11, 6)
    assert cert.detail["dist"] == raw_dist
    assert cert.passed and cert.detail["dist"] >= 12

    p2 = DictParamsV(4, 4, 3, 2, Fraction(1, 20))
    planted = synth_ug(3, 3, 2, 2, mode="planted", seed=5, eta=Fraction(0))
    assert len(planted.instance.W) == 3 and planted.w_prime == frozenset(planted.instance.W)
    big = compose(planted.instance, "dict_vertex", p2)
    cert2 = completeness_cut(big, planted.instance, planted.labeling, planted.w_prime)
    assert cert2.eta == 0
    assert cert2.cost <= (p2.b + 1) * (p2.eps + (1 - p2.eps) / p2.r)
    assert cert2.detail["dist"] >= p2.a * (p2.b - p2.r + 2)
    assert cert2.passed
    report(
        10,
        f"identity composition reproduces 11/6 and distance {raw_dist}; "
        f"planted |W|=3 R=2 cut costs {cert2.cost} with distance "
        f"{cert2.detail['dist']} >= 12",
    )


def test_criterion_11_approximation_ratios():
    rng = random.Random(4096)
    ratios_checked = 0
    for _ in range(30):
        mode = VERTEX if rng.random() < 0.5 else EDGE
        inst = helpers.random_instance(rng, "multicut", mode)
        sol = trivial_multicut(inst)
        assert multicut_is_feasible(inst, sol.elements)
        opt = exact_min_multicut(inst).cost
        assert sol.cost <= len(inst.problem.pairs) * opt
        ratios_checked += 1
    for _ in range(15):
        inst = helpers.random_instance(rng, "length_bound", VERTEX)
        bicut = CutInstance(
            graph=inst.graph,
            mode=VERTEX,
            problem=Multicut((("S", "T"), ("T", "S"))),
        )
        sol = trivial_multicut(bicut)
        assert multicut_is_feasible(bicut, sol.elements)
        assert sol.cost <= 2 * exact_min_multicut(bicut).cost
        ratios_checked += 1
    for _ in range(30):
        mode = VERTEX if rng.random() < 0.5 else EDGE
        inst = helpers.random_instance(rng, "length_bound", mode)
        bound = inst.problem.bound
        lp_value, fractional = short_path_cover_lp(inst)
        rounded = threshold_round_lbc(inst, fractional)
        assert length_bound_is_feasible(inst, rounded.elements)
        assert rounded.cost <= (bound - 1) * lp_value
        ratios_checked += 1
    report(11, f"{ratios_checked} instances hold the k / 2 / (l-1) ratio bounds")


def test_criterion_12_gap_table_determinism(tmp_path):
    argv = ["gap-table", "--family", "saks", "--params", "k=2,r=2..3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, *rows = a.read_text().splitlines()
    assert header == "family,params,lp_value,integral_value,gap,wall_ms"
    assert [row.split(",")[1] for row in rows] == ["k=2;r=2", "k=2;r=3"]
    # without --timings the wall_ms column is zero, so the bytes cannot drift
    assert all(row.split(",")[-1] == "0" for row in rows)
    # fresh interpreters with different hash seeds must agree byte for byte;
    # they import the same cutlab package as this process, installed or not
    package_root = str(Path(cutlab.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "cutlab.cli", *argv],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
            },
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == a.read_text()
    report(12, "gap-table CSVs byte-identical across runs and interpreters")
