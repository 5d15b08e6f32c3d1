import itertools
from fractions import Fraction

import pytest

import helpers
from cutlab import gadgets
from cutlab.errors import CoordinateOutOfRange, ParamOutOfRange, SizeGuard
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
    edge_noise_space,
    fire_alphabet_size,
    fire_noise_space,
    fire_thresholds,
    harmonic,
    star_noise_space,
    support,
)
from cutlab.graphs import (
    EDGE,
    VERTEX,
    Multicut,
    instance_to_json_str,
    min_weight_path,
    shortest_path_length,
)


class TestSaksGap:
    def test_node_count_r3_k2(self):
        inst = build_saks_gap(3, 2)
        assert len(inst.graph.nodes) == 13  # 9 grid + 4 terminals

    def test_grid_weights_are_unit(self):
        inst = build_saks_gap(2, 2)
        assert helpers.total_finite_weight(inst.graph, VERTEX) == 4

    def test_uniform_fraction_covers_every_pair_path(self):
        # x = 1/r on every grid vertex is feasible with value r^(k-1)
        for r, k in [(2, 2), (3, 2), (2, 3)]:
            inst = build_saks_gap(r, k)
            x = {
                v: Fraction(1, r)
                for v in inst.graph.cuttable_elements(VERTEX)
            }
            assert isinstance(inst.problem, Multicut)
            for s, t in inst.problem.pairs:
                found = min_weight_path(inst.graph, s, t, x, VERTEX)
                assert found is not None and found[1] >= 1
            assert sum(x.values()) == Fraction(r) ** (k - 1)  # unit weights

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            build_saks_gap(1, 2)

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            build_saks_gap(10, 7, max_nodes=1000)

    def test_size_guard_before_the_power(self):
        # (10**6)**(10**6) has six million digits; k alone refuses
        with pytest.raises(SizeGuard, match=r"over 200000 nodes \(cap 200000\)"):
            build_saks_gap(10**6, 10**6)
        # from k > max_nodes.bit_length() on
        with pytest.raises(SizeGuard, match=r"over 100 nodes"):
            build_saks_gap(2, 8, max_nodes=100)


class TestDictMulticut:
    def test_total_weight_is_grid_count(self):
        p = DictParamsM(2, 2, 1, Fraction(1, 20))
        inst = build_dict_multicut(p)
        assert helpers.total_finite_weight(inst.graph, VERTEX) == Fraction(2) ** 2

    def test_node_count_single_coordinate(self):
        for r, k in [(2, 2), (3, 2)]:
            p = DictParamsM(r, k, 1, Fraction(1, 20))
            inst = build_dict_multicut(p)
            assert len(inst.graph.nodes) == (r + 1) * r**k + 2 * k

    @pytest.mark.parametrize(
        "r,k,R", [(2, 2, 1), (3, 2, 1), (2, 2, 2)]
    )
    def test_dictator_cut_disconnects_every_pair(self, r, k, R):
        p = DictParamsM(r, k, R, Fraction(1, 20))
        inst = build_dict_multicut(p)
        for q in range(R):
            cut = dictator_cut("dict_multicut", p, q, inst)
            assert cut.cost == Fraction(r) ** k * (
                p.eps + (1 - p.eps) / r
            )
            for s, t in inst.problem.pairs:
                assert shortest_path_length(inst.graph, s, t, cut.elements) is None

    def test_dictator_cost_bound(self):
        p = DictParamsM(3, 2, 1, Fraction(1, 20))
        cut = dictator_cut("dict_multicut", p, 0)
        r, k = Fraction(3), 2
        assert cut.cost <= r ** (k - 1) * (1 + p.eps * r)

    def test_eps_range_enforced(self):
        with pytest.raises(ParamOutOfRange):
            DictParamsM(3, 2, 1, Fraction(1, 6))

    def test_coordinate_out_of_range(self):
        p = DictParamsM(2, 2, 1, Fraction(1, 20))
        with pytest.raises(CoordinateOutOfRange):
            dictator_cut("dict_multicut", p, 1)


class TestDictEdge:
    def test_total_finite_weight_is_b(self):
        p = DictParamsE(4, 3, 2, 1)
        inst = build_dict_edge(p)
        assert helpers.total_finite_weight(inst.graph, EDGE) == 3

    def test_per_layer_short_weight_is_one(self):
        p = DictParamsE(2, 2, 3, 1)
        inst = build_dict_edge(p)
        per_layer = {}
        for e in inst.graph.edges:
            if e.weight is None:
                continue
            layer = e.tail.split("/")[0]
            per_layer[layer] = per_layer.get(layer, Fraction(0)) + e.weight
        assert all(v == 1 for v in per_layer.values())
        assert len(per_layer) == 2

    @pytest.mark.parametrize("a,b,r,expect", [(4, 3, 2, 8), (4, 5, 3, 12)])
    def test_dictator_cut_distance(self, a, b, r, expect):
        p = DictParamsE(a, b, r, 1)
        inst = build_dict_edge(p)
        cut = dictator_cut("dict_edge", p, 0, inst)
        assert cut.cost <= Fraction(2 * b, r)
        dist = shortest_path_length(inst.graph, "s", "t", cut.elements)
        assert dist is not None and dist >= expect

    def test_cut_weight_matches_event_mass(self):
        # direct summation over the joint distribution is the oracle
        p = DictParamsE(4, 3, 2, 1)
        noise = edge_noise_space(2)
        event = Fraction(0)
        for (x, y), m in noise.joint.items():
            if y != (x + 1) % 2 or (x, y) == (0, 1):
                event += m
        cut = dictator_cut("dict_edge", p, 0)
        assert cut.cost == 3 * event == Fraction(15, 8)

    def test_multi_coordinate_cut_weight(self):
        p = DictParamsE(4, 3, 2, 2)
        inst = build_dict_edge(p)
        noise = edge_noise_space(2)
        event = Fraction(0)
        for (x, y), m in noise.joint.items():
            if y != (x + 1) % 2 or (x, y) == (0, 1):
                event += m
        for q in range(2):
            cut = dictator_cut("dict_edge", p, q, inst)
            assert cut.cost == 3 * event
            assert shortest_path_length(inst.graph, "s", "t", cut.elements) >= 8


class TestDictVertex:
    def test_total_weight(self):
        p = DictParamsV(4, 4, 3, 1, Fraction(1, 20))
        inst = build_dict_vertex(p)
        assert helpers.total_finite_weight(inst.graph, VERTEX) == 5

    def test_dictator_cut_weight_and_distance(self):
        p = DictParamsV(4, 4, 3, 1, Fraction(1, 20))
        inst = build_dict_vertex(p)
        cut = dictator_cut("dict_vertex", p, 0, inst)
        assert cut.cost == (p.b + 1) * (p.eps + (1 - p.eps) / p.r) == Fraction(11, 6)
        dist = shortest_path_length(inst.graph, "s", "t", cut.elements)
        assert dist is not None and dist >= 4 * (4 - 3 + 2)

    def test_terminal_edge_lengths(self):
        p = DictParamsV(2, 3, 2, 1, Fraction(1, 5))
        inst = build_dict_vertex(p)
        g = inst.graph
        # s attaches to layer i at length a*i + 1
        for e in g.edges:
            if e.tail == "s":
                layer = int(e.head.split("]")[0][2:])
                assert e.length == 2 * layer + 1
            if e.head == "t":
                layer = int(e.tail.split("]")[0][2:])
                assert e.length == (3 - layer) * 2 + 1


class TestDictRmfc:
    def test_alphabet_and_thresholds_b2(self):
        assert fire_alphabet_size(2) == 6
        assert harmonic(2) == Fraction(3, 2)
        assert fire_thresholds(2) == [0, 4, 6]

    def test_non_integer_threshold_raises(self, monkeypatch):
        from cutlab import gadgets
        from cutlab.errors import CertificateFailed

        # B = 7 with b = 2 gives B_1 = (1 / (3/2)) * 7 = 14/3
        monkeypatch.setattr(gadgets, "fire_alphabet_size", lambda b: 7)
        with pytest.raises(CertificateFailed, match="B_1 = 14/3"):
            fire_thresholds(2)

    def test_layer_weights(self):
        p = DictParamsF(2, 1, Fraction(1, 100))
        inst = build_dict_rmfc(p)
        g = inst.graph
        per_layer = {}
        for v in g.nodes:
            w = g.node_weight(v)
            if w is None:
                continue
            layer = v.split("]")[0][2:]
            per_layer[layer] = per_layer.get(layer, Fraction(0)) + w
        assert per_layer == {"1": Fraction(1), "2": Fraction(2)}
        assert helpers.total_finite_weight(g, VERTEX) == Fraction(3)

    def test_schedule_costs(self):
        p = DictParamsF(2, 1, Fraction(1, 100))
        schedule = dictator_cut("dict_rmfc", p, 0)
        bound = 2 * p.eps + 1 / harmonic(2)
        assert all(c <= bound for c in schedule.per_day_cost)
        assert schedule.per_day_cost == (Fraction(67, 100), Fraction(68, 100))

    def test_depth_guard(self):
        with pytest.raises(SizeGuard):
            build_dict_rmfc(DictParamsF(5, 1, Fraction(1, 10**9)))


class TestEdgeGuard:
    CASES = [
        (build_dict_multicut, DictParamsM(2, 2, 1, Fraction(1, 5))),
        (build_dict_multicut, DictParamsM(3, 2, 2, Fraction(1, 10))),
        (build_dict_multicut, DictParamsM(2, 3, 1, Fraction(1, 5))),
        (build_dict_edge, DictParamsE(2, 3, 2, 3)),
        (build_dict_edge, DictParamsE(4, 3, 3, 2)),
        (build_dict_vertex, DictParamsV(2, 3, 3, 2, Fraction(1, 20))),
        (build_dict_vertex, DictParamsV(1, 1, 2, 2, Fraction(1, 5))),
    ]

    @pytest.mark.parametrize("build, params", CASES)
    def test_count_is_exact(self, build, params, monkeypatch):
        # build counts its edges before it makes them: a cap of that count
        # passes and one less refuses
        edges = len(build(params).graph.edges)
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_EDGES", edges)
        assert len(build(params).graph.edges) == edges
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_EDGES", edges - 1)
        with pytest.raises(SizeGuard, match=rf"would have {edges} edges \(cap {edges - 1}\)"):
            build(params)

    def test_refuses_before_building(self):
        # 78,732 nodes, under the node cap, and 484,400,748 edges; the build
        # ran for minutes before the edge cap
        with pytest.raises(SizeGuard, match="484400748 edges"):
            build_dict_multicut(DictParamsM(2, 2, 9, Fraction(1, 5)))


class TestDeterminism:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_saks_gap(3, 2),
            lambda: build_dict_multicut(DictParamsM(2, 2, 1, Fraction(1, 20))),
            lambda: build_dict_edge(DictParamsE(4, 3, 2, 1)),
            lambda: build_dict_vertex(DictParamsV(4, 4, 3, 1, Fraction(1, 20))),
            lambda: build_dict_rmfc(DictParamsF(2, 1, Fraction(1, 100))),
        ],
    )
    def test_identical_params_identical_json(self, build):
        assert instance_to_json_str(build()) == instance_to_json_str(build())


class TestSupport:
    # filtering every point pair by its product joint mass is the oracle
    @pytest.mark.parametrize(
        "noise",
        [
            edge_noise_space(3),
            star_noise_space(3, Fraction(1, 20)),
            fire_noise_space(3, Fraction(1, 10)),
        ],
        ids=["edge", "star", "fire"],
    )
    def test_matches_positive_mass_filter(self, noise):
        points = list(itertools.product(noise.left.atoms, repeat=2))
        for x in points:
            expect = [y for y in points if noise.product_pair_mass(x, y) > 0]
            assert list(support(noise, x)) == expect
