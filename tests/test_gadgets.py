import itertools
import re
from fractions import Fraction

import pytest

import helpers
from cutlab import gadgets
from cutlab.errors import CoordinateOutOfRange, ParamOutOfRange, SizeGuard
from cutlab.probspace import product_mass
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
    SaksParams,
    harmonic,
    star_noise_space,
    support,
)
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    Multicut,
    WeightedGraph,
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

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_NODES", 1000)
        with pytest.raises(SizeGuard):
            build_saks_gap(10, 7)

    def test_size_guard_before_the_power(self, monkeypatch):
        # (10**6)**(10**6) has six million digits; k alone refuses
        with pytest.raises(SizeGuard, match=r"over 200000 nodes \(cap 200000\)"):
            build_saks_gap(10**6, 10**6)
        # a count too long for Python to print is named by the cap
        with pytest.raises(SizeGuard, match=r"over 200000 nodes \(cap 200000\)"):
            build_saks_gap(10**250, 18)
        # from k > DEFAULT_MAX_NODES.bit_length() on
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_NODES", 100)
        with pytest.raises(SizeGuard, match=r"over 100 nodes"):
            build_saks_gap(2, 8)

    def test_edge_guard(self):
        # 131,106 nodes fit the node cap, but each of the 2^17 grid points
        # has 2^17 - 1 neighbours
        edges = 17 * 2**17 + 4**17 - 2**17
        with pytest.raises(SizeGuard, match=rf"would have {edges} edges \(cap 500000\)"):
            build_saks_gap(2, 17)


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

    def test_record_of_another_family_refused(self):
        # the dict-v record has every field dict-e reads, so without the
        # check this built a dict-e test and returned a cut of cost 5/8
        p = DictParamsV(1, 1, 2, 1, Fraction(1, 5))
        with pytest.raises(ParamOutOfRange, match="dict_edge takes DictParamsE, not DictParamsV"):
            dictator_cut("dict_edge", p, 0)


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

    def test_node_guard_precedes_the_noise_space(self, monkeypatch):
        # the edge noise space is r^2 Fractions, 10^10 at r = 10^5
        def unbuilt(r):
            raise AssertionError("noise space was built")

        monkeypatch.setattr(gadgets, "edge_noise_space", unbuilt)
        with pytest.raises(SizeGuard, match=r"would have 10000100002 nodes \(cap 200000\)"):
            build_dict_edge(DictParamsE(1, 10**5, 10**5, 1))

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

    def test_refused_before_the_gap_path(self, monkeypatch):
        """a=1, b=20000 passes the node cap (60,003 nodes), but its gap path
        has about 2 * 10^8 arcs; the edge guard refuses it from the params
        before the gap path or the noise space is made."""

        def unmade(*args):
            raise AssertionError("made before the refusal")

        monkeypatch.setattr(gadgets, "vertex_gap_path", unmade)
        monkeypatch.setattr(gadgets, "star_noise_space", unmade)
        with pytest.raises(SizeGuard, match=r"would have 1400190006 edges \(cap 500000\)"):
            build_dict_vertex(DictParamsV(1, 20000, 2, 1, Fraction(1, 5)))


@pytest.mark.parametrize(
    "p",
    [
        DictParamsE(4, 3, 2, 1),
        DictParamsE(2, 1, 2, 1),
        DictParamsE(3, 2, 3, 1),
        DictParamsV(4, 4, 3, 1, Fraction(1, 20)),
        DictParamsV(3, 1, 3, 1, Fraction(1, 7)),
        DictParamsV(2, 2, 4, 1, Fraction(1, 9)),
    ],
    ids=str,
)
def test_need_is_the_builds_length_bound(p):
    """``need`` is a(b-r+1) for dict-e and a(b-r+2) for dict-v, and 1 where
    that is 0 (b = r-1 and b = r-2): the bound every build writes."""
    offset = 1 if isinstance(p, DictParamsE) else 2
    build = build_dict_edge if isinstance(p, DictParamsE) else build_dict_vertex
    assert p.need == max(1, p.a * (p.b - p.r + offset)) == build(p).problem.bound


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

    def test_edge_guard(self):
        # 33,616 nodes; the one block of moves has 19^5 edges
        with pytest.raises(SizeGuard, match=r"would have 2509713 edges \(cap 500000\)"):
            build_dict_rmfc(DictParamsF(2, 5, Fraction(1, 100)))

    def test_one_layer_lists_no_moves(self, monkeypatch):
        # one layer has only its end edges; its (*, 1)^R block would list
        # 4^R moves
        def unlisted(space, x):
            raise AssertionError("moves were listed")

        monkeypatch.setattr(gadgets, "support", unlisted)
        inst = build_dict_rmfc(DictParamsF(1, 3, Fraction(1, 3)))
        assert len(inst.graph.edges) == 2 * 2**3


class TestEdgeGuard:
    CASES = [
        (build_dict_multicut, DictParamsM(2, 2, 1, Fraction(1, 5))),
        (build_dict_multicut, DictParamsM(3, 2, 2, Fraction(1, 10))),
        (build_dict_multicut, DictParamsM(2, 3, 1, Fraction(1, 5))),
        (build_dict_edge, DictParamsE(2, 3, 2, 3)),
        (build_dict_edge, DictParamsE(4, 3, 3, 2)),
        (build_dict_vertex, DictParamsV(2, 3, 3, 2, Fraction(1, 20))),
        (build_dict_vertex, DictParamsV(1, 1, 2, 2, Fraction(1, 5))),
        (lambda p: build_saks_gap(*p), (3, 2)),
        (lambda p: build_saks_gap(*p), (2, 4)),
        (build_dict_rmfc, DictParamsF(2, 2, Fraction(1, 100))),
        (build_dict_rmfc, DictParamsF(1, 2, Fraction(1, 3))),
        (build_dict_rmfc, DictParamsF(3, 1, Fraction(1, 1000))),
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


class TestDeclaredCounts:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("saks", "r=3,k=2"),
            ("saks", "r=2,k=4"),
            ("dict-m", "r=2,k=2,R=1,eps=1/5"),
            ("dict-m", "r=3,k=2,R=2,eps=1/10"),
            ("dict-m", "r=2,k=3,R=1,eps=1/5"),
            ("dict-e", "a=2,b=3,r=2,R=2"),
            ("dict-e", "a=1,b=2,r=3,R=1"),
            ("dict-v", "a=1,b=1,r=2,R=2,eps=1/5"),
            ("dict-v", "a=2,b=3,r=3,R=1,eps=1/20"),
        ],
    )
    def test_cuttable_matches_the_build(self, family, params):
        from cutlab.cli import parse_params

        fam = gadgets.FAMILIES[family]
        p = fam.params(parse_params(params))
        built = fam.build(p)
        assert fam.cuttable(p) == len(built.cuttable_elements())

    @pytest.mark.parametrize(
        "family, params",
        [
            ("saks", "r=2,k=2"),
            ("dict-m", "r=2,k=2,R=1,eps=1/5"),
            ("dict-e", "a=1,b=2,r=3,R=1"),
            ("dict-v", "a=1,b=1,r=2,R=2,eps=1/5"),
            ("dict-f", "b=2,R=1,eps=1/100"),
        ],
    )
    def test_problem_matches_the_build(self, family, params):
        from cutlab.cli import parse_params

        fam = gadgets.FAMILIES[family]
        built = fam.build(fam.params(parse_params(params)))
        assert type(built.problem) is fam.problem
        assert built.mode == fam.mode

    @pytest.mark.parametrize(
        "family, params",
        [
            ("saks", SaksParams(2, 10**9)),
            ("dict-m", DictParamsM(2, 2, 10**9, Fraction(1, 5))),
            ("dict-e", DictParamsE(1, 1, 2, 10**9)),
            ("dict-v", DictParamsV(1, 1, 2, 10**9, Fraction(1, 5))),
        ],
    )
    def test_huge_exponent_refused_uncounted(self, family, params):
        with pytest.raises(SizeGuard, match=r"over 40 cuttable elements \(cap 40\)"):
            gadgets.FAMILIES[family].cuttable(params)


class TestEpsRange:
    @pytest.mark.parametrize(
        "record, bound, message",
        [
            (lambda eps: DictParamsM(3, 2, 1, eps), Fraction(1, 6), "1/(2r)"),
            (lambda eps: DictParamsV(1, 1, 3, 1, eps), Fraction(1, 6), "1/(2r)"),
            (lambda eps: DictParamsF(2, 1, eps), Fraction(1, 12), "1/(2B)"),
        ],
        ids=["dict-m", "dict-v", "dict-f"],
    )
    def test_bounds_and_coercion(self, record, bound, message):
        # the bound is 1/(2r) at r = 3 and 1/(2B) at b = 2, where B = 6
        for eps in (Fraction(0), bound, Fraction(-1, 7)):
            with pytest.raises(ParamOutOfRange, match=rf"need 0 < eps < {re.escape(message)}"):
                record(eps)
        assert record("1/20").eps == Fraction(1, 20)
        assert isinstance(record("1/20").eps, Fraction)


class TestBlowUp:
    def test_path_instance(self):
        """s -> a -> b -> t, with a and b cuttable: each block carries w_v
        times the point mass, the terminal arcs fan out point by point, the
        arc a -> b joins x to its support, and a coordinate dictator cut
        costs eps W + (1 - eps) W / r and disconnects the pair."""
        g = WeightedGraph()
        for v, w in [("s", None), ("t", None), ("a", Fraction(2)), ("b", Fraction(1, 2))]:
            g.add_node(v, w)
        g.add_edges([("s", "a", True, 1, None), ("a", "b", True, 1, None), ("b", "t", True, 1, None)])
        gap = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        noise = star_noise_space(2, Fraction(1, 5))
        test = gadgets._blow_up(gap, noise, 2, {"generator": "path"})
        h = test.graph
        points = list(itertools.product(noise.left.atoms, repeat=2))
        a = [gadgets.point_id("a", x) for x in points]
        b = [gadgets.point_id("b", x) for x in points]
        assert h.nodes == ["s", "t", *a, *b]
        for x, u, v in zip(points, a, b):
            assert h.node_weight(u) == 2 * product_mass(noise.left, x)
            assert h.node_weight(v) == product_mass(noise.left, x) / 2
        moves = [
            (gadgets.point_id("a", x), gadgets.point_id("b", y))
            for x in points
            for y in support(noise, x)
        ]
        expect = [("s", u) for u in a] + moves + [(v, "t") for v in b]
        assert [(e.tail, e.head) for e in h.edges] == expect
        assert (test.mode, test.problem, test.provenance) == (VERTEX, gap.problem, {"generator": "path"})
        for q in range(2):
            cut = {
                v for v in a + b if gadgets.split_block_point(v)[1][q] in (gadgets.STAR, 0)
            }
            assert sum(h.node_weight(v) for v in cut) == Fraction(5, 2) * (
                Fraction(1, 5) + Fraction(4, 5) / 2
            )
            assert shortest_path_length(h, "s", "t", cut) is None

    def test_no_block_to_block_arc_lists_no_moves(self, monkeypatch):
        """s -> a -> t: both arcs join a terminal to a, so none of the
        block's 7^8 moves is listed and ``support`` is never called; the two
        arcs are consecutive at a, so they interleave point by point."""

        def unlisted(space, x):
            raise AssertionError("moves were listed")

        monkeypatch.setattr(gadgets, "support", unlisted)
        g = WeightedGraph()
        for v, w in [("s", None), ("t", None), ("a", Fraction(2))]:
            g.add_node(v, w)
        g.add_edges([("s", "a", True, 1, None), ("a", "t", True, 1, None)])
        gap = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        noise = star_noise_space(2, Fraction(1, 5))
        h = gadgets._blow_up(gap, noise, 8, {"generator": "path"}).graph
        points = list(itertools.product(noise.left.atoms, repeat=8))
        a = [gadgets.point_id("a", x) for x in points]
        assert h.nodes == ["s", "t", *a]
        for x, u in zip(points, a):
            assert h.node_weight(u) == 2 * product_mass(noise.left, x)
        expect = [edge for u in a for edge in [("s", u), (u, "t")]]
        assert [(e.tail, e.head) for e in h.edges] == expect

    @staticmethod
    def blown_rows(arcs, R=1):
        """The rows of the blow-up, by the star space at r = 2, of a gap
        instance on s, t and blocks a and b with the given (tail, head,
        length) arcs, and each block's point ids."""
        g = WeightedGraph()
        for v, w in [("s", None), ("t", None), ("a", Fraction(1)), ("b", Fraction(1))]:
            g.add_node(v, w)
        g.add_edges((tail, head, False, length, None) for tail, head, length in arcs)
        gap = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        noise = star_noise_space(2, Fraction(1, 5))
        test = gadgets._blow_up(gap, noise, R, {"generator": "path"})
        points = list(itertools.product(noise.left.atoms, repeat=R))
        ids = {v: [gadgets.point_id(v, x) for x in points] for v in "ab"}
        return [row[:2] + row[3:4] for row in test.graph.edge_rows], ids

    def test_consecutive_terminal_arcs_at_a_block_interleave(self):
        # three arcs at a in a row, in both directions: at each point, each
        # arc of the run in the run's order; then b's run of one
        rows, ids = self.blown_rows(
            [("s", "a", 1), ("a", "t", 2), ("t", "a", 3), ("b", "t", 4)], R=2
        )
        expect = [arc for u in ids["a"] for arc in [("s", u, 1), (u, "t", 2), ("t", u, 3)]]
        assert rows == expect + [(v, "t", 4) for v in ids["b"]]

    def test_terminal_arcs_apart_fan_out_arc_by_arc(self):
        # s -> a and a -> t are split by a -> b, and s -> a, s -> b meet
        # different blocks: each arc fans out over its block alone
        rows, ids = self.blown_rows([("s", "a", 1), ("s", "b", 2), ("a", "b", 3), ("a", "t", 4)])
        noise = star_noise_space(2, Fraction(1, 5))
        moves = [
            (gadgets.point_id("a", (x,)), gadgets.point_id("b", y), 3)
            for x in noise.left.atoms
            for y in support(noise, (x,))
        ]
        assert rows == [
            *[("s", u, 1) for u in ids["a"]],
            *[("s", v, 2) for v in ids["b"]],
            *moves,
            *[(u, "t", 4) for u in ids["a"]],
        ]

    def test_terminal_to_terminal_arc_stays_one_edge(self):
        # s -> t is one edge, and between two arcs at a it splits their run
        rows, ids = self.blown_rows([("s", "t", 5), ("s", "a", 1), ("s", "t", 6), ("a", "t", 2)])
        assert rows == [
            ("s", "t", 5),
            *[("s", u, 1) for u in ids["a"]],
            ("s", "t", 6),
            *[(u, "t", 2) for u in ids["a"]],
        ]


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
