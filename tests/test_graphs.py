import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import helpers
from helpers import expand_node_weights
from cutlab import gadgets, graphs, lp, solvers, ug
from cutlab.cli import main, parse_params
from cutlab.errors import MalformedInstance, NoFiniteCut, RemovingUncuttable, UnknownNode
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    GraphEdge,
    LengthBound,
    Multicut,
    Rmfc,
    WeightedGraph,
    _JSON_BLOCK,
    _scaled_costs,
    constrained_min_weight_path,
    instance_from_json,
    instance_from_json_str,
    instance_to_json_str,
    min_st_cut,
    min_weight_path,
    parse_rational,
    shortest_path_length,
)


def chain_graph(*, weights=None):
    # s - a - b - t with unit lengths
    g = WeightedGraph()
    weights = weights or {}
    for v in ("s", "a", "b", "t"):
        g.add_node(v, weights.get(v))
    g.add_edge("s", "a", directed=False, weight=Fraction(1))
    g.add_edge("a", "b", directed=False, weight=Fraction(1))
    g.add_edge("b", "t", directed=False, weight=Fraction(1))
    return g


class TestShortestPath:
    def test_three_edge_path(self):
        g = chain_graph(weights={"a": Fraction(1), "b": Fraction(1)})
        assert shortest_path_length(g, "s", "t") == 3

    def test_removing_interior_node_disconnects(self):
        g = chain_graph(weights={"a": Fraction(1), "b": Fraction(1)})
        assert shortest_path_length(g, "s", "t", removed={"a"}) is None

    def test_directed_edges_one_way(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("t", "s", directed=True)
        assert shortest_path_length(g, "s", "t") is None
        assert shortest_path_length(g, "t", "s") == 1

    def test_unknown_node(self):
        g = chain_graph()
        with pytest.raises(UnknownNode):
            shortest_path_length(g, "s", "zzz")

    def test_removing_uncuttable_rejected(self):
        g = chain_graph()  # all nodes uncuttable by default
        with pytest.raises(RemovingUncuttable):
            shortest_path_length(g, "s", "t", removed={"a"})

    def test_never_increases_when_removed_shrinks(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = helpers.random_instance(rng, "length_bound", EDGE)
            g = inst.graph
            cuttable = g.cuttable_elements(EDGE)
            removed = [e for e in cuttable if rng.random() < 0.4]
            smaller = [e for e in removed if rng.random() < 0.5]
            d_small = shortest_path_length(g, "S", "T", smaller)
            d_big = shortest_path_length(g, "S", "T", removed)
            if d_big is None:
                continue
            assert d_small is not None and d_small <= d_big


def test_random_instance_caps_cuttable_edges():
    """``random_instance`` refuses more cuttable edges than ``max_cuttable``
    (12 interior nodes make a 13-edge backbone); the check is a raise, so
    it also holds under python -O."""
    with pytest.raises(ValueError, match="13 cuttable edges exceed max_cuttable = 10"):
        helpers.random_instance(random.Random(0), "length_bound", EDGE, n_nodes=12)


class TestMinStCut:
    def test_two_parallel_unit_two_paths(self):
        # parallel s->t unit edges, each split through a unit-weight node
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        g.add_node("m1", Fraction(1))
        g.add_node("m2", Fraction(1))
        for m in ("m1", "m2"):
            g.add_edge("s", m, directed=True)
            g.add_edge(m, "t", directed=True)
        value, cut = min_st_cut(g, "s", "t", VERTEX)
        assert value == 2
        assert cut == frozenset({"m1", "m2"})

    def test_single_weighted_node(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("a", Fraction(5))
        g.add_node("t")
        g.add_edge("s", "a", directed=True)
        g.add_edge("a", "t", directed=True)
        value, cut = min_st_cut(g, "s", "t", VERTEX)
        assert (value, cut) == (Fraction(5), frozenset({"a"}))

    def test_no_finite_cut(self):
        g = chain_graph()
        g_edgeless = g
        # make one s-t path fully uncuttable in edge mode
        g_edgeless.add_edge("s", "t", directed=False, weight=None)
        with pytest.raises(NoFiniteCut):
            min_st_cut(g_edgeless, "s", "t", EDGE)

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_matches_subset_brute_force(self, mode):
        rng = random.Random(11)
        for trial in range(25):
            inst = helpers.random_instance(
                rng, "length_bound", mode, n_nodes=4, extra_edges=3, max_cuttable=8
            )
            g = inst.graph
            oracle = helpers.brute_force_min_disconnect(g, "S", "T", mode)
            value, cut = min_st_cut(g, "S", "T", mode)
            assert oracle is not None
            assert value == oracle[0], f"trial {trial}"
            assert shortest_path_length(g, "S", "T", cut) is None

    @pytest.mark.parametrize("kind", ["multicut", "length_bound"])
    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_matches_fraction_reference(self, kind, mode):
        """The flow on integer capacities over the lcm gives the value and
        the cut of the flow on the Fraction weights, which random_instance
        draws as p/q with q up to 3."""
        rng = random.Random(29)
        for trial in range(30):
            inst = helpers.random_instance(rng, kind, mode, n_nodes=7, extra_edges=6)
            for s, t in inst.problem.pairs if kind == "multicut" else [("S", "T")]:
                got = min_st_cut(inst.graph, s, t, mode)
                assert got == helpers.reference_min_st_cut(inst.graph, s, t, mode), f"trial {trial}"

    def test_invariant_under_weight_duplication(self):
        rng = random.Random(3)
        for _ in range(10):
            g = WeightedGraph()
            g.add_node("s")
            g.add_node("t")
            for i in range(4):
                g.add_node(f"v{i}", Fraction(rng.randint(1, 3)))
            nodes = [f"v{i}" for i in range(4)]
            g.add_edge("s", nodes[0], directed=True)
            g.add_edge(nodes[-1], "t", directed=True)
            for _ in range(6):
                a, b = rng.sample(["s", "t"] + nodes, 2)
                if b == "s" or a == "t":
                    a, b = b, a
                g.add_edge(a, b, directed=True)
            try:
                base, _ = min_st_cut(g, "s", "t", VERTEX)
            except NoFiniteCut:
                with pytest.raises(NoFiniteCut):
                    min_st_cut(expand_node_weights(g), "s", "t", VERTEX)
                continue
            expanded, _ = min_st_cut(expand_node_weights(g), "s", "t", VERTEX)
            assert base == expanded


class TestConstrainedMinWeightPath:
    def test_bound_not_met(self):
        g = chain_graph()
        assert constrained_min_weight_path(g, "s", "t", {}, 3, EDGE) is None

    def test_unit_weights_three_edges(self):
        g = chain_graph()
        x = {i: Fraction(1) for i in range(3)}
        found = constrained_min_weight_path(g, "s", "t", x, 4, EDGE)
        assert found is not None
        path, weight = found
        assert weight == 3 and path.length == 3

    def test_diamond_adversarial_matches_enumeration(self):
        # two branches: 2 edges vs 5 unit edges; enumeration is the oracle
        rng = random.Random(5)
        g = WeightedGraph()
        for v in ("s", "t", "a", "b", "c", "d", "e"):
            g.add_node(v)
        short_branch = [
            g.add_edge("s", "a", directed=False, weight=Fraction(1)),
            g.add_edge("a", "t", directed=False, weight=Fraction(1)),
        ]
        long_nodes = ["b", "c", "d", "e"]
        prev = "s"
        long_branch = []
        for v in long_nodes + ["t"]:
            long_branch.append(g.add_edge(prev, v, directed=False, weight=Fraction(1)))
            prev = v
        for bound in (2, 3, 4, 6):
            for _ in range(20):
                x = {
                    i: Fraction(rng.randint(0, 6), rng.randint(1, 3))
                    for i in short_branch + long_branch
                }
                oracle = None
                for nodes, edges in helpers.all_simple_paths(g, "s", "t"):
                    if helpers.path_length(g, edges) >= bound:
                        continue
                    w = helpers.path_x_weight(g, nodes, edges, x, EDGE)
                    if oracle is None or w < oracle:
                        oracle = w
                found = constrained_min_weight_path(g, "s", "t", x, bound, EDGE)
                if oracle is None:
                    assert found is None
                else:
                    assert found is not None and found[1] == oracle

    def test_loose_bound_agrees_with_dijkstra(self):
        rng = random.Random(13)
        for _ in range(20):
            mode = VERTEX if rng.random() < 0.5 else EDGE
            inst = helpers.random_instance(rng, "length_bound", mode)
            g = inst.graph
            x = {
                el: Fraction(rng.randint(0, 5), rng.randint(1, 4))
                for el in g.cuttable_elements(mode)
            }
            loose = 1 + helpers.total_length(g)
            a = constrained_min_weight_path(g, "S", "T", x, loose, mode)
            b = min_weight_path(g, "S", "T", x, mode)
            assert (a is None) == (b is None)
            if a is not None:
                assert a[1] == b[1]

    def test_returned_path_is_simple(self):
        # with x all zero every walk costs 0, and only the least length
        # among the least-cost states keeps the returned walk simple
        for mode, zero in [(EDGE, False), (VERTEX, False), (EDGE, True), (VERTEX, True)]:
            rng = random.Random(17)
            for _ in range(20):
                inst = helpers.random_instance(rng, "length_bound", mode)
                g = inst.graph
                x = {
                    el: Fraction(0 if zero else rng.randint(0, 3))
                    for el in g.cuttable_elements(mode)
                }
                found = constrained_min_weight_path(g, "S", "T", x, 6, mode)
                if found is None:
                    continue
                path, weight = found
                assert len(set(path.nodes)) == len(path.nodes)
                assert path.length < 6
                assert weight == helpers.path_x_weight(g, path.nodes, path.edges, x, mode)


def mixed_x(rng: random.Random, elements) -> dict:
    """x over ``elements`` with denominators 1..12, about a third zero."""
    return {
        el: Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if rng.random() < 2 / 3
        else Fraction(0)
        for el in elements
    }


def recorded_oracle_calls(monkeypatch, name, run):
    """The argument lists ``lp`` passed to the oracle ``name`` while
    ``run()`` solved an LP: one per pair and cutting-plane round."""
    calls = []
    real = getattr(lp, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, name, record)
    run()
    return calls


def negative_middle_graph():
    # s->a, a->b, a->t, s->b, b->t; only a->b would make s-a-b-t cheapest
    g = WeightedGraph()
    for v in ("s", "a", "b", "t"):
        g.add_node(v)
    for tail, head in (("s", "a"), ("a", "b"), ("a", "t"), ("s", "b"), ("b", "t")):
        g.add_edge(tail, head, directed=True, weight=Fraction(1))
    return g


ORACLES = {
    "dp": lambda g, x, mode: constrained_min_weight_path(g, "s", "t", x, 4, mode),
    "dijkstra": lambda g, x, mode: min_weight_path(g, "s", "t", x, mode),
}


class TestScaledCosts:
    def test_common_denominator(self):
        g = chain_graph()
        x = {0: Fraction(1, 4), 1: Fraction(0), 2: Fraction(5, 6)}
        assert _scaled_costs(g, x, EDGE) == (12, {0: 3, 2: 10})

    def test_integers_keep_scale_one(self):
        g = chain_graph(weights={"a": Fraction(2)})
        # a vertex-mode cost is keyed by the node's int in g.index()
        assert _scaled_costs(g, {"a": 3}, VERTEX) == (1, {1: 3})
        assert _scaled_costs(g, {}, VERTEX) == (1, {})

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_negative_x_rejected(self, oracle):
        # with x(a->b) = -5 the true minimum is s-a-b-t at -4, which a
        # search that trusts nonnegative costs misses (it answers s-b-t at 0)
        g = negative_middle_graph()
        x = {0: Fraction(1), 1: Fraction(-5), 2: Fraction(0), 3: Fraction(0), 4: Fraction(0)}
        with pytest.raises(ValueError, match="nonnegative"):
            ORACLES[oracle](g, x, EDGE)

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    @pytest.mark.parametrize(
        "mode, x",
        [
            (EDGE, {99999: Fraction(1, 2)}),
            (EDGE, {"a": Fraction(1)}),
            (VERTEX, {0: Fraction(1)}),
            (VERTEX, {"z": Fraction(0)}),
        ],
        ids=["edge-index", "node-in-edge-mode", "edge-in-vertex-mode", "missing-node"],
    )
    def test_unknown_element_rejected(self, oracle, mode, x):
        with pytest.raises(UnknownNode):
            ORACLES[oracle](negative_middle_graph(), x, mode)

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    @pytest.mark.parametrize(
        "value", [0.5, 0.0, True, "1/2"], ids=["float", "zero-float", "bool", "str"]
    )
    def test_non_rational_value_rejected(self, oracle, value):
        with pytest.raises(ValueError, match="not an int or Fraction"):
            ORACLES[oracle](negative_middle_graph(), {0: value}, EDGE)

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_positive_x_on_uncuttable_rejected(self, oracle):
        g = chain_graph()
        g.add_edge("s", "t", directed=False, length=5)
        with pytest.raises(ValueError, match="uncuttable"):
            ORACLES[oracle](g, {3: Fraction(1, 3)}, EDGE)
        assert ORACLES[oracle](g, {3: Fraction(0)}, EDGE) is not None


class TestScaledOraclesMatchFractionReference:
    """The integer searches return the same path, not only the same weight,
    as the Fraction reference searches, so ties break the same way."""

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    @pytest.mark.parametrize("kind", ["length_bound", "multicut"])
    def test_random_instances(self, kind, mode):
        rng = random.Random(f"{kind}-{mode}")
        for trial in range(30):
            inst = helpers.random_instance(rng, kind, mode)
            g = inst.graph
            cuttable = g.cuttable_elements(mode)
            x = mixed_x(rng, cuttable)
            pairs = [("S", "T")] if kind == "length_bound" else list(inst.problem.pairs)
            for s, t in pairs:
                got = min_weight_path(g, s, t, x, mode)
                assert got == helpers.reference_min_weight_path(g, s, t, x, mode), trial
                for bound in (1, 2, 3, 5, 8, 1 + helpers.total_length(g)):
                    got = constrained_min_weight_path(g, s, t, x, bound, mode)
                    want = helpers.reference_constrained_min_weight_path(g, s, t, x, bound, mode)
                    assert got == want, (trial, bound)

    @pytest.mark.parametrize(
        "inst",
        [
            gadgets.build_dict_edge(gadgets.DictParamsE(4, 3, 2, 1)),
            gadgets.build_dict_vertex(gadgets.DictParamsV(4, 4, 3, 1, Fraction(1, 20))),
        ],
        ids=["dict-e", "dict-v"],
    )
    def test_every_length_cover_round(self, monkeypatch, inst):
        calls = recorded_oracle_calls(
            monkeypatch, "constrained_min_weight_path", lambda: lp.short_path_cover_lp(inst)
        )
        assert len(calls) > 1
        for args in calls:
            assert constrained_min_weight_path(*args) == (
                helpers.reference_constrained_min_weight_path(*args)
            )

    @pytest.mark.parametrize(
        "inst",
        [
            gadgets.build_saks_gap(3, 2),
            gadgets.build_dict_multicut(gadgets.DictParamsM(2, 2, 1, Fraction(1, 5))),
        ],
        ids=["saks", "dict-m"],
    )
    def test_every_multicut_round(self, monkeypatch, inst):
        calls = recorded_oracle_calls(monkeypatch, "min_weight_path", lambda: lp.multicut_lp(inst))
        assert len(calls) > len(inst.problem.pairs)
        for args in calls:
            assert min_weight_path(*args) == helpers.reference_min_weight_path(*args)


class TestInstanceJson:
    """The writer prints exactly what ``json.dumps(doc, indent=2,
    sort_keys=True)`` prints for the document, and the reader takes it back."""

    SMALL_PARAMS = {
        "saks": "r=2,k=2",
        "dict-m": "r=2,k=2,R=1,eps=1/10",
        "dict-e": "a=2,b=3,r=2,R=2",
        "dict-v": "a=1,b=1,r=2,R=2,eps=1/5",
        "dict-f": "b=2,R=1,eps=1/100",
    }
    ODD_IDS = ['say "hi"', "back\\slash", "bell\x07", "café"]

    @staticmethod
    def assert_canonical(inst):
        text = instance_to_json_str(inst)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
        assert instance_to_json_str(instance_from_json_str(text)) == text
        return text

    def test_every_family_covered(self):
        assert set(self.SMALL_PARAMS) == set(gadgets.FAMILIES)

    @pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
    def test_family_output_canonical(self, name):
        family = gadgets.FAMILIES[name]
        params = family.params(parse_params(self.SMALL_PARAMS[name]))
        self.assert_canonical(family.build(params))

    def test_no_edges(self):
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        inst = CutInstance(graph=g, mode=VERTEX, problem=Multicut((("s", "t"),)))
        assert '"edges": [],' in self.assert_canonical(inst)

    def test_no_provenance_and_rmfc_targets(self):
        g = chain_graph(weights={"a": Fraction(2, 3), "b": Fraction(5)})
        inst = CutInstance(
            graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t", "b"}))
        )
        text = self.assert_canonical(inst)
        assert "provenance" not in text
        assert json.loads(text)["problem"]["targets"] == ["b", "t"]

    @pytest.mark.parametrize("mode", [VERTEX, EDGE])
    def test_odd_node_ids_escaped(self, mode):
        g = WeightedGraph()
        g.add_node("s")
        for v in self.ODD_IDS:
            g.add_node(v, Fraction(3, 7) if mode == VERTEX else None)
        g.add_node("t")
        chain = ["s", *self.ODD_IDS, "t"]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            g.add_edge(a, b, directed=i % 2 == 0, length=i + 1, weight=Fraction(i, 2))
        inst = CutInstance(
            graph=g,
            mode=mode,
            problem=LengthBound("s", "t", 3),
            provenance={"generator": "hand", "params": {"note": "é", "list": [1, {}]}},
        )
        text = self.assert_canonical(inst)
        assert text.isascii()
        assert instance_from_json_str(text).graph.nodes == chain

    def odd_id_instance(self, count):
        """``count`` edges over the ``ODD_IDS`` chain, directions, lengths
        and weights varying; no edge is a loop."""
        chain = ["s", *self.ODD_IDS, "t"]
        g = WeightedGraph()
        for v in chain:
            g.add_node(v)
        n = len(chain)
        for i in range(count):
            tail = chain[i % n]
            head = chain[(i + 1 + i // n % (n - 1)) % n]
            weight = None if i % 4 == 0 else Fraction(i % 5, 3)
            g.add_edge(tail, head, directed=i % 2 == 0, length=1 + i % 3, weight=weight)
        return CutInstance(graph=g, mode=EDGE, problem=LengthBound("s", "t", 3))

    @pytest.mark.parametrize(
        "count",
        [0, 1, _JSON_BLOCK, _JSON_BLOCK + 1, 3 * _JSON_BLOCK + 5],
        ids=["none", "one", "block", "block+1", "blocks"],
    )
    def test_edge_block_boundaries(self, count):
        text = self.assert_canonical(self.odd_id_instance(count))
        assert text.count('"tail"') == count

    def test_endpoints_share_node_ids(self):
        """Every endpoint read back is the string object of its node, on
        the writer's entries and on an entry that takes the checked path
        (an integer weight)."""
        doc = json.loads(instance_to_json_str(self.odd_id_instance(50)))
        doc["edges"][7]["weight"] = 3
        for inst in (instance_from_json_str(json.dumps(doc)), instance_from_json(doc)):
            g = inst.graph
            node = {id(v) for v in g.nodes}
            assert all(id(e.tail) in node and id(e.head) in node for e in g.edges)

    LARGE_PARAMS = "a=2,b=3,r=3,R=4,eps=1/20"

    @classmethod
    def large_instance(cls):
        """The 62k-edge dict-v test that ``build_verify`` writes and reads."""
        family = gadgets.FAMILIES["dict-v"]
        params = family.params(parse_params(cls.LARGE_PARAMS))
        inst = family.build(params)
        assert len(inst.graph.edges) >= 10_000
        return inst

    def test_writer_peak_memory(self):
        """The writer allocates at most three times its text at its peak,
        over what was held before the call, on a 62k-edge dict-v test
        (the text, plus the edge blocks it is joined from)."""
        inst = self.large_instance()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = instance_to_json_str(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 3 * len(text)

    @pytest.mark.parametrize("family, params", [*sorted(SMALL_PARAMS.items()), ("dict-v", LARGE_PARAMS)])
    def test_generate_file_stdout_and_string_agree(self, family, params, tmp_path, capsysbinary):
        """``generate --out`` and ``generate`` to stdout give the bytes of
        ``instance_to_json_str``."""
        argv = ["generate", "--family", family, "--params", params]
        path = tmp_path / "out.json"
        assert main([*argv, "--out", str(path)]) == 0
        assert main(argv) == 0
        out = capsysbinary.readouterr().out
        fam = gadgets.FAMILIES[family]
        text = instance_to_json_str(fam.build(fam.params(parse_params(params))))
        assert path.read_bytes() == out == text.encode()

    def test_node_weights_parsed_once(self, monkeypatch):
        """Both readers parse each distinct weight string of the nodes once,
        as they do those of the edges: reading the 62k-edge dict-v test
        makes one ``parse_rational`` call per distinct string, not one per
        node."""
        text = instance_to_json_str(self.large_instance())
        doc = json.loads(text)
        distinct = [{v["weight"] for v in doc[key]} - {None} for key in ("edges", "nodes")]
        assert len(doc["nodes"]) > 1_000 and len(distinct[1]) < 10
        for read in (instance_from_json_str, lambda text: instance_from_json(json.loads(text))):
            calls = []
            parse = graphs.parse_rational
            monkeypatch.setattr(graphs, "parse_rational", lambda w: calls.append(w) or parse(w))
            read(text)
            monkeypatch.undo()
            assert set(calls) == distinct[0] | distinct[1]
            assert len(calls) <= len(distinct[0]) + len(distinct[1])

    def test_reader_peak_memory(self):
        """The reader allocates at most twice its text at its peak, over
        the text it is given, on the same 62k-edge test in the writer's
        layout: its edge entries are split into lines a chunk at a time,
        so no parsed entry objects are held together (``json.loads`` and a
        build allocate about 2.9 times the text)."""
        text = instance_to_json_str(self.large_instance())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inst = instance_from_json_str(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(inst.graph.edges) == text.count('"tail"')
        assert peak - before <= 2 * len(text)


class TestAddEdges:
    """``add_edge`` is a one-record ``add_edges``: both accept and reject
    the same edges, with the same exception and message."""

    @staticmethod
    def pair_graph():
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        return g

    @pytest.mark.parametrize(
        "tail, head, length, weight, error",
        [
            ("x", "b", 1, None, UnknownNode),
            ("a", "x", 1, None, UnknownNode),
            ("a", "b", 0, None, ValueError),
            ("a", "b", 1.5, None, ValueError),
            ("a", "b", 1, Fraction(-1, 2), ValueError),
            ("a", "b", 1, -1, ValueError),
            ("a", "b", True, None, ValueError),
            ("a", "b", float("inf"), None, ValueError),
            ("a", "b", float("nan"), None, ValueError),
            ("a", "b", Fraction(3, 2), None, ValueError),
            ("a", "b", 1, 0.5, ValueError),
            ("a", "b", 1, True, ValueError),
            ("a", "b", 1, "1/2", ValueError),
            ("a", "b", "2", None, ValueError),
            ("a", "b", None, None, ValueError),
        ],
        ids=["undeclared-tail", "undeclared-head", "length-0", "length-1.5",
             "negative-weight", "negative-int-weight", "length-true", "length-inf",
             "length-nan", "length-3/2", "weight-float",
             "weight-true", "weight-str", "length-str", "length-none"],
    )
    def test_same_rejection(self, tail, head, length, weight, error):
        one, bulk = self.pair_graph(), self.pair_graph()
        with pytest.raises(error) as single:
            one.add_edge(tail, head, directed=True, length=length, weight=weight)
        with pytest.raises(error) as many:
            bulk.add_edges(
                [("a", "b", True, 1, None), (tail, head, True, length, weight)]
            )
        assert type(single.value) is type(many.value)
        assert str(single.value) == str(many.value)
        assert one.edges == [] and len(bulk.edges) == 1

    def test_integral_length_stored_as_int(self):
        g = self.pair_graph()
        g.add_edge("a", "b", directed=True, length=2.0)
        g.add_edges([("b", "a", False, 2.0, Fraction(1, 3))])
        assert [type(e.length) for e in g.edges] == [int, int]
        assert g.edges == [
            ("a", "b", True, 2, None),
            ("b", "a", False, 2, Fraction(1, 3)),
        ]
        assert g.index().arcs == [([0, 1], [1, 1]), ([1], [0])]

    @pytest.mark.parametrize("directed", ["yes", 1, None])
    def test_directed_must_be_a_bool(self, directed):
        one, bulk = self.pair_graph(), self.pair_graph()
        message = f"edge directed must be a bool, got {directed!r}"
        with pytest.raises(ValueError) as single:
            one.add_edge("a", "b", directed=directed)
        with pytest.raises(ValueError) as many:
            bulk.add_edges([("a", "b", True, 1, None), ("a", "b", directed, 1, None)])
        assert str(single.value) == str(many.value) == message
        assert one.edges == [] and len(bulk.edges) == 1

    @pytest.mark.parametrize("length", ["2", None])
    def test_length_not_a_number_message(self, length):
        with pytest.raises(ValueError) as excinfo:
            self.pair_graph().add_edge("a", "b", directed=True, length=length)
        assert str(excinfo.value) == (
            f"edge length must be a positive integer, got {length!r}"
        )

    def test_int_weights_stored_as_given(self):
        g = self.pair_graph()
        g.add_edge("a", "b", directed=True, weight=3)
        g.add_edges([("b", "a", True, 1, 0)])
        assert g.edges == [("a", "b", True, 1, 3), ("b", "a", True, 1, 0)]
        assert [type(e.weight) for e in g.edges] == [int, int]

    @pytest.mark.parametrize(
        "weight, message",
        [
            (0.5, "weight on node 'a' must be an int, Fraction or None, got 0.5"),
            (True, "weight on node 'a' must be an int, Fraction or None, got True"),
            ("1", "weight on node 'a' must be an int, Fraction or None, got '1'"),
            (Fraction(-1), "negative weight on node 'a'"),
            (-2, "negative weight on node 'a'"),
        ],
        ids=["float", "bool", "str", "negative", "negative-int"],
    )
    def test_node_weight_refused(self, weight, message):
        g = WeightedGraph()
        with pytest.raises(ValueError) as excinfo:
            g.add_node("a", weight)
        assert str(excinfo.value) == message
        assert g.nodes == []

    def test_node_weights_accepted(self):
        g = WeightedGraph()
        for v, w in [("a", None), ("b", 0), ("c", 2), ("d", Fraction(1, 3))]:
            g.add_node(v, w)
        assert [g.node_weight(v) for v in g.nodes] == [None, 0, 2, Fraction(1, 3)]

    def test_add_edge_returns_index(self):
        g = self.pair_graph()
        g.add_edges([("a", "b", True, 1, None)])
        assert g.add_edge("b", "a", directed=True) == 1

    def test_edge_fields_immutable(self):
        g = self.pair_graph()
        g.add_edge("a", "b", directed=True)
        edge = g.edges[0]
        assert isinstance(edge, GraphEdge)
        for field in GraphEdge._fields:
            with pytest.raises(AttributeError):
                setattr(edge, field, None)


@pytest.mark.parametrize("element", [True, False])
def test_bool_is_no_edge_index(element):
    g = TestAddEdges.pair_graph()
    g.add_edges([("a", "b", True, 1, 2), ("b", "a", True, 1, 3)])
    assert [g.element_weight(0), g.element_weight(1)] == [2, 3]
    with pytest.raises(UnknownNode, match=f"unknown element {element}"):
        g.element_weight(element)
    with pytest.raises(UnknownNode):
        g.check_removable({element})


def assert_edge_view(g, expected):
    """``g.edges`` reads as ``expected``, a list of ``GraphEdge``s, by
    ``==``, iteration, int and negative index and slices, every item a
    ``GraphEdge`` and every stored row a plain tuple; then ``pop``
    removes the last edge and drops the graph's index."""
    edges = g.edges
    assert len(edges) == len(expected) >= 3
    assert edges == expected and expected == edges and edges == g.edges
    assert list(edges) == expected
    assert all(type(e) is GraphEdge for e in edges)
    assert all(type(row) is tuple for row in g.edge_rows)
    for i in (0, 1, -1, -2, -len(expected)):
        assert type(edges[i]) is GraphEdge and edges[i] == expected[i]
    for part in (slice(1, 3), slice(-2, None), slice(None, None, -2)):
        assert edges[part] == expected[part]
        assert all(type(e) is GraphEdge for e in edges[part])
    with pytest.raises(IndexError):
        edges[len(expected)]
    g.index()
    assert type(edges.pop()) is GraphEdge
    assert g.edges == expected[:-1] and len(g.edges) == len(expected) - 1
    assert_index_matches_edges(g)


def edge_sources():
    """The graph sources whose edge views ``TestEdgeRows`` checks: each
    family's build, its JSON round trip and a copy fed the build's
    ``GraphEdge``s or lists, and two compositions."""
    sources = {}
    for name, text in sorted(TestInstanceJson.SMALL_PARAMS.items()):
        for how in ("build", "json", "graph-edges", "lists"):
            sources[f"{name}-{how}"] = (name, text, how)
    for kind in ("dict_vertex", "dict_edge"):
        sources[f"compose-{kind}"] = (kind, None, "compose")
    return sources


def copy_nodes(g):
    h = WeightedGraph()
    for v in g.nodes:
        h.add_node(v, g.node_weight(v))
    return h


class TestEdgeRows:
    """A graph stores plain tuple rows and ``g.edges`` is a view of them
    that reads each as a ``GraphEdge``."""

    COMPOSE = {
        "dict_vertex": gadgets.DictParamsV(2, 1, 2, 2, Fraction(1, 5)),
        "dict_edge": gadgets.DictParamsE(2, 3, 2, 2),
    }

    @pytest.mark.parametrize("source", sorted(edge_sources()))
    def test_view(self, source):
        name, text, how = edge_sources()[source]
        if how == "compose":
            synth = ug.synth_ug(2, 2, 2, 2, mode="planted", seed=3)
            g = ug.compose(synth.instance, name, self.COMPOSE[name]).graph
            expected = [GraphEdge(*row) for row in g.edge_rows]
        else:
            family = gadgets.FAMILIES[name]
            inst = family.build(family.params(parse_params(text)))
            expected = [GraphEdge(*row) for row in inst.graph.edge_rows]
            if how == "build":
                g = inst.graph
            elif how == "json":
                text = instance_to_json_str(inst)
                expected = [
                    GraphEdge(e["tail"], e["head"], e["directed"], e["length"],
                              None if e["weight"] is None else Fraction(e["weight"]))
                    for e in json.loads(text)["edges"]
                ]
                g = instance_from_json_str(text).graph
            else:
                g = copy_nodes(inst.graph)
                records = inst.graph.edges if how == "graph-edges" else [
                    list(e) for e in inst.graph.edges
                ]
                g.add_edges(records)
        assert_edge_view(g, expected)

    def test_record_is_copied(self):
        g = WeightedGraph()
        for v in "abc":
            g.add_node(v)
        record = ["a", "b", True, 1, Fraction(1, 2)]
        edge = GraphEdge("b", "c", False, 2, None)
        g.add_edges([record, edge])
        record[0], record[3] = "c", 5
        assert g.edges == [("a", "b", True, 1, Fraction(1, 2)), ("b", "c", False, 2, None)]
        assert all(type(row) is tuple for row in g.edge_rows)
        assert g.edge_rows[1] is not edge

    def test_view_compares_only_with_views_and_lists(self):
        g = chain_graph()
        assert g.edges != tuple(g.edges) and g.edges != "edges"
        with pytest.raises(TypeError):
            hash(g.edges)

    def test_no_graph_edge_after_reading_an_instance(self, tmp_path):
        """Reading a dict-v file and indexing it makes no ``GraphEdge``
        that outlives the call: every stored edge is a plain tuple, which
        the cyclic collector may stop tracking."""
        path = tmp_path / "dict-v.json"
        argv = ["--family", "dict-v", "--params", "a=2,b=3,r=3,R=2,eps=1/20"]
        assert main(["generate", *argv, "--out", str(path)]) == 0
        text = path.read_text()
        gc.collect()
        before = sum(type(o) is GraphEdge for o in gc.get_objects())
        inst = instance_from_json_str(text)
        inst.graph.index()
        after = sum(type(o) is GraphEdge for o in gc.get_objects())
        assert len(inst.graph.edge_rows) == 728
        assert after == before


def named_arcs(g):
    """``g.index()`` read back in node ids: each node's ``(edge index,
    neighbour)`` arcs."""
    names, _, arcs = g.index()
    return {v: [(idx, names[nb]) for idx, nb in zip(*out)] for v, out in zip(names, arcs)}


def assert_index_matches_edges(g):
    """``g.index()`` numbers the nodes in insertion order, and its arcs,
    read back in node ids, equal the adjacency read off ``g.edges``, order
    included; an unknown node has no int."""
    names, pos, arcs = g.index()
    assert names == g.nodes and len(arcs) == len(names)
    assert pos == {v: i for i, v in enumerate(g.nodes)}
    assert named_arcs(g) == helpers.reference_out_arcs(g)
    assert "no such node" not in pos


def count_index_builds(monkeypatch):
    """A one-item list that counts ``WeightedGraph`` index builds from now."""
    builds = [0]
    make = graphs.GraphIndex

    def counted(*fields):
        builds[0] += 1
        return make(*fields)

    monkeypatch.setattr(graphs, "GraphIndex", counted)
    return builds


class TestOutArcsIndex:
    """The index of out-arcs is built by the first ``g.index()`` call,
    shared until an addition drops it, with each node's arcs in the order
    the edges give."""

    @pytest.mark.parametrize("name", sorted(TestInstanceJson.SMALL_PARAMS))
    def test_every_family_and_its_json_round_trip(self, name):
        family = gadgets.FAMILIES[name]
        params = family.params(parse_params(TestInstanceJson.SMALL_PARAMS[name]))
        inst = family.build(params)
        assert_index_matches_edges(inst.graph)
        assert inst.graph.index() is inst.graph.index()
        read = instance_from_json_str(instance_to_json_str(inst)).graph
        assert_index_matches_edges(read)
        assert read.index() == inst.graph.index()

    def test_compose(self):
        synth = ug.synth_ug(2, 2, 2, 2, mode="planted", seed=3)
        for kind, p in [
            ("dict_vertex", gadgets.DictParamsV(2, 1, 2, 2, Fraction(1, 5))),
            ("dict_edge", gadgets.DictParamsE(2, 3, 2, 2)),
        ]:
            assert_index_matches_edges(ug.compose(synth.instance, kind, p).graph)

    def test_expand_node_weights(self):
        g = chain_graph(weights={"a": Fraction(2), "b": Fraction(3)})
        g.add_edge("b", "a", directed=True, length=2)
        assert_index_matches_edges(expand_node_weights(g))

    def test_additions_after_a_read(self):
        g = chain_graph()
        assert_index_matches_edges(g)
        g.add_node("c", Fraction(1))
        assert named_arcs(g)["c"] == []
        g.add_edge("c", "a", directed=False, length=2)
        assert named_arcs(g)["c"] == [(3, "a")]
        g.add_edges([("s", "c", True, 1, None), ("t", "c", False, 1, Fraction(1))])
        assert named_arcs(g)["c"] == [(3, "a"), (5, "t")]
        assert_index_matches_edges(g)

    def test_failed_batch_leaves_index_consistent(self):
        g = chain_graph()
        g.index()
        with pytest.raises(UnknownNode):
            g.add_edges([
                ("s", "b", False, 1, None),
                ("a", "t", True, 1, None),
                ("a", "x", False, 1, None),
                ("b", "s", False, 1, None),
            ])
        assert len(g.edges) == 5
        assert named_arcs(g)["s"] == [(0, "a"), (3, "b")]
        assert_index_matches_edges(g)

    @pytest.mark.parametrize(
        "record", [("a", "b", True, 1), ("a", "b", True, 1, None, None)],
        ids=["4-field", "6-field"],
    )
    def test_wrong_arity_rejected(self, record):
        g = chain_graph()
        g.index()
        with pytest.raises(ValueError):
            g.add_edges([record])
        assert len(g.edges) == 3
        assert_index_matches_edges(g)

    def test_large_index_memory(self, monkeypatch):
        """The index of the 62k-edge dict-v test holds at most 5 MB: two int
        lists per node, no tuple per arc."""
        g = TestInstanceJson.large_instance().graph
        builds = count_index_builds(monkeypatch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g.index()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert builds == [1]
        assert held <= 5_000_000

    def test_built_once_for_verify_and_never_for_generate(
        self, monkeypatch, tmp_path, capsys
    ):
        builds = count_index_builds(monkeypatch)
        path = str(tmp_path / "dict-v.json")
        argv = ["--family", "dict-v", "--params", "a=2,b=3,r=3,R=2,eps=1/20"]
        assert main(["generate", *argv, "--out", path]) == 0
        assert builds == [0]
        assert main(["verify", "--instance", path, "--q", "1"]) == 0
        assert builds == [1]
        assert capsys.readouterr().out.startswith("PASS")

    def test_never_built_for_the_symmetry_comparison(self, monkeypatch):
        family = gadgets.FAMILIES["saks"]
        inst = family.build(family.params({"r": 2, "k": 2}))
        builds = count_index_builds(monkeypatch)
        assert len(list(gadgets.declared_symmetries(inst))) > 0
        assert builds == [0]

    def test_built_once_per_solve(self, monkeypatch):
        def build(name, params):
            family = gadgets.FAMILIES[name]
            return family.build(family.params(parse_params(params)))

        saks = build("saks", "r=3,k=2")
        dict_e, fresh = (build("dict-e", "a=4,b=3,r=2,R=1") for _ in range(2))
        builds = count_index_builds(monkeypatch)
        # branch and bound, the per-pair max-flow seed, the feasibility
        # checks, Dijkstra separation and the walk recheck
        assert lp.gap_report(saks).csv_cells() == ["3/1", "5/1", "5/3"]
        assert builds == [1]
        # the length-layered DP and the layered BFS
        assert lp.gap_report(dict_e).csv_cells() == ["1/1", "1/1", "1/1"]
        assert builds == [2]
        # every round of the climb, on a graph not yet indexed
        dist, cut = solvers.exact_interdiction(fresh, Fraction(15, 8))
        assert (dist, cut.cost) == (11, Fraction(13, 8))
        assert builds == [3]


class TestParseRational:
    """Rational strings read as ``Fraction`` reads them, except that an
    exponent beyond ``MAX_DIGITS`` in absolute value is refused before
    ``Fraction`` would compute ten to its power."""

    @pytest.mark.parametrize(
        "text, value",
        [
            ("15e-1", Fraction(3, 2)),
            ("-2/6", Fraction(-1, 3)),
            (" 1_000 ", Fraction(1000)),
            ("1e4300", Fraction(10) ** 4300),
            ("1E-4300", Fraction(1, 10**4300)),
            ("1e+0004300", Fraction(10) ** 4300),
            ("2.5e0", Fraction(5, 2)),
        ],
    )
    def test_read_as_fraction(self, text, value):
        assert parse_rational(text) == value == Fraction(text)

    @pytest.mark.parametrize(
        "text", ["1e4301", "1e-4301", "1e99999999", "1E+999_999_999", "2.5e" + "9" * 50]
    )
    def test_huge_exponent_refused(self, text):
        with pytest.raises(ValueError, match="exceeds 4300"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1e", "e5", "1/0", "x", "1e4_30x"])
    def test_malformed_still_refused(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(text)

    @pytest.mark.parametrize("where", ["node", "edge"])
    def test_huge_weight_exponent_is_malformed(self, where):
        doc = TestReaderMessages.document(TestReaderMessages.entry())
        doc["nodes" if where == "node" else "edges"][0]["weight"] = "1e999999999"
        with pytest.raises(MalformedInstance) as excinfo:
            instance_from_json(doc)
        assert str(excinfo.value) == f"{where} weight '1e999999999' is not a rational"

    @pytest.mark.parametrize("where", ["node", "edge"])
    def test_weight_past_the_digit_limit_is_named(self, where):
        # the weight is named, not echoed, by both readers
        doc = TestReaderMessages.document(TestReaderMessages.entry())
        doc["nodes" if where == "node" else "edges"][0]["weight"] = "1" * 5000
        message = f"{where} weight has more than 4300 digits"
        with pytest.raises(MalformedInstance, match=f"^{message}$"):
            instance_from_json(doc)
        with pytest.raises(MalformedInstance, match=f"^{message}$"):
            instance_from_json_str(json.dumps(doc))


class TestReaderMessages:
    """Malformed edge entries give the messages the reader gave before it
    had a bulk path (recorded then, one entry per case)."""

    @staticmethod
    def document(entry):
        return {
            "edges": [
                {"tail": "s", "head": "t", "directed": True, "length": 1,
                 "weight": "1/2"},
                entry,
            ],
            "mode": "edge",
            "nodes": [{"id": "s", "weight": None}, {"id": "t", "weight": None}],
            "problem": {"type": "length_bound", "s": "s", "t": "t", "bound": 1},
        }

    @staticmethod
    def entry(**changes):
        out = {"tail": "s", "head": "t", "directed": False, "length": 2, "weight": "1/3"}
        for key, value in changes.items():
            if value is KeyError:
                del out[key]
            else:
                out[key] = value
        return out

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"tail": KeyError}, "edge lacks 'tail'"),
            ({"tail": 1}, "edge field 'tail' has type int"),
            ({"head": KeyError}, "edge lacks 'head'"),
            ({"head": None}, "edge field 'head' has type NoneType"),
            ({"directed": KeyError}, "edge lacks 'directed'"),
            ({"directed": 1}, "edge field 'directed' has type int"),
            ({"directed": "true"}, "edge field 'directed' has type str"),
            ({"length": KeyError}, "edge lacks 'length'"),
            ({"length": "1"}, "edge field 'length' has type str"),
            ({"length": True}, "edge field 'length' has type bool"),
            ({"length": 1.0}, "edge field 'length' has type float"),
            ({"weight": "1/0"}, "edge weight '1/0' is not a rational"),
            ({"weight": True}, "edge weight True is not a rational"),
            ({"weight": 0.5}, "edge weight 0.5 is not a rational"),
            ({"tail": 1, "weight": "1/0"}, "edge field 'tail' has type int"),
        ],
        ids=["no-tail", "tail-int", "no-head", "head-null", "no-directed",
             "directed-int", "directed-str", "no-length", "length-str",
             "length-true", "length-float", "weight-1/0", "weight-true",
             "weight-float", "tail-before-weight"],
    )
    def test_malformed_entry(self, changes, message):
        with pytest.raises(MalformedInstance) as excinfo:
            instance_from_json(self.document(self.entry(**changes)))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("entry", [["s", "t"], "s-t", None, 7])
    def test_non_object_entry(self, entry):
        with pytest.raises(MalformedInstance) as excinfo:
            instance_from_json(self.document(entry))
        assert str(excinfo.value) == "edge lacks 'tail'"

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({"tail": "x"}, UnknownNode, "edge endpoints 'x'-'t' not declared"),
            ({"length": 0}, ValueError, "edge length must be a positive integer, got 0"),
            ({"weight": "-1"}, ValueError, "negative edge weight"),
        ],
        ids=["undeclared-tail", "length-0", "negative-weight"],
    )
    def test_graph_checks_apply(self, changes, error, message):
        with pytest.raises(error) as excinfo:
            instance_from_json(self.document(self.entry(**changes)))
        assert str(excinfo.value) == message

    def test_well_formed_entries(self):
        inst = instance_from_json(self.document(self.entry(weight=KeyError)))
        assert inst.graph.edges == [
            ("s", "t", True, 1, Fraction(1, 2)),
            ("s", "t", False, 2, None),
        ]
        inst = instance_from_json(self.document(self.entry(weight=3)))
        assert inst.graph.edges[1].weight == 3



def read_outcome(read, text):
    """What ``read(text)`` gives: the instance, or the type, message and
    position (for a JSONDecodeError) of what it raises."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


def reference_read(text):
    return instance_from_json(json.loads(text))


EDGE_SHAPED = {"tail": "s", "head": "t", "directed": True, "length": 1, "weight": "1/2"}


def reader_document():
    """A 40-edge document over odd node ids whose provenance holds an
    edge-shaped object."""
    doc = json.loads(instance_to_json_str(TestInstanceJson().odd_id_instance(40)))
    doc["provenance"] = {"generator": "hand", "sample": dict(EDGE_SHAPED)}
    return doc


def reader_layouts():
    """Texts of valid documents, by layout."""
    doc = reader_document()
    nodes_first = {k: doc[k] for k in ("nodes", "problem", "mode", "edges", "provenance")}
    extra = reader_document()
    extra["edges"][3]["note"] = dict(EDGE_SHAPED)
    extra["edges"][5]["color"] = "red"
    bad = {"tail": 1, "head": None, "directed": "x", "length": [], "weight": [2]}
    garbage = '{"edges": [' + json.dumps(bad) + ", 7, " + json.dumps(EDGE_SHAPED) + "], "
    return {
        "writer": json.dumps(doc, indent=2, sort_keys=True) + "\n",
        "nodes-first": json.dumps(nodes_first, indent=2),
        "compact": json.dumps(doc),
        "tight": json.dumps(doc, separators=(",", ":")),
        "tabs-crlf": json.dumps(doc, indent="\t").replace("\n", "\r\n"),
        "duplicate-edges": garbage + json.dumps(doc)[1:],
        "extra-keys": json.dumps(extra),
        "raw-unicode": json.dumps(doc, ensure_ascii=False),
    }


def irregular_texts():
    """Texts of valid documents whose edge arrays hold entries the writer
    does not print, by entry."""
    texts = {}
    for name, change in [
        ("integer-weight", lambda entry: entry.update(weight=3)),
        ("no-weight", lambda entry: entry.pop("weight")),
        ("object-without-fields", lambda entry: entry.update(note={"a": 1})),
    ]:
        doc = reader_document()
        change(doc["edges"][6])
        texts[name] = json.dumps(doc)
    return texts


def broken_texts():
    """Texts with a syntax fault, by fault."""
    text = json.dumps(reader_document(), indent=2, sort_keys=True) + "\n"
    return {
        "truncated-in-edges": text[: text.index('"head"', 300)],
        "truncated-after-edges": text[: text.index('"mode"')],
        "trailing-data": text + "x",
        "second-value": text + "{}",
        "missing-colon": text.replace('"mode":', '"mode"', 1),
        "missing-comma": text.replace('],\n  "mode"', ']\n  "mode"', 1),
        "missing-comma-in-edges": text.replace("},\n    {", "}\n    {", 1),
        "trailing-comma": text.rstrip()[:-1] + ",}",
        "bare-key": "{mode: 1}",
        "control-char-in-key": '{"mo\nde": 1}',
        "byte-order-mark": "\ufeff" + text,
        "empty": "",
        "blank": " \n",
    }


def with_edges(*entries):
    """The ``TestReaderMessages`` document with ``entries`` after its
    well-formed edge."""
    doc = TestReaderMessages.document(None)
    doc["edges"][1:] = entries
    return doc


entry = TestReaderMessages.entry


def bad_node_and_edge_weight():
    doc = TestReaderMessages.document(TestReaderMessages.entry(weight="1/0"))
    doc["nodes"][1]["weight"] = "x"
    return doc


class TestStringReader:
    """``instance_from_json_str(text)`` rebuilds what
    ``instance_from_json(json.loads(text))`` rebuilds from any layout of the
    document, and fails as it fails: json's own error on a syntax fault,
    the same first fault on a malformed document."""

    @pytest.mark.parametrize("layout", sorted(reader_layouts()))
    def test_same_instance(self, layout, monkeypatch):
        text = reader_layouts()[layout]
        want = reference_read(text)

        # the writer's layout goes to json.loads for its tail only, any
        # other layout once, whole
        loaded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda t: loaded.append(t) or loads(t))
        got = instance_from_json_str(text)
        if layout == "writer":
            assert loaded == ["{\n" + text[text.index('  "mode": '):]]
        else:
            assert loaded == [text]
        assert got.graph.nodes == want.graph.nodes
        assert [got.graph.node_weight(v) for v in got.graph.nodes] == [
            want.graph.node_weight(v) for v in want.graph.nodes
        ]
        assert got.graph.edges == want.graph.edges
        assert all(type(e) is GraphEdge for e in got.graph.edges)
        assert (got.mode, got.problem) == (want.mode, want.problem)
        assert got.provenance == want.provenance
        assert type(got.provenance["sample"]) is dict

    @pytest.mark.parametrize("name", sorted(irregular_texts()))
    def test_same_instance_from_irregular_entries(self, name):
        text = irregular_texts()[name]
        got, want = instance_from_json_str(text), reference_read(text)
        assert got.graph.edges == want.graph.edges
        assert [got.graph.node_weight(v) for v in got.graph.nodes] == [
            want.graph.node_weight(v) for v in want.graph.nodes
        ]

    @pytest.mark.parametrize("name", sorted(broken_texts()))
    def test_syntax_fault_is_jsons(self, name):
        text = broken_texts()[name]
        got = read_outcome(instance_from_json_str, text)
        assert got == read_outcome(reference_read, text)
        assert got[0] is json.JSONDecodeError

    @pytest.mark.parametrize("text", ["[]", "3", "{}", "null", '"s"', '{"edges": []}'])
    def test_not_an_instance(self, text):
        got = read_outcome(instance_from_json_str, text)
        assert got == read_outcome(reference_read, text)
        assert got[0] is MalformedInstance

    @pytest.mark.parametrize(
        "doc, message",
        [
            (bad_node_and_edge_weight(), "node weight 'x' is not a rational"),
            (with_edges(entry(tail=1), entry(weight="1/0")), "edge field 'tail' has type int"),
            (with_edges(entry(weight="1/0"), entry(tail=1)),
             "edge weight '1/0' is not a rational"),
            (with_edges(entry(tail=EDGE_SHAPED)), "edge field 'tail' has type dict"),
            (with_edges(entry(weight=EDGE_SHAPED)),
             "edge weight {'tail': 's', 'head': 't', 'directed': True, 'length': 1, "
             "'weight': '1/2'} is not a rational"),
            (with_edges(entry(head=[EDGE_SHAPED])), "edge field 'head' has type list"),
            (with_edges(entry(tail="x"), entry(length="2")),
             "edge endpoints 'x'-'t' not declared"),
            (with_edges(entry(length="2"), entry(tail="x")),
             "edge field 'length' has type str"),
            (with_edges(entry(length=0), entry(tail=1)),
             "edge length must be a positive integer, got 0"),
            ({**with_edges(), "edges": EDGE_SHAPED}, "instance field 'edges' has type dict"),
        ],
        ids=["node-before-edge", "tail-before-weight", "weight-before-tail",
             "nested-tail", "nested-weight", "nested-in-list", "unknown-before-malformed",
             "malformed-before-unknown", "length-0-before-malformed", "edges-object"],
    )
    def test_first_fault(self, doc, message):
        text = json.dumps(doc)
        got = read_outcome(instance_from_json_str, text)
        assert got == read_outcome(reference_read, text)
        assert got[1] == message


def summary(inst):
    """What two instances must share to be the same: nodes, node weights,
    edge rows and the types of their fields, mode, problem, provenance."""
    g = inst.graph
    return (
        g.nodes,
        [g.node_weight(v) for v in g.nodes],
        g.edge_rows,
        sorted({tuple(type(x).__name__ for x in row) for row in g.edge_rows}),
        inst.mode,
        inst.problem,
        inst.provenance,
    )


def outcome(read, text):
    got = read_outcome(read, text)
    return summary(got) if isinstance(got, CutInstance) else got


def columns_depart(text):
    """True when ``_read_columns`` does not take ``text``."""
    try:
        return graphs._read_columns(text) is None
    except Exception:
        return True


def edit_entry(text, k, old, new):
    """``text`` with ``old`` replaced by ``new`` in its k-th edge entry."""
    starts = [i for i in range(len(text)) if text.startswith('    {\n      "directed"', i)]
    start, stop = starts[k], starts[k + 1]
    assert old in text[start:stop]
    return text[:start] + text[start:stop].replace(old, new, 1) + text[stop:]


def boundaries(text):
    """The offset of each entry boundary from the first edge entry."""
    at, out = len(graphs._EDGES_OPEN), []
    while (i := text.find(graphs._ENTRY_CUT, at)) >= 0:
        out.append(i - len(graphs._EDGES_OPEN))
        at = i + 1
    return out


def writer_text(count):
    return instance_to_json_str(TestInstanceJson().odd_id_instance(count))


class TestColumnReader:
    """Text laid out exactly as the writer prints it is read by its line
    columns; any departure from that layout is read whole by
    ``json.loads``, and gives what ``reference_read`` gives."""

    def test_writer_text_reads_only_the_tail(self, monkeypatch):
        text = reader_layouts()["writer"]
        assert not columns_depart(writer_text(12))
        want = summary(reference_read(text))
        loaded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda t: loaded.append(t) or loads(t))
        assert summary(instance_from_json_str(text)) == want
        assert loaded == ["{\n" + text[text.index('  "mode": '):]]

    @pytest.mark.parametrize("name", sorted(TestInstanceJson.SMALL_PARAMS))
    def test_every_family_reads_by_columns(self, name):
        family = gadgets.FAMILIES[name]
        params = family.params(parse_params(TestInstanceJson.SMALL_PARAMS[name]))
        text = instance_to_json_str(family.build(params))
        assert not columns_depart(text)
        assert outcome(instance_from_json_str, text) == outcome(reference_read, text)

    DEPARTURES = {
        "crlf": lambda t: t.replace("\n", "\r\n"),
        "escaped-id": lambda t: edit_entry(t, 5, '"head": "s",', '"head": "\\u0073",'),
        "non-ascii-id": lambda t: edit_entry(t, 4, '"tail": "caf\\u00e9",', '"tail": "café",'),
        "int-weight": lambda t: edit_entry(t, 3, '"weight": "1/1"', '"weight": 1'),
        "length-0": lambda t: edit_entry(t, 3, '"length": 1,', '"length": 0,'),
        "leading-zero-length": lambda t: edit_entry(t, 3, '"length": 1,', '"length": 01,'),
        "negative-weight": lambda t: edit_entry(t, 2, '"weight": "2/3"', '"weight": "-2/3"'),
        "zero-denominator-weight": lambda t: edit_entry(t, 2, '"weight": "2/3"', '"weight": "1/0"'),
        "sixth-key": lambda t: edit_entry(t, 2, '"tail": ', '"note": 1,\n      "tail": '),
        "edges-after-nodes": lambda t: t.replace('\n  "problem": ', '\n  "edges": [],\n  "problem": '),
        "undeclared-endpoint": lambda t: edit_entry(t, 5, '"head": "s",', '"head": "x",'),
        "opener-indent": lambda t: edit_entry(t, 2, '    {\n', '   {\n'),
        "weight-trailing-space": lambda t: edit_entry(t, 2, '"weight": "2/3"', '"weight": "2/3" '),
        "trailing-comma": lambda t: t.replace('\n    }\n  ],', '\n    },\n  ],', 1),
        "comma-moved-to-the-end": lambda t: edit_entry(t, 3, "    },\n", "    }\n").replace(
            '\n    }\n  ],', '\n    },\n  ],', 1),
        "blank-line-after-the-last-entry": lambda t: t.replace('\n    }\n  ],', '\n    }\n \n  ],', 1),
    }

    @pytest.mark.parametrize("name", sorted(DEPARTURES))
    def test_departure_reads_as_reference(self, name):
        text = self.DEPARTURES[name](writer_text(12))
        assert columns_depart(text)
        assert outcome(instance_from_json_str, text) == outcome(reference_read, text)

    def test_departure_outcomes(self):
        """The departures cover a changed instance, the graph's own errors,
        the reader's and json's."""
        got = {name: outcome(instance_from_json_str, edit(writer_text(12)))
               for name, edit in self.DEPARTURES.items()}
        assert got["length-0"][:2] == (ValueError, "edge length must be a positive integer, got 0")
        assert got["negative-weight"][:2] == (ValueError, "negative edge weight")
        assert got["zero-denominator-weight"][:2] == (
            MalformedInstance, "edge weight '1/0' is not a rational")
        assert got["undeclared-endpoint"][:2] == (UnknownNode, "edge endpoints 't'-'x' not declared")
        assert got["leading-zero-length"][0] is json.JSONDecodeError
        assert got["trailing-comma"][0] is json.JSONDecodeError
        assert got["comma-moved-to-the-end"][0] is json.JSONDecodeError
        assert got["edges-after-nodes"][2] == []
        assert got["int-weight"][2][3][4] == Fraction(1)
        unchanged = outcome(reference_read, writer_text(12))
        for name in ("crlf", "escaped-id", "sixth-key", "opener-indent", "weight-trailing-space",
                     "blank-line-after-the-last-entry"):
            assert got[name] == unchanged

    @pytest.mark.parametrize(
        "line, length", [("1,", 1), ("12,", 12), ("0,", None), ("01,", None), ("1", None),
                         ("1 ,", None), ("-1,", None), ("1.0,", None), ("\u0661,", None)],
    )
    def test_length_line(self, line, length):
        line = '      "length": ' + line
        if length is None:
            with pytest.raises(ValueError):
                graphs._length_line(line)
        else:
            assert graphs._length_line(line) == length

    @pytest.mark.parametrize(
        "line, weight",
        [("null", None), ('"2/3"', Fraction(2, 3)), ('"0/1"', Fraction(0)),
         ('"-2/3"', ValueError), ('"1/0"', ZeroDivisionError), ('"x"', ValueError),
         ('"2/3" ', ValueError), ('"2/3",', ValueError), ("3", ValueError),
         ('"2/3', ValueError)],
    )
    def test_weight_line(self, line, weight):
        line = '      "weight": ' + line
        if isinstance(weight, type):
            with pytest.raises(weight):
                graphs._weight_line(line)
        else:
            assert graphs._weight_line(line) == weight

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_chunk_cut_at_each_boundary(self, shift, monkeypatch):
        """A chunk may end at, just before or just after any entry
        boundary, or hold one entry or all of them."""
        text = writer_text(9)
        want = outcome(reference_read, text)
        for chunk in [0, 1, *(b + shift for b in boundaries(text)), len(text)]:
            monkeypatch.setattr(graphs, "_COLUMN_CHUNK", chunk)
            assert not columns_depart(text)
            assert outcome(instance_from_json_str, text) == want

    def test_edge_counts_around_the_chunk_cut(self):
        """Edge counts whose entry boundaries fall just before, at and past
        the first chunk cut, at the chunk size the reader uses."""
        first = next(
            k for k, b in enumerate(boundaries(writer_text(4_000)), 1)
            if b >= graphs._COLUMN_CHUNK
        )
        for count in range(first - 1, first + 3):
            text = writer_text(count)
            assert not columns_depart(text)
            assert outcome(instance_from_json_str, text) == outcome(reference_read, text)
