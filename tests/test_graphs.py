import json
import random
from fractions import Fraction

import pytest

import helpers
from cutlab import gadgets
from cutlab.cli import parse_params
from cutlab.errors import NoFiniteCut, RemovingUncuttable, UnknownNode
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    LengthBound,
    Multicut,
    Rmfc,
    WeightedGraph,
    constrained_min_weight_path,
    expand_node_weights,
    instance_from_json_str,
    instance_to_json_str,
    min_st_cut,
    min_weight_path,
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
            loose = 1 + g.total_length()
            a = constrained_min_weight_path(g, "S", "T", x, loose, mode)
            b = min_weight_path(g, "S", "T", x, mode)
            assert (a is None) == (b is None)
            if a is not None:
                assert a[1] == b[1]

    def test_returned_path_is_simple(self):
        rng = random.Random(17)
        for _ in range(20):
            inst = helpers.random_instance(rng, "length_bound", EDGE)
            g = inst.graph
            x = {el: Fraction(rng.randint(0, 3)) for el in g.cuttable_elements(EDGE)}
            found = constrained_min_weight_path(g, "S", "T", x, 6, EDGE)
            if found is None:
                continue
            path, _ = found
            assert len(set(path.nodes)) == len(path.nodes)
            assert path.length < 6


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
        self.assert_canonical(family.build(params, 10_000))

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
