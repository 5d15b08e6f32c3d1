import dataclasses
import hashlib
from fractions import Fraction

import pytest

import helpers
from cutlab import gadgets, ug
from cutlab.errors import (
    InfeasibleDegrees,
    LabelingNotPerfectOnWPrime,
    LabelMismatch,
    ParamOutOfRange,
    SizeGuard,
    WrongProblemType,
)
from cutlab.gadgets import (
    DictParamsE,
    DictParamsF,
    DictParamsM,
    DictParamsV,
    build_dict_edge,
    build_dict_multicut,
    build_dict_rmfc,
    build_dict_vertex,
    dictator_cut,
    harmonic,
)
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    LengthBound,
    Schedule,
    WeightedGraph,
    instance_to_json_str,
    shortest_path_length,
)
from cutlab.lp import short_path_cover_lp
from cutlab.solvers import exact_min_length_bounded_cut, rmfc_simulate
from cutlab.ug import (
    Labeling,
    UGEdge,
    UniqueGamesInstance,
    completeness_cut,
    compose,
    reachable_set_influences,
    synth_ug,
)


def build_by_kind(kind, p):
    return {
        "dict_vertex": build_dict_vertex,
        "dict_multicut": build_dict_multicut,
        "dict_edge": build_dict_edge,
        "dict_rmfc": build_dict_rmfc,
    }[kind](p)


def unprefixed(inst, solution):
    """A cut's nodes, edge endpoints or day sets, without the "w0::" copy prefix."""
    def name(v):
        return v.removeprefix("w0::")

    if isinstance(solution, Schedule):
        return [frozenset(map(name, day)) for day in solution.days]
    if inst.mode == EDGE:
        edges = [inst.graph.edges[i] for i in solution.elements]
        return {(frozenset({name(e.tail), name(e.head)}), e.length) for e in edges}
    return set(map(name, solution.elements))


def identity_ug(r_labels: int) -> UniqueGamesInstance:
    return UniqueGamesInstance(
        ["u0"], ["w0"], r_labels, [UGEdge("u0", "w0", tuple(range(r_labels)))]
    )


class TestSynthUg:
    def test_single_edge_planted(self):
        result = synth_ug(1, 1, 1, 3, mode="planted", seed=1)
        assert len(result.instance.edges) == 1
        assert result.labeling.satisfied_fraction(result.instance) == 1
        assert result.w_prime == frozenset({"w0"})

    def test_planted_perfect_on_w_prime(self):
        result = synth_ug(4, 4, 3, 5, mode="planted", seed=9, eta=Fraction(1, 4))
        label = result.labeling.label
        for e in result.instance.edges:
            if e.w in result.w_prime:
                assert label[e.u] == e.perm[label[e.w]]
        assert len(result.w_prime) == 3

    def test_random_mode_fraction_recorded(self):
        result = synth_ug(5, 4, 4, 3, mode="random", seed=3)
        assert result.labeling is None
        assert len(result.instance.edges) == 20
        any_label = Labeling({v: 0 for v in result.instance.U + result.instance.W})
        frac = any_label.satisfied_fraction(result.instance)
        assert 0 <= frac < 1

    def test_deterministic_under_seed(self):
        a = synth_ug(3, 3, 2, 4, mode="planted", seed=17)
        b = synth_ug(3, 3, 2, 4, mode="planted", seed=17)
        assert helpers.ug_to_json(a.instance) == helpers.ug_to_json(b.instance)
        assert a.labeling == b.labeling

    def test_infeasible_degrees(self):
        with pytest.raises(InfeasibleDegrees):
            synth_ug(3, 2, 1, 2)

    def test_json_roundtrip(self):
        inst = synth_ug(2, 2, 2, 3, seed=5).instance
        again = helpers.ug_from_json(helpers.ug_to_json(inst))
        assert helpers.ug_to_json(again) == helpers.ug_to_json(inst)


class TestCompose:
    def test_label_count_must_match(self):
        with pytest.raises(LabelMismatch):
            compose(identity_ug(2), "dict_vertex", DictParamsV(4, 4, 3, 1, Fraction(1, 20)))

    def test_record_of_another_family_refused(self):
        # the dict-e record has no eps, which the dict-v build reads: this
        # was an AttributeError, not a CutLabError
        with pytest.raises(ParamOutOfRange, match="dict_vertex takes DictParamsV, not DictParamsE"):
            compose(identity_ug(2), "dict_vertex", DictParamsE(1, 1, 2, 2))

    def test_node_cap(self, monkeypatch):
        # the gadget has 11 nodes, 9 of them inner; two copies need 2 * 9 + 2
        p = DictParamsV(2, 2, 2, 1, Fraction(1, 5))
        monkeypatch.setattr(gadgets, "DEFAULT_MAX_NODES", 11)
        assert len(compose(identity_ug(1), "dict_vertex", p).graph.nodes) == 11
        two = UniqueGamesInstance(
            ["u0"], ["w0", "w1"], 1, [UGEdge("u0", "w0", (0,)), UGEdge("u0", "w1", (0,))]
        )
        with pytest.raises(SizeGuard, match=r"composition would have 20 nodes \(cap 11\)"):
            compose(two, "dict_vertex", p)

    def test_identity_preserves_vertex_weights(self):
        p = DictParamsV(4, 4, 3, 1, Fraction(1, 20))
        raw = build_dict_vertex(p)
        composed = compose(identity_ug(1), "dict_vertex", p)
        assert helpers.total_finite_weight(composed.graph, VERTEX) == 5
        assert helpers.total_finite_weight(raw.graph, VERTEX) == 5

    def test_identity_preserves_edge_weights_and_optima(self):
        p = DictParamsE(4, 3, 2, 1)
        raw = build_dict_edge(p)
        composed = compose(identity_ug(1), "dict_edge", p)
        assert helpers.total_finite_weight(composed.graph, EDGE) == 3
        assert (
            shortest_path_length(composed.graph, "s", "t")
            == shortest_path_length(raw.graph, "s", "t")
        )
        composed8 = helpers.with_bound(composed, 8)
        raw8 = helpers.with_bound(raw, 8)
        assert short_path_cover_lp(composed8)[0] == short_path_cover_lp(raw8)[0]
        assert (
            exact_min_length_bounded_cut(composed8).cost
            == exact_min_length_bounded_cut(raw8).cost
        )

    def test_planted_composition_preserves_total_weight(self):
        p = DictParamsV(4, 4, 3, 2, Fraction(1, 20))
        result = synth_ug(3, 3, 2, 2, mode="planted", seed=2)
        composed = compose(result.instance, "dict_vertex", p)
        assert helpers.total_finite_weight(composed.graph, VERTEX) == 5
        p_edge = DictParamsE(4, 3, 2, 2)
        composed_e = compose(result.instance, "dict_edge", p_edge)
        assert helpers.total_finite_weight(composed_e.graph, EDGE) == 3


# SHA-256 of the composed instance JSON for the benchmark's composition
# shape, recorded before compose tabulated its copy ids: synth_ug seed ->
# (edge count, digest)
FROZEN_COMPOSE_SHA256 = {
    1: (10252, "c650f5ca19a2d2c8ea51ed57ea4074921dbcef26a248d52aff30acd95eebca14"),
    5: (8810, "b59ba01193997fc85d18ae41f5095f233fc2777ef31cda041371f3725edd46d0"),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_COMPOSE_SHA256))
def test_compose_bytes_frozen(seed):
    result = synth_ug(2, 2, 2, 4, mode="planted", seed=seed)
    p = DictParamsV(2, 1, 2, 4, Fraction(1, 5))
    composed = compose(result.instance, "dict_vertex", p)
    text = instance_to_json_str(composed)
    edges, digest = FROZEN_COMPOSE_SHA256[seed]
    assert len(composed.graph.edges) == edges
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCompletenessCut:
    # test params and the coordinate that w0's label picks
    IDENTITY_CASES = {
        "dict_vertex": (DictParamsV(4, 4, 3, 1, Fraction(1, 20)), 0),
        "dict_multicut": (DictParamsM(2, 2, 2, Fraction(1, 20)), 1),
        "dict_edge": (DictParamsE(4, 3, 2, 2), 1),
        "dict_rmfc": (DictParamsF(2, 1, Fraction(1, 100)), 0),
    }

    @pytest.mark.parametrize("kind", list(IDENTITY_CASES))
    def test_identity_matches_raw_dictator_cut(self, kind):
        p, q = self.IDENTITY_CASES[kind]
        ug = identity_ug(p.R)
        composed = compose(ug, kind, p)
        cert = completeness_cut(
            composed, ug, Labeling({"u0": q, "w0": q}), frozenset({"w0"})
        )
        raw = build_by_kind(kind, p)
        raw_cut = dictator_cut(kind, p, q, raw)
        assert unprefixed(composed, cert.solution) == unprefixed(raw, raw_cut)
        if isinstance(raw_cut, Schedule):
            assert cert.solution.per_day_cost == raw_cut.per_day_cost
            assert cert.cost == raw_cut.max_day_cost()
        else:
            assert cert.cost == raw_cut.cost
        assert cert.eta == 0
        assert cert.passed
        if kind == "dict_vertex":
            assert cert.cost == Fraction(11, 6)
            assert cert.detail["dist"] >= 12

    def test_planted_vertex_composition(self):
        p = DictParamsV(4, 4, 3, 2, Fraction(1, 20))
        result = synth_ug(3, 3, 2, 2, mode="planted", seed=4)
        composed = compose(result.instance, "dict_vertex", p)
        cert = completeness_cut(
            composed, result.instance, result.labeling, result.w_prime
        )
        assert cert.eta == 0
        assert cert.cost <= (p.b + 1) * (p.eps + (1 - p.eps) / p.r)
        assert cert.passed
        assert cert.detail["dist"] >= 4 * (4 - 3 + 2)

    def test_partial_w_prime_vertex_composition(self):
        p = DictParamsV(4, 4, 3, 2, Fraction(1, 20))
        result = synth_ug(3, 3, 2, 2, mode="planted", seed=6, eta=Fraction(1, 3))
        composed = compose(result.instance, "dict_vertex", p)
        cert = completeness_cut(
            composed, result.instance, result.labeling, result.w_prime
        )
        assert cert.eta == Fraction(1, 3)
        bound = (p.b + 1) * (p.eps + (1 - p.eps) / p.r) + cert.eta * (p.b + 1)
        assert cert.cost <= bound
        assert cert.passed

    def test_planted_multicut_composition(self):
        p = DictParamsM(2, 2, 2, Fraction(1, 20))
        result = synth_ug(2, 2, 2, 2, mode="planted", seed=8)
        composed = compose(result.instance, "dict_multicut", p)
        cert = completeness_cut(
            composed, result.instance, result.labeling, result.w_prime
        )
        r, k = Fraction(2), 2
        assert cert.cost_bound == r ** (k - 1) * (1 + r * p.eps + r * cert.eta)
        assert cert.passed

    def test_planted_edge_composition(self):
        p = DictParamsE(4, 3, 2, 2)
        result = synth_ug(2, 2, 2, 2, mode="planted", seed=10)
        composed = compose(result.instance, "dict_edge", p)
        cert = completeness_cut(
            composed, result.instance, result.labeling, result.w_prime
        )
        assert cert.cost <= Fraction(2 * p.b, p.r)
        assert cert.passed
        assert cert.detail["dist"] >= 8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_edge_composition_reads_reversed_edges_forward(self, seed):
        """Composition stores an undirected edge with its ends in id order,
        so some cuttable edges run from layer i+1 back to layer i; the rule
        reads each such edge from its layer-i end. Read the other way round,
        the cut leaves a path of length 5, below the need of 6."""
        p = DictParamsE(3, 3, 2, 2)
        result = synth_ug(2, 2, 2, 2, mode="planted", seed=seed)
        composed = compose(result.instance, "dict_edge", p)
        g = composed.graph
        layer = {v: gadgets._layer(gadgets.split_block_point(v)[0].rpartition("::")[2])
                 for v in g.nodes if v not in ("s", "t")}
        assert any(w is not None and layer[a] > layer[b] for a, b, _, _, w in g.edge_rows)
        cert = completeness_cut(composed, result.instance, result.labeling, result.w_prime)
        assert (cert.cost, cert.eta) == (Fraction(15, 8), 0)
        assert cert.detail == {"dist": 9, "need": 6}
        assert cert.passed

    def test_planted_fire_composition(self):
        p = DictParamsF(2, 1, Fraction(1, 100))
        result = synth_ug(2, 2, 1, 1, mode="planted", seed=12)
        composed = compose(result.instance, "dict_rmfc", p)
        cert = completeness_cut(
            composed, result.instance, result.labeling, result.w_prime
        )
        bound = 2 * p.eps + 1 / harmonic(2)
        assert cert.cost <= bound
        assert cert.passed
        trace = rmfc_simulate(composed, cert.solution)
        assert not trace.target_burnt

    def test_imperfect_labeling_rejected(self):
        p = DictParamsV(4, 4, 3, 1, Fraction(1, 20))
        composed = compose(identity_ug(1), "dict_vertex", p)
        ug = identity_ug(1)
        bad = UniqueGamesInstance(
            ["u0"], ["w0"], 2, [UGEdge("u0", "w0", (1, 0))]
        )
        with pytest.raises(LabelingNotPerfectOnWPrime):
            completeness_cut(
                composed, bad, Labeling({"u0": 0, "w0": 0}), frozenset({"w0"})
            )

    @pytest.mark.parametrize("kind", list(IDENTITY_CASES))
    def test_flipped_mode_refused(self, kind):
        """A composition retagged to the other cut mode fits no test: both
        readers of its test refuse it before the rule or space is applied."""
        p, q = self.IDENTITY_CASES[kind]
        ug = identity_ug(p.R)
        composed = compose(ug, kind, p)
        flipped = dataclasses.replace(composed, mode=VERTEX if composed.mode == EDGE else EDGE)
        message = f"expected {composed.mode} mode for {kind}, got {flipped.mode}"
        with pytest.raises(WrongProblemType, match=message):
            completeness_cut(flipped, ug, Labeling({"u0": q, "w0": q}), frozenset({"w0"}))
        with pytest.raises(WrongProblemType, match=message):
            reachable_set_influences(flipped, frozenset(), 1, Fraction(1, 100))


class TestReachableSetInfluences:
    def test_table_cap(self, monkeypatch):
        # R = 2 over the 3 atoms {*, 1, 2}: a table of 9 points
        inst = build_dict_vertex(DictParamsV(2, 2, 2, 2, Fraction(1, 5)))
        monkeypatch.setattr(ug, "INFLUENCE_TABLE_CAP", 9)
        assert reachable_set_influences(inst, frozenset(), 1, Fraction(1, 100)).blocks
        monkeypatch.setattr(ug, "INFLUENCE_TABLE_CAP", 8)
        with pytest.raises(SizeGuard, match="hypercube too large"):
            reachable_set_influences(inst, frozenset(), 1, Fraction(1, 100))

    def test_more_than_eight_coordinates(self):
        # 2^9 points fit the table cap, but R = 9 is refused. The guard reads
        # the test from the provenance before the graph, so a two-node stand-in
        # replaces the real R = 9 test, whose 263k edges take seconds to build
        g = WeightedGraph()
        g.add_node("s")
        g.add_node("t")
        g.add_edge("s", "t", directed=True, weight=Fraction(1))
        inst = CutInstance(
            graph=g,
            mode=EDGE,
            problem=LengthBound("s", "t", 2),
            provenance={"generator": "dict_edge", "params": {"a": 1, "b": 1, "r": 2, "R": 9}},
        )
        assert 2**9 <= ug.INFLUENCE_TABLE_CAP
        with pytest.raises(SizeGuard, match="hypercube too large"):
            reachable_set_influences(inst, frozenset(), 1, Fraction(1, 100))

    def test_empty_cut_all_ones(self):
        p = DictParamsV(2, 2, 2, 1, Fraction(1, 5))
        inst = build_dict_vertex(p)
        report = reachable_set_influences(inst, frozenset(), 1, Fraction(1, 100))
        assert report.blocks
        for block in report.blocks:
            assert block.measure == 1
            assert all(full == 0 for full, _ in block.influences)
            assert block.flagged == []
        assert report.terminal_status["sink_reachable"]

    def test_alternating_dictator_cut_reveals_single_coordinate(self):
        p = DictParamsV(2, 2, 2, 2, Fraction(1, 5))
        inst = build_dict_vertex(p)
        q = 0
        full_cut = dictator_cut("dict_vertex", p, q, inst)
        partial = frozenset(
            v for v in full_cut.elements if v.startswith("v[0]") or v.startswith("v[2]")
        )
        report = reachable_set_influences(inst, partial, 2, Fraction(1, 100))
        for block in report.blocks:
            full_infl = [full for full, _ in block.influences]
            assert full_infl[1 - q] == 0
            if block.block in ("v[0]", "v[2]"):
                assert block.measure < 1
                assert block.flagged == [q]
            else:
                assert block.measure == 1

    def test_full_dictator_cut_disconnects_and_flags(self):
        p = DictParamsM(2, 2, 2, Fraction(1, 20))
        inst = __import__("cutlab.gadgets", fromlist=["build_dict_multicut"]).build_dict_multicut(p)
        cut = dictator_cut("dict_multicut", p, 1, inst)
        report = reachable_set_influences(inst, cut, 2, Fraction(1, 100))
        assert all(not ok for ok in report.terminal_status.values())

    def test_composition_blocks_follow_per_copy_labels(self):
        p = DictParamsV(2, 2, 2, 2, Fraction(1, 5))
        result = synth_ug(2, 2, 2, 2, mode="planted", seed=14)
        composed = compose(result.instance, "dict_vertex", p)
        cert = completeness_cut(
            composed, result.instance, result.labeling, result.w_prime
        )
        report = reachable_set_influences(
            composed, cert.solution, 2, Fraction(1, 1000)
        )
        label = result.labeling.label
        for block in report.blocks:
            w = block.block.split("::", 1)[0]
            q = label[w]
            full_infl = [full for full, _ in block.influences]
            assert full_infl[1 - q] == 0
            if block.measure not in (0, 1):
                assert block.flagged == [q]

    def test_cheap_cut_leaves_surviving_pair(self):
        p = DictParamsM(2, 2, 1, Fraction(1, 20))
        from cutlab.gadgets import build_dict_multicut

        inst = build_dict_multicut(p)
        cut = frozenset(
            v
            for v in inst.graph.nodes
            if v.startswith("v[1,") and v.endswith(("[*]", "[0]"))
        )
        weight = sum(
            (inst.graph.node_weight(v) for v in cut), Fraction(0)
        )
        threshold = (1 - p.eps) * 2 * (2 - 1) ** (2 - 1)
        assert weight < threshold
        report = reachable_set_influences(inst, cut, 1, Fraction(1, 100))
        assert any(report.terminal_status.values())
