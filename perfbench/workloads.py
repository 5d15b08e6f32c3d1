"""The benchmark's three workloads: their jobs, the inputs each job gets
from the workload seed, and the answers each job must reproduce.

A workload is a list of jobs run in order; one pass runs every job once.
Most jobs go through ``cutlab.cli.main`` with an argv list, the rest call
the public ``cutlab.ug`` functions. Every job has a check that raises
``CheckFailed`` on a wrong answer. The checks compare values every correct
solver must reproduce (LP and integral optima, gap-table rows, interdiction
distances, ``generate`` bytes, ``verify``/``rmfc`` output), and for answers
that may legally change with tie-breaking (cut elements, rounded LP
vertices) they check the guarantee instead: feasibility, cost and bound,
with a shortest-path search of the benchmark's own.

The frozen values were produced by the commit that introduced the
benchmark. Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable

from cutlab import cli, gadgets, ug

# Seed-dependent inputs live in build_verify: the synth_ug seed is
# seed % UG_SEEDS, and the 1-based --q coordinate is seed % R + 1.
UG_SEEDS = 8
DICT_V = "a=2,b=3,r=3,R=4,eps=1/20"
DICT_V_R = 4
DICT_E = "a=2,b=3,r=2,R=5"
DICT_E_R = 5
UG_SHAPE = (2, 2, 2, 4)  # |U|, |W|, degree, R
UG_TEST = gadgets.DictParamsV(2, 1, 2, 4, Fraction(1, 5))


class CheckFailed(Exception):
    """A job's output differs from the answer it must reproduce."""


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def cli_job(argv: list[str], check: Callable[[CliResult], None]) -> Job:
    def checked(res: CliResult) -> None:
        expect(res.code == 0, f"exit code {res.code}: {res.err.strip()}")
        check(res)

    return Job(" ".join(argv[:5]), lambda: run_cli(argv), checked)


# -- independent checks -----------------------------------------------------


def post_cut_distance(inst, removed, s: str, t: str) -> int | None:
    """Shortest s-t length avoiding ``removed`` (Dijkstra on the edge list)."""
    g = inst.graph
    gone_nodes = set(removed) if inst.mode == "vertex" else set()
    gone_edges = set(removed) if inst.mode == "edge" else set()
    if s in gone_nodes or t in gone_nodes:
        return None
    adj: dict[str, list[tuple[str, int]]] = {}
    for i, e in enumerate(g.edges):
        if i in gone_edges or e.tail in gone_nodes or e.head in gone_nodes:
            continue
        adj.setdefault(e.tail, []).append((e.head, e.length))
        if not e.directed:
            adj.setdefault(e.head, []).append((e.tail, e.length))
    dist = {s: 0}
    heap = [(0, s)]
    while heap:
        d, v = heappop(heap)
        if v == t:
            return d
        if d > dist[v]:
            continue
        for w, length in adj.get(v, ()):
            if d + length < dist.get(w, d + length + 1):
                dist[w] = d + length
                heappush(heap, (d + length, w))
    return None


def decode_elements(inst, names: list[str]) -> list:
    return [int(n) for n in names] if inst.mode == "edge" else list(names)


def element_cost(inst, elements) -> Fraction:
    g = inst.graph
    weights = (
        g.edges[el].weight if inst.mode == "edge" else g.node_weight(el)
        for el in set(elements)
    )
    total = Fraction(0)
    for w in weights:
        expect(w is not None, "cut removes an uncuttable element")
        total += w
    return total


def exact_output(expected: str) -> Callable[[CliResult], None]:
    def check(res: CliResult) -> None:
        expect(res.out == expected, f"output {res.out!r} != {expected!r}")

    return check


def json_output(expected: dict) -> Callable[[CliResult], None]:
    def check(res: CliResult) -> None:
        doc = json.loads(res.out)
        expect(doc == expected, f"output {doc} != {expected}")

    return check


def file_digest(path: str, expected: str) -> Callable[[CliResult], None]:
    def check(res: CliResult) -> None:
        expect(res.out == "", "generate --out wrote to stdout")
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        expect(digest == expected, f"{os.path.basename(path)} sha256 {digest}")

    return check


def multicut_optimum(inst, optimum: Fraction) -> Callable[[CliResult], None]:
    """``exact`` on a multicut instance: optimal cost, feasible elements."""

    def check(res: CliResult) -> None:
        doc = json.loads(res.out)
        elements = decode_elements(inst, doc["elements"])
        expect(Fraction(doc["cost"]) == optimum, f"cost {doc['cost']} != {optimum}")
        expect(element_cost(inst, elements) == optimum, "cost is not the elements' weight")
        for s, t in inst.problem.pairs:
            expect(post_cut_distance(inst, elements, s, t) is None, f"{s}-{t} still joined")

    return check


def per_pair_bound(inst, lp_value: Fraction, optimum: Fraction) -> Callable[[CliResult], None]:
    """``approx`` on multicut: OPT <= cost <= (#pairs) * LP."""

    def check(res: CliResult) -> None:
        cost = Fraction(json.loads(res.out)["cost"])
        cap = len(inst.problem.pairs) * lp_value
        expect(optimum <= cost <= cap, f"cost {cost} outside [{optimum}, {cap}]")

    return check


def rounding_bound(inst, lp_value: Fraction, optimum: Fraction) -> Callable[[CliResult], None]:
    """``approx`` on length-bound: exact LP value, OPT <= cost <= (bound-1) * LP."""

    def check(res: CliResult) -> None:
        doc = json.loads(res.out)
        expect(Fraction(doc["lp_value"]) == lp_value, f"lp_value {doc['lp_value']}")
        cost = Fraction(doc["cost"])
        cap = (inst.problem.bound - 1) * lp_value
        expect(optimum <= cost <= cap, f"cost {cost} outside [{optimum}, {cap}]")

    return check


def interdiction(inst, budget: Fraction, best: int) -> Callable[[CliResult], None]:
    """Best distance, and a witnessing cut within budget that achieves it."""

    def check(res: CliResult) -> None:
        doc = json.loads(res.out)
        expect(doc["best_distance"] == best, f"best_distance {doc['best_distance']} != {best}")
        elements = decode_elements(inst, doc["elements"])
        cost = Fraction(doc["cut_cost"])
        expect(cost <= budget, f"cut cost {cost} over budget {budget}")
        expect(element_cost(inst, elements) == cost, "cut_cost is not the elements' weight")
        p = inst.problem
        dist = post_cut_distance(inst, elements, p.source, p.sink)
        expect(dist == best, f"cut leaves distance {dist}, not {best}")

    return check


def gap_rows(family: str, params: str, rows: list[str]) -> Job:
    header = "family,params,lp_value,integral_value,gap,wall_ms"
    argv = ["gap-table", "--family", family, "--params", params]
    return cli_job(argv, exact_output("\n".join([header, *rows]) + "\n"))


# -- workloads --------------------------------------------------------------


def multicut_gap(seed: int, workdir: str) -> list[Job]:
    saks5 = gadgets.build_saks_gap(5, 2)
    saks4 = gadgets.build_saks_gap(4, 2)
    return [
        gap_rows("saks", "k=2,r=2..4", [
            "saks,k=2;r=2,2/1,3/1,3/2,0",
            "saks,k=2;r=3,3/1,5/1,5/3,0",
            "saks,k=2;r=4,4/1,7/1,7/4,0",
        ]),
        gap_rows("saks", "k=3,r=2", ["saks,k=3;r=2,4/1,7/1,7/4,0"]),
        gap_rows("dict-m", "r=2,k=2,R=1,eps=1/5", ["dict-m,R=1;eps=1/5;k=2;r=2,2/1,12/5,6/5,0"]),
        cli_job(
            ["exact", "--family", "saks", "--params", "r=5,k=2"],
            multicut_optimum(saks5, Fraction(9)),
        ),
        cli_job(
            ["approx", "--family", "saks", "--params", "r=4,k=2"],
            per_pair_bound(saks4, Fraction(4), Fraction(7)),
        ),
    ]


def length_cover(seed: int, workdir: str) -> list[Job]:
    dict_v = "a=4,b=4,r=3,R=1,eps=1/20"
    dict_e = "a=4,b=3,r=2,R=1"
    inst_v = gadgets.build_dict_vertex(gadgets.DictParamsV(4, 4, 3, 1, Fraction(1, 20)))
    inst_e = gadgets.build_dict_edge(gadgets.DictParamsE(4, 3, 2, 1))
    return [
        gap_rows("dict-e", dict_e, ["dict-e,R=1;a=4;b=3;r=2,1/1,1/1,1/1,0"]),
        gap_rows("dict-e", "a=6,b=3,r=2,R=1", ["dict-e,R=1;a=6;b=3;r=2,3/2,13/8,13/12,0"]),
        gap_rows("dict-v", dict_v, ["dict-v,R=1;a=4;b=4;eps=1/20;r=3,1/1,1/1,1/1,0"]),
        cli_job(
            ["approx", "--family", "dict-v", "--params", dict_v],
            rounding_bound(inst_v, Fraction(1), Fraction(1)),
        ),
        cli_job(
            ["interdict", "--family", "dict-e", "--params", dict_e, "--budget", "15/8"],
            interdiction(inst_e, Fraction(15, 8), 11),
        ),
        cli_job(
            ["interdict", "--family", "dict-v", "--params", dict_v, "--budget", "3/2"],
            interdiction(inst_v, Fraction(3, 2), 12),
        ),
    ]


def build_verify(seed: int, workdir: str) -> list[Job]:
    ug_seed = seed % UG_SEEDS
    q_v = seed % DICT_V_R + 1
    q_e = seed % DICT_E_R + 1
    v_json = os.path.join(workdir, "dict-v.json")
    m_json = os.path.join(workdir, "dict-m.json")
    synth = ug.synth_ug(*UG_SHAPE, mode="planted", seed=ug_seed)
    state: dict = {}

    def compose():
        state["composed"] = ug.compose(synth.instance, "dict_vertex", UG_TEST)
        return state["composed"]

    def completeness():
        state["cert"] = ug.completeness_cut(
            state["composed"], synth.instance, synth.labeling, synth.w_prime
        )
        return state["cert"]

    def influences():
        return ug.reachable_set_influences(
            state["composed"], state["cert"].solution, 2, Fraction(1, 10)
        )

    return [
        cli_job(
            ["generate", "--family", "dict-v", "--params", DICT_V, "--out", v_json],
            file_digest(v_json, DICT_V_SHA256),
        ),
        cli_job(
            ["verify", "--instance", v_json, "--q", str(q_v)],
            exact_output(VERIFY_V),
        ),
        cli_job(
            ["generate", "--family", "dict-m", "--params", "r=3,k=2,R=2,eps=1/10", "--out", m_json],
            file_digest(m_json, DICT_M_SHA256),
        ),
        cli_job(
            ["verify", "--family", "dict-e", "--params", DICT_E, "--q", str(q_e)],
            exact_output(VERIFY_E),
        ),
        cli_job(
            ["rmfc", "--family", "dict-f", "--params", "b=2,R=1,eps=1/100", "--search-budget", "1/2"],
            json_output({"savable": False}),
        ),
        cli_job(
            ["rmfc", "--family", "dict-f", "--params", "b=3,R=1,eps=1/1000", "--q", "1"],
            json_output(RMFC_SIMULATE),
        ),
        Job("ug.compose", compose, lambda inst: check_composed(inst, ug_seed)),
        Job("ug.completeness_cut", completeness, lambda cert: check_cert(cert, state["composed"])),
        Job("ug.reachable_set_influences", influences, lambda rep: check_influences(rep, ug_seed)),
    ]


def composed_summary(inst) -> list:
    g = inst.graph
    edge_weights = [e.weight for e in g.edges]
    node_weights = [g.node_weight(v) for v in g.nodes]
    return [
        len(node_weights),
        len(edge_weights),
        edge_weights.count(None),
        str(sum(w for w in edge_weights if w is not None)),
        str(sum(w for w in node_weights if w is not None)),
    ]


def check_composed(inst, ug_seed: int) -> None:
    summary = composed_summary(inst)
    expect(summary == COMPOSED[ug_seed], f"composition {summary} != {COMPOSED[ug_seed]}")


def check_cert(cert, inst) -> None:
    """Completeness guarantee: cost within the bound, post-cut distance."""
    cost, bound, dist = COMPLETENESS
    p = inst.problem
    elements = cert.solution.elements
    expect(str(cert.cost) == cost and str(cert.cost_bound) == bound, "cost or bound changed")
    expect(element_cost(inst, elements) == cert.cost, "cost is not the elements' weight")
    expect(cert.cost <= cert.cost_bound and cert.cost_ok, "cost above the bound")
    found = post_cut_distance(inst, elements, p.source, p.sink)
    expect(found == dist and cert.property_ok, f"post-cut distance {found} != {dist}")


def influence_digest(rep) -> str:
    blocks = sorted(
        (b.block, str(b.measure), [[str(x) for x in pair] for pair in b.influences], b.flagged)
        for b in rep.blocks
    )
    doc = {"blocks": blocks, "status": rep.terminal_status}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_influences(rep, ug_seed: int) -> None:
    digest = influence_digest(rep)
    expect(digest == INFLUENCES[ug_seed], f"influence report digest {digest}")


WORKLOADS = {
    "multicut_gap": multicut_gap,
    "length_cover": length_cover,
    "build_verify": build_verify,
}

# -- frozen answers ---------------------------------------------------------

DICT_V_SHA256 = "be88b7ffb5a26e99d20695b00f89f63ce9f6ba364d1b791f34e69ebc5cd3c1d6"
DICT_M_SHA256 = "ff4e58edbd2f751bdf4d8e67de0bda020c02de20a35e38978e5cd51dc188ad7e"
# the dictator cuts are symmetric in q, so every coordinate prints the same
VERIFY_V = 'PASS  cut weight = 22/15\nPASS  post-cut distance >= 4\n{"cost": "22/15", "dist": 7}\n'
VERIFY_E = 'PASS  cut weight <= 3/1\nPASS  post-cut distance >= 4\n{"cost": "15/8", "dist": 7}\n'
RMFC_SIMULATE = {
    "days_simulated": 3,
    "per_day_cost": ["1201/2200", "752/1375", "6027/11000"],
    "target_burnt": False,
}
# ug seed -> [nodes, edges, uncuttable edges, finite edge weight, finite node weight]
COMPOSED = {
    0: [326, 12268, 12268, "0", "2"],
    1: [326, 10252, 10252, "0", "2"],
    2: [326, 11624, 11624, "0", "2"],
    3: [326, 12268, 12268, "0", "2"],
    4: [326, 11624, 11624, "0", "2"],
    5: [326, 8810, 8810, "0", "2"],
    6: [326, 8810, 8810, "0", "2"],
    7: [326, 11624, 11624, "0", "2"],
}
# completeness cut: cost, cost bound, post-cut distance (same for every ug seed)
COMPLETENESS = ("6/5", "6/5", 4)
# ug seed -> sha256 of the canonical influence report (see influence_digest)
INFLUENCES = {
    0: "b2524e4991e37de4ce72ad1bc162daab48b82793c6a895cbbc3cccf04abd2471",
    1: "ec8b0ba5b397fd219c603ad7a87cd6589528959831578c8a86eca8eece261e23",
    2: "75664833636bfa57982166a0166f30c47ff9ebbf1588940e3b75f507aa85c1d8",
    3: "c7b64f68b1d447fc15ce71223eb5ddbfdddf4acb5dd213e6434b802b64f8caeb",
    4: "613ae274a601dfa497e83a66f457f0080d4180571cfd349ec1e87c66f8b75e88",
    5: "613ae274a601dfa497e83a66f457f0080d4180571cfd349ec1e87c66f8b75e88",
    6: "e7b7902896206ffcd3e00aafb0f9db1f7a7715d5931181e21eb1a9f5e8136d9c",
    7: "d287a7cc8bb4935ec0db3c6469eb6d3778c3f7341a6f9314d980b5fc93c3f5b1",
}
