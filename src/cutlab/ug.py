"""Permutation-constraint instances, their composition with the hypercube
tests, the completeness cuts with exact costs, and reachable-set influence
diagnostics.

Labels and coordinates are 0-based throughout. A constraint edge (u, w)
with permutation ``perm`` is satisfied by a labeling ``l`` when
``l(u) == perm[l(w)]``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    InfeasibleDegrees,
    LabelingNotPerfectOnWPrime,
    LabelMismatch,
    SizeGuard,
    UnknownGenerator,
)
from .gadgets import (
    Family,
    TestParams,
    dictator_family,
    fmt_point,
    rule_cut,
    split_block_point,
)
from .graphs import (
    CutInstance,
    CutSolution,
    Element,
    LengthBound,
    Multicut,
    Schedule,
    WeightedGraph,
    shortest_path_length,
)
from .probspace import ProductFunction, efron_stein_influences

DEFAULT_MAX_NODES = 200_000
INFLUENCE_TABLE_CAP = 20_000


# -- instances and labelings -------------------------------------------------


@dataclass(frozen=True)
class UGEdge:
    u: str
    w: str
    perm: tuple[int, ...]


class UniqueGamesInstance:
    """Biregular bipartite permutation-constraint instance."""

    def __init__(
        self,
        u_side: Sequence[str],
        w_side: Sequence[str],
        r_labels: int,
        edges: Sequence[UGEdge],
    ) -> None:
        self.U = tuple(u_side)
        self.W = tuple(w_side)
        self.R = r_labels
        self.edges = tuple(edges)
        if not self.U or not self.W or not self.edges:
            raise ValueError("instance must be nonempty")
        ident = set(range(r_labels))
        for e in self.edges:
            if set(e.perm) != ident:
                raise ValueError(f"perm on ({e.u},{e.w}) is not a bijection")
        deg_u: dict[str, int] = {u: 0 for u in self.U}
        deg_w: dict[str, int] = {w: 0 for w in self.W}
        for e in self.edges:
            deg_u[e.u] += 1
            deg_w[e.w] += 1
        if len(set(deg_u.values())) != 1 or len(set(deg_w.values())) != 1:
            raise ValueError("instance must be biregular")
        self.degree_u = next(iter(deg_u.values()))
        self.degree_w = next(iter(deg_w.values()))
        self._nbrs: dict[str, list[UGEdge]] = {u: [] for u in self.U}
        for e in self.edges:
            self._nbrs[e.u].append(e)

    def neighbors(self, u: str) -> list[UGEdge]:
        """Constraint edges at u, with multiplicity."""
        return self._nbrs[u]

    def to_json(self) -> dict:
        return {
            "U": list(self.U),
            "W": list(self.W),
            "R": self.R,
            "edges": [
                {"u": e.u, "w": e.w, "perm": list(e.perm)} for e in self.edges
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "UniqueGamesInstance":
        return UniqueGamesInstance(
            doc["U"],
            doc["W"],
            int(doc["R"]),
            [UGEdge(e["u"], e["w"], tuple(e["perm"])) for e in doc["edges"]],
        )


@dataclass(frozen=True)
class Labeling:
    label: Mapping[str, int]

    def satisfied_fraction(self, ug: UniqueGamesInstance) -> Fraction:
        hits = sum(
            1 for e in ug.edges if self.label[e.u] == e.perm[self.label[e.w]]
        )
        return Fraction(hits, len(ug.edges))


@dataclass(frozen=True)
class SynthesizedUG:
    instance: UniqueGamesInstance
    labeling: Labeling | None
    w_prime: frozenset[str] | None


def synth_ug(
    n_u: int,
    n_w: int,
    degree: int,
    r_labels: int,
    mode: str = "planted",
    seed: int = 0,
    eta: Fraction = Fraction(0),
) -> SynthesizedUG:
    """Seeded biregular instance factory.

    ``planted`` draws a hidden labeling and makes every edge incident on a
    (1-eta)-fraction subset of the w side consistent with it; ``random``
    draws uniform permutations. Deterministic under the seed.
    """
    if n_u < 1 or n_w < 1 or degree < 1 or r_labels < 1:
        raise InfeasibleDegrees("all sizes must be positive")
    if (degree * n_u) % n_w != 0:
        raise InfeasibleDegrees(
            f"degree {degree} x |U| {n_u} is not divisible by |W| {n_w}"
        )
    if mode not in ("planted", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    eta = Fraction(eta)
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0,1]")
    rng = random.Random(seed)
    u_side = [f"u{i}" for i in range(n_u)]
    w_side = [f"w{i}" for i in range(n_w)]
    degree_w = degree * n_u // n_w
    w_stubs = [w for w in w_side for _ in range(degree_w)]
    rng.shuffle(w_stubs)
    stub_pairs = [
        (u, w_stubs[i * degree + j])
        for i, u in enumerate(u_side)
        for j in range(degree)
    ]

    def random_perm() -> list[int]:
        perm = list(range(r_labels))
        rng.shuffle(perm)
        return perm

    if mode == "random":
        edges = [UGEdge(u, w, tuple(random_perm())) for u, w in stub_pairs]
        return SynthesizedUG(
            UniqueGamesInstance(u_side, w_side, r_labels, edges), None, None
        )

    label = {v: rng.randrange(r_labels) for v in u_side + w_side}
    keep = math.ceil((1 - eta) * n_w)
    w_prime = frozenset(rng.sample(w_side, keep))
    edges = []
    for u, w in stub_pairs:
        perm = random_perm()
        if w in w_prime:
            # force perm[label(w)] = label(u)
            j = perm.index(label[u])
            perm[j], perm[label[w]] = perm[label[w]], perm[j]
        edges.append(UGEdge(u, w, tuple(perm)))
    return SynthesizedUG(
        UniqueGamesInstance(u_side, w_side, r_labels, edges),
        Labeling(label),
        w_prime,
    )


# -- composition ---------------------------------------------------------------


def apply_perm(x: Sequence, perm: Sequence[int]) -> tuple:
    """Coordinate relabeling: result[j] = x[perm[j]]."""
    return tuple(x[perm[j]] for j in range(len(perm)))


def _composed_id(w: str, block: str, point: Sequence) -> str:
    return f"{w}::{block}/{fmt_point(point)}"


def compose(
    ug: UniqueGamesInstance,
    kind: str,
    params: TestParams,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> CutInstance:
    """Blow up each w-side vertex into a copy of the test and wire copies
    through the constraint permutations.

    For every constraint vertex u, every ordered pair of its neighbor
    edges, and every test edge, one composed edge is created between the
    permuted endpoints; it carries the test weight scaled by the sampling
    probability of the triple. Parallel composed edges with identical
    endpoints and length are merged by weight summation. Terminal edges
    are replicated once per w-side vertex.
    """
    family = dictator_family(kind)
    if params.R != ug.R:
        raise LabelMismatch(f"test has R = {params.R}, instance has R = {ug.R}")
    gadget = family.build(params, max_nodes)
    gg = gadget.graph
    terminals = set(gadget.terminals())
    inner = [v for v in gg.nodes if v not in terminals]
    _guard = len(ug.W) * len(inner) + len(terminals)
    if _guard > max_nodes:
        raise SizeGuard(f"composition would have {_guard} nodes (cap {max_nodes})")

    out = WeightedGraph()
    for v in gg.nodes:
        if v in terminals:
            out.add_node(v, None)
    n_w = len(ug.W)
    for w in ug.W:
        for v in inner:
            out.add_node(
                f"{w}::{v}",
                None if gg.node_weight(v) is None else gg.node_weight(v) / n_w,
            )

    # terminal attachments, replicated per w
    for e in gg.edges:
        if e.tail in terminals or e.head in terminals:
            for w in ug.W:
                tail = e.tail if e.tail in terminals else f"{w}::{e.tail}"
                head = e.head if e.head in terminals else f"{w}::{e.head}"
                out.add_edge(
                    tail, head, directed=e.directed, length=e.length, weight=e.weight
                )

    prob = Fraction(1, len(ug.U) * ug.degree_u * ug.degree_u)
    merged: dict[tuple, Fraction | None] = {}
    inner_edges = [
        e for e in gg.edges if e.tail not in terminals and e.head not in terminals
    ]
    parsed = {v: split_block_point(v) for v in inner}
    for u in ug.U:
        nbrs = ug.neighbors(u)
        for e1 in nbrs:
            for e2 in nbrs:
                for e in inner_edges:
                    blk1, x1 = parsed[e.tail]
                    blk2, x2 = parsed[e.head]
                    tail = _composed_id(e1.w, blk1, apply_perm(x1, e1.perm))
                    head = _composed_id(e2.w, blk2, apply_perm(x2, e2.perm))
                    if e.directed:
                        key = (tail, head, True, e.length)
                    else:
                        lo, hi = sorted((tail, head))
                        key = (lo, hi, False, e.length)
                    add = None if e.weight is None else e.weight * prob
                    if key not in merged:
                        merged[key] = add
                    elif merged[key] is not None:
                        merged[key] = None if add is None else merged[key] + add
    for (tail, head, directed, length), weight in merged.items():
        out.add_edge(tail, head, directed=directed, length=length, weight=weight)

    prov_inner = dict(gadget.provenance or {})
    return CutInstance(
        graph=out,
        mode=gadget.mode,
        problem=gadget.problem,
        provenance={
            "generator": "compose",
            "test": kind,
            "test_params": prov_inner.get("params", {}),
            "num_u": len(ug.U),
            "num_w": len(ug.W),
            "degree": ug.degree_u,
        },
    )


# -- completeness cuts -----------------------------------------------------------


@dataclass
class CompletenessCertificate:
    """A completeness cut or schedule with its exact cost, the claimed
    cost bound, and the outcome of the post-cut property check."""

    solution: CutSolution | Schedule
    cost: Fraction
    cost_bound: Fraction
    eta: Fraction
    cost_ok: bool
    property_ok: bool
    detail: dict

    @property
    def passed(self) -> bool:
        return self.cost_ok and self.property_ok


def _check_labeling(
    ug: UniqueGamesInstance, labeling: Labeling, w_prime: Iterable[str]
) -> None:
    wset = set(w_prime)
    for e in ug.edges:
        if e.w in wset and labeling.label[e.u] != e.perm[labeling.label[e.w]]:
            raise LabelingNotPerfectOnWPrime(
                f"edge ({e.u},{e.w}) unsatisfied but {e.w} is in W'"
            )


def _test_of(inst: CutInstance) -> tuple[Family, TestParams]:
    """The test family and params record of a raw or composed test."""
    prov = inst.provenance or {}
    if prov.get("generator") == "compose":
        kind, values = prov.get("test"), prov.get("test_params")
    else:
        kind, values = prov.get("generator"), prov.get("params")
    family = dictator_family(kind)
    return family, family.params(values)


def completeness_cut(
    composed: CutInstance,
    ug: UniqueGamesInstance,
    labeling: Labeling,
    w_prime: Iterable[str],
) -> CompletenessCertificate:
    """Per-copy dictator cut at each w's label (full removal off W'),
    certified against the exact cost bound and the post-cut property."""
    if (composed.provenance or {}).get("generator") != "compose":
        raise UnknownGenerator("instance does not carry composition provenance")
    family, params = _test_of(composed)
    w_prime = frozenset(w_prime)
    _check_labeling(ug, labeling, w_prime)
    eta = Fraction(len(ug.W) - len(w_prime), len(ug.W))
    label = labeling.label
    solution = rule_cut(
        family, params, composed, lambda w: label[w] if w in w_prime else None
    )
    cost = (
        solution.cost
        if isinstance(solution, CutSolution)
        else solution.max_day_cost()
    )
    bound = family.cost_bound(params, eta)
    _, prop_ok, detail = family.check(params, composed, solution)
    return CompletenessCertificate(
        solution=solution,
        cost=cost,
        cost_bound=bound,
        eta=eta,
        cost_ok=cost <= bound,
        property_ok=prop_ok,
        detail=detail,
    )


# -- reachable-set influence diagnostics ------------------------------------------


@dataclass
class BlockReport:
    block: str
    measure: Fraction
    influences: list[tuple[Fraction, Fraction]]
    flagged: list[int]


@dataclass
class InfluenceReport:
    blocks: list[BlockReport]
    terminal_status: dict[str, object]


def reachable_set_influences(
    inst: CutInstance,
    cut: CutSolution | Iterable[Element],
    d: int,
    tau: Fraction,
) -> InfluenceReport:
    """Per-block reachable-set indicators after removing the cut, their
    low-degree influences, and the coordinates whose influence reaches tau.

    A block is one hypercube of the test (a layer, a grid point, or a
    (w, layer) pair in a composition); its indicator marks the points
    whose node is reachable from the instance's source terminals.
    """
    family, params = _test_of(inst)
    space = family.space(params)
    r_coords = params.R
    if len(space) ** r_coords > INFLUENCE_TABLE_CAP or r_coords > 8:
        raise SizeGuard("hypercube too large for influence diagnostics")

    elements = cut.elements if isinstance(cut, CutSolution) else frozenset(cut)
    rnodes, redges = inst.graph.check_removable(elements)

    problem = inst.problem
    if isinstance(problem, Multicut):
        sources = [s for s, _ in problem.pairs]
    else:
        sources = [problem.source]

    g = inst.graph
    reached: set[str] = set()
    reach_from: dict[str, set[str]] = {}
    for src in sources:
        if src in rnodes:
            reach_from[src] = set()
            continue
        stack = [src]
        seen = {src}
        while stack:
            v = stack.pop()
            for idx, nb in g.out_arcs(v):
                if idx in redges or nb in rnodes or nb in seen:
                    continue
                seen.add(nb)
                stack.append(nb)
        reach_from[src] = seen
        reached |= seen

    terminals = set(inst.terminals())
    blocks: dict[str, set[tuple]] = {}
    for v in g.nodes:
        if v in terminals:
            continue
        block, point = split_block_point(v)
        blocks.setdefault(block, set())
        if v in reached:
            blocks[block].add(point)

    reports = []
    for block in blocks:
        members = blocks[block]
        f = ProductFunction.indicator(space, r_coords, lambda p: p in members)
        infl = efron_stein_influences(f, d)
        flagged = [i for i, (_, low) in enumerate(infl) if low >= tau]
        reports.append(
            BlockReport(
                block=block,
                measure=f.mean(),
                influences=infl,
                flagged=flagged,
            )
        )

    status: dict[str, object] = {}
    if isinstance(problem, Multicut):
        for s, t in problem.pairs:
            status[f"{s}->{t}"] = t in reach_from[s]
    elif isinstance(problem, LengthBound):
        status["sink_reachable"] = problem.sink in reached
        status["dist"] = shortest_path_length(
            g, problem.source, problem.sink, elements
        )
    else:
        status["targets_reachable"] = {
            t: t in reached for t in sorted(problem.targets)
        }
    return InfluenceReport(blocks=reports, terminal_status=status)
