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

from . import gadgets
from .errors import (
    InfeasibleDegrees,
    LabelingNotPerfectOnWPrime,
    LabelMismatch,
    SizeGuard,
    UnknownGenerator,
)
from .gadgets import (
    TestParams,
    dictator_family,
    provenance_test,
    require_fit,
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


def compose(
    ug: UniqueGamesInstance,
    kind: str,
    params: TestParams,
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
    family = dictator_family(kind, params)
    if params.R != ug.R:
        raise LabelMismatch(f"test has R = {params.R}, instance has R = {ug.R}")
    max_nodes = gadgets.DEFAULT_MAX_NODES
    gadget = family.build(params)
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
                gadgets.composed_id(w, v),
                None if gg.node_weight(v) is None else gg.node_weight(v) / n_w,
            )

    # terminal attachments, replicated per w
    out.add_edges(
        (
            tail if tail in terminals else gadgets.composed_id(w, tail),
            head if head in terminals else gadgets.composed_id(w, head),
            directed,
            length,
            weight,
        )
        for tail, head, directed, length, weight in gg.edge_rows
        if tail in terminals or head in terminals
        for w in ug.W
    )

    prob = Fraction(1, len(ug.U) * ug.degree_u * ug.degree_u)
    inner_edges = [
        (tail, head, directed, length, None if weight is None else weight * prob)
        for tail, head, directed, length, weight in gg.edge_rows
        if tail not in terminals and head not in terminals
    ]
    parsed = {v: split_block_point(v) for v in inner}

    def copy_ids(edge: UGEdge) -> dict[str, str]:
        """Each inner node's id in w's copy, relabelled through the edge."""
        return {
            v: gadgets.composed_id(edge.w, gadgets.point_id(block, apply_perm(x, edge.perm)))
            for v, (block, x) in parsed.items()
        }

    merged: dict[tuple, Fraction | None] = {}
    for u in ug.U:
        tables = [copy_ids(edge) for edge in ug.neighbors(u)]
        for ids1 in tables:
            for ids2 in tables:
                for tail, head, directed, length, add in inner_edges:
                    a, b = ids1[tail], ids2[head]
                    if directed:
                        key = (a, b, True, length)
                    elif a < b:
                        key = (a, b, False, length)
                    else:
                        key = (b, a, False, length)
                    if key not in merged:
                        merged[key] = add
                    elif merged[key] is not None:
                        merged[key] = None if add is None else merged[key] + add
    out.add_edges(key + (weight,) for key, weight in merged.items())

    return CutInstance(
        graph=out,
        mode=gadget.mode,
        problem=gadget.problem,
        provenance={
            "generator": "compose",
            "test": kind,
            "test_params": gadget.provenance["params"],
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
    family, params = provenance_test(composed, composed=True)
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
    _, prop_ok, detail = gadgets.post_cut_check(params, composed, solution)
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
    family, params = provenance_test(inst, composed=True)
    require_fit(family, inst)
    space = family.space(params)
    r_coords = params.R
    if r_coords > 8 or len(space) ** r_coords > INFLUENCE_TABLE_CAP:
        raise SizeGuard("hypercube too large for influence diagnostics")

    elements = cut.elements if isinstance(cut, CutSolution) else frozenset(cut)
    rnodes, redges = inst.graph.check_removable(elements)

    problem = inst.problem
    if isinstance(problem, Multicut):
        sources = [s for s, _ in problem.pairs]
    else:
        sources = [problem.source]

    g = inst.graph
    names, pos, arcs = g.index()
    reached: set[str] = set()
    reach_from: dict[str, set[str]] = {}
    for src in sources:
        if src in rnodes:
            reach_from[src] = set()
            continue
        stack = [pos[src]]
        seen = set(stack)
        while stack:
            v = stack.pop()
            for idx, nb in zip(*arcs[v]):
                if idx in redges or nb in seen or names[nb] in rnodes:
                    continue
                seen.add(nb)
                stack.append(nb)
        reach_from[src] = {names[v] for v in seen}
        reached |= reach_from[src]

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
