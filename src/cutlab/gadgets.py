"""Generators for the grid gap instance and the four hypercube tests,
the family registry that pairs each generator with its params record and,
for the tests, its dictator rule and guarantee, and the coordinate
("dictator") cuts used by the completeness checks.

Each test's move rule is written once, as its correlated space: the
edges between two hypercube blocks join x to every y in the support of
that space, the pairs of positive product joint mass (see ``support``),
and node masses come from its marginal.

All generators are deterministic: atom order is (*, 0, 1, ..., r-1)
(or (*, 1, ..., B) for the fire-containment test), grid vectors and
hypercube points are enumerated lexicographically, and node ids are
structured strings such as ``v[1,2]/[*,0]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, get_type_hints

from .errors import CoordinateOutOfRange, ParamOutOfRange, SizeGuard, UnknownGenerator
from .graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    CutSolution,
    LengthBound,
    Multicut,
    Rmfc,
    Schedule,
    WeightedGraph,
    shortest_path_length,
)
from .probspace import Atom, CorrelatedSpace, FiniteProbSpace, product_mass
from .solvers import rmfc_simulate

DEFAULT_MAX_NODES = 200_000
DEFAULT_MAX_FIRE_DEPTH = 4

STAR = "*"


# -- probability spaces of the tests ---------------------------------------


def starred_space(values: Sequence[int], eps: Fraction) -> FiniteProbSpace:
    """Atoms (*, *values) with mass eps on * and (1-eps)/|values| elsewhere."""
    eps = Fraction(eps)
    atoms: list[Atom] = [STAR, *values]
    mass = {STAR: eps}
    for i in values:
        mass[i] = (1 - eps) / len(values)
    return FiniteProbSpace(atoms, mass)


def star_space(r: int, eps: Fraction) -> FiniteProbSpace:
    """Atoms (*, 0..r-1) with mass eps on * and (1-eps)/r elsewhere."""
    return starred_space(range(r), eps)


def uniform_cycle_space(r: int) -> FiniteProbSpace:
    """Uniform atoms 0..r-1."""
    return FiniteProbSpace.uniform(list(range(r)))


def fire_space(big_b: int, eps: Fraction) -> FiniteProbSpace:
    """Atoms (*, 1..B) with mass eps on * and (1-eps)/B elsewhere."""
    return starred_space(range(1, big_b + 1), eps)


def edge_noise_space(r: int) -> CorrelatedSpace:
    """Successor pair (x, x+1 mod r), resampled independently w.p. 1/r.

    Both marginals are uniform on 0..r-1.
    """
    base = uniform_cycle_space(r)
    joint: dict[tuple[Atom, Atom], Fraction] = {}
    stay = (1 - Fraction(1, r)) * Fraction(1, r)
    noise = Fraction(1, r) * Fraction(1, r * r)
    for x in range(r):
        for y in range(r):
            joint[(x, y)] = noise + (stay if y == (x + 1) % r else 0)
    return CorrelatedSpace(base, base, joint)


def starred_noise_space(
    values: Sequence[int], eps: Fraction, partner: Callable[[int], int]
) -> CorrelatedSpace:
    """Pair (x, partner(x)) with x uniform on ``values``, each side starred
    independently w.p. eps."""
    eps = Fraction(eps)
    base = starred_space(values, eps)
    share = Fraction(1, len(values))
    joint: dict[tuple[Atom, Atom], Fraction] = {(STAR, STAR): eps * eps}
    for y in values:
        joint[(STAR, y)] = eps * (1 - eps) * share
    for x in values:
        joint[(x, STAR)] = (1 - eps) * eps * share
        joint[(x, partner(x))] = (1 - eps) * (1 - eps) * share
    return CorrelatedSpace(base, base, joint)


def star_noise_space(r: int, eps: Fraction) -> CorrelatedSpace:
    """Successor pair (x, x+1 mod r), each side starred independently w.p. eps."""
    return starred_noise_space(range(r), eps, lambda x: (x + 1) % r)


def fire_noise_space(big_b: int, eps: Fraction) -> CorrelatedSpace:
    """Equal pair (x, x), each side starred independently w.p. eps."""
    return starred_noise_space(range(1, big_b + 1), eps, lambda x: x)


def support(space: CorrelatedSpace, x: Sequence[Atom]) -> Iterator[tuple[Atom, ...]]:
    """Every point y whose product joint mass against x is nonzero.

    A test joins x to exactly these y. Coordinate j ranges over
    ``space.partners[x_j]``, the atoms b with mass (x_j, b) > 0 in atom
    order, so the points come out in the lexicographic order of the product
    space. This support is the tests' move rule: in the starred spaces a
    star on either side is wild only because every params record enforces
    0 < eps (< 1), which gives (*, b) and (a, *) positive mass, and otherwise
    a coordinate moves to its partner (successor mod r, or the same atom);
    the edge noise space puts mass at least 1/r^3 on every pair, so there
    every y qualifies.
    """
    return itertools.product(*(space.partners[a] for a in x))


# -- parameter records ------------------------------------------------------


@dataclass(frozen=True)
class DictParamsM:
    """Parameters of the multicut test: grid size r, pair count k,
    coordinate count R, star mass eps < 1/(2r)."""

    r: int
    k: int
    R: int
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.r < 2 or self.k < 2 or self.R < 1:
            raise ParamOutOfRange("need r >= 2, k >= 2, R >= 1")
        if not 0 < self.eps < Fraction(1, 2 * self.r):
            raise ParamOutOfRange("need 0 < eps < 1/(2r)")


@dataclass(frozen=True)
class DictParamsE:
    """Parameters of the edge-cut length test: stretch a, layers b,
    alphabet r, coordinates R, with b >= r - 1."""

    a: int
    b: int
    r: int
    R: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1 or self.r < 2 or self.R < 1:
            raise ParamOutOfRange("need a,b >= 1, r >= 2, R >= 1")
        if self.b < self.r - 1:
            raise ParamOutOfRange("need b >= r - 1")


@dataclass(frozen=True)
class DictParamsV:
    """Parameters of the vertex-cut length test."""

    a: int
    b: int
    r: int
    R: int
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.a < 1 or self.b < 1 or self.r < 2 or self.R < 1:
            raise ParamOutOfRange("need a,b >= 1, r >= 2, R >= 1")
        if not 0 < self.eps < Fraction(1, 2 * self.r):
            raise ParamOutOfRange("need 0 < eps < 1/(2r)")
        if self.b < self.r - 2:
            raise ParamOutOfRange("need b >= r - 2")


@dataclass(frozen=True)
class DictParamsF:
    """Parameters of the fire-containment test: depth b, coordinates R,
    star mass eps < 1/(2B) where B = b! * sum_i b!/i."""

    b: int
    R: int
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.b < 1 or self.R < 1:
            raise ParamOutOfRange("need b >= 1, R >= 1")
        if not 0 < self.eps < Fraction(1, 2 * self.big_b):
            raise ParamOutOfRange("need 0 < eps < 1/(2B)")

    @property
    def big_b(self) -> int:
        return fire_alphabet_size(self.b)


def harmonic(i: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, i + 1)), Fraction(0))


def fire_alphabet_size(b: int) -> int:
    fact = math.factorial(b)
    return fact * sum(fact // i for i in range(1, b + 1))


def fire_thresholds(b: int) -> list[int]:
    """Cumulative day thresholds B_0 = 0 <= B_1 <= ... <= B_b = B.

    B_i = (H_i / H_b) * B is an integer by the choice of B.
    """
    big_b = fire_alphabet_size(b)
    h_b = harmonic(b)
    out = [0]
    for i in range(1, b + 1):
        val = harmonic(i) / h_b * big_b
        assert val.denominator == 1
        out.append(int(val))
    return out


# -- node id scheme ----------------------------------------------------------


def fmt_point(xs: Sequence[Atom]) -> str:
    return "[" + ",".join(str(a) for a in xs) + "]"


def grid_node_id(alpha: Sequence[int], x: Sequence[Atom] | None = None) -> str:
    if x is None:
        return f"v{fmt_point(alpha)}"
    return f"v{fmt_point(alpha)}/{fmt_point(x)}"


def layer_node_id(i: int, x: Sequence[Atom]) -> str:
    return f"v[{i}]/{fmt_point(x)}"


def parse_point(text: str) -> tuple[Atom, ...]:
    inner = text.strip()[1:-1]
    out: list[Atom] = []
    for tok in inner.split(","):
        out.append(STAR if tok == STAR else int(tok))
    return tuple(out)


def split_block_point(node_id: str) -> tuple[str, tuple[Atom, ...]]:
    """Split "prefixv[block]/[x]" into the block part and the point."""
    if "/" not in node_id:
        raise UnknownGenerator(f"node id {node_id!r} carries no hypercube point")
    block, point = node_id.rsplit("/", 1)
    return block, parse_point(point)


def _layer_ids(
    layers: Iterable[int], points: Sequence[tuple[Atom, ...]]
) -> dict[int, dict[tuple[Atom, ...], str]]:
    """The node id of every point in every layer, formatted once."""
    return {i: {x: layer_node_id(i, x) for x in points} for i in layers}


def _guard_nodes(count: int, max_nodes: int) -> None:
    if count > max_nodes:
        raise SizeGuard(f"instance would have {count} nodes (cap {max_nodes})")


# -- generators --------------------------------------------------------------


def build_saks_gap(r: int, k: int, *, max_nodes: int = DEFAULT_MAX_NODES) -> CutInstance:
    """Directed grid multicut instance with unit vertex weights.

    Nodes are the grid [r]^k plus k terminal pairs; s_i feeds the
    alpha_i = 1 slab, the alpha_i = r slab feeds t_i, and grid points at
    l-infinity distance 1 are joined both ways.
    """
    if r < 2 or k < 1:
        raise ParamOutOfRange("need r >= 2, k >= 1")
    _guard_nodes(r**k + 2 * k, max_nodes)
    g = WeightedGraph()
    pairs = []
    for i in range(1, k + 1):
        g.add_node(f"s{i}", None)
        g.add_node(f"t{i}", None)
        pairs.append((f"s{i}", f"t{i}"))
    alphas = list(itertools.product(range(1, r + 1), repeat=k))
    for alpha in alphas:
        g.add_node(grid_node_id(alpha), Fraction(1))
    for i in range(1, k + 1):
        for alpha in alphas:
            if alpha[i - 1] == 1:
                g.add_edge(f"s{i}", grid_node_id(alpha), directed=True)
            if alpha[i - 1] == r:
                g.add_edge(grid_node_id(alpha), f"t{i}", directed=True)
    for alpha in alphas:
        for beta in _grid_neighbours(alpha, r):
            g.add_edge(grid_node_id(alpha), grid_node_id(beta), directed=True)
    return CutInstance(
        graph=g,
        mode=VERTEX,
        problem=Multicut(tuple(pairs)),
        provenance={"generator": "saks", "params": {"r": r, "k": k}},
    )


def _grid_neighbours(alpha: Sequence[int], r: int) -> list[tuple[int, ...]]:
    """Points of [r]^k at l-infinity distance 1 from alpha, lexicographically."""
    steps = [range(max(ai - 1, 1), min(ai + 1, r) + 1) for ai in alpha]
    return [beta for beta in itertools.product(*steps) if beta != tuple(alpha)]


def build_dict_multicut(
    p: DictParamsM, *, max_nodes: int = DEFAULT_MAX_NODES
) -> CutInstance:
    """Multicut test: each grid point of the gap instance carries a
    hypercube over (*, 0..r-1)^R; a grid move joins x to the support of x
    under the star noise space (every coordinate advances by one, stars are
    wild)."""
    _guard_nodes(p.r**p.k * (p.r + 1) ** p.R + 2 * p.k, max_nodes)
    noise = star_noise_space(p.r, p.eps)
    points = list(itertools.product(noise.left.atoms, repeat=p.R))
    moves = [(x, list(support(noise, x))) for x in points]
    alphas = list(itertools.product(range(1, p.r + 1), repeat=p.k))
    ids = {alpha: {x: grid_node_id(alpha, x) for x in points} for alpha in alphas}
    g = WeightedGraph()
    pairs = []
    for i in range(1, p.k + 1):
        g.add_node(f"s{i}", None)
        g.add_node(f"t{i}", None)
        pairs.append((f"s{i}", f"t{i}"))
    for alpha in alphas:
        for x in points:
            g.add_node(ids[alpha][x], product_mass(noise.left, x))
    for i in range(1, p.k + 1):
        for alpha in alphas:
            if alpha[i - 1] == 1:
                for x in points:
                    g.add_edge(f"s{i}", ids[alpha][x], directed=True)
            if alpha[i - 1] == p.r:
                for x in points:
                    g.add_edge(ids[alpha][x], f"t{i}", directed=True)
    for alpha in alphas:
        for beta in _grid_neighbours(alpha, p.r):
            for x, ys in moves:
                for y in ys:
                    g.add_edge(ids[alpha][x], ids[beta][y], directed=True)
    return CutInstance(
        graph=g,
        mode=VERTEX,
        problem=Multicut(tuple(pairs)),
        provenance={
            "generator": "dict_multicut",
            "params": {"r": p.r, "k": p.k, "R": p.R, "eps": str(p.eps)},
            "dictator_cut": "nodes with x_q in {*, 0}",
        },
    )


def build_dict_edge(p: DictParamsE, *, max_nodes: int = DEFAULT_MAX_NODES) -> CutInstance:
    """Edge-cut length test: b+1 layers of hypercubes over (0..r-1)^R,
    uncuttable long edges of length a between equal points, and short
    unit edges weighted by the product successor noise."""
    _guard_nodes((p.b + 1) * p.r**p.R + 2, max_nodes)
    noise = edge_noise_space(p.r)
    points = list(itertools.product(noise.left.atoms, repeat=p.R))
    moves = [
        (x, [(y, noise.product_pair_mass(x, y)) for y in support(noise, x)])
        for x in points
    ]
    ids = _layer_ids(range(p.b + 1), points)
    g = WeightedGraph()
    g.add_node("s", None)
    g.add_node("t", None)
    for i in range(p.b + 1):
        for x in points:
            g.add_node(ids[i][x], None)
    for x in points:
        g.add_edge("s", ids[0][x], directed=False, length=1, weight=None)
        g.add_edge(ids[p.b][x], "t", directed=False, length=1, weight=None)
    for i in range(p.b):
        for x in points:
            g.add_edge(ids[i][x], ids[i + 1][x], directed=False, length=p.a, weight=None)
        for x, ys in moves:
            for y, mass in ys:
                g.add_edge(ids[i][x], ids[i + 1][y], directed=False, length=1, weight=mass)
    bound = max(1, p.a * (p.b - p.r + 1))
    return CutInstance(
        graph=g,
        mode=EDGE,
        problem=LengthBound("s", "t", bound),
        provenance={
            "generator": "dict_edge",
            "params": {"a": p.a, "b": p.b, "r": p.r, "R": p.R},
            "dictator_cut": "short edges with y_q != x_q+1 mod r, or (x_q,y_q) = (0,1)",
        },
    )


def build_dict_vertex(
    p: DictParamsV, *, max_nodes: int = DEFAULT_MAX_NODES
) -> CutInstance:
    """Vertex-cut length test: layers over (*, 0..r-1)^R, with x joined to
    the support of x under the star noise space by unit edges to the next
    layer and by long skip edges of length (j-i)a to later layers j, and
    terminal edges whose lengths grow with the layer index."""
    _guard_nodes((p.b + 1) * (p.r + 1) ** p.R + 2, max_nodes)
    noise = star_noise_space(p.r, p.eps)
    points = list(itertools.product(noise.left.atoms, repeat=p.R))
    moves = [(x, list(support(noise, x))) for x in points]
    ids = _layer_ids(range(p.b + 1), points)
    g = WeightedGraph()
    g.add_node("s", None)
    g.add_node("t", None)
    for i in range(p.b + 1):
        for x in points:
            g.add_node(ids[i][x], product_mass(noise.left, x))
    for i in range(p.b + 1):
        for x in points:
            g.add_edge("s", ids[i][x], directed=False, length=p.a * i + 1, weight=None)
            g.add_edge(
                ids[i][x], "t", directed=False, length=(p.b - i) * p.a + 1, weight=None
            )
    layer_pairs = [(i, i + 1, 1) for i in range(p.b)] + [
        (i, j, (j - i) * p.a) for i in range(p.b + 1) for j in range(i + 2, p.b + 1)
    ]
    for i, j, length in layer_pairs:
        for x, ys in moves:
            for y in ys:
                g.add_edge(ids[i][x], ids[j][y], directed=False, length=length, weight=None)
    bound = max(1, p.a * (p.b - p.r + 2))
    return CutInstance(
        graph=g,
        mode=VERTEX,
        problem=LengthBound("s", "t", bound),
        provenance={
            "generator": "dict_vertex",
            "params": {"a": p.a, "b": p.b, "r": p.r, "R": p.R, "eps": str(p.eps)},
            "dictator_cut": "nodes with x_q in {*, 0}",
        },
    )


def build_dict_rmfc(
    p: DictParamsF,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_FIRE_DEPTH,
) -> CutInstance:
    """Fire-containment test: layers 1..b over (*, 1..B)^R, with x joined
    to the support of x under the fire noise space (equal points, stars
    wild) in the next layer; layer i weighted by factor i."""
    if p.b > max_depth:
        raise SizeGuard(f"b = {p.b} exceeds depth cap {max_depth}")
    _guard_nodes(p.b * (p.big_b + 1) ** p.R + 2, max_nodes)
    noise = fire_noise_space(p.big_b, p.eps)
    points = list(itertools.product(noise.left.atoms, repeat=p.R))
    ids = _layer_ids(range(1, p.b + 1), points)
    g = WeightedGraph()
    g.add_node("s", None)
    g.add_node("t", None)
    for i in range(1, p.b + 1):
        for x in points:
            g.add_node(ids[i][x], i * product_mass(noise.left, x))
    for x in points:
        g.add_edge("s", ids[1][x], directed=False)
        g.add_edge(ids[p.b][x], "t", directed=False)
    for i in range(1, p.b):
        for x in points:
            for y in support(noise, x):
                g.add_edge(ids[i][x], ids[i + 1][y], directed=False)
    return CutInstance(
        graph=g,
        mode=VERTEX,
        problem=Rmfc("s", frozenset({"t"})),
        provenance={
            "generator": "dict_rmfc",
            "params": {"b": p.b, "R": p.R, "eps": str(p.eps)},
            "dictator_cut": "day i saves nodes with x_q = * or B_(i-1) < x_q <= B_i",
        },
    )


# -- the family registry ----------------------------------------------------


@dataclass(frozen=True)
class SaksParams:
    """Parameters of the grid gap instance: grid size r, pair count k."""

    r: int
    k: int


TestParams = DictParamsM | DictParamsE | DictParamsV | DictParamsF
# a post-cut property check's (label, ok, detail)
Verdict = tuple[str, bool, dict]


@dataclass(frozen=True)
class Family:
    """One generator family, keyed in ``FAMILIES`` by its CLI name.

    ``kind`` is the generator name written to provenance, ``record`` the
    params record class, and ``build(params, max_nodes)`` calls the builder
    through its module attribute, so a wrapper installed there sees every
    build. The dictatorship tests also carry:

    - ``space(params)``: the base probability space of one coordinate;
    - ``rule(params)``: the coordinate-q dictator rule, a predicate on the
      atoms at q of one element: ``(x_q)`` of a node, ``(x_q, y_q)`` of a
      short edge from layer i to layer i+1, or ``(i, x_q)`` of a node saved
      on day i;
    - ``exact_cost(params)``: the dictator cut's exact cost, where known;
    - ``cost_bound(params, eta)``: the bound on the cut's cost (on the
      largest day's cost for a schedule) when a fraction eta of the copies
      is removed outright;
    - ``check(params, inst, solution)``: the post-cut property, as
      ``(label, ok, detail)``.
    """

    kind: str
    record: type
    build: Callable[[Any, int], CutInstance]
    space: Callable[[Any], FiniteProbSpace] | None = None
    rule: Callable[[Any], Callable[..., bool]] | None = None
    exact_cost: Callable[[Any], Fraction] | None = None
    cost_bound: Callable[[Any, Fraction], Fraction] | None = None
    check: Callable[[Any, CutInstance, Any], Verdict] | None = None

    def check_names(self, names: Iterable[str]) -> None:
        """Raise ParamOutOfRange unless ``names`` are the record's fields."""
        names = set(names)
        want = [f.name for f in fields(self.record)]
        missing = [name for name in want if name not in names]
        if missing:
            raise ParamOutOfRange(f"missing parameter(s) {', '.join(missing)}")
        unknown = sorted(names - set(want))
        if unknown:
            raise ParamOutOfRange(f"unknown parameter(s) {', '.join(unknown)}")

    def params(self, values: Any) -> Any:
        """The params record from a name -> value mapping, such as parsed
        ``--params`` or a provenance ``params`` block."""
        if not isinstance(values, Mapping):
            raise ParamOutOfRange(f"params must be a mapping, not {values!r}")
        self.check_names(values)
        types = get_type_hints(self.record)
        return self.record(
            **{name: _param_value(name, types[name], raw) for name, raw in values.items()}
        )


def _param_value(name: str, kind: type, raw: Any) -> int | Fraction:
    try:
        value = Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise ParamOutOfRange(f"parameter {name} = {raw!r} is not a rational") from None
    if kind is int:
        if value.denominator != 1:
            raise ParamOutOfRange(f"parameter {name} = {raw} is not an integer")
        return int(value)
    return value


def _star_or_zero(p: DictParamsM | DictParamsV) -> Callable[[Atom], bool]:
    return lambda xq: xq in (STAR, 0)


def _broken_step(p: DictParamsE) -> Callable[[Atom, Atom], bool]:
    return lambda xq, yq: yq != (xq + 1) % p.r or (xq, yq) == (0, 1)


def _fire_day(p: DictParamsF) -> Callable[[int, Atom], bool]:
    bounds = fire_thresholds(p.b)
    return lambda i, xq: xq == STAR or bounds[i - 1] < xq <= bounds[i]


def _vertex_cost(p: DictParamsV) -> Fraction:
    return (p.b + 1) * (p.eps + (1 - p.eps) / p.r)


def _pairs_cut(p: DictParamsM, inst: CutInstance, cut: CutSolution) -> Verdict:
    status = {
        f"{s}->{t}": shortest_path_length(inst.graph, s, t, cut.elements)
        for s, t in inst.problem.pairs
    }
    ok = all(d is None for d in status.values())
    return "every pair disconnected", ok, {"pair_dist": status}


def _distance_kept(need: int, inst: CutInstance, cut: CutSolution) -> Verdict:
    problem = inst.problem
    dist = shortest_path_length(inst.graph, problem.source, problem.sink, cut.elements)
    ok = dist is None or dist >= need
    return f"post-cut distance >= {need}", ok, {"dist": dist, "need": need}


def _target_saved(p: DictParamsF, inst: CutInstance, schedule: Schedule) -> Verdict:
    burnt = rmfc_simulate(inst, schedule).target_burnt
    return "target never burnt", not burnt, {"target_burnt": burnt}


FAMILIES = {
    "saks": Family(
        "saks", SaksParams, lambda p, n: build_saks_gap(p.r, p.k, max_nodes=n)
    ),
    "dict-m": Family(
        "dict_multicut",
        DictParamsM,
        lambda p, n: build_dict_multicut(p, max_nodes=n),
        space=lambda p: star_space(p.r, p.eps),
        rule=_star_or_zero,
        exact_cost=lambda p: Fraction(p.r) ** p.k * (p.eps + (1 - p.eps) / p.r),
        cost_bound=lambda p, eta: (
            Fraction(p.r) ** (p.k - 1) * (1 + p.r * p.eps + p.r * eta)
        ),
        check=_pairs_cut,
    ),
    "dict-e": Family(
        "dict_edge",
        DictParamsE,
        lambda p, n: build_dict_edge(p, max_nodes=n),
        space=lambda p: uniform_cycle_space(p.r),
        rule=_broken_step,
        cost_bound=lambda p, eta: Fraction(2 * p.b, p.r) + 2 * eta * p.b,
        check=lambda p, inst, cut: _distance_kept(p.a * (p.b - p.r + 1), inst, cut),
    ),
    "dict-v": Family(
        "dict_vertex",
        DictParamsV,
        lambda p, n: build_dict_vertex(p, max_nodes=n),
        space=lambda p: star_space(p.r, p.eps),
        rule=_star_or_zero,
        exact_cost=_vertex_cost,
        cost_bound=lambda p, eta: _vertex_cost(p) + eta * (p.b + 1),
        check=lambda p, inst, cut: _distance_kept(p.a * (p.b - p.r + 2), inst, cut),
    ),
    "dict-f": Family(
        "dict_rmfc",
        DictParamsF,
        lambda p, n: build_dict_rmfc(p, max_nodes=n),
        space=lambda p: fire_space(p.big_b, p.eps),
        rule=_fire_day,
        cost_bound=lambda p, eta: p.b * p.eps + 1 / harmonic(p.b) + p.b * eta,
        check=_target_saved,
    ),
}


def dictator_family(kind: str | None) -> Family:
    """The dictatorship test whose provenance generator name is ``kind``."""
    for family in FAMILIES.values():
        if family.kind == kind and family.rule is not None:
            return family
    raise UnknownGenerator(f"no dictator test of kind {kind!r}")


# -- dictator cuts ------------------------------------------------------------


def dictator_cut(
    kind: str,
    params: TestParams,
    q: int,
    instance: CutInstance | None = None,
) -> CutSolution | Schedule:
    """The coordinate-q cut of the given test, with exact rational cost.

    ``q`` is 0-based. For the edge test the elements are edge indices of
    the built instance; pass ``instance`` to reuse an existing build.
    """
    family = dictator_family(kind)
    if not 0 <= q < params.R:
        raise CoordinateOutOfRange(f"q = {q} outside 0..{params.R - 1}")
    inst = instance if instance is not None else family.build(params, DEFAULT_MAX_NODES)
    return rule_cut(family, params, inst, lambda owner: q)


def rule_cut(
    family: Family,
    params: TestParams,
    inst: CutInstance,
    coord: Callable[[str], int | None],
) -> CutSolution | Schedule:
    """Apply the family's dictator rule to every copy of its test in ``inst``.

    Non-terminal node ids read ``[owner::]v[block]/[point]``, with owner
    "" in a raw gadget. ``coord(owner)`` is the coordinate the rule reads in
    that copy, or None to remove the whole copy.
    """
    in_cut = family.rule(params)
    g = inst.graph
    terminals = set(inst.terminals())
    nodes = {}
    for v in g.nodes:
        if v not in terminals:
            block, x = split_block_point(v)
            owner, _, block = block.rpartition("::")
            nodes[v] = (coord(owner), block, x)
    if inst.mode == EDGE:
        elements = set()
        for idx, e in enumerate(g.edges):
            if e.weight is None:
                continue
            (qa, blk_a, xa), (qb, blk_b, xb) = nodes[e.tail], nodes[e.head]
            if _layer(blk_a) > _layer(blk_b):
                qa, xa, qb, xb = qb, xb, qa, xa
            if qa is None or qb is None or in_cut(xa[qa], xb[qb]):
                elements.add(idx)
        cost = sum((g.edges[idx].weight for idx in elements), Fraction(0))
        return CutSolution(frozenset(elements), cost)
    if isinstance(inst.problem, Rmfc):
        days: list[set[str]] = [set() for _ in range(params.b)]
        for v, (q, block, x) in nodes.items():
            i = _layer(block)
            if q is None or in_cut(i, x[q]):
                days[i - 1].add(v)
        costs = tuple(_node_cost(g, day) for day in days)
        return Schedule(tuple(frozenset(day) for day in days), costs)
    chosen = {v for v, (q, _, x) in nodes.items() if q is None or in_cut(x[q])}
    return CutSolution(frozenset(chosen), _node_cost(g, chosen))


def _layer(block: str) -> int:
    return int(block[2:-1])


def _node_cost(g: WeightedGraph, nodes: Iterable[str]) -> Fraction:
    return sum((g.node_weight(v) for v in nodes), Fraction(0))
