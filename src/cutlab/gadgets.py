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

import functools
import itertools
import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, get_type_hints

from .errors import (
    CoordinateOutOfRange, CutLabError, ParamOutOfRange, RemovingUncuttable, SizeGuard,
    UnknownGenerator, WrongProblemType, require, require_problem,
)
from .graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    CutSolution,
    EdgeRecord,
    Element,
    LengthBound,
    Multicut,
    Rmfc,
    Schedule,
    WeightedGraph,
    parse_rational,
    shortest_path_length,
)
from .probspace import Atom, CorrelatedSpace, FiniteProbSpace, product_mass
from . import solvers

DEFAULT_MAX_NODES = 200_000
DEFAULT_MAX_EDGES = 500_000
DEFAULT_MAX_FIRE_DEPTH = 4

STAR = "*"


# -- probability spaces of the tests ---------------------------------------


def edge_noise_space(r: int) -> CorrelatedSpace:
    """Successor pair (x, x+1 mod r), resampled independently w.p. 1/r.

    Both marginals are uniform on 0..r-1.
    """
    base = FiniteProbSpace.uniform(list(range(r)))
    joint: dict[tuple[Atom, Atom], Fraction] = {}
    stay = (1 - Fraction(1, r)) * Fraction(1, r)
    noise = Fraction(1, r) * Fraction(1, r * r)
    for x in range(r):
        for y in range(r):
            joint[(x, y)] = noise + (stay if y == (x + 1) % r else 0)
    return CorrelatedSpace(base, base, joint)


def edge_noise_rho(r: int) -> Fraction:
    """Maximal correlation of ``edge_noise_space(r)``: 1 - 1/r.

    With probability 1 - 1/r the pair is (X, X+1), and otherwise Y is
    uniform and independent of X. So for f and g of mean zero,
    E[f(X)g(Y)] = (1 - 1/r) E[f(X)g(X+1)] <= (1 - 1/r) |f| |g| by
    Cauchy-Schwarz, since X+1 is uniform too; g(y) = f(y-1) attains it.
    At r = 1 both sides are 0, as only the constants have mean zero.
    """
    return 1 - Fraction(1, r)


def edge_noise_alpha(r: int) -> Fraction:
    """Least joint mass of ``edge_noise_space(r)``: 1/r^3, the noise term
    (1/r)(1/r^2) that every pair carries and each (x, y) with y != x+1
    carries alone (at r = 1 the one pair has mass 1). Every pair has
    positive mass, so the support is connected."""
    return Fraction(1, r**3)


def starred_noise_rho(n: int, eps: Fraction) -> Fraction:
    """Maximal correlation of ``starred_noise_space`` on n values with a
    bijective partner (the star space's successor and the fire space's
    identity): 1 - eps for n >= 2, and 0 at n = 1.

    Write f as f(*) on the star and F + f~ off it, with f~ of mean zero
    under the uniform X' on the values, and g likewise. For f and g of mean
    zero, eps f(*) + (1-eps) F = 0, so every term with a star cancels and
    E[f(X)g(Y)] = (1-eps)^2 E[f~(X') g~(pi X')] <= (1-eps)^2 |f~| |g~|, as
    pi X' is uniform. Since E[f^2] >= (1-eps) |f~|^2, the ratio to
    |f| |g| is at most 1 - eps; f(*) = F = 0 with g~ = f~ o pi^-1 attains
    it once n >= 2 leaves a nonzero f~. At n = 1, f~ = 0 and the ratio is 0.
    """
    return 1 - Fraction(eps) if n >= 2 else Fraction(0)


def starred_noise_alpha(n: int, eps: Fraction) -> Fraction:
    """Least joint mass of ``starred_noise_space`` on n values, for
    0 < eps < 1. The support is (*, *) of mass eps^2, each (*, y) and
    (x, *) of mass eps(1-eps)/n, and each (x, partner(x)) of mass
    (1-eps)^2/n; each is the least at some (n, eps): (2, 1/20), (40, 1/20)
    and (2, 9/10) in turn. The support is connected: each x meets the right
    *, each y the left *, and (*, *) joins the two stars."""
    eps = Fraction(eps)
    return min(eps * eps, eps * (1 - eps) / n, (1 - eps) ** 2 / n)


def starred_noise_space(
    values: Sequence[int], eps: Fraction, partner: Callable[[int], int]
) -> CorrelatedSpace:
    """Pair (x, partner(x)) with x uniform on ``values``, each side starred
    independently w.p. eps: both marginals have atoms (*, *values), with
    mass eps on * and (1-eps)/|values| elsewhere."""
    eps = Fraction(eps)
    share = Fraction(1, len(values))
    mass = {STAR: eps} | {x: (1 - eps) * share for x in values}
    base = FiniteProbSpace([STAR, *values], mass)
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
        if self.r < 2 or self.k < 2 or self.R < 1:
            raise ParamOutOfRange("need r >= 2, k >= 2, R >= 1")
        _check_eps(self, Fraction(1, 2 * self.r), "1/(2r)")


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
        if self.a < 1 or self.b < 1 or self.r < 2 or self.R < 1:
            raise ParamOutOfRange("need a,b >= 1, r >= 2, R >= 1")
        _check_eps(self, Fraction(1, 2 * self.r), "1/(2r)")
        if self.b < self.r - 2:
            raise ParamOutOfRange("need b >= r - 2")


@dataclass(frozen=True)
class DictParamsF:
    """Parameters of the fire-containment test: depth b, coordinates R,
    star mass eps < 1/(2B) where B = b! * sum_i b!/i, which has about
    b log b digits, so the depth cap is checked first."""

    b: int
    R: int
    eps: Fraction

    def __post_init__(self) -> None:
        if self.b < 1 or self.R < 1:
            raise ParamOutOfRange("need b >= 1, R >= 1")
        if self.b > DEFAULT_MAX_FIRE_DEPTH:
            raise SizeGuard(f"b = {self.b} exceeds depth cap {DEFAULT_MAX_FIRE_DEPTH}")
        _check_eps(self, Fraction(1, 2 * self.big_b), "1/(2B)")

    @property
    def big_b(self) -> int:
        return fire_alphabet_size(self.b)


def _check_eps(p: Any, bound: Fraction, text: str) -> None:
    """Store a params record's eps as a Fraction, requiring 0 < eps < bound."""
    object.__setattr__(p, "eps", Fraction(p.eps))
    if not 0 < p.eps < bound:
        raise ParamOutOfRange(f"need 0 < eps < {text}")


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
        require(val.denominator == 1, f"fire threshold B_{i} = {val} is not an integer")
        out.append(int(val))
    return out


# -- node id scheme ----------------------------------------------------------


def fmt_point(xs: Sequence[Atom]) -> str:
    return "[" + ",".join(str(a) for a in xs) + "]"


def point_id(block: str, x: Sequence[Atom]) -> str:
    """Node id of point x of a block; ``split_block_point`` splits it."""
    return f"{block}/{fmt_point(x)}"


def composed_id(owner: str, v: str) -> str:
    """Node v of ``owner``'s test copy in a composition, read by ``rule_cut``."""
    return f"{owner}::{v}"


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


def _capped_power(base: int, exponent: int, cap: int, what: str) -> int:
    """``base ** exponent`` (base >= 2) in a count of ``what`` capped at ``cap``;
    an exponent past the cap's bit length puts it over (base^e >= 2^e > cap),
    so SizeGuard is raised before the power, which that exponent makes slow."""
    if exponent > cap.bit_length():
        raise SizeGuard(f"instance would have over {cap} {what} (cap {cap})")
    return base**exponent


def guard(count: int, cap: int, what: str) -> None:
    """SizeGuard when an instance would have more than ``cap`` ``what``."""
    if count > cap:
        # Python refuses to print an integer of over 4,300 digits (14,284 bits)
        shown = count if count.bit_length() < 14_000 else f"over {cap}"
        raise SizeGuard(f"instance would have {shown} {what} (cap {cap})")


class _Cube:
    """A test's hypercube block, each part made on first use: the points of
    the R-fold product of the noise atoms, lexicographically, their masses
    under the noise marginal, and ``steps``, the moves of one block of edges:
    every (n, m) with ``points[m]`` in the support of ``points[n]``."""

    def __init__(self, noise: CorrelatedSpace, R: int) -> None:
        self.noise, self.R = noise, R

    @functools.cached_property
    def moves(self) -> int:
        """len(steps), unlisted: the atoms' support sizes, summed, to the power R."""
        total = sum(len(self.noise.partners[a]) for a in self.noise.left.atoms)
        return _capped_power(total, self.R, DEFAULT_MAX_EDGES, "edges")

    @functools.cached_property
    def points(self) -> list[tuple[Atom, ...]]:
        return list(itertools.product(self.noise.left.atoms, repeat=self.R))

    @functools.cached_property
    def masses(self) -> list[Fraction]:
        return [product_mass(self.noise.left, x) for x in self.points]

    @functools.cached_property
    def steps(self) -> list[tuple[int, int]]:
        position = {x: n for n, x in enumerate(self.points)}
        return [(position[x], position[y]) for x in self.points for y in support(self.noise, x)]


def _cuttable(base: int, exponent: int) -> int:
    """``base ** exponent`` in a count of cuttable elements for the search."""
    return _capped_power(base, exponent, solvers.BB_ELEMENT_LIMIT, "cuttable elements")


def _provenance(kind: str, p: Any, dictator_cut: str | None = None) -> dict:
    """Provenance naming generator ``kind`` and the fields of params record
    ``p``, in field order, each rational written "p/q"."""
    params = {k: str(v) if isinstance(v, Fraction) else v for k, v in asdict(p).items()}
    prov = {"generator": kind, "params": params}
    return prov if dictator_cut is None else prov | {"dictator_cut": dictator_cut}


# -- generators --------------------------------------------------------------


def _grid_ids(r: int, k: int) -> dict[tuple[int, ...], str]:
    """The node id of every point of the grid [r]^k, in lexicographic order."""
    grid = itertools.product(range(1, r + 1), repeat=k)
    return {alpha: f"v{fmt_point(alpha)}" for alpha in grid}


def _blow_up(gap: CutInstance, noise: CorrelatedSpace, R: int, provenance: dict) -> CutInstance:
    """The gap-to-test conversion with every arc advancing one step: each
    cuttable node v of the vertex multicut instance ``gap`` becomes a block
    of nodes v/x, one per point x of the R-fold product of the noise atoms,
    weighing w_v times the product mass of x under the noise marginal. The
    terminals stay single nodes, and an arc at one fans out point by point;
    an arc u -> v between blocks joins u/x to v/y for every y in the
    support of x."""
    g = gap.graph
    cuttable = {v for v in g.nodes if g.node_weight(v) is not None}
    size = _capped_power(len(noise.left.atoms), R, DEFAULT_MAX_NODES, "nodes")
    guard(len(cuttable) * size + len(g.nodes) - len(cuttable), DEFAULT_MAX_NODES, "nodes")
    # per arc, how many of its ends are blocks: it becomes 1, size or moves arcs
    ends = [(tail in cuttable) + (head in cuttable) for tail, head, _, _, _ in g.edge_rows]
    cube = _Cube(noise, R)
    guard(sum((1, size, cube.moves)[c] for c in ends), DEFAULT_MAX_EDGES, "edges")
    ids = {v: [point_id(v, x) for x in cube.points] if v in cuttable else [v] for v in g.nodes}
    out = WeightedGraph()
    for v, copies in ids.items():
        weight = g.node_weight(v)
        # a terminal's one copy stays uncuttable
        for u, mass in zip(copies, cube.masses):
            out.add_node(u, None if weight is None else weight * mass)
    for (tail, head, directed, length, weight), c in zip(g.edge_rows, ends):
        src, dst = ids[tail], ids[head]
        if c == 2:
            out.add_edges((src[n], dst[m], directed, length, weight) for n, m in cube.steps)
        else:
            out.add_edges((a, b, directed, length, weight) for a in src for b in dst)
    return CutInstance(graph=out, mode=gap.mode, problem=gap.problem, provenance=provenance)


def _layered_graph(
    layers: Iterable[int],
    points: Sequence[tuple[Atom, ...]],
    weight: Callable[[int, int], Fraction | None],
) -> tuple[WeightedGraph, dict[int, list[str]]]:
    """The layered skeleton: a graph with nodes s, t and then, layer by
    layer, one node per point, node n of layer i weighing ``weight(i, n)``;
    returned with each layer's node ids in the order of ``points``."""
    ids = {i: [point_id(f"v[{i}]", x) for x in points] for i in layers}
    g = WeightedGraph()
    g.add_node("s", None)
    g.add_node("t", None)
    for i, layer in ids.items():
        for n, v in enumerate(layer):
            g.add_node(v, weight(i, n))
    return g, ids


def _end_edges(first: Sequence[str], last: Sequence[str]) -> Iterator[EdgeRecord]:
    """Unit edges from s to ``first`` and from ``last`` to t, point by point."""
    for v, w in zip(first, last):
        yield "s", v, False, 1, None
        yield w, "t", False, 1, None


def build_saks_gap(r: int, k: int) -> CutInstance:
    """Directed grid multicut instance with unit vertex weights.

    Nodes are the grid [r]^k plus k terminal pairs; s_i feeds the
    alpha_i = 1 slab, the alpha_i = r slab feeds t_i, and grid points at
    l-infinity distance 1 are joined both ways.
    """
    params = SaksParams(r, k)
    grid = _capped_power(r, k, DEFAULT_MAX_NODES, "nodes")
    guard(grid + 2 * k, DEFAULT_MAX_NODES, "nodes")
    # near[a]: the values of 1..r within 1 of a, so each product over alpha's
    # coordinates, less alpha, lists its grid neighbours lexicographically
    near = {a: range(max(a - 1, 1), min(a + 1, r) + 1) for a in range(1, r + 1)}
    # two slabs of r^(k-1) points per pair, then every point's neighbours
    reach = _capped_power(sum(map(len, near.values())), k, DEFAULT_MAX_EDGES, "edges")
    guard(2 * k * grid // r + reach - grid, DEFAULT_MAX_EDGES, "edges")
    ids = _grid_ids(r, k)
    g = WeightedGraph()
    pairs = tuple((f"s{i}", f"t{i}") for i in range(1, k + 1))
    for s, t in pairs:
        g.add_node(s, None)
        g.add_node(t, None)
    for v in ids.values():
        g.add_node(v, Fraction(1))
    # r >= 2, so the slabs alpha_i = 1 (fed by s_i) and alpha_i = r (feeding t_i) differ
    g.add_edges(
        (f"s{i}", v, True, 1, None) if alpha[i - 1] == 1 else (v, f"t{i}", True, 1, None)
        for i in range(1, k + 1)
        for alpha, v in ids.items()
        if alpha[i - 1] in (1, r)
    )
    g.add_edges(
        (v, ids[beta], True, 1, None)
        for alpha, v in ids.items()
        for beta in itertools.product(*map(near.__getitem__, alpha))
        if beta != alpha
    )
    return CutInstance(
        graph=g, mode=VERTEX, problem=Multicut(pairs), provenance=_provenance("saks", params)
    )


def build_dict_multicut(p: DictParamsM) -> CutInstance:
    """Multicut test: the saks gap instance blown up (``_blow_up``) by the
    star noise space, so each grid point carries a hypercube over
    (*, 0..r-1)^R and a grid move joins x to the support of x (every
    coordinate advances by one, stars are wild)."""
    # the test's r^k (r+1)^R nodes, refused before the gap instance is built
    size = _capped_power(p.r + 1, p.R, DEFAULT_MAX_NODES, "nodes")
    grid = _capped_power(p.r, p.k, DEFAULT_MAX_NODES, "nodes")
    guard(grid * size + 2 * p.k, DEFAULT_MAX_NODES, "nodes")
    return _blow_up(
        build_saks_gap(p.r, p.k),
        star_noise_space(p.r, p.eps),
        p.R,
        _provenance("dict_multicut", p, "nodes with x_q in {*, 0}"),
    )


def build_dict_edge(p: DictParamsE) -> CutInstance:
    """Edge-cut length test: b+1 layers of hypercubes over (0..r-1)^R,
    uncuttable long edges of length a between equal points, and short
    unit edges weighted by the product successor noise."""
    size = _capped_power(p.r, p.R, DEFAULT_MAX_NODES, "nodes")
    guard((p.b + 1) * size + 2, DEFAULT_MAX_NODES, "nodes")
    cube = _Cube(edge_noise_space(p.r), p.R)
    # terminal and long edges, then b blocks of short edges
    guard((p.b + 2) * size + p.b * cube.moves, DEFAULT_MAX_EDGES, "edges")
    points = cube.points
    steps = [(n, m, cube.noise.product_pair_mass(points[n], points[m])) for n, m in cube.steps]
    g, ids = _layered_graph(range(p.b + 1), points, lambda i, n: None)
    g.add_edges(_end_edges(ids[0], ids[p.b]))
    for src, dst in itertools.pairwise(ids.values()):
        g.add_edges((v, w, False, p.a, None) for v, w in zip(src, dst))
        g.add_edges((src[n], dst[m], False, 1, mass) for n, m, mass in steps)
    return CutInstance(
        graph=g,
        mode=EDGE,
        problem=LengthBound("s", "t", max(1, p.a * (p.b - p.r + 1))),
        provenance=_provenance(
            "dict_edge", p, "short edges with y_q != x_q+1 mod r, or (x_q,y_q) = (0,1)"
        ),
    )


def build_dict_vertex(p: DictParamsV) -> CutInstance:
    """Vertex-cut length test: layers over (*, 0..r-1)^R, with x joined to
    the support of x under the star noise space by unit edges to the next
    layer and by long skip edges of length (j-i)a to later layers j, and
    terminal edges whose lengths grow with the layer index."""
    nodes = (p.b + 1) * _capped_power(p.r + 1, p.R, DEFAULT_MAX_NODES, "nodes")
    guard(nodes + 2, DEFAULT_MAX_NODES, "nodes")
    cube = _Cube(star_noise_space(p.r, p.eps), p.R)
    # two terminal edges per node, then one block per pair of layers
    guard(2 * nodes + (p.b + 1) * p.b // 2 * cube.moves, DEFAULT_MAX_EDGES, "edges")
    g, ids = _layered_graph(range(p.b + 1), cube.points, lambda i, n: cube.masses[n])
    g.add_edges(
        rec
        for i, layer in ids.items()
        for v in layer
        for rec in (
            ("s", v, False, p.a * i + 1, None),
            (v, "t", False, (p.b - i) * p.a + 1, None),
        )
    )
    blocks = [(ids[i], ids[i + 1], 1) for i in range(p.b)] + [
        (ids[i], ids[j], (j - i) * p.a) for i in range(p.b + 1) for j in range(i + 2, p.b + 1)
    ]
    g.add_edges(
        (src[n], dst[m], False, length, None)
        for src, dst, length in blocks
        for n, m in cube.steps
    )
    return CutInstance(
        graph=g,
        mode=VERTEX,
        problem=LengthBound("s", "t", max(1, p.a * (p.b - p.r + 2))),
        provenance=_provenance("dict_vertex", p, "nodes with x_q in {*, 0}"),
    )


def build_dict_rmfc(p: DictParamsF) -> CutInstance:
    """Fire-containment test: layers 1..b over (*, 1..B)^R, with x joined
    to the support of x under the fire noise space (equal points, stars
    wild) in the next layer; layer i weighted by factor i."""
    size = _capped_power(p.big_b + 1, p.R, DEFAULT_MAX_NODES, "nodes")
    guard(p.b * size + 2, DEFAULT_MAX_NODES, "nodes")
    cube = _Cube(fire_noise_space(p.big_b, p.eps), p.R)
    # end edges, then one block per pair of consecutive layers
    guard(2 * size + (p.b - 1) * cube.moves, DEFAULT_MAX_EDGES, "edges")
    g, ids = _layered_graph(range(1, p.b + 1), cube.points, lambda i, n: i * cube.masses[n])
    g.add_edges(_end_edges(ids[1], ids[p.b]))
    g.add_edges(
        (src[n], dst[m], False, 1, None)
        for src, dst in itertools.pairwise(ids.values())
        for n, m in cube.steps
    )
    return CutInstance(
        graph=g,
        mode=VERTEX,
        problem=Rmfc("s", frozenset({"t"})),
        provenance=_provenance(
            "dict_rmfc", p, "day i saves nodes with x_q = * or B_(i-1) < x_q <= B_i"
        ),
    )


# -- the family registry ----------------------------------------------------


@dataclass(frozen=True)
class SaksParams:
    """Parameters of the grid gap instance: grid size r, pair count k."""

    r: int
    k: int

    def __post_init__(self) -> None:
        if self.r < 2 or self.k < 1:
            raise ParamOutOfRange("need r >= 2, k >= 1")


TestParams = DictParamsM | DictParamsE | DictParamsV | DictParamsF
# a post-cut property check's (label, ok, detail)
Verdict = tuple[str, bool, dict]


@dataclass(frozen=True)
class Family:
    """One generator family, keyed in ``FAMILIES`` by its CLI name.

    ``kind`` is the generator name written to provenance, ``record`` the
    params record class, ``problem`` the problem class of every build
    (``Multicut``, ``LengthBound`` or ``Rmfc``), and ``build(params)``
    calls the builder through its module attribute, so a wrapper installed
    there sees every build. The dictatorship tests also
    carry:

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

    A family may declare ``cuttable(params)``: the number of cuttable
    elements of its build, counted from the params alone, or SizeGuard
    when an exponent alone puts it over ``solvers.BB_ELEMENT_LIMIT``
    (``_capped_power``); a caller can then refuse an instance too large
    for the exact search unbuilt.

    A family may also declare ``symmetries(params)``: permutations of the
    cuttable elements of its build that keep multicut feasibility and
    cost, which the exact search prunes with; it must then declare
    ``cuttable``, which ``declared_symmetries`` checks before a build.
    """

    kind: str
    record: type
    problem: type
    build: Callable[[Any], CutInstance]
    space: Callable[[Any], FiniteProbSpace] | None = None
    rule: Callable[[Any], Callable[..., bool]] | None = None
    exact_cost: Callable[[Any], Fraction] | None = None
    cost_bound: Callable[[Any, Fraction], Fraction] | None = None
    check: Callable[[Any, CutInstance, Any], Verdict] | None = None
    cuttable: Callable[[Any], int] | None = None
    symmetries: Callable[[Any], Iterable[dict[Element, Element]]] | None = None

    def check_names(self, names: Iterable[str]) -> None:
        """Raise ParamOutOfRange unless ``names`` are the record's fields."""
        require_names(names, [f.name for f in fields(self.record)])

    def params(self, values: Any) -> Any:
        """The params record from a name -> value mapping, such as parsed
        ``--params`` or a provenance ``params`` block."""
        if not isinstance(values, Mapping):
            raise ParamOutOfRange(f"params must be a mapping, not {values!r}")
        self.check_names(values)
        types = get_type_hints(self.record)
        return self.record(
            **{name: param_value(name, types[name], raw) for name, raw in values.items()}
        )


def require_names(names: Iterable[str], want: Sequence[str]) -> None:
    """Raise ParamOutOfRange unless ``names`` are exactly ``want``."""
    names = set(names)
    missing = [name for name in want if name not in names]
    if missing:
        raise ParamOutOfRange(f"missing parameter(s) {', '.join(missing)}")
    unknown = sorted(names - set(want))
    if unknown:
        raise ParamOutOfRange(f"unknown parameter(s) {', '.join(unknown)}")


def param_value(name: str, kind: type, raw: Any) -> int | Fraction:
    try:
        value = parse_rational(str(raw))
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
    burnt = solvers.rmfc_simulate(inst, schedule).target_burnt
    return "target never burnt", not burnt, {"target_burnt": burnt}


def _saks_symmetries(p: SaksParams) -> Iterator[dict[Element, Element]]:
    """Every element but the identity of the hyperoctahedral group on the
    grid [r]^k, as a map of grid node ids: permute the k coordinates and
    reflect any of them (alpha_i -> r+1-alpha_i). Permuting coordinates
    permutes the pairs. A reflection swaps the slab s_i feeds with the one
    feeding t_i; it is not a digraph automorphism, but grid arcs run both
    ways, so a slab-to-slab path survives a cut exactly when its reverse
    survives the reflected cut. Every grid node weighs 1."""
    ids = _grid_ids(p.r, p.k)
    for perm in itertools.permutations(range(p.k)):
        for flips in itertools.product((False, True), repeat=p.k):
            if perm == tuple(range(p.k)) and not any(flips):
                continue
            moved = {
                alpha: tuple(
                    p.r + 1 - alpha[c] if flip else alpha[c] for c, flip in zip(perm, flips)
                )
                for alpha in ids
            }
            yield {v: ids[moved[alpha]] for alpha, v in ids.items()}


FAMILIES = {
    "saks": Family(
        "saks",
        SaksParams,
        Multicut,
        lambda p: build_saks_gap(p.r, p.k),
        cuttable=lambda p: _cuttable(p.r, p.k),
        symmetries=_saks_symmetries,
    ),
    "dict-m": Family(
        "dict_multicut",
        DictParamsM,
        Multicut,
        lambda p: build_dict_multicut(p),
        space=lambda p: star_noise_space(p.r, p.eps).left,
        rule=_star_or_zero,
        exact_cost=lambda p: Fraction(p.r) ** p.k * (p.eps + (1 - p.eps) / p.r),
        cost_bound=lambda p, eta: (
            Fraction(p.r) ** (p.k - 1) * (1 + p.r * p.eps + p.r * eta)
        ),
        check=_pairs_cut,
        cuttable=lambda p: _cuttable(p.r, p.k) * _cuttable(p.r + 1, p.R),
    ),
    "dict-e": Family(
        "dict_edge",
        DictParamsE,
        LengthBound,
        lambda p: build_dict_edge(p),
        space=lambda p: edge_noise_space(p.r).left,
        rule=_broken_step,
        cost_bound=lambda p, eta: Fraction(2 * p.b, p.r) + 2 * eta * p.b,
        check=lambda p, inst, cut: _distance_kept(p.a * (p.b - p.r + 1), inst, cut),
        cuttable=lambda p: p.b * _cuttable(p.r * p.r, p.R),
    ),
    "dict-v": Family(
        "dict_vertex",
        DictParamsV,
        LengthBound,
        lambda p: build_dict_vertex(p),
        space=lambda p: star_noise_space(p.r, p.eps).left,
        rule=_star_or_zero,
        exact_cost=_vertex_cost,
        cost_bound=lambda p, eta: _vertex_cost(p) + eta * (p.b + 1),
        check=lambda p, inst, cut: _distance_kept(p.a * (p.b - p.r + 2), inst, cut),
        cuttable=lambda p: (p.b + 1) * _cuttable(p.r + 1, p.R),
    ),
    "dict-f": Family(
        "dict_rmfc",
        DictParamsF,
        Rmfc,
        lambda p: build_dict_rmfc(p),
        space=lambda p: fire_noise_space(p.big_b, p.eps).left,
        rule=_fire_day,
        cost_bound=lambda p, eta: p.b * p.eps + 1 / harmonic(p.b) + p.b * eta,
        check=_target_saved,
    ),
}


def declared_symmetries(inst: CutInstance) -> Iterator[dict[Element, Element]]:
    """The symmetries that ``inst``'s family declares at its provenance
    params, for ``solvers.exact_min_multicut``; none unless the family
    declares some and ``inst`` equals a fresh build from those params in
    mode, problem, node weights and edge list. Provenance alone is never
    trusted: a file can name a family and differ from its build, and one
    whose cuttable count differs from the family's gets no group unbuilt.

    Lazy: nothing is built before the first item is asked for, so the
    search's size guard refuses a large instance before its group (of
    order 2^k k! for saks) or the fresh build is made."""
    prov = inst.provenance or {}
    family = next(
        (f for f in FAMILIES.values() if f.kind == prov.get("generator")), None
    )
    if family is None or family.symmetries is None:
        return
    try:
        params = family.params(prov.get("params"))
        # a build with another count of cuttable elements cannot equal inst
        if family.cuttable(params) != len(inst.cuttable_elements()):
            return
        fresh = family.build(params)
    except CutLabError:
        return
    g, h = inst.graph, fresh.graph
    same = (
        inst.mode == fresh.mode
        and inst.problem == fresh.problem
        and g.edge_rows == h.edge_rows
        and {v: g.node_weight(v) for v in g.nodes} == {v: h.node_weight(v) for v in h.nodes}
    )
    if same:
        yield from family.symmetries(params)


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
    inst = instance if instance is not None else family.build(params)
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
    that copy, or None to remove the whole copy. WrongProblemType for a
    problem not the family's, or a fire-containment instance in edge mode.
    """
    require_problem(inst.problem, family.problem)
    if family.problem is Rmfc and inst.mode == EDGE:
        raise WrongProblemType("a fire-containment schedule saves nodes, not edges")
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
        cost = Fraction(0)
        for idx, (tail, head, _, _, weight) in enumerate(g.edge_rows):
            if weight is None:
                continue
            try:
                (qa, blk_a, xa), (qb, blk_b, xb) = nodes[tail], nodes[head]
            except KeyError:
                raise UnknownGenerator(f"cuttable edge {idx} ends at a terminal") from None
            if _layer(blk_a) > _layer(blk_b):
                qa, xa, qb, xb = qb, xb, qa, xa
            if qa is None or qb is None or in_cut(xa[qa], xb[qb]):
                elements.add(idx)
                cost += weight
        return CutSolution(frozenset(elements), cost)
    if isinstance(inst.problem, Rmfc):
        days: list[list[str]] = [[] for _ in range(params.b)]
        for v, (q, block, x) in nodes.items():
            i = _layer(block)
            if q is None or in_cut(i, x[q]):
                days[i - 1].append(v)
        costs = tuple(_node_cost(g, day) for day in days)
        return Schedule(tuple(frozenset(day) for day in days), costs)
    chosen = [v for v, (q, _, x) in nodes.items() if q is None or in_cut(x[q])]
    return CutSolution(frozenset(chosen), _node_cost(g, chosen))


def _layer(block: str) -> int:
    return int(block[2:-1])


def _node_cost(g: WeightedGraph, nodes: Iterable[str]) -> Fraction:
    """The summed weight of ``nodes``; RemovingUncuttable at the first
    uncuttable one, which only a tampered instance holds."""
    cost = Fraction(0)
    for v in nodes:
        weight = g.node_weight(v)
        if weight is None:
            raise RemovingUncuttable(f"the dictator rule takes uncuttable node {v!r}")
        cost += weight
    return cost
