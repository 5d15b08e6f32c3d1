"""Shared test oracles: the adjacency read off the edge list, exhaustive
path enumeration, subset brute force, the Fraction separation oracles, the
Fraction max flow, the recursive enumeration of affordable fire-search
days, the Fraction simplex, two closed-form correlation bounds, the exact certificate
of a maximal correlation, the numpy references for the maximal correlation
(an SVD) and Gaussian quadrant probabilities (a 2-D quadrature), the seeded
random-instance factories used by the cross-check suites, a variance, the
integer node-weight expansion, and a JSON form of unique-games instances
for round-trip checks. numpy is imported only by the two references.

Everything here is deliberately independent of the package's search code:
paths come from plain DFS enumeration, optima from subset enumeration,
Efron-Stein parts from conditional expectations on every coordinate subset,
and the reference separation oracles, max flow and simplex compute in
Fractions where the package computes in integers over a common denominator.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, product
from typing import Mapping

from cutlab import solvers
from cutlab.errors import (
    CutLabError, Infeasible, NoFiniteCut, SizeGuard, UnknownNode, require,
)
from cutlab.graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    CutSolution,
    Element,
    LengthBound,
    Multicut,
    Path,
    Rmfc,
    WeightedGraph,
    _over_lcm,
    shortest_path_length,
)
from cutlab.lp import LPProblem
from cutlab.probspace import Atom, CorrelatedSpace, ProductFunction, normal_quantile, product_mass
from cutlab.ug import UGEdge, UniqueGamesInstance


def reference_out_arcs(g: WeightedGraph) -> dict[str, list[tuple[int, str]]]:
    """Every node's ``(edge index, neighbour)`` arcs, read off ``g.edges``
    one edge at a time: the tail's arc, then the head's when undirected."""
    out: dict[str, list[tuple[int, str]]] = {v: [] for v in g.nodes}
    for idx, edge in enumerate(g.edges):
        out[edge.tail].append((idx, edge.head))
        if not edge.directed:
            out[edge.head].append((idx, edge.tail))
    return out


def all_simple_paths(g: WeightedGraph, s: str, t: str):
    """Yield (nodes, edges) for every simple s-t path, by DFS."""
    out = reference_out_arcs(g)
    path_nodes = [s]
    path_edges: list[int] = []
    on_path = {s}

    def rec():
        v = path_nodes[-1]
        if v == t:
            yield list(path_nodes), list(path_edges)
            return
        for idx, nb in out[v]:
            if nb in on_path:
                continue
            path_nodes.append(nb)
            path_edges.append(idx)
            on_path.add(nb)
            yield from rec()
            on_path.remove(nb)
            path_edges.pop()
            path_nodes.pop()

    yield from rec()


def path_length(g: WeightedGraph, edges) -> int:
    return sum(g.edges[i].length for i in edges)


def total_length(g: WeightedGraph) -> int:
    return path_length(g, range(len(g.edges)))


def total_finite_weight(g: WeightedGraph, mode: str) -> Fraction:
    """The summed weight of every cuttable element of ``g`` in ``mode``."""
    return sum((g.element_weight(el) for el in g.cuttable_elements(mode)), Fraction(0))


def path_x_weight(g: WeightedGraph, nodes, edges, x, mode) -> Fraction:
    elements = nodes if mode == VERTEX else edges
    total = Fraction(0)
    for el in dict.fromkeys(elements):
        if g.element_weight(el) is not None:
            total += x.get(el, Fraction(0))
    return total


def reference_layered_min_hop(
    g: WeightedGraph,
    mode: str,
    removed: set[Element],
    s: str,
    t: str,
    width: int,
    max_hops: int | None,
) -> Path | None:
    """Fewest-edge s-t walk, s != t, of length below ``width`` that enters
    no element of ``removed`` and, with ``max_hops``, has at most that many
    edges: the first found by a BFS over (node, length) states that enters
    each state once, the first time it is reached, in arc order. The
    unpruned reference for ``PathSearch._layered_min_hop``, which also
    skips a state when its node was entered before at no greater length."""
    out = reference_out_arcs(g)
    prev: dict[tuple[str, int], tuple[tuple[str, int], int] | None] = {(s, 0): None}
    level = [(s, 0)]
    hops = 0
    while level and (max_hops is None or hops < max_hops):
        hops += 1
        following = []
        for state in level:
            v, length = state
            for idx, nb in out[v]:
                nxt = (nb, length + g.edges[idx].length)
                entered = nb if mode == VERTEX else idx
                if nxt[1] >= width or nxt in prev or entered in removed:
                    continue
                prev[nxt] = (state, idx)
                if nb == t:
                    nodes, edges = [t], []
                    while prev[nxt] is not None:
                        nxt, idx = prev[nxt]
                        nodes.append(nxt[0])
                        edges.append(idx)
                    nodes.reverse()
                    edges.reverse()
                    return Path(tuple(nodes), tuple(edges), path_length(g, edges))
                following.append(nxt)
        level = following
    return None


def reference_min_weight_path(
    g: WeightedGraph,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    mode: str,
) -> tuple[Path, Fraction] | None:
    """Dijkstra summing ``Fraction`` costs: the reference for the paths and
    ties of ``min_weight_path``, which sums integers over a common
    denominator.

    Costs accrue on cuttable elements only (per ``mode``); uncuttable
    elements contribute zero.
    """
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    def el_cost(el: Element) -> Fraction:
        if g.element_weight(el) is None:
            return Fraction(0)
        return x.get(el, Fraction(0))

    order = {v: i for i, v in enumerate(g.nodes)}
    out = reference_out_arcs(g)
    start = el_cost(s) if mode == VERTEX else Fraction(0)
    best: dict[str, Fraction] = {s: start}
    parent: dict[str, tuple[str, int]] = {}
    heap: list[tuple[Fraction, int, str]] = [(start, order[s], s)]
    done: set[str] = set()
    while heap:
        d, _, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == t:
            break
        for idx, nb in out[v]:
            if nb in done:
                continue
            step = el_cost(idx) if mode == EDGE else el_cost(nb)
            nd = d + step
            if nb not in best or nd < best[nb]:
                best[nb] = nd
                parent[nb] = (v, idx)
                heappush(heap, (nd, order[nb], nb))
    if t not in done:
        return None
    nodes = [t]
    edges: list[int] = []
    while nodes[-1] != s:
        pv, pe = parent[nodes[-1]]
        nodes.append(pv)
        edges.append(pe)
    nodes.reverse()
    edges.reverse()
    path = Path(tuple(nodes), tuple(edges), sum(g.edges[i].length for i in edges))
    return path, best[t]


def reference_constrained_min_weight_path(
    g: WeightedGraph,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    bound: int,
    mode: str,
) -> tuple[Path, Fraction] | None:
    """Length-layered DP summing ``Fraction`` costs: the reference for the
    paths and ties of ``constrained_min_weight_path``, which sums integers
    over a common denominator. Minimum x-weight s-t path of total length
    strictly below ``bound``.

    Dynamic program over (node, accumulated length) states; all lengths are
    at least 1, so states are bounded by bound * |V|, and the walk of the
    least (cost, length) state at t is simple (a revisit could be cut out
    at no greater cost and a shorter length). Its weight sums x over
    distinct cuttable elements.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    for el, val in x.items():
        if val < 0:
            raise ValueError("x must be nonnegative")
        if val > 0 and g.element_weight(el) is None:
            raise ValueError(f"positive x on uncuttable element {el!r}")
    def el_cost(el: Element) -> Fraction:
        if g.element_weight(el) is None:
            return Fraction(0)
        return x.get(el, Fraction(0))

    nodes = g.nodes
    out = reference_out_arcs(g)
    start = el_cost(s) if mode == VERTEX else Fraction(0)
    # best[L][v] = cheapest x-weight of a walk s->v of total length L
    best: list[dict[str, Fraction]] = [dict() for _ in range(bound)]
    parent: dict[tuple[str, int], tuple[str, int, int]] = {}
    best[0][s] = start
    for level in range(bound):
        layer = best[level]
        for v in nodes:
            if v not in layer:
                continue
            d = layer[v]
            for idx, nb in out[v]:
                nl = level + g.edges[idx].length
                if nl >= bound:
                    continue
                step = el_cost(idx) if mode == EDGE else el_cost(nb)
                nd = d + step
                if nb not in best[nl] or nd < best[nl][nb]:
                    best[nl][nb] = nd
                    parent[(nb, nl)] = (v, level, idx)

    hit = [(lvl, best[lvl][t]) for lvl in range(bound) if t in best[lvl]]
    if not hit:
        return None
    target = min(hit, key=lambda p: (p[1], p[0]))
    lvl = target[0]
    walk_nodes = [t]
    walk_edges: list[int] = []
    cur, cl = t, lvl
    while (cur, cl) != (s, 0):
        pv, pl, pe = parent[(cur, cl)]
        walk_nodes.append(pv)
        walk_edges.append(pe)
        cur, cl = pv, pl
    walk_nodes.reverse()
    walk_edges.reverse()
    path = Path(tuple(walk_nodes), tuple(walk_edges), path_length(g, walk_edges))
    weight = Fraction(0)
    for el in path.elements(mode, g):
        weight += x.get(el, Fraction(0))
    return path, weight


def brute_force_min_disconnect(g: WeightedGraph, s: str, t: str, mode: str):
    """Cheapest cuttable subset after which t is unreachable from s."""
    cuttable = g.cuttable_elements(mode)
    best = None
    for size in range(len(cuttable) + 1):
        for subset in combinations(cuttable, size):
            cost = sum(
                (g.element_weight(el) for el in subset), Fraction(0)
            )
            if best is not None and cost >= best[0]:
                continue
            if shortest_path_length(g, s, t, subset) is None:
                best = (cost, frozenset(subset))
    return best


# the most cuttable elements brute_force_min_cut enumerates the subsets of
BRUTE_ELEMENT_LIMIT = 22


def brute_force_min_cut(inst: CutInstance) -> CutSolution:
    """Exhaustive minimum over all cuttable subsets; the independent
    cross-check oracle for the branch-and-bound solvers."""
    cuttable = sorted(inst.cuttable_elements(), key=str)
    if len(cuttable) > BRUTE_ELEMENT_LIMIT:
        raise SizeGuard(f"{len(cuttable)} cuttable elements (cap {BRUTE_ELEMENT_LIMIT})")
    if isinstance(inst.problem, Multicut):
        feasible = lambda els: solvers.multicut_is_feasible(inst, els)
    elif isinstance(inst.problem, LengthBound):
        feasible = lambda els: solvers.length_bound_is_feasible(inst, els)
    else:
        raise ValueError("brute force covers multicut and length bound")
    # cutting more never breaks feasibility, so no subset is feasible
    # unless the whole set is
    if not feasible(cuttable):
        raise Infeasible("no cuttable subset is feasible")
    # costs are integers over the common denominator of the weights
    scale, units = _over_lcm([inst.graph.element_weight(el) for el in cuttable])
    indices = range(len(cuttable))
    best: tuple[int, frozenset[Element]] | None = None
    for mask in range(1 << len(cuttable)):
        cost = sum(units[i] for i in indices if mask >> i & 1)
        if best is not None and cost >= best[0]:
            continue
        subset = [cuttable[i] for i in indices if mask >> i & 1]
        if feasible(subset):
            best = (cost, frozenset(subset))
    return CutSolution(best[1], Fraction(best[0], scale))


def brute_force_min_feasible(inst: CutInstance, feasible) -> Fraction | None:
    """Cheapest cuttable subset passing the supplied feasibility check."""
    cuttable = inst.cuttable_elements()
    best = None
    for mask in range(1 << len(cuttable)):
        subset = [cuttable[i] for i in range(len(cuttable)) if mask >> i & 1]
        cost = sum((inst.graph.element_weight(el) for el in subset), Fraction(0))
        if best is not None and cost >= best:
            continue
        if feasible(subset):
            best = cost
    return best


def expand_node_weights(g: WeightedGraph) -> WeightedGraph:
    """Duplicate each vertex according to its integer weight.

    Copies are joined by complete bipartite connections replacing each
    original edge; all copies get unit weight. Uncuttable nodes keep a
    single uncuttable copy. Requires integer node weights.
    """
    out = WeightedGraph()
    copies: dict[str, list[str]] = {}
    for v in g.nodes:
        w = g.node_weight(v)
        if w is None:
            out.add_node(v, None)
            copies[v] = [v]
            continue
        if w.denominator != 1:
            raise ValueError("expand_node_weights needs integer weights")
        names = [f"{v}#{i}" for i in range(int(w))]
        for name in names:
            out.add_node(name, Fraction(1))
        copies[v] = names
    out.add_edges(
        (a, b, e.directed, e.length, e.weight)
        for e in g.edges
        for a in copies[e.tail]
        for b in copies[e.head]
    )
    return out


def with_bound(inst: CutInstance, bound: int) -> CutInstance:
    """``inst`` with its length bound replaced by ``bound``; the graph
    object is shared."""
    p = inst.problem
    return dataclasses.replace(inst, problem=LengthBound(p.source, p.sink, bound))


def random_instance(
    rng: random.Random,
    problem_kind: str,
    mode: str,
    n_nodes: int = 6,
    extra_edges: int = 5,
    max_cuttable: int = 10,
) -> CutInstance:
    """Small random connected instance with at most ``max_cuttable``
    cuttable elements. All non-terminal elements of the chosen mode are
    cuttable so feasibility is guaranteed.
    """
    names = [f"n{i}" for i in range(n_nodes)]
    terminals = ["S", "T"] if problem_kind == "length_bound" else ["S", "T", "S2", "T2"]
    g = WeightedGraph()

    def rand_weight() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 3))

    for term in terminals:
        g.add_node(term, None)
    for v in names:
        g.add_node(v, rand_weight() if mode == VERTEX else None)

    directed = problem_kind == "multicut"
    edge_budget = max_cuttable if mode == EDGE else n_nodes + extra_edges

    def add(a: str, b: str) -> None:
        g.add_edge(
            a,
            b,
            directed=directed,
            length=rng.randint(1, 3),
            weight=rand_weight() if mode == EDGE else None,
        )

    # a random backbone guarantees S reaches T through the interior
    chain = list(names)
    rng.shuffle(chain)
    add("S", chain[0])
    for a, b in zip(chain, chain[1:]):
        add(a, b)
    add(chain[-1], "T")
    used = n_nodes + 1

    if problem_kind == "multicut":
        pairs = [("S", "T")]
        if rng.random() < 0.7:
            pairs.append(("S2", "T2"))
            add("S2", rng.choice(names))
            add(rng.choice(names), "T2")
            used += 2
        problem = Multicut(tuple(pairs))
    else:
        problem = LengthBound("S", "T", rng.randint(2, 6))

    pool = terminals + names
    while used < edge_budget:
        a, b = rng.sample(pool, 2)
        if mode == VERTEX and a in terminals and b in terminals:
            continue  # would create an uncuttable path
        if directed and rng.random() < 0.5:
            a, b = b, a
        add(a, b)
        used += 1
    inst = CutInstance(graph=g, mode=mode, problem=problem)
    # a raise, not an assert: pytest does not rewrite this module, so an
    # assert here would vanish under python -O
    cuttable = len(inst.cuttable_elements())
    if mode == EDGE and cuttable > max_cuttable:
        raise ValueError(f"{cuttable} cuttable edges exceed max_cuttable = {max_cuttable}")
    return inst


def random_grid_instance(
    rng: random.Random, problem_kind: str, mode: str, rows: int = 3, cols: int = 4
) -> CutInstance:
    """Random grid of rows x cols cells, denser in overlapping paths than
    ``random_instance``, so branch and bound goes several levels deep.

    Multicut (directed): s1 feeds the first column and the last column
    feeds t1; s2 and t2 do the same for the first and last row. Length
    bound (undirected): s and t join the first and last column, and the
    bound is 1 or 2 above the s-t distance. Vertex mode cuts the cells,
    joined by king moves each kept with probability 0.8. Edge mode cuts
    the links between side neighbours (one direction each for multicut)
    and adds uncuttable diagonals with probability 0.3.
    """
    multicut = problem_kind == "multicut"
    pairs = [("s1", "t1"), ("s2", "t2")] if multicut else [("s", "t")]
    g = WeightedGraph()
    for pair in pairs:
        for term in pair:
            g.add_node(term, None)

    def rand_weight() -> Fraction:
        return Fraction(rng.randint(1, 4), rng.randint(1, 2))

    def link(a: str, b: str, weight: Fraction | None) -> None:
        g.add_edge(a, b, directed=multicut, length=rng.randint(1, 2), weight=weight)

    cells = list(product(range(rows), range(cols)))
    name = {cell: f"v[{cell[0]},{cell[1]}]" for cell in cells}
    for cell in cells:
        g.add_node(name[cell], rand_weight() if mode == VERTEX else None)
    s, t = pairs[0]
    for i in range(rows):
        link(s, name[i, 0], None)
        link(name[i, cols - 1], t, None)
    if multicut:
        for j in range(cols):
            link("s2", name[0, j], None)
            link(name[rows - 1, j], "t2", None)
    for a, b in combinations(cells, 2):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            continue
        if mode == VERTEX:
            for x, y in ((a, b), (b, a)) if multicut else ((a, b),):
                if rng.random() < 0.8:
                    link(name[x], name[y], None)
            continue
        diagonal = a[0] != b[0] and a[1] != b[1]
        if diagonal and rng.random() >= 0.3:
            continue
        x, y = (a, b) if rng.random() < 0.5 else (b, a)
        link(name[x], name[y], None if diagonal else rand_weight())
    if multicut:
        return CutInstance(graph=g, mode=mode, problem=Multicut(tuple(pairs)))
    bound = shortest_path_length(g, s, t) + rng.randint(1, 2)
    return CutInstance(graph=g, mode=mode, problem=LengthBound(s, t, bound))


def random_rmfc_instance(rng: random.Random, n_cuttable: int = 10) -> CutInstance:
    """Random fire-containment instance: a source ``s``, ``n_cuttable``
    savable vertices of non-unit rational weight and two uncuttable relay
    vertices on a random tree, a few extra (sometimes directed) edges, and
    targets ``t1``, ``t2`` hung off vertices other than the source."""
    g = WeightedGraph()
    g.add_node("s")
    names = [f"v{i}" for i in range(n_cuttable)]
    for v in names:
        g.add_node(v, Fraction(rng.randint(1, 5), rng.randint(2, 4)))
    for v in ("r0", "r1", "t1", "t2"):
        g.add_node(v)
    names += ["r0", "r1"]
    rng.shuffle(names)
    placed = ["s"]
    for v in names:
        g.add_edge(rng.choice(placed), v, directed=False)
        placed.append(v)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(names, 2)
        g.add_edge(a, b, directed=rng.random() < 0.5)
    for t in ("t1", "t2"):
        g.add_edge(rng.choice(names), t, directed=False)
    return CutInstance(graph=g, mode=VERTEX, problem=Rmfc("s", frozenset({"t1", "t2"})))


class _ReferenceFlowNet:
    """Residual network on nodes 0..n-1, Fraction capacities; None is
    infinite. Augments along BFS paths in arc order."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.res: list[Fraction | None] = []
        self.elem: list[Element | None] = []

    def arc(self, u: int, v: int, cap: Fraction | None, elem: Element | None) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.res.append(cap)
        self.elem.append(elem)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.res.append(Fraction(0))
        self.elem.append(None)

    def _bfs(self, s: int, t: int, infinite_only: bool) -> list[int] | None:
        prev = [-1] * len(self.adj)
        prev[s] = -2
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for ai in self.adj[u]:
                r = self.res[ai]
                if r is not None and (infinite_only or r == 0):
                    continue
                v = self.to[ai]
                if prev[v] != -1:
                    continue
                prev[v] = ai
                if v == t:
                    arcs = []
                    while v != s:
                        arcs.append(prev[v])
                        v = self.to[prev[v] ^ 1]
                    arcs.reverse()
                    return arcs
                queue.append(v)
        return None

    def max_flow(self, s: int, t: int) -> Fraction:
        if self._bfs(s, t, infinite_only=True) is not None:
            raise NoFiniteCut("an s-t path of uncuttable elements exists")
        total = Fraction(0)
        while True:
            arcs = self._bfs(s, t, infinite_only=False)
            if arcs is None:
                return total
            push = min(self.res[a] for a in arcs if self.res[a] is not None)
            for a in arcs:
                if self.res[a] is not None:
                    self.res[a] -= push
                rev = self.res[a ^ 1]
                self.res[a ^ 1] = push if rev is None else rev + push
            total += push

    def min_cut_elements(self, s: int) -> set[Element]:
        reach = [False] * len(self.adj)
        reach[s] = True
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for ai in self.adj[u]:
                r = self.res[ai]
                if r is not None and r == 0:
                    continue
                v = self.to[ai]
                if not reach[v]:
                    reach[v] = True
                    queue.append(v)
        out: set[Element] = set()
        for ai in range(0, len(self.to), 2):
            u = self.to[ai ^ 1]
            v = self.to[ai]
            if reach[u] and not reach[v] and self.elem[ai] is not None:
                out.add(self.elem[ai])
        return out


def reference_min_st_cut(
    g: WeightedGraph, s: str, t: str, mode: str
) -> tuple[Fraction, frozenset[Element]]:
    """``graphs.min_st_cut`` as it ran on Fraction capacities, read off
    ``g.nodes`` and ``g.edges``: the same network, node i as i, or as 2i
    (in) and 2i + 1 (out) in vertex mode."""
    names = g.nodes
    pos = {v: i for i, v in enumerate(names)}
    net = _ReferenceFlowNet(2 * len(names) if mode == VERTEX else len(names))
    if mode == VERTEX:
        for i, v in enumerate(names):
            net.arc(2 * i, 2 * i + 1, g.node_weight(v), v)
        for e in g.edges:
            net.arc(2 * pos[e.tail] + 1, 2 * pos[e.head], None, None)
            if not e.directed:
                net.arc(2 * pos[e.head] + 1, 2 * pos[e.tail], None, None)
        source, sink = 2 * pos[s] + 1, 2 * pos[t]
    else:
        for i, e in enumerate(g.edges):
            net.arc(pos[e.tail], pos[e.head], e.weight, i)
            if not e.directed:
                net.arc(pos[e.head], pos[e.tail], e.weight, i)
        source, sink = pos[s], pos[t]
    value = net.max_flow(source, sink)
    return value, frozenset(net.min_cut_elements(source))


def reference_affordable_days(
    items: list[int], weights: list[int], n: int, budget: int
):
    """The unions of the one-bit masks ``items[:n]`` of weight at most
    ``budget``, by recursion on the highest index, left out before taken:
    in increasing order when the items are."""
    if n == 0:
        yield 0
        return
    yield from reference_affordable_days(items, weights, n - 1, budget)
    rest = budget - weights[n - 1]
    if rest >= 0:
        for day in reference_affordable_days(items, weights, n - 1, rest):
            yield day | items[n - 1]


def reference_rmfc_search(inst: CutInstance, k: Fraction):
    """The schedule search as it ran before save sets were pruned by cost:
    every state tries all 2^|savable| masks in increasing order, skipping
    those over budget. Returns ``(savable, days)``."""
    g = inst.graph
    nbrs = {v: [nb for _, nb in arcs] for v, arcs in reference_out_arcs(g).items()}
    targets = inst.problem.targets
    memo: dict = {}

    def burnable(burnt, saved):
        reach = set(burnt)
        frontier = list(burnt)
        while frontier:
            v = frontier.pop()
            for nb in nbrs[v]:
                if nb not in reach and nb not in saved:
                    reach.add(nb)
                    frontier.append(nb)
        return reach - set(burnt)

    def search(burnt, saved):
        if any(t in burnt for t in targets):
            return None
        key = (burnt, saved)
        if key in memo:
            return memo[key]
        future = burnable(burnt, saved)
        if not future:
            memo[key] = ()
            return ()
        relevant = sorted(v for v in future if g.node_weight(v) is not None)
        result = None
        for mask in range(1 << len(relevant)):
            day = frozenset(relevant[i] for i in range(len(relevant)) if mask >> i & 1)
            if sum((g.node_weight(v) for v in day), Fraction(0)) > k:
                continue
            nsaved = saved | day
            spread = {
                nb
                for v in burnt
                for nb in nbrs[v]
                if nb not in burnt and nb not in nsaved
            }
            rest = search(burnt | spread, frozenset(nsaved))
            if rest is not None:
                result = (day, *rest)
                break
        memo[key] = result
        return result

    days = search(frozenset({inst.problem.source}), frozenset())
    return days is not None, days


def second_moment(f: ProductFunction) -> Fraction:
    return sum((product_mass(f.base, p) * v * v for p, v in f.values.items()), Fraction(0))


def variance(f: ProductFunction) -> Fraction:
    mu = f.mean()
    return second_moment(f) - mu * mu


def reference_efron_stein_norms(f: ProductFunction) -> dict[frozenset[int], Fraction]:
    """Squared 2-norms of the orthogonal parts f = sum_S f_S.

    Parts are obtained by inclusion-exclusion over conditional expectations
    with respect to the (possibly nonuniform) product measure. Exact.
    """
    r = f.r
    base = f.base
    coords = list(range(r))
    # conditional expectations E[f | x_T = z] for every coordinate subset T
    cond: dict[frozenset[int], dict[tuple[Atom, ...], Fraction]] = {}
    for size in range(r + 1):
        for t in itertools.combinations(coords, size):
            tset = frozenset(t)
            num: dict[tuple[Atom, ...], Fraction] = {}
            den: dict[tuple[Atom, ...], Fraction] = {}
            for point, val in f.values.items():
                z = tuple(point[i] for i in t)
                w = product_mass(base, point)
                num[z] = num.get(z, Fraction(0)) + w * val
                den[z] = den.get(z, Fraction(0)) + w
            cond[tset] = {
                z: (num[z] / den[z] if den[z] > 0 else Fraction(0)) for z in num
            }

    norms: dict[frozenset[int], Fraction] = {}
    for size in range(r + 1):
        for svec in itertools.combinations(coords, size):
            s = frozenset(svec)
            total = Fraction(0)
            # iterate over assignments z on S with their product masses
            for zpoint in itertools.product(base.atoms, repeat=size):
                zmass = Fraction(1)
                for a in zpoint:
                    zmass *= base.mass(a)
                if zmass == 0:
                    continue
                part = Fraction(0)
                for tsize in range(size + 1):
                    for tvec in itertools.combinations(svec, tsize):
                        sign = -1 if (size - tsize) % 2 else 1
                        proj = tuple(zpoint[svec.index(i)] for i in tvec)
                        part += sign * cond[frozenset(tvec)][proj]
                total += zmass * part * part
            norms[s] = total
    return norms


# -- the Fraction simplex ------------------------------------------------------


class _ReferencePackingDual:
    """Sparse simplex tableau of the dual max b.y s.t. A^T y <= c, y >= 0.

    Row j is the dual constraint of primal variable j; column key j < n is
    its slack, key n + i is y_i for primal row i. The all-slack basis is
    feasible because c >= 0, so there is no phase 1. ``z`` holds the
    nonzero reduced costs of min -b.y; x_j is the reduced cost of slack j.
    """

    def __init__(self, lp: LPProblem) -> None:
        cost = [Fraction(lp.objective[v]) for v in lp.var_order]
        if any(c < 0 for c in cost):
            raise CutLabError("negative cost: the packing dual needs c >= 0")
        self.pos = {v: j for j, v in enumerate(lp.var_order)}
        self.table: list[dict[int, Fraction]] = [{j: Fraction(1)} for j in range(len(cost))]
        self.rhs = cost
        self.basis = list(range(len(cost)))
        self.z: dict[int, Fraction] = {}
        self.priced = 0

    def price(self, row: Mapping[Element, Fraction], rhs: Fraction) -> None:
        """Add the next primal row as a dual column of the current basis."""
        a = {self.pos[v]: c for v, c in row.items()}
        key = len(self.pos) + self.priced
        self.priced += 1
        for line in self.table:
            # B^-1 a, summed from the slack block, which holds B^-1
            entry = sum((c * a[j] for j, c in line.items() if j in a), Fraction(0))
            if entry:
                line[key] = entry
        # the row's activity under the current x minus its rhs
        reduced = sum((c * self.z.get(j, Fraction(0)) for j, c in a.items()), -rhs)
        if reduced:
            self.z[key] = reduced

    def optimize(self) -> None:
        """Bland's rule: the lowest key with negative reduced cost enters,
        the lowest basic key leaves among ratio ties."""
        table, rhs, basis, z = self.table, self.rhs, self.basis, self.z
        while True:
            enter = min((k for k, d in z.items() if d < 0), default=None)
            if enter is None:
                return
            ratios = [
                (rhs[r] / line[enter], basis[r], r)
                for r, line in enumerate(table)
                if line.get(enter, 0) > 0
            ]
            if not ratios:
                raise Infeasible("the packing dual is unbounded: no x meets every row")
            leave = min(ratios)[2]
            piv = table[leave][enter]
            line = table[leave] = {k: c / piv for k, c in table[leave].items()}
            rhs[leave] /= piv
            for r, other in enumerate(table):
                if r != leave and enter in other:
                    rhs[r] -= _reference_eliminate(other, line, enter) * rhs[leave]
            _reference_eliminate(z, line, enter)
            basis[leave] = enter


def _reference_eliminate(
    target: dict[int, Fraction], line: dict[int, Fraction], col: int
) -> Fraction:
    """Subtract target[col] times ``line`` from ``target``; return the factor."""
    f = target[col]
    for k, c in line.items():
        target[k] = target.get(k, 0) - f * c
        if not target[k]:
            del target[k]
    return f


def reference_simplex_solve(lp: LPProblem) -> tuple[Fraction, dict[Element, Fraction]]:
    """Exact optimum of the LP by primal simplex on its packing dual, with a
    ``Fraction`` tableau: the reference for the values, x and pivot
    sequence of ``lp.simplex_solve``, which pivots on integers.

    The first call starts from the all-slack dual basis; later calls price
    the rows added since as new dual columns and resume from the last
    basis. Raises Infeasible when the dual is unbounded. The answer is
    returned only once x and y are feasible and c.x == b.y.
    """
    if lp._dual is None:
        lp._dual = _ReferencePackingDual(lp)
    dual = lp._dual
    for i in range(dual.priced, len(lp.rows)):
        dual.price(lp.rows[i], lp.rhs[i])
    dual.optimize()

    n = len(lp.var_order)
    x = {v: dual.z.get(j, Fraction(0)) for v, j in dual.pos.items()}
    y = {k - n: dual.rhs[r] for r, k in enumerate(dual.basis) if k >= n}
    load = dict.fromkeys(lp.var_order, Fraction(0))
    for i, yi in y.items():
        for v, c in lp.rows[i].items():
            load[v] += c * yi
    value = sum((lp.objective[v] * xv for v, xv in x.items()), Fraction(0))
    require(all(xv >= 0 for xv in x.values()), "x has a negative entry")
    require(all(yi >= 0 for yi in y.values()), "y has a negative entry")
    require(all(load[v] <= lp.objective[v] for v in load), "y violates A^T y <= c")
    for row, rhs in zip(lp.rows, lp.rhs):
        require(sum(c * x[v] for v, c in row.items()) >= rhs, "x violates a row")
    dual_value = sum((lp.rhs[i] * yi for i, yi in y.items()), Fraction(0))
    require(value == dual_value, "c.x differs from b.y")
    return value, x


# -- closed-form correlation bounds ------------------------------------------


def mixture_correlation_bound(rho1: float, rho2: float, delta: float) -> float:
    """Correlation bound for a delta-mixture of two correlated spaces
    sharing a marginal: sqrt(delta rho1^2 + (1-delta) rho2^2)."""
    if not (0 <= rho1 <= 1 and 0 <= rho2 <= 1 and 0 <= delta <= 1):
        raise ValueError("arguments must lie in [0,1]")
    return math.sqrt(delta * rho1 * rho1 + (1 - delta) * rho2 * rho2)


def sheppard_gamma_half(rho: float) -> float:
    """Closed form for the balanced case: 1/4 + arcsin(-rho)/(2 pi)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must be in [-1,1]")
    return 0.25 + math.asin(-rho) / (2.0 * math.pi)


# -- maximal correlation and Gaussian quadrant references -------------------


def maximal_correlation(cs: CorrelatedSpace) -> float:
    """Second-largest singular value of nu(a,b)/sqrt(mu1(a) mu2(b)), by a
    numpy SVD: the float reference for the exact values in ``gadgets``.

    Absolute error <= 1e-9 on the small matrices that occur here. The
    top singular value of the normalized joint matrix is always 1 (with
    sqrt-marginal singular vectors), so the correlation is the next one.
    """
    if any(cs.left.mass(a) == 0 for a in cs.left.atoms) or any(
        cs.right.mass(b) == 0 for b in cs.right.atoms
    ):
        raise ValueError("a marginal atom has zero mass")
    if len(cs.left) < 2 or len(cs.right) < 2:
        return 0.0
    import numpy as np

    q = np.zeros((len(cs.left), len(cs.right)))
    for i, a in enumerate(cs.left.atoms):
        for j, b in enumerate(cs.right.atoms):
            denom = math.sqrt(float(cs.left.mass(a)) * float(cs.right.mass(b)))
            q[i, j] = float(cs.mass(a, b)) / denom
    singular = np.linalg.svd(q, compute_uv=False)
    return float(min(1.0, singular[1]))


def _is_singular(m: list[list[Fraction]]) -> bool:
    """Whether a square Fraction matrix is singular, by Gaussian elimination."""
    m = [row[:] for row in m]
    n = len(m)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return True
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return False


def _is_psd(m: list[list[Fraction]]) -> bool:
    """Whether a symmetric Fraction matrix is positive semidefinite, by an
    LDL^T elimination without pivoting: every pivot must be >= 0, and a zero
    pivot's row must be zero in what is left, as it is in a PSD matrix."""
    m = [row[:] for row in m]
    n = len(m)
    for k in range(n):
        d = m[k][k]
        if d < 0 or (d == 0 and any(m[k][j] for j in range(k + 1, n))):
            return False
        if d == 0:
            continue
        for i in range(k + 1, n):
            f = m[i][k] / d
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return True


def certifies_maximal_correlation(cs: CorrelatedSpace, rho: Fraction) -> bool:
    """Whether 0 <= rho < 1 is exactly the maximal correlation of ``cs``, in
    rationals (Renyi 1959).

    With N the joint masses and D1, D2 the diagonal marginals, rho^2 runs
    over the eigenvalues of M = D1^-1 N D2^-1 N^T as rho runs over the
    singular values of D1^-1/2 N D2^-1/2; the top one is 1, with the
    constants as eigenvector. For c = rho^2 < 1, M - c I is singular exactly
    when c is an eigenvalue other than the top, and, with K = N D2^-1 N^T
    and mu1 the left marginal, c D1 - K + (1-c) mu1 mu1^T is PSD exactly
    when every eigenvalue but the top is at most c. Together they say c is
    the second eigenvalue. Both are checked as K - c D1, which is D1 times
    M - c I, and by exact elimination.
    """
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    c = Fraction(rho) ** 2
    mu1 = [cs.left.mass(a) for a in cs.left.atoms]
    mu2 = [cs.right.mass(b) for b in cs.right.atoms]
    n = [[cs.mass(a, b) for b in cs.right.atoms] for a in cs.left.atoms]
    k = [[sum(x * y / m for x, y, m in zip(row, col, mu2)) for col in n] for row in n]
    diag = range(len(mu1))
    shifted = [[k[i][j] - (c * mu1[i] if i == j else 0) for j in diag] for i in diag]
    gram = [[(1 - c) * mu1[i] * mu1[j] - shifted[i][j] for j in diag] for i in diag]
    return _is_singular(shifted) and _is_psd(gram)


def grid_gamma_rho(rho: float, a: float, b: float) -> float:
    """Pr[X <= Phi^-1(a), Y >= Phi^-1(1-b)] for rho-correlated Gaussians, by
    the tensor-product Gauss-Legendre quadrature the package used before its
    one-dimensional integral: numpy nodes on the box [-8, 8]^2, refined until
    two successive node counts agree within 1e-7. Absolute error <= 1e-8 for
    |rho| <= 0.999 and a, b in [0.001, 0.999]."""
    import numpy as np

    box = 8.0
    x_hi = min(normal_quantile(a), box)
    y_lo = max(normal_quantile(1.0 - b), -box)
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def nodes(n: int, lo: float, hi: float):
        xs, ws = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        return lo + half * (xs + 1.0), half * ws

    def integrate(n: int) -> float:
        xs, wx = nodes(n, -box, x_hi)
        ys, wy = nodes(n, y_lo, box)
        quad = np.square(xs)[:, None] - 2.0 * rho * np.outer(xs, ys) + np.square(ys)[None, :]
        vals = norm * np.exp(-quad / (2.0 * det)) * wx[:, None] * wy[None, :]
        return float(vals.sum())

    prev = integrate(48)
    for n in (96, 192, 384):
        cur = integrate(n)
        if abs(cur - prev) < 1e-7:
            return cur
        prev = cur
    return prev


def ug_to_json(inst: UniqueGamesInstance) -> dict:
    return {
        "U": list(inst.U),
        "W": list(inst.W),
        "R": inst.R,
        "edges": [{"u": e.u, "w": e.w, "perm": list(e.perm)} for e in inst.edges],
    }


def ug_from_json(doc: dict) -> UniqueGamesInstance:
    return UniqueGamesInstance(
        doc["U"],
        doc["W"],
        int(doc["R"]),
        [UGEdge(e["u"], e["w"], tuple(e["perm"])) for e in doc["edges"]],
    )
