"""Weighted graphs with exact rational weights and the path/cut primitives
used by the generators, solvers, and LP separation oracles.

Conventions used throughout the package:

* Weights are ``Fraction`` values; ``None`` is the uncuttable sentinel
  (infinite weight). It is never approximated by a large number.
* Edge lengths are positive integers.
* A *cut element* is a node id (``str``) in vertex mode and an edge index
  (``int``, position in ``WeightedGraph.edges``) in edge mode.
* A graph stores each edge as a plain ``(tail, head, directed, length,
  weight)`` tuple, its *row*. ``WeightedGraph.edges`` makes a ``GraphEdge``
  of a row when read; the package's own per-edge loops read the rows
  (``WeightedGraph.edge_rows``) instead.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from itertools import islice
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as json_str
from math import lcm
from numbers import Real
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    MalformedInstance,
    NoFiniteCut,
    RemovingUncuttable,
    UnknownNode,
    require,
)

VERTEX = "vertex"
EDGE = "edge"

Element = str | int
Weight = Fraction | None


def rational_str(value: Weight) -> str | None:
    """Serialize a Fraction as "p/q"; None (uncuttable) stays None."""
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


# CPython's default limit on the digits of an int read from or printed as
# a string (sys.set_int_max_str_digits). It also bounds the decimal exponent
# of a rational string: Fraction("1e<n>") computes 10**n, so "1e999999999"
# would run for minutes
MAX_DIGITS = 4300


def past_digit_limit(text: str) -> bool:
    """True when ``text`` holds more than ``MAX_DIGITS`` digits: a message
    that refuses it names the limit instead of echoing the text."""
    return sum(map(str.isdigit, text)) > MAX_DIGITS


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with ValueError for a decimal exponent whose
    absolute value exceeds ``MAX_DIGITS``."""
    exponent = text.lower().partition("e")[2]
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    # the length test keeps int() off a long digit string
    if digits.isdecimal() and (
        len(digits) > len(str(MAX_DIGITS)) or int(digits) > MAX_DIGITS
    ):
        raise ValueError(f"exponent of {text!r} exceeds {MAX_DIGITS}")
    return Fraction(text)


def _over_lcm(values: Collection[Fraction | int]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators and each value times it."""
    # folded pairwise: lcm(*args) builds an argument tuple per call, and
    # CPython keeps freed tuples of each small size on a free list, which
    # showed as peak RSS creeping up over repeated solves
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class GraphEdge(NamedTuple):
    tail: str
    head: str
    directed: bool
    length: int
    weight: Weight


# an edge to add, and an edge as a graph stores it (a row):
# (tail, head, directed, length, weight)
EdgeRecord = tuple[str, str, bool, int, Weight]

# the GraphEdge of a row, made without a Python-level call
_graph_edge = partial(tuple.__new__, GraphEdge)


def _check_weight(weight: object, what: str) -> None:
    """Raise ValueError unless ``weight`` is an int or Fraction (a bool is
    neither) and nonnegative; ``what`` names it in the message."""
    if not isinstance(weight, (int, Fraction)) or isinstance(weight, bool):
        raise ValueError(f"{what} must be an int, Fraction or None, got {weight!r}")
    if weight < 0:
        raise ValueError(f"negative {what}")


@dataclass(frozen=True)
class Path:
    """A walk through the graph; simple after shortcut removal."""

    nodes: tuple[str, ...]
    edges: tuple[int, ...]
    length: int

    def elements(self, mode: str, graph: "WeightedGraph") -> list[Element]:
        """Cuttable elements of the path, in traversal order, de-duplicated."""
        seen: set[Element] = set()
        out: list[Element] = []
        if mode == VERTEX:
            candidates: Iterable[Element] = self.nodes
        else:
            candidates = self.edges
        for el in candidates:
            if el in seen:
                continue
            seen.add(el)
            if graph.element_weight(el) is not None:
                out.append(el)
        return out


class EdgeView(Sequence):
    """A graph's edges, each made a ``GraphEdge`` when read.

    The graph keeps plain tuples because the cyclic collector stops
    tracking a tuple whose fields it need not track, but never a tuple
    subclass such as ``GraphEdge``: a graph holding ``GraphEdge``s has
    every collection walk every edge. The view reads the graph's current
    rows; ``==`` compares it with another view or a list, and ``pop``
    removes the last edge."""

    __slots__ = ("_graph",)

    def __init__(self, graph: WeightedGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph._rows)

    def __getitem__(self, index):
        rows = self._graph._rows
        if isinstance(index, slice):
            return list(map(_graph_edge, rows[index]))
        return _graph_edge(rows[index])

    def __iter__(self) -> Iterator[GraphEdge]:
        return map(_graph_edge, self._graph._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeView):
            return self._graph._rows == other._graph._rows
        if isinstance(other, list):
            return self._graph._rows == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"EdgeView({list(self)!r})"

    def pop(self) -> GraphEdge:
        """Remove and return the last edge."""
        graph = self._graph
        graph._index = None
        return _graph_edge(graph._rows.pop())


class GraphIndex(NamedTuple):
    """Node i is ``names[i]``, the i-th node added, and ``pos`` maps each
    node id to its i. ``arcs[i]`` is the pair of int lists ``(edge
    indices, head ints)`` of the arcs out of node i in edge order, an
    undirected edge's from its head after its tail's; ``zip(*arcs[i])``
    reads them as ``(edge index, head)`` pairs. Searches break ties by i,
    toward the node added first."""

    names: list[str]
    pos: dict[str, int]
    arcs: list[tuple[list[int], list[int]]]


class WeightedGraph:
    """Directed or mixed graph with rational node/edge weights.

    Nodes and edges are registered in insertion order, which fixes the
    deterministic iteration order relied on by every algorithm here.
    """

    def __init__(self) -> None:
        # node -> weight, in insertion order
        self._weights: dict[str, Weight] = {}
        # one plain (tail, head, directed, length, weight) tuple per edge
        self._rows: list[EdgeRecord] = []
        # built by the first index() call, dropped by every change
        self._index: GraphIndex | None = None

    # -- construction -------------------------------------------------

    def add_node(self, node: str, weight: Weight = None) -> None:
        self._index = None
        if node in self._weights:
            raise ValueError(f"duplicate node {node!r}")
        if weight is not None and (type(weight) is not Fraction or weight.numerator < 0):
            _check_weight(weight, f"weight on node {node!r}")
        self._weights[node] = weight

    def add_edge(
        self,
        tail: str,
        head: str,
        *,
        directed: bool,
        length: int = 1,
        weight: Weight = None,
    ) -> int:
        self.add_edges(((tail, head, directed, length, weight),))
        return len(self._rows) - 1

    def add_edges(self, records: Iterable[EdgeRecord]) -> None:
        """Append one edge per ``(tail, head, directed, length, weight)``
        record, in order. This is the one path by which edges enter a graph:
        the endpoints must be declared, ``directed`` a bool, the length a
        positive integer (an integral real such as 2.0 is stored as 2; a
        bool, a string or None is refused) and the weight a nonnegative int
        or Fraction, or None. Each edge is stored as a new plain tuple,
        never as the caller's record."""
        self._index = None
        declared = self._weights
        append = self._rows.append
        # the 5-way unpack checks each record's arity
        for tail, head, directed, length, weight in records:
            if tail not in declared or head not in declared:
                raise UnknownNode(f"edge endpoints {tail!r}-{head!r} not declared")
            if type(directed) is not bool:
                raise ValueError(f"edge directed must be a bool, got {directed!r}")
            if type(length) is not int or length < 1:
                # a fractional part, or nan for an infinite or nan length
                if (
                    not isinstance(length, Real)
                    or isinstance(length, bool)
                    or length < 1
                    or length % 1
                ):
                    raise ValueError(
                        f"edge length must be a positive integer, got {length!r}"
                    )
                length = int(length)
            if weight is not None and (type(weight) is not Fraction or weight.numerator < 0):
                _check_weight(weight, "edge weight")
            append((tail, head, directed, length, weight))

    # -- inspection ---------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._weights)

    @property
    def edges(self) -> EdgeView:
        """The edges in order, each read as a ``GraphEdge``."""
        return EdgeView(self)

    @property
    def edge_rows(self) -> list[EdgeRecord]:
        """The stored rows, one ``(tail, head, directed, length, weight)``
        tuple per edge in order: the list itself, which callers must not
        change. Reading a row makes no ``GraphEdge``."""
        return self._rows

    def __contains__(self, node: str) -> bool:
        return node in self._weights

    def node_weight(self, node: str) -> Weight:
        try:
            return self._weights[node]
        except KeyError:
            raise UnknownNode(f"unknown node {node!r}") from None

    def element_weight(self, element: Element) -> Weight:
        if isinstance(element, str):
            return self.node_weight(element)
        # an edge index is an int; a bool is refused, though it is one
        if type(element) is int and 0 <= element < len(self._rows):
            return self._rows[element][4]
        raise UnknownNode(f"unknown element {element!r}")

    def index(self) -> GraphIndex:
        """The graph's ``GraphIndex``, built in one pass over the edges on
        first use and dropped by every change; callers must not change it."""
        if self._index is None:
            names = list(self._weights)
            pos = {v: i for i, v in enumerate(names)}
            # two int lists per node, not one tuple per arc
            edges: list[list[int]] = [[] for _ in names]
            heads: list[list[int]] = [[] for _ in names]
            for idx, (tail, head, directed, _, _) in enumerate(self._rows):
                # the ints stored in pos, so the arcs make no new int objects
                tail, head = pos[tail], pos[head]
                edges[tail].append(idx)
                heads[tail].append(head)
                if not directed:
                    edges[head].append(idx)
                    heads[head].append(tail)
            self._index = GraphIndex(names, pos, list(zip(edges, heads)))
        return self._index

    def cuttable_elements(self, mode: str) -> list[Element]:
        if mode == VERTEX:
            return [v for v, w in self._weights.items() if w is not None]
        return [i for i, row in enumerate(self._rows) if row[4] is not None]

    # -- removal bookkeeping -------------------------------------------

    def check_removable(self, removed: Iterable[Element]) -> tuple[set[str], set[int]]:
        """Split a removed-element set into node ids and edge indices.

        Raises UnknownNode for elements outside the graph and
        RemovingUncuttable for elements with infinite weight.
        """
        rnodes: set[str] = set()
        redges: set[int] = set()
        for el in removed:
            w = self.element_weight(el)
            if w is None:
                raise RemovingUncuttable(f"element {el!r} is uncuttable")
            if isinstance(el, str):
                rnodes.add(el)
            else:
                redges.add(el)
        return rnodes, redges


# -- shortest paths ----------------------------------------------------


def shortest_path_length(
    g: WeightedGraph,
    s: str,
    t: str,
    removed: Iterable[Element] = (),
) -> int | None:
    """Minimum total edge length of an s-t path in g minus ``removed``.

    Directed edges are traversed forward only. Returns None when t is
    unreachable.
    """
    if s not in g:
        raise UnknownNode(f"unknown node {s!r}")
    if t not in g:
        raise UnknownNode(f"unknown node {t!r}")
    rnodes, redges = g.check_removable(removed)
    if s in rnodes or t in rnodes:
        return None
    rows = g.edge_rows
    _, pos, arcs = g.index()
    skip = {pos[v] for v in rnodes}
    s, t = pos[s], pos[t]
    dist = {s: 0}
    heap = [(0, s)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if v == t:
            return d
        for idx, nb in zip(*arcs[v]):
            if idx in redges or nb in skip:
                continue
            nd = d + rows[idx][3]
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                heappush(heap, (nd, nb))
    return None


def _scaled_costs(
    g: WeightedGraph, x: Mapping[Element, Fraction], mode: str
) -> tuple[int, dict[int, int]]:
    """Validate the x-values once and put them over one denominator.

    Returns ``(scale, cost)``: ``scale`` is the lcm of the denominators and
    ``cost`` maps each element with positive x, a node by its int in
    ``g.index()``, to the integer x * scale. Scaling by a positive constant
    keeps every sum and comparison exact, so the searches below run on
    plain integers. Raises UnknownNode for a key that is not an element of
    ``mode`` and ValueError for a value that is not an ``int`` or
    ``Fraction``, is negative, or is positive on an uncuttable element.
    """
    rows = g.edge_rows
    pos = g.index().pos
    vertex_mode = mode == VERTEX
    positive: dict[int, Fraction | int] = {}
    for el, val in x.items():
        if vertex_mode:
            if type(el) is not str or el not in pos:
                raise UnknownNode(f"unknown vertex-mode element {el!r}")
        elif type(el) is not int or not 0 <= el < len(rows):
            raise UnknownNode(f"unknown edge-mode element {el!r}")
        if not isinstance(val, (int, Fraction)) or isinstance(val, bool):
            raise ValueError(f"x[{el!r}] = {val!r} is not an int or Fraction")
        # the sign of an int or Fraction is its numerator's
        num = val.numerator
        if num == 0:
            continue
        if num < 0:
            raise ValueError("x must be nonnegative")
        weight = g.node_weight(el) if vertex_mode else rows[el][4]
        if weight is None:
            raise ValueError(f"positive x on uncuttable element {el!r}")
        positive[pos[el] if vertex_mode else el] = val
    scale, cost = _over_lcm(positive.values())
    return scale, dict(zip(positive, cost))


def min_weight_path(
    g: WeightedGraph,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    mode: str,
) -> tuple[Path, Fraction] | None:
    """Unconstrained Dijkstra under the x-values as costs.

    Costs accrue on cuttable elements only (per ``mode``); uncuttable
    elements contribute zero. Distances are integers over the common
    denominator of x (see ``_scaled_costs``). Used as the multicut LP
    separation oracle.
    """
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    scale, cost = _scaled_costs(g, x, mode)
    edge_mode = mode == EDGE
    names, pos, arcs = g.index()
    s, t = pos[s], pos[t]
    start = 0 if edge_mode else cost.get(s, 0)
    best = {s: start}
    parent: dict[int, tuple[int, int]] = {}
    heap = [(start, s)]
    done: set[int] = set()
    while heap:
        d, v = heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == t:
            break
        for idx, nb in zip(*arcs[v]):
            if nb in done:
                continue
            nd = d + cost.get(idx if edge_mode else nb, 0)
            if nb not in best or nd < best[nb]:
                best[nb] = nd
                parent[nb] = (v, idx)
                heappush(heap, (nd, nb))
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
    rows = g.edge_rows
    path = Path(tuple([names[v] for v in nodes]), tuple(edges), sum(rows[i][3] for i in edges))
    # a tree path is simple, so best[t] sums x over distinct elements
    return path, Fraction(best[t], scale)


def constrained_min_weight_path(
    g: WeightedGraph,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    bound: int,
    mode: str,
) -> tuple[Path, Fraction] | None:
    """Minimum x-weight s-t path of total length strictly below ``bound``.

    Dynamic program over (node, accumulated length) states on the integer
    costs of ``_scaled_costs``; a walk's cost sums the costs of its steps,
    an element entered twice counted twice. The returned path is the walk
    of the least (cost, length) state at t, and that walk is simple:
    - a walk that revisits a node has a shortcut, the walk with the closed
      walk between two of its visits cut out, of no greater cost (costs
      are nonnegative) and strictly shorter length (every length is at
      least 1);
    - so a revisiting walk's state at t is never the least: the state at t
      of its shortcut's length costs no more.
    The path's weight, the least cost, thus sums x over distinct cuttable
    elements. No simple path is longer than all edges together, so the
    levels stop at the total edge length, however large the bound: the
    levels below that are expanded as without the cap, and they hold the
    least (cost, length) state at t.

    Levels are expanded by increasing length, and (v, L) is not expanded
    when its cost is at least ``settled[v]``, the least cost of v at a
    shorter length. Such a state is dominated: an arc from it reaches a
    state that the same arc from the cheaper, shorter state reaches at a
    shorter length for no more. So every state it would be first to give
    a cost is dominated too. Skipping them keeps the cost and parent of
    every undominated state and can only raise the others, so the least
    (cost, length) state at t, which is undominated, and its chain of
    parents are unchanged.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    scale, cost = _scaled_costs(g, x, mode)
    edge_mode = mode == EDGE
    rows = g.edge_rows
    names, pos, arcs = g.index()
    s, t = pos[s], pos[t]
    steps = [row[3] for row in rows]
    levels = min(bound, sum(steps) + 1)
    # best[L][v] = cheapest scaled x-weight of a walk s->v of total length L
    best: list[dict[int, int]] = [{} for _ in range(levels)]
    # parent[L][v] = (node, length, edge) the cheapest such walk came from
    parent: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(levels)]
    best[0][s] = 0 if edge_mode else cost.get(s, 0)
    # the least cost of each node at the levels already expanded
    settled: dict[int, int] = {}
    for level in range(levels):
        layer = best[level]
        # in node order; an arc only reaches longer levels
        for v in sorted(layer):
            d = layer[v]
            if v in settled and d >= settled[v]:
                continue
            settled[v] = d
            for idx, nb in zip(*arcs[v]):
                nl = level + steps[idx]
                if nl >= levels:
                    continue
                nd = d + cost.get(idx if edge_mode else nb, 0)
                reach = best[nl]
                if nb not in reach or nd < reach[nb]:
                    reach[nb] = nd
                    parent[nl][nb] = (v, level, idx)

    hit = [(lvl, best[lvl][t]) for lvl in range(levels) if t in best[lvl]]
    if not hit:
        return None
    lvl = min(hit, key=lambda p: (p[1], p[0]))[0]
    walk_nodes = [t]
    walk_edges: list[int] = []
    cur, cl = t, lvl
    while (cur, cl) != (s, 0):
        pv, pl, pe = parent[cl][cur]
        walk_nodes.append(pv)
        walk_edges.append(pe)
        cur, cl = pv, pl
    walk_nodes.reverse()
    walk_edges.reverse()
    path = Path(tuple([names[v] for v in walk_nodes]), tuple(walk_edges), lvl)
    # the walk is simple (see above), so best[lvl][t] sums x over distinct elements
    return path, Fraction(best[lvl][t], scale)


# -- max-flow / min-cut -------------------------------------------------


class _FlowNet:
    """Residual network on nodes 0..n-1, integer capacities; None is infinite."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.res: list[int | None] = []
        self.elem: list[Element | None] = []

    def arc(self, u: int, v: int, cap: int | None, elem: Element | None) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.res.append(cap)
        self.elem.append(elem)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.res.append(0)
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

    def max_flow(self, s: int, t: int) -> int:
        if self._bfs(s, t, infinite_only=True) is not None:
            raise NoFiniteCut("an s-t path of uncuttable elements exists")
        total = 0
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


def min_st_cut(
    g: WeightedGraph, s: str, t: str, mode: str
) -> tuple[Fraction, frozenset[Element]]:
    """Minimum-weight s-t cut and its exact value (equal to max flow).

    Vertex mode splits node i into 2i (in) and 2i + 1 (out), joined by an
    arc that carries the node weight; edges are then uncuttable. The flow
    runs on the finite weights put over the lcm of their denominators, so
    its augmenting paths and cut are those of the rational weights. Raises
    NoFiniteCut when some s-t path consists of uncuttable elements only.
    """
    if s == t:
        raise ValueError("s and t must differ")
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    if mode == VERTEX and (g.node_weight(s) is not None or g.node_weight(t) is not None):
        raise ValueError("terminals must be uncuttable in vertex mode")

    names, pos, _ = g.index()
    rows = g.edge_rows
    if mode == VERTEX:
        weights = [g.node_weight(v) for v in names]
    else:
        weights = [row[4] for row in rows]
    scale, finite = _over_lcm([w for w in weights if w is not None])
    scaled = iter(finite)
    caps = [None if w is None else next(scaled) for w in weights]
    net = _FlowNet(2 * len(names) if mode == VERTEX else len(names))
    if mode == VERTEX:
        for i, v in enumerate(names):
            net.arc(2 * i, 2 * i + 1, caps[i], v)
        for tail, head, directed, _, _ in rows:
            net.arc(2 * pos[tail] + 1, 2 * pos[head], None, None)
            if not directed:
                net.arc(2 * pos[head] + 1, 2 * pos[tail], None, None)
        source, sink = 2 * pos[s] + 1, 2 * pos[t]
    else:
        for i, (tail, head, directed, _, _) in enumerate(rows):
            net.arc(pos[tail], pos[head], caps[i], i)
            if not directed:
                net.arc(pos[head], pos[tail], caps[i], i)
        source, sink = pos[s], pos[t]

    value = Fraction(net.max_flow(source, sink), scale)
    cut = net.min_cut_elements(source)
    require(
        sum(g.element_weight(el) for el in cut) == value,
        "minimum cut weight differs from the maximum flow",
    )
    return value, frozenset(cut)


# -- instances -----------------------------------------------------------


@dataclass(frozen=True)
class CutSolution:
    """A set of cut elements with exact rational cost."""

    elements: frozenset[Element]
    cost: Fraction


@dataclass(frozen=True)
class Schedule:
    """Per-day save sets for fire containment, with exact per-day costs."""

    days: tuple[frozenset[str], ...]
    per_day_cost: tuple[Fraction, ...]

    def max_day_cost(self) -> Fraction:
        return max(self.per_day_cost, default=Fraction(0))


@dataclass(frozen=True)
class Multicut:
    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class LengthBound:
    source: str
    sink: str
    bound: int


@dataclass(frozen=True)
class Rmfc:
    source: str
    targets: frozenset[str]


Problem = Multicut | LengthBound | Rmfc


@dataclass
class CutInstance:
    """A weighted graph together with a cut problem and cut mode."""

    graph: WeightedGraph
    mode: str
    problem: Problem
    provenance: dict | None = None

    def __post_init__(self) -> None:
        if self.mode not in (VERTEX, EDGE):
            raise ValueError(f"unknown mode {self.mode!r}")
        g = self.graph
        for term in self.terminals():
            if term not in g:
                raise UnknownNode(f"terminal {term!r} not in graph")
        # fire-containment targets may be savable; all other terminals and
        # the fire source must be uncuttable in vertex mode
        if self.mode == VERTEX:
            fixed = (
                [self.problem.source]
                if isinstance(self.problem, Rmfc)
                else self.terminals()
            )
            for term in fixed:
                if g.node_weight(term) is not None:
                    raise ValueError(
                        f"terminal {term!r} must be uncuttable in vertex mode"
                    )
        if isinstance(self.problem, Multicut):
            seen = set()
            for a, b in self.problem.pairs:
                if a == b or (a, b) in seen:
                    raise ValueError("pairs must be distinct ordered pairs")
                seen.add((a, b))
        if isinstance(self.problem, LengthBound) and self.problem.bound < 1:
            raise ValueError("length bound must be >= 1")

    def terminals(self) -> list[str]:
        p = self.problem
        if isinstance(p, Multicut):
            out: list[str] = []
            for a, b in p.pairs:
                out.extend((a, b))
            return out
        if isinstance(p, LengthBound):
            return [p.source, p.sink]
        return [p.source, *sorted(p.targets)]

    def cuttable_elements(self) -> list[Element]:
        return self.graph.cuttable_elements(self.mode)


# -- JSON schema ----------------------------------------------------------


def _problem_to_json(p: Problem) -> dict:
    if isinstance(p, Multicut):
        return {"type": "multicut", "pairs": [[a, b] for a, b in p.pairs]}
    if isinstance(p, LengthBound):
        return {"type": "length_bound", "s": p.source, "t": p.sink, "bound": p.bound}
    return {"type": "rmfc", "source": p.source, "targets": sorted(p.targets)}


def _field(doc: object, key: str, kind: type, where: str):
    """``doc[key]``, checked to be a ``kind``; a bool is not an int here."""
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedInstance(f"{where} lacks {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedInstance(f"{where} field {key!r} has type {type(value).__name__}")
    return value


def _node_ids(values: list, where: str) -> list[str]:
    if not all(isinstance(v, str) for v in values):
        raise MalformedInstance(f"{where} must list node ids")
    return values


def _problem_from_json(d: dict) -> Problem:
    kind = _field(d, "type", str, "problem")
    if kind == "multicut":
        pairs = _field(d, "pairs", list, "problem")
        if not all(isinstance(p, list) and len(_node_ids(p, "pair")) == 2 for p in pairs):
            raise MalformedInstance("multicut pairs must be [s, t] lists")
        return Multicut(tuple((a, b) for a, b in pairs))
    if kind == "length_bound":
        return LengthBound(
            _field(d, "s", str, "problem"),
            _field(d, "t", str, "problem"),
            _field(d, "bound", int, "problem"),
        )
    if kind == "rmfc":
        targets = _node_ids(_field(d, "targets", list, "problem"), "rmfc targets")
        return Rmfc(_field(d, "source", str, "problem"), frozenset(targets))
    raise ValueError(f"unknown problem type {kind!r}")


def _weight_field(doc: dict, where: str, parsed: _ParsedWeights) -> Weight:
    w = doc.get("weight")
    if w is None:
        return None
    try:
        if isinstance(w, (str, int)) and not isinstance(w, bool):
            return parsed[str(w)]
    except (ValueError, ZeroDivisionError):
        if isinstance(w, str) and past_digit_limit(w):
            raise MalformedInstance(
                f"{where} weight has more than {MAX_DIGITS} digits"
            ) from None
    raise MalformedInstance(f"{where} weight {w!r} is not a rational")


class _ParsedWeights(dict):
    """Weight string -> its rational, each distinct string parsed by
    ``parse_rational`` the first time it is looked up; a string it refuses
    raises its ValueError or ZeroDivisionError and is not stored."""

    def __missing__(self, w: str) -> Fraction:
        weight = self[w] = parse_rational(w)
        return weight


def _edge_records(entries: list, ids: Mapping[str, str]) -> Iterator[EdgeRecord]:
    """The record of each entry of an instance's edge array, in order.

    An entry is a value as ``json.loads`` parses it, read through
    ``_field`` and ``_weight_field``, which accept or reject it with their
    usual messages; each distinct weight string is parsed once. An
    endpoint becomes the string object of its node in ``ids`` (an id to
    itself), so the graph holds one string per node, not two per edge; an
    undeclared endpoint keeps its own string for ``add_edges`` to refuse.
    """
    weights = _ParsedWeights()
    for ed in entries:
        tail, head, directed, length, weight = (
            _field(ed, "tail", str, "edge"),
            _field(ed, "head", str, "edge"),
            _field(ed, "directed", bool, "edge"),
            _field(ed, "length", int, "edge"),
            _weight_field(ed, "edge", weights),
        )
        yield ids.get(tail, tail), ids.get(head, head), directed, length, weight


def _declared_nodes(doc: object) -> WeightedGraph:
    """A graph holding the nodes of the document ``doc``, in order; each
    distinct weight string is parsed once."""
    g = WeightedGraph()
    weights = _ParsedWeights()
    for nd in _field(doc, "nodes", list, "instance"):
        g.add_node(_field(nd, "id", str, "node"), _weight_field(nd, "node", weights))
    return g


def _instance_of(g: WeightedGraph, doc: dict) -> CutInstance:
    """The instance of graph ``g`` and the other members of ``doc``."""
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise MalformedInstance("instance field 'provenance' must be an object")
    return CutInstance(
        graph=g,
        mode=_field(doc, "mode", str, "instance"),
        problem=_problem_from_json(_field(doc, "problem", dict, "instance")),
        provenance=provenance,
    )


def instance_from_json(doc: object) -> CutInstance:
    """Rebuild an instance, raising MalformedInstance on a missing or
    ill-typed field."""
    g = _declared_nodes(doc)
    ids = {v: v for v in g.nodes}
    g.add_edges(_edge_records(_field(doc, "edges", list, "instance"), ids))
    return _instance_of(g, doc)


def schedule_from_json(doc: object, g: WeightedGraph) -> Schedule:
    """Rebuild a ``{"days": [[node id, ...], ...]}`` schedule with its
    per-day costs in ``g``, raising MalformedInstance on a missing or
    ill-typed field and RemovingUncuttable on an uncuttable vertex."""
    days: list[frozenset[str]] = []
    costs: list[Fraction] = []
    for raw in _field(doc, "days", list, "schedule"):
        if not isinstance(raw, list):
            raise MalformedInstance("schedule field 'days' must list lists of node ids")
        day = frozenset(_node_ids(raw, "schedule day"))
        cost = Fraction(0)
        for v in day:
            w = g.node_weight(v)
            if w is None:
                raise RemovingUncuttable(f"cannot save uncuttable {v!r}")
            cost += w
        days.append(day)
        costs.append(cost)
    return Schedule(tuple(days), tuple(costs))


def _json_weight(w: Weight) -> str:
    return "null" if w is None else f'"{w.numerator}/{w.denominator}"'


def _json_nested(value: object) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` prints it one
    level inside the document."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


# entries joined per block by the writer: it holds one block's entry
# strings at a time, never one string per edge of a large graph
_JSON_BLOCK = 1024


def _json_array(entries: Iterator[str]) -> Iterator[str]:
    """The pieces of a JSON array one level inside the document, with its
    entries joined in blocks of ``_JSON_BLOCK``."""
    opening = "[\n"
    while block := ",\n".join(islice(entries, _JSON_BLOCK)):
        yield opening
        yield block
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n  ]"


def instance_to_json_str(inst: CutInstance) -> str:
    """The instance document, byte for byte as ``json.dumps(doc, indent=2,
    sort_keys=True)`` prints it, plus a newline.

    Nodes and edges are written from fixed templates with their keys in
    sorted order and strings escaped by the stdlib's C escaper; only the
    small ``problem`` and ``provenance`` values go through ``json.dumps``.
    The pieces, edges joined in blocks, are joined once into the result,
    so the writer holds about two copies of the text at its peak.
    """
    g = inst.graph
    ids = {v: json_str(v) for v in g.nodes}
    pieces = [
        '{\n  "edges": ',
        *_json_array(
            f'    {{\n      "directed": {"true" if directed else "false"},\n'
            f'      "head": {ids[head]},\n      "length": {length},\n'
            f'      "tail": {ids[tail]},\n      "weight": {_json_weight(weight)}\n    }}'
            for tail, head, directed, length, weight in g.edge_rows
        ),
        f',\n  "mode": {json_str(inst.mode)},\n  "nodes": ',
        *_json_array(
            f'    {{\n      "id": {ids[v]},\n      "weight": {_json_weight(g.node_weight(v))}\n    }}'
            for v in g.nodes
        ),
        f',\n  "problem": {_json_nested(_problem_to_json(inst.problem))}',
    ]
    if inst.provenance is not None:
        pieces.append(f',\n  "provenance": {_json_nested(inst.provenance)}')
    pieces.append("\n}\n")
    return "".join(pieces)


# the writer's text up to its first edge entry, the end of its edge array
# and the boundary between two entries; each entry is 7 lines
_EDGES_OPEN = '{\n  "edges": [\n'
_EDGES_CLOSE = '\n  ],\n  "mode": '
_ENTRY_CUT = "\n    },\n    {\n"
# characters of edge entries split into lines at a time: a chunk's line
# strings take about four times its text, and reading the 62k-edge
# dict-v test took the same time with chunks of 32 to 256 KB
_COLUMN_CHUNK = 1 << 16
_DIRECTED_LINES = {'      "directed": true,': True, '      "directed": false,': False}
_LENGTH_KEY = '      "length": '
_WEIGHT_KEY = '      "weight": '


def _length_line(line: str) -> int:
    """The length on an entry's length line as the writer prints it: a
    positive integer with no leading zero. ValueError on any other line."""
    digits = line[len(_LENGTH_KEY):-1]
    if not (
        line.startswith(_LENGTH_KEY)
        and line.endswith(",")
        and digits.isascii()
        and digits.isdigit()
        and digits[0] != "0"
    ):
        raise ValueError(f"not a writer's length line: {line!r}")
    return int(digits)


def _weight_line(line: str) -> Weight:
    """The weight on an entry's weight line: None for null, else the
    nonnegative rational of a string. ValueError on any other line."""
    if line == _WEIGHT_KEY + "null":
        return None
    if not line.startswith(_WEIGHT_KEY + '"'):
        raise ValueError(f"not a writer's weight line: {line!r}")
    raw, end = scanstring(line, len(_WEIGHT_KEY) + 1)
    weight = parse_rational(raw)
    if end != len(line) or weight.numerator < 0:
        raise ValueError(f"not a writer's weight line: {line!r}")
    return weight


def _read_columns(text: str) -> tuple[WeightedGraph, dict] | None:
    """The graph and the other members of a document laid out exactly as
    ``instance_to_json_str`` prints it, or None for any other layout. Any
    entry the writer would not print raises (KeyError, ValueError, ...).

    The members after the edge array go through ``json.loads``, which
    raises on a syntax fault, and its nodes are declared first. The edge
    entries are then split into lines, a chunk of whole entries at a
    time, and each of their five fields is read as a column: the endpoint
    lines map through each declared node's exact line, and each distinct
    length and weight line is parsed once.
    """
    if not text.startswith(_EDGES_OPEN):
        return None
    end = text.find(_EDGES_CLOSE)
    if end < 0:
        return None
    # a second edges key would replace the array
    doc = json.loads("{\n" + text[end + len("\n  ],\n"):])
    if "edges" in doc:
        return None
    g = _declared_nodes(doc)
    tails = {f'      "tail": {json_str(v)},': v for v in g.nodes}
    heads = {f'      "head": {json_str(v)},': v for v in g.nodes}
    lengths: dict[str, int] = {}
    weights: dict[str, Weight] = {}
    at = len(_EDGES_OPEN)
    while at < end:
        cut = text.find(_ENTRY_CUT, at + _COLUMN_CHUNK, end)
        # the chunk ends with its last entry's closer line
        stop = end if cut < 0 else cut + len("\n    },")
        lines = text[at:stop].split("\n")
        at = stop + 1
        closers = lines[6::7]
        if (
            len(lines) % 7
            or lines[::7].count("    {") != len(closers)
            or closers.count("    },") != len(closers) - (cut < 0)
            or cut < 0 and closers[-1] != "    }"
        ):
            return None
        for line in set(lines[3::7]).difference(lengths):
            lengths[line] = _length_line(line)
        for line in set(lines[5::7]).difference(weights):
            weights[line] = _weight_line(line)
        g.add_edges(zip(
            map(tails.__getitem__, lines[4::7]),
            map(heads.__getitem__, lines[2::7]),
            map(_DIRECTED_LINES.__getitem__, lines[1::7]),
            map(lengths.__getitem__, lines[3::7]),
            map(weights.__getitem__, lines[5::7]),
        ))
    return g, doc


def instance_from_json_str(text: str) -> CutInstance:
    """Rebuild the instance that the document ``text`` holds, as
    ``instance_from_json(json.loads(text))`` does, errors included.

    Two readers are tried in turn. Text laid out exactly as the writer
    prints it is read by ``_read_columns``, its edge array line by line.
    Any other text, or one with an entry or a fault that reader does not
    take, goes whole to ``json.loads`` and ``instance_from_json``, so the
    errors, their messages and their positions are theirs.
    """
    try:
        read = _read_columns(text)
    # any fault goes to json.loads, which reports it as json does
    except Exception:
        read = None
    if read is not None:
        return _instance_of(*read)
    return instance_from_json(json.loads(text))
