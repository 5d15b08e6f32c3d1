"""Weighted graphs with exact rational weights and the path/cut primitives
used by the generators, solvers, and LP separation oracles.

Conventions used throughout the package:

* Weights are ``Fraction`` values; ``None`` is the uncuttable sentinel
  (infinite weight). It is never approximated by a large number.
* Edge lengths are positive integers.
* A *cut element* is a node id (``str``) in vertex mode and an edge index
  (``int``, position in ``WeightedGraph.edges``) in edge mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Mapping

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


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer string) into an exact Fraction."""
    return Fraction(text)


def rational_str(value: Weight) -> str | None:
    """Serialize a Fraction as "p/q"; None (uncuttable) stays None."""
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GraphEdge:
    tail: str
    head: str
    directed: bool
    length: int
    weight: Weight


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


class WeightedGraph:
    """Directed or mixed graph with rational node/edge weights.

    Nodes and edges are registered in insertion order, which fixes the
    deterministic iteration order relied on by every algorithm here.
    """

    def __init__(self) -> None:
        self._weights: dict[str, Weight] = {}
        self._order: list[str] = []
        self.edges: list[GraphEdge] = []
        # arcs usable when leaving a node: list of (edge_index, neighbor)
        self._out: dict[str, list[tuple[int, str]]] = {}

    # -- construction -------------------------------------------------

    def add_node(self, node: str, weight: Weight = None) -> None:
        if node in self._weights:
            raise ValueError(f"duplicate node {node!r}")
        if weight is not None and weight < 0:
            raise ValueError(f"negative weight on node {node!r}")
        self._weights[node] = weight
        self._order.append(node)
        self._out[node] = []

    def add_edge(
        self,
        tail: str,
        head: str,
        *,
        directed: bool,
        length: int = 1,
        weight: Weight = None,
    ) -> int:
        if tail not in self._weights or head not in self._weights:
            raise UnknownNode(f"edge endpoints {tail!r}-{head!r} not declared")
        if length < 1 or int(length) != length:
            raise ValueError(f"edge length must be a positive integer, got {length}")
        if weight is not None and weight < 0:
            raise ValueError("negative edge weight")
        idx = len(self.edges)
        self.edges.append(GraphEdge(tail, head, directed, int(length), weight))
        self._out[tail].append((idx, head))
        if not directed:
            self._out[head].append((idx, tail))
        return idx

    # -- inspection ---------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self._order)

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
        if isinstance(element, int) and 0 <= element < len(self.edges):
            return self.edges[element].weight
        raise UnknownNode(f"unknown element {element!r}")

    def out_arcs(self, node: str) -> list[tuple[int, str]]:
        try:
            return self._out[node]
        except KeyError:
            raise UnknownNode(f"unknown node {node!r}") from None

    def cuttable_elements(self, mode: str) -> list[Element]:
        if mode == VERTEX:
            return [v for v in self._order if self._weights[v] is not None]
        return [i for i, e in enumerate(self.edges) if e.weight is not None]

    def total_finite_weight(self, mode: str) -> Fraction:
        total = Fraction(0)
        for el in self.cuttable_elements(mode):
            total += self.element_weight(el)
        return total

    def total_length(self) -> int:
        return sum(e.length for e in self.edges)

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
    order = {v: i for i, v in enumerate(g.nodes)}
    dist: dict[str, int] = {s: 0}
    heap: list[tuple[int, int, str]] = [(0, order[s], s)]
    while heap:
        d, _, v = heappop(heap)
        if d > dist[v]:
            continue
        if v == t:
            return d
        for idx, nb in g.out_arcs(v):
            if idx in redges or nb in rnodes:
                continue
            nd = d + g.edges[idx].length
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                heappush(heap, (nd, order[nb], nb))
    return None


def min_weight_path(
    g: WeightedGraph,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    mode: str,
    removed: Iterable[Element] = (),
) -> tuple[Path, Fraction] | None:
    """Unconstrained Dijkstra under the x-values as costs.

    Costs accrue on cuttable elements only (per ``mode``); uncuttable
    elements contribute zero. Used as the multicut LP separation oracle.
    """
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    rnodes, redges = g.check_removable(removed)
    if s in rnodes or t in rnodes:
        return None

    def el_cost(el: Element) -> Fraction:
        if g.element_weight(el) is None:
            return Fraction(0)
        return x.get(el, Fraction(0))

    order = {v: i for i, v in enumerate(g.nodes)}
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
        for idx, nb in g.out_arcs(v):
            if idx in redges or nb in rnodes or nb in done:
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


def constrained_min_weight_path(
    g: WeightedGraph,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    bound: int,
    mode: str,
    removed: Iterable[Element] = (),
) -> tuple[Path, Fraction] | None:
    """Minimum x-weight s-t path of total length strictly below ``bound``.

    Dynamic program over (node, accumulated length) states; all lengths are
    at least 1, so states are bounded by bound * |V| and the nonnegative
    minimum is attained by a simple path. The returned path is simple
    (shortcuts removed) and its weight sums x over distinct cuttable
    elements.
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
    rnodes, redges = g.check_removable(removed)
    if s in rnodes or t in rnodes:
        return None

    def el_cost(el: Element) -> Fraction:
        if g.element_weight(el) is None:
            return Fraction(0)
        return x.get(el, Fraction(0))

    nodes = g.nodes
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
            for idx, nb in g.out_arcs(v):
                if idx in redges or nb in rnodes:
                    continue
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
    nodes_s, edges_s = _remove_shortcuts(walk_nodes, walk_edges)
    path = Path(
        tuple(nodes_s),
        tuple(edges_s),
        sum(g.edges[i].length for i in edges_s),
    )
    weight = Fraction(0)
    for el in path.elements(mode, g):
        weight += x.get(el, Fraction(0))
    return path, weight


def _remove_shortcuts(nodes: list[str], edges: list[int]) -> tuple[list[str], list[int]]:
    """Splice out revisits so the walk becomes a simple path."""
    while True:
        seen: dict[str, int] = {}
        cut = None
        for i, v in enumerate(nodes):
            if v in seen:
                cut = (seen[v], i)
                break
            seen[v] = i
        if cut is None:
            return nodes, edges
        a, b = cut
        nodes = nodes[: a + 1] + nodes[b + 1 :]
        edges = edges[:a] + edges[b:]


# -- max-flow / min-cut -------------------------------------------------


class _FlowNet:
    """Residual network with Fraction capacities; None means infinite."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.adj: list[list[int]] = []
        self.to: list[int] = []
        self.res: list[Weight] = []
        self.elem: list[Element | None] = []

    def node(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.adj)
            self.adj.append([])
        return self.index[name]

    def arc(self, u: str, v: str, cap: Weight, elem: Element | None) -> None:
        ui, vi = self.node(u), self.node(v)
        self.adj[ui].append(len(self.to))
        self.to.append(vi)
        self.res.append(cap)
        self.elem.append(elem)
        self.adj[vi].append(len(self.to))
        self.to.append(ui)
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

    def max_flow(self, s_name: str, t_name: str) -> Fraction:
        s, t = self.index[s_name], self.index[t_name]
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

    def min_cut_elements(self, s_name: str) -> set[Element]:
        s = self.index[s_name]
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

    Vertex mode splits each node into an in/out pair whose connecting arc
    carries the node weight; edges are then uncuttable. Raises NoFiniteCut
    when some s-t path consists of uncuttable elements only.
    """
    if s == t:
        raise ValueError("s and t must differ")
    if s not in g or t not in g:
        raise UnknownNode("unknown terminal")
    if mode == VERTEX and (g.node_weight(s) is not None or g.node_weight(t) is not None):
        raise ValueError("terminals must be uncuttable in vertex mode")

    net = _FlowNet()
    if mode == VERTEX:
        for v in g.nodes:
            net.arc(f"{v}/in", f"{v}/out", g.node_weight(v), v)
        for e in g.edges:
            net.arc(f"{e.tail}/out", f"{e.head}/in", None, None)
            if not e.directed:
                net.arc(f"{e.head}/out", f"{e.tail}/in", None, None)
        source, sink = f"{s}/out", f"{t}/in"
    else:
        for v in g.nodes:
            net.node(v)
        for i, e in enumerate(g.edges):
            net.arc(e.tail, e.head, e.weight, i)
            if not e.directed:
                net.arc(e.head, e.tail, e.weight, i)
        source, sink = s, t

    value = net.max_flow(source, sink)
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
    certificate: Path | None = None


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


# -- graph terminology reductions ----------------------------------------


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
    for e in g.edges:
        for a in copies[e.tail]:
            for b in copies[e.head]:
                out.add_edge(a, b, directed=e.directed, length=e.length, weight=e.weight)
    return out


# -- JSON schema ----------------------------------------------------------


def instance_to_json(inst: CutInstance) -> dict:
    g = inst.graph
    doc: dict = {
        "nodes": [{"id": v, "weight": rational_str(g.node_weight(v))} for v in g.nodes],
        "edges": [
            {
                "tail": e.tail,
                "head": e.head,
                "directed": e.directed,
                "length": e.length,
                "weight": rational_str(e.weight),
            }
            for e in g.edges
        ],
        "mode": inst.mode,
        "problem": _problem_to_json(inst.problem),
    }
    if inst.provenance is not None:
        doc["provenance"] = inst.provenance
    return doc


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


def _weight_field(doc: dict, where: str) -> Weight:
    w = doc.get("weight")
    if w is None:
        return None
    try:
        if isinstance(w, (str, int)) and not isinstance(w, bool):
            return parse_rational(str(w))
    except (ValueError, ZeroDivisionError):
        pass
    raise MalformedInstance(f"{where} weight {w!r} is not a rational")


def instance_from_json(doc: object) -> CutInstance:
    """Rebuild an instance, raising MalformedInstance on a missing or
    ill-typed field."""
    g = WeightedGraph()
    for nd in _field(doc, "nodes", list, "instance"):
        g.add_node(_field(nd, "id", str, "node"), _weight_field(nd, "node"))
    for ed in _field(doc, "edges", list, "instance"):
        g.add_edge(
            _field(ed, "tail", str, "edge"),
            _field(ed, "head", str, "edge"),
            directed=_field(ed, "directed", bool, "edge"),
            length=_field(ed, "length", int, "edge"),
            weight=_weight_field(ed, "edge"),
        )
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise MalformedInstance("instance field 'provenance' must be an object")
    return CutInstance(
        graph=g,
        mode=_field(doc, "mode", str, "instance"),
        problem=_problem_from_json(_field(doc, "problem", dict, "instance")),
        provenance=provenance,
    )


def instance_to_json_str(inst: CutInstance) -> str:
    return json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"


def instance_from_json_str(text: str) -> CutInstance:
    return instance_from_json(json.loads(text))
