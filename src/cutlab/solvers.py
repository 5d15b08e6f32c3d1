"""Exact optima at desk scale: lazy branch-and-bound over violated paths,
interdiction by climbing the length-bounded-cut curve, and the fire-spread
simulator with an exact schedule search.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import floor
from typing import Iterable, Iterator, Mapping

from .errors import (
    Infeasible,
    RemovingUncuttable,
    SaveBurntVertex,
    SizeGuard,
    WrongProblemType,
    require,
    require_problem,
)
from .graphs import (
    VERTEX,
    CutInstance,
    CutSolution,
    Element,
    LengthBound,
    Multicut,
    Rmfc,
    Schedule,
    WeightedGraph,
    _over_lcm,
    min_st_cut,
    shortest_path_length,
)

BB_ELEMENT_LIMIT = 40
RMFC_VERTEX_LIMIT = 14


# -- path finding -----------------------------------------------------------


class PathSearch:
    """One instance indexed for repeated fewest-edge searches.

    Nodes are the ints of ``g.index()``, each node's out-arcs a list of int
    tuples, and a path is its list of node ints and its list of edge
    indices. An element id is a node's int in vertex mode and an edge index
    in edge mode; ``removed`` flags the element ids a search must avoid, and a
    branch and bound sets and clears it in place. Multicut searches are
    keyed by node. Length-bound searches run over (node, length) states,
    each node re-entered only at a shorter length (``_layered_min_hop``),
    and keep only walks shorter than the bound. Only cuttable elements are
    ever removed, so the uncuttable terminals never are.
    """

    def __init__(self, inst: CutInstance) -> None:
        g = inst.graph
        p = inst.problem
        self.names, pos, arcs = g.index()
        self.vertex_mode = inst.mode == VERTEX
        if isinstance(p, Multicut):
            pairs = p.pairs
            steps = [0] * len(g.edge_rows)
            self.width = 1
            self.node_keyed = True
        elif isinstance(p, LengthBound):
            pairs = ((p.source, p.sink),)
            steps = [length for _, _, _, length, _ in g.edge_rows]
            self.width = p.bound
            self.node_keyed = False
        else:
            raise WrongProblemType(
                "violating paths are defined for multicut and length bound"
            )
        self.pairs = [(pos[s], pos[t]) for s, t in pairs]
        # an arc is (edge, head, length step, element id the arc enters)
        self.arcs = [
            [(e, w, steps[e], w if self.vertex_mode else e) for e, w in zip(*out)]
            for out in arcs
        ]
        if self.vertex_mode:
            self.weights = [g.node_weight(v) for v in self.names]
        else:
            self.weights = [weight for _, _, _, _, weight in g.edge_rows]
        self.removed = bytearray(len(self.weights))

    def element(self, el: int) -> Element:
        return self.names[el] if self.vertex_mode else el

    def min_hop(
        self, s: int, t: int, max_hops: int | None = None
    ) -> tuple[list[int], list[int]] | None:
        """BFS for a fewest-edge s-t path avoiding removed elements; among
        those, the first one found in arc order, as its nodes and edges.
        With ``max_hops``, None unless such a path has at most that many
        edges."""
        if max_hops is not None and max_hops < 0:
            return None
        if s == t:
            return [s], []
        if self.node_keyed:
            return self._node_min_hop(s, t, max_hops)
        return self._layered_min_hop(s, t, max_hops)

    def _layered_min_hop(
        self, s: int, t: int, max_hops: int | None
    ) -> tuple[list[int], list[int]] | None:
        """``min_hop`` over states (node, length, edge in, parent), s != t,
        entering (w, l) only when l < best[w], the least length at which w
        was entered. A state with l >= best[w] comes later in FIFO order
        than (w, best[w]), at no fewer hops, and each of its continuations
        is one of that earlier state, found no later; so the first state at
        t and its parents are those found by entering every state once."""
        width, arcs, removed = self.width, self.arcs, self.removed
        best = [width] * len(arcs)
        best[s] = 0
        # level by level, which visits states in the order of one FIFO queue
        level = [(s, 0, -1, None)]
        hops = 0
        while level and (max_hops is None or hops < max_hops):
            hops += 1
            following = []
            for state in level:
                lvl = state[1]
                for e, w, step, el in arcs[state[0]]:
                    nl = lvl + step
                    if nl >= best[w] or removed[el]:
                        continue
                    best[w] = nl
                    if w == t:
                        nodes, edges = [t], [e]
                        while state[3] is not None:
                            nodes.append(state[0])
                            edges.append(state[2])
                            state = state[3]
                        nodes.append(s)
                        return nodes[::-1], edges[::-1]
                    following.append((w, nl, e, state))
            level = following
        return None

    def _node_min_hop(
        self, s: int, t: int, max_hops: int | None
    ) -> tuple[list[int], list[int]] | None:
        """``min_hop`` over nodes, s != t: the multicut case, where every
        step is 0. It visits in the same order as ``_layered_min_hop`` at
        width 1 and returns the same path."""
        arcs, removed = self.arcs, self.removed
        # a removed node is never entered, so in vertex mode it starts seen
        seen = bytearray(removed) if self.vertex_mode else bytearray(len(self.names))
        seen[s] = 1
        prev: dict[int, tuple[int, int]] = {}
        level = [s]
        hops = 0
        while level and (max_hops is None or hops < max_hops):
            hops += 1
            following = []
            for v in level:
                for e, w, _, el in arcs[v]:
                    if seen[w] or removed[el]:
                        continue
                    seen[w] = 1
                    prev[w] = (v, e)
                    if w == t:
                        nodes, edges = [t], []
                        while w != s:
                            w, e = prev[w]
                            nodes.append(w)
                            edges.append(e)
                        return nodes[::-1], edges[::-1]
                    following.append(w)
            level = following
        return None


def find_violating_path(search: PathSearch) -> list[int] | None:
    """Cuttable element ids, in path order, of a minimum-hop path that the
    search's removed elements fail to cover, or None.

    Multicut: any surviving terminal-pair path; ties between pairs go to
    the earlier pair. Length-bound: any surviving path shorter than the
    bound.
    """
    best = None
    for s, t in search.pairs:
        # a later pair wins only with strictly fewer edges
        limit = None if best is None else len(best[1]) - 1
        path = search.min_hop(s, t, limit)
        if path is not None:
            best = path
    if best is None:
        return None
    weights = search.weights
    return [el for el in best[0 if search.vertex_mode else 1] if weights[el] is not None]


def _check_infeasible(inst: CutInstance) -> PathSearch:
    """Raise Infeasible when a violating path has no cuttable element, else
    return the instance's search with nothing removed."""
    search = PathSearch(inst)
    search.removed = bytearray(w is not None for w in search.weights)
    for s, t in search.pairs:
        if search.min_hop(s, t) is None:
            continue
        if isinstance(inst.problem, Multicut):
            pair = f"({search.names[s]},{search.names[t]})"
            raise Infeasible(f"pair {pair} joined by uncuttable path")
        raise Infeasible("short uncuttable path exists")
    search.removed = bytearray(len(search.weights))
    return search


# -- feasibility checkers (independent of the solvers) ----------------------


def multicut_is_feasible(inst: CutInstance, elements: Iterable[Element]) -> bool:
    require_problem(inst.problem, Multicut)
    removed = list(elements)
    for s, t in inst.problem.pairs:
        if shortest_path_length(inst.graph, s, t, removed) is not None:
            return False
    return True


def length_bound_is_feasible(inst: CutInstance, elements: Iterable[Element]) -> bool:
    require_problem(inst.problem, LengthBound)
    p = inst.problem
    dist = shortest_path_length(inst.graph, p.source, p.sink, list(elements))
    return dist is None or dist >= p.bound


def solution_cost(inst: CutInstance, elements: Iterable[Element]) -> Fraction:
    total = Fraction(0)
    for el in set(elements):
        w = inst.graph.element_weight(el)
        if w is None:
            raise RemovingUncuttable(f"element {el!r} is uncuttable")
        total += w
    return total


def per_pair_cut_union(inst: CutInstance) -> frozenset[Element]:
    """Union of one minimum cut per terminal pair: a feasible multicut of
    cost at most k times the optimum."""
    require_problem(inst.problem, Multicut)
    elements: set[Element] = set()
    for s, t in inst.problem.pairs:
        _, cut = min_st_cut(inst.graph, s, t, inst.mode)
        elements |= cut
    require(
        multicut_is_feasible(inst, elements), "per-pair cut union leaves a pair connected"
    )
    return frozenset(elements)


# -- branch and bound ---------------------------------------------------------


class _Frame:
    """A branching node of a search with declared symmetries.

    ``prefix[i]`` is the bitmask of the node's first i free elements,
    free[:i], over element ids, and ``child`` the child being searched.
    """

    __slots__ = ("prefix", "child")

    def __init__(self, free: list[int]) -> None:
        self.prefix = [0]
        for el in free:
            self.prefix.append(self.prefix[-1] | 1 << el)
        self.child = 0


class _ExclusionBranching:
    """Depth-first search over cut sets for one solve.

    Costs are integers over the common denominator of the cuttable
    weights. ``best_set`` is None while the incumbent is a budget's cap
    (see ``_branch_and_bound``). The cut lives in the search's ``removed``
    array; ``forbidden`` flags the element ids that the current subtree
    may not cut.

    Every feasible cut set S descends the search tree: at a node whose
    free list is c_1..c_m, to the child of the first c_i in S. Searched
    depth first, a subtree left of the current node has been finished:
    the incumbent costs no more than any feasible set descending into it.
    ``symmetries`` are permutations of the cuttable elements that keep
    feasibility and cost. With any, the search skips node N, with cut
    R_N, when for some symmetry g and some ancestor A of N, with N below
    A's child j, g(R_N) holds some c_i with i < j, while at every ancestor
    above A it holds the element leading toward N and none before it.
    Then for every completion S of N, g(S) descends left of N, so S
    costs no less than the incumbent. The incumbent moves only on a
    strict improvement, so N's subtree could not have moved it, and the
    answer is the unpruned one, elements included. Each node receives
    g(R_N) as a bitmask for every g, its parent's image with g(c_j)
    added, and each ancestor keeps the bitmasks of its free prefixes in
    a ``_Frame``, so the rule is tested as it reads.

    Each child inherits its parent's bound. ``_bound`` takes the node's
    path P_1 and adds violated paths P_2..P_k, each found with the cut,
    all of c_1..c_m and the free elements of the paths before it removed.
    So each P_i with i >= 2 avoids the cut and every c_j, and the free
    sets of P_1..P_k are pairwise disjoint. Child j cuts c_j and forbids
    c_1..c_(j-1): there each such P_i is still violated, none of its free
    elements is forbidden, and their free sets stay disjoint, so every
    completion below child j costs at least the node's cost plus w(c_j)
    plus ``rest``, the sum over i >= 2 of P_i's cheapest free element.
    The search stops before child j once that reaches the incumbent, and
    skips the later children too, as c_1..c_m are sorted by weight.
    """

    def __init__(
        self,
        search: PathSearch,
        incumbent: tuple[Fraction, frozenset[Element]],
        symmetries: Iterable[Mapping[Element, Element]] = (),
        budget: Fraction | None = None,
    ) -> None:
        weights = search.weights
        cuttable = [el for el, w in enumerate(weights) if w is not None]
        self.search = search
        self.scale, units = _over_lcm([weights[el] for el in cuttable])
        self.weight = [0] * len(weights)
        for el, unit in zip(cuttable, units):
            self.weight[el] = unit
        self.rank = [0] * len(weights)
        order = sorted(cuttable, key=lambda el: (weights[el], str(search.element(el))))
        for position, el in enumerate(order):
            self.rank[el] = position
        self.forbidden = bytearray(len(weights))
        # the incumbent sums cuttable weights, so its denominator divides scale
        cost, self.best_set = incumbent
        self.best_cost = cost.numerator * (self.scale // cost.denominator)
        if budget is not None:
            # the least cost over the budget; a set-less incumbent there
            cap = floor(budget * self.scale) + 1
            if self.best_cost >= cap:
                self.best_cost, self.best_set = cap, None
        # per symmetry g, the bit of g(el) at each element id el
        ids = {search.element(el): el for el in cuttable}
        self.forward = [self._forward_bits(g, ids) for g in symmetries]
        self.frames: list[_Frame] | None = [] if self.forward else None

    def _forward_bits(self, g: Mapping[Element, Element], ids: dict[Element, int]) -> list[int]:
        weights = self.search.weights
        require(
            set(g) == set(ids) == set(g.values())
            and all(weights[ids[a]] == weights[ids[b]] for a, b in g.items()),
            "a symmetry must permute the cuttable elements and keep their weights",
        )
        forward = [0] * len(weights)
        for a, b in g.items():
            forward[ids[a]] = 1 << ids[b]
        return forward

    def explore(self, cost: int, images: list[int]) -> None:
        """Search below the current cut, which costs ``cost`` and has
        ``images[g]``, its image under each symmetry, as a bitmask."""
        search, removed, forbidden = self.search, self.search.removed, self.forbidden
        path = find_violating_path(search)
        if path is None:
            self.best_cost = cost
            self.best_set = frozenset(
                search.element(el) for el, out in enumerate(removed) if out
            )
            return
        require(bool(path), "violating path has no cuttable element")
        free = sorted({el for el in path if not forbidden[el]}, key=self.rank.__getitem__)
        if not free or (lower := self._bound(cost, free)) >= self.best_cost:
            return
        # the bound's other paths, which every child inherits
        rest = lower - cost - self.weight[free[0]]
        frames = self.frames
        if frames is not None:
            frames.append(_Frame(free))
        # child j cuts free[j] and forbids free[:j], so every cut set is
        # reached at most once
        for j, el in enumerate(free):
            child = cost + self.weight[el]
            if child + rest >= self.best_cost:
                break  # free is sorted by weight, so later children cost more
            # the child's cut under each symmetry g: g(cut) | g(el)
            below = [image | bits[el] for image, bits in zip(images, self.forward)]
            if frames is None or not self._covered(j, below):
                removed[el] = 1
                self.explore(child, below)
                removed[el] = 0
            forbidden[el] = 1
        for el in free:
            forbidden[el] = 0
        if frames is not None:
            frames.pop()

    def _covered(self, j: int, images: list[int]) -> bool:
        """Make child j the top frame's current child and report whether
        the skip rule holds for it, its cut having ``images[g]`` under
        each symmetry g."""
        frames = self.frames
        frames[-1].child = j
        for image in images:
            for frame in frames:
                prefix, i = frame.prefix, frame.child
                if prefix[i] & image:
                    return True  # g(cut) meets an earlier child's element
                if not prefix[i + 1] & image:
                    break  # nor the element leading here: g(S) may go right
        return False

    def _bound(self, cost: int, free: list[int]) -> int:
        """``cost`` plus the cheapest free element of each path in a greedy
        family of violated paths that share no free element. Every
        completion cuts a distinct free element of each, so this is a lower
        bound; a path with only forbidden elements makes it infinite (the
        incumbent cost). Collection stops once the incumbent is reached."""
        search, removed, forbidden = self.search, self.search.removed, self.forbidden
        lower = cost + self.weight[free[0]]
        held: list[int] = []
        fresh = free
        while lower < self.best_cost:
            for el in fresh:
                removed[el] = 1
            held += fresh
            path = find_violating_path(search)
            if path is None:
                break
            fresh = [el for el in path if not forbidden[el]]
            if not fresh:
                lower = self.best_cost
                break
            lower += min(self.weight[el] for el in fresh)
        for el in held:
            removed[el] = 0
        return lower


def _branch_and_bound(
    search: PathSearch,
    incumbent: tuple[Fraction, frozenset[Element]],
    symmetries: Iterable[Mapping[Element, Element]] = (),
    budget: Fraction | None = None,
) -> tuple[Fraction, frozenset[Element]] | None:
    """Cheapest cut set strictly below the incumbent, or the incumbent.

    Exclusion branching over violated paths: find a minimum-hop violated
    path and branch on its free (not forbidden) cuttable elements
    c_1..c_m, cheapest first by (weight, str). Child j cuts c_j and forbids
    c_1..c_(j-1), so each cut set is reached once and no visited table is
    needed. A node is pruned when its cost plus the disjoint-path bound
    reaches the incumbent, or when a violated path has only forbidden
    elements. Each child inherits that bound's paths beyond the node's
    own: child j is not searched once its cost plus their cheapest free
    elements reaches the incumbent, since those paths stay violated with
    disjoint free sets when c_j is cut and c_1..c_(j-1) are forbidden (see
    ``_ExclusionBranching``). Every path comes from ``find_violating_path``,
    as the list of its cuttable element ids. Declared
    ``symmetries`` skip nodes whose subtrees map into finished ones (see
    ``_ExclusionBranching``); the answer is the same with or without them.

    With a ``budget``, an incumbent that costs the cap or more, the cap
    being the least multiple of 1/scale above the budget (scale being the
    lcm of the cuttable weights' denominators), gives way to a set-less
    one at the cap; None is returned when no cut set costs less than the
    cap, that is, when the optimum exceeds the budget. Otherwise the
    answer is the one found from the given incumbent, elements included.
    While the incumbent costs more than the optimum, the search returns
    the first optimal leaf in its fixed depth-first order: along the way
    from the root to that leaf every cost and every lower bound, the
    inherited ones included, is at most the optimum, as each holds for a
    subtree that contains the leaf; so no prune by bound and no break on
    a sorted child fires there, and each node on the way has a free
    element, since the leaf's set descends through it. Nor is a node on
    the way skipped by symmetry, which would map the leaf onto an optimal
    set left of it. The incumbent moves only on a strict improvement, so
    it never drops to the optimum before that leaf is reached, and the
    leaf, once found, is never replaced. Any incumbent above the optimum,
    the cap among them, thus yields the same leaf.
    """
    bb = _ExclusionBranching(search, incumbent, symmetries, budget)
    bb.explore(0, [0] * len(bb.forward))
    if bb.best_set is None:
        return None
    return Fraction(bb.best_cost, bb.scale), bb.best_set


def exact_min_multicut(
    inst: CutInstance, symmetries: Iterable[Mapping[Element, Element]] = ()
) -> CutSolution:
    """Minimum-cost element set disconnecting every terminal pair.

    Lazy branch and bound (``_branch_and_bound``): exclusion branching on
    the cuttable elements of a surviving minimum-hop pair path, pruned by
    a bound from pair paths that share no free element. The incumbent is
    seeded with the union of per-pair minimum cuts. ``symmetries`` are
    permutations of the cuttable elements that keep feasibility and cost,
    such as ``gadgets.declared_symmetries`` returns; they are read once,
    after the size guard, prune the search and leave the answer, elements
    included, unchanged.
    """
    require_problem(inst.problem, Multicut)
    cuttable = inst.cuttable_elements()
    if len(cuttable) > BB_ELEMENT_LIMIT:
        raise SizeGuard(f"{len(cuttable)} cuttable elements (cap {BB_ELEMENT_LIMIT})")
    search = _check_infeasible(inst)
    seed = per_pair_cut_union(inst)
    cost, elements = _branch_and_bound(
        search, (solution_cost(inst, seed), seed), symmetries
    )
    require(multicut_is_feasible(inst, elements), "branch and bound left a pair connected")
    return CutSolution(elements, cost)


def exact_min_length_bounded_cut(
    inst: CutInstance, *, budget: Fraction | None = None
) -> CutSolution | None:
    """Minimum-cost element set after which dist(s, t) >= the instance's bound.

    With a ``budget``, None when that minimum costs more than the budget;
    the search then never ranks cuts above it. A minimum within the
    budget is returned as without one, elements included.
    """
    require_problem(inst.problem, LengthBound)
    cuttable = inst.cuttable_elements()
    if len(cuttable) > BB_ELEMENT_LIMIT:
        raise SizeGuard(f"{len(cuttable)} cuttable elements (cap {BB_ELEMENT_LIMIT})")
    search = _check_infeasible(inst)
    require(
        length_bound_is_feasible(inst, cuttable),
        "removing every cuttable element leaves a short path",
    )
    found = _branch_and_bound(
        search, (solution_cost(inst, cuttable), frozenset(cuttable)), budget=budget
    )
    if found is None:
        return None
    cost, elements = found
    require(
        length_bound_is_feasible(inst, elements),
        "branch and bound left a path shorter than the bound",
    )
    return CutSolution(elements, cost)


# -- interdiction -------------------------------------------------------------


def exact_interdiction(
    inst: CutInstance, budget: Fraction
) -> tuple[int | None, CutSolution]:
    """Maximize the post-removal s-t distance under a removal budget.

    Climbs the finite set of achievable distances: repeatedly solve the
    length-bounded cut at one more than the distance achieved so far,
    capped at the budget, and stop when the optimum exceeds it. Each
    round's instance carries that round's bound and shares the caller's
    graph, and so its index. Returns the best distance (None when s and t
    can be fully disconnected) and the witnessing cut.
    """
    require_problem(inst.problem, LengthBound)
    budget = Fraction(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    g = inst.graph
    src, dst = inst.problem.source, inst.problem.sink
    best_dist = shortest_path_length(g, src, dst)
    best_cut = CutSolution(frozenset(), Fraction(0))
    if best_dist is None:
        return None, best_cut
    while True:
        round_inst = replace(inst, problem=LengthBound(src, dst, best_dist + 1))
        try:
            sol = exact_min_length_bounded_cut(round_inst, budget=budget)
        except Infeasible:
            return best_dist, best_cut
        if sol is None:
            return best_dist, best_cut
        achieved = shortest_path_length(g, src, dst, sol.elements)
        if achieved is None:
            return None, sol
        best_dist, best_cut = achieved, sol


# -- fire containment ----------------------------------------------------------


class BurnTrace:
    """Day-by-day burnt/saved sets of a fire-containment run."""

    def __init__(self) -> None:
        self.burnt_by_day: list[frozenset[str]] = []
        self.saved_by_day: list[frozenset[str]] = []
        self.target_burnt = False

    @property
    def burnt(self) -> frozenset[str]:
        return self.burnt_by_day[-1]

    @property
    def saved(self) -> frozenset[str]:
        return self.saved_by_day[-1]


def _undirected_neighbors(g: WeightedGraph) -> dict[str, list[str]]:
    # fire spreads along out-arcs; undirected arcs are registered both ways
    names, _, arcs = g.index()
    return {v: [names[nb] for nb in heads] for v, (_, heads) in zip(names, arcs)}


def rmfc_simulate(inst: CutInstance, schedule: Schedule) -> BurnTrace:
    """Run the save-then-spread process: the source burns on day 0, and on
    each later day the scheduled set is saved before the fire spreads one
    step to unsaved neighbors. Burnt and saved states are permanent.
    """
    require_problem(inst.problem, Rmfc)
    g = inst.graph
    nbrs = _undirected_neighbors(g)
    targets = inst.problem.targets
    burnt = {inst.problem.source}
    saved: set[str] = set()
    trace = BurnTrace()
    trace.burnt_by_day.append(frozenset(burnt))
    trace.saved_by_day.append(frozenset())
    day = 0
    while True:
        day += 1
        if day <= len(schedule.days):
            todays = schedule.days[day - 1]
            for v in todays:
                if g.node_weight(v) is None:
                    raise RemovingUncuttable(f"cannot save uncuttable {v!r}")
                if v in burnt:
                    raise SaveBurntVertex(f"{v!r} already burnt on day {day}")
            saved |= set(todays)
        # the fire reaches the unburnt, unsaved neighbours of burnt vertices
        spread = {nb for v in burnt for nb in nbrs[v] if nb not in burnt and nb not in saved}
        burnt |= spread
        trace.burnt_by_day.append(frozenset(burnt))
        trace.saved_by_day.append(frozenset(saved))
        if not spread and day >= len(schedule.days):
            break
    trace.target_burnt = any(t in burnt for t in targets)
    return trace


def _around(nbrs: list[int], mask: int) -> int:
    """The union of the out-neighbour masks of the nodes in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= nbrs[low.bit_length() - 1]
        mask ^= low
    return out


def _affordable_days(items: list[int], weights: list[int], budget: int) -> Iterator[int]:
    """Unions of the one-bit masks ``items`` whose nonnegative weight is at
    most ``budget``, in increasing order when the items are.

    A binary counter over the items, item j its bit j, counted up from
    the empty union. When taking item j, with the items below it left
    out, would go over the budget, so would every union that adds items
    below j, so the count skips them all and carries on into item j + 1."""
    taken = [False] * len(items)
    day = total = 0
    yield day
    j = 0
    while j < len(items):
        if taken[j]:
            taken[j] = False
            day ^= items[j]
            total -= weights[j]
            j += 1
        elif total + weights[j] > budget:
            j += 1
        else:
            taken[j] = True
            day |= items[j]
            total += weights[j]
            yield day
            j = 0


def _fire_search(
    nbrs: list[int],
    units: list[int],
    targets: int,
    budget: int,
    memo: dict[tuple[int, int], tuple[int, ...] | None],
    burnt: int,
    saved: int,
) -> tuple[int, ...] | None:
    """Per-day save masks of cost <= budget that keep the fire off every
    target from state (burnt, saved), or None; memoised on the state in
    ``memo``. Nodes are bits: the savable vertices are bits
    0..len(units)-1, ``units`` holding their integer weights, and
    ``nbrs[i]`` is the out-neighbour mask of node i. Days are tried in
    increasing mask order over the savable vertices the fire could still
    reach."""
    if burnt & targets:
        return None
    key = (burnt, saved)
    if key in memo:
        return memo[key]
    # fresh: unburnt neighbours of burnt nodes, the next day's spread
    # before that day's saves; their closure is what could still burn
    fresh = _around(nbrs, burnt) & ~burnt
    reach = burnt
    frontier = fresh & ~saved
    while frontier:
        reach |= frontier
        frontier = _around(nbrs, frontier) & ~reach & ~saved
    future = reach ^ burnt
    if not future:
        memo[key] = ()
        return ()
    relevant = future & ((1 << len(units)) - 1)
    items = []
    while relevant:
        low = relevant & -relevant
        items.append(low)
        relevant ^= low
    weights = [units[low.bit_length() - 1] for low in items]
    result: tuple[int, ...] | None = None
    for day in _affordable_days(items, weights, budget):
        nsaved = saved | day
        rest = _fire_search(
            nbrs, units, targets, budget, memo, burnt | (fresh & ~nsaved), nsaved
        )
        if rest is not None:
            result = (day, *rest)
            break
    memo[key] = result
    return result


def exact_rmfc_decision(
    inst: CutInstance, k: Fraction
) -> tuple[bool, Schedule | None]:
    """Decide whether per-day budget k saves all targets; exhaustive
    search over the per-day save sets that cost at most k, with
    memoization on (burnt, saved). Costs are integers over the common
    denominator of k and the vertex weights. The search numbers the
    savable vertices 0..n-1 in sorted id order and every other node
    above them, so its states are bitmasks and the schedule found is the
    first in increasing mask order over the sorted savable ids, checked
    apart from the search: CertificateFailed unless each day costs at most
    k and ``rmfc_simulate`` burns no target under it."""
    require_problem(inst.problem, Rmfc)
    k = Fraction(k)
    if k < 0:
        raise ValueError("budget must be nonnegative")
    g = inst.graph
    savable = sorted(v for v in g.nodes if g.node_weight(v) is not None)
    if len(savable) > RMFC_VERTEX_LIMIT:
        raise SizeGuard(f"{len(savable)} cuttable vertices (cap {RMFC_VERTEX_LIMIT})")
    _, (budget, *units) = _over_lcm([k, *(g.node_weight(v) for v in savable)])
    names, _, arcs = g.index()
    order = savable + [v for v in names if g.node_weight(v) is None]
    bit = {v: i for i, v in enumerate(order)}
    # fire spreads along out-arcs; undirected arcs are registered both ways
    nbrs = [0] * len(order)
    for v, (_, heads) in zip(names, arcs):
        for nb in heads:
            nbrs[bit[v]] |= 1 << bit[names[nb]]
    targets = 0
    for t in inst.problem.targets:
        targets |= 1 << bit[t]
    masks = _fire_search(
        nbrs, units, targets, budget, {}, 1 << bit[inst.problem.source], 0
    )
    if masks is None:
        return False, None
    days = tuple(
        frozenset(v for i, v in enumerate(savable) if day >> i & 1) for day in masks
    )
    costs = tuple(
        sum((g.node_weight(v) for v in day), Fraction(0)) for day in days
    )
    schedule = Schedule(days, costs)
    require(schedule.max_day_cost() <= k, "a searched day costs more than the budget")
    require(not rmfc_simulate(inst, schedule).target_burnt, "the searched schedule burns a target")
    return True, schedule
