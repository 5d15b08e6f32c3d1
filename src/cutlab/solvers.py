"""Exact optima at desk scale: lazy branch-and-bound over violated paths,
subset brute force for cross-checks, interdiction by climbing the
length-bounded-cut curve, and the fire-spread simulator with an exact
schedule search.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import (
    BudgetExceeded,
    Infeasible,
    RemovingUncuttable,
    SaveBurntVertex,
    SizeGuard,
    require,
    require_problem,
)
from .graphs import (
    EDGE,
    VERTEX,
    CutInstance,
    CutSolution,
    Element,
    LengthBound,
    Multicut,
    Path,
    Rmfc,
    Schedule,
    WeightedGraph,
    min_st_cut,
    shortest_path_length,
)

BB_ELEMENT_LIMIT = 40
BRUTE_ELEMENT_LIMIT = 22
RMFC_VERTEX_LIMIT = 14


# -- path finding -----------------------------------------------------------


def _min_hop_path(
    g: WeightedGraph,
    s: str,
    t: str,
    removed_nodes: set[str],
    removed_edges: set[int],
    uncuttable_mode: str | None = None,
) -> Path | None:
    """BFS for a fewest-edge s-t path avoiding removed elements.

    With ``uncuttable_mode`` set to the instance's cut mode, the walk may
    use only elements that mode cannot cut, which witnesses infeasibility.
    """
    if s in removed_nodes or t in removed_nodes:
        return None
    prev: dict[str, tuple[str, int]] = {}
    seen = {s}
    queue = [s]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == t:
            nodes = [t]
            edges = []
            while nodes[-1] != s:
                pv, pe = prev[nodes[-1]]
                nodes.append(pv)
                edges.append(pe)
            nodes.reverse()
            edges.reverse()
            return Path(
                tuple(nodes), tuple(edges), sum(g.edges[i].length for i in edges)
            )
        for idx, nb in g.out_arcs(v):
            if idx in removed_edges or nb in removed_nodes or nb in seen:
                continue
            if uncuttable_mode == EDGE and g.edges[idx].weight is not None:
                continue
            if (
                uncuttable_mode == VERTEX
                and nb != t
                and g.node_weight(nb) is not None
            ):
                continue
            seen.add(nb)
            prev[nb] = (v, idx)
            queue.append(nb)
    return None


def _min_hop_short_path(
    g: WeightedGraph,
    s: str,
    t: str,
    bound: int,
    removed_nodes: set[str],
    removed_edges: set[int],
    uncuttable_mode: str | None = None,
) -> Path | None:
    """BFS over (node, accumulated length) states for a fewest-edge s-t
    path of total length strictly below ``bound``."""
    if s in removed_nodes or t in removed_nodes:
        return None
    start = (s, 0)
    prev: dict[tuple[str, int], tuple[tuple[str, int], int]] = {}
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue):
        state = queue[qi]
        qi += 1
        v, lvl = state
        if v == t:
            nodes = [t]
            edges = []
            cur = state
            while cur != start:
                pstate, pe = prev[cur]
                nodes.append(pstate[0])
                edges.append(pe)
                cur = pstate
            nodes.reverse()
            edges.reverse()
            return Path(tuple(nodes), tuple(edges), lvl)
        for idx, nb in g.out_arcs(v):
            if idx in removed_edges or nb in removed_nodes:
                continue
            nl = lvl + g.edges[idx].length
            if nl >= bound:
                continue
            if uncuttable_mode == EDGE and g.edges[idx].weight is not None:
                continue
            if (
                uncuttable_mode == VERTEX
                and nb != t
                and g.node_weight(nb) is not None
            ):
                continue
            nstate = (nb, nl)
            if nstate in seen:
                continue
            seen.add(nstate)
            prev[nstate] = (state, idx)
            queue.append(nstate)
    return None


def find_violating_path(
    inst: CutInstance, removed: Iterable[Element] = (), bound: int | None = None
) -> Path | None:
    """Minimum-hop path that the current cut fails to cover, or None.

    Multicut: any surviving terminal-pair path; ties between pairs go to
    the earlier pair. Length-bound: any surviving path shorter than the
    bound.
    """
    rnodes, redges = inst.graph.check_removable(removed)
    g = inst.graph
    p = inst.problem
    if isinstance(p, Multicut):
        best: Path | None = None
        for s, t in p.pairs:
            path = _min_hop_path(g, s, t, rnodes, redges)
            if path is not None and (best is None or len(path.edges) < len(best.edges)):
                best = path
        return best
    if isinstance(p, LengthBound):
        use = p.bound if bound is None else bound
        return _min_hop_short_path(g, p.source, p.sink, use, rnodes, redges)
    raise ValueError("violating paths are defined for multicut and length bound")


def _check_infeasible(inst: CutInstance, bound: int | None = None) -> None:
    """Raise Infeasible when an all-uncuttable violating path exists."""
    g = inst.graph
    p = inst.problem
    if isinstance(p, Multicut):
        for s, t in p.pairs:
            witness = _min_hop_path(g, s, t, set(), set(), uncuttable_mode=inst.mode)
            if witness is not None:
                raise Infeasible(f"pair ({s},{t}) joined by uncuttable path", witness)
    elif isinstance(p, LengthBound):
        use = p.bound if bound is None else bound
        witness = _min_hop_short_path(
            g, p.source, p.sink, use, set(), set(), uncuttable_mode=inst.mode
        )
        if witness is not None:
            raise Infeasible("short uncuttable path exists", witness)


# -- feasibility checkers (independent of the solvers) ----------------------


def multicut_is_feasible(inst: CutInstance, elements: Iterable[Element]) -> bool:
    require_problem(inst.problem, Multicut)
    removed = list(elements)
    for s, t in inst.problem.pairs:
        if shortest_path_length(inst.graph, s, t, removed) is not None:
            return False
    return True


def length_bound_is_feasible(
    inst: CutInstance, elements: Iterable[Element], bound: int | None = None
) -> bool:
    require_problem(inst.problem, LengthBound)
    use = inst.problem.bound if bound is None else bound
    dist = shortest_path_length(
        inst.graph, inst.problem.source, inst.problem.sink, list(elements)
    )
    return dist is None or dist >= use


def solution_cost(inst: CutInstance, elements: Iterable[Element]) -> Fraction:
    total = Fraction(0)
    for el in set(elements):
        w = inst.graph.element_weight(el)
        if w is None:
            raise RemovingUncuttable(f"element {el!r} is uncuttable")
        total += w
    return total


# -- branch and bound ---------------------------------------------------------


def _branch_and_bound(
    inst: CutInstance,
    bound: int | None,
    incumbent: tuple[Fraction, frozenset[Element]],
) -> tuple[Fraction, frozenset[Element]]:
    g = inst.graph
    best_cost, best_set = incumbent
    visited: set[frozenset[Element]] = set()
    # depth first over cut sets, children in branching order; a loop rather
    # than a self-referencing closure, so ``visited`` dies with the call
    stack: list[tuple[frozenset[Element], Fraction]] = [(frozenset(), Fraction(0))]
    while stack:
        current, cost = stack.pop()
        if cost >= best_cost or current in visited:
            continue
        visited.add(current)
        path = find_violating_path(inst, current, bound)
        if path is None:
            best_cost, best_set = cost, current
            continue
        candidates = path.elements(inst.mode, g)
        require(bool(candidates), "violating path has no cuttable element")
        candidates.sort(key=lambda el: (g.element_weight(el), str(el)))
        stack.extend(
            (current | {el}, cost + g.element_weight(el)) for el in reversed(candidates)
        )
    return best_cost, best_set


def exact_min_multicut(
    inst: CutInstance, *, element_limit: int = BB_ELEMENT_LIMIT
) -> CutSolution:
    """Minimum-cost element set disconnecting every terminal pair.

    Lazy branch and bound: repeatedly find a surviving minimum-hop pair
    path and branch on cutting each of its cuttable elements, pruning by
    the incumbent cost. The incumbent is seeded with the union of
    per-pair minimum cuts.
    """
    require_problem(inst.problem, Multicut)
    cuttable = inst.cuttable_elements()
    if len(cuttable) > element_limit:
        raise SizeGuard(f"{len(cuttable)} cuttable elements (cap {element_limit})")
    _check_infeasible(inst)
    seed: set[Element] = set()
    for s, t in inst.problem.pairs:
        _, cut = min_st_cut(inst.graph, s, t, inst.mode)
        seed |= cut
    require(multicut_is_feasible(inst, seed), "per-pair cut union leaves a pair connected")
    cost, elements = _branch_and_bound(
        inst, None, (solution_cost(inst, seed), frozenset(seed))
    )
    require(multicut_is_feasible(inst, elements), "branch and bound left a pair connected")
    return CutSolution(elements, cost)


def exact_min_length_bounded_cut(
    inst: CutInstance,
    bound: int | None = None,
    *,
    element_limit: int = BB_ELEMENT_LIMIT,
) -> CutSolution:
    """Minimum-cost element set after which dist(s, t) >= bound."""
    require_problem(inst.problem, LengthBound)
    use = inst.problem.bound if bound is None else bound
    cuttable = inst.cuttable_elements()
    if len(cuttable) > element_limit:
        raise SizeGuard(f"{len(cuttable)} cuttable elements (cap {element_limit})")
    _check_infeasible(inst, use)
    require(
        length_bound_is_feasible(inst, cuttable, use),
        "removing every cuttable element leaves a short path",
    )
    cost, elements = _branch_and_bound(
        inst, use, (solution_cost(inst, cuttable), frozenset(cuttable))
    )
    require(
        length_bound_is_feasible(inst, elements, use),
        "branch and bound left a path shorter than the bound",
    )
    return CutSolution(elements, cost)


# -- subset brute force -------------------------------------------------------


def brute_force_min_cut(
    inst: CutInstance,
    bound: int | None = None,
    *,
    element_limit: int = BRUTE_ELEMENT_LIMIT,
) -> CutSolution:
    """Exhaustive minimum over all cuttable subsets; the independent
    cross-check oracle for the branch-and-bound solvers."""
    cuttable = sorted(inst.cuttable_elements(), key=str)
    if len(cuttable) > element_limit:
        raise SizeGuard(f"{len(cuttable)} cuttable elements (cap {element_limit})")
    if isinstance(inst.problem, Multicut):
        feasible = lambda els: multicut_is_feasible(inst, els)
    elif isinstance(inst.problem, LengthBound):
        feasible = lambda els: length_bound_is_feasible(inst, els, bound)
    else:
        raise ValueError("brute force covers multicut and length bound")
    best: tuple[Fraction, frozenset[Element]] | None = None
    for mask in range(1 << len(cuttable)):
        subset = [cuttable[i] for i in range(len(cuttable)) if mask >> i & 1]
        cost = solution_cost(inst, subset)
        if best is not None and cost >= best[0]:
            continue
        if feasible(subset):
            best = (cost, frozenset(subset))
    if best is None:
        raise Infeasible("no cuttable subset is feasible")
    return CutSolution(best[1], best[0])


# -- interdiction -------------------------------------------------------------


def exact_interdiction(
    inst: CutInstance, budget: Fraction, *, element_limit: int = BB_ELEMENT_LIMIT
) -> tuple[int | None, CutSolution]:
    """Maximize the post-removal s-t distance under a removal budget.

    Climbs the finite set of achievable distances: repeatedly solve the
    length-bounded cut at one more than the distance achieved so far and
    stop when the optimum exceeds the budget. Returns the best distance
    (None when s and t can be fully disconnected) and the witnessing cut.
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
        target = best_dist + 1
        try:
            sol = exact_min_length_bounded_cut(
                inst, target, element_limit=element_limit
            )
        except Infeasible:
            return best_dist, best_cut
        if sol.cost > budget:
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
    return {v: [nb for _, nb in g.out_arcs(v)] for v in g.nodes}


def rmfc_simulate(
    inst: CutInstance, schedule: Schedule, budget: Fraction | None = None
) -> BurnTrace:
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
            cost = Fraction(0)
            for v in todays:
                w = g.node_weight(v)
                if w is None:
                    raise RemovingUncuttable(f"cannot save uncuttable {v!r}")
                if v in burnt:
                    raise SaveBurntVertex(f"{v!r} already burnt on day {day}")
                cost += w
            if budget is not None and cost > budget:
                raise BudgetExceeded(f"day {day} cost {cost} over budget {budget}")
            saved |= set(todays)
        spread = {
            nb
            for v in burnt
            for nb in nbrs[v]
            if nb not in burnt and nb not in saved
        }
        burnt |= spread
        trace.burnt_by_day.append(frozenset(burnt))
        trace.saved_by_day.append(frozenset(saved))
        if not spread and day >= len(schedule.days):
            break
    trace.target_burnt = any(t in burnt for t in targets)
    return trace


def _burnable(
    nbrs: dict[str, list[str]], burnt: frozenset[str], saved: frozenset[str]
) -> set[str]:
    """Vertices the fire could still reach if no further saves happen."""
    reach = set(burnt)
    frontier = list(burnt)
    while frontier:
        v = frontier.pop()
        for nb in nbrs[v]:
            if nb not in reach and nb not in saved:
                reach.add(nb)
                frontier.append(nb)
    return reach - set(burnt)


def _fire_search(
    g: WeightedGraph,
    nbrs: dict[str, list[str]],
    targets: frozenset[str],
    k: Fraction,
    memo: dict[tuple[frozenset[str], frozenset[str]], tuple[frozenset[str], ...] | None],
    burnt: frozenset[str],
    saved: frozenset[str],
) -> tuple[frozenset[str], ...] | None:
    """Per-day save sets of cost <= k that keep the fire off every target
    from state (burnt, saved), or None; memoised on the state in ``memo``."""
    if any(t in burnt for t in targets):
        return None
    key = (burnt, saved)
    if key in memo:
        return memo[key]
    future = _burnable(nbrs, burnt, saved)
    if not future:
        memo[key] = ()
        return ()
    relevant = sorted(v for v in future if g.node_weight(v) is not None)
    result: tuple[frozenset[str], ...] | None = None
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
        rest = _fire_search(g, nbrs, targets, k, memo, burnt | spread, frozenset(nsaved))
        if rest is not None:
            result = (day, *rest)
            break
    memo[key] = result
    return result


def exact_rmfc_decision(
    inst: CutInstance, k: Fraction, *, vertex_limit: int = RMFC_VERTEX_LIMIT
) -> tuple[bool, Schedule | None]:
    """Decide whether per-day budget k saves all targets; exhaustive
    search over per-day save sets with memoization on (burnt, saved)."""
    require_problem(inst.problem, Rmfc)
    k = Fraction(k)
    g = inst.graph
    cuttable = [v for v in g.nodes if g.node_weight(v) is not None]
    if len(cuttable) > vertex_limit:
        raise SizeGuard(f"{len(cuttable)} cuttable vertices (cap {vertex_limit})")
    nbrs = _undirected_neighbors(g)
    targets = inst.problem.targets
    days = _fire_search(
        g, nbrs, targets, k, {}, frozenset({inst.problem.source}), frozenset()
    )
    if days is None:
        return False, None
    costs = tuple(
        sum((g.node_weight(v) for v in day), Fraction(0)) for day in days
    )
    return True, Schedule(days, costs)
