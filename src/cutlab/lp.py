"""Exact rational LP engine and the cutting-plane drivers for the
path-covering relaxations, producing integrality-gap reports.

Every value is exact and computed on integers: the simplex keeps its
tableau over one common denominator and pivots fraction-free, its
optimality certificate is checked on the integer tableau, and the
separation oracles and the independent recheck, a label-correcting walk
search, run on x scaled by the common denominator of its entries. Gap
reports are exact enough to serve as frozen test fixtures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from . import gadgets, solvers
from .errors import (
    CutLabError,
    Infeasible,
    RowPoolExceeded,
    require,
    require_problem,
)
from .graphs import (
    EDGE,
    CutInstance,
    Element,
    LengthBound,
    Multicut,
    Path,
    _over_lcm,
    _scaled_costs,
    constrained_min_weight_path,
    min_weight_path,
    rational_str,
)

ROW_POOL_CAP = 10_000


@dataclass
class LPProblem:
    """min c.x subject to rows A x >= rhs and x >= 0, all rational, c >= 0.

    Rows enter only through ``add_row``, which also keeps the row's integer
    form; the warm-started dual prices each row once from it, and the
    certificate checks every row against it on every solve.
    """

    var_order: list[Element]
    objective: dict[Element, Fraction]
    rows: list[dict[Element, Fraction]] = field(default_factory=list, init=False)
    rhs: list[Fraction] = field(default_factory=list, init=False)
    # per row, its columns and [a'_i..., b'_i]: its coefficients and rhs
    # times the lcm of their denominators
    int_rows: list[tuple[list[int], list[int]]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    # variable -> its column, its place in var_order
    pos: dict[Element, int] = field(init=False, repr=False, compare=False)
    # the dual tableau of the last solve; the next solve resumes from it
    _dual: _PackingDual | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.pos = {v: j for j, v in enumerate(self.var_order)}

    def add_row(self, coeffs: Mapping[Element, Fraction], rhs: Fraction) -> None:
        row = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
        for v in row:
            if v not in self.objective:
                raise ValueError(f"row references undeclared variable {v!r}")
        self.rows.append(row)
        self.rhs.append(Fraction(rhs))
        _, scaled = _over_lcm([*row.values(), self.rhs[-1]])
        self.int_rows.append(([self.pos[v] for v in row], scaled))


class _PackingDual:
    """Fraction-free sparse simplex tableau of the dual max b.y s.t.
    A^T y <= c, y >= 0.

    Row j is the dual constraint of primal variable j; column key j < n is
    its slack, key n + i is y_i for primal row i. Every entry of ``table``,
    ``rhs`` and the reduced costs ``z`` of min -b.y is an ``int`` over the
    common denominator ``det``, the determinant of the basis, so each pivot
    is integer-preserving (Edmonds 1967; Bareiss 1968). The costs are put
    over the lcm of their denominators and each priced row over the lcm of
    its own: positive rescalings of rows and columns, which keep every sign
    and ratio order and so every pivot choice. The all-slack basis is
    feasible because c >= 0, so there is no phase 1; x_j is z[j] / det.
    """

    def __init__(self, lp: LPProblem) -> None:
        _, cost = _over_lcm([lp.objective[v] for v in lp.var_order])
        if any(c < 0 for c in cost):
            raise CutLabError("negative cost: the packing dual needs c >= 0")
        self.table: list[dict[int, int]] = [{j: 1} for j in range(len(cost))]
        self.rhs = cost
        self.basis = list(range(len(cost)))
        self.z: dict[int, int] = {}
        self.det = 1
        self.priced = 0

    def price(self, cols: list[int], scaled: list[int]) -> None:
        """Add the next primal row, in its integer form, as a dual column of
        the current basis."""
        a = dict(zip(cols, scaled))
        key = len(self.table) + self.priced
        self.priced += 1
        for line in self.table:
            # det B^-1 a, summed from the slack block, which holds det B^-1
            entry = sum(line[j] * c for j, c in a.items() if j in line)
            if entry:
                line[key] = entry
        # det times the row's activity under the current x minus its rhs
        z = self.z
        reduced = sum(z[j] * c for j, c in a.items() if j in z) - scaled[-1] * self.det
        if reduced:
            z[key] = reduced

    def optimize(self) -> None:
        """Bland's rule: the lowest key with negative reduced cost enters,
        the lowest basic key leaves among ratio ties."""
        table, rhs, basis = self.table, self.rhs, self.basis
        while True:
            enter = min((k for k, d in self.z.items() if d < 0), default=None)
            if enter is None:
                return
            # min (rhs[r] / table[r][enter], basis[r]) over positive entries,
            # compared by cross-multiplication
            leave = None
            for r, line in enumerate(table):
                t = line.get(enter, 0)
                if t > 0 and (
                    leave is None
                    or rhs[r] * best_t < best_rhs * t
                    or (rhs[r] * best_t == best_rhs * t and basis[r] < basis[leave])
                ):
                    leave, best_t, best_rhs = r, t, rhs[r]
            if leave is None:
                raise Infeasible("the packing dual is unbounded: no x meets every row")
            pivot, det = table[leave], self.det
            p, b = pivot[enter], rhs[leave]
            for r, line in enumerate(table):
                if r == leave:
                    continue
                f = line.get(enter)
                if f:
                    table[r] = _combine(line, p, f, pivot, det)
                    rhs[r] = (p * rhs[r] - f * b) // det
                elif p != det:
                    # only moves to the new denominator
                    table[r] = {k: c * p // det for k, c in line.items()}
                    rhs[r] = rhs[r] * p // det
            self.z = _combine(self.z, p, self.z[enter], pivot, det)
            basis[leave] = enter
            self.det = p


def _combine(
    line: dict[int, int], p: int, f: int, pivot: dict[int, int], det: int
) -> dict[int, int]:
    """(p * line - f * pivot) / det, dropping zeros; the division is exact."""
    get = pivot.get
    out = {k: v for k, c in line.items() if (v := (p * c - f * get(k, 0)) // det)}
    for k, c in pivot.items():
        if k not in line:
            out[k] = -f * c // det
    return out


def simplex_solve(lp: LPProblem) -> tuple[Fraction, dict[Element, Fraction]]:
    """Exact optimum of the LP by primal simplex on its packing dual.

    The first call starts from the all-slack dual basis; later calls price
    the rows added since as new dual columns and resume from the last
    basis. Raises Infeasible when the dual is unbounded. The answer is
    returned only once ``_certify`` has checked it.
    """
    if lp._dual is None:
        lp._dual = _PackingDual(lp)
    dual = lp._dual
    for i in range(dual.priced, len(lp.int_rows)):
        dual.price(*lp.int_rows[i])
    dual.optimize()
    return _certify(lp, dual)


def _certify(
    lp: LPProblem, dual: _PackingDual
) -> tuple[Fraction, dict[Element, Fraction]]:
    """c.x and x from the final tableau, once the duality certificate holds.

    The scaled data a'_i, b'_i and c' are read from ``lp``, not from the
    tableau, and every row is checked, not only those added since the last
    solve. With X = det x and Y = det y, all in integers: X >= 0, Y >= 0,
    a'_i.X >= b'_i det, A'^T Y <= c' det and c'.X == b'.Y; each failure
    raises CertificateFailed, also under ``python -O``.
    """
    n, det = len(lp.var_order), dual.det
    cost_scale, cost = _over_lcm([lp.objective[v] for v in lp.var_order])
    big_x = [dual.z.get(j, 0) for j in range(n)]
    big_y = {k - n: dual.rhs[r] for r, k in enumerate(dual.basis) if k >= n}
    require(all(v >= 0 for v in big_x), "x has a negative entry")
    require(all(v >= 0 for v in big_y.values()), "y has a negative entry")
    load = [0] * n
    dual_value = 0
    for i, (cols, scaled) in enumerate(lp.int_rows):
        activity = sum(big_x[j] * c for j, c in zip(cols, scaled))
        require(activity >= scaled[-1] * det, "x violates a row")
        yi = big_y.get(i, 0)
        if yi:
            for j, c in zip(cols, scaled):
                load[j] += c * yi
            dual_value += scaled[-1] * yi
    require(all(ld <= c * det for ld, c in zip(load, cost)), "y violates A^T y <= c")
    value = sum(c * v for c, v in zip(cost, big_x))
    require(value == dual_value, "c.x differs from b.y")
    zero = Fraction(0)
    return Fraction(value, det * cost_scale), {
        v: Fraction(big_x[j], det) if big_x[j] else zero for v, j in lp.pos.items()
    }


# -- independent no-violation check ----------------------------------------


def _has_cheap_walk(inst: CutInstance, x: Mapping[Element, Fraction]) -> bool:
    """Whether x leaves a path of mass below 1 that the instance must cut:
    a path joining a multicut pair, or an s-t path shorter than the bound.

    A label-correcting search over (node, length) states that keeps each
    state's least mass and drops a state once its mass reaches 1; multicut
    edges step length 0, so its states are the nodes. It is independent
    of the Dijkstra/DP separation oracles and shares only their validated
    integer costs (mass < 1 is scaled mass < ``scale``) and ``g.index()``.
    Costs are nonnegative, so cutting a cycle out of a walk raises neither
    its length nor its mass: a cheap short walk exists exactly when a
    cheap short simple path does. No simple path is longer than all edges
    together, so lengths stop there.
    """
    g = inst.graph
    p = inst.problem
    edge_mode = inst.mode == EDGE
    scale, cost = _scaled_costs(g, x, inst.mode)
    _, pos, arcs = g.index()
    lengths = [length for _, _, _, length, _ in g.edge_rows]
    if isinstance(p, Multicut):
        pairs, steps, levels = p.pairs, [0] * len(lengths), 1
    else:
        pairs, steps = ((p.source, p.sink),), lengths
        levels = min(p.bound, sum(lengths) + 1)
    for s, t in pairs:
        s, t = pos[s], pos[t]
        start = 0 if edge_mode else cost.get(s, 0)
        best = {(s, 0): start} if start < scale else {}
        queue = deque(best)
        while queue:
            state = queue.popleft()
            v, length = state
            if v == t:
                return True
            mass = best[state]
            for idx, nb in zip(*arcs[v]):
                nxt = (nb, length + steps[idx])
                nm = mass + cost.get(idx if edge_mode else nb, 0)
                if nxt[1] < levels and nm < best.get(nxt, scale):
                    best[nxt] = nm
                    queue.append(nxt)
    return False


# -- cutting-plane drivers ---------------------------------------------------


def _require_real_path(inst: CutInstance, path: Path) -> None:
    """Raise CertificateFailed unless ``path`` walks the graph's edge rows,
    each edge in its direction, from a terminal pair's source to its sink
    and, for a length bound, with lengths summing to ``path.length``, below
    the bound. It reads only the graph and the problem, so a row rests on
    graph facts, not on the oracle that found it."""
    rows, p = inst.graph.edge_rows, inst.problem
    nodes, edges = path.nodes, path.edges
    require(len(nodes) == len(edges) + 1, "a row's path does not list one edge per step")
    for u, v, e in zip(nodes, nodes[1:], edges):
        require(0 <= e < len(rows), "a row's path lists an edge the graph lacks")
        tail, head, directed, _, _ = rows[e]
        require(
            (tail, head) == (u, v) or (not directed and (head, tail) == (u, v)),
            "a row's path is not a walk of the graph",
        )
    ends = p.pairs if isinstance(p, Multicut) else ((p.source, p.sink),)
    require((nodes[0], nodes[-1]) in ends, "a row's path does not join a terminal pair")
    if isinstance(p, LengthBound):
        require(
            sum(rows[e][3] for e in edges) == path.length < p.bound,
            "a row's path misstates its length or reaches the bound",
        )


def _covering_lp(
    inst: CutInstance,
    separate: Callable[[dict[Element, Fraction]], list[Path]],
) -> tuple[Fraction, dict[Element, Fraction]]:
    variables = inst.cuttable_elements()
    lp = LPProblem(
        var_order=list(variables),
        objective={v: inst.graph.element_weight(v) for v in variables},
    )
    value = Fraction(0)
    solution = {v: Fraction(0) for v in variables}
    seen_rows: set[frozenset[Element]] = set()
    while True:
        violated = separate(solution)
        if not violated:
            require(
                not _has_cheap_walk(inst, solution),
                "independent separation found a violation",
            )
            return value, solution
        added = 0
        for path in violated:
            _require_real_path(inst, path)
            els = frozenset(path.elements(inst.mode, inst.graph))
            require(bool(els), "a violated path must contain cuttable elements")
            mass = sum((solution.get(e, Fraction(0)) for e in els), Fraction(0))
            require(mass < 1, "separation returned a satisfied row")
            if els in seen_rows:
                continue
            seen_rows.add(els)
            if len(lp.rows) >= ROW_POOL_CAP:
                raise RowPoolExceeded(f"row pool exceeded {ROW_POOL_CAP}")
            lp.add_row({e: Fraction(1) for e in els}, Fraction(1))
            added += 1
        require(added > 0, "separation made no progress")
        new_value, solution = simplex_solve(lp)
        require(new_value >= value, "LP value decreased after adding rows")
        value = new_value


def multicut_lp(inst: CutInstance) -> tuple[Fraction, dict[Element, Fraction]]:
    """Optimal fractional covering of every terminal-pair path.

    Separation runs Dijkstra under the current solution for each pair and
    adds any path of mass below one; the final pass is re-checked by the
    independent walk search ``_has_cheap_walk``.
    """
    require_problem(inst.problem, Multicut)
    solvers._check_infeasible(inst)
    pairs = inst.problem.pairs

    def separate(x: dict[Element, Fraction]) -> list[Path]:
        out = []
        for s, t in pairs:
            found = min_weight_path(inst.graph, s, t, x, inst.mode)
            if found is not None and found[1] < 1:
                out.append(found[0])
        return out

    return _covering_lp(inst, separate)


def short_path_cover_lp(inst: CutInstance) -> tuple[Fraction, dict[Element, Fraction]]:
    """Optimal fractional covering of every s-t path shorter than the bound."""
    require_problem(inst.problem, LengthBound)
    solvers._check_infeasible(inst)
    s, t, bound = inst.problem.source, inst.problem.sink, inst.problem.bound

    def separate(x: dict[Element, Fraction]) -> list[Path]:
        found = constrained_min_weight_path(inst.graph, s, t, x, bound, inst.mode)
        if found is not None and found[1] < 1:
            return [found[0]]
        return []

    return _covering_lp(inst, separate)


# -- gap reports ---------------------------------------------------------------


@dataclass
class GapReport:
    """Exact integral optimum versus LP optimum, with their ratio."""

    lp_value: Fraction
    integral_value: Fraction
    gap: Fraction

    def csv_cells(self) -> list[str]:
        return [
            rational_str(self.lp_value),
            rational_str(self.integral_value),
            rational_str(self.gap),
        ]


def gap_report(inst: CutInstance) -> GapReport:
    """Run the exact solver and the LP, check integral >= LP, emit the ratio.
    A multicut search prunes by the family's declared symmetries."""
    if isinstance(inst.problem, Multicut):
        integral = solvers.exact_min_multicut(inst, gadgets.declared_symmetries(inst)).cost
        lp_value, _ = multicut_lp(inst)
    else:
        integral = solvers.exact_min_length_bounded_cut(inst).cost
        lp_value, _ = short_path_cover_lp(inst)
    require(integral >= lp_value, "integral optimum below the LP value")
    gap = integral / lp_value if lp_value > 0 else Fraction(1)
    return GapReport(lp_value, integral, gap)
