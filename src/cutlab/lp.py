"""Exact rational LP engine and the cutting-plane drivers for the
path-covering relaxations, producing integrality-gap reports.

Every value is exact: the simplex pivots on Fractions, and the separation
oracles and the independent recheck search on integers scaled by the
common denominator of the current x. Gap reports are exact enough to
serve as frozen test fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .errors import (
    CutLabError,
    Infeasible,
    RowPoolExceeded,
    SizeGuard,
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
    _scaled_costs,
    constrained_min_weight_path,
    min_weight_path,
    rational_str,
)

ROW_POOL_CAP = 10_000
DFS_STEP_CAP = 2_000_000


@dataclass
class LPProblem:
    """min c.x subject to rows A x >= rhs and x >= 0, all rational, c >= 0."""

    var_order: list[Element]
    objective: dict[Element, Fraction]
    rows: list[dict[Element, Fraction]] = field(default_factory=list)
    rhs: list[Fraction] = field(default_factory=list)
    # the dual tableau of the last solve; the next solve resumes from it
    _dual: _PackingDual | None = field(default=None, init=False, repr=False, compare=False)

    def add_row(self, coeffs: Mapping[Element, Fraction], rhs: Fraction) -> None:
        row = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
        for v in row:
            if v not in self.objective:
                raise ValueError(f"row references undeclared variable {v!r}")
        self.rows.append(row)
        self.rhs.append(Fraction(rhs))


class _PackingDual:
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
                    rhs[r] -= _eliminate(other, line, enter) * rhs[leave]
            _eliminate(z, line, enter)
            basis[leave] = enter


def _eliminate(target: dict[int, Fraction], line: dict[int, Fraction], col: int) -> Fraction:
    """Subtract target[col] times ``line`` from ``target``; return the factor."""
    f = target[col]
    for k, c in line.items():
        target[k] = target.get(k, 0) - f * c
        if not target[k]:
            del target[k]
    return f


def simplex_solve(lp: LPProblem) -> tuple[Fraction, dict[Element, Fraction]]:
    """Exact optimum of the LP by primal simplex on its packing dual.

    The first call starts from the all-slack dual basis; later calls price
    the rows added since as new dual columns and resume from the last
    basis. Raises Infeasible when the dual is unbounded. The answer is
    returned only once x and y are feasible and c.x == b.y.
    """
    if lp._dual is None:
        lp._dual = _PackingDual(lp)
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


# -- independent no-violation check ----------------------------------------


def _dfs_has_cheap_path(
    inst: CutInstance,
    s: str,
    t: str,
    x: Mapping[Element, Fraction],
    bound: int | None,
    step_cap: int = DFS_STEP_CAP,
) -> bool:
    """Exhaustive simple-path search for mass < 1 (and length < bound).

    Independent of the Dijkstra/DP separation oracles; shares only their
    validated integer costs, so mass < 1 is scaled mass < ``scale``.
    Prunes branches whose mass reaches 1 or whose length reaches the bound.
    """
    g = inst.graph
    edge_mode = inst.mode == EDGE
    scale, cost = _scaled_costs(g, x, inst.mode)
    steps = 0
    on_path: set[str] = set()
    # the open path as (node, length, mass, remaining out-arcs); nodes are
    # entered in the order a recursive search would take
    stack: list[tuple[str, int, int, Iterator[tuple[int, str]]]] = []
    step: tuple[str, int, int] | None = (s, 0, 0 if edge_mode else cost.get(s, 0))
    while step is not None:
        v, length, mass = step
        steps += 1
        if steps > step_cap:
            raise SizeGuard("path enumeration exceeded its step cap")
        if mass < scale:
            if v == t:
                return True
            on_path.add(v)
            stack.append((v, length, mass, iter(g.out_arcs(v))))
        step = None
        while step is None and stack:
            v, length, mass, arcs = stack[-1]
            for idx, nb in arcs:
                nl = length + g.edges[idx].length
                if nb not in on_path and (bound is None or nl < bound):
                    step = (nb, nl, mass + cost.get(idx if edge_mode else nb, 0))
                    break
            else:
                stack.pop()
                on_path.remove(v)
    return False


# -- cutting-plane drivers ---------------------------------------------------


def _covering_lp(
    inst: CutInstance,
    separate: Callable[[dict[Element, Fraction]], list[Path]],
    recheck: Callable[[dict[Element, Fraction]], bool],
    row_cap: int,
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
            require(not recheck(solution), "independent separation found a violation")
            return value, solution
        added = 0
        for path in violated:
            els = frozenset(path.elements(inst.mode, inst.graph))
            require(bool(els), "a violated path must contain cuttable elements")
            mass = sum((solution.get(e, Fraction(0)) for e in els), Fraction(0))
            require(mass < 1, "separation returned a satisfied row")
            if els in seen_rows:
                continue
            seen_rows.add(els)
            if len(lp.rows) >= row_cap:
                raise RowPoolExceeded(f"row pool exceeded {row_cap}")
            lp.add_row({e: Fraction(1) for e in els}, Fraction(1))
            added += 1
        require(added > 0, "separation made no progress")
        new_value, solution = simplex_solve(lp)
        require(new_value >= value, "LP value decreased after adding rows")
        value = new_value


def multicut_lp(
    inst: CutInstance, *, row_cap: int = ROW_POOL_CAP
) -> tuple[Fraction, dict[Element, Fraction]]:
    """Optimal fractional covering of every terminal-pair path.

    Separation runs Dijkstra under the current solution for each pair and
    adds any path of mass below one; the final pass is re-checked by an
    independent exhaustive search.
    """
    require_problem(inst.problem, Multicut)
    from .solvers import _check_infeasible

    _check_infeasible(inst)
    pairs = inst.problem.pairs

    def separate(x: dict[Element, Fraction]) -> list[Path]:
        out = []
        for s, t in pairs:
            found = min_weight_path(inst.graph, s, t, x, inst.mode)
            if found is not None and found[1] < 1:
                out.append(found[0])
        return out

    def recheck(x: dict[Element, Fraction]) -> bool:
        return any(
            _dfs_has_cheap_path(inst, s, t, x, None) for s, t in pairs
        )

    return _covering_lp(inst, separate, recheck, row_cap)


def short_path_cover_lp(
    inst: CutInstance, bound: int | None = None, *, row_cap: int = ROW_POOL_CAP
) -> tuple[Fraction, dict[Element, Fraction]]:
    """Optimal fractional covering of every s-t path shorter than the bound."""
    require_problem(inst.problem, LengthBound)
    use = inst.problem.bound if bound is None else bound
    from .solvers import _check_infeasible

    _check_infeasible(inst, use)
    s, t = inst.problem.source, inst.problem.sink

    def separate(x: dict[Element, Fraction]) -> list[Path]:
        found = constrained_min_weight_path(inst.graph, s, t, x, use, inst.mode)
        if found is not None and found[1] < 1:
            return [found[0]]
        return []

    def recheck(x: dict[Element, Fraction]) -> bool:
        return _dfs_has_cheap_path(inst, s, t, x, use)

    return _covering_lp(inst, separate, recheck, row_cap)


# -- gap reports ---------------------------------------------------------------


@dataclass
class GapReport:
    """Exact integral optimum versus LP optimum, with their ratio."""

    lp_value: Fraction
    integral_value: Fraction
    gap: Fraction
    params: dict

    def to_json(self) -> dict:
        return {
            "lp_value": rational_str(self.lp_value),
            "integral_value": rational_str(self.integral_value),
            "gap": rational_str(self.gap),
            "params": self.params,
        }

    def csv_cells(self) -> list[str]:
        return [
            rational_str(self.lp_value),
            rational_str(self.integral_value),
            rational_str(self.gap),
        ]


def gap_report(
    inst: CutInstance,
    exact_solver: Callable[[CutInstance], object] | None = None,
    lp_solver: Callable[[CutInstance], tuple[Fraction, dict]] | None = None,
    params: dict | None = None,
) -> GapReport:
    """Run the exact solver and the LP, check integral >= LP, emit the ratio."""
    from . import solvers

    if exact_solver is None:
        exact_solver = (
            solvers.exact_min_multicut
            if isinstance(inst.problem, Multicut)
            else solvers.exact_min_length_bounded_cut
        )
    if lp_solver is None:
        lp_solver = (
            multicut_lp if isinstance(inst.problem, Multicut) else short_path_cover_lp
        )
    integral = exact_solver(inst).cost
    lp_value, _ = lp_solver(inst)
    require(integral >= lp_value, "integral optimum below the LP value")
    gap = integral / lp_value if lp_value > 0 else Fraction(1)
    return GapReport(lp_value, integral, gap, params or {})
