"""Finite probability spaces, orthogonal-decomposition influences,
maximal correlation of correlated spaces, and Gaussian tail quantities.

Masses are exact Fractions so that the decomposition identities hold with
rational equality; correlation and Gaussian quantities are floats with
documented tolerances (1e-9 and 1e-6 respectively).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateMarginal, DisconnectedSupport, UnknownAtom

Atom = str | int


class FiniteProbSpace:
    """Ordered atoms with exact rational masses summing to one."""

    def __init__(self, atoms: Sequence[Atom], mass: Mapping[Atom, Fraction]) -> None:
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atoms")
        self._mass = {a: Fraction(mass[a]) for a in self.atoms}
        if any(m < 0 for m in self._mass.values()):
            raise ValueError("negative mass")
        if sum(self._mass.values()) != 1:
            raise ValueError("masses must sum to 1")

    def mass(self, atom: Atom) -> Fraction:
        try:
            return self._mass[atom]
        except KeyError:
            raise UnknownAtom(f"unknown atom {atom!r}") from None

    def measure(self, atoms: Iterable[Atom]) -> Fraction:
        return sum((self.mass(a) for a in atoms), Fraction(0))

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteProbSpace)
            and self.atoms == other.atoms
            and self._mass == other._mass
        )

    @staticmethod
    def uniform(atoms: Sequence[Atom]) -> "FiniteProbSpace":
        n = len(atoms)
        return FiniteProbSpace(atoms, {a: Fraction(1, n) for a in atoms})


def product_points(space: FiniteProbSpace, r: int) -> Iterator[tuple[Atom, ...]]:
    """All points of the r-fold product, in lexicographic atom order."""
    return itertools.product(space.atoms, repeat=r)


def product_mass(space: FiniteProbSpace, point: Sequence[Atom]) -> Fraction:
    """Product measure of a point of the |point|-fold product space."""
    total = Fraction(1)
    for a in point:
        total *= space.mass(a)
    return total


class CorrelatedSpace:
    """A pair of finite spaces with a joint distribution.

    The joint masses must reproduce both marginals exactly. ``joint`` keeps
    only the support, the pairs of positive mass; ``partners[a]`` lists the
    right atoms b with (a, b) in the support, in atom order. ``alpha`` is
    the minimum nonzero joint mass. Construction and its checks take time
    near-linear in the support size plus the atom counts, never in their
    product, so a large alphabet with a sparse joint stays cheap.
    """

    def __init__(
        self,
        left: FiniteProbSpace,
        right: FiniteProbSpace,
        joint: Mapping[tuple[Atom, Atom], Fraction],
    ) -> None:
        self.left = left
        self.right = right
        rows = {a: Fraction(0) for a in left.atoms}
        cols = {b: Fraction(0) for b in right.atoms}
        self.joint: dict[tuple[Atom, Atom], Fraction] = {}
        self.partners: dict[Atom, list[Atom]] = {a: [] for a in left.atoms}
        for (a, b), m in joint.items():
            if a not in rows or b not in cols:
                raise UnknownAtom(f"joint key {(a, b)!r} outside atom sets")
            m = Fraction(m)
            if m < 0:
                raise ValueError("negative joint mass")
            if m > 0:
                self.joint[(a, b)] = m
                self.partners[a].append(b)
                rows[a] += m
                cols[b] += m
        rank = {b: j for j, b in enumerate(right.atoms)}
        for bs in self.partners.values():
            bs.sort(key=rank.__getitem__)
        if sum(rows.values()) != 1:
            raise ValueError("joint masses must sum to 1")
        for a in left.atoms:
            if rows[a] != left.mass(a):
                raise ValueError(f"left marginal mismatch at {a!r}")
        for b in right.atoms:
            if cols[b] != right.mass(b):
                raise ValueError(f"right marginal mismatch at {b!r}")
        self.alpha: Fraction = min(self.joint.values())

    def mass(self, a: Atom, b: Atom) -> Fraction:
        if (a, b) not in self.joint:
            # off the support; the marginals raise UnknownAtom for a foreign atom
            self.left.mass(a)
            self.right.mass(b)
            return Fraction(0)
        return self.joint[(a, b)]

    def product_pair_mass(
        self, xs: Sequence[Atom], ys: Sequence[Atom]
    ) -> Fraction:
        """Mass of a pair of points under the coordinatewise product joint."""
        if len(xs) != len(ys):
            raise ValueError("point dimension mismatch")
        total = Fraction(1)
        for a, b in zip(xs, ys):
            total *= self.mass(a, b)
        return total

    @staticmethod
    def independent(left: FiniteProbSpace, right: FiniteProbSpace) -> "CorrelatedSpace":
        joint = {
            (a, b): left.mass(a) * right.mass(b)
            for a in left.atoms
            for b in right.atoms
        }
        return CorrelatedSpace(left, right, joint)


class ProductFunction:
    """A [0,1]-valued function on the R-fold product of a base space."""

    def __init__(
        self,
        base: FiniteProbSpace,
        r: int,
        values: Mapping[tuple[Atom, ...], Fraction],
    ) -> None:
        if r < 1:
            raise ValueError("R must be >= 1")
        self.base = base
        self.r = r
        self.values: dict[tuple[Atom, ...], Fraction] = {}
        for point in product_points(base, r):
            if point not in values:
                raise ValueError(f"missing value at {point!r}")
            v = Fraction(values[point])
            if not 0 <= v <= 1:
                raise ValueError(f"value at {point!r} outside [0,1]")
            self.values[point] = v

    @staticmethod
    def indicator(
        base: FiniteProbSpace, r: int, pred: Callable[[tuple[Atom, ...]], bool]
    ) -> "ProductFunction":
        vals = {
            p: Fraction(1) if pred(p) else Fraction(0) for p in product_points(base, r)
        }
        return ProductFunction(base, r, vals)

    @staticmethod
    def constant(base: FiniteProbSpace, r: int, c: Fraction) -> "ProductFunction":
        return ProductFunction(base, r, {p: c for p in product_points(base, r)})

    def __call__(self, point: tuple[Atom, ...]) -> Fraction:
        return self.values[point]

    def mean(self) -> Fraction:
        return sum(
            (product_mass(self.base, p) * v for p, v in self.values.items()),
            Fraction(0),
        )

    def second_moment(self) -> Fraction:
        return sum(
            (product_mass(self.base, p) * v * v for p, v in self.values.items()),
            Fraction(0),
        )

    def variance(self) -> Fraction:
        mu = self.mean()
        return self.second_moment() - mu * mu


def efron_stein_norms(f: ProductFunction) -> dict[frozenset[int], Fraction]:
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


def efron_stein_influences(
    f: ProductFunction, d: int
) -> list[tuple[Fraction, Fraction]]:
    """Per-coordinate (influence, degree-<=d influence), exact rationals."""
    if d > f.r:
        raise ValueError("degree bound exceeds R")
    norms = efron_stein_norms(f)
    out: list[tuple[Fraction, Fraction]] = []
    for i in range(f.r):
        full = Fraction(0)
        low = Fraction(0)
        for s, val in norms.items():
            if i in s:
                full += val
                if len(s) <= d:
                    low += val
        out.append((full, low))
    return out


def maximal_correlation(cs: CorrelatedSpace) -> float:
    """Second-largest singular value of nu(a,b)/sqrt(mu1(a) mu2(b)).

    Absolute error <= 1e-9 on the small matrices that occur here. The
    top singular value of the normalized joint matrix is always 1 (with
    sqrt-marginal singular vectors), so the correlation is the next one.
    """
    for a in cs.left.atoms:
        if cs.left.mass(a) == 0:
            raise DegenerateMarginal(f"left atom {a!r} has zero mass")
    for b in cs.right.atoms:
        if cs.right.mass(b) == 0:
            raise DegenerateMarginal(f"right atom {b!r} has zero mass")
    if len(cs.left) < 2 or len(cs.right) < 2:
        return 0.0
    q = np.zeros((len(cs.left), len(cs.right)))
    for i, a in enumerate(cs.left.atoms):
        for j, b in enumerate(cs.right.atoms):
            denom = math.sqrt(float(cs.left.mass(a)) * float(cs.right.mass(b)))
            q[i, j] = float(cs.mass(a, b)) / denom
    singular = np.linalg.svd(q, compute_uv=False)
    return float(min(1.0, singular[1]))


def support_is_connected(cs: CorrelatedSpace) -> bool:
    """Connectivity of the bipartite graph on atoms with nonzero joint mass."""
    left = [a for a in cs.left.atoms if cs.left.mass(a) > 0]
    right = [b for b in cs.right.atoms if cs.right.mass(b) > 0]
    if not left or not right:
        return False
    seen_l = {left[0]}
    seen_r: set[Atom] = set()
    frontier = [("L", left[0])]
    while frontier:
        side, atom = frontier.pop()
        if side == "L":
            for b in right:
                if b not in seen_r and cs.mass(atom, b) > 0:
                    seen_r.add(b)
                    frontier.append(("R", b))
        else:
            for a in left:
                if a not in seen_l and cs.mass(a, atom) > 0:
                    seen_l.add(a)
                    frontier.append(("L", a))
    return len(seen_l) == len(left) and len(seen_r) == len(right)


def connectedness_bound(cs: CorrelatedSpace) -> float:
    """Upper bound 1 - alpha^2/2 on the maximal correlation.

    Valid whenever the bipartite support graph is connected; raises
    DisconnectedSupport otherwise.
    """
    if not support_is_connected(cs):
        raise DisconnectedSupport("support graph is not connected")
    return float(1 - Fraction(cs.alpha) ** 2 / 2)


def mixture_correlation_bound(rho1: float, rho2: float, delta: float) -> float:
    """Correlation bound for a delta-mixture of two correlated spaces
    sharing a marginal: sqrt(delta rho1^2 + (1-delta) rho2^2)."""
    if not (0 <= rho1 <= 1 and 0 <= rho2 <= 1 and 0 <= delta <= 1):
        raise ValueError("arguments must lie in [0,1]")
    return math.sqrt(delta * rho1 * rho1 + (1 - delta) * rho2 * rho2)


# -- Gaussian quantities --------------------------------------------------

_NORMAL_BOX = 8.0


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection; deterministic."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    lo, hi = -13.0, 13.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def _gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (xs + 1.0), half * ws


def gamma_rho(rho: float, a: float, b: float) -> float:
    """Pr[X <= Phi^-1(a), Y >= Phi^-1(1-b)] for rho-correlated Gaussians.

    Deterministic tensor-product Gauss-Legendre quadrature on the box
    [-8, 8]^2, refined until two successive node counts agree within
    1e-7; absolute error <= 1e-6 for |rho| bounded away from 1.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1,1)")
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must be in (0,1)")
    x_hi = min(normal_quantile(a), _NORMAL_BOX)
    y_lo = max(normal_quantile(1.0 - b), -_NORMAL_BOX)
    if x_hi <= -_NORMAL_BOX or y_lo >= _NORMAL_BOX:
        return 0.0
    det = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def integrate(n: int) -> float:
        xs, wx = _gauss_legendre(n, -_NORMAL_BOX, x_hi)
        ys, wy = _gauss_legendre(n, y_lo, _NORMAL_BOX)
        # joint exponent is a nonnegative quadratic form, so exp stays in [0,1]
        quad = (
            np.square(xs)[:, None]
            - 2.0 * rho * np.outer(xs, ys)
            + np.square(ys)[None, :]
        )
        vals = norm * np.exp(-quad / (2.0 * det)) * wx[:, None] * wy[None, :]
        return float(vals.sum())

    prev = integrate(48)
    for n in (96, 192, 384):
        cur = integrate(n)
        if abs(cur - prev) < 1e-7:
            return cur
        prev = cur
    return prev


def sheppard_gamma_half(rho: float) -> float:
    """Closed form for the balanced case: 1/4 + arcsin(-rho)/(2 pi)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must be in [-1,1]")
    return 0.25 + math.asin(-rho) / (2.0 * math.pi)
