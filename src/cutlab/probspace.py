"""Finite probability spaces, correlated pairs of them,
orthogonal-decomposition influences, and Gaussian quadrant probabilities.

Masses are exact Fractions so that the decomposition identities hold with
rational equality. The exact maximal correlations and least joint masses
of the tests' spaces are proved next to the spaces, in ``gadgets``.
Gaussian quantities are floats: ``gamma_rho`` is within 1.1e-14 of a
30-digit reference for |rho| <= 0.999, an absolute bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter
from statistics import NormalDist
from typing import Callable, Iterator, Mapping, Sequence

from .errors import UnknownAtom
from .graphs import _over_lcm

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
        # integer products, reduced once: a Fraction product reduces at
        # every step
        num = den = 1
        for a, b in zip(xs, ys):
            m = self.mass(a, b)
            num *= m.numerator
            den *= m.denominator
        return Fraction(num, den)

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


def efron_stein_influences(
    f: ProductFunction, d: int
) -> list[tuple[Fraction, Fraction]]:
    """Per-coordinate (influence, degree-<=d influence), exact rationals.

    The orthogonal parts f = sum_S f_S under the (possibly nonuniform)
    product measure give m_T = E[(E[f | x_T])^2] = sum_{U <= T} |f_U|^2, so
    |f_S|^2 = sum_{T <= S} (-1)^{|S|-|T|} m_T by Moebius inversion. The
    influence of i is m_[R] - m_{[R]-i}; its degree-<=d part needs m_T only
    for |T| <= d. Each m_T is one pass over the points grouped by x_T.
    """
    r, base = f.r, f.base
    if not 0 <= d <= r:
        raise ValueError(f"degree bound {d} outside 0..R = 0..{r}")
    # masses and values as integers over common denominators
    mass_den, masses = _over_lcm([base.mass(a) for a in base.atoms])
    atom_weight = dict(zip(base.atoms, masses))
    val_den, values = _over_lcm(f.values.values())
    rows = []
    for point, val in zip(f.values, values):
        w = math.prod(map(atom_weight.__getitem__, point))
        if w:
            rows.append((point, w, w * val))

    @functools.cache
    def moment(t: tuple[int, ...]) -> Fraction:
        # E[f | x_T = z] = wf[z] / (w[z] * val_den), and w[z] is the integer
        # mass W(z) of z times mass_den^(r-|T|), where W(z) divides wf[z]: so
        # each wf[z]^2 / w[z] is an integer over mass_den^(r-|T|)
        key = itemgetter(*t) if t else lambda point: ()
        w, wf = {}, {}
        for point, pw, pwf in rows:
            z = key(point)
            w[z] = w.get(z, 0) + pw
            wf[z] = wf.get(z, 0) + pwf
        spare = mass_den ** (r - len(t))
        total = sum(wf[z] ** 2 * spare // w[z] for z in w)
        return Fraction(total, spare * mass_den**r * val_den**2)

    coords = tuple(range(r))
    low = [Fraction(0)] * r
    for k in range(1, d + 1):
        for s in itertools.combinations(coords, k):
            norm = sum(
                (-1) ** (k - j) * moment(t)
                for j in range(k + 1)
                for t in itertools.combinations(s, j)
            )
            for i in s:
                low[i] += norm
    full = moment(coords)
    return [(full - moment(coords[:i] + coords[i + 1 :]), low[i]) for i in coords]


# -- Gaussian quantities --------------------------------------------------


# the standard normal quantile (Wichura's AS241): within 2e-15 of a
# 50-digit reference from p = 1e-15 to 1 - 1e-9, and exactly 0 at p = 1/2
normal_quantile = NormalDist().inv_cdf


def gamma_rho(rho: float, a: float, b: float) -> float:
    """Pr[X <= x, Y >= y] for rho-correlated Gaussians, x = Phi^-1(a) and
    y = Phi^-1(1-b).

    Plackett's identity d/dr Pr[X <= x, Y <= y] = phi_r(x, y), integrated
    from r = 0 with r = sin t, gives Pr[X <= x, Y >= y] =
    Phi(x)(1 - Phi(y)) - (1/2pi) int_0^{arcsin rho} exp(-q(t)) dt, where
    Phi(x)(1 - Phi(y)) = a b and q(t) = (x^2 + y^2 - 2xy sin t) / (2 cos^2 t).
    With s the sign of rho, q(t) = (x - sy)^2 / (2 cos^2 t) + s xy / (1 + |sin t|),
    which stays accurate as |rho| -> 1. The integral is composite Simpson,
    doubling the intervals from 16 until two estimates agree within 1e-12
    (or 2^20 intervals are reached). Over 891 points with |rho| <= 0.999
    and a, b in [0.001, 0.999] it is within 1.1e-14 of a 30-digit
    reference; at a = b = 1/2 the integrand is 1 and this is Sheppard's
    formula 1/4 - arcsin(rho)/(2pi). The result is clamped to the Frechet
    bounds [max(0, a + b - 1), min(a, b)] that every joint probability with
    these marginals obeys: in the tails a b and the integral nearly cancel,
    and the difference can round past them (at rho = 0.9 and a = b = 1e-12
    it would be -3.6e-26).

    The error bound is absolute, not relative. Where the probability is
    tiny, that cancellation leaves few correct digits: against 40-digit
    references, (rho, a, b) = (0.5, 1e-12, 0.5) is off by 1.2e-20, which
    is 6.6e-4 of the value, and (0.9, 1e-6, 1e-6), about 1.2e-102, comes
    out 0.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must be in (-1,1)")
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must be in (0,1)")
    x, y = normal_quantile(a), normal_quantile(1.0 - b)
    sign = math.copysign(1.0, rho)
    gap, cross = (x - sign * y) ** 2 / 2.0, sign * x * y

    def density(t: float) -> float:
        return math.exp(-gap / math.cos(t) ** 2 - cross / (1.0 + abs(math.sin(t))))

    top = math.asin(rho)
    n, h = 8, top / 8
    trap = h * (0.5 * (density(0.0) + density(top)) + sum(density(i * h) for i in range(1, n)))
    simpson = None
    while n < 1 << 20:
        # halve the step: the new points are the old intervals' midpoints
        old, trap = trap, 0.5 * trap + 0.5 * h * sum(density((i + 0.5) * h) for i in range(n))
        n, h = 2 * n, 0.5 * h
        prev, simpson = simpson, (4.0 * trap - old) / 3.0
        if prev is not None and abs(simpson - prev) <= 1e-12:
            break
    return min(max(a * b - simpson / (2.0 * math.pi), a + b - 1.0, 0.0), a, b)
