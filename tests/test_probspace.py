import itertools
import math
import random
from fractions import Fraction
from statistics import NormalDist

import pytest

import helpers
from cutlab.errors import UnknownAtom
from cutlab.gadgets import (
    STAR,
    edge_noise_alpha,
    edge_noise_rho,
    edge_noise_space,
    fire_noise_space,
    star_noise_space,
    starred_noise_alpha,
    starred_noise_rho,
)
from cutlab.probspace import (
    CorrelatedSpace,
    FiniteProbSpace,
    ProductFunction,
    efron_stein_influences,
    gamma_rho,
    normal_quantile,
    product_mass,
    product_points,
)


def brute_influence(f: ProductFunction) -> list[Fraction]:
    """Independent oracle: expected conditional variance per coordinate."""
    base, r = f.base, f.r
    out = []
    for i in range(r):
        total = Fraction(0)
        for rest in itertools.product(base.atoms, repeat=r - 1):
            rest_mass = Fraction(1)
            for a in rest:
                rest_mass *= base.mass(a)
            mean = Fraction(0)
            second = Fraction(0)
            for a in base.atoms:
                point = rest[:i] + (a,) + rest[i:]
                val = f(point)
                mean += base.mass(a) * val
                second += base.mass(a) * val * val
            total += rest_mass * (second - mean * mean)
        out.append(total)
    return out


class TestProductMass:
    def test_uniform_point(self):
        sp = FiniteProbSpace.uniform([0, 1, 2])
        assert product_mass(sp, (0, 2)) == Fraction(1, 9)

    def test_star_mass_product(self):
        sp = star_noise_space(3, Fraction(1, 20)).left
        assert product_mass(sp, ("*", 0)) == Fraction(1, 20) * Fraction(19, 60)

    def test_total_mass_one(self):
        sp = star_noise_space(2, Fraction(1, 5)).left
        total = sum(product_mass(sp, p) for p in product_points(sp, 3))
        assert total == 1


class TestEfronSteinInfluences:
    def test_constant_function_has_zero_influence(self):
        sp = FiniteProbSpace.uniform([0, 1])
        f = ProductFunction.constant(sp, 3, Fraction(1, 2))
        for full, low in efron_stein_influences(f, 1):
            assert full == 0 and low == 0

    def test_dictator_on_three_atoms(self):
        sp = FiniteProbSpace.uniform([0, 1, 2])
        f = ProductFunction.indicator(sp, 2, lambda p: p[0] == 0)
        infl = efron_stein_influences(f, 2)
        assert infl[0][0] == Fraction(2, 9)
        assert infl[1][0] == 0
        assert infl == [(Fraction(2, 9), Fraction(2, 9)), (Fraction(0), Fraction(0))]

    def test_xor_indicator(self):
        sp = FiniteProbSpace.uniform([0, 1])
        f = ProductFunction.indicator(sp, 2, lambda p: (p[0] + p[1]) % 2 == 1)
        infl = efron_stein_influences(f, 1)
        assert [full for full, _ in infl] == [Fraction(1, 4), Fraction(1, 4)]
        assert [low for _, low in infl] == [Fraction(0), Fraction(0)]

    @pytest.mark.parametrize("atoms,r", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_matches_conditional_variance_oracle(self, atoms, r):
        rng = random.Random(atoms * 10 + r)
        masses = [Fraction(rng.randint(1, 5)) for _ in range(atoms)]
        total = sum(masses)
        sp = FiniteProbSpace(
            list(range(atoms)), {i: m / total for i, m in enumerate(masses)}
        )
        values = {
            p: Fraction(rng.randint(0, 4), 4) for p in product_points(sp, r)
        }
        f = ProductFunction(sp, r, values)
        infl = efron_stein_influences(f, r)
        oracle = brute_influence(f)
        assert [full for full, _ in infl] == oracle

    def test_parseval_and_monotone_bounds(self):
        rng = random.Random(99)
        sp = star_noise_space(2, Fraction(1, 5)).left
        values = {p: Fraction(rng.randint(0, 3), 3) for p in product_points(sp, 2)}
        f = ProductFunction(sp, 2, values)
        norms = helpers.reference_efron_stein_norms(f)
        assert sum(norms.values(), Fraction(0)) == helpers.second_moment(f)
        var = helpers.variance(f)
        for full, low in efron_stein_influences(f, 1):
            assert low <= full <= var


def assert_matches_reference(f: ProductFunction) -> None:
    """Both outputs at every degree bound 0..R equal the sums of the
    reference part norms."""
    norms = helpers.reference_efron_stein_norms(f)
    for d in range(f.r + 1):
        expect = [
            (
                sum((v for s, v in norms.items() if i in s), Fraction(0)),
                sum((v for s, v in norms.items() if i in s and len(s) <= d), Fraction(0)),
            )
            for i in range(f.r)
        ]
        assert efron_stein_influences(f, d) == expect, d


def random_space(rng: random.Random, atoms: int, zero_atom: bool = False) -> FiniteProbSpace:
    masses = [Fraction(rng.randint(1, 7)) for _ in range(atoms)]
    if zero_atom:
        masses[rng.randrange(atoms)] = Fraction(0)
    total = sum(masses)
    return FiniteProbSpace(list(range(atoms)), {i: m / total for i, m in enumerate(masses)})


class TestLowDegreeInfluence:
    """Both outputs at every degree bound against the reference norms."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_nonuniform_spaces(self, seed):
        rng = random.Random(1000 + seed)
        sp = random_space(rng, rng.randint(2, 4))
        r = rng.randint(1, 3)
        values = {
            p: Fraction(rng.randint(0, 6), rng.choice([1, 6, 7, 10]))
            for p in product_points(sp, r)
        }
        values = {p: min(v, Fraction(1)) for p, v in values.items()}
        f = ProductFunction(sp, r, values)
        assert_matches_reference(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_mass_atom(self, seed):
        rng = random.Random(2000 + seed)
        sp = random_space(rng, 3, zero_atom=True)
        values = {p: Fraction(rng.randint(0, 5), 5) for p in product_points(sp, 3)}
        f = ProductFunction(sp, 3, values)
        assert_matches_reference(f)

    @pytest.mark.parametrize("seed", range(3))
    def test_star_space_indicator_blocks(self, seed):
        rng = random.Random(3000 + seed)
        sp = star_noise_space(3, Fraction(1, 20)).left
        members = {p for p in product_points(sp, 4) if rng.random() < 0.4}
        f = ProductFunction.indicator(sp, 4, lambda p: p in members)
        assert_matches_reference(f)

    def test_star_space_dictator_block(self):
        sp = star_noise_space(3, Fraction(1, 20)).left
        f = ProductFunction.indicator(sp, 4, lambda p: p[2] in ("*", 0))
        assert_matches_reference(f)

    @pytest.mark.parametrize("d", [-1, 3])
    def test_degree_bound_outside_range(self, d):
        sp = FiniteProbSpace.uniform([0, 1])
        f = ProductFunction.constant(sp, 2, Fraction(1, 2))
        with pytest.raises(ValueError):
            efron_stein_influences(f, d)


class TestMaximalCorrelation:
    """The numpy SVD reference in ``helpers`` on small spaces."""

    def test_independent_joint_is_zero(self):
        sp = FiniteProbSpace.uniform([0, 1, 2])
        cs = CorrelatedSpace.independent(sp, sp)
        assert abs(helpers.maximal_correlation(cs)) < 1e-9

    def test_edge_noise_r2_is_half(self):
        cs = edge_noise_space(2)
        assert cs.joint[(0, 1)] == Fraction(3, 8)
        assert cs.joint[(0, 0)] == Fraction(1, 8)
        assert abs(helpers.maximal_correlation(cs) - 0.5) < 1e-9

    def test_star_noise_below_connectedness_bound(self):
        cs = star_noise_space(2, Fraction(1, 4))
        rho = helpers.maximal_correlation(cs)
        assert rho <= 1 - (1 / 4) ** 4 / 2 + 1e-12

    def test_degenerate_marginal_rejected(self):
        left = FiniteProbSpace([0, 1], {0: Fraction(1), 1: Fraction(0)})
        right = FiniteProbSpace.uniform([0, 1])
        joint = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        cs = CorrelatedSpace(left, right, joint)
        with pytest.raises(ValueError):
            helpers.maximal_correlation(cs)

    def test_invariant_under_atom_permutation(self):
        cs = edge_noise_space(3)
        base = cs.left
        perm = [2, 0, 1]
        relabel = {a: perm[i] for i, a in enumerate(base.atoms)}
        shuffled = CorrelatedSpace(
            base,
            base,
            {(relabel[a], b): m for (a, b), m in cs.joint.items()},
        )
        assert abs(helpers.maximal_correlation(cs) - helpers.maximal_correlation(shuffled)) < 1e-9


    def test_joint_keeps_support_in_atom_order(self):
        left = FiniteProbSpace.uniform([0, 1])
        right = FiniteProbSpace([0, 1], {0: Fraction(1, 4), 1: Fraction(3, 4)})
        joint = {(0, 1): Fraction(1, 4), (1, 0): Fraction(0), (1, 1): Fraction(1, 2),
                 (0, 0): Fraction(1, 4)}
        cs = CorrelatedSpace(left, right, joint)
        assert set(cs.joint) == {(0, 0), (0, 1), (1, 1)}
        assert cs.partners == {0: [0, 1], 1: [1]}
        assert cs.mass(1, 0) == 0 and cs.alpha == Fraction(1, 4)
        with pytest.raises(UnknownAtom):
            cs.mass(2, 0)
        with pytest.raises(UnknownAtom):
            CorrelatedSpace(left, right, {**joint, (0, 2): Fraction(0)})


EPS_GRID = [Fraction(1, 100), Fraction(1, 20), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2),
            Fraction(9, 10)]
ALPHA_EPS_GRID = [Fraction(1, 1000), *EPS_GRID, Fraction(2, 3), Fraction(99, 100)]


class TestExactCorrelation:
    """``gadgets.edge_noise_rho`` and ``starred_noise_rho`` against the exact
    certificate and the SVD reference in ``helpers``."""

    CERTIFIED = (
        [(edge_noise_space(r), edge_noise_rho(r)) for r in range(2, 7)]
        + [
            (star_noise_space(r, eps), starred_noise_rho(r, eps))
            for r in range(2, 5)
            for eps in (Fraction(1, 20), Fraction(1, 3))
        ]
        + [
            (fire_noise_space(big_b, eps), starred_noise_rho(big_b, eps))
            for big_b in range(2, 5)
            for eps in (Fraction(1, 20), Fraction(1, 3))
        ]
    )

    @pytest.mark.parametrize("cs, rho", CERTIFIED)
    def test_certificate_holds(self, cs, rho):
        assert helpers.certifies_maximal_correlation(cs, rho)

    def test_certificate_refuses_other_values(self):
        # edge noise at r = 3 has rho = 2/3: 1/2 is no singular value, and
        # 3/4 is none either, though every other one lies below it
        cs = edge_noise_space(3)
        assert helpers.certifies_maximal_correlation(cs, Fraction(2, 3))
        assert not helpers.certifies_maximal_correlation(cs, Fraction(1, 2))
        assert not helpers.certifies_maximal_correlation(cs, Fraction(3, 4))

    def test_matches_reference_svd(self):
        pairs = [(edge_noise_space(r), edge_noise_rho(r)) for r in range(1, 12)]
        pairs += [
            (star_noise_space(r, eps), starred_noise_rho(r, eps))
            for r in range(1, 8)
            for eps in EPS_GRID
        ]
        pairs += [
            (fire_noise_space(big_b, eps), starred_noise_rho(big_b, eps))
            for big_b in range(1, 8)
            for eps in EPS_GRID[::2] + EPS_GRID[-1:]
        ]
        assert len(pairs) == 11 + 42 + 28
        for cs, rho in pairs:
            assert abs(helpers.maximal_correlation(cs) - rho) < 1e-9


def mossel_bound(alpha: Fraction) -> float:
    """Mossel's bound 1 - alpha^2/2 on the maximal correlation of a space
    with connected support, as ``correlation`` prints it."""
    return float(1 - alpha**2 / 2)


class TestConnectednessBound:
    """The closed-form least joint masses in ``gadgets`` and the connected
    supports that make 1 - alpha^2/2 a bound, against the built spaces."""

    def test_formula_alpha_half(self):
        left = FiniteProbSpace([0], {0: Fraction(1)})
        right = FiniteProbSpace.uniform([0, 1])
        cs = CorrelatedSpace(
            left, right, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        )
        assert cs.alpha == Fraction(1, 2)
        assert self.pairwise_connected(cs)
        assert mossel_bound(cs.alpha) == pytest.approx(7 / 8, abs=1e-12)

    def test_star_noise_eps_twentieth(self):
        cs = star_noise_space(3, Fraction(1, 20))
        assert cs.alpha == starred_noise_alpha(3, Fraction(1, 20)) == Fraction(1, 400)
        assert mossel_bound(cs.alpha) == pytest.approx(1 - 1 / 320000, abs=1e-15)

    def test_disconnected_support_rejected(self):
        # the hypothesis matters: on a disconnected support rho can be 1,
        # above 1 - alpha^2/2, and the reference refuses that support
        sp = FiniteProbSpace.uniform([0, 1])
        cs = CorrelatedSpace(
            sp, sp, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        )
        assert not self.pairwise_connected(cs)
        assert helpers.maximal_correlation(cs) > mossel_bound(cs.alpha)

    @staticmethod
    def pairwise_connected(cs):
        """Union-find over every left x right atom pair of positive mass."""
        live = [("L", a) for a in cs.left.atoms if cs.left.mass(a) > 0]
        live += [("R", b) for b in cs.right.atoms if cs.right.mass(b) > 0]
        root = {v: v for v in live}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a in cs.left.atoms:
            for b in cs.right.atoms:
                if cs.mass(a, b) > 0:
                    root[find(("L", a))] = find(("R", b))
        return len({find(v) for v in live}) == 1

    def test_support_connectivity_matches_pairwise(self):
        # the closed-form tests lean on this reference, so it must tell
        # connected supports from disconnected ones: random sparse joints
        # with a zero-mass atom on each side give both verdicts
        rng = random.Random(5)
        verdicts = set()
        for _ in range(40):
            pairs = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(1, 8))}
            joint = {pair: Fraction(1, len(pairs)) for pair in pairs}
            rows = {a: sum(m for (x, _), m in joint.items() if x == a) for a in range(6)}
            cols = {b: sum(m for (_, y), m in joint.items() if y == b) for b in range(6)}
            cs = CorrelatedSpace(
                FiniteProbSpace(range(6), rows), FiniteProbSpace(range(6), cols), joint
            )
            verdicts.add(self.pairwise_connected(cs))
        assert verdicts == {True, False}

    def test_edge_alpha_closed_form(self):
        for r in range(1, 13):
            cs = edge_noise_space(r)
            assert cs.alpha == edge_noise_alpha(r) == Fraction(1, r**3), r
            assert self.pairwise_connected(cs), r

    @pytest.mark.parametrize("space", [star_noise_space, fire_noise_space])
    def test_starred_alpha_closed_form(self, space):
        for n in range(1, 9):
            for eps in ALPHA_EPS_GRID:
                cs = space(n, eps)
                assert cs.alpha == starred_noise_alpha(n, eps), (n, eps)
                assert self.pairwise_connected(cs), (n, eps)

    @pytest.mark.parametrize(
        "space, n, eps, branch, alpha",
        [
            (star_noise_space, 2, Fraction(1, 20), 0, Fraction(1, 400)),
            (star_noise_space, 40, Fraction(1, 20), 1, Fraction(19, 16000)),
            (fire_noise_space, 2, Fraction(9, 10), 2, Fraction(1, 200)),
        ],
        ids=["eps-squared", "eps-one-minus-eps-over-n", "one-minus-eps-squared-over-n"],
    )
    def test_starred_alpha_branches(self, space, n, eps, branch, alpha):
        # each branch of min(eps^2, eps(1-eps)/n, (1-eps)^2/n) is the least
        # at one of these
        branches = [eps * eps, eps * (1 - eps) / n, (1 - eps) ** 2 / n]
        assert min(branches) == branches[branch] == alpha
        assert space(n, eps).alpha == starred_noise_alpha(n, eps) == alpha

    @pytest.mark.parametrize(
        "cs",
        [
            star_noise_space(2, Fraction(1, 5)),
            star_noise_space(3, Fraction(1, 20)),
            fire_noise_space(6, Fraction(1, 100)),
        ],
    )
    def test_dominates_svd_value(self, cs):
        # the closed-form alpha at the space's own n and eps
        alpha = starred_noise_alpha(len(cs.left) - 1, cs.left.mass(STAR))
        assert helpers.maximal_correlation(cs) <= mossel_bound(alpha) + 1e-9


class TestMixtureBound:
    def test_degenerate_delta(self):
        assert helpers.mixture_correlation_bound(0.7, 0.2, 1.0) == pytest.approx(0.7)

    def test_edge_noise_rho_bound(self):
        # one-step successor is fully correlated, resample is independent
        for r in range(2, 7):
            bound = helpers.mixture_correlation_bound(1.0, 0.0, 1 - 1 / r)
            assert bound == pytest.approx(math.sqrt(1 - 1 / r))
            assert edge_noise_rho(r) <= bound

    def test_monotone_on_grid(self):
        grid = [i / 10 for i in range(11)]
        for delta in grid:
            prev = -1.0
            for rho1 in grid:
                cur = helpers.mixture_correlation_bound(rho1, 0.3, delta)
                assert cur >= prev - 1e-15
                prev = cur


class TestGammaRho:
    def test_independent_case_is_product(self):
        for a, b in [(0.5, 0.5), (0.3, 0.8), (0.1, 0.2)]:
            assert gamma_rho(0.0, a, b) == pytest.approx(a * b, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, math.sqrt(3) / 2, -math.sqrt(3) / 2])
    def test_matches_sheppard_closed_form(self, rho):
        assert gamma_rho(rho, 0.5, 0.5) == pytest.approx(
            helpers.sheppard_gamma_half(rho), abs=1e-13
        )

    @pytest.mark.parametrize("rho", [0.9, -0.9, 0.99, -0.99])
    def test_stable_near_unit_correlation(self, rho):
        assert gamma_rho(rho, 0.5, 0.5) == pytest.approx(
            helpers.sheppard_gamma_half(rho), abs=1e-13
        )

    # (rho, a, b) -> Pr[X <= x, Y >= y] to 40 digits, from an mpmath
    # quadrature of phi(u) Pr[Y >= y | X = u] over u <= x at 50 digits,
    # agreeing with Plackett's form to 50
    FORTY_DIGITS = [
        ((0.5, 1e-12, 0.5), "1.814169630141580589852006589373279686085e-17"),
        ((-0.5, 0.3, 0.2), "0.1152472302171160391064964936075858982650"),
        ((0.999, 0.001, 0.999), "6.003028019704635932152927987472131738635e-5"),
    ]

    @pytest.mark.parametrize("point, digits", FORTY_DIGITS, ids=["tail", "negative", "near-one"])
    def test_absolute_error_against_forty_digits(self, point, digits):
        # the contract is absolute: at the tail point the error is 1.2e-20,
        # but that is 6.6e-4 of the value
        assert abs(Fraction(gamma_rho(*point)) - Fraction(digits)) <= Fraction(11, 10**15)

    def test_matches_grid_quadrature(self):
        grid = itertools.product(
            [-0.999, -0.9, -0.5, 0.0, 0.3, 0.9, 0.999],
            [0.001, 0.1, 0.5, 0.8, 0.999],
            [0.001, 0.2, 0.5, 0.9, 0.999],
        )
        for rho, a, b in grid:
            assert gamma_rho(rho, a, b) == pytest.approx(
                helpers.grid_gamma_rho(rho, a, b), abs=1e-8
            ), (rho, a, b)

    def test_within_frechet_bounds(self):
        # a joint probability with marginals a and b lies in
        # [max(0, a + b - 1), min(a, b)]; unclamped, 118 of these points
        # fell outside, the worst -3.6e-26 at rho = 0.9, a = b = 1e-12
        ends = [1e-12, 1e-9, 1e-6, 0.001, 0.5, 0.999, 1 - 1e-9]
        grid = itertools.product([-0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.999], ends, ends)
        for rho, a, b in grid:
            assert max(0.0, a + b - 1.0) <= gamma_rho(rho, a, b) <= min(a, b), (rho, a, b)

    @pytest.mark.parametrize("rho, a, b", [(1.0, 0.5, 0.5), (-1.0, 0.5, 0.5), (0.5, 0.0, 0.5),
                                           (0.5, 0.5, 1.0)])
    def test_arguments_outside_range_refused(self, rho, a, b):
        with pytest.raises(ValueError):
            gamma_rho(rho, a, b)

    def test_sheppard_reference_values(self):
        sheppard = helpers.sheppard_gamma_half
        assert sheppard(math.sqrt(3) / 2) == pytest.approx(1 / 12, abs=1e-15)
        assert sheppard(0.5) == pytest.approx(1 / 6, abs=1e-15)

    def test_quantile_inverts_cdf(self):
        for p in (0.01, 0.1, 0.5, 0.9, 0.999):
            assert NormalDist().cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    # 50-digit roots of Phi(x) = p for the double nearest each p (mpmath)
    @pytest.mark.parametrize(
        "p, x",
        [
            (1e-15, -7.94134532617099677133),
            (1e-12, -7.034483825301131932614),
            (1e-6, -4.753424308822898957339),
            (1 - 1e-9, 5.997807019601637426423),
        ],
    )
    def test_quantile_tails(self, p, x):
        # a bisection on 0.5 (1 + erf(x / sqrt 2)) was off by 3.3e-3 at 1e-15
        assert normal_quantile(p) == pytest.approx(x, rel=1e-14)

    def test_quantile_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0
