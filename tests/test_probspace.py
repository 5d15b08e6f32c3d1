import itertools
import math
import random
from fractions import Fraction

import pytest

from cutlab.errors import DegenerateMarginal, DisconnectedSupport, UnknownAtom
from cutlab.gadgets import edge_noise_space, fire_noise_space, star_noise_space, star_space
from cutlab.probspace import (
    CorrelatedSpace,
    FiniteProbSpace,
    ProductFunction,
    connectedness_bound,
    efron_stein_influences,
    efron_stein_norms,
    gamma_rho,
    maximal_correlation,
    mixture_correlation_bound,
    normal_cdf,
    normal_quantile,
    product_mass,
    product_points,
    sheppard_gamma_half,
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
        sp = star_space(3, Fraction(1, 20))
        assert product_mass(sp, ("*", 0)) == Fraction(1, 20) * Fraction(19, 60)

    def test_total_mass_one(self):
        sp = star_space(2, Fraction(1, 5))
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
        sp = star_space(2, Fraction(1, 5))
        values = {p: Fraction(rng.randint(0, 3), 3) for p in product_points(sp, 2)}
        f = ProductFunction(sp, 2, values)
        norms = efron_stein_norms(f)
        assert sum(norms.values(), Fraction(0)) == f.second_moment()
        var = f.variance()
        for full, low in efron_stein_influences(f, 1):
            assert low <= full <= var


class TestMaximalCorrelation:
    def test_independent_joint_is_zero(self):
        sp = FiniteProbSpace.uniform([0, 1, 2])
        cs = CorrelatedSpace.independent(sp, sp)
        assert abs(maximal_correlation(cs)) < 1e-9

    def test_edge_noise_r2_is_half(self):
        cs = edge_noise_space(2)
        assert cs.joint[(0, 1)] == Fraction(3, 8)
        assert cs.joint[(0, 0)] == Fraction(1, 8)
        assert abs(maximal_correlation(cs) - 0.5) < 1e-9

    def test_star_noise_below_connectedness_bound(self):
        cs = star_noise_space(2, Fraction(1, 4))
        rho = maximal_correlation(cs)
        assert rho <= 1 - (1 / 4) ** 4 / 2 + 1e-12

    def test_degenerate_marginal_rejected(self):
        left = FiniteProbSpace([0, 1], {0: Fraction(1), 1: Fraction(0)})
        right = FiniteProbSpace.uniform([0, 1])
        joint = {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        cs = CorrelatedSpace(left, right, joint)
        with pytest.raises(DegenerateMarginal):
            maximal_correlation(cs)

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
        assert abs(maximal_correlation(cs) - maximal_correlation(shuffled)) < 1e-9


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


class TestConnectednessBound:
    def test_formula_alpha_half(self):
        left = FiniteProbSpace([0], {0: Fraction(1)})
        right = FiniteProbSpace.uniform([0, 1])
        cs = CorrelatedSpace(
            left, right, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        )
        assert cs.alpha == Fraction(1, 2)
        assert connectedness_bound(cs) == pytest.approx(7 / 8, abs=1e-12)

    def test_star_noise_eps_twentieth(self):
        cs = star_noise_space(3, Fraction(1, 20))
        assert cs.alpha == Fraction(1, 400)
        assert connectedness_bound(cs) == pytest.approx(1 - 1 / 320000, abs=1e-15)

    def test_disconnected_support_rejected(self):
        sp = FiniteProbSpace.uniform([0, 1])
        cs = CorrelatedSpace(
            sp, sp, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        )
        with pytest.raises(DisconnectedSupport):
            connectedness_bound(cs)

    @pytest.mark.parametrize(
        "cs",
        [
            star_noise_space(2, Fraction(1, 5)),
            star_noise_space(3, Fraction(1, 20)),
            fire_noise_space(6, Fraction(1, 100)),
        ],
    )
    def test_dominates_svd_value(self, cs):
        assert maximal_correlation(cs) <= connectedness_bound(cs) + 1e-9


class TestMixtureBound:
    def test_degenerate_delta(self):
        assert mixture_correlation_bound(0.7, 0.2, 1.0) == pytest.approx(0.7)

    def test_edge_noise_rho_bound(self):
        # one-step successor is fully correlated, resample is independent
        for r in range(2, 7):
            bound = mixture_correlation_bound(1.0, 0.0, 1 - 1 / r)
            assert bound == pytest.approx(math.sqrt(1 - 1 / r))
            assert maximal_correlation(edge_noise_space(r)) <= bound + 1e-9

    def test_monotone_on_grid(self):
        grid = [i / 10 for i in range(11)]
        for delta in grid:
            prev = -1.0
            for rho1 in grid:
                cur = mixture_correlation_bound(rho1, 0.3, delta)
                assert cur >= prev - 1e-15
                prev = cur


class TestGammaRho:
    def test_independent_case_is_product(self):
        for a, b in [(0.5, 0.5), (0.3, 0.8), (0.1, 0.2)]:
            assert gamma_rho(0.0, a, b) == pytest.approx(a * b, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, math.sqrt(3) / 2, -math.sqrt(3) / 2])
    def test_matches_sheppard_closed_form(self, rho):
        assert gamma_rho(rho, 0.5, 0.5) == pytest.approx(
            sheppard_gamma_half(rho), abs=1e-6
        )

    @pytest.mark.parametrize("rho", [0.9, -0.9, 0.99, -0.99])
    def test_stable_near_unit_correlation(self, rho):
        assert gamma_rho(rho, 0.5, 0.5) == pytest.approx(
            sheppard_gamma_half(rho), abs=1e-6
        )

    def test_sheppard_reference_values(self):
        assert sheppard_gamma_half(math.sqrt(3) / 2) == pytest.approx(1 / 12, abs=1e-15)
        assert sheppard_gamma_half(0.5) == pytest.approx(1 / 6, abs=1e-15)

    def test_quantile_inverts_cdf(self):
        for p in (0.01, 0.1, 0.5, 0.9, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)
