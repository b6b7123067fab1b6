import math
from fractions import Fraction

import pytest

from diffreg.algebra import eval_momentum, position_term
from diffreg.coeffs import PI, gamma_exact
from diffreg.errors import SurfaceOrderError
from diffreg.fourier import fourier_formal
from diffreg.numeric import angular_kernel, truncated_ft_numeric
from diffreg import surface
from diffreg.operators import DiffOperator, laplacian_radial
from diffreg.regulate import find_representation, shift_mass
from diffreg.regulate import log_of_ratio
from diffreg.surface import (
    angular_series,
    leading_divergence,
    surface_expansion,
)


class TestAngularSeries:
    def test_leading_coefficients(self):
        for n in (2, 3, 4, 6):
            alphas = angular_series(n, 4)
            assert alphas[0] == 1
            assert alphas[1] == Fraction(-1, 2 * n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gamma_ratio_definition(self, n):
        # alpha_i = (-1/4)^i Gamma(n/2) / (i! Gamma(n/2 + i)), exactly
        g0, h0 = gamma_exact(Fraction(n, 2))
        want = []
        for i in range(12):
            gi, hi = gamma_exact(Fraction(n, 2) + i)
            assert hi == h0  # the sqrt(pi) parts cancel
            want.append(Fraction(-1, 4) ** i * g0 / (math.factorial(i) * gi))
        assert angular_series(n, 12) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_kernel(self, n):
        alphas = angular_series(n, 12)
        z = 0.3
        series = math.fsum(float(a) * z ** (2 * i) for i, a in enumerate(alphas))
        assert series == pytest.approx(angular_kernel(n, z), rel=1e-14)


class TestPhi4Point:
    @pytest.fixture()
    def se(self):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        return rep, surface_expansion(rep.L, rep.g)

    def test_entries(self, se):
        _, exp = se
        # -2 pi^2 log(eps M) + pi^2, no other collected orders
        e01 = exp.entry(Fraction(0), 1)
        e00 = exp.entry(Fraction(0), 0)
        assert e01 is not None and e00 is not None
        assert e01.local_poly == ((-2 * PI * PI, 0),)
        assert e00.local_poly == ((PI * PI, 0),)
        assert len(exp.entries) == 2

    def test_leading_divergence(self, se):
        _, exp = se
        lead = leading_divergence(exp)
        assert lead is not None
        assert lead.log_pow == 1
        assert lead.value.local_poly == ((-2 * PI * PI, 0),)

    def test_eval_at(self, se):
        _, exp = se
        eps, p, M = 0.1, 1.0, 1.0
        want = -2 * math.pi ** 2 * math.log(eps * M) + math.pi ** 2
        assert exp.eval_at(eps, p, M) == pytest.approx(want, rel=1e-14)

    def test_defect_small(self, se):
        rep, exp = se
        p, M, eps = 1.0, 1.0, 0.05
        trunc, _ = truncated_ft_numeric(rep.target, p, 4, M, eps)
        model = eval_momentum(fourier_formal(rep), p, M) + exp.eval_at(eps, p, M)
        assert abs(trunc - model) < 1.0 * eps ** 2 * abs(math.log(eps))

    def test_mass_shift_leaves_leading_divergence(self, se):
        rep, exp = se
        shifted = shift_mass(rep.g, log_of_ratio(2))
        exp2 = surface_expansion(rep.L, shifted)
        assert leading_divergence(exp2).value == leading_divergence(exp).value


class TestHigherOrder:
    def test_r_minus_6_has_negative_eps_powers(self):
        rep = find_representation(position_term(4, 1, Fraction(-6)))
        exp = surface_expansion(rep.L, rep.g)
        # the deeper singularity produces 1/eps^2 boundary entries
        assert any(m < 0 for (m, _), _ in exp.entries)
        lead = leading_divergence(exp)
        assert lead is not None and lead.log_pow >= 1

    def test_order_guard(self):
        rep = find_representation(position_term(4, 1, Fraction(-6)))
        with pytest.raises(SurfaceOrderError):
            surface_expansion(rep.L, rep.g, order=1)

    def test_identity_part_contributes_nothing(self):
        g = position_term(4, 1, Fraction(-2), 1)
        exp = surface_expansion(DiffOperator.identity(), g)
        assert exp.is_empty()
        assert leading_divergence(exp) is None

    def test_linearity_in_operator(self):
        g = position_term(4, 1, Fraction(-2), 1)
        one_box = surface_expansion(DiffOperator.box(1), g)
        scaled = surface_expansion(DiffOperator.box(1, 3), g)
        for key_val, key_val2 in zip(one_box.entries, scaled.entries):
            (k1, v1), (k2, v2) = key_val, key_val2
            assert k1 == k2
            p, M = 1.3, 1.0
            assert eval_momentum(v2, p, M) == pytest.approx(
                3.0 * eval_momentum(v1, p, M), rel=1e-14
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_last_laplacian_is_not_computed(self, m, monkeypatch):
        # box^m reads v_0 .. v_(m-1), which takes m - 1 Laplacians
        calls = []

        def counted(dim, terms):
            calls.append(dim)
            return laplacian_radial(dim, terms)

        monkeypatch.setattr(surface, "laplacian_radial", counted)
        surface_expansion(DiffOperator.box(m), position_term(4, 1, -2, 1))
        assert len(calls) == m - 1

    @pytest.mark.parametrize(
        "n, t, k", [(4, -4, 0), (4, -6, 1), (3, -5, 2), (6, -9, 0), (2, -3, 1)]
    )
    def test_series_is_built_only_to_the_order_kept(self, n, t, k, monkeypatch):
        # a large order only caps the series; the entries are those of a
        # small one, and the series is never built past the deepest bracket
        rep = find_representation(position_term(n, 1, t, k))
        want = surface_expansion(rep.L, rep.g, order=40)
        lengths = []

        def bounded(dim, order):
            lengths.append(order)
            assert order <= 40, f"series of {order} terms requested"
            return angular_series(dim, order)

        monkeypatch.setattr(surface, "angular_series", bounded)
        assert surface_expansion(rep.L, rep.g, order=10**9) == want
        assert lengths and max(lengths) <= 40

    def test_remainder_declaration(self):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        exp = surface_expansion(rep.L, rep.g)
        assert exp.remainder_eps_pow == 2
        assert exp.remainder_log_pow == 1

    @pytest.mark.parametrize(
        "n, t, k, eps_pow, log_pow",
        [
            (3, -4, 0, 1, 0),  # seed r^-2: n - 2 + a = -1, odd
            (5, -6, 0, 1, 0),  # seed r^-4: odd
            (4, -5, 0, 1, 0),  # seed r^-3: odd
            (3, -3, 0, 2, 1),  # seed r^-1 log: even
            (4, -4, 0, 2, 1),
            (4, -4, 1, 2, 2),  # seed log power 2 at the resonance
        ],
    )
    def test_remainder_declaration_follows_parity(self, n, t, k, eps_pow, log_pow):
        rep = find_representation(position_term(n, 1, Fraction(t), k))
        exp = surface_expansion(rep.L, rep.g)
        assert (exp.remainder_eps_pow, exp.remainder_log_pow) == (eps_pow, log_pow)
        # the observed defect order agrees; a log power only lowers it a little
        p, M = 1.0, 1.0
        formal = eval_momentum(fourier_formal(rep), p, M)
        defects = [
            abs(truncated_ft_numeric(rep.target, p, n, M, eps)[0] - formal
                - exp.eval_at(eps, p, M))
            for eps in (0.02, 0.01)
        ]
        assert math.log2(defects[0] / defects[1]) == pytest.approx(eps_pow, abs=0.3)
