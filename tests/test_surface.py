import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffreg.algebra import (
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    eval_momentum,
    log_power_map,
    position_term,
)
from diffreg.coeffs import ONE, PI, gamma_exact, sphere_area
from diffreg.fourier import fourier_formal
from diffreg.numeric import angular_kernel, truncated_ft_numeric
from diffreg import operators, surface
from diffreg.operators import DiffOperator, apply_operator, laplacian_radial
from diffreg.regulate import find_representation, shift_mass
from diffreg.regulate import log_of_ratio
from diffreg.surface import (
    SurfaceExpansion,
    angular_series,
    leading_divergence,
    surface_expansion,
)

from conftest import coefficients


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
    def test_no_laplacian_is_iterated(self, m, monkeypatch):
        # box^m acts in closed form, and the brackets come from one table
        # per seed term: neither steps through laplacian_radial
        calls = []

        def counted(dim, terms):
            calls.append(dim)
            return laplacian_radial(dim, terms)

        for mod in (operators, surface):
            monkeypatch.setattr(mod, "laplacian_radial", counted, raising=False)
        g = position_term(4, 1, -2, 1)
        surface_expansion(DiffOperator.box(m), g)
        apply_operator(DiffOperator.box(m), g)
        assert calls == []

    @pytest.mark.parametrize(
        "n, t, k", [(4, -4, 0), (4, -6, 1), (3, -5, 2), (6, -9, 0), (2, -3, 1)]
    )
    def test_series_is_built_only_to_the_order_kept(self, n, t, k, monkeypatch):
        # each seed term r^a under box^m builds the kernel series to the
        # floor((2 - n - a)/2) + m terms its deepest bracket reads, no further
        rep = find_representation(position_term(n, 1, t, k))
        want = iterated_surface_expansion(rep.L, rep.g)
        lengths = []

        def recorded(dim, order):
            lengths.append(order)
            return angular_series(dim, order)

        monkeypatch.setattr(surface, "angular_series", recorded)
        surface._seed_brackets.cache_clear()
        assert surface_expansion(rep.L, rep.g) == want
        assert sorted(lengths) == sorted(math.floor(Fraction(2 - n - s.rpow, 2)) + rep.L.degree
                                         for s in rep.g.radial)

    def test_bracket_table_keeps_int_exponents(self):
        # the table is typed: an integral Fraction exponent is its own key,
        # so an int exponent reads int entries whatever was cached before
        surface._seed_brackets.cache_clear()
        fresh = repr(surface._seed_brackets(4, -2, 1, 2))
        surface._seed_brackets(4, Fraction(-2), 1, 2)
        assert repr(surface._seed_brackets(4, -2, 1, 2)) == fresh
        surface._seed_brackets.cache_clear()
        surface._seed_brackets(4, Fraction(-2), 1, 2)
        assert repr(surface._seed_brackets(4, -2, 1, 2)) == fresh

    @pytest.mark.parametrize("t, m", [(-20, 9), (-22, 10)])
    def test_deep_target_matches_the_reference(self, t, m):
        # box^9 and box^10 in dim 4: the kernel series needs 9 and 10 terms
        rep = find_representation(position_term(4, 1, t), max_box_power=10)
        assert rep.L.degree == m
        assert surface_expansion(rep.L, rep.g) == iterated_surface_expansion(rep.L, rep.g)

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


def iterated_surface_expansion(L, g):
    """Reference: the brackets of v_j = box^j g by iterating
    laplacian_radial over the unmerged terms, each term's bracket built by
    Coefficient arithmetic, with the kernel series as long as the lowest
    seed term under the highest box power reads."""
    n = g.dim
    omega = sphere_area(n)
    lowest = min((t.rpow for t in g.radial), default=0)
    alphas = angular_series(n, math.floor(Fraction(2 - n - lowest, 2)) + L.degree)
    acc, dropped = {}, []
    for m, cm in L.coeffs:
        if m == 0:
            continue
        v = list(g.radial)
        for j in range(m):
            if j:
                v = laplacian_radial(n, v)
            q = m - 1 - j
            for t in v:
                a, k = t.rpow, t.logpow
                x, top = n - 2 + a, math.floor(Fraction(2 - n - a, 2))
                dropped.append((x + 2 * max(0, top + 1), k))
                base = omega * cm * t.coeff
                shared = (-1) ** (q + 1) * 2 ** k
                for i in range(top + 1):
                    pref = alphas[i] * shared
                    for kk, c in log_power_map(base, k, (pref * (a - 2 * i), pref)):
                        acc.setdefault((x + 2 * i, kk), []).append(
                            MomentumTerm(c, 2 * i + 2 * q))
    entries = []
    for key in sorted(acc):
        val = MomentumFunction.build(n, acc[key])
        if not val.is_zero():
            entries.append((key, val))
    if not dropped:
        return SurfaceExpansion(n, tuple(entries))
    eps_pow = min(mm for mm, _ in dropped)
    log_pow = max(k for mm, k in dropped if mm == eps_pow)
    return SurfaceExpansion(n, tuple(entries), eps_pow, log_pow)


@st.composite
def seeds(draw, n):
    """Radial seeds with integral and fractional exponents, including the
    harmonic r^0 and r^(2-n) whose iterated images die out."""
    exponent = st.one_of(
        st.integers(-n - 4, 3),
        st.sampled_from([0, 2 - n]),
        st.builds(Fraction, st.integers(-30, 10), st.sampled_from([2, 3])),
    )
    nonzero = coefficients().filter(lambda c: not c.is_zero())
    terms = draw(st.lists(st.builds(RadialTerm, nonzero, exponent, st.integers(0, 3)),
                          max_size=4))
    return PositionFunction.build(n, terms)


class TestMatchesIteratedBrackets:
    """surface_expansion from its per-seed tables against the bracket loop
    over iterated Laplacians: equal entries and remainder declaration."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random(self, data):
        n = data.draw(st.integers(1, 10))
        powers = data.draw(st.dictionaries(
            st.integers(0, 4), coefficients().filter(lambda c: not c.is_zero()),
            max_size=3))
        L = DiffOperator.build(powers)
        g = data.draw(seeds(n))
        assert surface_expansion(L, g) == iterated_surface_expansion(L, g)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("lowest", ["dies", "lives"])
    def test_orders_around_the_error(self, n, lowest):
        # box^1 .. box^10, so that the deepest bracket reads from one kernel
        # order up to past eight; the harmonic r^(2-n) dies after one step
        # (and r^0 L after two in dim 2), so when it is the lowest term the
        # next one is the deepest that reads the series
        terms = [RadialTerm(PI, 2 - n, 0), RadialTerm(ONE, 0, 1), RadialTerm(ONE, 3 - n, 1)]
        if lowest == "lives":
            terms.append(RadialTerm(PI, Fraction(-2 * n - 1, 2), 3))
        g = PositionFunction.build(n, terms)
        for m in range(1, 11):
            L = DiffOperator.box(m)
            assert surface_expansion(L, g) == iterated_surface_expansion(L, g), m
