import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffreg.algebra import (
    PositionFunction,
    RadialTerm,
    add,
    back_substitute,
    delta_term,
    eval_momentum,
    log_power_solve,
    position_term,
)
from diffreg.coeffs import Coefficient, LN2, ONE, PI
from diffreg.fourier import term_route
from diffreg.errors import DiffRegError, NotRepresentableError
from diffreg.fourier import fourier_formal
from diffreg import regulate
from diffreg.operators import DiffOperator, apply_operator, box_derivatives
from diffreg.regulate import (
    _seed_rows,
    find_representation,
    log_of_ratio,
    mass_shift,
    shift_mass,
)

from conftest import coefficients


class TestFindRepresentation:
    def test_r_minus_4(self):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        assert rep.L == DiffOperator.box(1)
        assert rep.g.radial == (
            RadialTerm(Coefficient.rational(Fraction(-1, 4)), Fraction(-2), 1),
        )
        assert apply_operator(rep.L, rep.g).radial == rep.target.radial

    def test_r_minus_6(self):
        rep = find_representation(position_term(4, 1, Fraction(-6)))
        assert rep.L == DiffOperator.box(2)
        assert rep.g.radial == (
            RadialTerm(Coefficient.rational(Fraction(-1, 32)), Fraction(-2), 1),
        )

    def test_r_minus_4_with_log(self):
        target = position_term(4, 1, Fraction(-4), 1)
        rep = find_representation(target)
        assert apply_operator(rep.L, rep.g).radial == target.radial
        assert all(-4 < t.rpow < 0 for t in rep.g.radial)

    def test_multi_term_target(self):
        target = add(
            position_term(4, 3, Fraction(-6)),
            position_term(4, 1, Fraction(-6), 1),
        )
        rep = find_representation(target)
        assert apply_operator(rep.L, rep.g).radial == target.radial

    def test_mixed_exponents_not_representable(self):
        # r^-4 and r^-6 need seeds two powers apart; no single box^m keeps
        # both inside the window
        target = add(
            position_term(4, 1, Fraction(-4)),
            position_term(4, 1, Fraction(-6)),
        )
        with pytest.raises(NotRepresentableError):
            find_representation(target)

    def test_dim3(self):
        target = position_term(3, 1, Fraction(-4))
        rep = find_representation(target)
        assert apply_operator(rep.L, rep.g).radial == target.radial

    def test_note_scopes_equality(self):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        assert "r != 0" in rep.note

    def test_rejects_safe_target(self):
        with pytest.raises(NotRepresentableError):
            find_representation(position_term(4, 1, Fraction(-2)))

    def test_rejects_local_target(self):
        with pytest.raises(NotRepresentableError):
            find_representation(delta_term(4, 1))

    def test_rejects_zero_target(self):
        with pytest.raises(NotRepresentableError):
            find_representation(PositionFunction.build(4))

    def test_rejects_fractional_exponent(self):
        with pytest.raises(NotRepresentableError):
            find_representation(position_term(4, 1, Fraction(-9, 2)))

    def test_formal_transform_r_minus_4(self):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        F = fourier_formal(rep)
        # -pi^2 log(p^2/M^2) plus the constant 2 pi^2 (ln2 - gammaE),
        # which lands in the polynomial part
        got = {(t.ppow, t.logpow): t.coeff for t in F.terms}
        gamma = Coefficient.monomial(1, gammaE=1)
        assert got == {(Fraction(0), 1): -1 * PI * PI}
        assert F.local_poly == ((2 * PI * PI * LN2 - 2 * PI * PI * gamma, 0),)


def _d_dr(terms):
    """d/dr of {(a, k): c} meaning sum c r^a log^k(r^2 M^2); d log/dr = 2/r."""
    out = {}
    for (a, k), c in terms.items():
        out[(a - 1, k)] = out.get((a - 1, k), 0) + a * c
        if k:
            out[(a - 1, k - 1)] = out.get((a - 1, k - 1), 0) + 2 * k * c
    return out


def _box(n, terms):
    """Radial Laplacian f'' + (n-1) f'/r away from the origin, built from
    d/dr alone, independently of diffreg.operators."""
    d1 = _d_dr(terms)
    out = _d_dr(d1)
    for (a, k), c in d1.items():
        out[(a - 1, k)] = out.get((a - 1, k), 0) + (n - 1) * c
    return {key: c for key, c in out.items() if c}


def _function(n, terms):
    return PositionFunction.build(
        n, [RadialTerm(Coefficient.rational(c), a, k) for (a, k), c in terms.items()]
    )


def _terms(f):
    return {(t.rpow, t.logpow): t.coeff.rational_value() for t in f.radial}


class TestBlockSolver:
    """find_representation against targets built as box^m seed with the
    independent Laplacian above."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_recovers_seed(self, n, m):
        for s in range(-n + 1, 0):  # every integer seed exponent in the window
            # order of s as a root of c_m(s) = prod_{i<m} (s-2i)(s-2i+n-2)
            nu = sum((s == 2 * i) + (s == 2 * i + 2 - n) for i in range(m))
            for top in range(4):
                seed = {(s, j): Fraction(j + 1, 1 - s) for j in range(top + 1)}
                target = seed
                for _ in range(m):
                    target = _box(n, target)
                if not target:
                    continue  # the seed lies in the kernel of box^m
                t = s - 2 * m
                if t > -n:  # not divergent, hence no target of the search
                    with pytest.raises(NotRepresentableError):
                        find_representation(_function(n, target))
                    continue
                rep = find_representation(_function(n, target))
                (power, coeff), = rep.L.coeffs
                assert coeff == ONE
                image = _terms(rep.g)
                for _ in range(power):
                    image = _box(n, image)
                assert image == target
                assert all(term_route(t, n) == "exact" for t in rep.g.radial)
                if t + 2 * (m - 1) <= -n:
                    # no smaller m has a window seed: box^m with the seed
                    # less its kernel part, the log powers below nu
                    assert power == m
                    assert _terms(rep.g) == {
                        (a, j): c for (a, j), c in seed.items() if j >= nu
                    }

    @pytest.mark.parametrize(
        "n, t, k, seed",
        [
            # box[r^-2 L^2] = -8 r^-4 L + 8 r^-4 and box[r^-2 L] = -4 r^-4
            (4, -4, 1, {(-2, 2): Fraction(-1, 8), (-2, 1): Fraction(-1, 4)}),
            # box[r^-4 L] = -8 r^-6 in six dimensions
            (6, -6, 0, {(-4, 1): Fraction(-1, 8)}),
        ],
    )
    def test_resonance_raises_log_power(self, n, t, k, seed):
        rep = find_representation(position_term(n, 1, Fraction(t), k))
        assert rep.L == DiffOperator.box(1)
        assert _terms(rep.g) == seed

    @pytest.mark.parametrize("max_box", [1, 4])
    def test_dim2_failure_messages(self, max_box):
        # s = 2m - 2 >= 0 lies outside the window -2 < s < 0 from m = 1 on
        with pytest.raises(NotRepresentableError) as exc:
            find_representation(position_term(2, 1, Fraction(-2)), max_box)
        reason = "no m gives every seed an exact transform"
        assert str(exc.value).endswith(f"({reason})")

    @pytest.mark.parametrize(
        "terms, max_box, solves, power",
        [
            # r^-9 needs m >= 3 and r^-4 needs m <= 1 to reach -4 < s < 0
            ([-4, -9], 1, 0, None),
            ([-4, -9], 50, 0, None),
            # r^-7 reaches the window at m = 2 and m = 3; m = 2 succeeds
            ([-7], 4, 1, 2),
        ],
        ids=["r^-4+r^-9-max_box1", "r^-4+r^-9-max_box50", "r^-7"],
    )
    def test_search_solves_only_inside_the_window(
        self, monkeypatch, terms, max_box, solves, power
    ):
        # a block's solve is one read of the seed table, hit or miss
        calls = []
        table = regulate._seed_rows

        def spy(*key):
            calls.append(key)
            return table(*key)

        monkeypatch.setattr(regulate, "_seed_rows", spy)
        target = PositionFunction.build(4, [RadialTerm(ONE, t) for t in terms])
        if power is None:
            with pytest.raises(NotRepresentableError):
                find_representation(target, max_box)
        else:
            assert find_representation(target, max_box).L == DiffOperator.box(power)
        assert len(calls) == solves



def ref_seed(target, m):
    """The seed of target under box^m by log_power_solve per target
    exponent, with the untruncated d and no table."""
    n = target.dim
    blocks = {}
    for t in target.radial:
        blocks.setdefault(t.rpow, {})[t.logpow] = t.coeff
    seed = []
    for t, block in blocks.items():
        s = t + 2 * m
        x = log_power_solve(block, box_derivatives(s, m, n))
        seed += [RadialTerm(c, s, k) for k, c in x.items()]
    return PositionFunction.build(n, seed)


@st.composite
def regulated_targets(draw):
    n = draw(st.integers(2, 10))
    nonzero = coefficients().filter(lambda c: not c.is_zero())
    terms = draw(st.lists(st.builds(RadialTerm, nonzero, st.integers(-n - 7, -n),
                                    st.integers(0, 3)), min_size=1, max_size=5))
    return PositionFunction.build(n, terms)


class TestSeedTable:
    """The seed solve reads a bounded table of the back-substitution rows
    per (s, m, n, top log power); every seed equals log_power_solve's."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_rows_over_the_key_space(self, n):
        # seed exponents in the window, m <= 4, top log powers 0-3: each
        # unit target level and a dense block solve as log_power_solve does
        # with the untruncated d, and box^m maps the seed back
        c = PI * Fraction(3, 7) + ONE
        for s in range(1 - n, 0):
            for m in range(1, 5):
                d = box_derivatives(s, m, n)
                for top in range(4):
                    rows = _seed_rows(s, m, n, top)
                    assert all(isinstance(q, (int, Fraction)) for *_, row in rows for _, q in row)
                    blocks = [{j: c} for j in range(top + 1)]
                    blocks.append({j: c + j for j in range(top + 1)})
                    for block in blocks:
                        got = back_substitute(block, rows)
                        assert repr(sorted(got.items())) == repr(sorted(log_power_solve(block, d).items()))
                        g = PositionFunction.build(n, [RadialTerm(x, s, k) for k, x in got.items()])
                        image = apply_operator(DiffOperator.box(m), g)
                        assert image.radial == PositionFunction.build(
                            n, [RadialTerm(y, s - 2 * m, j) for j, y in block.items()]
                        ).radial

    @settings(max_examples=200, deadline=None)
    @given(regulated_targets())
    def test_search_matches_the_helper(self, target):
        try:
            rep = find_representation(target)
        except NotRepresentableError:
            rep = None
        n = target.dim
        m_lo = (-n - min(t.rpow for t in target.radial)) // 2 + 1
        m_hi = min(4, (-1 - max(t.rpow for t in target.radial)) // 2)
        for m in range(m_lo, m_hi + 1):
            g = ref_seed(target, m)
            if all(term_route(t, n) == "exact" for t in g.radial):
                assert rep is not None and rep.L == DiffOperator.box(m)
                assert repr(rep.g) == repr(g)
                break
        else:
            assert rep is None

    def test_second_search_is_a_hit(self):
        target = add(position_term(5, PI, -9, 1), position_term(5, ONE, -7, 2))
        first = find_representation(target)
        hits = _seed_rows.cache_info().hits
        misses = box_derivatives.cache_info().misses
        assert find_representation(target) == first
        # one read per target exponent, at the one m tried
        assert _seed_rows.cache_info().hits == hits + 2
        assert box_derivatives.cache_info().misses == misses

class TestMassShift:
    def test_shift_mass_substitution(self):
        f = position_term(4, 1, Fraction(-2), 2)
        out = shift_mass(f, LN2)  # lambda = 2
        # log^2 -> (log + 2 ln2)^2
        r, M = 1.7, 1.0
        from diffreg.algebra import eval_position

        lg = math.log(r * r * M * M)
        want = (lg + 2 * math.log(2.0)) ** 2 / (r * r)
        assert eval_position(out, r, M) == pytest.approx(want, rel=1e-14)

    def test_log_of_ratio(self):
        assert log_of_ratio(2) == LN2
        assert log_of_ratio(Fraction(1, 2)) == -1 * LN2
        assert log_of_ratio(8) == 3 * LN2
        assert log_of_ratio("e") == ONE
        assert log_of_ratio("1/e") == -1 * ONE
        with pytest.raises(DiffRegError):
            log_of_ratio(3)
        with pytest.raises(DiffRegError):
            log_of_ratio(-2)

    @pytest.mark.parametrize("lam", ["1/2", "2", "e"])
    def test_scheme_change_is_local(self, lam):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        ln_lambda = log_of_ratio(Fraction(1, 2)) if lam == "1/2" else log_of_ratio(
            2 if lam == "2" else "e"
        )
        ms = mass_shift(rep, ln_lambda)
        # image is purely local, momentum shift is the constant 2 pi^2 ln(lambda)
        assert ms.image_shift.radial == ()
        assert ms.momentum_shift.terms == ()
        assert ms.momentum_shift.local_poly == ((2 * PI * PI * ln_lambda, 0),)

    @pytest.mark.parametrize("q", [Fraction(1, 3), -2, 0])
    def test_rational_ln_lambda(self, q):
        rep = find_representation(position_term(4, 1, Fraction(-6)))
        assert mass_shift(rep, q) == mass_shift(rep, Coefficient.rational(q))

    def test_momentum_shift_is_p_independent(self):
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        ms = mass_shift(rep, LN2)
        v1 = eval_momentum(ms.momentum_shift, 0.3, 1.0)
        v2 = eval_momentum(ms.momentum_shift, 7.0, 1.0)
        assert v1 == v2 == pytest.approx(2 * math.pi ** 2 * math.log(2.0), rel=1e-15)

    def test_shift_matches_formal_difference(self):
        # fourier_formal(rep with M -> 2M) - fourier_formal(rep) at fixed p
        rep = find_representation(position_term(4, 1, Fraction(-4)))
        ms = mass_shift(rep, LN2)
        F = fourier_formal(rep)
        p, M = 1.4, 1.0
        lhs = eval_momentum(F, p, 2.0 * M) - eval_momentum(F, p, M)
        rhs = eval_momentum(ms.momentum_shift, p, M)
        assert lhs == pytest.approx(rhs, rel=1e-13)
