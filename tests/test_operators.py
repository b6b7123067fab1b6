import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from diffreg.algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    delta_term,
    log_power_map,
    position_term,
    add,
    scale,
)
from diffreg.coeffs import Coefficient, ONE, PI, sphere_area
from diffreg.errors import DiffRegError, EvaluationError
from diffreg.operators import (
    RESONANCE_FLAG,
    DiffOperator,
    _box_image,
    _box_unit,
    apply_laplacian,
    apply_operator,
    box_derivatives,
    laplacian_radial,
    multiply_by_symbol,
    operator_symbol,
)
from diffreg.numeric import gauss_flux_numeric

from conftest import coefficients
from algebra_reference import log_power_solve


def sympy_box(a: Fraction, k: int, n: int):
    """Brute-force radial Laplacian f'' + (n-1)/r f' of r^a log(r^2 M^2)^k."""
    r, M = sp.symbols("r M", positive=True)
    f = r ** sp.Rational(a.numerator, a.denominator) * sp.log(r ** 2 * M ** 2) ** k
    return sp.expand(sp.diff(f, r, 2) + (n - 1) / r * sp.diff(f, r)), (r, M)


def terms_to_sympy(terms, r, M):
    total = sp.Integer(0)
    for t in terms:
        q = t.coeff.rational_value()
        total += (
            sp.Rational(q.numerator, q.denominator)
            * r ** sp.Rational(t.rpow.numerator, t.rpow.denominator)
            * sp.log(r ** 2 * M ** 2) ** t.logpow
        )
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_recurrence_matches_sympy(n):
    rng = random.Random(20240 + n)
    for _ in range(12):
        a = Fraction(rng.randint(-6, 6))
        k = rng.randint(0, 3)
        out = laplacian_radial(n, [RadialTerm(ONE, a, k)])
        expr, (r, M) = sympy_box(a, k, n)
        assert sp.simplify(expr - terms_to_sympy(out, r, M)) == 0


def test_recurrence_half_integer_exponent():
    out = laplacian_radial(3, [RadialTerm(ONE, Fraction(1, 2), 1)])
    expr, (r, M) = sympy_box(Fraction(1, 2), 1, 3)
    assert sp.simplify(expr - terms_to_sympy(out, r, M)) == 0


class TestOperatorAlgebra:
    def test_build_drops_zero(self):
        assert DiffOperator.build({2: Coefficient()}).coeffs == ()

    def test_add_and_mul(self):
        L = DiffOperator.box(1) + DiffOperator.box(1, 2)
        assert L == DiffOperator.box(1, 3)
        assert DiffOperator.box(1) * DiffOperator.box(2) == DiffOperator.box(3)

    def test_degree(self):
        L = DiffOperator.build({0: ONE, 3: PI})
        assert L.degree == 3
        assert DiffOperator.build({}).degree == 0

    def test_pure_power(self):
        assert DiffOperator.box(2).is_pure_power()
        assert not DiffOperator.box(2, 5).is_pure_power()

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            DiffOperator.build({-1: ONE})


class TestBoxClosedForm:
    """box^m [r^s L^k] = sum_i C(k,i) 2^i c_m^(i)(s) r^(s-2m) L^(k-i) with
    c_m(s) = prod_{i<m} (s-2i)(s-2i+n-2), the identity behind the search."""

    @staticmethod
    def exponents(n, m):
        # every integer from below the window to past the largest root of
        # c_m (so every root), and half-integers on both sides of it
        ints = range(-n - 2, 2 * m + 1)
        return [Fraction(s) for s in ints] + [Fraction(2 * s + 1, 2) for s in (-n - 1, -2, 0, m)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_derivatives_of_c_m(self, n, m):
        # c_m expanded in powers of x, then differentiated term by term at s
        poly = [1]
        for i in range(m):
            for root in (2 * i, 2 * i + 2 - n):
                poly = [y - root * z for y, z in zip([0] + poly, poly + [0])]
        for s in self.exponents(n, m):
            want = tuple(
                2 ** i * sum(a * math.perm(j, i) * s ** (j - i) for j, a in enumerate(poly) if j >= i)
                for i in range(2 * m + 1)
            )
            assert box_derivatives(s, m, n) == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_iterated_laplacian(self, n, m):
        # the full table and the one truncated to the k + 1 entries that
        # c L^k reads both give box^m of c r^s L^k
        c = PI * Fraction(3, 7) + ONE
        for s in self.exponents(n, m):
            full = box_derivatives(s, m, n)
            for k in range(4):
                terms = [RadialTerm(c, s, k)]
                for _ in range(m):
                    terms = laplacian_radial(n, terms)
                iterated = PositionFunction.build(n, terms)
                for depth in (None, k + 1):
                    d = box_derivatives(s, m, n, depth)
                    assert d == full[: len(d)] and len(d) >= min(k + 1, len(full))
                    closed = PositionFunction.build(n, [
                        RadialTerm(cj, s - 2 * m, j) for j, cj in log_power_map(c, k, d)
                    ])
                    assert closed == iterated, (s, k, depth)


class TestApply:
    def test_linearity(self):
        f = position_term(4, 1, Fraction(-1), 1)
        g = position_term(4, 2, Fraction(3), 0)
        L = DiffOperator.build({1: ONE, 2: Coefficient.rational(Fraction(1, 2))})
        lhs = apply_operator(L, add(f, g))
        rhs = add(apply_operator(L, f), apply_operator(L, g))
        assert lhs == rhs

    def test_composition(self):
        f = position_term(4, 1, Fraction(5), 2)
        twice = apply_laplacian(apply_laplacian(f))
        assert apply_operator(DiffOperator.box(2), f) == twice

    def test_r_squared_in_dim4(self):
        # box r^2 = 2n = 8
        out = apply_operator(DiffOperator.box(1), position_term(4, 1, Fraction(2)))
        assert out.radial == (RadialTerm(Coefficient.rational(8), Fraction(0), 0),)

    def test_delta_emission(self):
        # box r^(2-n) = -(n-2) Omega_{n-1} delta
        for n in (3, 4, 6):
            f = position_term(n, 1, Fraction(2 - n))
            out = apply_laplacian(f)
            assert out.radial == ()
            assert len(out.local) == 1
            t = out.local[0]
            assert t.boxpow == 0
            assert t.coeff == Fraction(-(n - 2)) * sphere_area(n)

    def test_harmonic_in_window_no_delta(self):
        # r^0 is annihilated with no local content
        out = apply_laplacian(position_term(4, 1, Fraction(0)))
        assert out.is_zero()

    def test_resonance_flag_for_log(self):
        f = position_term(4, 1, Fraction(-2), 1)
        out = apply_laplacian(f)
        assert RESONANCE_FLAG in out.flags
        # the away-from-origin radial part is still produced
        assert out.radial == (RadialTerm(Coefficient.rational(-4), Fraction(-4), 0),)

    def test_local_terms_shift(self):
        out = apply_laplacian(delta_term(4, 1, boxpow=1))
        assert out.local[0].boxpow == 2

    def test_dim_one_rejected(self):
        with pytest.raises(DiffRegError):
            apply_laplacian(position_term(1, 1, Fraction(-1)))


def iterated_laplacian(f: PositionFunction) -> PositionFunction:
    """Reference: one Laplacian step, laplacian_radial plus the delta rule
    at the resonance exponent 2 - n."""
    n = f.dim
    if n < 2:
        raise DiffRegError("Laplacian action requires dim >= 2")
    local = [LocalTerm(t.coeff, t.boxpow + 1) for t in f.local]
    flags = list(f.flags)
    for t in f.radial:
        if t.rpow == 2 - n:
            if t.logpow == 0:
                cdelta = t.coeff * Fraction(-(n - 2)) * sphere_area(n)
                if not cdelta.is_zero():
                    local.append(LocalTerm(cdelta, 0))
            else:
                flags.append(RESONANCE_FLAG)
    return PositionFunction.build(n, laplacian_radial(n, f.radial), local, flags)


def iterated_apply(L: DiffOperator, f: PositionFunction) -> PositionFunction:
    """Reference: sum_k c_k box^k f by iterating one Laplacian step."""
    result = PositionFunction.build(f.dim)
    current, power = f, 0
    for k, c in L.coeffs:
        while power < k:
            current = iterated_laplacian(current)
            power += 1
        result = add(result, scale(c, current))
    return result


def outcome(fn, *args):
    try:
        return fn(*args)
    except DiffRegError as exc:
        return type(exc), str(exc)


nonzero_coefficients = coefficients().filter(lambda c: not c.is_zero())


@st.composite
def operators(draw):
    """Several powers up to 4, and sometimes none: the zero operator."""
    powers = draw(st.dictionaries(st.integers(0, 4), nonzero_coefficients, max_size=3))
    return DiffOperator.build(powers)


@st.composite
def exponents(draw, n):
    """An exponent that box^i (i < 4) lands on the resonance 2 - n, any
    integer around the window, or a fraction."""
    return draw(st.one_of(
        st.integers(0, 3).map(lambda i: 2 - n + 2 * i),
        st.integers(-n - 6, 8),
        st.builds(Fraction, st.integers(-30, 20), st.sampled_from([2, 3, 4])),
    ))


@st.composite
def position_functions(draw, n):
    radial = draw(st.lists(st.builds(
        RadialTerm, nonzero_coefficients, exponents(n), st.integers(0, 3)
    ), max_size=4))
    local = draw(st.lists(st.builds(
        LocalTerm, nonzero_coefficients, st.integers(0, 3)
    ), max_size=2))
    flags = draw(st.lists(st.just(RESONANCE_FLAG), max_size=1))
    return PositionFunction.build(n, radial, local, flags)


@st.composite
def cancelling_blocks(draw, n):
    """A block at s = 2 - n + 2 i0 whose image under box^i0 on the
    resonance is chosen first, with some log powers 0-3 cancelled: the
    block is solved back from it, so its terms cancel there."""
    i0 = draw(st.integers(0, 3))
    s = 2 - n + 2 * i0
    image = draw(st.dictionaries(st.integers(0, 3), nonzero_coefficients, min_size=1, max_size=3))
    block = log_power_solve(image, box_derivatives(s, i0, n))
    seed = [RadialTerm(c, s, k) for k, c in block.items()]
    others = [t for t in draw(position_functions(n)).radial if t.rpow != s]
    return PositionFunction.build(n, seed + others)


class TestMatchesIteratedLaplacian:
    """apply_operator in closed form against the one-step iteration: equal
    results, flags and local terms included, and the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random(self, data):
        n = data.draw(st.integers(1, 10))
        L = data.draw(operators())
        f = data.draw(position_functions(n))
        assert outcome(apply_operator, L, f) == outcome(iterated_apply, L, f)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cancellation_at_the_resonance(self, data):
        n = data.draw(st.integers(2, 10))
        L = data.draw(operators())
        f = data.draw(cancelling_blocks(n))
        assert outcome(apply_operator, L, f) == outcome(iterated_apply, L, f)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("k", range(4))
    def test_every_log_power_at_the_resonance(self, n, k):
        # each step i0 < 4 of box^4 meets r^(2-n) L^k, and lower powers too
        L = DiffOperator.build({1: ONE, 2: PI, 4: Coefficient.rational(Fraction(-3, 5))})
        for i0 in range(4):
            f = position_term(n, Fraction(7, 3), 2 - n + 2 * i0, k)
            assert apply_operator(L, f) == iterated_apply(L, f), i0

    def test_zero_operator_returns_no_flags(self):
        f = PositionFunction.build(4, [RadialTerm(ONE, -2, 1)], flags=[RESONANCE_FLAG])
        out = apply_operator(DiffOperator.build({}), f)
        assert out == iterated_apply(DiffOperator.build({}), f) == PositionFunction.build(4)

    @pytest.mark.parametrize("powers", [{}, {0: ONE}, {1: ONE}, {0: ONE, 2: PI}])
    def test_dim_one(self, powers):
        # the error comes with a box power only, whatever f holds
        L = DiffOperator.build(powers)
        f = position_term(1, 1, Fraction(-1))
        got = outcome(apply_operator, L, f)
        assert got == outcome(iterated_apply, L, f)
        assert (got == (DiffRegError, "Laplacian action requires dim >= 2")) == (L.degree > 0)



def ref_box_image(s, block, m, n):
    """_box_image as the log-power map per term, with no table."""
    d = box_derivatives(s, m, n)
    out = {}
    for k, c in block.items():
        for j, cj in log_power_map(c, k, d):
            out[j] = out[j] + cj if j in out else cj
    return {j: c for j, c in out.items() if not c.is_zero()}


class TestBoxUnitTable:
    """box^m reads a bounded table of the image of each unit term r^s L^k;
    every entry equals the generic log_power_map result."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_entries_over_the_key_space(self, n):
        # window exponents, log powers 0-3 and m <= 4 (m = 0 for the
        # resonance step), each against the untruncated d
        c = PI * Fraction(3, 7) + ONE
        for s in range(1 - n, 0):
            for m in range(5):
                d = box_derivatives(s, m, n)
                for k in range(4):
                    assert repr(_box_unit(s, k, m, n)) == repr(tuple(log_power_map(1, k, d)))
                    got = [(j, c * q) for j, q in _box_unit(s, k, m, n)]
                    assert repr(got) == repr(log_power_map(c, k, d))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_images_match_the_helper(self, data):
        n = data.draw(st.integers(2, 10))
        s = data.draw(exponents(n))
        m = data.draw(st.integers(0, 5))
        block = data.draw(st.dictionaries(st.integers(0, 3), nonzero_coefficients, min_size=1))
        assert repr(_box_image(s, block, m, n)) == repr(ref_box_image(s, block, m, n))

    def test_second_application_is_a_hit(self):
        f = position_term(5, PI, Fraction(-7, 2), 3)
        first = apply_operator(DiffOperator.box(3), f)
        hits = _box_unit.cache_info().hits
        misses = box_derivatives.cache_info().misses
        assert apply_operator(DiffOperator.box(3), f) == first
        assert _box_unit.cache_info().hits == hits + 1
        assert box_derivatives.cache_info().misses == misses


@st.composite
def momentum_functions(draw, n):
    nonzero = coefficients().filter(lambda c: not c.is_zero())
    terms = draw(st.lists(st.builds(MomentumTerm, nonzero, st.integers(-n - 4, 4),
                                    st.integers(0, 3)), max_size=4))
    poly = draw(st.lists(st.tuples(nonzero, st.integers(0, 3)), max_size=2))
    return MomentumFunction.build(n, terms, poly)

class TestSymbol:
    def test_box_symbol(self):
        sym = operator_symbol(DiffOperator.box(2), 4)
        assert sym.terms == ()
        assert sym.local_poly == ((ONE, 2),)

    def test_multiply_by_symbol(self):
        from diffreg.algebra import momentum_term, eval_momentum

        F = momentum_term(4, 1, Fraction(-2), 1)
        sym = operator_symbol(DiffOperator.box(1), 4)
        G = multiply_by_symbol(F, sym)
        p, M = 1.7, 1.1
        assert eval_momentum(G, p, M) == pytest.approx(
            -(p * p) * eval_momentum(F, p, M), rel=1e-15
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_unit_coefficients_skip_the_product(self, data):
        # a product by every symbol coefficient, units included, gives the
        # same function as the skip
        n = data.draw(st.integers(2, 10))
        F = data.draw(momentum_functions(n))
        L = data.draw(operators())
        sym = operator_symbol(L, n)
        terms, poly = [], []
        for c, j in sym.local_poly:
            cp = -c if j % 2 else c
            terms += [MomentumTerm(t.coeff * cp, t.ppow + 2 * j, t.logpow) for t in F.terms]
            poly += [(pc * c, pj + j) for pc, pj in F.local_poly]
        want = MomentumFunction.build(n, terms, poly, F.flags + sym.flags)
        assert repr(multiply_by_symbol(F, sym)) == repr(want)


class TestGaussFlux:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 7.0])
    def test_r_minus_2_flux_radius_independent(self, radius):
        f = position_term(4, 1, Fraction(-2))
        expected = -4.0 * math.pi ** 2
        assert gauss_flux_numeric(f, radius, 4) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference(self):
        from diffreg.algebra import eval_position

        f = PositionFunction.build(
            4,
            [
                RadialTerm(Coefficient.rational(Fraction(1, 2)), Fraction(-2), 1),
                RadialTerm(PI, Fraction(1), 0),
            ],
        )
        radius, M, h = 1.3, 0.8, 1e-6
        fd = (eval_position(f, radius + h, M) - eval_position(f, radius - h, M)) / (2 * h)
        expected = sphere_area(4).evalf() * radius ** 3 * fd
        assert gauss_flux_numeric(f, radius, 4, M) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(EvaluationError):
            gauss_flux_numeric(position_term(4, 1, Fraction(-2)), radius, 4)
