import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffreg.algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    add,
    delta_term,
    eval_momentum,
    eval_position,
    log_power_map,
    log_power_solve,
    momentum_term,
    mul,
    normalize,
    position_term,
    radial_derivative,
    scale,
    sub,
)
from diffreg.coeffs import GAMMA_E, LN2, ONE, PI, ZERO, Coefficient
from diffreg.errors import (
    DimensionMismatchError,
    DistributionProductError,
    EvaluationError,
)
from diffreg.fourier import master_coefficients

from conftest import coefficients, small_rationals

exponents = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 2))
logpows = st.integers(0, 3)


@st.composite
def position_functions(draw, dim=4, max_terms=4, with_local=True):
    radial = [
        RadialTerm(draw(coefficients()), draw(exponents), draw(logpows))
        for _ in range(draw(st.integers(0, max_terms)))
    ]
    local = []
    if with_local:
        for _ in range(draw(st.integers(0, 2))):
            from diffreg.algebra import LocalTerm

            local.append(LocalTerm(draw(coefficients()), draw(st.integers(0, 2))))
    return PositionFunction.build(dim, radial, local)


@st.composite
def momentum_functions(draw, dim=4, max_terms=4):
    terms = [
        MomentumTerm(draw(coefficients()), draw(exponents), draw(logpows))
        for _ in range(draw(st.integers(0, max_terms)))
    ]
    poly = [
        (draw(coefficients()), draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return MomentumFunction.build(dim, terms, poly)


class TestNormalization:
    @given(position_functions())
    def test_idempotent(self, f):
        assert normalize(f) == f

    @given(momentum_functions())
    def test_idempotent_momentum(self, F):
        assert normalize(F) == F

    def test_order_insensitive(self):
        t1 = RadialTerm(ONE, Fraction(-2), 1)
        t2 = RadialTerm(PI, Fraction(-4), 0)
        assert PositionFunction.build(4, [t1, t2]) == PositionFunction.build(4, [t2, t1])

    def test_merges_and_drops(self):
        t = RadialTerm(ONE, Fraction(-2), 0)
        tneg = RadialTerm(-1 * ONE, Fraction(-2), 0)
        assert PositionFunction.build(4, [t, tneg]).is_zero()

    def test_even_powers_fold_into_poly(self):
        # p^2 with no log is the polynomial -(-p^2)^1
        F = momentum_term(4, 1, Fraction(2))
        assert F.terms == ()
        assert F.local_poly == ((Coefficient.rational(-1), 1),)
        # odd and negative powers stay as terms
        assert momentum_term(4, 1, Fraction(1)).local_poly == ()
        assert momentum_term(4, 1, Fraction(-2)).local_poly == ()

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            PositionFunction.build(0)


class TestExponentNormalForm:
    """An exponent is an int when integral, else a Fraction with
    denominator > 1; a float is rejected."""

    @pytest.mark.parametrize("cls, x", [(RadialTerm, 2.0), (MomentumTerm, 0.5)])
    def test_float_exponent_raises(self, cls, x):
        with pytest.raises(TypeError):
            cls(ONE, x)

    @pytest.mark.parametrize("x, want", [
        (Fraction(-4), -4), (Fraction(6, 3), 2), (3, 3), (True, 1),
        (Fraction(-5, 2), Fraction(-5, 2)),
    ])
    def test_integral_exponents_become_int(self, x, want):
        for t in (RadialTerm(ONE, x).rpow, MomentumTerm(ONE, x).ppow):
            assert t == want and type(t) is type(want)

    def test_sum_of_halves_is_int(self):
        f = position_term(4, 1, Fraction(-3, 2))
        (t,) = mul(f, f).radial
        assert t.rpow == -3 and type(t.rpow) is int


def _one_by_one(pairs):
    """Like terms merged by adding their coefficients one by one from
    Coefficient(), zeros dropped, sorted by key."""
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, Coefficient()) + c
    return sorted((k, c) for k, c in acc.items() if not c.is_zero())


class TestBuild:
    def test_position(self):
        half = Coefficient.rational(Fraction(1, 2))
        radial = [
            RadialTerm(ONE, Fraction(-2)),
            RadialTerm(PI, Fraction(-2)),
            RadialTerm(2 * GAMMA_E, Fraction(-3), 1),
            RadialTerm(-1 * ONE, Fraction(-2)),
            RadialTerm(-2 * GAMMA_E, Fraction(-3), 1),  # cancels exactly
            RadialTerm(half, Fraction(-5, 2), 2),
        ]
        local = [LocalTerm(LN2, 0), LocalTerm(PI, 1), LocalTerm(half, 0),
                 LocalTerm(-1 * PI, 1)]
        f = PositionFunction.build(4, radial, local)
        assert f == PositionFunction(
            4,
            tuple(RadialTerm(c, *k) for k, c in _one_by_one(
                ((t.rpow, t.logpow), t.coeff) for t in radial)),
            tuple(LocalTerm(c, j) for j, c in _one_by_one(
                (t.boxpow, t.coeff) for t in local)),
        )
        assert [(t.rpow, t.logpow) for t in f.radial] == [(-Fraction(5, 2), 2),
                                                          (-2, 0)]
        assert f.radial[1].coeff == PI
        assert f.local == (LocalTerm(LN2 + half, 0),)

    def test_momentum(self):
        terms = [
            MomentumTerm(ONE, Fraction(-2), 1),
            MomentumTerm(LN2, Fraction(-2), 1),
            MomentumTerm(PI, Fraction(-1)),
            MomentumTerm(-1 * PI, Fraction(-1)),  # cancels exactly
            MomentumTerm(3 * ONE, Fraction(2)),  # folds to -3 (-p^2)^1
            MomentumTerm(GAMMA_E, Fraction(4)),  # folds to +gammaE (-p^2)^2
            MomentumTerm(PI, Fraction(6)),  # folds to -pi (-p^2)^3, a new key
            MomentumTerm(ONE, Fraction(2), 1),  # has a log: stays a term
        ]
        poly = [(3 * ONE, 1), (PI, 0), (ONE, 2)]
        F = MomentumFunction.build(4, terms, poly)
        folded = []
        kept = []
        for t in terms:
            if t.logpow == 0 and t.ppow in (2, 4, 6):
                j = int(t.ppow) // 2
                folded.append((j, (-1) ** j * t.coeff))
            else:
                kept.append(((t.ppow, t.logpow), t.coeff))
        assert F == MomentumFunction(
            4,
            tuple(MomentumTerm(c, *k) for k, c in _one_by_one(kept)),
            tuple((c, j) for j, c in _one_by_one([(j, c) for c, j in poly] + folded)),
        )
        # the (-p^2)^1 entry cancels against the folded 3 p^2
        assert F.local_poly == ((PI, 0), (ONE + GAMMA_E, 2), (-1 * PI, 3))
        assert [(t.ppow, t.logpow) for t in F.terms] == [(-2, 1), (2, 1)]


class TestVectorSpace:
    @given(position_functions(), position_functions())
    def test_add_commutes(self, f, g):
        assert add(f, g) == add(g, f)

    @given(position_functions(), position_functions(), position_functions())
    def test_add_associates(self, f, g, h):
        assert add(add(f, g), h) == add(f, add(g, h))

    @given(position_functions(), small_rationals, small_rationals)
    def test_scale_compatible(self, f, a, b):
        assert scale(a, scale(b, f)) == scale(a * b, f)

    @given(position_functions())
    def test_sub_self(self, f):
        assert sub(f, f).is_zero()

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            add(position_term(4, 1, Fraction(-2)), position_term(3, 1, Fraction(-2)))


class TestMul:
    @given(
        position_functions(with_local=False),
        position_functions(with_local=False),
    )
    def test_commutative(self, f, g):
        assert mul(f, g) == mul(g, f)

    def test_powers_and_logs_add(self):
        f = position_term(4, 2, Fraction(-1), 1)
        g = position_term(4, 3, Fraction(-2), 2)
        h = mul(f, g)
        assert h.radial == (RadialTerm(Coefficient.rational(6), Fraction(-3), 3),)

    def test_rejects_delta(self):
        with pytest.raises(DistributionProductError):
            mul(delta_term(4, 1), position_term(4, 1, Fraction(-1)))


class TestEvaluation:
    def test_position_example(self):
        # -1/4 log(r^2 M^2) / r^2 at r=2, M=1
        f = position_term(4, Fraction(-1, 4), Fraction(-2), 1)
        expected = -0.25 * math.log(4.0) / 4.0
        assert eval_position(f, 2.0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_momentum_example(self):
        F = momentum_term(4, 4, Fraction(-2), 1)
        expected = 4.0 * math.log(9.0 / 4.0) / 9.0
        assert eval_momentum(F, 3.0, 2.0) == pytest.approx(expected, rel=1e-15)

    @given(position_functions(with_local=False))
    def test_per_term_recomputation(self, f):
        r, M = 1.7, 1.3
        total = math.fsum(
            t.coeff.evalf() * r ** float(t.rpow) * math.log(r * r * M * M) ** t.logpow
            for t in f.radial
        )
        assert eval_position(f, r, M) == pytest.approx(total, rel=1e-12, abs=1e-12)

    def test_poly_part_sign(self):
        F = MomentumFunction.build(4, local_poly=[(ONE, 1)])
        # (-p^2)^1 at p = 3
        assert eval_momentum(F, 3.0, 1.0) == -9.0

    def test_rejects_nonpositive_radius(self):
        f = position_term(4, 1, Fraction(-2))
        with pytest.raises(EvaluationError):
            eval_position(f, 0.0, 1.0)
        with pytest.raises(EvaluationError):
            eval_position(f, 1.0, -1.0)

    def test_rejects_delta_eval(self):
        with pytest.raises(EvaluationError):
            eval_position(delta_term(4, 1), 1.0, 1.0)

    def test_radial_derivative_matches_finite_difference(self):
        f = PositionFunction.build(
            4,
            [
                RadialTerm(Coefficient.rational(Fraction(1, 3)), Fraction(-2), 2),
                RadialTerm(PI, Fraction(3), 1),
            ],
        )
        r, M, h = 1.9, 0.7, 1e-6
        fd = (eval_position(f, r + h, M) - eval_position(f, r - h, M)) / (2 * h)
        assert radial_derivative(f, r, M) == pytest.approx(fd, rel=1e-8)

    def test_log_at_far_scales(self):
        # L = 2 (log p - log M): neither p^2 nor M^2 is formed, so no square
        # overflows to inf or underflows to 0 before the log
        F = momentum_term(4, 1, 0, 1)
        assert eval_momentum(F, 1e200, 1.0) == pytest.approx(400 * math.log(10), rel=1e-14)
        assert eval_momentum(F, 1.0, 1e-200) == pytest.approx(400 * math.log(10), rel=1e-14)
        assert eval_momentum(F, 1e300, 1e300) == 0.0
        f = position_term(4, 1, 0, 1)
        assert eval_position(f, 1e-200, 1.0) == pytest.approx(-400 * math.log(10), rel=1e-14)
        assert eval_position(f, 1.0, 1e200) == pytest.approx(400 * math.log(10), rel=1e-14)
        assert radial_derivative(f, 1e-200, 1e-200) == pytest.approx(2e200, rel=1e-14)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: eval_momentum(momentum_term(4, 1, 3, 0), 1e200, 1.0),  # p^3 overflows
            lambda: eval_momentum(MomentumFunction.build(4, local_poly=[(ONE, 1)]), 1e200, 1.0),
            lambda: eval_position(position_term(4, 1, -2, 0), 1e-200, 1.0),
            lambda: radial_derivative(position_term(4, 1, -2, 0), 1e-200),
        ],
        ids=["power_overflow", "poly_inf", "position_overflow", "derivative_overflow"],
    )
    def test_out_of_range_raises(self, evaluate):
        with pytest.raises(EvaluationError, match="outside the floating-point range"):
            evaluate()


nonzero_rationals = small_rationals.filter(bool)


@st.composite
def rational_derivatives(draw):
    """d with d_i = 0 below nu and d_nu != 0, for nu = 0, 1, 2."""
    nu = draw(st.integers(0, 2))
    rest = draw(st.lists(small_rationals, max_size=3))
    return (0,) * nu + (draw(nonzero_rationals),) + tuple(rest), nu


@st.composite
def master_tuples(draw):
    """(C, C', ..., C^(depth)) for r^(-2a') in the open window, 2a' integral."""
    n = draw(st.integers(2, 6))
    two_a = draw(st.integers(1, n - 1))
    depth = draw(st.integers(0, 3))
    return master_coefficients(Fraction(two_a, 2), n, depth)


def _forward(x, d):
    """sum_k log_power_map(x[k], k, d), collected by log power."""
    y = {}
    for k, c in x.items():
        for j, cj in log_power_map(c, k, d):
            y[j] = y.get(j, ZERO) + cj
    return {j: c for j, c in y.items() if not c.is_zero()}


def _nonzero_part(x):
    return {k: c for k, c in x.items() if not c.is_zero()}


class TestLogPowerIdentity:
    @given(rational_derivatives(), st.lists(coefficients(), min_size=1, max_size=4))
    def test_rational_round_trip(self, d_nu, cs):
        # x lives on the log powers nu, nu + 1, ...: the map is a bijection
        # from there onto all log powers, so both composites are identities
        d, nu = d_nu
        x = _nonzero_part({nu + i: c for i, c in enumerate(cs)})
        y = _forward(x, d)
        assert log_power_solve(y, d) == x
        assert _forward(log_power_solve(y, d), d) == y

    @given(master_tuples(), st.lists(coefficients(), min_size=1, max_size=4))
    def test_master_tuple_round_trip(self, C, cs):
        x = _nonzero_part(dict(enumerate(cs[: len(C)])))
        y = _forward(x, C)
        assert log_power_solve(y, C) == x
        assert _forward(log_power_solve(y, C), C) == y

    @given(rational_derivatives(), coefficients(), st.integers(0, 3))
    def test_forward_is_the_binomial_sum(self, d_nu, c, k):
        d, _ = d_nu
        want = {}
        for i in range(min(k, len(d) - 1) + 1):
            want[k - i] = c * (math.comb(k, i) * d[i])
        assert _forward({k: c}, d) == _nonzero_part(want)

    def test_kernel_components_are_pinned_to_zero(self):
        # d = (0, 0, 2, 3): nu = 2, so L^0 and L^1 span the kernel
        d = (0, 0, 2, 3)
        assert log_power_map(PI, 1, d) == []
        # L: 6 x3 = 1; L^0: 3 x3 + 2 x2 = 0
        assert log_power_solve({1: ONE}, d) == {
            3: Coefficient.rational(Fraction(1, 6)),
            2: Coefficient.rational(Fraction(-1, 4)),
        }

    def test_zero_is_solved_by_zero(self):
        assert log_power_solve({}, (1,)) == {}

    def test_rational_division(self):
        c = PI + ONE
        assert c.divide(Fraction(2, 3)) == c * Fraction(3, 2)
        assert c.divide(-2) == c * Fraction(-1, 2)
        with pytest.raises(ZeroDivisionError):
            c.divide(0)
        with pytest.raises(ZeroDivisionError):
            ZERO.divide(Fraction(0))
