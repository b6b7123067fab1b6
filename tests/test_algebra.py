import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    momentum_term,
    mul,
    normalize,
    position_term,
    radial_derivative,
    scale,
    sub,
)
from diffreg.coeffs import GAMMA_E, LN2, ONE, PI, ZERO, Coefficient, as_exponent
from diffreg.errors import (
    DimensionMismatchError,
    DistributionProductError,
    EvaluationError,
    NotRepresentableError,
)
from diffreg.fourier import (
    cs_derivative,
    cs_derivative_position,
    fourier_base,
    inverse_fourier_base,
    master_coefficients,
)
from diffreg.operators import DiffOperator, apply_operator, multiply_by_symbol, operator_symbol
from diffreg.parser import parse_momentum, parse_position
from diffreg.printer import format_momentum, format_position
from diffreg.regulate import find_representation
from diffreg.surface import surface_expansion

from conftest import coefficients, small_rationals
from algebra_reference import log_power_solve

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


# -- every producer ends in the one constructor of its kind -------------


def _assert_normal_form(f):
    """normalize is the identity on f, and f is as from_maps leaves it:
    keys strictly increasing, no zero coefficient, exponents in their
    as_exponent form, flags sorted and unique, and on the momentum side no
    log-free even non-negative integer power among the terms."""
    assert normalize(f) == f
    if isinstance(f, PositionFunction):
        powers = [(t.coeff, (t.rpow, t.logpow)) for t in f.radial]
        local = [(t.coeff, t.boxpow) for t in f.local]
    else:
        powers = [(t.coeff, (t.ppow, t.logpow)) for t in f.terms]
        local = list(f.local_poly)
        assert not any(k == 0 and type(a) is int and a >= 0 and a % 2 == 0
                       for _, (a, k) in powers)
    for keys in ([k for _, k in powers], [j for _, j in local]):
        assert all(a < b for a, b in zip(keys, keys[1:]))
    for c, _ in powers + local:
        assert type(c) is Coefficient and not c.is_zero()
    for _, (a, k) in powers:
        assert type(a) is type(as_exponent(a)) and type(k) is int and k >= 0
    assert f.flags == tuple(sorted(set(f.flags)))


@st.composite
def window_functions(draw, with_local=True):
    """A position function in dims 2-6 whose every radial term has an exact
    transform: an integral rpow in -n < rpow < 0 and a log power <= 3."""
    n = draw(st.integers(2, 6))
    radial = [RadialTerm(draw(coefficients()), draw(st.integers(1 - n, -1)), draw(logpows))
              for _ in range(draw(st.integers(0, 4)))]
    local = [LocalTerm(draw(coefficients()), draw(st.integers(0, 2)))
             for _ in range(draw(st.integers(0, 2)) if with_local else 0)]
    return PositionFunction.build(n, radial, local)


operators = st.builds(
    lambda cs: DiffOperator.build(dict(enumerate(cs))),
    st.lists(st.one_of(st.just(ONE), coefficients()), max_size=4),
)


class TestProducersNormalForm:
    """Each producer returns its own normal form."""

    @settings(max_examples=60, deadline=None)
    @given(window_functions(), operators)
    def test_transforms_and_operators(self, g, L):
        F = fourier_base(g)
        for out in (F, inverse_fourier_base(F), cs_derivative(F),
                    cs_derivative_position(g), apply_operator(L, g),
                    multiply_by_symbol(F, operator_symbol(L, g.dim)),
                    parse_position(format_position(g), g.dim),
                    parse_momentum(format_momentum(F), g.dim)):
            _assert_normal_form(out)

    @settings(max_examples=60, deadline=None)
    @given(position_functions(), operators)
    def test_operators_on_fractional_exponents(self, f, L):
        _assert_normal_form(apply_operator(L, f))
        _assert_normal_form(cs_derivative_position(f))

    @settings(max_examples=40, deadline=None)
    @given(window_functions(with_local=False), st.integers(1, 3))
    def test_representation_and_surface(self, seed, m):
        target = PositionFunction.build(
            seed.dim, apply_operator(DiffOperator.box(m), seed).radial)
        try:
            rep = find_representation(target)
        except NotRepresentableError:
            return
        _assert_normal_form(rep.g)
        for _, value in surface_expansion(rep.L, rep.g).entries:
            _assert_normal_form(value)

    @given(position_functions(), position_functions(), small_rationals)
    def test_vector_space(self, f, g, a):
        for out in (add(f, g), sub(f, g), scale(a, f), normalize(f)):
            _assert_normal_form(out)

    @given(momentum_functions(), momentum_functions(), small_rationals)
    def test_vector_space_momentum(self, F, G, a):
        for out in (add(F, G), sub(F, G), scale(a, F), normalize(F)):
            _assert_normal_form(out)

    def test_cs_derivative_folds_a_log_free_even_power(self):
        # d/d log M^2 of p^2 L is -p^2, the polynomial (-p^2)^1
        F = cs_derivative(parse_momentum("p^2*log(p^2/M^2)", 4))
        _assert_normal_form(F)
        assert F == MomentumFunction(4, (), ((ONE, 1),))

    def test_parsed_integral_powers_fold(self):
        # p^0 and p^(-1/2 + 9/2) = p^4, reached through fractional exponents
        F = parse_momentum("p^0*p^0*log(p^2/M^2)^0 + p^-1/2/p^-9/2", 4)
        _assert_normal_form(F)
        assert F == MomentumFunction(4, (), ((ONE, 0), (ONE, 2)))


class TestOneRecordPerTerm:
    def test_warm_producers_run_no_public_term_init(self, monkeypatch):
        # each output term record is made once, with its slots set directly,
        # not through RadialTerm, LocalTerm or MomentumTerm and a re-merge
        text = "3*r^-6*log(r^2*M^2) + 1/2*r^-6 - pi*r^-7*log(r^2*M^2)^2 + box*delta"
        f = parse_position(text, 4)
        target = PositionFunction.build(4, f.radial)
        rep = find_representation(target)
        L = DiffOperator.build({0: PI, 1: ONE, 2: Coefficient.rational(Fraction(1, 3))})
        calls = [lambda: parse_position(text, 4), lambda: fourier_base(rep.g),
                 lambda: apply_operator(L, f), lambda: apply_operator(rep.L, rep.g),
                 lambda: find_representation(target)]
        warm = [call() for call in calls]
        count = []
        for cls in (RadialTerm, LocalTerm, MomentumTerm):
            def counting(self, *args, _init=cls.__init__):
                count.append(type(self).__name__)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        for call, value in zip(calls, warm):
            count.clear()
            assert call() == value
            assert count == []
        RadialTerm(ONE, -2)
        assert count == ["RadialTerm"]  # the patch counts


class TestSub:
    @given(position_functions(), position_functions())
    def test_is_add_of_the_negation(self, f, g):
        assert sub(f, g) == add(f, scale(-1, g))

    @given(momentum_functions(), momentum_functions())
    def test_is_add_of_the_negation_momentum(self, F, G):
        assert sub(F, G) == add(F, scale(-1, G))

    def test_makes_no_product(self, monkeypatch):
        f = add(position_term(4, PI, -2, 1), delta_term(4, 3, 1))
        g = add(position_term(4, LN2, -2, 1), position_term(4, 2, -3))
        want = sub(f, g)
        count = []
        original = Coefficient.__mul__

        def counting(self, other):
            count.append(other)
            return original(self, other)

        monkeypatch.setattr(Coefficient, "__mul__", counting)
        monkeypatch.setattr(Coefficient, "__rmul__", counting)
        assert sub(f, g) == want and count == []
        assert want == PositionFunction.build(4, [
            RadialTerm(-2 * ONE, -3), RadialTerm(PI - LN2, -2, 1)], [LocalTerm(3 * ONE, 1)])

    def test_refuses_mixed_kinds_and_dims(self):
        with pytest.raises(TypeError):
            sub(position_term(4, 1, -2), momentum_term(4, 1, -2))
        with pytest.raises(DimensionMismatchError):
            sub(position_term(4, 1, -2), position_term(3, 1, -2))
