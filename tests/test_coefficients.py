import copy
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from scipy import special

import diffreg
from diffreg.algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    position_term,
)
from diffreg.coeffs import (
    GAMMA_E,
    LN2,
    ONE,
    PI,
    ZERO,
    ZETA3,
    Coefficient,
    Record,
    gamma_exact,
    polygamma,
    sphere_area,
)
from diffreg.errors import DiffRegError, SymbolSetError
from diffreg.operators import DiffOperator
from diffreg.quotient import Character, IdealElement, diagram_audit
from diffreg.regulate import Representation, find_representation, mass_shift
from diffreg.surface import SurfaceExpansion, leading_divergence, surface_expansion

from conftest import coefficients, monomials, small_rationals


class TestRingAxioms:
    @given(coefficients(), coefficients(), coefficients())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(coefficients(), coefficients())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(coefficients(), coefficients())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(coefficients(), coefficients(), coefficients())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(coefficients(), coefficients(), coefficients())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(coefficients())
    def test_identities(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO

    @given(coefficients())
    def test_negation(self, a):
        assert a + (-a) == ZERO
        assert -(-a) == a


# -- normal form against a reference ----------------------------------------


def _reference(pairs):
    """Normal form by the definition: accumulate in a dict, drop zeros, sort."""
    acc = {}
    for m, q in pairs:
        acc[m] = acc.get(m, Fraction(0)) + Fraction(q)
    return tuple(sorted((m, q) for m, q in acc.items() if q != 0))


def assert_normal(c):
    monos = [m for m, _ in c.terms]
    assert all(x < y for x, y in zip(monos, monos[1:]))
    assert all(type(q) is Fraction and q != 0 for _, q in c.terms)


ring_monomials = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
nonzero_rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=4),
)
ring_elements = st.dictionaries(ring_monomials, nonzero_rationals, max_size=4).map(
    lambda d: Coefficient(_reference(d.items()))
)
scalars = st.sampled_from(
    [0, 1, -1, 2, Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3, 7)]
)


@st.composite
def operand_pairs(draw):
    """(a, b) where b may carry some of a's monomials with the opposite
    value, so that a + b cancels exactly there."""
    a, b = draw(ring_elements), draw(ring_elements)
    if not a.terms:
        return a, b
    cancel = draw(st.lists(st.sampled_from(a.terms), unique=True))
    terms = dict(b.terms)
    terms.update((m, -q) for m, q in cancel)
    return a, Coefficient(_reference(terms.items()))


def _shift(m1, m2, sign=1):
    return tuple(x + sign * y for x, y in zip(m1, m2))


class TestNormalForm:
    @given(operand_pairs())
    def test_add_sub(self, ab):
        a, b = ab
        for got, want in (
            (a + b, a.terms + b.terms),
            (a - b, a.terms + tuple((m, -q) for m, q in b.terms)),
        ):
            assert_normal(got)
            assert got.terms == _reference(want)

    @given(operand_pairs())
    def test_mul(self, ab):
        a, b = ab
        got = a * b
        assert_normal(got)
        assert got.terms == _reference(
            (_shift(m1, m2), q1 * q2) for m1, q1 in a.terms for m2, q2 in b.terms
        )

    @given(ring_elements, scalars)
    def test_scalar_mul(self, a, s):
        want = _reference((m, q * s) for m, q in a.terms)
        for got in (a * s, s * a):
            assert_normal(got)
            assert got.terms == want

    @given(ring_elements, ring_monomials, nonzero_rationals)
    def test_divide(self, c, mono, r):
        # c * (r mono) / (r mono) == c, built without the ring's product
        a = Coefficient(_reference((_shift(m, mono), q * r) for m, q in c.terms))
        got = a.divide(Coefficient.monomial(r, *mono))
        assert_normal(got)
        assert got.terms == _reference(
            (_shift(m, mono, -1), q / r) for m, q in a.terms
        )
        assert got.terms == c.terms


class TestIntForm:
    """The int form behind ``terms``: numerators over one shared
    denominator, against the dict-of-Fraction reference."""

    @staticmethod
    def assert_int_normal(c):
        assert type(c.den) is int and c.den > 0
        assert all(type(x) is int and x != 0 for x in c.nums)
        assert len(c.nums) == len(c.monos)
        assert math.gcd(c.den, *c.nums) == 1
        assert all(x < y for x, y in zip(c.monos, c.monos[1:]))
        assert c.terms == tuple((m, Fraction(x, c.den)) for m, x in zip(c.monos, c.nums))
        assert_normal(c)

    def check(self, got, want_pairs):
        self.assert_int_normal(got)
        assert got.terms == _reference(want_pairs)

    @given(operand_pairs())
    def test_sum_difference_negation(self, ab):
        a, b = ab
        self.check(a + b, a.terms + b.terms)
        self.check(a - b, a.terms + tuple((m, -q) for m, q in b.terms))
        self.check(-a, tuple((m, -q) for m, q in a.terms))

    @given(coefficients(), coefficients())
    def test_product(self, a, b):
        self.check(a * b, ((_shift(m1, m2), q1 * q2) for m1, q1 in a.terms for m2, q2 in b.terms))

    @given(coefficients(), st.integers(min_value=-30, max_value=30) | nonzero_rationals
           | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)))
    def test_scalar_product(self, a, s):
        for got in (a * s, s * a):
            self.check(got, ((m, q * s) for m, q in a.terms))

    @given(coefficients(), ring_monomials, small_rationals.filter(bool))
    def test_divide(self, c, mono, r):
        a = c * Coefficient.monomial(r, *mono)
        self.check(a.divide(Coefficient.monomial(r, *mono)), c.terms)
        self.check(a.divide(r), ((m, q / r) for m, q in a.terms))
        self.check(a.divide(r.numerator), ((m, q / r.numerator) for m, q in a.terms))

    @given(coefficients(max_terms=2), st.integers(min_value=0, max_value=3))
    def test_power(self, a, k):
        want = ONE.terms
        for _ in range(k):
            want = _reference((_shift(m1, m2), q1 * q2) for m1, q1 in want for m2, q2 in a.terms)
        self.check(a ** k, want)

    @given(small_rationals.filter(bool), st.integers(min_value=1, max_value=3))
    def test_negative_power(self, q, k):
        self.check(Coefficient.rational(q) ** -k, [((0, 0, 0, 0), 1 / q ** k)])

    @given(coefficients(max_terms=4))
    def test_evalf_bit_identical_to_the_fraction_sum(self, c):
        total = 0.0
        for m, q in c.terms:
            v = float(q)
            for exp, sym in zip(m, (PI, GAMMA_E, LN2, ZETA3)):
                if exp:
                    v *= sym.evalf() ** exp
            total += v
        assert c.evalf().hex() == total.hex()

    @given(st.lists(st.tuples(monomials, small_rationals), max_size=5))
    def test_constructor_and_ring_agree(self, pairs):
        built = Coefficient(_reference(pairs))
        ring = ZERO
        for m, q in pairs:
            ring = ring + Coefficient.monomial(q, *m)
        self.assert_int_normal(built)
        self.assert_int_normal(ring)
        assert built == ring and hash(built) == hash(ring) and repr(built) == repr(ring)
        assert pickle.loads(pickle.dumps(ring)) == built

    @given(st.lists(st.tuples(monomials, small_rationals | st.integers(-9, 9)), max_size=6))
    def test_constructor_normalizes_any_pairs(self, pairs):
        # unsorted, repeated monomials, zero and int values: the same value
        # as the ring builds, in the same int form and terms
        built = Coefficient(tuple(pairs))
        ring = ZERO
        for m, q in pairs:
            ring = ring + Coefficient.monomial(q, *m)
        self.check(built, pairs)
        assert built == ring and hash(built) == hash(ring) and repr(built) == repr(ring)
        assert (built - ring).is_zero()

    def test_unsorted_terms_equal_the_ring_value(self):
        c = Coefficient((((1, 0, 0, 0), Fraction(1)), ((0, 0, 0, 0), Fraction(1))))
        assert c == ONE + PI and hash(c) == hash(ONE + PI)
        assert c.terms == (ONE + PI).terms
        assert Coefficient((((0, 0, 1, 0), Fraction(1, 2)), ((0, 0, 1, 0), Fraction(-1, 2)))) == ZERO

    @pytest.mark.parametrize("value", [0.5, 1.0, "1", None, complex(1, 0)])
    def test_constructor_refuses_inexact_values(self, value):
        with pytest.raises(TypeError, match="expected exact rational"):
            Coefficient((((0, 0, 0, 0), value),))


class TestOperands:
    """Ring arithmetic takes a Coefficient, an int or a Fraction on either
    side, and any other operand gives TypeError."""

    @pytest.mark.parametrize("op", [
        lambda x: PI * x, lambda x: x * PI, lambda x: PI + x, lambda x: x + PI,
        lambda x: PI - x, lambda x: x - PI,
    ])
    @pytest.mark.parametrize("x", [2.0, 1.0, math.nan, 1j, "1", None])
    def test_unsupported_operand_is_type_error(self, op, x):
        with pytest.raises(TypeError):
            op(x)

    @pytest.mark.parametrize("x", [2, -1, 0, Fraction(3, 4)])
    def test_rational_operand_on_either_side(self, x):
        c = Coefficient.rational(x)
        assert PI * x == x * PI == PI * c
        assert PI + x == x + PI == PI + c
        assert PI - x == PI - c
        assert x - PI == c - PI


class TestEvalf:
    # evalf is a ring homomorphism up to roundoff
    @given(coefficients(), coefficients())
    def test_add_homomorphism(self, a, b):
        lhs = (a + b).evalf()
        rhs = a.evalf() + b.evalf()
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    @given(coefficients(max_terms=2), coefficients(max_terms=2))
    def test_mul_homomorphism(self, a, b):
        lhs = (a * b).evalf()
        rhs = a.evalf() * b.evalf()
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_symbol_values(self):
        assert PI.evalf() == math.pi
        assert GAMMA_E.evalf() == pytest.approx(0.5772156649015329, rel=1e-15)
        assert LN2.evalf() == math.log(2.0)
        assert ZETA3.evalf() == pytest.approx(1.2020569031595943, rel=1e-15)

    def test_deterministic(self):
        c = PI * PI + 3 * GAMMA_E - Coefficient.rational(Fraction(7, 3)) * LN2
        assert c.evalf() == c.evalf()


class TestQueries:
    def test_rational_value(self):
        assert Coefficient.rational(Fraction(3, 7)).rational_value() == Fraction(3, 7)
        assert ZERO.rational_value() == 0
        with pytest.raises(DiffRegError):
            PI.rational_value()

    def test_divide(self):
        c = 6 * PI * PI
        assert c.divide(2 * PI) == 3 * PI
        with pytest.raises(DiffRegError):
            GAMMA_E.divide(PI)
        with pytest.raises(DiffRegError):
            (PI + ONE).divide(PI + ONE)  # not a single monomial

    def test_pow(self):
        assert PI ** 3 == PI * PI * PI
        assert (2 * ONE) ** -2 == Coefficient.rational(Fraction(1, 4))


class TestSpecialValues:
    def test_gamma_integers(self):
        assert gamma_exact(Fraction(1)) == (Fraction(1), 0)
        assert gamma_exact(Fraction(5)) == (Fraction(24), 0)

    def test_gamma_half_integers(self):
        # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2
        assert gamma_exact(Fraction(1, 2)) == (Fraction(1), 1)
        assert gamma_exact(Fraction(3, 2)) == (Fraction(1, 2), 1)
        assert gamma_exact(Fraction(7, 2)) == (Fraction(15, 8), 1)

    @pytest.mark.parametrize("x", [Fraction(k, 2) for k in range(1, 41)])
    def test_polygamma_against_scipy(self, x):
        xf = float(x)
        for k in range(3):
            assert polygamma(k, x).evalf() == pytest.approx(special.polygamma(k, xf), rel=1e-12)

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-1), Fraction(0)])
    def test_polygamma_rejects_off_lattice(self, x):
        # gamma_exact and polygamma share one lattice check
        with pytest.raises(SymbolSetError):
            gamma_exact(x)
        for k in range(3):
            with pytest.raises(SymbolSetError):
                polygamma(k, x)

    def test_sphere_area_exact(self):
        assert sphere_area(2) == 2 * PI
        assert sphere_area(3) == 4 * PI
        assert sphere_area(4) == 2 * PI * PI

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sphere_area_numeric(self, n):
        expected = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        assert sphere_area(n).evalf() == pytest.approx(expected, rel=1e-14)

    def test_sphere_area_table_keys_by_type(self):
        # 4.0 is a different key from 4 and Fraction(4), so it still raises
        # as Fraction(4.0, 2) does
        assert sphere_area(4) == 2 * PI * PI
        assert sphere_area(Fraction(4)) == 2 * PI * PI
        for _ in range(2):
            with pytest.raises(TypeError):
                sphere_area(4.0)
        assert sphere_area(4) is sphere_area(4)

    def test_sphere_area_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(DiffRegError):
                sphere_area(0)

    def test_float_arguments_raise_after_exact_calls(self):
        gamma_exact(Fraction(1, 2))
        polygamma(0, Fraction(1, 2))
        with pytest.raises(TypeError):
            gamma_exact(0.5)
        for k in range(3):
            with pytest.raises(TypeError):
                polygamma(k, 0.5)


def _tables():
    """Every lru_cache table defined in a module of the package, by name."""
    for info in pkgutil.iter_modules(diffreg.__path__):
        module = importlib.import_module(f"diffreg.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__:
                yield f"{info.name}.{name}", fn


def test_every_table_is_bounded_and_typed():
    # typed, so an int key never reads an entry that an equal Fraction or
    # float made; the exponent keys are in as_exponent form already
    tables = dict(_tables())
    # a table only where warm work reads it: adding or dropping one is a
    # deliberate edit of this set
    assert set(tables) == {
        "coeffs.sphere_area", "fourier._fourier_unit", "fourier._inverse_rows",
        "numeric._contour_table", "numeric._laguerre_rule", "numeric._omega",
        "numeric._start_moments", "numeric._tail_moment", "operators._box_unit",
        "regulate._seed_rows", "surface._seed_brackets",
    }
    for name, fn in tables.items():
        params = fn.cache_parameters()
        assert type(params["maxsize"]) is int and params["typed"] is True, name


def _sample_records():
    """One value of every record class, built the way the package builds
    them."""
    rep = find_representation(position_term(4, 1, -4))
    se = surface_expansion(rep.L, rep.g)
    audit = diagram_audit(
        IdealElement(position_term(4, 1, -2), position_term(4, 1, -2)), Character(1.5, 4, 2.0)
    )
    f = PositionFunction.build(
        4, [RadialTerm(GAMMA_E, Fraction(-3, 2), 1)], [LocalTerm(PI, 1)], ["flag"]
    )
    F = MomentumFunction.build(4, [MomentumTerm(LN2, -2, 1)], [(ZETA3, 1)])
    return [PI, *f.radial, *f.local, f, *F.terms, F, rep.L, se, leading_divergence(se),
            rep, mass_shift(rep, LN2), audit.character, audit.elem, audit]


RECORDS = _sample_records()


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__slots__)


records = pytest.mark.parametrize("x", RECORDS, ids=lambda x: type(x).__name__)


class TestRecord:
    """The immutable values compare, hash, print and pickle as their
    field tuple, and only a record of the same class equals a record."""

    def test_every_record_class_is_sampled(self):
        assert {type(x) for x in RECORDS} == set(Record.__subclasses__())

    @records
    @pytest.mark.parametrize("dup", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, x, dup):
        y = dup(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)

    def test_equal_only_to_its_class(self):
        assert PositionFunction.build(4) != MomentumFunction.build(4)
        for x in RECORDS:
            assert x != _fields(x) and _fields(x) != x

    @records
    def test_equal_records_hash_equal(self, x):
        y = type(x)(*_fields(x))
        assert y is not x and y == x and hash(y) == hash(x) == hash(_fields(x))

    @records
    def test_fields_refuse_assignment_and_deletion(self, x):
        name = type(x).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = None
        assert not hasattr(x, "__dict__")

    @records
    def test_keyword_construction(self, x):
        assert type(x)(**dict(zip(type(x).__slots__, _fields(x)))) == x

    @records
    def test_repr_names_every_field(self, x):
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(type(x).__slots__, _fields(x)))
        assert repr(x) == f"{type(x).__name__}({fields})"

    @pytest.mark.parametrize("make", [
        lambda: RadialTerm(ONE, -2, -1),
        lambda: MomentumTerm(ONE, -2, -1),
        lambda: LocalTerm(ONE, -1),
        lambda: Character(math.nan, 4),
        lambda: Character(1.0, 4, math.inf),
    ])
    def test_init_rejects_bad_field(self, make):
        with pytest.raises(ValueError):
            make()

    def test_init_rejects_dimension_mismatch(self):
        with pytest.raises(DiffRegError, match="share a dimension"):
            IdealElement(position_term(3, 1, -1), position_term(4, 1, -2))

    def test_init_makes_integral_exponent_int(self):
        t = RadialTerm(ONE, Fraction(4, 2))
        assert t.rpow == 2 and type(t.rpow) is int

    @records
    def test_missing_field_names_the_class(self, x):
        cls = type(x)
        rest = dict(zip(cls.__slots__[1:], _fields(x)[1:]))
        if cls is Coefficient or cls.__slots__[0] in cls._defaults:
            assert cls(**rest) == cls(())  # the one field defaults to the empty sum
        else:
            with pytest.raises(TypeError, match=cls.__name__):
                cls(**rest)

    @records
    @pytest.mark.parametrize("bad", [
        lambda cls, fields: cls(*fields, extra=None),
        lambda cls, fields: cls(*fields, **{cls.__slots__[0]: fields[0]}),
        lambda cls, fields: cls(*fields, None),
    ], ids=["unknown", "twice", "surplus"])
    def test_bad_arguments_name_the_class(self, x, bad):
        with pytest.raises(TypeError, match=type(x).__name__):
            bad(type(x), _fields(x))

    @records
    def test_defaults_fill_left_out_fields(self, x):
        cls = type(x)
        assert set(cls._defaults) <= set(cls.__slots__)
        given = dict(zip(cls.__slots__, _fields(x)))
        for field, default in cls._defaults.items():
            made = cls(**{k: v for k, v in given.items() if k != field})
            assert getattr(made, field) == default and made == cls(**dict(given, **{field: default}))

    def test_defaults(self):
        assert PositionFunction(4) == PositionFunction.build(4)
        assert MomentumFunction(4) == MomentumFunction.build(4)
        assert DiffOperator() == DiffOperator.build({})
        se = SurfaceExpansion(4)
        assert (se.entries, se.remainder_eps_pow, se.remainder_log_pow) == ((), 2, 1)
        rep = next(x for x in RECORDS if type(x) is Representation)
        assert Representation(rep.L, rep.g, rep.target).note == "equality holds for r != 0"
