from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from diffreg.algebra import (
    LocalTerm,
    MomentumFunction,
    MomentumTerm,
    PositionFunction,
    RadialTerm,
    back_substitute,
    delta_term,
    eval_momentum,
    log_power_map,
    momentum_term,
    position_term,
)
from diffreg.coeffs import Coefficient, GAMMA_E, LN2, ONE, PI
from diffreg.errors import DiffRegError, FourierWindowError, SymbolSetError
from diffreg import fourier
from diffreg.fourier import (
    MAX_EXACT_LOGPOW,
    _fourier_unit,
    _inverse_rows,
    cs_derivative,
    cs_derivative_position,
    fourier_base,
    fourier_formal,
    fourier_safe,
    inverse_fourier_base,
    master_coefficients,
    term_route,
)
from diffreg.numeric import finite_diff_lnM, hankel_numeric
from diffreg.parser import parse_position
from diffreg.printer import format_momentum
from diffreg.regulate import find_representation

from conftest import coefficients, small_rationals
from algebra_reference import log_power_solve


class TestExactValues:
    def test_r_minus_2(self):
        F = fourier_base(position_term(4, 1, Fraction(-2)))
        assert len(F.terms) == 1
        t = F.terms[0]
        assert t.ppow == Fraction(-2)
        assert t.logpow == 0
        assert t.coeff == 4 * PI * PI

    def test_r_minus_2_log(self):
        F = fourier_base(position_term(4, 1, Fraction(-2), 1))
        # -(4 pi^2/p^2) [log(p^2/M^2) + 2 gammaE - 2 ln2]
        want = {
            (Fraction(-2), 1): -4 * PI * PI,
            (Fraction(-2), 0): -4 * PI * PI * (2 * GAMMA_E - 2 * LN2),
        }
        got = {(t.ppow, t.logpow): t.coeff for t in F.terms}
        assert got == want

    def test_dim3_coulomb(self):
        # F_3[r^-2] = 2 pi^2 / p
        F = fourier_base(position_term(3, 1, Fraction(-2)))
        assert F.terms == (
            type(F.terms[0])(2 * PI * PI, Fraction(-1), 0),
        )

    def test_delta_terms(self):
        F = fourier_base(delta_term(4, 3, boxpow=2))
        assert F.terms == ()
        assert F.local_poly == ((Coefficient.rational(3), 2),)
        assert eval_momentum(F, 2.0, 1.0) == 3.0 * 16.0


@pytest.mark.parametrize(
    "n, text, golden",
    [
        (4, "r^-4", "-pi^2*log(p^2/M^2) + (2*pi^2*ln2 - 2*pi^2*gammaE)"),
        (6, "r^-6", "-1/2*pi^3*log(p^2/M^2) + (1/2*pi^3 + pi^3*ln2 - pi^3*gammaE)"),
        (3, "r^-4*log(r^2*M^2)",
         "(-3*pi^2 + 2*pi^2*gammaE)*p^1 + pi^2*log(p^2/M^2)*p^1"),
    ],
)
def test_formal_transform_golden(n, text, golden):
    rep = find_representation(parse_position(text, n))
    assert format_momentum(fourier_formal(rep)) == golden


class TestWindow:
    def test_rejects_outside_window(self):
        with pytest.raises(FourierWindowError):
            fourier_base(position_term(4, 1, Fraction(-4)))
        with pytest.raises(FourierWindowError):
            fourier_base(position_term(4, 1, Fraction(1)))

    def test_rejects_deep_logs(self):
        with pytest.raises(SymbolSetError):
            fourier_base(position_term(4, 1, Fraction(-2), MAX_EXACT_LOGPOW + 1))

    def test_rejects_half_integer_2aprime(self):
        # 2a' = 3/2 needs polygamma off the half-integer lattice
        with pytest.raises(SymbolSetError):
            fourier_base(position_term(4, 1, Fraction(-3, 2)))

    def test_master_coefficients_depth_guard(self):
        with pytest.raises(SymbolSetError):
            master_coefficients(Fraction(1), 4, 4)

    def test_window_message_names_term_and_dim(self):
        with pytest.raises(FourierWindowError, match=r"r\^-4 log\^1 .* for dim 4"):
            fourier_base(position_term(4, 1, Fraction(-4), 1))

    def test_fourier_safe_predicate(self):
        assert fourier_safe(position_term(4, 1, Fraction(-2), 3))
        assert not fourier_safe(position_term(4, 1, Fraction(-4)))
        assert fourier_safe(delta_term(4, 1))


class TestRoute:
    """term_route is the one router of the transforms; its "exact" is the
    gate of master_coefficients."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_router_agrees_with_the_gate(self, n):
        lo, hi = -2 * n - 1, 2
        rpows = {Fraction(k, q) for q in (1, 2, 3) for k in range(q * lo, q * hi + 1)}
        for rpow in rpows:
            for k in range(6):
                t = RadialTerm(Coefficient.rational(1), rpow, k)
                route = term_route(t, n)
                try:
                    master_coefficients(Fraction(-t.rpow, 2), n, t.logpow)
                    gate = True
                except DiffRegError:
                    gate = False
                assert (route == "exact") == gate, (rpow, k)
                integral = rpow.denominator == 1
                assert (route == "regulated") == (integral and rpow <= -n), (rpow, k)
                assert (route is None) == (not integral and rpow <= -n), (rpow, k)


@pytest.mark.parametrize(
    "n, m, j", [(n, m, j) for n in range(1, 9) for m in range(1, n) for j in range(4)]
)
def test_master_coefficients_against_mpmath(n, m, j):
    # C^(j)(a') against mpmath's derivative of the master constant at a' = m/2
    def master(a):
        return mp.pi ** (mp.mpf(n) / 2) * 2 ** (n - 2 * a) * mp.gamma(mp.mpf(n) / 2 - a) / mp.gamma(a)

    with mp.workdps(40):
        ref = float(mp.diff(master, mp.mpf(m) / 2, j))
    got = master_coefficients(Fraction(m, 2), n, j)[j].evalf()
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.fixture
def master_calls(monkeypatch):
    """The arguments of every master_coefficients call that the fourier
    module makes while the test runs, which only a table miss makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return master_coefficients(*args)

    monkeypatch.setattr(fourier, "master_coefficients", counting)
    return calls


class TestTable:
    """master_coefficients is the gate that the unit-term tables run on a
    miss only: a term outside the exact class raises on every call."""

    def test_float_still_raises_after_exact_call(self):
        master_coefficients(Fraction(1, 2), 3, 0)
        for _ in range(2):
            with pytest.raises(TypeError):
                master_coefficients(0.5, 3, 0)

    @pytest.mark.parametrize(
        "args, exc",
        [
            ((Fraction(3), 4, 0), FourierWindowError),
            ((Fraction(-1, 2), 4, 1), FourierWindowError),
            ((Fraction(1), 4, MAX_EXACT_LOGPOW + 1), SymbolSetError),
            ((Fraction(3, 4), 4, 0), SymbolSetError),
        ],
    )
    def test_errors_are_not_cached(self, args, exc):
        for _ in range(2):
            with pytest.raises(exc):
                master_coefficients(*args)

    def test_second_transform_is_a_hit(self, master_calls):
        # the second transform reads the unit-term table and builds nothing
        g = position_term(5, 1, Fraction(-3), 2)
        first = fourier_base(g)
        hits = _fourier_unit.cache_info().hits
        master_calls.clear()
        assert fourier_base(g) == first
        assert _fourier_unit.cache_info().hits == hits + 1
        assert master_calls == []

    def test_int_and_fraction_exponents_share_an_entry(self, master_calls):
        # both exponents normalize to the int -2: the second transform
        # reads the entry the first one made or found
        F = fourier_base(position_term(4, 1, -2))
        assert len(master_calls) <= 1
        master_calls.clear()
        assert fourier_base(position_term(4, 1, Fraction(-2))) == F
        assert master_calls == []


# -- the unit-term tables against the generic log-power helpers ------------

WINDOW_KEYS = [(n, a, k) for n in range(2, 11) for a in range(1 - n, 0) for k in range(4)]
SYMBOLS = Coefficient.rational(Fraction(-3, 7)) + 2 * PI * LN2 + GAMMA_E


def ref_fourier_base(g):
    """fourier_base as the log-power map per term, with no table."""
    n = g.dim
    terms = []
    for t in g.radial:
        k = t.logpow
        C = master_coefficients(Fraction(-t.rpow, 2), n, k)
        c = -t.coeff if k % 2 else t.coeff
        terms += [MomentumTerm(cj, -t.rpow - n, j) for j, cj in log_power_map(c, k, C)]
    return MomentumFunction.build(n, terms, [(t.coeff, t.boxpow) for t in g.local], g.flags)


def ref_inverse_fourier_base(F):
    """inverse_fourier_base as log_power_solve per exponent, then the sign."""
    n = F.dim
    groups = {}
    for t in F.terms:
        groups.setdefault(t.ppow, {})[t.logpow] = t.coeff
    radial = []
    for ppow, levels in groups.items():
        C = master_coefficients(Fraction(ppow + n, 2), n, max(levels))
        for k, x in log_power_solve(levels, C).items():
            radial.append(RadialTerm(-x if k % 2 else x, -ppow - n, k))
    local = [LocalTerm(c, j) for c, j in F.local_poly]
    return PositionFunction.build(n, radial, local, F.flags)


def ref_cs_derivative(F):
    terms = [MomentumTerm(c, t.ppow, j) for t in F.terms
             for j, c in log_power_map(t.coeff, t.logpow, (0, -1))]
    return MomentumFunction.build(F.dim, terms, flags=F.flags)


def ref_cs_derivative_position(f):
    terms = [RadialTerm(c, t.rpow, j) for t in f.radial
             for j, c in log_power_map(t.coeff, t.logpow, (0, 1))]
    return PositionFunction.build(f.dim, terms, flags=f.flags)


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except DiffRegError as exc:
        return type(exc), str(exc)


@st.composite
def window_functions(draw):
    """Fourier-safe functions of dims 2-10: several log powers per window
    exponent, coefficients over the symbol set, and delta terms."""
    n = draw(st.integers(2, 10))
    nonzero = coefficients().filter(lambda c: not c.is_zero())
    radial = draw(st.lists(st.builds(RadialTerm, nonzero, st.integers(1 - n, -1),
                                     st.integers(0, MAX_EXACT_LOGPOW)), max_size=6))
    local = draw(st.lists(st.builds(LocalTerm, nonzero, st.integers(0, 3)), max_size=2))
    return PositionFunction.build(n, radial, local)


@st.composite
def momentum_functions(draw):
    """Momentum functions of dims 2-10 on window exponents, whose
    coefficients need not lie in the image class."""
    n = draw(st.integers(2, 10))
    nonzero = coefficients().filter(lambda c: not c.is_zero())
    terms = draw(st.lists(st.builds(MomentumTerm, nonzero, st.integers(1 - n, -1),
                                    st.integers(0, MAX_EXACT_LOGPOW)), max_size=6))
    return MomentumFunction.build(n, terms)


class TestUnitTables:
    """Each map reads a bounded table of its unit-term image; every entry
    equals the generic log_power_map / log_power_solve result."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_fourier_unit_over_the_key_space(self, n):
        for _, a, k in [key for key in WINDOW_KEYS if key[0] == n]:
            C = master_coefficients(Fraction(-a, 2), n, k)
            sign = -1 if k % 2 else 1
            assert repr(_fourier_unit(n, a, k)) == repr(tuple(log_power_map(sign * ONE, k, C)))
            # one product per output log power is the map of the coefficient
            got = [(j, SYMBOLS * q) for j, q in _fourier_unit(n, a, k)]
            assert repr(got) == repr(log_power_map(sign * SYMBOLS, k, C))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_inverse_rows_over_the_key_space(self, n):
        # the rows solve every unit level, and a dense and a sparse input,
        # as log_power_solve and the sign do; the forward map gives y back
        for _, ppow, top in [key for key in WINDOW_KEYS if key[0] == n]:
            C = master_coefficients(Fraction(ppow + n, 2), n, top)
            rows = _inverse_rows(n, ppow, top)
            inputs = [{j: C[0] * SYMBOLS} for j in range(top + 1)]
            inputs.append({j: C[0] * (SYMBOLS + j) for j in range(top + 1)})
            for y in inputs:
                got = back_substitute(y, rows)
                want = {k: -x if k % 2 else x for k, x in log_power_solve(y, C).items()}
                assert repr(sorted(got.items())) == repr(sorted(want.items()))
                image = {}
                for k, x in got.items():
                    for j, c in log_power_map(-x if k % 2 else x, k, C):
                        image[j] = image[j] + c if j in image else c
                assert {j: c for j, c in image.items() if not c.is_zero()} == y

    @settings(max_examples=150, deadline=None)
    @given(window_functions())
    def test_transforms_match_the_helpers(self, g):
        F = fourier_base(g)
        assert repr(F) == repr(ref_fourier_base(g))
        assert repr(inverse_fourier_base(F)) == repr(ref_inverse_fourier_base(F))
        assert repr(cs_derivative(F)) == repr(ref_cs_derivative(F))
        assert repr(cs_derivative_position(g)) == repr(ref_cs_derivative_position(g))

    @settings(max_examples=150, deadline=None)
    @given(momentum_functions())
    def test_inverse_off_the_image_class_matches_the_helpers(self, F):
        # the same value, or the same error at the same log power
        assert outcome(inverse_fourier_base, F) == outcome(ref_inverse_fourier_base, F)

    @pytest.mark.parametrize(
        "table, args, exc",
        [
            (_fourier_unit, (4, 0, 0), FourierWindowError),
            (_fourier_unit, (4, -4, 1), FourierWindowError),
            (_fourier_unit, (4, -2, MAX_EXACT_LOGPOW + 1), SymbolSetError),
            (_fourier_unit, (4, Fraction(-3, 2), 0), SymbolSetError),
            (_inverse_rows, (4, 0, 0), FourierWindowError),
            (_inverse_rows, (4, -2, MAX_EXACT_LOGPOW + 1), SymbolSetError),
        ],
    )
    def test_errors_are_not_cached(self, table, args, exc):
        size = table.cache_info().currsize
        for _ in range(2):
            misses = table.cache_info().misses
            with pytest.raises(exc):
                table(*args)
            assert table.cache_info().misses == misses + 1
        assert table.cache_info().currsize == size

    def test_second_inverse_is_a_hit(self, master_calls):
        F = fourier_base(position_term(6, PI, -4, 3))
        first = inverse_fourier_base(F)
        hits = _inverse_rows.cache_info().hits
        master_calls.clear()
        assert inverse_fourier_base(F) == first
        assert _inverse_rows.cache_info().hits == hits + 1
        assert master_calls == []

    def test_int_and_fraction_exponents_share_an_entry(self):
        fourier_base(position_term(7, 1, -3, 1))
        misses = _fourier_unit.cache_info().misses
        fourier_base(position_term(7, 1, Fraction(-3), 1))
        fourier_base(position_term(7, 1, Fraction(-6, 2), 1))
        assert _fourier_unit.cache_info().misses == misses

ORACLE_CASES = [
    (4, Fraction(-2), 0),
    (4, Fraction(-2), 1),
    (4, Fraction(-2), 2),
    (4, Fraction(-2), 3),
    (4, Fraction(-1), 0),
    (4, Fraction(-3), 1),
    (3, Fraction(-2), 0),
    (3, Fraction(-1), 1),
    (6, Fraction(-4), 2),
]


@pytest.mark.parametrize("n,a,k", ORACLE_CASES)
def test_oracle_agreement(n, a, k):
    f = position_term(n, 1, a, k)
    F = fourier_base(f)
    for p in (0.5, 1.0, 2.0):
        sym = eval_momentum(F, p, 1.0)
        num, _ = hankel_numeric(f, p, n)
        assert num == pytest.approx(sym, rel=1e-5, abs=1e-8)


def test_oracle_agreement_nonunit_mass():
    f = position_term(4, 1, Fraction(-2), 2)
    F = fourier_base(f)
    for M in (0.5, 2.0):
        sym = eval_momentum(F, 1.0, M)
        num, _ = hankel_numeric(f, 1.0, 4, M)
        assert num == pytest.approx(sym, rel=1e-5)


window_terms = st.tuples(
    small_rationals.filter(lambda q: q != 0),
    st.integers(-3, -1),
    st.integers(0, 2),
)


class TestInverse:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(window_terms, min_size=1, max_size=4))
    def test_round_trip(self, raw):
        f = PositionFunction.build(
            4,
            [RadialTerm(Coefficient.rational(q), Fraction(a), k) for q, a, k in raw],
        )
        assert inverse_fourier_base(fourier_base(f)) == f

    @pytest.mark.parametrize("n, a", [(n, a) for n in range(2, 7) for a in range(1 - n, 0)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_round_trip_symbol_coefficients(self, n, a, data):
        # several log powers at the exponent a, plus terms at other window
        # exponents, with coefficients over the whole symbol set
        nonzero = coefficients().filter(lambda c: not c.is_zero())
        logs = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
        terms = [RadialTerm(data.draw(nonzero), Fraction(a), k) for k in logs]
        for b, k in data.draw(st.lists(st.tuples(st.integers(1 - n, -1), st.integers(0, 3)),
                                       max_size=3)):
            terms.append(RadialTerm(data.draw(nonzero), Fraction(b), k))
        f = PositionFunction.build(n, terms)
        assert inverse_fourier_base(fourier_base(f)) == f

    def test_round_trip_with_delta(self):
        from diffreg.algebra import add

        f = add(position_term(4, 2, Fraction(-2), 1), delta_term(4, 5, boxpow=1))
        assert inverse_fourier_base(fourier_base(f)) == f

    def test_rejects_outside_window(self):
        with pytest.raises(FourierWindowError):
            inverse_fourier_base(momentum_term(4, 1, Fraction(-6)))

    def test_rejects_deep_logs(self):
        with pytest.raises(SymbolSetError):
            inverse_fourier_base(momentum_term(4, 1, Fraction(-2), MAX_EXACT_LOGPOW + 1))


class TestCallanSymanzik:
    def test_momentum_rule(self):
        F = momentum_term(4, 1, Fraction(-2), 2)
        out = cs_derivative(F)
        assert out.terms == (type(F.terms[0])(Coefficient.rational(-2), Fraction(-2), 1),)

    def test_position_rule(self):
        f = position_term(4, 1, Fraction(-2), 2)
        out = cs_derivative_position(f)
        assert out.radial == (RadialTerm(Coefficient.rational(2), Fraction(-2), 1),)

    def test_poly_part_drops(self):
        from diffreg.algebra import MomentumFunction

        F = MomentumFunction.build(4, local_poly=[(PI, 1)])
        assert cs_derivative(F).is_zero()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_commutes_with_transform(self, k):
        g = position_term(4, 1, Fraction(-2), k)
        lhs = cs_derivative(fourier_base(g))
        rhs = fourier_base(cs_derivative_position(g))
        assert lhs == rhs

    def test_matches_finite_difference(self):
        g = position_term(4, 1, Fraction(-2), 2)
        F = fourier_base(g)
        mdm = cs_derivative(F)
        p, M = 1.3, 0.9
        # M d/dM = 2 d/dlog(M^2)
        sym = 2.0 * eval_momentum(mdm, p, M)
        num = finite_diff_lnM(lambda pp, MM: eval_momentum(F, pp, MM), p, M)
        assert num == pytest.approx(sym, rel=1e-6)
