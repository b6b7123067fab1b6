"""Shared hypothesis strategies for the exact layers, and a counter of
the calls that build a box^m table entry."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from diffreg import operators, regulate
from diffreg.coeffs import Coefficient

small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)

monomials = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
)


@st.composite
def coefficients(draw, max_terms=3):
    pairs = draw(
        st.lists(st.tuples(monomials, small_rationals), max_size=max_terms)
    )
    acc = {}
    for m, q in pairs:
        acc[m] = acc.get(m, Fraction(0)) + q
    return Coefficient.from_dict(acc)


@pytest.fixture
def box_derivative_calls(monkeypatch):
    """The arguments of every box_derivatives call that the operators and
    regulate modules make while the test runs: a miss of _box_unit or
    regulate._seed_rows, the tables that read it."""
    calls = []
    original = operators.box_derivatives

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (operators, regulate):
        monkeypatch.setattr(module, "box_derivatives", counting)
    return calls
