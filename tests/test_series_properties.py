"""Property tests of the series kernel against naive per-pair arithmetic.

The oracle below multiplies term by term in Fractions and checks each
pair's degree on its own, with no degree buckets, no common denominator
and no recurrence, so it shares no code with the convolution kernel it
checks (only series addition and scaling by a Fraction).
"""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from statindex.series import TruncatedSeries  # noqa: E402

# dense series take every monomial when there are at most this many
DENSE_LIMIT = 45

COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**18)),
)


def naive_mul(a, b):
    D = a.truncation
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            if sum(ea) + sum(eb) <= D:
                exps = tuple(x + y for x, y in zip(ea, eb))
                out[exps] = out.get(exps, Fraction(0)) + ca * cb
    return TruncatedSeries(a.variables, D, {e: c for e, c in out.items() if c})


def naive_exp(f):
    """sum_{k <= D} f^k / k! from naive products."""
    one = TruncatedSeries.constant(f.variables, f.truncation, 1)
    out, power = one, one
    for k in range(1, f.truncation + 1):
        power = naive_mul(power, f)
        out = out + power * Fraction(1, factorial(k))
    return out


@st.composite
def series_tuples(draw, count):
    """``count`` series over one set of 1-4 variables at one truncation 0-8,
    each sparse (a few random monomials) or dense (every monomial)."""
    n = draw(st.integers(1, 4))
    D = draw(st.integers(0, 8))
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    monomials = [e for e in product(range(D + 1), repeat=n) if sum(e) <= D]
    out = []
    for _ in range(count):
        if len(monomials) <= DENSE_LIMIT and draw(st.booleans()):
            chosen = monomials
        else:
            chosen = draw(st.lists(st.sampled_from(monomials), max_size=12, unique=True))
        out.append(TruncatedSeries(variables, D, {e: draw(COEFFICIENTS) for e in chosen}))
    return out


def assert_clean(s):
    n = len(s.variables)
    for exps, coeff in s.terms.items():
        assert type(exps) is tuple and len(exps) == n and sum(exps) <= s.truncation
        assert type(coeff) is Fraction and coeff != 0


PROPERTY = settings(max_examples=80, deadline=None)


@PROPERTY
@given(series_tuples(2))
def test_mul_matches_naive_convolution(pair):
    a, b = pair
    product_ab = a * b
    assert_clean(product_ab)
    assert product_ab == naive_mul(a, b)
    assert b * a == product_ab


@PROPERTY
@given(series_tuples(1))
def test_exp_matches_power_sum(single):
    (f,) = single
    f = f - TruncatedSeries.constant(f.variables, f.truncation, f.constant_term())
    e = f.exp()
    assert_clean(e)
    assert e == naive_exp(f)


@PROPERTY
@given(series_tuples(1), COEFFICIENTS.filter(bool))
def test_invert_is_a_two_sided_inverse(single, a0):
    (a,) = single
    variables, D = a.variables, a.truncation
    a = a + TruncatedSeries.constant(variables, D, a0 - a.constant_term())
    inv = a.invert()
    assert_clean(inv)
    one = TruncatedSeries.constant(variables, D, 1)
    assert naive_mul(inv, a) == one
    assert inv * a == one and a * inv == one


@PROPERTY
@given(series_tuples(3))
def test_mul_is_associative_and_distributive(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    # the cross terms cancel inside one product and must leave no zero behind
    difference_of_squares = (a + b) * (a - b)
    assert_clean(difference_of_squares)
    assert difference_of_squares == a * a - b * b
