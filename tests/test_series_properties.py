"""Property tests of the series kernel against naive per-pair arithmetic.

The oracle below multiplies term by term in Fractions and checks each
pair's degree on its own, with no degree buckets, no common denominator
and no recurrence, so it shares no code with the convolution kernel it
checks (only series addition and scaling by a Fraction).  The integer form
a series is held in is checked the same way: the linear operations and
restrictions against Fraction-dict versions written here, equality and
hashing against Fraction-dict equality, and the memoised one-variable
factors against freshly built ones, whose value at a lower truncation must
be their value at a higher one truncated.  The rule verify uses to compare two
products over the roots on their one-variable blocks
(``pairings._products_agree``) is checked against equality of the
expanded products (``series.root_product``).
"""

from fractions import Fraction
from itertools import product
from math import factorial, gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from statindex.genera import GENUS_KINDS, _root_factor, generating_series  # noqa: E402
from statindex.pairings import (  # noqa: E402
    MODES,
    PAIRING_KINDS,
    _brute_block,
    _literal_blocks,
    _RootFactor,
    _lower_root,
    _products_agree,
    _root_data,
    pairing_density,
)
from statindex.series import TruncatedSeries, _truncated, root_product  # noqa: E402

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
    # the integer form is canonical and agrees with the Fraction view
    assert s._den > 0 and gcd(s._den, *s._nums.values()) == 1
    assert {e: Fraction(n, s._den) for e, n in s._nums.items()} == s.terms


# max_examples comes from the active profile (tests/conftest.py)
PROPERTY = settings(deadline=None)


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
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    assert a * (b + c) == a * b + a * c
    # the cross terms cancel inside one product and must leave no zero behind
    difference_of_squares = (a + b) * (a - b)
    assert_clean(difference_of_squares)
    assert difference_of_squares == a * a - b * b


# -- the integer form against Fraction dicts -------------------------------------


def fraction_dict(terms):
    return {e: c for e, c in terms.items() if c}


def naive_add(a, b, sign=1):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return fraction_dict(out)


def has_value(s, variables, truncation, terms):
    assert_clean(s)
    return (s.variables, s.truncation, s.terms) == (tuple(variables), truncation, terms)


@PROPERTY
@given(series_tuples(2), st.booleans())
def test_equality_and_hash_of_the_integer_form(pair, perturb):
    a, b = pair
    again = TruncatedSeries(a.variables, a.truncation, dict(a.terms))
    assert again == a and hash(again) == hash(a)
    assert TruncatedSeries.from_json_dict(a.to_json_dict()) == a
    if perturb:
        # a copy of a, with one coefficient moved by a tiny amount
        terms = dict(a.terms)
        if terms:
            terms[min(terms)] += Fraction(1, 10**30)
        b = TruncatedSeries(a.variables, a.truncation, terms)
    assert (a == b) == (a.terms == b.terms)
    assert (a != b) == (a.terms != b.terms)
    # one value built two ways
    round_trip = a + b - b
    assert round_trip == a and hash(round_trip) == hash(a)
    doubled = (a + a) * Fraction(1, 2)
    assert doubled == a and hash(doubled) == hash(a)


@PROPERTY
@given(series_tuples(2), COEFFICIENTS, st.data())
def test_linear_operations_and_restrictions_match_fraction_dicts(pair, q, data):
    a, b = pair
    v, D = a.variables, a.truncation
    assert has_value(a + b, v, D, naive_add(a, b))
    assert has_value(a - b, v, D, naive_add(a, b, -1))
    assert has_value(-a, v, D, {e: -c for e, c in a.terms.items()})
    scaled = fraction_dict({e: c * q for e, c in a.terms.items()})
    assert has_value(a * q, v, D, scaled) and has_value(q * a, v, D, scaled)
    t = data.draw(st.integers(0, D))
    assert has_value(a.truncate(t), v, t, {e: c for e, c in a.terms.items() if sum(e) <= t})
    d = data.draw(st.integers(0, D + 1))
    part = {e: c for e, c in a.terms.items() if sum(e) == d}
    assert has_value(a.homogeneous_part(d), v, D, part)
    k = data.draw(st.integers(0, len(v) - 1))
    bumped = {e[:k] + (e[k] + 1,) + e[k + 1 :]: c for e, c in a.terms.items()}
    assert has_value(TruncatedSeries(v, D + 1, bumped).quotient_by(v[k]), v, D, a.terms)
    if a.constant_term():
        with pytest.raises(ValueError, match="lacks a factor"):
            a.quotient_by(v[k])


@PROPERTY
@given(series_tuples(1), st.data())
def test_embed_and_rename_match_fraction_dicts(single, data):
    (a,) = single
    v, D = a.variables, a.truncation
    extra = tuple(f"y{i}" for i in range(data.draw(st.integers(0, 2))))
    target = tuple(data.draw(st.permutations(v + extra)))
    T = data.draw(st.integers(0, D + 2))
    embedded = {}
    for exps, c in a.terms.items():
        if sum(exps) <= T:
            by_name = dict(zip(v, exps))
            embedded[tuple(by_name.get(name, 0) for name in target)] = c
    assert has_value(a.embed(target, T), target, T, embedded)
    renamed = tuple(f"r{name}" if k % 2 else name for k, name in enumerate(v))
    assert has_value(a.rename(dict(zip(v, renamed))), renamed, D, a.terms)
    if len(v) > 1:
        with pytest.raises(ValueError, match="duplicate"):
            a.rename({v[0]: v[1]})


@pytest.mark.parametrize("D", (1, 4, 9, 16))
def test_memoised_factors_equal_fresh_ones(D):
    for kind in GENUS_KINDS:
        fresh = _root_factor.__wrapped__(kind, D)
        assert generating_series(kind, D) == fresh
        assert generating_series(kind, D).terms == fresh.terms
        assert generating_series(kind, D) is generating_series(kind, D)
    for kind in PAIRING_KINDS:
        for mode in ("exact", "nondegenerate"):
            root = pairing_density(kind, 1, mode)
            fresh = _lower_root.__wrapped__(_root_data(kind, mode)[1], D)
            assert root.root_factor(D) == fresh
            assert root.root_factor(D).terms == fresh.terms


# every key of the four grown memos, with the lowest truncation its builder takes
GROWN_KEYS = (
    [(_root_factor, (kind,), 0) for kind in GENUS_KINDS]
    + [(_lower_root, (factor,), 0) for factor in sorted(  # records are not orderable
        {_root_data(kind, mode)[1] for kind in PAIRING_KINDS for mode in MODES},
        key=_RootFactor._key)]
    + [(_brute_block, (kind,), 0) for kind in PAIRING_KINDS]
    + [(_literal_blocks, (kind,), 1) for kind in ("bb", "bf")]
)


@PROPERTY
@given(st.sampled_from(GROWN_KEYS), st.integers(0, 24), st.integers(0, 24))
def test_a_block_truncated_is_the_block_built_at_the_lower_truncation(case, D, D_up):
    builder, key, lowest = case
    D, D_up = sorted((max(D, lowest), max(D_up, lowest)))
    hypothesis.assume(D < D_up)
    low = builder.__wrapped__(*key, D)
    truncated = _truncated(builder.__wrapped__(*key, D_up), D)
    assert truncated == low  # series compare by header, _den and _nums


NONZERO = COEFFICIENTS.filter(bool)
MUTATIONS = ("scaled", "low", "zero", "lowest", "high", "free")


@st.composite
def block_pairs(draw):
    """Scalars and one-variable blocks s_a, a, s_b, b over n <= 4 roots
    through degree D <= 9, a built from b by one mutation; whether the two
    products must agree, and n and D."""
    n, D = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    top = D + draw(st.integers(0, 2))
    degrees = draw(st.lists(st.integers(0, top), max_size=7, unique=True))
    b = {(k,): draw(COEFFICIENTS) for k in degrees}
    if draw(st.booleans()):  # a term low enough that the product need not vanish
        b[(draw(st.integers(0, D // n)),)] = draw(NONZERO)
    s_b = draw(COEFFICIENTS)
    a, s_a, agree = dict(b), s_b, False
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "scaled":
        c = draw(NONZERO)
        a, s_a, agree = {e: c * v for e, v in b.items()}, Fraction(s_b) / c ** n, True
    elif mutation == "low":
        k = draw(st.integers(0, D))
        a[(k,)] = b.get((k,), 0) + draw(NONZERO)
    elif mutation == "zero":
        a, s_a = draw(st.sampled_from(((a, 0), ({}, s_a), ({}, 0))))
        s_b = draw(st.sampled_from((s_b, 0)))
    elif mutation == "lowest":
        a = {(k + 1,): v for (k,), v in b.items()}
    elif mutation == "high":
        # a coefficient above D - (n - 1) m, m the lowest degree, is never reached
        m = min((k for (k,), v in b.items() if v), default=None)
        if s_b and m is not None and n * m <= D and D - (n - 1) * m < top:
            k = draw(st.integers(D - (n - 1) * m + 1, top))
            a[(k,)] = b.get((k,), 0) + draw(NONZERO)
            agree = True
    else:
        a = {(k,): draw(COEFFICIENTS) for k in draw(st.lists(st.integers(0, top), max_size=7))}
        s_a = draw(COEFFICIENTS)
    block = lambda terms: TruncatedSeries(("x",), top, terms)  # noqa: E731
    return s_a, block(a), s_b, block(b), agree, n, D


@PROPERTY
@given(block_pairs())
def test_block_rule_matches_expanded_products(case):
    s_a, a, s_b, b, agree, n, D = case
    expanded = root_product([a] * n, D, s_a) == root_product([b] * n, D, s_b)
    assert _products_agree(a, s_a, b, s_b, n, D) is expanded
    assert _products_agree(b, s_b, a, s_a, n, D) is expanded
    assert expanded or not agree
