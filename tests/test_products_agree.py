"""Property test of verify's block rule in integer form.

``pairings._products_agree`` decides whether s_a prod a(x_i) = s_b prod
b(x_i) over n roots by cross-multiplying the blocks' integer numerators.
The reference below is the rule written on ``Fraction`` coefficients, one
``coefficient`` read per term; both must reach the same decision and raise
the same ValueError on every input.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from statindex.pairings import _products_agree  # noqa: E402
from statindex.series import TruncatedSeries, _check_root_block  # noqa: E402


def fraction_products_agree(a, s_a, b, s_b, n, D):
    """The block rule on Fraction coefficients."""
    def lowest(block, scalar):
        _check_root_block(block, D)
        return next((k for k in range(D // n + 1) if scalar and block.coefficient((k,))), None)
    m, m_b = lowest(a, s_a), lowest(b, s_b)
    if m is None or m != m_b:
        return m == m_b
    s_a *= a.coefficient((m,)) ** (n - 1)
    s_b *= b.coefficient((m,)) ** (n - 1)
    return all(s_a * a.coefficient((k,)) == s_b * b.coefficient((k,))
               for k in range(m, D - (n - 1) * m + 1))


COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**18)),
)
NONZERO = COEFFICIENTS.filter(bool)


@st.composite
def block_pairs(draw):
    """Scalars (zero and negative among them) and one-variable blocks over
    n <= 12 roots through degree D <= 30; b is drawn, a is b scaled so that
    the products agree, b shifted up by some degrees, b with one coefficient
    changed, or drawn apart.  A block may be known only below D."""
    n, D = draw(st.integers(1, 12)), draw(st.integers(0, 30))
    top = max(0, D + draw(st.integers(-1, 2)))
    degrees = draw(st.lists(st.integers(0, top), max_size=8, unique=True))
    b = {(k,): draw(COEFFICIENTS) for k in degrees}
    if draw(st.booleans()):  # a term low enough that the product need not vanish
        b[(draw(st.integers(0, D // n)),)] = draw(NONZERO)
    s_b = draw(COEFFICIENTS)
    a, s_a = dict(b), s_b
    mutation = draw(st.sampled_from(("scaled", "shifted", "changed", "free")))
    if mutation == "scaled":
        c = draw(NONZERO)
        a, s_a = {e: c * v for e, v in b.items()}, Fraction(s_b) / c ** n
    elif mutation == "shifted":  # unequal lowest degrees
        shift = draw(st.integers(1, 3))
        a = {(k + shift,): v for (k,), v in b.items() if k + shift <= top}
    elif mutation == "changed":
        k = draw(st.integers(0, top))
        a[(k,)] = b.get((k,), 0) + draw(NONZERO)
    else:
        a = {(k,): draw(COEFFICIENTS) for k in draw(st.lists(st.integers(0, top), max_size=8))}
        s_a = draw(COEFFICIENTS)
    block = lambda terms: TruncatedSeries(("x",), top, terms)  # noqa: E731
    return s_a, block(a), s_b, block(b), n, D


def outcome(rule, *args):
    try:
        return rule(*args)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(block_pairs())
def test_integer_block_rule_matches_the_fraction_rule(case):
    s_a, a, s_b, b, n, D = case
    for args in ((a, s_a, b, s_b, n, D), (b, s_b, a, s_a, n, D)):
        assert outcome(_products_agree, *args) == outcome(fraction_products_agree, *args)
