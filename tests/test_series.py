import random
from fractions import Fraction

import pytest

from statindex.series import (
    NonUnitError,
    TruncatedSeries,
    bernoulli_numbers,
    format_rational,
    grown,
    parse_rational,
    root_product,
    root_variables,
)

import reference_series as ref


def univariate(coeffs, D):
    return TruncatedSeries(("x",), D, {(k,): c for k, c in enumerate(coeffs)})


def test_mul_difference_of_squares():
    one_plus = univariate([1, 1], 2)
    one_minus = univariate([1, -1], 2)
    assert one_plus * one_minus == univariate([1, 0, -1], 2)


def test_mul_discards_beyond_truncation():
    x = TruncatedSeries.variable(("x",), 1, "x")
    assert (x * x).is_zero()


def test_mul_todd_unit_squared():
    # (1 + x/2 + x^2/12)^2 = 1 + x + 5x^2/12: the x^2 coefficient is
    # 2*(1/12) + (1/2)^2 = 5/12, and the same value falls out of the
    # rank-two Chern form (c1^2 + c2)/12 with c1 = 2x, c2 = x^2.
    f = univariate([1, Fraction(1, 2), Fraction(1, 12)], 2)
    expected = univariate([1, 1, Fraction(5, 12)], 2)
    assert f * f == expected
    oracle = ref.mul(ref.make([1, Fraction(1, 2), Fraction(1, 12)]),
                     ref.make([1, Fraction(1, 2), Fraction(1, 12)]), 2)
    assert [Fraction(c) for c in oracle] == [1, 1, Fraction(5, 12)]


def test_variable_or_truncation_mismatch_raises():
    a = TruncatedSeries.constant(("x",), 2, 1)
    b = TruncatedSeries.constant(("y",), 2, 1)
    with pytest.raises(ValueError):
        a + b
    c = TruncatedSeries.constant(("x",), 3, 1)
    with pytest.raises(ValueError):
        a * c


def test_invert_geometric():
    assert univariate([1, 1], 3).invert() == univariate([1, -1, 1, -1], 3)


def test_invert_constant():
    two = TruncatedSeries.constant(("x",), 2, 2)
    assert two.invert() == TruncatedSeries.constant(("x",), 2, Fraction(1, 2))


def test_invert_todd_denominator():
    # (1 - e^{-x})/x inverted is the Todd factor; check against long division
    for D in (3, 4):
        x = TruncatedSeries.variable(("x",), D + 1, "x")
        unit = (TruncatedSeries.constant(("x",), D + 1, 1) - (-x).exp()).quotient_by("x")
        todd = unit.invert()
        expected = ref.todd_factor(D)
        assert [todd.coefficient((k,)) for k in range(D + 1)] == expected
    assert todd.coefficient((3,)) == 0
    assert todd.coefficient((4,)) == Fraction(-1, 720)


def test_invert_zero_constant_raises():
    x = TruncatedSeries.variable(("x",), 2, "x")
    with pytest.raises(NonUnitError):
        x.invert()


def test_exp_examples():
    zero = TruncatedSeries.zero(("x",), 3)
    assert zero.exp() == TruncatedSeries.constant(("x",), 3, 1)
    x = TruncatedSeries.variable(("x",), 3, "x")
    assert (-x).exp() == univariate([1, -1, Fraction(1, 2), Fraction(-1, 6)], 3)
    half = TruncatedSeries.variable(("x",), 2, "x") * Fraction(1, 2)
    assert half.exp() == univariate([1, Fraction(1, 2), Fraction(1, 8)], 2)


def test_exp_requires_zero_constant():
    one = TruncatedSeries.constant(("x",), 2, 1)
    with pytest.raises(ValueError):
        one.exp()


def test_quotient_by_variable():
    s = univariate([0, 1, Fraction(1, 2)], 2)
    assert s.quotient_by("x") == univariate([1, Fraction(1, 2)], 1)
    xy2 = TruncatedSeries(("x", "y"), 3, {(1, 2): Fraction(1)})
    assert xy2.quotient_by("x") == TruncatedSeries(("x", "y"), 2, {(0, 2): Fraction(1)})
    with pytest.raises(NonUnitError):
        univariate([1, 1], 2).quotient_by("x")


def test_root_product_renames_each_block_to_its_root():
    a = univariate([1, 2, 3], 3)
    b = univariate([0, 1, Fraction(1, 2), 5], 4)
    expected = TruncatedSeries(
        ("x1", "x2"), 2, {(0, 1): -3, (1, 1): -6, (0, 2): Fraction(-3, 2)}
    )
    assert root_product([a, b], 2, -3) == expected
    assert root_product([], 2, 5) == TruncatedSeries.constant((), 2, 5)
    assert root_variables(3) == ("x1", "x2", "x3")


def test_root_product_refuses_a_block_it_cannot_place():
    two = TruncatedSeries.variable(("x", "y"), 4, "x")
    with pytest.raises(ValueError, match="one variable"):
        root_product([two], 4)
    short = univariate([1, 1], 3)
    with pytest.raises(ValueError, match="through degree 3 is below 4"):
        root_product([short, short], 4)


def test_bernoulli_numbers():
    bern = bernoulli_numbers(12)
    assert bern[:3] == [Fraction(1), Fraction(-1, 2), Fraction(1, 6)]
    assert bern[3] == 0
    assert bern[4] == Fraction(-1, 30)
    assert bern[5] == 0
    assert bern[6] == Fraction(1, 42)
    assert bern[12] == Fraction(-691, 2730)


def _random_series(rng, variables, D, max_terms=6, unit=False):
    terms = {}
    n = len(variables)
    for _ in range(rng.randrange(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randrange(0, D + 1)):
            exps[rng.randrange(n)] += 1
        if sum(exps) > D:
            continue
        terms[tuple(exps)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    s = TruncatedSeries(variables, D, terms)
    if unit and not s.constant_term():
        s = s + TruncatedSeries.constant(variables, D, rng.randrange(1, 5))
    return s


def test_ring_laws_random():
    rng = random.Random(20260810)
    variables = ("x", "y")
    for _ in range(60):
        a = _random_series(rng, variables, 5)
        b = _random_series(rng, variables, 5)
        c = _random_series(rng, variables, 5)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invert_is_two_sided_inverse_random():
    rng = random.Random(7)
    one = TruncatedSeries.constant(("x", "y"), 5, 1)
    for _ in range(30):
        s = _random_series(rng, ("x", "y"), 5, unit=True)
        assert s * s.invert() == one
        assert s.invert() * s == one


def test_exp_is_additive_random():
    rng = random.Random(99)
    variables = ("x", "y")
    zero_exps = (0, 0)
    for _ in range(25):
        a = _random_series(rng, variables, 4)
        b = _random_series(rng, variables, 4)
        a = a - TruncatedSeries.constant(variables, 4, a.constant_term())
        b = b - TruncatedSeries.constant(variables, 4, b.constant_term())
        assert (a + b).exp() == a.exp() * b.exp()
        assert a.exp().coefficient(zero_exps) == 1


def test_all_coefficients_stay_exact():
    rng = random.Random(3)
    s = _random_series(rng, ("x",), 6, unit=True)
    out = (s * s + s).invert() * s.exp() if not s.constant_term() else s.invert()
    for coeff in out.terms.values():
        assert isinstance(coeff, Fraction)


def test_rational_serialization():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == 7


def test_series_json_roundtrip_and_order():
    s = TruncatedSeries(
        ("x", "y"), 3, {(0, 0): 1, (2, 1): Fraction(1, 3), (1, 0): -2, (0, 2): 5}
    )
    data = s.to_json_dict()
    degrees = [sum(item["exponents"]) for item in data["terms"]]
    assert degrees == sorted(degrees)
    assert TruncatedSeries.from_json_dict(data) == s


@pytest.mark.parametrize(
    "terms, text",
    [
        ({}, "0"),
        ({(0, 0): 3}, "3"),
        ({(0, 0): Fraction(-1, 2)}, "-1/2"),
        ({(1, 0): 1, (0, 1): -1}, "-y + x"),
        ({(0, 0): -1, (1, 1): 1, (0, 2): -1}, "-1 - y^2 + x*y"),
        ({(2, 0): Fraction(-2, 3), (0, 1): Fraction(1, 2)}, "1/2*y - 2/3*x^2"),
    ],
)
def test_series_spelling(terms, text):
    s = TruncatedSeries(("x", "y"), 3, terms)
    assert str(s) == text
    assert repr(s) == f"TruncatedSeries(('x', 'y'), D=3, {text})"
    assert s.to_json_dict() == {
        "variables": ["x", "y"],
        "truncation": 3,
        "terms": [
            {"exponents": list(e), "coefficient": format_rational(Fraction(c))}
            for e, c in sorted(terms.items(), key=lambda item: (sum(item[0]), item[0]))
        ],
    }
    assert TruncatedSeries.from_json_dict(s.to_json_dict()) == s


def test_constructor_drops_over_truncation_and_zeros():
    s = TruncatedSeries(("x",), 2, {(3,): Fraction(1), (1,): Fraction(0), (2,): 4})
    assert s.terms == {(2,): Fraction(4)}


def test_operations_build_no_fractions(monkeypatch):
    # the series operations work on the integer form; only the public
    # constructor and the Fraction view (terms, coefficient) build Fractions
    v = ("x", "y")
    a = TruncatedSeries(v, 5, {(0, 0): Fraction(2, 3), (1, 0): Fraction(-1, 6), (1, 2): 5})
    b = TruncatedSeries(v, 5, {(0, 1): Fraction(7, 4), (2, 1): Fraction(1, 9)})
    q = Fraction(3, 4)
    built = []
    original = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or original(cls, *args, **kw)
    )
    product = a * b
    out = [product, a + b, a - b, -a, a * q, 2 * a, a.invert(), b.exp(), a ** 3]
    out += [a.truncate(2), a.homogeneous_part(3), b.quotient_by("y"), a.rename({"x": "z"})]
    out += [a.embed(("w", "x", "y"), 6), (a + b).invert() * (a + b)]
    assert a == a.truncate(5) and a != b and len({a, b, a + b - b}) == 2
    assert built == []
    assert product.coefficient((1, 1)) == Fraction(-1, 6) * Fraction(7, 4)
    assert out[-1] == TruncatedSeries.constant(v, 5, 1)


def test_grown_memo_truncates_what_it_holds_and_stays_bounded():
    builds = []

    def build(k, D):
        builds.append((k, D))
        return univariate(range(k, k + D + 1), D), (univariate([k], D), k)

    memo = grown(build)
    assert memo.__wrapped__ is build
    held = memo(1, 9)
    assert memo(1, 9) is held
    low = memo(1, 4)
    assert low == (held[0].truncate(4), (held[1][0].truncate(4), 1)) == build(1, 4)
    assert memo(1, 4) is low
    builds.clear()
    memo(1, 12)
    assert builds == [(1, 12)]
    for k in range(2, 258):  # 256 more keys push key 1 out of both memos
        memo(k, 9)
    builds.clear()
    memo(1, 3)
    memo(257, 3)
    assert builds == [(1, 3)]
    memo.cache_clear()
    memo(257, 3)
    assert builds == [(1, 3), (257, 3)]
