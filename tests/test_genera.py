from fractions import Fraction

import pytest

from statindex.series import TruncatedSeries
from statindex.genera import (
    GENUS_KINDS,
    euler_class_roots,
    generating_series,
    genus_polynomial,
    genus_series,
    genus_spec,
    root_variables,
)
from statindex.symmetric import expand_in_roots

import reference_series as ref


@pytest.mark.parametrize(
    "kind,oracle",
    [
        ("todd", ref.todd_factor),
        ("ahat", ref.ahat_factor),
        ("bhat", ref.bhat_factor),
        ("tdstar", ref.tdstar_factor),
    ],
)
def test_generating_series_against_long_division(kind, oracle):
    D = 10
    series = generating_series(kind, D)
    assert [series.coefficient((k,)) for k in range(D + 1)] == oracle(D)


def test_todd_one_root():
    assert generating_series("todd", 2) == TruncatedSeries(
        ("x",), 2, {(0,): 1, (1,): Fraction(1, 2), (2,): Fraction(1, 12)}
    )


def test_ahat_one_root():
    assert generating_series("ahat", 2) == TruncatedSeries(
        ("x",), 2, {(0,): 1, (2,): Fraction(-1, 24)}
    )


def test_bhat_one_root():
    assert generating_series("bhat", 3) == TruncatedSeries(
        ("x",), 3, {(1,): Fraction(1, 2), (3,): Fraction(-1, 16)}
    )


def test_normalization_flags():
    assert genus_spec("todd").normalized
    assert genus_spec("ahat").normalized
    for kind in ("bhat", "tdstar"):
        spec = genus_spec(kind)
        assert not spec.normalized
        assert spec.generating_series.constant_term() == 0
        assert spec.generating_series.coefficient((1,)) == Fraction(1, 2)


def test_euler_class_roots():
    assert euler_class_roots(1, 2) == TruncatedSeries.variable(("x1",), 2, "x1")
    assert euler_class_roots(3, 3) == TruncatedSeries(
        ("x1", "x2", "x3"), 3, {(1, 1, 1): 1}
    )
    with pytest.raises(ValueError):
        euler_class_roots(2, 1)


@pytest.mark.parametrize("kind", GENUS_KINDS)
def test_whitney_multiplicativity(kind):
    D = 6
    n, m = 2, 1
    combined = genus_series(kind, n + m, D)
    variables = root_variables(n + m)
    left = genus_series(kind, n, D).embed(variables, D)
    right = genus_series(kind, m, D).rename({"x1": "x3"}).embed(variables, D)
    assert left * right == combined


def test_todd_is_exp_half_times_ahat():
    D = 8
    x = TruncatedSeries.variable(("x",), D, "x")
    half_exp = (x * Fraction(1, 2)).exp()
    assert generating_series("todd", D) == half_exp * generating_series("ahat", D)


def test_bhat_times_spinor_factor_is_x():
    D = 9
    x = TruncatedSeries.variable(("x",), D, "x")
    half = x * Fraction(1, 2)
    spinor = half.exp() + (-half).exp()
    assert generating_series("bhat", D) * spinor == x


def test_bhat_is_tdstar_times_exp_minus_half():
    D = 8
    x = TruncatedSeries.variable(("x",), D, "x")
    assert generating_series("bhat", D) == generating_series("tdstar", D) * (
        x * Fraction(-1, 2)
    ).exp()


def test_parity_structure():
    D = 9
    ahat = generating_series("ahat", D)
    assert all(sum(e) % 2 == 0 for e in ahat.terms)
    bhat_over_x = generating_series("bhat", D).quotient_by("x")
    assert all(sum(e) % 2 == 0 for e in bhat_over_x.terms)


def test_genus_polynomial_frozen_values():
    assert genus_polynomial("todd", 0).terms == {(0, 0): Fraction(1)}
    assert genus_polynomial("todd", 1).terms == {(1, 0): Fraction(1, 2)}
    assert genus_polynomial("todd", 2).terms == {
        (2, 0): Fraction(1, 12),
        (0, 1): Fraction(1, 12),
    }
    ahat4 = genus_polynomial("ahat", 4)
    assert ahat4.basis == "pontryagin"
    assert ahat4.terms == {
        (2, 0, 0, 0): Fraction(7, 5760),
        (0, 1, 0, 0): Fraction(-4, 5760),
    }
    assert genus_polynomial("ahat", 3).is_zero()


def test_genus_polynomial_round_trip():
    for kind, degree in (("todd", 3), ("ahat", 4), ("tdstar", 2)):
        poly = genus_polynomial(kind, degree)
        n = poly.rank
        expected = genus_series(kind, n, degree).homogeneous_part(degree)
        assert expand_in_roots(poly) == expected


def test_genus_polynomial_root_count_stability():
    # the degree-d part of a normalized genus is the same for any n >= d
    for n in (2, 3, 4):
        part = genus_series("todd", n, 2).homogeneous_part(2)
        from statindex.symmetric import to_chern_basis

        poly = to_chern_basis(part, n)
        nonzero = {
            exps[:2]: coeff for exps, coeff in poly.terms.items() if coeff
        }
        assert nonzero == {(2, 0): Fraction(1, 12), (0, 1): Fraction(1, 12)}


def test_genus_polynomial_is_recomputed_per_call():
    first = genus_polynomial("todd", 2)
    second = genus_polynomial("todd", 2)
    assert first == second
    assert first is not second


def test_euler_polynomial():
    poly = genus_polynomial("euler", 3)
    assert poly.terms == {(0, 0, 1): Fraction(1)}
    assert genus_polynomial("euler", 0).terms == {(0,): Fraction(1)}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        genus_series("lgenus", 1, 2)
