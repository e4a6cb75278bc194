"""Class-space multiplicative sequences against leading-term reduction.

The fast route (``symmetric.multiplicative_sequence``, reached through
``pairing_index``, ``genus_polynomial`` and ``genus_class``) must equal
``to_chern_basis`` / ``to_pontryagin_basis`` of the n-root series over the
whole shared range, including rank and truncation.
"""

from fractions import Fraction

import pytest

from statindex.genera import (
    GENUS_KINDS,
    euler_class_roots,
    genus_class_polynomial,
    genus_polynomial,
    genus_series,
)
from statindex.manifolds import catalog, evaluate_chern_polynomial, genus_class
from statindex.pairings import MODES, PAIRING_KINDS, pairing_density, pairing_index
from statindex.series import TruncatedSeries
from statindex.symmetric import (
    CHERN,
    PONTRYAGIN,
    NotSymmetricError,
    multiplicative_sequence,
    to_chern_basis,
    to_pontryagin_basis,
)


def _same(new, old):
    assert (new.basis, new.rank, new.truncation) == (old.basis, old.rank, old.truncation)
    assert new.terms == old.terms


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", PAIRING_KINDS)
def test_pairing_density_matches_reduction(kind, mode):
    for l in range(1, 7):
        oracle = to_chern_basis(pairing_density(kind, l, mode).to_series(l), l)
        _same(pairing_index(kind, f"cp{l}", mode).density, oracle)


def _reduce(kind, series, n):
    return (to_pontryagin_basis if kind == "ahat" else to_chern_basis)(series, n)


@pytest.mark.parametrize("kind", GENUS_KINDS)
def test_genus_polynomial_matches_reduction(kind):
    for degree in range(8):
        poly = genus_polynomial(kind, degree)
        if kind == "euler":
            n = max(degree, 1)
            if degree:
                series = euler_class_roots(degree, degree)
            else:
                series = TruncatedSeries.constant(("x1",), 0, 1)
        else:
            n = max(degree, 2)
            series = genus_series(kind, n, degree).homogeneous_part(degree)
        _same(poly, _reduce(kind, series, n))


@pytest.mark.parametrize("kind", GENUS_KINDS)
def test_genus_class_matches_reduction(kind):
    for l in range(1, 7):
        _same(genus_class_polynomial(kind, l, l), _reduce(kind, genus_series(kind, l, l), l))
    for name in ("cp3", "cp2xcp2", "cp1xtorus1"):
        model, tangent = catalog(name)
        l = model.complex_dim
        oracle = _reduce(kind, genus_series(kind, l, l), l)
        assert genus_class(kind, model, tangent) == evaluate_chern_polynomial(
            oracle, tangent, model
        )


def test_sequence_of_root_monomial_power_is_top_class_power():
    x = TruncatedSeries.variable(("x",), 6, "x")
    cube = x * x * x * Fraction(2)
    poly = multiplicative_sequence(cube, 2, 6)
    assert poly.terms == {(0, 3): Fraction(4)}
    empty = multiplicative_sequence(cube, 2, 5)
    assert (empty.rank, empty.truncation, empty.terms) == (2, 5, {})


def test_sequence_rejects_bad_factors():
    x = TruncatedSeries.variable(("x",), 4, "x")
    one = TruncatedSeries.constant(("x",), 4, 1)
    with pytest.raises(NotSymmetricError):
        multiplicative_sequence(one + x, 2, 4, PONTRYAGIN)
    with pytest.raises(ValueError):
        multiplicative_sequence(TruncatedSeries.constant(("x", "y"), 4, 1), 2, 4)
    with pytest.raises(ValueError):
        multiplicative_sequence(one + x, 2, 5)
    with pytest.raises(ValueError):
        multiplicative_sequence(one + x, 0, 4)
    with pytest.raises(ValueError):
        multiplicative_sequence(one + x, 2, 4, "stiefel")
    zero = TruncatedSeries.zero(("x",), 4)
    assert multiplicative_sequence(zero, 2, 4, CHERN).is_zero()


def test_root_factor_needs_identical_roots():
    expr = pairing_density("fb", 2)
    expr.mul_power(1, 1)
    with pytest.raises(ValueError):
        expr.root_factor(3)
