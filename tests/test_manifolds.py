from fractions import Fraction

import pytest

from statindex.series import TruncatedSeries
from statindex.symmetric import PONTRYAGIN, ChernPolynomial
from statindex.genera import genus_polynomial
from statindex.manifolds import (
    CatalogError,
    catalog,
    cp,
    euler_characteristic,
    evaluate_chern_polynomial,
    genus_class,
    genus_number,
    product,
    torus,
)


def test_cp1_tangent_and_integration():
    model, tangent = cp(1)
    assert tangent.chern_class(model, 1) == TruncatedSeries(("h",), 1, {(1,): 2})
    assert model.integrate(tangent.chern_class(model, 1)) == 2


def test_cp2_tangent_values():
    model, tangent = cp(2)
    assert tangent.chern_class(model, 1) == TruncatedSeries(("h",), 2, {(1,): 3})
    assert tangent.chern_class(model, 2) == TruncatedSeries(("h",), 2, {(2,): 3})


def test_integrate_reads_top_coefficient_only():
    model, _ = cp(2)
    cls = TruncatedSeries(("h",), 2, {(2,): 5})
    assert model.integrate(cls) == 5
    assert model.integrate(TruncatedSeries(("h",), 2, {(1,): 1})) == 0
    assert model.integrate(model.one()) == 0


def test_nilpotency_reduction():
    model, _ = cp(1)
    h = TruncatedSeries(("h",), 1, {(1,): 1})
    assert model.multiply(h, h).is_zero()


def test_todd_polynomial_on_cp2():
    model, tangent = cp(2)
    todd2 = genus_polynomial("todd", 2)
    element = evaluate_chern_polynomial(todd2, tangent, model)
    assert element == TruncatedSeries(("h",), 2, {(2,): 1})
    assert model.integrate(element) == 1


def test_pontryagin_evaluation_on_cp2():
    model, tangent = cp(2)
    p1 = ChernPolynomial(PONTRYAGIN, 1, 2, {(1,): Fraction(1)})
    assert evaluate_chern_polynomial(p1, tangent, model) == TruncatedSeries(
        ("h",), 2, {(2,): 3}
    )


def test_ahat_genus_of_cp2():
    model, tangent = cp(2)
    assert genus_number("ahat", model, tangent) == Fraction(-1, 8)


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_euler_and_todd(n):
    model, tangent = cp(n)
    assert euler_characteristic(model, tangent) == n + 1
    assert genus_number("todd", model, tangent) == 1


@pytest.mark.parametrize("l", (1, 2, 3))
def test_torus_genera_vanish(l):
    model, tangent = torus(l)
    assert euler_characteristic(model, tangent) == 0
    assert genus_number("todd", model, tangent) == 0
    assert genus_class("todd", model, tangent) == model.one()


def test_rank_above_dimension_truncates_naturally():
    model, tangent = cp(1)
    todd2 = genus_polynomial("todd", 2)  # rank 2 polynomial on a curve
    assert model.integrate(evaluate_chern_polynomial(todd2, tangent, model)) == 0


@pytest.mark.parametrize(
    "left,right",
    [("cp1", "cp1"), ("cp1", "cp2"), ("cp2", "torus1")],
)
def test_product_multiplicativity(left, right):
    a = catalog(left)
    b = catalog(right)
    pm, pt = product(a, b)
    assert euler_characteristic(pm, pt) == euler_characteristic(*a) * euler_characteristic(*b)
    assert genus_number("todd", pm, pt) == genus_number("todd", *a) * genus_number(
        "todd", *b
    )


def test_product_tangent_whitney():
    model, tangent = catalog("cp1xcp1")
    assert model.generators == ("h1", "h2")
    c1 = tangent.chern_class(model, 1)
    assert c1 == TruncatedSeries(("h1", "h2"), 2, {(1, 0): 2, (0, 1): 2})
    c2 = tangent.chern_class(model, 2)
    assert c2 == TruncatedSeries(("h1", "h2"), 2, {(1, 1): 4})


def test_catalog_names():
    model, _ = catalog("cp3")
    assert model.complex_dim == 3 and model.real_dimension == 6
    model, _ = catalog("torus2")
    assert model.complex_dim == 2
    model, _ = catalog("cp1xcp1xcp1")
    assert model.complex_dim == 3 and len(model.generators) == 3
    with pytest.raises(CatalogError):
        catalog("k3")
    with pytest.raises(CatalogError):
        catalog("cp0")
    with pytest.raises(CatalogError):
        catalog("")


def test_bhat_and_tdstar_classes_evaluate():
    # non-normalized genera only reach the top degree: value chi / 2^l
    model, tangent = cp(2)
    assert genus_number("bhat", model, tangent) == Fraction(3, 4)
    assert genus_number("tdstar", model, tangent) == Fraction(3, 4)
    assert genus_number("euler", model, tangent) == 3
