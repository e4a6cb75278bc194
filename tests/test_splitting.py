"""The splitting-principle route against the class-polynomial route.

Requests evaluate every index, genus and hrr value one catalog factor at a
time (``manifolds.multiplicative_class`` / ``multiplicative_integral``).
The oracle is the route they replaced: the l-root class polynomial
(``symmetric.multiplicative_sequence``) substituted into the tangent Chern
classes (``manifolds.evaluate_chern_polynomial``) and integrated.  The
shared range is cpN for N <= 10 and every catalog product of dimension
<= 6, every pairing kind and mode, every genus (compared as a whole ring
element) and hrr with twists -3..5.  The tangent classes the catalog
builds are checked against binomial products, independently of both routes.
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from math import comb

import pytest

from statindex.bundles import RootModel, chern_character
from statindex.genera import GENUS_KINDS, generating_series, genus_class_polynomial
from statindex.manifolds import (
    CohomologyModel,
    TangentData,
    catalog,
    evaluate_chern_polynomial,
    genus_class,
    genus_number,
    multiplicative_class,
    multiplicative_integral,
    product,
)
from statindex.pairings import MODES, PAIRING_KINDS, hrr_index, pairing_density, pairing_index
from statindex.series import TruncatedSeries
from statindex.symmetric import CHERN, ChernPolynomial, multiplicative_sequence


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _products(max_dim, ordered_dim):
    """Every catalog product of two or more factors up to dimension
    ``max_dim``: in every order up to ``ordered_dim``, above it once per
    multiset of factors."""
    seen = set()
    for dim in range(2, max_dim + 1):
        for parts in _compositions(dim):
            if len(parts) < 2:
                continue
            for kinds in cartesian(("cp", "torus"), repeat=len(parts)):
                factors = tuple(zip(kinds, parts))
                if dim > ordered_dim:
                    if tuple(sorted(factors)) in seen:
                        continue
                    seen.add(tuple(sorted(factors)))
                yield "x".join(f"{k}{n}" for k, n in factors)


SINGLES = [f"cp{n}" for n in range(1, 11)] + [f"torus{n}" for n in range(1, 7)]
PRODUCTS = list(_products(6, 4))
SHARED = SINGLES + PRODUCTS
# hrr maps twists to generators by position, and every shift of the twists
# meets every generator, so one order per multiset of factors suffices
HRR_CASES = [f"cp{n}" for n in range(1, 11)] + [
    name for name in _products(6, 0) if "cp" in name
]


@lru_cache(maxsize=None)
def _pairing_polynomial(kind, mode, l):
    expr = pairing_density(kind, l, mode)
    per_root = multiplicative_sequence(expr.root_factor(l), l, l)
    return ChernPolynomial(CHERN, l, l, {e: c * expr.scalar for e, c in per_root.terms.items()})


@lru_cache(maxsize=None)
def _genus_polynomial(kind, l):
    return genus_class_polynomial(kind, l, l)


def test_shared_range_size():
    # 2 * 3^(d-1) ordered factor strings per dimension d, minus the singles;
    # unordered, the 36 and 65 two-coloured partitions of 5 and 6, minus the
    # two single factors each
    assert len(PRODUCTS) == sum(2 * 3 ** (d - 1) - 2 for d in range(2, 5)) + 34 + 63


@pytest.mark.parametrize("name", SHARED)
def test_splitting_route_matches_class_polynomial(name):
    model, tangent = catalog(name)
    l = model.complex_dim
    for kind, mode in cartesian(PAIRING_KINDS, MODES):
        oracle = model.integrate(
            evaluate_chern_polynomial(_pairing_polynomial(kind, mode, l), tangent, model)
        )
        report = pairing_index(kind, (model, tangent), mode)
        assert report.index_value == oracle, (kind, mode)
    for kind in GENUS_KINDS:
        oracle = evaluate_chern_polynomial(_genus_polynomial(kind, l), tangent, model)
        assert genus_class(kind, model, tangent) == oracle, kind
        assert genus_number(kind, model, tangent) == model.integrate(oracle), kind


def _twists(gens):
    """Twists -3..5 on every generator; each shift meets every value."""
    return [tuple((k + i) % 9 - 3 for i in range(gens)) for k in range(9)]


@pytest.mark.parametrize("name", HRR_CASES)
def test_hrr_matches_class_polynomial_and_binomials(name):
    model, tangent = catalog(name)
    l = model.complex_dim
    todd = evaluate_chern_polynomial(_genus_polynomial("todd", l), tangent, model)
    dims = [n for kind, n in model.factors if kind == "cp"]
    has_torus = any(kind == "torus" for kind, _ in model.factors)
    for twists in _twists(len(model.generators)):
        bundle = RootModel.build(model.generators, l, [(dict(zip(model.generators, twists)), 1)])
        ch = model.reduce(chern_character(bundle).truncate(l))
        oracle = model.integrate(model.multiply(ch, todd))
        closed = Fraction(0)
        if not has_torus:
            closed = Fraction(1)
            for n, k in zip(dims, twists):
                closed *= comb(n + k, n) if n + k >= 0 else (-1) ** n * comb(-k - 1, n)
        assert hrr_index((model, tangent), bundle) == oracle == closed, twists


def test_models_record_their_factors():
    model, _ = catalog("cp2xtorus3xcp1")
    assert model.factors == (("cp", 2), ("torus", 3), ("cp", 1))
    assert model.generators == ("h1", "h2")
    hand_built = CohomologyModel("point", (), (), 0, (), Fraction(1))
    with pytest.raises(ValueError, match="records no catalog factors"):
        multiplicative_integral(hand_built, generating_series("todd", 2))


def _name_factors(name):
    return [(m[1], int(m[2])) for m in re.finditer(r"(cp|torus)(\d+)", name)]


@pytest.mark.parametrize("name", SINGLES + PRODUCTS)
def test_tangent_classes_are_binomial_products(name):
    """c(TM) = prod_j (1 + h_j)^{n_j+1} over the cp factors, h_j^{n_j+1} = 0."""
    model, tangent = catalog(name)
    factors = _name_factors(name)
    dims = [n for kind, n in factors if kind == "cp"]
    l = sum(n for _, n in factors)
    gens = ("h",) if factors == [("cp", l)] else tuple(f"h{j}" for j in range(1, len(dims) + 1))
    assert model.generators == gens and model.complex_dim == l
    total = TruncatedSeries.constant(gens, l, 1)
    for j, n in enumerate(dims):
        unit = [0] * len(dims)
        binomial = {}
        for k in range(n + 1):
            unit[j] = k
            binomial[tuple(unit)] = comb(n + 1, k)
        total = total * TruncatedSeries(gens, l, binomial)
    for k in range(1, l + 1):
        assert tangent.chern_class(model, k) == total.homogeneous_part(k), k


@pytest.mark.parametrize(
    "left,right",
    [("cp2", "torus1"), ("torus2", "cp1"), ("torus1", "torus3"),
     ("cp1xtorus1", "cp2"), ("torus1xcp2", "cp1xtorus2"), ("cp1xcp1", "torus1xcp3")],
)
def test_product_equals_catalog_of_joined_name(left, right):
    assert product(catalog(left), catalog(right)) == catalog(f"{left}x{right}")


def test_product_needs_recorded_factors():
    hand_built = (CohomologyModel("point", (), (), 0, (), Fraction(1)), TangentData(()))
    with pytest.raises(ValueError, match="records no catalog factors"):
        product(hand_built, catalog("cp1"))
    with pytest.raises(ValueError, match="records no catalog factors"):
        product(catalog("torus1"), hand_built)


def test_per_factor_rule_on_one_factor():
    model, _ = catalog("cp3")
    x = TruncatedSeries.variable(("x",), 3, "x")
    one = TruncatedSeries.constant(("x",), 3, 1)
    # m = 0: (s u0)^n [u/u0]^{n+1}; u = 2(1 + x) gives 2^3 s^3 (1 + h)^4
    cls = multiplicative_class(model, (one + x) * 2, scalar=Fraction(1, 3))
    assert cls.terms == {(k,): Fraction(8, 27) * comb(4, k) for k in range(4)}
    # m = 1: (s u0)^n (n+1) h^n
    assert multiplicative_class(model, x * 5 + x * x, 2).terms == {(3,): 4 * 10 ** 3}
    # m >= 2 and a vanishing factor: the class is 0
    assert multiplicative_class(model, x * x, 1).is_zero()
    assert multiplicative_integral(model, TruncatedSeries.zero(("x",), 3)) == 0
    with pytest.raises(ValueError, match="known through degree 2 is below 3"):
        multiplicative_integral(model, TruncatedSeries.constant(("x",), 2, 1))


def _quartic_k3():
    """The quartic surface X in CP^3: TX (+) O(4) = O(1)^4, c(TX) = (1+h)^4 /
    (1+4h) = 1 + 6h^2, and the integral of h^2 over X is 4."""
    model = CohomologyModel("k3", ("h",), (3,), 2, (2,), Fraction(4))
    c2 = TruncatedSeries(("h",), 2, {(2,): Fraction(6)})
    return model, TangentData((TruncatedSeries.zero(("h",), 2), c2))


def _hypersurface_genus(kind, d, n, top_integral):
    """Splitting principle on a degree-d hypersurface of CP^n: the genus
    class is u(0)^{n-1} [u~(h)^{n+1} / u~(d h)] with u~ = u/u(0)."""
    D = n - 1
    f = generating_series(kind, D)
    u0 = f.coefficient((0,))
    coeffs = [f.coefficient((k,)) / u0 for k in range(D + 1)]
    h = ("h",)
    unit = TruncatedSeries(h, D, {(k,): c for k, c in enumerate(coeffs)})
    scaled = TruncatedSeries(h, D, {(k,): c * d ** k for k, c in enumerate(coeffs)})
    cls = unit ** (n + 1) * scaled.invert() * u0 ** D
    return cls.coefficient((D,)) * top_integral


def test_quartic_k3_stretch():
    model, tangent = _quartic_k3()
    values = {
        kind: model.integrate(
            evaluate_chern_polynomial(genus_class_polynomial(kind, 2, 2), tangent, model)
        )
        for kind in ("euler", "todd", "ahat")
    }
    assert values == {"euler": 24, "todd": 2, "ahat": 2}
    for kind in ("todd", "ahat"):
        assert _hypersurface_genus(kind, 4, 3, 4) == values[kind]
