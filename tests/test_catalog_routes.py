"""The request routes of catalog requests against the routes they replaced.

* ``multiplicative_sequence`` (one coefficient per partition, by the dual
  Cauchy identity) against the leading-term reduction
  (``to_chern_basis`` / ``to_pontryagin_basis``) of the n-root product, for
  random factors x^m u(x) with rational coefficients.
* ``hrr_index`` (one catalog factor at a time) against the ch(E) * Td route:
  the Chern character expanded over the generators, reduced modulo the
  nilpotency relations and multiplied by the Todd class, here the class
  polynomial substituted into the tangent Chern classes.
* ``catalog`` and the per-factor classes, built once per process.

The long run is ``--hypothesis-profile=ci`` (tests/conftest.py).
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from statindex import cli  # noqa: E402
from statindex.bundles import RootModel, chern_character  # noqa: E402
from statindex.genera import generating_series, genus_class_polynomial, root_variables  # noqa: E402
from statindex.manifolds import (  # noqa: E402
    CatalogError,
    CohomologyModel,
    _factor_class,
    catalog,
    evaluate_chern_polynomial,
)
from statindex.pairings import hrr_index, pairing_density  # noqa: E402
from statindex.series import TruncatedSeries  # noqa: E402
from statindex.symmetric import (  # noqa: E402
    CHERN,
    PONTRYAGIN,
    multiplicative_sequence,
    to_chern_basis,
    to_pontryagin_basis,
)

# max_examples comes from the active profile (tests/conftest.py): 80, or 800
# with --hypothesis-profile=ci
PROPERTY = settings(deadline=None)

RATIONALS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)


@st.composite
def root_factors(draw):
    """(factor, n, D, basis): f = x^m u(x) in ``x`` through degree D, even
    in x for the Pontryagin basis, with u(0) != 0 and m*n <= D or not."""
    basis = draw(st.sampled_from((CHERN, PONTRYAGIN)))
    n = draw(st.integers(1, 5))
    D = draw(st.integers(0, 8))
    step = 2 if basis == PONTRYAGIN else 1
    m = draw(st.integers(0, 2))
    unit = [draw(RATIONALS.filter(bool))] + draw(st.lists(RATIONALS, max_size=D))
    terms = {((m + k) * step,): c for k, c in enumerate(unit)}
    return TruncatedSeries(("x",), D, terms), n, D, basis


def _root_product(factor, n):
    variables = root_variables(n)
    out = TruncatedSeries.constant(variables, factor.truncation, 1)
    for name in variables:
        out = out * factor.rename({"x": name}).embed(variables, factor.truncation)
    return out


@PROPERTY
@given(root_factors())
def test_partition_body_matches_leading_term_reduction(case):
    factor, n, D, basis = case
    poly = multiplicative_sequence(factor, n, D, basis)
    series = _root_product(factor, n)
    oracle = (to_pontryagin_basis if basis == PONTRYAGIN else to_chern_basis)(series, n)
    assert (poly.basis, poly.rank, poly.truncation) == (oracle.basis, oracle.rank, oracle.truncation)
    assert poly.terms == oracle.terms


# catalog products with one to three cp factors, some with torus factors;
# the Todd class of cp^n is palindromic only for n <= 2
MANIFOLDS = ("cp1", "cp3", "cp5", "torus2", "cp1xcp2", "cp3xcp2", "cp2xcp1xcp1",
             "cp1xtorus1", "torus1xcp4", "cp3xtorus1xcp1", "cp1xcp1xcp1")
TWISTS = st.one_of(st.integers(-4, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _ch_td_route(model, tangent, bundle):
    """The integral of ch(E) * Td(TM), the Chern character expanded over
    every generator."""
    l = model.complex_dim
    todd = evaluate_chern_polynomial(genus_class_polynomial("todd", l, l), tangent, model)
    if bundle is None:
        return model.integrate(todd)
    ch = model.reduce(chern_character(bundle).truncate(l))
    return model.integrate(model.multiply(ch, todd))


@st.composite
def root_models(draw, model):
    gens, l = model.generators, model.complex_dim
    roots = [
        ({name: draw(TWISTS) for name in gens}, draw(st.integers(-2, 3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return RootModel.build(gens, l + draw(st.integers(0, 2)), roots)


@PROPERTY
@given(st.sampled_from(MANIFOLDS), st.data())
def test_hrr_per_factor_matches_ch_td_route(name, data):
    model, tangent = catalog(name)
    how = data.draw(st.sampled_from(("none", "one", "tensor", "concat")))
    bundle = None if how == "none" else data.draw(root_models(model))
    if how in ("tensor", "concat"):
        other = data.draw(root_models(model))
        if other.truncation != bundle.truncation:
            other = RootModel(other.variables, bundle.truncation, other.roots)
        bundle = bundle.tensor(other) if how == "tensor" else bundle.concat(other)
    assert hrr_index((model, tangent), bundle) == _ch_td_route(model, tangent, bundle)


@pytest.mark.parametrize("name", ["cp2", "cp1xcp3", "cp2xtorus1"])
def test_hrr_keeps_its_checks(name):
    model, tangent = catalog(name)
    foreign = RootModel.build(("y",), 4, [({"y": 1}, 1)])
    with pytest.raises(ValueError, match="bundle roots use generators"):
        hrr_index((model, tangent), foreign)
    short = RootModel.build(model.generators, model.complex_dim - 1,
                            [({g: 1 for g in model.generators}, 1)])
    with pytest.raises(ValueError, match="is below the model's complex dimension"):
        hrr_index((model, tangent), short)
    with pytest.raises(ValueError, match="truncation 1 is below the complex dimension"):
        hrr_index((model, tangent), None, D=1)
    hand_built = (CohomologyModel("point", (), (), 0, (), Fraction(1)), tangent)
    with pytest.raises(ValueError, match="records no catalog factors"):
        hrr_index(hand_built)


def test_requests_do_not_reach_the_replaced_routes(monkeypatch, capsys):
    """Index, genus and hrr requests neither expand ch(E), nor multiply or
    reduce ring elements, nor reduce root series."""
    def refuse(*args, **kwargs):
        raise AssertionError("a request reached an oracle route")

    from statindex import bundles, manifolds, pairings, symmetric
    monkeypatch.setattr(manifolds.CohomologyModel, "reduce", refuse)
    monkeypatch.setattr(manifolds.CohomologyModel, "multiply", refuse)
    for module in (bundles, pairings):  # pairings no longer imports it
        monkeypatch.setattr(module, "chern_character", refuse, raising=False)
    monkeypatch.setattr(symmetric, "to_chern_basis", refuse)
    monkeypatch.setattr(symmetric, "to_pontryagin_basis", refuse)
    for argv in (["index", "hrr", "cp2xcp1", "--bundle", "O(3,-2)"], ["index", "hrr", "cp3"],
                 ["--format", "json", "index", "fb", "cp3"], ["genus", "todd", "--degree", "4"],
                 ["genus", "ahat", "--manifold", "cp2xtorus2"]):
        assert cli.main(argv) == 0, argv
    assert capsys.readouterr().out.splitlines()[:2] == ["-10", "1"]


def test_catalog_is_built_once_per_name():
    for name in ("cp2", "cp1xtorus2", "torus1xcp3xcp1"):
        first = catalog(name)
        assert catalog(name) is first
        assert catalog(name) == catalog.__wrapped__(name)
        assert first[0].name == name


@pytest.mark.parametrize("name, message", [
    ("", "empty manifold name"),
    ("cp2xk3", "unknown manifold 'k3' in 'cp2xk3'"),
    ("cp0", "cp(n) needs n >= 1"),
    ("torus0xcp1", "torus(l) needs l >= 1"),
])
def test_bad_names_raise_every_time(name, message):
    for _ in range(3):
        with pytest.raises(CatalogError) as caught:
            catalog(name)
        assert str(caught.value) == message


@pytest.mark.parametrize("n", [1, 3, 6])
def test_memoised_factor_classes_equal_fresh_ones(n):
    factors = [generating_series(kind, n) for kind in ("todd", "ahat", "bhat")]
    factors.append(pairing_density("fb", 1).root_factor(n))
    for factor in factors:
        for kind in ("cp", "torus"):
            for scalar in (Fraction(1), Fraction(-3, 2)):
                cached = _factor_class(factor, scalar, kind, n)
                assert cached == _factor_class.__wrapped__(factor, scalar, kind, n)
                assert cached is _factor_class(factor, scalar, kind, n)
                assert cached is None or all(type(c) is Fraction for c in cached)
