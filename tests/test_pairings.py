import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from statindex import cli, genera, manifolds, pairings
from statindex.cli import main
from statindex.genera import euler_class_roots, generating_series, genus_series, root_variables
from statindex.bundles import RootModel, lambda_minus1_dual, spinor_character
from statindex.manifolds import catalog
from statindex.series import TruncatedSeries, grown, root_product
from statindex.pairings import (
    FactorExpression,
    PAIRING_KINDS,
    PoleError,
    density_series,
    hrr_index,
    pairing_density,
    pairing_index,
    verify_identity,
)

import reference_series as ref


@pytest.mark.parametrize("kind", ("ff", "bb"))
@pytest.mark.parametrize("l", range(1, 7))
def test_exact_cancellation_pairings(kind, l):
    D = l + 3
    assert density_series(kind, l, "exact", D) == euler_class_roots(l, D)


def test_fb_canonical_form():
    expr = pairing_density("fb", 1)
    assert expr.canonical_string() == "x1 * (1-exp(-x1))^-1 * (1+exp(-x1))"
    f = expr.factors[0]
    assert (f.power, f.exp_coeff, f.bose, f.fermi) == (1, 0, -1, 1)


def test_canonical_string_spells_every_atom():
    expr = (FactorExpression(2).mul_scalar(Fraction(-2, 3)).mul_power(0, 2)
            .mul_exp(1, Fraction(1, 3)).mul_bose_minus(1, 1).mul_fermi_minus(0, -2))
    assert expr.canonical_string() == (
        "-2/3 * x1^2 * (1+exp(-x1))^-2 * exp(1/3*x2) * (1-exp(-x2))")
    assert FactorExpression(3).canonical_string() == "1"


# each atom on one root, and the canonical form it gives FactorExpression(1)
ATOMS = {
    "mul_scalar": (lambda e, v: e.mul_scalar(v), "{}"),
    "mul_power": (lambda e, v: e.mul_power(0, v), "x1^{}"),
    "mul_exp": (lambda e, v: e.mul_exp(0, v), "exp({}*x1)"),
    "mul_bose_minus": (lambda e, v: e.mul_bose_minus(0, v), "(1-exp(-x1))^{}"),
    "mul_fermi_minus": (lambda e, v: e.mul_fermi_minus(0, v), "(1+exp(-x1))^{}"),
    "mul_bose_plus": (lambda e, v: e.mul_bose_plus(0, v), "exp({0}*x1) * (1-exp(-x1))^{0}"),
    "mul_fermi_plus": (lambda e, v: e.mul_fermi_plus(0, v), "exp({0}*x1) * (1+exp(-x1))^{0}"),
}


@pytest.mark.parametrize("value", (2, Fraction(3, 2), Fraction(2), 0.5, 2.0, "2", None), ids=repr)
@pytest.mark.parametrize("atom", sorted(ATOMS))
def test_atoms_take_exact_values_only(atom, value):
    # the scalar and the exp coefficient are rationals, the other exponents ints
    multiply, form = ATOMS[atom]
    exact = (int, Fraction) if atom in ("mul_scalar", "mul_exp") else (int,)
    expr = FactorExpression(1)
    if type(value) in exact:
        assert multiply(expr, value) is expr
        assert expr.canonical_string() == form.format(value)
    else:
        with pytest.raises(TypeError, match="expected, got"):
            multiply(expr, value)
        assert expr.canonical_string() == "1"  # a refused value changes nothing


@pytest.mark.parametrize("scalar", (3, Fraction(3, 2), 0.1, 3.0, "3"), ids=repr)
@pytest.mark.parametrize("evaluate", (manifolds.multiplicative_class,
                                      manifolds.multiplicative_integral))
def test_multiplicative_scalar_is_exact(evaluate, scalar):
    model, _ = catalog("cp2")
    todd = generating_series("todd", 2)
    if type(scalar) in (int, Fraction):
        assert evaluate(model, todd, scalar) == evaluate(model, todd) * scalar ** 2
    else:
        with pytest.raises(TypeError, match="exact coefficient expected"):
            evaluate(model, todd, scalar)


def test_bb_canonical_is_monomial_with_prefactor():
    expr = pairing_density("bb", 1)
    assert expr.is_root_monomial()
    assert expr.scalar == 1
    # dropping the parity prefactor flips the density's sign
    raw = FactorExpression(1)
    raw.mul_bose_minus(0, 1).mul_bose_plus(0, 1)
    raw.mul_power(0, 1).mul_bose_minus(0, -1)
    raw.mul_scalar(-1).mul_power(0, 1).mul_bose_plus(0, -1)
    raw.mul_power(0, -1)
    assert raw.to_series(3) == -euler_class_roots(1, 3)


def test_fb_density_matches_reference_series():
    D = 8
    series = density_series("fb", 1, "exact", D)
    assert [series.coefficient((k,)) for k in range(D + 1)] == ref.fb_root_factor(D)


def test_bf_density_matches_reference_series():
    D = 8
    series = density_series("bf", 1, "exact", D)
    assert [series.coefficient((k,)) for k in range(D + 1)] == ref.bf_root_factor(D)


def test_fb_per_root_factor_is_even():
    series = density_series("fb", 1, "exact", 9)
    assert all(sum(e) % 2 == 0 for e in series.terms)


@pytest.mark.parametrize("kind", ("fb", "bf"))
@pytest.mark.parametrize("l", range(1, 6))
def test_limit_pairings_reduce_to_euler_monomial(kind, l):
    D = l + 2
    assert density_series(kind, l, "nondegenerate", D) == euler_class_roots(l, D)
    assert not pairing_density(kind, l, "exact").is_root_monomial()


@pytest.mark.parametrize("l", range(1, 9))
def test_bb_prefactor_parity(l):
    assert (-1) ** (l * (2 * l + 1)) == (-1) ** l


@pytest.mark.parametrize("kind", PAIRING_KINDS)
@pytest.mark.parametrize("l", range(1, 13))
def test_verify_identity_dual_routes(kind, l):
    report = verify_identity(kind, l)
    assert report.ok
    assert report.first_mismatch is None
    if kind in ("bb", "bf"):
        assert report.literal_ok is True


@pytest.mark.parametrize(
    "kind,genus", (("fb", "ahat"), ("ff", "bhat"), ("bb", "todd"), ("bf", "tdstar"))
)
@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_spinor_times_genus_series_is_product_of_root_blocks(kind, genus, l):
    # route (b) builds each density from one root's block and sign; the
    # l-variable constituents must give the same series
    variables = root_variables(l)
    for D in (l, 2 * l + 4, 2 * l + 6):
        if kind in ("fb", "ff"):
            product = spinor_character(l, D) * genus_series(genus, l, D)
        else:
            # roots +-x_i: the paired dual character times the genus at x and
            # at -x, known through D + l so that dividing by every x_i leaves D
            top = D + l
            at_x = genus_series(genus, l, top)
            at_minus_x = TruncatedSeries(
                variables, top, {e: c * (-1) ** sum(e) for e, c in at_x.terms.items()}
            )
            product = lambda_minus1_dual(l, True, top) * at_x * at_minus_x
            for name in variables:
                product = product.quotient_by(name)
            if kind == "bb":
                product = product * (-1) ** (l * (2 * l + 1))
        block, sign = pairings._brute_block(kind, D)
        assert product == root_product([block] * l, D, sign ** l)


@pytest.mark.parametrize("mode", ("exact", "nondegenerate"))
@pytest.mark.parametrize("kind", PAIRING_KINDS)
def test_roots_share_the_one_memoised_factor(kind, mode):
    data = pairings._root_data(kind, mode)
    assert pairings._root_data(kind, mode) is data
    for l in (1, 2, 5):
        factors = pairing_density(kind, l, mode).factors
        assert len(factors) == l and all(f is data[1] for f in factors)
        assert factors is not pairing_density(kind, l, mode).factors
    unit = FactorExpression(3).factors
    assert unit == [pairings._RootFactor()] * 3 and all(f is unit[0] for f in unit)


def test_brute_series_bypasses_factored_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("route (b) reached the factored algebra")

    monkeypatch.setattr(pairings, "_lower_root", forbidden)
    monkeypatch.setattr(FactorExpression, "__init__", forbidden)
    monkeypatch.setattr(FactorExpression, "to_series", forbidden)
    for kind in PAIRING_KINDS:
        block, sign = pairings._brute_block.__wrapped__(kind, 8)  # a fresh build, not a memo hit
        assert block.variables == ("x1",) and block.truncation == 8
        assert sign == (-1 if kind == "bb" else 1)


def test_memoised_blocks_survive_callers_and_equal_fresh_builds():
    # the callers get new expressions over immutable factors; multiplying
    # atoms into them leaves the memo and every other expression alone
    for kind in PAIRING_KINDS:
        for mode in pairings.MODES:
            memo = pairings._root_data(kind, mode)
            other = pairing_density(kind, 3, mode)
            expr = pairing_density(kind, 3, mode)
            expr.mul_scalar(7).mul_power(0, 2).mul_exp(1, 1).mul_bose_plus(2, 1)
            with pytest.raises(AttributeError):
                expr.mul_fermi_minus(0, -3).factors[1].bose += 5
            expr.nondegenerate_limit().mul_power(0, 1).mul_fermi_plus(1, 2)
            pairing_density(kind, 1, mode).mul_scalar(-1).mul_bose_minus(0, 4)
            assert other.scalar == memo[0] ** 3 and other.factors == [memo[1]] * 3
            assert pairing_density(kind, 3, mode).canonical_string() == other.canonical_string()
            report = pairing_index(kind, "cp2", mode)
            assert report.density == pairing_index(kind, "cp2", mode).density
            assert pairings._root_data(kind, mode) is memo
            assert memo == pairings._root_data.__wrapped__(kind, mode)
    # every memoised block, filled by verify, equals a fresh build
    for kind in PAIRING_KINDS:
        for l in range(1, 6):
            verify_identity(kind, l)
        for D in range(1, 17):  # verify needs D >= l >= 1, the literal check D >= 2l
            assert pairings._brute_block(kind, D) == pairings._brute_block.__wrapped__(kind, D)
            if kind in ("bb", "bf") and D >= 2:
                assert (pairings._literal_blocks(kind, D)
                        == pairings._literal_blocks.__wrapped__(kind, D))


def _clear_memos():
    """Empty every per-process memo, as a fresh process starts."""
    for module in (pairings, genera, manifolds, cli):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_verify_prints_the_same_in_any_order_as_one_shot(capsys):
    # the 40 requests of one benchmark pass: l = 1..5 at D = 2l+4 and 2l+6
    requests = [(["--format", ("text", "json")[(l + i) % 2], "verify", kind, "--l", str(l),
                  "--degree", str(D)], D)
                for l in range(1, 6) for D in (2 * l + 4, 2 * l + 6)
                for i, kind in enumerate(PAIRING_KINDS)]
    one_shot = {}
    for argv, _ in requests:
        _clear_memos()
        main(argv)
        one_shot[tuple(argv)] = capsys.readouterr().out
    # what the grown memos hold depends on the order of D
    orders = [sorted(requests, key=lambda r: r[1], reverse=descending)
              for descending in (False, True)]
    for seed in range(3):
        orders.append(random.Random(seed).sample(requests, len(requests)))
    for order in orders:
        _clear_memos()
        for argv, _ in order:
            main(argv)
            assert capsys.readouterr().out == one_shot[tuple(argv)], argv


GROWN_MEMOS = ((genera, "_root_factor"), (pairings, "_lower_root"),
               (pairings, "_brute_block"), (pairings, "_literal_blocks"))


def _counted(name, raw, builds, asks):
    """A fresh grown memo of the raw builder ``raw`` that counts its builds
    by (name, *key, D) in ``builds`` and puts the D's asked for per
    (name, *key) in ``asks``."""
    def build(*args):
        builds[(name, *args)] += 1
        return raw(*args)

    memo = grown(build)

    def ask(*args):
        asks[(name, *args[:-1])].add(args[-1])
        return memo(*args)

    ask.cache_clear = memo.cache_clear
    return ask


@pytest.mark.parametrize("sweep", ("generating_series", "verify_identity"))
def test_a_sweep_builds_each_block_once_per_key_down_and_once_per_D_up(monkeypatch, sweep):
    def run(D):
        if sweep == "generating_series":
            for kind in genera.GENUS_KINDS:
                generating_series(kind, D)
        else:
            for kind in PAIRING_KINDS:
                verify_identity(kind, 1, D)

    builds, asks = Counter(), defaultdict(set)
    for module, name in GROWN_MEMOS:
        raw = getattr(module, name).__wrapped__
        monkeypatch.setattr(module, name, _counted(name, raw, builds, asks))
    for descending in (True, False):
        _clear_memos()
        builds.clear()
        asks.clear()
        for D in sorted(range(1, 17), reverse=descending):
            run(D)
        built = defaultdict(list)
        for (*key, D), count in builds.items():
            assert count == 1, (key, D)
            built[tuple(key)].append(D)
        assert set(built) == set(asks)
        for key, Ds in built.items():
            # down: built at the largest D asked for; up: at every D asked for
            assert sorted(Ds) == ([max(asks[key])] if descending else sorted(asks[key])), key
    # every key is held at D = 16 or above; a cleared memo builds again
    _clear_memos()
    builds.clear()
    asks.clear()
    run(1)
    assert {tuple(key) for *key, D in builds} == set(asks)


def _bumped(block, k):
    """``block`` with its x^k coefficient raised by one."""
    terms = dict(block.terms)
    terms[(k,)] = block.coefficient((k,)) + 1
    return TruncatedSeries(block.variables, block.truncation, terms)


def test_verify_reports_a_perturbed_brute_route(monkeypatch, capsys):
    block, sign = pairings._brute_block("fb", 6)
    bumped = _bumped(block, 2)
    monkeypatch.setattr(pairings, "_brute_block", lambda kind, D: (bumped, sign))
    report = verify_identity("fb", 2, 6)
    factored = density_series("fb", 2, "exact", 6)
    expanded = root_product([bumped] * 2, 6, sign ** 2)
    exps = next(e for e in sorted(set(factored.terms) | set(expanded.terms))
                if factored.coefficient(e) != expanded.coefficient(e))
    assert not report.ok
    assert report.first_mismatch == (
        exps, str(factored.coefficient(exps)), str(expanded.coefficient(exps)))
    assert report.literal_ok is None
    assert main(["verify", "fb", "--l", "2", "--degree", "6"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("kind,m", (("ff", 1), ("bb", 1), ("bf", 3)))
@pytest.mark.parametrize("l", (2, 3, 4))
def test_verify_ignores_block_terms_the_product_never_reaches(monkeypatch, kind, m, l):
    # every monomial of the density has all its exponents >= m, so a block
    # coefficient above D - (l - 1) m never reaches the product
    D = 2 * l + 6
    k = D - (l - 1) * m + 1
    block, sign = pairings._brute_block(kind, D)
    bumped = _bumped(block, k)
    monkeypatch.setattr(pairings, "_brute_block", lambda kind, D: (bumped, sign))
    assert bumped != block
    assert root_product([bumped] * l, D, sign ** l) == density_series(kind, l, "exact", D)
    report = verify_identity(kind, l, D)
    assert report.ok and report.first_mismatch is None


def test_a_passing_verify_never_expands(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a passing verify expanded a product over the roots")

    monkeypatch.setattr(pairings, "root_product", forbidden)
    monkeypatch.setattr(FactorExpression, "to_series", forbidden)
    for kind in PAIRING_KINDS:
        for l in range(1, 7):
            for D in (2 * l + 4, 2 * l + 6):
                report = verify_identity(kind, l, D)
                assert report.ok and report.first_mismatch is None
                assert report.literal_ok is (True if kind in ("bb", "bf") else None)


def test_products_agree_refuses_a_block_root_product_refuses():
    x = TruncatedSeries.variable(("x",), 4, "x")
    with pytest.raises(ValueError, match="one variable"):
        pairings._products_agree(x, 1, TruncatedSeries.constant(("x", "y"), 4, 1), 1, 2, 4)
    with pytest.raises(ValueError, match="below"):
        pairings._products_agree(x, 1, TruncatedSeries.variable(("x",), 3, "x"), 1, 2, 4)


def test_verify_report_serializes():
    report = verify_identity("fb", 2, 6)
    data = report.to_json_dict()
    assert data["ok"] is True
    assert data["pairing"] == "fb"
    assert data["chain"]


@pytest.mark.parametrize(
    "kind,name,mode,expected",
    [
        ("ff", "cp1", "exact", 2),
        ("bb", "cp2", "exact", 3),
        ("ff", "cp1xcp1", "exact", 4),
        ("fb", "torus1", "exact", 0),
        ("fb", "torus1", "nondegenerate", 0),
        ("fb", "cp3", "nondegenerate", 4),
        ("bf", "cp2", "nondegenerate", 3),
    ],
)
def test_pairing_index_values(kind, name, mode, expected):
    report = pairing_index(kind, name, mode)
    assert report.index_value == expected


def test_exact_fb_indices_differ_from_euler():
    # hand values: the per-root factor is 2 + x^2/6 - x^4/360 + ..., so the
    # density has only even total degrees; odd-dimensional spaces get 0,
    # cp2 gets (c1^2 - 2c2)/3 -> 1 and cp4 gets (45/45) h^4 -> 1
    assert pairing_index("fb", "cp1", "exact").index_value == 0
    assert pairing_index("fb", "cp2", "exact").index_value == 1
    assert pairing_index("fb", "cp3", "exact").index_value == 0
    assert pairing_index("fb", "cp4", "exact").index_value == 1


def test_index_report_payload():
    report = pairing_index("ff", "cp2", "exact")
    data = report.to_json_dict()
    assert data["index"] == "3"
    assert data["manifold"] == "cp2"
    assert data["density_chern_basis"]["terms"] == [
        {"exponents": [0, 1], "coefficient": "1"}
    ]


@pytest.mark.parametrize("k", range(-3, 4))
def test_hrr_on_cp1_line_bundles(k):
    model, tangent = catalog("cp1")
    bundle = RootModel.build(model.generators, 1, [({"h": Fraction(k)}, 1)])
    assert hrr_index((model, tangent), bundle) == k + 1


def test_hrr_trivial_bundles():
    assert hrr_index("cp2") == 1
    assert hrr_index("cp1xcp1") == 1
    assert hrr_index("cp1xcp2") == 1


def test_hrr_rejects_foreign_roots():
    model, tangent = catalog("cp2")
    bundle = RootModel.build(("t",), 2, [({"t": 1}, 1)])
    with pytest.raises(ValueError):
        hrr_index((model, tangent), bundle)


def test_uncancelled_pole_is_reported():
    expr = FactorExpression(1)
    expr.mul_bose_minus(0, -1)
    with pytest.raises(PoleError):
        expr.to_series(4)


def _one_root(build):
    expr = FactorExpression(1)
    build(expr)
    return expr


def test_to_series_is_product_of_one_root_lowerings():
    # four roots, three distinct factors (x1 and x4 carry the same one)
    builders = [
        lambda e: e.mul_power(0, 2).mul_exp(0, Fraction(1, 3)),
        lambda e: e.mul_power(0, 1).mul_bose_minus(0, -1).mul_fermi_minus(0, 2),
        lambda e: e.mul_bose_plus(0, 1).mul_fermi_plus(0, -1),
        lambda e: e.mul_power(0, 2).mul_exp(0, Fraction(1, 3)),
    ]
    expr = FactorExpression(4).mul_scalar(Fraction(-2, 3))
    for i, build in enumerate(builders):
        one = _one_root(build)
        expr.scalar *= one.scalar
        expr.factors[i] = one.factors[0]
    D = 7
    variables = ("x1", "x2", "x3", "x4")
    expected = TruncatedSeries.constant(variables, D, Fraction(-2, 3))
    for name, build in zip(variables, builders):
        one = _one_root(build)
        lowered = one.root_factor(D) * one.scalar
        expected = expected * lowered.rename({"x1": name}).embed(variables, D)
    assert expr.to_series(D) == expected
    assert expr.scalar == Fraction(2, 3)


def test_root_factor_matches_literal_todd_factor():
    todd = _one_root(lambda e: e.mul_power(0, 1).mul_bose_minus(0, -1))
    assert todd.root_factor(6) == generating_series("todd", 6).rename({"x": "x1"})


def test_truncation_too_low_for_index():
    with pytest.raises(ValueError):
        pairing_index("ff", "cp3", "exact", D=2)


def test_verify_identity_rejects_truncation_below_root_count():
    with pytest.raises(ValueError):
        verify_identity("fb", 2, 1)
    assert verify_identity("fb", 2, 2).ok
