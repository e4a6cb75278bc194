import random
from fractions import Fraction

import pytest

from statindex.series import TruncatedSeries, format_rational
from statindex.symmetric import (
    CHERN,
    PONTRYAGIN,
    ChernPolynomial,
    NotSymmetricError,
    elementary_symmetric,
    expand_in_roots,
    poly_str,
    symmetry_violation,
    to_chern_basis,
    to_pontryagin_basis,
)
from statindex.genera import genus_series


def roots(n):
    return tuple(f"x{k}" for k in range(1, n + 1))


def test_top_elementary_is_cn():
    s = TruncatedSeries(roots(3), 3, {(1, 1, 1): Fraction(1)})
    poly = to_chern_basis(s, 3)
    assert poly == ChernPolynomial(CHERN, 3, 3, {(0, 0, 1): Fraction(1)})


def test_todd_degree_two_in_chern_basis():
    todd = genus_series("todd", 2, 2)
    poly = to_chern_basis(todd, 2)
    # round-trip oracle: the reduction must re-expand to the input
    assert expand_in_roots(poly) == todd
    part2 = {
        exps: coeff for exps, coeff in poly.terms.items()
        if poly.weighted_degree(exps) == 2
    }
    assert part2 == {(2, 0): Fraction(1, 12), (0, 1): Fraction(1, 12)}


def test_ahat_degree_two_is_minus_p1_over_24():
    part = genus_series("ahat", 2, 2).homogeneous_part(2)
    poly = to_pontryagin_basis(part, 2)
    assert poly.terms == {(1, 0): Fraction(-1, 24)}
    assert expand_in_roots(poly) == part


def test_ahat_degree_four():
    part = genus_series("ahat", 2, 4).homogeneous_part(4)
    poly = to_pontryagin_basis(part, 2)
    assert poly.terms == {(2, 0): Fraction(7, 5760), (0, 1): Fraction(-4, 5760)}
    assert expand_in_roots(poly) == part


def test_power_sum_of_squares_is_p1():
    s = TruncatedSeries(roots(2), 2, {(2, 0): 1, (0, 2): 1})
    poly = to_pontryagin_basis(s, 2)
    assert poly.terms == {(1, 0): Fraction(1)}


def test_odd_series_rejected_by_pontryagin():
    s = TruncatedSeries(roots(2), 2, {(1, 1): Fraction(1)})
    with pytest.raises(NotSymmetricError):
        to_pontryagin_basis(s, 2)


def test_asymmetric_series_rejected_with_transposition():
    s = TruncatedSeries(roots(3), 3, {(1, 1, 1): 1, (2, 0, 0): 1})
    err = None
    try:
        to_chern_basis(s, 3)
    except NotSymmetricError as exc:
        err = exc
    assert err is not None
    assert err.transposition == (0, 1)


def test_single_term_perturbation_detected():
    base = elementary_symmetric(roots(3), 4, 2)
    poked = base + TruncatedSeries(roots(3), 4, {(1, 2, 0): Fraction(1, 7)})
    assert symmetry_violation(base) is None
    assert symmetry_violation(poked) is not None


def _symmetrize(series):
    from itertools import permutations

    n = len(series.variables)
    total = TruncatedSeries.zero(series.variables, series.truncation)
    for perm in permutations(range(n)):
        terms = {}
        for exps, coeff in series.terms.items():
            new = tuple(exps[perm[i]] for i in range(n))
            terms[new] = terms.get(new, Fraction(0)) + coeff
        total = total + TruncatedSeries(series.variables, series.truncation, terms)
    return total


def test_round_trip_on_random_symmetric_series():
    rng = random.Random(20260810)
    for n in (2, 3):
        for _ in range(12):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                exps = tuple(rng.randrange(0, 3) for _ in range(n))
                if sum(exps) <= 5:
                    terms[exps] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            raw = TruncatedSeries(roots(n), 5, terms)
            sym = _symmetrize(raw)
            poly = to_chern_basis(sym, n)
            assert expand_in_roots(poly) == sym


def _newton_power_sum(k, n):
    """Power sum p_k as a Chern polynomial via Newton's identities:
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""

    def p_add(a, b):
        out = dict(a)
        for e, c in b.items():
            acc = out.get(e, Fraction(0)) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return out

    def p_scale(a, s):
        return {e: c * s for e, c in a.items()}

    def p_mul_e(a, j):
        out = {}
        for e, c in a.items():
            lifted = list(e)
            lifted[j - 1] += 1
            key = tuple(lifted)
            out[key] = out.get(key, Fraction(0)) + c
        return out

    e_mono = lambda j: {
        tuple(1 if i == j - 1 else 0 for i in range(n)): Fraction(1)
    }
    p = {0: {}}
    for m in range(1, k + 1):
        acc = {}
        for j in range(1, min(m - 1, n) + 1):
            sign = Fraction(-1) ** (j - 1)
            acc = p_add(acc, p_scale(p_mul_e(p[m - j], j), sign))
        if m <= n:
            acc = p_add(acc, p_scale(e_mono(m), Fraction(-1) ** (m - 1) * m))
        p[m] = acc
    return p[k]


def test_newton_identities():
    n = 3
    for k in range(1, 6):
        s = TruncatedSeries(
            roots(n),
            k,
            {tuple(k if i == j else 0 for i in range(n)): Fraction(1) for j in range(n)},
        )
        poly = to_chern_basis(s, n)
        assert dict(poly.terms) == _newton_power_sum(k, n)


def test_poly_str_examples():
    todd2 = to_chern_basis(genus_series("todd", 2, 2).homogeneous_part(2), 2)
    assert poly_str(todd2) == "(c1^2 + c2)/12"
    ahat4 = to_pontryagin_basis(genus_series("ahat", 2, 4).homogeneous_part(4), 2)
    assert poly_str(ahat4) == "(7*p1^2 - 4*p2)/5760"


@pytest.mark.parametrize(
    "basis, terms, text",
    [
        (CHERN, {}, "0"),
        (CHERN, {(0, 0): 3}, "3"),
        (CHERN, {(0, 0): Fraction(-1, 2)}, "-1/2"),
        (CHERN, {(1, 0): Fraction(1, 2)}, "c1/2"),
        (CHERN, {(1, 0): Fraction(-3, 2)}, "(-3*c1)/2"),
        (CHERN, {(0, 1): 1, (2, 0): -1}, "-c1^2 + c2"),
        (CHERN, {(0, 0): -1, (1, 1): Fraction(1, 6), (0, 1): Fraction(-1, 4)},
         "(-12 - 3*c2 + 2*c1*c2)/12"),
        (PONTRYAGIN, {(0, 1): -1, (2, 0): 7}, "7*p1^2 - p2"),
    ],
)
def test_poly_str_spelling(basis, terms, text):
    poly = ChernPolynomial(basis, 2, 4, terms)
    assert poly_str(poly) == str(poly) == text
    data = poly.to_json_dict()
    assert data["terms"] == [
        {"exponents": list(e), "coefficient": format_rational(Fraction(c))}
        for e, c in sorted(terms.items(), key=lambda item: (poly.weighted_degree(item[0]),
                                                            tuple(-k for k in item[0])))
    ]
    assert ChernPolynomial.from_json_dict(data) == poly


@pytest.mark.parametrize("basis", [CHERN, PONTRYAGIN])
def test_json_and_text_share_one_display_order(basis):
    # weighted degree first; within it, powers of low-index generators lead
    rng = random.Random(basis)
    terms = {tuple(rng.randrange(4) for _ in range(3)): Fraction(1) for _ in range(40)}
    poly = ChernPolynomial(basis, 3, 20, terms)
    expected = sorted(terms, key=lambda e: (poly.weighted_degree(e), tuple(-k for k in e)))
    assert [tuple(t["exponents"]) for t in poly.to_json_dict()["terms"]] == expected
    names = poly.generator_names()
    monomials = [
        "*".join(f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k) or "1"
        for e in expected
    ]
    assert poly_str(poly) == " + ".join(monomials)


def test_chern_polynomial_json_roundtrip():
    poly = to_chern_basis(genus_series("todd", 2, 2), 2)
    again = ChernPolynomial.from_json_dict(poly.to_json_dict())
    assert again == poly
    assert again.basis == CHERN


def test_weighted_degree_conventions():
    c_poly = ChernPolynomial(CHERN, 2, 4, {(1, 1): Fraction(1)})
    p_poly = ChernPolynomial(PONTRYAGIN, 2, 4, {(1, 1): Fraction(1)})
    assert c_poly.weighted_degree((1, 1)) == 3
    assert p_poly.weighted_degree((1, 1)) == 6


def _sympy_chern_terms(sympy, series):
    """sympy's ``symmetrize`` of the series, as {exponents of s_1..s_n: coeff}."""
    from sympy.polys.polyfuncs import symmetrize

    xs = sympy.symbols(series.variables)
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
        for exps, c in series.terms.items()
    )
    symmetric, remainder, defs = symmetrize(sympy.expand(expr), *xs, formal=True)
    assert remainder == 0
    names = [s for s, _ in defs]
    assert names == list(sympy.symbols(f"s1:{len(xs) + 1}"))
    poly = sympy.Poly(symmetric, *names)
    return {
        exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.as_dict().items() if c
    }


@pytest.mark.parametrize("n", (1, 2, 3))
def test_chern_basis_against_sympy_symmetrize(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(n)
    cases = [genus_series(kind, n, 4) for kind in ("todd", "ahat", "bhat", "tdstar")]
    # a random symmetric polynomial: a sum of products of e_k with rational weights
    random_sym = TruncatedSeries.zero(roots(n), 5)
    for _ in range(4):
        weight = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        term = TruncatedSeries.constant(roots(n), 5, weight)
        for _ in range(rng.randint(0, 3)):
            term = term * elementary_symmetric(roots(n), 5, rng.randint(1, n))
        random_sym = random_sym + term
    cases.append(random_sym)
    for series in cases:
        assert to_chern_basis(series, n).terms == _sympy_chern_terms(sympy, series)
