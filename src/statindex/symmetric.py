"""Class polynomials in elementary-symmetric (Chern) bases.

Chern classes are the elementary symmetric polynomials of the Chern roots,
and Pontryagin classes are the elementary symmetric polynomials of their
squares.  Two routes lead from root data to a class polynomial:

* ``multiplicative_sequence`` handles the products over the roots of one
  per-root factor, which is what every genus and pairing density is.  By
  the dual Cauchy identity (Macdonald, *Symmetric Functions and Hall
  Polynomials*, I.4) each coefficient is one monomial symmetric function of
  the factor's formal roots, found from their power sums; the n-root series
  is never built.
* ``to_chern_basis`` / ``to_pontryagin_basis`` reduce any symmetric root
  series by the classical leading-term algorithm: take the graded-lex
  leading exponent a_1 >= ... >= a_n of a homogeneous symmetric polynomial,
  subtract e_1^(a_1-a_2) e_2^(a_2-a_3) ... e_n^(a_n) times its coefficient,
  and repeat, one homogeneous component at a time.  Tests use this route
  as the oracle for the first.

``poly_str`` puts a class polynomial over the lcm of its denominators, e.g.
``(c1^2 + c2)/12``; the monomials and the JSON term lists are spelled by the
shared writers of ``series``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul, neg
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ._record import Record, store
from .series import (Exponents, TruncatedSeries, _check_root_block, format_polynomial, glex_key,
                     root_variables, terms_from_json, terms_to_json)

__all__ = [
    "ChernPolynomial",
    "NotSymmetricError",
    "elementary_symmetric",
    "expand_in_roots",
    "multiplicative_sequence",
    "symmetry_violation",
    "to_chern_basis",
    "to_pontryagin_basis",
]

CHERN = "chern"
PONTRYAGIN = "pontryagin"


class NotSymmetricError(ValueError):
    """Input series is not symmetric (or not even) in its root variables."""

    def __init__(self, message: str, transposition: Optional[Tuple[int, int]] = None):
        super().__init__(message)
        self.transposition = transposition


class ChernPolynomial(Record):
    """Polynomial in c_1..c_n (basis 'chern') or p_1..p_n (basis 'pontryagin').

    Exponent tuples index the generators in order; generator k+1 carries
    root-degree k+1 in the Chern basis and 2(k+1) in the Pontryagin basis.
    Equality and the hash ignore the truncation.
    """

    __slots__ = __match_args__ = ("basis", "rank", "truncation", "terms")

    def __init__(self, basis: str, rank: int, truncation: int,
                 terms: Optional[Mapping[Exponents, Fraction]] = None):
        if basis not in (CHERN, PONTRYAGIN):
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != rank:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if coeff:
                clean[exps] = Fraction(coeff)
        store(self, "basis", basis)
        store(self, "rank", rank)
        store(self, "truncation", truncation)
        store(self, "terms", clean)

    def generator_weight(self, index: int) -> int:
        """Root-degree carried by generator number index (1-based)."""
        return index if self.basis == CHERN else 2 * index

    def weighted_degree(self, exps: Exponents) -> int:
        return sum(self.generator_weight(k + 1) * m for k, m in enumerate(exps))

    def generator_names(self) -> Tuple[str, ...]:
        prefix = "c" if self.basis == CHERN else "p"
        return tuple(f"{prefix}{k}" for k in range(1, self.rank + 1))

    def is_zero(self) -> bool:
        return not self.terms

    _key = staticmethod(lambda poly: (poly.basis, poly.rank, poly.terms))

    def __hash__(self) -> int:
        return hash((self.basis, self.rank, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return poly_str(self)

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "rank": self.rank,
            "truncation": self.truncation,
            "terms": terms_to_json(_display_order(self)),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ChernPolynomial":
        return cls(data["basis"], int(data["rank"]), int(data["truncation"]),
                   terms_from_json(data["terms"]))


def _display_order(poly: ChernPolynomial) -> List[Tuple[Exponents, Fraction]]:
    """The terms by weighted degree; within it, powers of low-index
    generators lead.  The basis step (1 for Chern, 2 for Pontryagin) scales
    every weight alike, so the order is that of sum_k k * m_k."""
    weights = range(1, poly.rank + 1)

    def key(item):
        exps = item[0]
        return (sum(map(mul, weights, exps)), tuple(map(neg, exps)))

    return sorted(poly.terms.items(), key=key)


def poly_str(poly: ChernPolynomial) -> str:
    """Render with a common denominator, e.g. ``(c1^2 + c2)/12``."""
    denom = lcm(*[c.denominator for c in poly.terms.values()])
    body = format_polynomial(
        poly.generator_names(),
        [(e, c.numerator * (denom // c.denominator)) for e, c in _display_order(poly)],
    )
    if denom == 1:
        return body
    if len(poly.terms) == 1 and "*" not in body:
        return f"{body}/{denom}"
    return f"({body})/{denom}"


# -- symmetry checks ---------------------------------------------------------


def symmetry_violation(series: TruncatedSeries) -> Optional[Tuple[int, int]]:
    """Return the first adjacent transposition (i, j) under which the series
    is not invariant, or None when it is fully symmetric."""
    n = len(series.variables)
    for i in range(n - 1):
        for exps, coeff in series.terms.items():
            swapped = list(exps)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if series.terms.get(tuple(swapped), Fraction(0)) != coeff:
                return (i, i + 1)
    return None


# -- elementary symmetric expansion ------------------------------------------


def elementary_symmetric(
    variables: Sequence[str], truncation: int, k: int, squared: bool = False
) -> TruncatedSeries:
    """e_k of the variables (or of their squares when ``squared``)."""
    variables = tuple(variables)
    n = len(variables)
    if k < 0 or k > n:
        raise ValueError(f"e_{k} undefined for {n} variables")
    step = 2 if squared else 1
    terms: Dict[Exponents, Fraction] = {}
    for combo in combinations(range(n), k):
        exps = [0] * n
        for idx in combo:
            exps[idx] = step
        terms[tuple(exps)] = Fraction(1)
    return TruncatedSeries(variables, truncation, terms)


def _reduce_to_elementary(
    component: Dict[Exponents, Fraction], variables: Tuple[str, ...], step: int
) -> Dict[Exponents, Fraction]:
    """Reduce one homogeneous symmetric component to elementary monomials.

    With ``step == 2`` the roots are the squares, i.e. exponent tuples are
    halved before comparison with e_k(x_i^2) expansions.
    """
    n = len(variables)
    degree = sum(next(iter(component)))
    e_cache = {k: elementary_symmetric(variables, degree, k, step == 2) for k in range(1, n + 1)}
    work = dict(component)
    out: Dict[Exponents, Fraction] = {}
    while work:
        lead = max(work, key=glex_key)
        profile = tuple(e // step for e in lead)
        if any(profile[i] < profile[i + 1] for i in range(n - 1)):
            raise NotSymmetricError(
                f"leading exponent {lead} is not weakly decreasing; input not symmetric"
            )
        multi = tuple(
            profile[i] - (profile[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        coeff = work[lead]
        out[multi] = out.get(multi, Fraction(0)) + coeff
        expansion = TruncatedSeries.constant(variables, degree, 1)
        for k, m in enumerate(multi, start=1):
            expansion = expansion * e_cache[k] ** m
        for exps, c in expansion.terms.items():
            acc = work.get(exps, Fraction(0)) - coeff * c
            if acc:
                work[exps] = acc
            else:
                work.pop(exps, None)
    return out


# -- public reductions ---------------------------------------------------------


def _to_basis(series: TruncatedSeries, n_roots: int, basis: str) -> ChernPolynomial:
    """The arity check, the symmetry check and the per-degree reduction that
    both public reductions share; the Pontryagin basis reduces in the
    squares of the roots."""
    if len(series.variables) != n_roots:
        raise ValueError(
            f"series has {len(series.variables)} variables, expected {n_roots}"
        )
    violation = symmetry_violation(series)
    if violation is not None:
        i, j = violation
        raise NotSymmetricError(
            "series is not symmetric: swapping "
            f"{series.variables[i]} and {series.variables[j]} changes it",
            transposition=violation,
        )
    step = 2 if basis == PONTRYAGIN else 1
    terms: Dict[Exponents, Fraction] = {}
    for degree in range(series.truncation + 1):
        component = {e: c for e, c in series.terms.items() if sum(e) == degree}
        if not component:
            continue
        for multi, coeff in _reduce_to_elementary(component, series.variables, step).items():
            terms[multi] = terms.get(multi, Fraction(0)) + coeff
    return ChernPolynomial(basis, n_roots, series.truncation, terms)


def to_chern_basis(series: TruncatedSeries, n_roots: int) -> ChernPolynomial:
    """Express a symmetric root series as a polynomial in c_1..c_n."""
    return _to_basis(series, n_roots, CHERN)


def to_pontryagin_basis(series: TruncatedSeries, l: int) -> ChernPolynomial:
    """Express a symmetric, per-root even series as a polynomial in p_1..p_l."""
    for exps in series.terms:
        for idx, e in enumerate(exps):
            if e % 2:
                raise NotSymmetricError(
                    f"series has odd degree {e} in {series.variables[idx]}; "
                    "not expressible in Pontryagin classes"
                )
    return _to_basis(series, l, PONTRYAGIN)


def _partitions(top: int, largest: int):
    """Partitions with parts <= largest and size <= top, parts descending."""
    yield ()
    for first in range(min(top, largest), 0, -1):
        for rest in _partitions(top - first, first):
            yield (first,) + rest


def multiplicative_sequence(
    factor: TruncatedSeries, n_roots: int, truncation: int, basis: str = CHERN
) -> ChernPolynomial:
    """Class polynomial of prod_{i=1..n} f(x_i), truncated at weighted degree D.

    ``factor`` is the per-root factor f(x) = x^m u(x), u(0) != 0, known
    through degree ``truncation``.  With u(t)/u(0) = prod_j (1 + y_j t)
    formally, the dual Cauchy identity gives

        prod_i f(x_i) = u(0)^n * c_n^m * sum_lambda m_lambda(y) c^lambda

    over the partitions lambda with parts <= n, c^lambda = prod_k c_{lambda_k}.
    The augmented monomials m~_lambda = m_lambda * prod_i mult_i! follow from
    m~(lambda + {r}) = P_r m~(lambda) - sum_j m~(lambda with lambda_j + r),
    whose bumped parts may exceed n.  The product is empty when m*n > D.
    With the Pontryagin basis f must be even, f(x) = g(x^2), and the same
    construction runs in y = x^2, where p_k carries weighted degree 2k.
    """
    if basis not in (CHERN, PONTRYAGIN):
        raise ValueError(f"unknown basis {basis!r}")
    _check_root_block(factor, truncation)
    if n_roots < 1:
        raise ValueError("need at least one root")
    if truncation < 0:
        raise ValueError(f"truncation {truncation} is negative")
    coeffs = [factor.coefficient((k,)) for k in range(truncation + 1)]
    if basis == PONTRYAGIN:
        if any(coeffs[1::2]):
            raise NotSymmetricError(
                "per-root factor has odd-degree terms; "
                "not expressible in Pontryagin classes"
            )
        coeffs = coeffs[::2]
    n = n_roots
    m = next((k for k, c in enumerate(coeffs) if c), None)
    if m is None or m * n > len(coeffs) - 1:
        return ChernPolynomial(basis, n, truncation)
    top = len(coeffs) - 1 - m * n  # degree still free for u's contribution
    u = coeffs[m : m + top + 1]
    # the power sums P_k = (-1)^(k-1) k L_k of the y_j, from the logarithm
    # sum_k L_k t^k of v = u/u(0): k L_k = k v_k - sum_{j<k} j L_j v_{k-j}
    v = [c / u[0] for c in u]
    kl = [Fraction(0)] * (top + 1)
    for k in range(1, top + 1):
        kl[k] = k * v[k] - sum(kl[j] * v[k - j] for j in range(1, k))
    # P_k = num[k] / den[k]; every m~ of weight s is an integer over the
    # common denominator dens[s] of all products P_{k_1} ... P_{k_j}, sum k_i = s
    num = [p.numerator if k % 2 else -p.numerator for k, p in enumerate(kl)]
    den = [p.denominator for p in kl]
    dens = [1]
    for s in range(1, top + 1):
        dens.append(lcm(*(den[r] * dens[s - r] for r in range(1, s + 1))))
    augmented: Dict[Tuple[int, ...], int] = {(): 1}

    def monomial(parts: Tuple[int, ...], weight: int) -> int:
        """dens[weight] * m~ of a partition (parts descending) by its last part."""
        value = augmented.get(parts)
        if value is None:
            *rest, r = parts
            lift = dens[weight] // (den[r] * dens[weight - r])
            value = num[r] * lift * monomial(tuple(rest), weight - r)
            for j, part in enumerate(rest):
                if j and part == rest[j - 1]:
                    continue  # the equal parts bump to one partition
                bumped = sorted(rest[:j] + rest[j + 1 :] + [part + r], reverse=True)
                value -= rest.count(part) * monomial(tuple(bumped), weight)
            augmented[parts] = value
        return value

    scale = u[0] ** n
    terms: Dict[Exponents, Fraction] = {}
    for parts in _partitions(top, n):
        mults = [0] * n
        for part in parts:
            mults[part - 1] += 1
        weight = sum(parts)
        coeff = Fraction(monomial(parts, weight), dens[weight] * prod(map(factorial, mults)))
        terms[(*mults[:-1], mults[-1] + m)] = scale * coeff
    return ChernPolynomial(basis, n, truncation, terms)


def expand_in_roots(
    poly: ChernPolynomial,
    variables: Optional[Sequence[str]] = None,
    truncation: Optional[int] = None,
) -> TruncatedSeries:
    """Substitute each generator by its elementary symmetric polynomial.

    This is the round-trip oracle: to_chern_basis / to_pontryagin_basis
    followed by expand_in_roots must reproduce the input exactly.
    """
    if variables is None:
        variables = root_variables(poly.rank)
    variables = tuple(variables)
    if len(variables) != poly.rank:
        raise ValueError("variable count must match the polynomial rank")
    if truncation is None:
        truncation = poly.truncation
    squared = poly.basis == PONTRYAGIN
    out = TruncatedSeries.zero(variables, truncation)
    basis_cache = {
        k: elementary_symmetric(variables, truncation, k, squared=squared)
        for k in range(1, poly.rank + 1)
    }
    for exps, coeff in poly.terms.items():
        term = TruncatedSeries.constant(variables, truncation, coeff)
        for k, m in enumerate(exps, start=1):
            if m:
                term = term * basis_cache[k] ** m
        out = out + term
    return out
