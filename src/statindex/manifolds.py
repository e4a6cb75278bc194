"""Catalog of closed manifolds with cohomology models and integration.

A manifold is modelled by its even cohomology ring: degree-2 generators
with nilpotency relations, a designated top monomial whose integral is
declared, and the tangent bundle's Chern classes as ring elements.

Generators carry root-degree 1 (real degree 2), so an element of the ring
is a TruncatedSeries over the generators truncated at the complex
dimension, reduced modulo the nilpotency relations.

One builder makes every catalog model (``cp``, ``torus``, ``product`` and
``catalog`` all call it) from its list of factors, ``("cp", n)`` or
``("torus", l)``, and records that list on the model.  The tangent classes
come from the factors too: TCP^n (+) C is O(1)^{n+1}, so c(TM) is
prod_j (1 + h_j)^{n_j+1}, with binomial coefficients, and a torus
contributes 1.

Every genus and pairing density is a product over the tangent Chern roots
of one per-root factor f(x) = x^m u(x), u(0) != 0, and the splitting
principle evaluates such a product one factor at a time
(``multiplicative_class``, ``multiplicative_integral``): cp^n contributes
(s u(0))^n [u(h)/u(0)]^{n+1} when m = 0, (s u(0))^n (n+1) h^n when m = 1
and 0 when m >= 2; a torus contributes (s u(0))^dim when m = 0 and 0
otherwise; and a Whitney sum multiplies the classes, each built once per
process.  No class polynomial is built.  The class-polynomial route,
``evaluate_chern_polynomial`` on the tangent Chern classes, is kept as the
oracle tests compare the splitting route with.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

from ._record import Record, store
from .series import Exponents, TruncatedSeries, _check_root_block, _coerce
from .symmetric import CHERN, PONTRYAGIN, ChernPolynomial
from .genera import generating_series

__all__ = [
    "CatalogError",
    "CohomologyModel",
    "TangentData",
    "catalog",
    "cp",
    "euler_characteristic",
    "evaluate_chern_polynomial",
    "genus_class",
    "genus_number",
    "multiplicative_class",
    "multiplicative_integral",
    "product",
    "torus",
]


class CatalogError(ValueError):
    """Unknown manifold name or malformed product expression."""


class CohomologyModel(Record):
    """Even cohomology ring with declared integration of the top monomial.

    ``factors`` lists the catalog factors, ``("cp", n)`` or ``("torus", l)``,
    in product order; the i-th cp factor owns the i-th generator.
    """

    __slots__ = __match_args__ = ("name", "generators", "nilpotency", "complex_dim",
                                  "top_exponents", "top_integral", "factors")

    def __init__(self, name: str, generators: Tuple[str, ...], nilpotency: Tuple[int, ...],
                 complex_dim: int, top_exponents: Optional[Exponents], top_integral: Fraction,
                 factors: Tuple[Tuple[str, int], ...] = ()):
        store(self, "name", name)
        store(self, "generators", generators)
        store(self, "nilpotency", nilpotency)
        store(self, "complex_dim", complex_dim)
        store(self, "top_exponents", top_exponents)
        store(self, "top_integral", top_integral)
        store(self, "factors", factors)

    @property
    def real_dimension(self) -> int:
        return 2 * self.complex_dim

    def zero(self) -> TruncatedSeries:
        return TruncatedSeries.zero(self.generators, self.complex_dim)

    def one(self) -> TruncatedSeries:
        return TruncatedSeries.constant(self.generators, self.complex_dim, 1)

    def reduce(self, element: TruncatedSeries) -> TruncatedSeries:
        """Drop terms killed by a nilpotency relation.

        Oracle only: ``reduce`` and ``multiply`` serve the class-polynomial
        substitution (``evaluate_chern_polynomial``) and the ch(E) * Td route
        tests check ``index hrr`` with; no request multiplies ring elements."""
        terms = {
            exps: coeff
            for exps, coeff in element.terms.items()
            if all(e < bound for e, bound in zip(exps, self.nilpotency))
        }
        return TruncatedSeries(self.generators, self.complex_dim, terms)

    def multiply(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        """Ring product; oracle only, as ``reduce``."""
        return self.reduce(a * b)

    def integrate(self, element: TruncatedSeries) -> Fraction:
        """Coefficient of the top monomial times its declared integral."""
        if self.top_exponents is None:
            return Fraction(0)
        return element.coefficient(self.top_exponents) * self.top_integral


class TangentData(Record):
    """Chern classes c_1..c_l of the tangent bundle, as ring elements."""

    __slots__ = __match_args__ = ("chern",)

    def __init__(self, chern: Tuple[TruncatedSeries, ...]):
        store(self, "chern", chern)

    def chern_class(self, model: CohomologyModel, k: int) -> TruncatedSeries:
        if k == 0:
            return model.one()
        if 1 <= k <= len(self.chern):
            return self.chern[k - 1]
        return model.zero()


_NAME_RE = re.compile(r"^(cp|torus)(\d+)$")
_TOO_SMALL = {"cp": "cp(n) needs n >= 1", "torus": "torus(l) needs l >= 1"}


def _factor(kind: str, n: int) -> Tuple[str, int]:
    if n < 1:
        raise CatalogError(_TOO_SMALL[kind])
    return kind, n


def _build(factors: Tuple[Tuple[str, int], ...]) -> Tuple[CohomologyModel, TangentData]:
    """The model and tangent classes of a product of catalog factors.

    The i-th cp factor owns generator h_i (a lone cp owns h), and TCP^n (+) C
    is O(1)^{n+1}, so c_k is the degree-k part of prod_j (1 + h_j)^{n_j+1}:
    the monomial prod_j h_j^{k_j} has coefficient prod_j C(n_j+1, k_j).  A
    torus factor adds dimension but no generator, contributes 1 to the
    total class and makes every integral 0.
    """
    dims = [n for kind, n in factors if kind == "cp"]
    has_torus = len(dims) < len(factors)
    if len(factors) == 1 and dims:
        gens: Tuple[str, ...] = ("h",)
    else:
        gens = tuple(f"h{k}" for k in range(1, len(dims) + 1))
    l = sum(n for _, n in factors)
    model = CohomologyModel(
        name="x".join(f"{kind}{n}" for kind, n in factors),
        generators=gens,
        nilpotency=tuple(n + 1 for n in dims),
        complex_dim=l,
        top_exponents=None if has_torus else tuple(dims),
        top_integral=Fraction(0 if has_torus else 1),
        factors=factors,
    )
    total: Dict[Exponents, int] = {(): 1}
    for n in dims:
        total = {
            exps + (k,): c * comb(n + 1, k) for exps, c in total.items() for k in range(n + 1)
        }
    parts: List[Dict[Exponents, int]] = [{} for _ in range(l + 1)]
    for exps, c in total.items():
        parts[sum(exps)][exps] = c
    return model, TangentData(tuple(TruncatedSeries(gens, l, part) for part in parts[1:]))


def cp(n: int) -> Tuple[CohomologyModel, TangentData]:
    """Complex projective space: one generator h, h^{n+1} = 0, c_k = C(n+1,k) h^k."""
    return _build((_factor("cp", n),))


def torus(l: int) -> Tuple[CohomologyModel, TangentData]:
    """Complex torus of complex dimension l: flat tangent bundle, all c_k = 0.

    Only the even subring generated by Chern classes is modelled; the top
    class is not reachable from it, so every integral evaluates to 0.
    """
    return _build((_factor("torus", l),))


def product(
    a: Tuple[CohomologyModel, TangentData], b: Tuple[CohomologyModel, TangentData]
) -> Tuple[CohomologyModel, TangentData]:
    """Product of catalog models, built from their recorded factors; the
    tangent classes are the Whitney sum's."""
    for model, _ in (a, b):
        if not model.factors:
            raise ValueError(f"model {model.name!r} records no catalog factors")
    return _build(a[0].factors + b[0].factors)


@lru_cache(maxsize=256)
def catalog(name: str) -> Tuple[CohomologyModel, TangentData]:
    """Resolve a catalog name: ``cp2``, ``torus1``, or products like ``cp1xcp1``.

    The product grammar is name ("x" name)*; parsing is greedy on the
    literal separator ``x``, which is unambiguous because factor names
    never contain it.  Built once per process per name (the records are
    immutable); a CatalogError is raised afresh on every call.
    """
    text = name.strip().lower()
    if not text:
        raise CatalogError("empty manifold name")
    factors = []
    for part in text.split("x"):
        m = _NAME_RE.match(part)
        if not m:
            raise CatalogError(f"unknown manifold {part!r} in {name!r}")
        factors.append(_factor(m.group(1), int(m.group(2))))
    return _build(tuple(factors))


def _pontryagin_element(
    tangent: TangentData, model: CohomologyModel, k: int
) -> TruncatedSeries:
    """p_k from the complexification: p_k = (-1)^k c_{2k}(TM (+) conj TM),
    expanded through the Whitney formula into the c_i(TM).

    Oracle only: it serves ``evaluate_chern_polynomial``, which no request
    path calls."""
    acc = model.zero()
    for i in range(0, 2 * k + 1):
        j = 2 * k - i
        ci = tangent.chern_class(model, i)
        cj = tangent.chern_class(model, j)
        if ci.is_zero() or cj.is_zero():
            continue
        sign = -1 if j % 2 else 1
        acc = acc + model.multiply(ci, cj) * sign
    return acc * (-1 if k % 2 else 1)


def evaluate_chern_polynomial(
    poly: ChernPolynomial, tangent: TangentData, model: CohomologyModel
) -> TruncatedSeries:
    """Substitute catalog Chern (or Pontryagin) values into a class polynomial.

    Oracle only: requests evaluate genera and pairings by the splitting
    principle (``multiplicative_class``, ``multiplicative_integral``); tests
    compare them with this substitution of the class polynomial
    (``symmetric.multiplicative_sequence``) into the tangent Chern classes.
    """
    if poly.basis == CHERN:
        values = [tangent.chern_class(model, k) for k in range(1, poly.rank + 1)]
    elif poly.basis == PONTRYAGIN:
        values = [_pontryagin_element(tangent, model, k) for k in range(1, poly.rank + 1)]
    else:
        raise ValueError(f"unknown basis {poly.basis!r}")
    out = model.zero()
    for exps, coeff in poly.terms.items():
        term = model.one() * coeff
        for value, m in zip(values, exps):
            for _ in range(m):
                if term.is_zero():
                    break
                term = model.multiply(term, value)
        out = out + term
    return model.reduce(out)


@lru_cache(maxsize=1024)
def _factor_class(
    factor: TruncatedSeries, scalar: Fraction, kind: str, n: int
) -> Optional[Tuple[Fraction, ...]]:
    """The coefficients of h^0..h^n of the class of prod_i s f(x_i) on one
    catalog factor (a torus: the constant alone), or None when it vanishes;
    built once per process for each key.  With m = 0, w = (u/u(0))^(n+1)
    follows J. C. P. Miller's recurrence for v^a, v(0) = 1:
    k w_k = sum_{j=1}^{k} ((a+1) j - k) v_j w_{k-j}."""
    coeffs = [factor.coefficient((k,)) for k in range(n + 1)]
    m = next((k for k, c in enumerate(coeffs) if c), None)
    if m is None or m >= 2 or (m == 1 and kind == "torus"):
        return None
    base = scalar * coeffs[m]  # s u(0)
    if kind == "torus":
        return (base ** n,)
    if m == 1:
        return (Fraction(0),) * n + (base ** n * (n + 1),)
    v = [c / coeffs[0] for c in coeffs]
    w = [Fraction(1)]
    for k in range(1, n + 1):
        terms = (((n + 2) * j - k) * v[j] * w[k - j] for j in range(1, k + 1) if v[j])
        w.append(sum(terms, Fraction(0)) / k)
    return tuple(base ** n * c for c in w)


def _factor_classes(
    model: CohomologyModel, factor: TruncatedSeries, scalar: Fraction
) -> Optional[List[Tuple[Fraction, ...]]]:
    """Per catalog factor, the coefficients of h^0..h^n of its class of
    prod_i s f(x_i) (a torus: the constant alone), or None when the class
    vanishes."""
    if not model.factors:
        raise ValueError(f"model {model.name!r} records no catalog factors")
    need = max((n for kind, n in model.factors if kind == "cp"), default=0)
    _check_root_block(factor, need)
    classes = [_factor_class(factor, scalar, kind, n) for kind, n in model.factors]
    return None if None in classes else classes


def multiplicative_class(
    model: CohomologyModel, factor: TruncatedSeries, scalar=1
) -> TruncatedSeries:
    """The class of prod_i s f(x_i) over the tangent roots, as a ring element.

    ``factor`` is the one-variable per-root factor f, known at least through
    the largest cp dimension of the model; the class is the product of its
    catalog factors' classes (see the module docstring).
    """
    classes = _factor_classes(model, factor, _coerce(scalar))
    if classes is None:
        return model.zero()
    terms: Dict[Exponents, Fraction] = {(): Fraction(1)}
    for (kind, _), coeffs in zip(model.factors, classes):
        if kind == "torus":
            terms = {exps: c * coeffs[0] for exps, c in terms.items()}
        else:
            terms = {
                exps + (k,): c * a
                for exps, c in terms.items()
                for k, a in enumerate(coeffs)
                if a
            }
    return TruncatedSeries(model.generators, model.complex_dim, terms)


def multiplicative_integral(
    model: CohomologyModel, factor: TruncatedSeries, scalar=1
) -> Fraction:
    """Integral of prod_i s f(x_i) over the manifold: the product of the
    catalog factors' top coefficients (0 when a torus factor is present)."""
    classes = _factor_classes(model, factor, _coerce(scalar))
    if classes is None or model.top_exponents is None:
        return Fraction(0)
    value = model.top_integral
    for coeffs in classes:
        value *= coeffs[-1]
    return value


def genus_class(
    kind: str, model: CohomologyModel, tangent: TangentData
) -> TruncatedSeries:
    """Total genus class of the tangent bundle as a ring element.

    The genus's one-variable factor (``genera.generating_series``) is
    evaluated by the splitting principle (``multiplicative_class``); the
    tangent data is not read.  Tests check the class against the l-root
    class polynomial substituted into the tangent Chern classes
    (``evaluate_chern_polynomial``).
    """
    return multiplicative_class(model, generating_series(kind, model.complex_dim))


def genus_number(kind: str, model: CohomologyModel, tangent: TangentData) -> Fraction:
    """Integral of the total genus class over the manifold."""
    return multiplicative_integral(model, generating_series(kind, model.complex_dim))


def euler_characteristic(model: CohomologyModel, tangent: TangentData) -> Fraction:
    """Integral of the top Chern class c_l(TM)."""
    return model.integrate(tangent.chern_class(model, model.complex_dim))
