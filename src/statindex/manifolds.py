"""Catalog of closed manifolds with cohomology models and integration.

A manifold is modelled by its even cohomology ring: degree-2 generators
with nilpotency relations, a designated top monomial whose integral is
declared, and the tangent bundle's Chern classes as ring elements.

Generators carry root-degree 1 (real degree 2), so an element of the ring
is a TruncatedSeries over the generators truncated at the complex
dimension, reduced modulo the nilpotency relations.

Every genus and pairing density is a product over the tangent Chern roots
of one per-root factor f(x) = x^m u(x), u(0) != 0.  The builders ``cp``,
``torus`` and ``product`` record the model's factors, and the splitting
principle evaluates such a product one factor at a time
(``multiplicative_class``, ``multiplicative_integral``): TCP^n (+) C is
O(1)^{n+1}, so cp^n contributes (s u(0))^n [u(h)/u(0)]^{n+1} when m = 0,
(s u(0))^n (n+1) h^n when m = 1 and 0 when m >= 2; a torus contributes
(s u(0))^dim when m = 0 and 0 otherwise; and a Whitney sum multiplies the
classes.  No class polynomial is built.  The class-polynomial route,
``evaluate_chern_polynomial`` on the tangent Chern classes, is kept as the
oracle tests compare the splitting route with.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .series import Exponents, TruncatedSeries
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


@dataclass(frozen=True)
class CohomologyModel:
    """Even cohomology ring with declared integration of the top monomial.

    ``factors`` lists the catalog factors, ``("cp", n)`` or ``("torus", l)``,
    in product order; the i-th cp factor owns the i-th generator.
    """

    name: str
    generators: Tuple[str, ...]
    nilpotency: Tuple[int, ...]
    complex_dim: int
    top_exponents: Optional[Exponents]
    top_integral: Fraction
    factors: Tuple[Tuple[str, int], ...] = ()

    @property
    def real_dimension(self) -> int:
        return 2 * self.complex_dim

    def zero(self) -> TruncatedSeries:
        return TruncatedSeries.zero(self.generators, self.complex_dim)

    def one(self) -> TruncatedSeries:
        return TruncatedSeries.constant(self.generators, self.complex_dim, 1)

    def reduce(self, element: TruncatedSeries) -> TruncatedSeries:
        """Drop terms killed by a nilpotency relation."""
        terms = {
            exps: coeff
            for exps, coeff in element.terms.items()
            if all(e < bound for e, bound in zip(exps, self.nilpotency))
        }
        return TruncatedSeries(self.generators, self.complex_dim, terms)

    def multiply(self, a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
        return self.reduce(a * b)

    def integrate(self, element: TruncatedSeries) -> Fraction:
        """Coefficient of the top monomial times its declared integral."""
        if self.top_exponents is None:
            return Fraction(0)
        return element.coefficient(self.top_exponents) * self.top_integral


@dataclass(frozen=True)
class TangentData:
    """Chern classes c_1..c_l of the tangent bundle, as ring elements."""

    chern: Tuple[TruncatedSeries, ...]

    def chern_class(self, model: CohomologyModel, k: int) -> TruncatedSeries:
        if k == 0:
            return model.one()
        if 1 <= k <= len(self.chern):
            return self.chern[k - 1]
        return model.zero()


def cp(n: int) -> Tuple[CohomologyModel, TangentData]:
    """Complex projective space: one generator h, h^{n+1} = 0, c_k = C(n+1,k) h^k."""
    if n < 1:
        raise CatalogError("cp(n) needs n >= 1")
    model = CohomologyModel(
        name=f"cp{n}",
        generators=("h",),
        nilpotency=(n + 1,),
        complex_dim=n,
        top_exponents=(n,),
        top_integral=Fraction(1),
        factors=(("cp", n),),
    )
    chern = tuple(
        TruncatedSeries(("h",), n, {(k,): Fraction(comb(n + 1, k))})
        for k in range(1, n + 1)
    )
    return model, TangentData(chern)


def torus(l: int) -> Tuple[CohomologyModel, TangentData]:
    """Complex torus of complex dimension l: flat tangent bundle, all c_k = 0.

    Only the even subring generated by Chern classes is modelled; the top
    class is not reachable from it, so every integral evaluates to 0.
    """
    if l < 1:
        raise CatalogError("torus(l) needs l >= 1")
    model = CohomologyModel(
        name=f"torus{l}",
        generators=(),
        nilpotency=(),
        complex_dim=l,
        top_exponents=None,
        top_integral=Fraction(0),
        factors=(("torus", l),),
    )
    chern = tuple(model.zero() for _ in range(l))
    return model, TangentData(chern)


def product(
    a: Tuple[CohomologyModel, TangentData], b: Tuple[CohomologyModel, TangentData]
) -> Tuple[CohomologyModel, TangentData]:
    """Tensor product of models with Whitney-sum tangent classes."""
    model_a, tan_a = a
    model_b, tan_b = b
    gens = tuple(f"h{k}" for k in range(1, len(model_a.generators) + len(model_b.generators) + 1))
    gens_a = gens[: len(model_a.generators)]
    gens_b = gens[len(model_a.generators):]
    l = model_a.complex_dim + model_b.complex_dim
    if model_a.top_exponents is None or model_b.top_exponents is None:
        top: Optional[Exponents] = None
    else:
        top = tuple(model_a.top_exponents) + tuple(model_b.top_exponents)
    model = CohomologyModel(
        name=f"{model_a.name}x{model_b.name}",
        generators=gens,
        nilpotency=tuple(model_a.nilpotency) + tuple(model_b.nilpotency),
        complex_dim=l,
        top_exponents=top,
        top_integral=model_a.top_integral * model_b.top_integral,
        factors=model_a.factors + model_b.factors,
    )

    def lift(series: TruncatedSeries, source: Tuple[str, ...]) -> TruncatedSeries:
        renamed = series.rename(dict(zip(series.variables, source)))
        return renamed.embed(gens, l)

    total_a = model.one()
    for k in range(1, model_a.complex_dim + 1):
        total_a = total_a + lift(tan_a.chern_class(model_a, k), gens_a)
    total_b = model.one()
    for k in range(1, model_b.complex_dim + 1):
        total_b = total_b + lift(tan_b.chern_class(model_b, k), gens_b)
    total = model.multiply(total_a, total_b)
    chern = tuple(total.homogeneous_part(k) for k in range(1, l + 1))
    return model, TangentData(chern)


_NAME_RE = re.compile(r"^(cp|torus)(\d+)$")


def catalog(name: str) -> Tuple[CohomologyModel, TangentData]:
    """Resolve a catalog name: ``cp2``, ``torus1``, or products like ``cp1xcp1``.

    The product grammar is name ("x" name)*; parsing is greedy on the
    literal separator ``x``, which is unambiguous because factor names
    never contain it.
    """
    text = name.strip().lower()
    if not text:
        raise CatalogError("empty manifold name")
    parts = text.split("x")
    pairs = []
    for part in parts:
        m = _NAME_RE.match(part)
        if not m:
            raise CatalogError(f"unknown manifold {part!r} in {name!r}")
        kind, number = m.group(1), int(m.group(2))
        pairs.append(cp(number) if kind == "cp" else torus(number))
    out = pairs[0]
    for nxt in pairs[1:]:
        out = product(out, nxt)
    return out


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


def _unit_power(v: Sequence[Fraction], a: int, n: int) -> List[Fraction]:
    """Coefficients of h^0..h^n of v(h)^a for a series with v(0) = 1, by
    J. C. P. Miller's recurrence k w_k = sum_{j=1}^{k} ((a+1) j - k) v_j w_{k-j}."""
    w = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum(
            (((a + 1) * j - k) * v[j] * w[k - j] for j in range(1, k + 1) if v[j]),
            Fraction(0),
        )
        w.append(acc / k)
    return w


def _factor_classes(
    model: CohomologyModel, factor: TruncatedSeries, scalar: Fraction
) -> Optional[List[List[Fraction]]]:
    """Per catalog factor, the coefficients of h^0..h^n of its class of
    prod_i s f(x_i) (a torus: the constant alone), or None when the class
    vanishes."""
    if not model.factors:
        raise ValueError(f"model {model.name!r} records no catalog factors")
    if len(factor.variables) != 1:
        raise ValueError("per-root factor must be a one-variable series")
    need = max((n for kind, n in model.factors if kind == "cp"), default=0)
    if factor.truncation < need:
        raise ValueError(
            f"per-root factor known through degree {factor.truncation}, "
            f"a factor cp{need} needs {need}"
        )
    coeffs = [factor.coefficient((k,)) for k in range(factor.truncation + 1)]
    m = next((k for k, c in enumerate(coeffs) if c), None)
    if m is None or m >= 2:
        return None
    base = scalar * coeffs[m]  # s u(0)
    if m == 1:
        if any(kind == "torus" for kind, _ in model.factors):
            return None
        return [[Fraction(0)] * n + [base ** n * (n + 1)] for _, n in model.factors]
    v = [c / coeffs[0] for c in coeffs]
    powers: Dict[int, List[Fraction]] = {}
    out = []
    for kind, n in model.factors:
        if kind == "torus":
            out.append([base ** n])
            continue
        if n not in powers:
            powers[n] = _unit_power(v, n + 1, n)
        scale = base ** n
        out.append([scale * c for c in powers[n]])
    return out


def multiplicative_class(
    model: CohomologyModel, factor: TruncatedSeries, scalar=1
) -> TruncatedSeries:
    """The class of prod_i s f(x_i) over the tangent roots, as a ring element.

    ``factor`` is the one-variable per-root factor f, known at least through
    the largest cp dimension of the model; the class is the product of its
    catalog factors' classes (see the module docstring).
    """
    classes = _factor_classes(model, factor, Fraction(scalar))
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
    classes = _factor_classes(model, factor, Fraction(scalar))
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
