"""Catalog of closed manifolds with cohomology models and integration.

A manifold is modelled by its even cohomology ring: degree-2 generators
with nilpotency relations, a designated top monomial whose integral is
declared, and the tangent bundle's Chern classes as ring elements.  This
is all that genus and index evaluation needs.

Generators carry root-degree 1 (real degree 2), so an element of the ring
is a TruncatedSeries over the generators truncated at the complex
dimension, reduced modulo the nilpotency relations.  Genus classes are
class polynomials built in class space (``genera.genus_class_polynomial``)
and evaluated on the tangent Chern classes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Tuple

from .series import Exponents, TruncatedSeries
from .symmetric import CHERN, PONTRYAGIN, ChernPolynomial
from .genera import genus_class_polynomial

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
    "product",
    "torus",
]


class CatalogError(ValueError):
    """Unknown manifold name or malformed product expression."""


@dataclass(frozen=True)
class CohomologyModel:
    """Even cohomology ring with declared integration of the top monomial."""

    name: str
    generators: Tuple[str, ...]
    nilpotency: Tuple[int, ...]
    complex_dim: int
    top_exponents: Optional[Exponents]
    top_integral: Fraction

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
    expanded through the Whitney formula into the c_i(TM)."""
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
    """Substitute catalog Chern (or Pontryagin) values into a class polynomial."""
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


def genus_class(
    kind: str, model: CohomologyModel, tangent: TangentData
) -> TruncatedSeries:
    """Total genus class of the tangent bundle as a ring element.

    The class polynomial of l = dim roots through degree l is built in
    class space (``genera.genus_class_polynomial``) and evaluated on the
    tangent Chern classes.  The non-normalized kinds (bhat, tdstar) have no
    stable polynomials, so the root count is exactly l for every kind;
    euler is just c_l.  Tests check the polynomial against the l-root
    ``genera.genus_series`` reduced by ``symmetric.to_chern_basis`` /
    ``to_pontryagin_basis``.
    """
    l = model.complex_dim
    return evaluate_chern_polynomial(genus_class_polynomial(kind, l, l), tangent, model)


def genus_number(kind: str, model: CohomologyModel, tangent: TangentData) -> Fraction:
    """Integral of the total genus class over the manifold."""
    return model.integrate(genus_class(kind, model, tangent))


def euler_characteristic(model: CohomologyModel, tangent: TangentData) -> Fraction:
    """Integral of the top Chern class c_l(TM)."""
    return model.integrate(tangent.chern_class(model, model.complex_dim))
