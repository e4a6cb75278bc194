"""Multiplicative genus series built from univariate generating functions.

Per-root factors:

    todd    x / (1 - e^{-x})          unit, constant term 1
    ahat    x / (e^{x/2} - e^{-x/2})  unit, constant term 1, even in x
    bhat    x / (e^{x/2} + e^{-x/2})  constant 0, linear coefficient 1/2
    tdstar  x / (1 + e^{-x})          constant 0, linear coefficient 1/2
    euler   x                         the plain root monomial

Division by a non-unit never happens implicitly: factors with a vanishing
denominator constant term are built by first dividing the denominator by
its root variable (an exact operation on series whose terms all contain
that variable) and inverting the resulting unit.

Each factor is the one-variable series ``generating_series``, and
everything else is made from it.  It is built at the largest truncation
asked for so far and truncated for every lower one (``series.grown``).
Class polynomials (``genus_class_polynomial``, ``genus_polynomial``) are
built in class space by ``symmetric.multiplicative_sequence``, one
coefficient per partition by the dual Cauchy identity; they are computed
afresh on every call.  The
n-root product ``genus_series`` is ``series.root_product`` of n copies of
the same series; it stays as the route tests reduce with
``to_chern_basis`` / ``to_pontryagin_basis`` to check them.  The
brute-force route of ``pairings.verify_identity`` takes every genus
factor it needs (A-hat, B-hat, Todd, Td*) from ``generating_series``,
these literal formulas, rather than from the factored algebra of the
pairings module.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, store
from .series import TruncatedSeries, grown, root_product, root_variables
from .symmetric import CHERN, PONTRYAGIN, ChernPolynomial, multiplicative_sequence

__all__ = [
    "GENUS_KINDS",
    "GenusSpec",
    "euler_class_roots",
    "generating_series",
    "genus_class_polynomial",
    "genus_polynomial",
    "genus_series",
    "genus_spec",
    "root_variables",
]

GENUS_KINDS = ("todd", "ahat", "bhat", "tdstar", "euler")
_NORMALIZED = {"todd": True, "ahat": True, "bhat": False, "tdstar": False, "euler": False}


class GenusSpec(Record):
    __slots__ = __match_args__ = ("kind", "generating_series", "normalized")

    def __init__(self, kind: str, generating_series: TruncatedSeries, normalized: bool):
        store(self, "kind", kind)
        store(self, "generating_series", generating_series)
        store(self, "normalized", normalized)


def _check_kind(kind: str) -> None:
    if kind not in GENUS_KINDS:
        raise ValueError(f"unknown genus kind {kind!r}; expected one of {GENUS_KINDS}")


@grown
def _root_factor(kind: str, D: int) -> TruncatedSeries:
    """The per-root factor g(x) as a series in ``x`` through degree D.  Held
    per kind at the largest D built so far and per (kind, D) as returned, at
    most 256 of each (``series.grown``): a kind is built again only for a D
    above every D built for it.  The series are shared (they are immutable)."""
    variables = ("x",)
    x = TruncatedSeries.variable(variables, D, "x")
    if kind == "euler":
        return x
    if kind == "todd":
        x_up = TruncatedSeries.variable(variables, D + 1, "x")
        denom = TruncatedSeries.constant(variables, D + 1, 1) - (-x_up).exp()
        return denom.quotient_by("x").invert()
    if kind == "ahat":
        half = TruncatedSeries.variable(variables, D + 1, "x") * Fraction(1, 2)
        denom = half.exp() - (-half).exp()
        return denom.quotient_by("x").invert()
    if kind == "bhat":
        half = x * Fraction(1, 2)
        denom = half.exp() + (-half).exp()
        return denom.invert() * x
    if kind == "tdstar":
        denom = TruncatedSeries.constant(variables, D, 1) + (-x).exp()
        return denom.invert() * x
    raise AssertionError(kind)


def generating_series(kind: str, D: int) -> TruncatedSeries:
    """Univariate generating series of the genus, in the variable ``x``."""
    _check_kind(kind)
    if D < 0:
        raise ValueError("truncation must be >= 0")
    if kind == "euler" and D < 1:
        raise ValueError("euler factor needs truncation >= 1")
    return _root_factor(kind, D)


def genus_spec(kind: str, D: int = 8) -> GenusSpec:
    return GenusSpec(kind, generating_series(kind, D), _NORMALIZED[kind])


def genus_series(kind: str, n_roots: int, D: int) -> TruncatedSeries:
    """Product over x1..xn of the one-variable factor ``generating_series``,
    truncated at total degree D."""
    _check_kind(kind)
    if n_roots < 1:
        raise ValueError("need at least one root")
    if D < 0:
        raise ValueError("truncation must be >= 0")
    if kind == "euler" and D < n_roots:
        raise ValueError(
            f"euler class of {n_roots} roots has degree {n_roots} > truncation {D}"
        )
    return root_product([generating_series(kind, D)] * n_roots, D)


def euler_class_roots(l: int, D: int) -> TruncatedSeries:
    """The monomial x1*...*xl."""
    if l < 1:
        raise ValueError("need at least one root")
    if D < l:
        raise ValueError(f"euler class has degree {l} > truncation {D}")
    variables = root_variables(l)
    return TruncatedSeries.monomial(variables, D, (1,) * l)


def genus_class_polynomial(kind: str, n_roots: int, D: int) -> ChernPolynomial:
    """Total genus class of n roots through degree D, in class-basis form.

    A-hat is expressed in the Pontryagin basis, every other kind in the
    Chern basis.
    """
    basis = PONTRYAGIN if kind == "ahat" else CHERN
    return multiplicative_sequence(generating_series(kind, D), n_roots, D, basis)


def genus_polynomial(kind: str, degree: int) -> ChernPolynomial:
    """Degree-homogeneous part of the genus in class-basis form.

    Todd and Td* are returned in the Chern basis, A-hat in the Pontryagin
    basis.  B-hat, whose homogeneous parts carry one odd power of every
    root, is also returned in the Chern basis (a Pontryagin expression
    cannot exist for it).  Every kind but euler is the degree part of
    ``genus_class_polynomial`` over max(degree, 2) roots, which makes the
    normalized genera (todd, ahat) independent of the root count.
    """
    _check_kind(kind)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if kind == "euler":
        rank = max(degree, 1)
        if degree == 0:
            return ChernPolynomial(CHERN, rank, 0, {(0,) * rank: Fraction(1)})
        exps = tuple(1 if k == degree - 1 else 0 for k in range(rank))
        return ChernPolynomial(CHERN, rank, degree, {exps: Fraction(1)})
    n = max(degree, 2)
    total = genus_class_polynomial(kind, n, degree)
    terms = {
        exps: coeff
        for exps, coeff in total.terms.items()
        if total.weighted_degree(exps) == degree
    }
    return ChernPolynomial(total.basis, n, degree, terms)
