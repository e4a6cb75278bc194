"""Closed forms that the checker compares statindex against.

Everything here is computed apart from the program: univariate power series
as lists of Fractions, Hirzebruch's values on products of projective spaces,
and the float closed forms of the ensemble and spectral modules.  Nothing in
this module imports statindex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _cartesian
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

Series = List[Fraction]


# -- univariate series truncated at x^n ------------------------------------------


def mul(a: Series, b: Series, n: int) -> Series:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def inv(a: Series, n: int) -> Series:
    out = [Fraction(0)] * (n + 1)
    out[0] = 1 / a[0]
    for d in range(1, n + 1):
        acc = sum((a[k] * out[d - k] for k in range(1, min(d, len(a) - 1) + 1)), Fraction(0))
        out[d] = -acc / a[0]
    return out


def power(a: Series, k: int, n: int) -> Series:
    out = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(k):
        out = mul(out, a, n)
    return out


def times_x(a: Series, n: int) -> Series:
    return [Fraction(0)] + a[:n]


def _exp_scaled(c: Fraction, n: int) -> Series:
    """e^{c x}."""
    return [c**k / factorial(k) for k in range(n + 1)]


def _one_plus(a: Series) -> Series:
    return [a[0] + 1] + a[1:]


def per_root(kind: str, n: int) -> Series:
    """Per-root factor of a genus or of a cancelled pairing density, to x^n."""
    e_minus = _exp_scaled(Fraction(-1), n + 1)
    one_minus_over_x = [-c for c in e_minus[1:]]  # (1 - e^{-x}) / x
    if kind == "todd":
        return inv(one_minus_over_x, n)
    if kind == "ahat":
        # sinh(x/2) / (x/2) = sum (x/2)^{2j} / (2j+1)!
        sinhc = [Fraction(1, 2**k * factorial(k + 1)) if k % 2 == 0 else Fraction(0)
                 for k in range(n + 1)]
        return inv(sinhc, n)
    if kind in ("ff", "bb"):
        return times_x([Fraction(1)] + [Fraction(0)] * n, n)
    if kind == "fb":
        # x (1 + e^{-x}) / (1 - e^{-x})
        return mul(per_root("todd", n), _one_plus(e_minus[: n + 1]), n)
    if kind == "bf":
        # x ((1 - e^{-x}) / (1 + e^{-x}))^2
        ratio = mul(times_x(one_minus_over_x, n), inv(_one_plus(e_minus[: n + 1]), n), n)
        return times_x(mul(ratio, ratio, n), n)
    raise ValueError(kind)


def density_terms(kind: str, l: int, D: int) -> Dict[Tuple[int, ...], Fraction]:
    """Nonzero coefficients of prod_i phi(x_i) over l roots, total degree <= D."""
    phi = per_root(kind, D)
    terms = {}
    for exps in _cartesian(range(D + 1), repeat=l):
        if sum(exps) <= D:
            coeff = math.prod((phi[e] for e in exps), start=Fraction(1))
            if coeff:
                terms[exps] = coeff
    return terms


# -- Hirzebruch values on products of CP^n (a torus factor makes them 0) --------

Factors = Sequence[Tuple[str, int]]


def _has_torus(factors: Factors) -> bool:
    return any(kind == "torus" for kind, _ in factors)


def euler_char(factors: Factors) -> Fraction:
    if _has_torus(factors):
        return Fraction(0)
    return Fraction(math.prod(n + 1 for _, n in factors))


def signature(factors: Factors) -> Fraction:
    if _has_torus(factors):
        return Fraction(0)
    return Fraction(math.prod(1 if n % 2 == 0 else 0 for _, n in factors))


def binom_poly(n: int, k: int) -> Fraction:
    """chi(CP^n, O(k)) = C(n + k, n) as a polynomial in k, so also for k < 0."""
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= Fraction(k + j, j)
    return out


def hrr(factors: Factors, twists: Sequence[int]) -> Fraction:
    """chi(O(k_1, ...)) by Kuenneth; ``twists`` has one entry per CP factor."""
    if _has_torus(factors):
        return Fraction(0)
    return math.prod((binom_poly(n, k) for (_, n), k in zip(factors, twists)), start=Fraction(1))


def genus_cp(kind: str, n: int) -> Fraction:
    """Genus of CP^n: Todd 1, A-hat [h^n] (ahat(h))^{n+1}, B-hat and Td*
    (n+1)/2^n (c_n times u(0)^n for the factor x*u(x) with u(0) = 1/2),
    euler n+1."""
    if kind == "todd":
        return Fraction(1)
    if kind == "ahat":
        return power(per_root("ahat", n), n + 1, n)[n]
    if kind in ("bhat", "tdstar"):
        return Fraction(n + 1, 2**n)
    if kind == "euler":
        return Fraction(n + 1)
    raise ValueError(kind)


def genus(kind: str, factors: Factors) -> Fraction:
    """Genera are multiplicative on products."""
    if _has_torus(factors):
        return Fraction(0)
    return math.prod((genus_cp(kind, n) for _, n in factors), start=Fraction(1))


def degree_polynomial_value(kind: str, a: int, b: int) -> Fraction:
    """Value of the degree-(a+b) genus polynomial on CP^a x CP^b (b may be 0).

    B-hat and Td* polynomials are built with max(d, 2) roots, so they carry
    c_n with n = max(d, 2); on a space of dimension d < 2 that class is 0.
    """
    d = a + b
    if kind in ("bhat", "tdstar") and d < 2:
        return Fraction(0)
    return genus_cp(kind, a) * genus_cp(kind, b)


Bivariate = Dict[Tuple[int, int], Fraction]


def _bimul(p: Bivariate, q: Bivariate, a: int, b: int) -> Bivariate:
    out: Bivariate = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            i, j = i1 + i2, j1 + j2
            if i <= a and j <= b:
                out[(i, j)] = out.get((i, j), Fraction(0)) + c1 * c2
    return out


def evaluate_class_polynomial(poly: dict, a: int, b: int) -> Fraction:
    """Integrate a JSON class polynomial over CP^a x CP^b.

    Chern classes come from c(T) = (1+h1)^{a+1} (1+h2)^{b+1} and Pontryagin
    classes from p(T) = (1+h1^2)^{a+1} (1+h2^2)^{b+1}; the integral is the
    coefficient of h1^a h2^b.
    """
    step = 1 if poly["basis"] == "chern" else 2
    rank = int(poly["rank"])
    classes = []
    for k in range(1, rank + 1):
        cls: Bivariate = {}
        for i in range(k + 1):
            key = (step * i, step * (k - i))
            if key[0] <= a and key[1] <= b:
                cls[key] = Fraction(comb(a + 1, i) * comb(b + 1, k - i))
        classes.append(cls)
    total = Fraction(0)
    for term in poly["terms"]:
        mono: Bivariate = {(0, 0): Fraction(term["coefficient"])}
        for cls, m in zip(classes, term["exponents"]):
            for _ in range(m):
                mono = _bimul(mono, cls, a, b)
        total += mono.get((a, b), Fraction(0))
    return total


# -- float closed forms -------------------------------------------------------------


def be_log_term(x: float) -> float:
    """-ln(1 - e^{-x}), accurate both for x near 0 and for large x."""
    if x < 0.7:
        return -math.log(-math.expm1(-x))
    return -math.log1p(-math.exp(-x))


def level_terms(statistics: str, x: float) -> Tuple[float, float, float]:
    """(ln Xi_level, Xi_level, occupation) at x = beta (eps - mu)."""
    if statistics == "BE":
        return be_log_term(x), -1.0 / math.expm1(-x), 1.0 / math.expm1(x)
    if statistics == "FD":
        return math.log1p(math.exp(-x)), 1.0 + math.exp(-x), 1.0 / (math.exp(x) + 1.0)
    t = math.exp(-x)
    return t, math.exp(t), t


def safe_exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def affine_log_xi(statistics: str, a: float, c: float) -> float:
    """-sum ln(1 - e^{-a(n+c)}) or sum ln(1 + e^{-a(n+c)}), summed until
    e^{-a(n+c)} < 1e-20."""
    terms = []
    n = 0
    while True:
        t = math.exp(-a * (n + c))
        terms.append(be_log_term(a * (n + c)) if statistics == "BE" else math.log1p(t))
        if t < 1e-20:
            return math.fsum(terms)
        n += 1


def affine_determinant(a: float, c: float) -> float:
    """a^{1/2 - c} sqrt(2 pi) / Gamma(c)."""
    return math.exp((0.5 - c) * math.log(a) + 0.5 * math.log(2.0 * math.pi) - math.lgamma(c))


def spectral_pairing(kind: str, lam: float, nondegenerate: bool) -> float:
    """Per-eigenvalue pairing factor in the squared de-Rham/Todd convention."""
    if nondegenerate or kind in ("ff", "bb"):
        return lam
    t = math.tanh(lam / 2.0)
    return lam / t if kind == "fb" else lam * t * t
