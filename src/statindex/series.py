"""Sparse truncated power series over exact rational coefficients.

A series lives in Q[x_1, ..., x_n] modulo all monomials of total degree
greater than the truncation D.  Terms are kept in a dict mapping exponent
tuples to nonzero Fraction coefficients, so two series over the same
variables and truncation are equal iff their term dicts are equal, and no
operation ever leaves exact arithmetic.

Products, inverses and exponentials share one graded convolution kernel.
Each operand is grouped by total degree (degree buckets), so only term
pairs whose degrees sum to at most D are ever visited, and is scaled once
to integer numerators over the lcm of its denominators (the common
denominator), so pairs accumulate as plain ints and each output term
becomes one normalised Fraction.  ``invert`` and ``exp`` solve a graded
recurrence on homogeneous parts with the same kernel instead of repeated
full products.

Instances are immutable by convention: every operation returns a fresh
series and nothing mutates ``terms`` after construction, so values may be
shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Exponents = Tuple[int, ...]

__all__ = [
    "Exponents",
    "NonUnitError",
    "TruncatedSeries",
    "bernoulli_numbers",
    "format_rational",
    "glex_key",
    "parse_rational",
]


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term vanishes."""


def glex_key(exponents: Exponents) -> Tuple[int, Exponents]:
    """Graded-lex sort key: total degree first, ties broken lexicographically."""
    return (sum(exponents), exponents)


def format_rational(value: Fraction) -> str:
    """Render an exact rational as ``p/q``, or just ``p`` when q == 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``p/q`` (or plain integer) form produced by format_rational."""
    return Fraction(text.strip())


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


# -- graded convolution kernel -------------------------------------------------
#
# Integer form of a series: one denominator and, per total degree d, the list
# of (exponents, integer numerator) of its degree-d terms.

Part = List[Tuple[Exponents, int]]


def _integer_parts(terms: Mapping[Exponents, Fraction], D: int) -> Tuple[int, List[Part]]:
    """(den, parts): parts[d] holds the degree-d terms as numerators over den,
    the lcm of every denominator in ``terms``."""
    den = lcm(*[c.denominator for c in terms.values()])
    parts: List[Part] = [[] for _ in range(D + 1)]
    for exps, coeff in terms.items():
        parts[sum(exps)].append((exps, coeff.numerator * (den // coeff.denominator)))
    return den, parts


def _convolve(acc: Dict[Exponents, int], left: Part, right: Part, weight: int = 1) -> None:
    """acc[ea + eb] += weight * na * nb for every pair of terms; the caller
    chooses the parts so that every pair is within the truncation."""
    get = acc.get
    for ea, na in left:
        na *= weight
        for eb, nb in right:
            exps = tuple(map(add, ea, eb))
            acc[exps] = get(exps, 0) + na * nb


def _fractions(acc: Mapping[Exponents, int], num: int, den: int) -> Dict[Exponents, Fraction]:
    """The nonzero accumulated numerators, each times num/den, as Fractions."""
    return {exps: Fraction(n * num, den) for exps, n in acc.items() if n}


class TruncatedSeries:
    """Multivariate power series with exact coefficients, truncated at total degree D."""

    __slots__ = ("variables", "truncation", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        truncation: int,
        terms: Optional[Mapping[Exponents, Fraction]] = None,
    ):
        if truncation < 0:
            raise ValueError("truncation degree must be >= 0")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        clean: Dict[Exponents, Fraction] = {}
        if terms:
            n = len(variables)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if sum(exps) > truncation:
                    continue
                coeff = _coerce(coeff)
                if coeff:
                    clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(
        cls, variables: Tuple[str, ...], truncation: int, terms: Dict[Exponents, Fraction]
    ) -> "TruncatedSeries":
        """Wrap kernel output without re-validation: ``terms`` must already
        hold in-bound exponent tuples of the right arity and nonzero
        Fractions, and ``variables`` be a tuple of distinct names."""
        out = object.__new__(cls)
        object.__setattr__(out, "variables", variables)
        object.__setattr__(out, "truncation", truncation)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], truncation: int) -> "TruncatedSeries":
        return cls(variables, truncation)

    @classmethod
    def constant(cls, variables: Sequence[str], truncation: int, value) -> "TruncatedSeries":
        zero_exps = (0,) * len(tuple(variables))
        return cls(variables, truncation, {zero_exps: _coerce(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], truncation: int, name: str) -> "TruncatedSeries":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, truncation, {exps: Fraction(1)})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], truncation: int, exponents: Exponents, coeff=1
    ) -> "TruncatedSeries":
        return cls(variables, truncation, {tuple(exponents): _coerce(coeff)})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponents: Exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        terms = {e: c for e, c in self.terms.items() if sum(e) == degree}
        return TruncatedSeries(self.variables, self.truncation, terms)

    def sorted_terms(self) -> List[Tuple[Exponents, Fraction]]:
        """Terms in ascending graded-lex order."""
        return sorted(self.terms.items(), key=lambda item: glex_key(item[0]))

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            prev = terms.get(exps)
            acc = coeff if prev is None else prev + coeff
            if acc:
                terms[exps] = acc
            else:
                del terms[exps]
        return TruncatedSeries._trusted(self.variables, self.truncation, terms)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(
            self.variables, self.truncation, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other) -> "TruncatedSeries":
        """Truncated product, or scaling by an int or Fraction.

        Both operands are put into integer form over their own common
        denominator and grouped into degree buckets; each degree-a bucket of
        self meets only the other's terms of degree <= D - a, the int
        products accumulate per monomial, and every output coefficient is
        one Fraction over the product of the two denominators.
        """
        if isinstance(other, (int, Fraction)):
            scalar = _coerce(other)
            if not scalar:
                return TruncatedSeries.zero(self.variables, self.truncation)
            return TruncatedSeries._trusted(
                self.variables,
                self.truncation,
                {e: c * scalar for e, c in self.terms.items()},
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        D = self.truncation
        den_a, parts_a = _integer_parts(self.terms, D)
        den_b, parts_b = _integer_parts(other.terms, D)
        upto: List[Part] = []  # upto[d]: the other's terms of degree <= d
        flat: Part = []
        for part in parts_b:
            flat = flat + part
            upto.append(flat)
        acc: Dict[Exponents, int] = {}
        for d, part in enumerate(parts_a):
            if part:
                _convolve(acc, part, upto[D - d])
        return TruncatedSeries._trusted(
            self.variables, D, _fractions(acc, 1, den_a * den_b)
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series power requires a non-negative integer")
        result = TruncatedSeries.constant(self.variables, self.truncation, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _graded_solve(
        self, den_g: int, parts_g: List[Part], first: Fraction, scales: Sequence[Fraction]
    ) -> "TruncatedSeries":
        """The series R with R_0 = first and, for d = 1..D,
        R_d = scales[d] * sum_{k=1..d} G_k R_{d-k} on homogeneous parts,
        where G_k = parts_g[k] / den_g.

        Each R_d is normalised to Fractions once, then kept in integer form
        over the lcm of its own denominators for the later degrees.
        """
        D = self.truncation
        zero_exps = (0,) * len(self.variables)
        terms: Dict[Exponents, Fraction] = {zero_exps: first}
        dens = [first.denominator]
        parts_r: List[Part] = [[(zero_exps, first.numerator)]]
        for d in range(1, D + 1):
            ks = [k for k in range(1, d + 1) if parts_g[k] and parts_r[d - k]]
            den = lcm(*[dens[d - k] for k in ks])
            acc: Dict[Exponents, int] = {}
            for k in ks:
                _convolve(acc, parts_g[k], parts_r[d - k], den // dens[d - k])
            scale = scales[d]
            part = _fractions(acc, scale.numerator, scale.denominator * den_g * den)
            terms.update(part)
            dens.append(lcm(*[c.denominator for c in part.values()]))
            parts_r.append(
                [(e, c.numerator * (dens[d] // c.denominator)) for e, c in part.items()]
            )
        return TruncatedSeries._trusted(self.variables, D, terms)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation degree.

        Solves the graded recurrence B_0 = 1/a_0,
        B_d = -(1/a_0) * sum_{k=1..d} A_k B_{d-k} on homogeneous parts with
        the convolution kernel: A in integer form over one common
        denominator, each B_d over the lcm of its own denominators.
        """
        a0 = self.constant_term()
        if not a0:
            raise NonUnitError("cannot invert series with zero constant term")
        den, parts = _integer_parts(self.terms, self.truncation)
        step = -1 / a0
        return self._graded_solve(den, parts, 1 / a0, [step] * (self.truncation + 1))

    def exp(self) -> "TruncatedSeries":
        """Exponential sum_{k<=D} self^k / k!; requires zero constant term.

        With the Euler operator theta = sum_i x_i d/dx_i, E = exp(F)
        satisfies theta E = E theta F, which on homogeneous parts reads
        d E_d = sum_{k=1..d} k F_k E_{d-k} in any number of variables, so E
        is built degree by degree in one pass (E_0 = 1) rather than from
        D successive products.
        """
        if self.constant_term():
            raise ValueError("series exponential requires zero constant term")
        D = self.truncation
        den, parts = _integer_parts(self.terms, D)
        weighted = [[(e, k * n) for e, n in part] for k, part in enumerate(parts)]
        scales = [Fraction(1)] + [Fraction(1, d) for d in range(1, D + 1)]
        return self._graded_solve(den, weighted, Fraction(1), scales)

    def quotient_by(self, name: str) -> "TruncatedSeries":
        """Divide by a variable; every term must contain it.  Truncation drops by 1."""
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        terms: Dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            if exps[idx] < 1:
                raise NonUnitError(
                    f"term with exponents {exps} lacks a factor of {name}"
                )
            reduced = exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]
            terms[reduced] = coeff
        if self.truncation == 0:
            raise NonUnitError("cannot divide a degree-0 series by a variable")
        return TruncatedSeries(self.variables, self.truncation - 1, terms)

    def truncate(self, truncation: int) -> "TruncatedSeries":
        """Re-truncate to a lower (or equal) total degree."""
        if truncation > self.truncation:
            raise ValueError("cannot raise the truncation degree of a series")
        return TruncatedSeries(self.variables, truncation, self.terms)

    def embed(self, variables: Sequence[str], truncation: int) -> "TruncatedSeries":
        """Reinterpret over a superset of variables (by name) at a new truncation.

        Raising the truncation is legitimate here because embedding is only
        used on series that are exact polynomials in their own variables.
        """
        variables = tuple(variables)
        positions = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v!r} missing from target set")
            positions.append(variables.index(v))
        n = len(variables)
        terms: Dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            new = [0] * n
            for pos, e in zip(positions, exps):
                new[pos] = e
            terms[tuple(new)] = coeff
        return TruncatedSeries(variables, truncation, terms)

    def rename(self, mapping: Mapping[str, str]) -> "TruncatedSeries":
        """Rename variables in place (order preserved)."""
        variables = tuple(mapping.get(v, v) for v in self.variables)
        return TruncatedSeries(variables, self.truncation, self.terms)

    # -- equality / display / serialization --------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.truncation == other.truncation
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.variables, self.truncation, tuple(sorted(self.terms.items())))
        )

    def _term_str(self, exps: Exponents, coeff: Fraction) -> str:
        factors = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            return format_rational(coeff)
        mono = "*".join(factors)
        if coeff == 1:
            return mono
        if coeff == -1:
            return f"-{mono}"
        return f"{format_rational(coeff)}*{mono}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [self._term_str(e, c) for e, c in self.sorted_terms()]
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({self.variables!r}, D={self.truncation}, {str(self)})"
        )

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "truncation": self.truncation,
            "terms": [
                {"exponents": list(e), "coefficient": format_rational(c)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        terms = {
            tuple(item["exponents"]): parse_rational(item["coefficient"])
            for item in data["terms"]
        }
        return cls(tuple(data["variables"]), int(data["truncation"]), terms)


def bernoulli_numbers(k_max: int) -> List[Fraction]:
    """Bernoulli numbers B_0..B_k_max with the B_1 = -1/2 convention.

    Extracted from the series inverse of (e^x - 1)/x, i.e. the coefficients
    of x/(e^x - 1); this is the generating function the rest of the package
    builds on, so no independent recurrence is involved here.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    variables = ("x",)
    x = TruncatedSeries.variable(variables, k_max + 1, "x")
    g = (x.exp() - TruncatedSeries.constant(variables, k_max + 1, 1)).quotient_by("x")
    inv = g.invert()
    return [inv.coefficient((k,)) * factorial(k) for k in range(k_max + 1)]
