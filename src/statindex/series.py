"""Sparse truncated power series over exact rational coefficients.

A series lives in Q[x_1, ..., x_n] modulo all monomials of total degree
greater than the truncation D.  It is held in integer form: a dict mapping
exponent tuples to nonzero int numerators over one common denominator, in
canonical form (denominator > 0, no common factor of the denominator and
every numerator).  Two series over the same variables and truncation are
equal iff their integer forms are, and no operation leaves exact arithmetic.

Every operation works on the integer form and builds no Fraction.  Products,
inverses and exponentials share one graded convolution kernel: terms are
grouped by total degree (degree buckets), so only term pairs whose degrees
sum to at most D are visited, and pairs accumulate as plain ints.  ``invert``
and ``exp`` solve a graded recurrence on homogeneous parts with the same
kernel instead of repeated full products.  ``terms``, the Fraction view, is
built on first read and then kept; ``coefficient`` builds one Fraction.

Instances are immutable by convention: every operation returns a fresh
series, and the ``terms`` dict is shared by every reader of a series (and
by every caller of a memoised factor such as ``genera.generating_series``),
so it must never be mutated.  Values may be shared freely across threads.

``grown`` memoises the package's one-variable blocks, each built at the
largest truncation asked for and truncated for every lower one.

Exact values and polynomials are spelled here for the whole package:
``format_rational``/``parse_rational`` for one rational, ``format_polynomial``
for a sum of rational multiples of monomials (``str`` of a series and, over
a common denominator, ``symmetric.poly_str``), and ``terms_to_json`` /
``terms_from_json`` for the ``{"exponents", "coefficient"}`` term lists of
every ``to_json_dict``/``from_json_dict`` pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from math import factorial, gcd, lcm
from operator import add
from threading import Lock
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Exponents = Tuple[int, ...]

__all__ = [
    "Exponents",
    "NonUnitError",
    "TruncatedSeries",
    "bernoulli_numbers",
    "format_polynomial",
    "format_rational",
    "glex_key",
    "grown",
    "parse_rational",
    "root_product",
    "root_variables",
    "terms_from_json",
    "terms_to_json",
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


def format_polynomial(names: Sequence[str], terms: Iterable[Tuple[Exponents, Fraction]]) -> str:
    """Spell the sum of rational multiples of monomials in ``names``, in the
    order given, e.g. ``-1 + x*y - 2/3*x^2``; the empty sum is ``0``."""
    parts = []
    for exps, coeff in terms:
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)
        if not mono:
            parts.append(format_rational(coeff))
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{format_rational(coeff)}*{mono}")
    if not parts:
        return "0"
    return parts[0] + "".join(
        f" - {part[1:]}" if part[0] == "-" else f" + {part}" for part in parts[1:]
    )


def terms_to_json(terms: Iterable[Tuple[Exponents, Fraction]]) -> List[dict]:
    """The ``{"exponents", "coefficient"}`` records of ``terms``, in the order given."""
    return [{"exponents": list(e), "coefficient": format_rational(c)} for e, c in terms]


def terms_from_json(items: Iterable[Mapping]) -> Dict[Exponents, Fraction]:
    """The terms written by ``terms_to_json``, by exponent tuple."""
    return {tuple(item["exponents"]): parse_rational(item["coefficient"]) for item in items}


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


# -- graded convolution kernel -------------------------------------------------
#
# A series is held as integer numerators over one denominator.  The kernel
# groups the numerators by total degree: parts[d] lists the (exponents,
# numerator) pairs of the degree-d terms.

Part = List[Tuple[Exponents, int]]


def _parts(nums: Mapping[Exponents, int], D: int) -> List[Part]:
    parts: List[Part] = [[] for _ in range(D + 1)]
    for exps, n in nums.items():
        parts[sum(exps)].append((exps, n))
    return parts


def _convolve(acc: Dict[Exponents, int], left: Part, right: Part, weight: int = 1) -> None:
    """acc[ea + eb] += weight * na * nb for every pair of terms; the caller
    chooses the parts so that every pair is within the truncation."""
    get = acc.get
    for ea, na in left:
        na *= weight
        for eb, nb in right:
            exps = tuple(map(add, ea, eb))
            acc[exps] = get(exps, 0) + na * nb


def _reduced(den: int, acc: Mapping[Exponents, int]) -> Tuple[int, Dict[Exponents, int]]:
    """The numerators ``acc`` over ``den`` > 0 in canonical form: zeros
    dropped and the common factor of den and every numerator divided out."""
    nums = {exps: n for exps, n in acc.items() if n} if 0 in acc.values() else acc
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {exps: n // g for exps, n in nums.items()}
    return den, nums


def _check_header(variables: Sequence[str], truncation: int) -> Tuple[str, ...]:
    if truncation < 0:
        raise ValueError("truncation degree must be >= 0")
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return variables


class TruncatedSeries:
    """Multivariate power series with exact coefficients, truncated at total degree D,
    held as numerators ``_nums`` over the denominator ``_den``."""

    __slots__ = ("variables", "truncation", "_den", "_nums", "_terms")

    def __init__(
        self,
        variables: Sequence[str],
        truncation: int,
        terms: Optional[Mapping[Exponents, Fraction]] = None,
    ):
        variables = _check_header(variables, truncation)
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
        # over the lcm of the reduced denominators the form is canonical
        den = lcm(*[c.denominator for c in clean.values()])
        nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._init(variables, truncation, den, nums, clean)

    def _init(self, *values) -> None:
        """Set every slot, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(
        cls, variables: Tuple[str, ...], truncation: int, den: int, acc: Mapping[Exponents, int]
    ) -> "TruncatedSeries":
        """Wrap kernel output, numerators ``acc`` over ``den`` > 0, in canonical
        form without re-validation: the exponent tuples must be in bound and
        of the right arity, and ``variables`` a tuple of distinct names."""
        out = object.__new__(cls)
        out._init(variables, truncation, *_reduced(den, acc), None)
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

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        """The nonzero coefficients as Fractions by exponent tuple.  Built on
        first read and then kept, so the dict is shared: never mutate it."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = {e: Fraction(n, den) for e, n in self._nums.items()}
            object.__setattr__(self, "_terms", terms)
        return terms

    def coefficient(self, exponents: Exponents) -> Fraction:
        return Fraction(self._nums.get(tuple(exponents), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get((0,) * len(self.variables), 0), self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def homogeneous_part(self, degree: int) -> "TruncatedSeries":
        nums = {e: n for e, n in self._nums.items() if sum(e) == degree}
        return TruncatedSeries._trusted(self.variables, self.truncation, self._den, nums)

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
        den = lcm(self._den, other._den)
        scale = den // self._den
        acc = {e: n * scale for e, n in self._nums.items()}
        scale = den // other._den
        get = acc.get
        for exps, n in other._nums.items():
            acc[exps] = get(exps, 0) + n * scale
        return TruncatedSeries._trusted(self.variables, self.truncation, den, acc)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(
            self.variables, self.truncation, self._den, {e: -n for e, n in self._nums.items()}
        )

    def __mul__(self, other) -> "TruncatedSeries":
        """Truncated product, or scaling by an int or Fraction.

        Both operands are grouped into degree buckets of their integer
        numerators; each degree-a bucket of self meets only the other's
        terms of degree <= D - a, the int products accumulate per monomial,
        and the result is over the product of the two denominators.
        """
        if isinstance(other, (int, Fraction)):
            p, q = other.as_integer_ratio()
            acc = {e: n * p for e, n in self._nums.items()}
            return TruncatedSeries._trusted(self.variables, self.truncation, self._den * q, acc)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        D = self.truncation
        upto: List[Part] = []  # upto[d]: the other's terms of degree <= d
        flat: Part = []
        for part in _parts(other._nums, D):
            flat = flat + part
            upto.append(flat)
        acc: Dict[Exponents, int] = {}
        for d, part in enumerate(_parts(self._nums, D)):
            if part:
                _convolve(acc, part, upto[D - d])
        return TruncatedSeries._trusted(self.variables, D, self._den * other._den, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series power requires a non-negative integer")
        one = {(0,) * len(self.variables): 1}
        result = TruncatedSeries._trusted(self.variables, self.truncation, 1, one)
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
        self, parts_g: List[Part], first: Tuple[int, int], num: int, dens: Sequence[int]
    ) -> "TruncatedSeries":
        """The series R with R_0 = first[0] / first[1] (in lowest terms) and,
        for d = 1..D, R_d = (num / dens[d]) * sum_{k=1..d} G_k R_{d-k} on
        homogeneous parts, where G_k = parts_g[k] / self._den.

        Each R_d is kept in canonical form over its own denominator, and the
        degrees are put over one common denominator at the end.
        """
        D = self.truncation
        zero_exps = (0,) * len(self.variables)
        dens_r = [first[1]]
        parts_r: List[Part] = [[(zero_exps, first[0])]]
        for d in range(1, D + 1):
            ks = [k for k in range(1, d + 1) if parts_g[k] and parts_r[d - k]]
            den = lcm(*[dens_r[d - k] for k in ks])
            acc: Dict[Exponents, int] = {}
            for k in ks:
                _convolve(acc, parts_g[k], parts_r[d - k], den // dens_r[d - k] * num)
            den, part = _reduced(dens[d] * self._den * den, acc)
            dens_r.append(den)
            parts_r.append(list(part.items()))
        den = lcm(*dens_r)
        nums: Dict[Exponents, int] = {}
        for den_d, part in zip(dens_r, parts_r):
            scale = den // den_d
            for exps, n in part:
                nums[exps] = n * scale
        return TruncatedSeries._trusted(self.variables, D, den, nums)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation degree.

        Solves the graded recurrence B_0 = 1/a_0,
        B_d = -(1/a_0) * sum_{k=1..d} A_k B_{d-k} on homogeneous parts with
        the convolution kernel: A over its common denominator, each B_d over
        its own.
        """
        n0 = self._nums.get((0,) * len(self.variables))
        if not n0:
            raise NonUnitError("cannot invert series with zero constant term")
        # 1/a_0 = p/q in lowest terms with q > 0
        g = gcd(self._den, n0) if n0 > 0 else -gcd(self._den, n0)
        p, q, D = self._den // g, n0 // g, self.truncation
        return self._graded_solve(_parts(self._nums, D), (p, q), -p, [q] * (D + 1))

    def exp(self) -> "TruncatedSeries":
        """Exponential sum_{k<=D} self^k / k!; requires zero constant term.

        With the Euler operator theta = sum_i x_i d/dx_i, E = exp(F)
        satisfies theta E = E theta F, which on homogeneous parts reads
        d E_d = sum_{k=1..d} k F_k E_{d-k} in any number of variables, so E
        is built degree by degree in one pass (E_0 = 1) rather than from
        D successive products.
        """
        if (0,) * len(self.variables) in self._nums:
            raise ValueError("series exponential requires zero constant term")
        D = self.truncation
        parts = _parts(self._nums, D)
        weighted = [[(e, k * n) for e, n in part] for k, part in enumerate(parts)]
        return self._graded_solve(weighted, (1, 1), 1, range(D + 1))

    def quotient_by(self, name: str) -> "TruncatedSeries":
        """Divide by a variable; every term must contain it.  Truncation drops by 1."""
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        idx = self.variables.index(name)
        nums: Dict[Exponents, int] = {}
        for exps, n in self._nums.items():
            if exps[idx] < 1:
                raise NonUnitError(
                    f"term with exponents {exps} lacks a factor of {name}"
                )
            nums[exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]] = n
        if self.truncation == 0:
            raise NonUnitError("cannot divide a degree-0 series by a variable")
        return TruncatedSeries._trusted(self.variables, self.truncation - 1, self._den, nums)

    def truncate(self, truncation: int) -> "TruncatedSeries":
        """Re-truncate to a lower (or equal) total degree."""
        if truncation > self.truncation:
            raise ValueError("cannot raise the truncation degree of a series")
        return self.embed(self.variables, truncation)

    def embed(self, variables: Sequence[str], truncation: int) -> "TruncatedSeries":
        """Reinterpret over a superset of variables (by name) at a new truncation.

        Raising the truncation is legitimate here because embedding is only
        used on series that are exact polynomials in their own variables.
        """
        variables = _check_header(variables, truncation)
        positions = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v!r} missing from target set")
            positions.append(variables.index(v))
        n = len(variables)
        nums: Dict[Exponents, int] = {}
        for exps, num in self._nums.items():
            if sum(exps) <= truncation:
                new = [0] * n
                for pos, e in zip(positions, exps):
                    new[pos] = e
                nums[tuple(new)] = num
        return TruncatedSeries._trusted(variables, truncation, self._den, nums)

    def rename(self, mapping: Mapping[str, str]) -> "TruncatedSeries":
        """Rename variables in place (order preserved)."""
        variables = _check_header([mapping.get(v, v) for v in self.variables], self.truncation)
        return TruncatedSeries._trusted(variables, self.truncation, self._den, self._nums)

    # -- equality / display / serialization --------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.truncation == other.truncation
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash(
            (self.variables, self.truncation, self._den, frozenset(self._nums.items()))
        )

    def __str__(self) -> str:
        return format_polynomial(self.variables, self.sorted_terms())

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({self.variables!r}, D={self.truncation}, {str(self)})"
        )

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "truncation": self.truncation,
            "terms": terms_to_json(self.sorted_terms()),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        return cls(tuple(data["variables"]), int(data["truncation"]),
                   terms_from_json(data["terms"]))


def root_variables(n: int) -> Tuple[str, ...]:
    """The root names x1..xn."""
    return tuple(f"x{k}" for k in range(1, n + 1))


def _check_root_block(block: TruncatedSeries, D: int) -> None:
    """Refuse a root block that is not a series in one variable known through degree D."""
    if len(block.variables) != 1:
        raise ValueError(f"a root block is a series in one variable, not {block.variables}")
    if block.truncation < D:
        raise ValueError(f"a root block known through degree {block.truncation} is below {D}")


def root_product(blocks: Sequence[TruncatedSeries], D: int, scalar=1) -> TruncatedSeries:
    """scalar * prod_i blocks[i](x_i), truncated at total degree D: each
    one-variable block renamed to its root x1..xn, embedded and multiplied.
    A block in another number of variables, or known only below degree D,
    raises ValueError."""
    variables = root_variables(len(blocks))
    out = TruncatedSeries.constant(variables, D, scalar)
    for name, block in zip(variables, blocks):
        _check_root_block(block, D)
        out = out * block.rename({block.variables[0]: name}).embed(variables, D)
    return out


_MEMO_SIZE = 256


def _truncated(value, D: int):
    """``value`` with every series in it, through nested tuples, truncated to D."""
    if isinstance(value, TruncatedSeries):
        return value.truncate(D)
    if isinstance(value, tuple):
        return tuple(_truncated(item, D) for item in value)
    return value


def grown(build: Callable) -> Callable:
    """Memoise ``build(*key, D)``, whose value (a series, or tuples holding
    series and other values) is known through degree D, so that its value at
    any lower D is that value truncated.

    Two memos, each bounded at 256 entries: by (key, D), least recently
    used first out, so a repeat request returns the identical object; and by
    key, the value at the largest D built so far, the key grown longest ago
    first out.  A (key, D) not held is that value truncated to D, and
    ``build`` runs only when D is above every D held for the key.
    ``__wrapped__`` is ``build``; ``cache_clear`` empties both memos.
    """
    largest: Dict[tuple, tuple] = {}  # key -> (D, value at D)
    lock = Lock()

    @lru_cache(maxsize=_MEMO_SIZE)
    def by_truncation(*args):
        key, D = args[:-1], args[-1]
        held = largest.get(key)
        if held is not None and held[0] >= D:
            return _truncated(held[1], D)
        value = build(*args)
        with lock:  # another thread may have grown the key meanwhile
            if key not in largest or largest[key][0] < D:
                largest.pop(key, None)  # re-inserted as the most recently grown
                largest[key] = (D, value)
                if len(largest) > _MEMO_SIZE:
                    del largest[next(iter(largest))]
        return value

    @wraps(build)
    def memo(*args):
        return by_truncation(*args)

    def cache_clear() -> None:
        by_truncation.cache_clear()
        largest.clear()

    memo.cache_clear = cache_clear
    return memo


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
