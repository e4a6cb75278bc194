"""Root-level bundle algebra: Chern characters and Fock-type constructions.

A bundle is a multiset of Chern roots (degree-1 series with no constant
part) with integer multiplicities; negative multiplicities express virtual
summands.  The symmetric Fock construction has infinite rank, so its
character is returned as a pair (monomial denominator, unit series) rather
than a naive divergent sum: per root a*x the factor 1/(1 - e^{a x}) equals
x^{-1} times the unit series ((1 - e^{a x})/x)^{-1}.

The characters over generic roots x1..xl (``spinor_character``,
``lambda_minus1_dual``) are the root product (``series.root_product``) of
one one-variable block; at l = 1 they are the per-root characters of the
brute-force route of ``pairings.verify_identity``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Dict, Iterable, Mapping, NamedTuple, Sequence, Tuple

from ._record import Record, store
from .series import Exponents, TruncatedSeries, format_rational, parse_rational, root_product

__all__ = [
    "DivergenceError",
    "RootModel",
    "SymFockCharacter",
    "chern_character",
    "ext_fock_character",
    "fock_character_value",
    "lambda_minus1_dual",
    "spinor_character",
    "sym_fock_character",
]


class DivergenceError(ValueError):
    """A bosonic factor with a vanishing root has no convergent occupation sum."""


# e^v and e^v - 1 are finite binary64 numbers exactly for v <= _LOG_MAX
# (709.782712893384); one float above it, math.exp and math.expm1 raise
_LOG_MAX = math.log(sys.float_info.max)


def _safe_exp(value: float) -> float:
    """e^value, or Infinity where that is beyond binary64 range."""
    return math.inf if value > _LOG_MAX else math.exp(value)


def _validate_root(root: TruncatedSeries) -> None:
    for exps in root.terms:
        if sum(exps) != 1:
            raise ValueError(
                f"root term with exponents {exps}: roots must be pure degree-1 "
                "combinations of the generators"
            )


class RootModel(Record):
    """A bundle as a multiset of Chern roots with integer multiplicities."""

    __slots__ = __match_args__ = ("variables", "truncation", "roots")

    def __init__(self, variables: Tuple[str, ...], truncation: int,
                 roots: Tuple[Tuple[TruncatedSeries, int], ...]):
        packed = []
        for root, mult in roots:
            if root.variables != variables or root.truncation != truncation:
                root = root.embed(variables, truncation)
            _validate_root(root)
            packed.append((root, int(mult)))
        store(self, "variables", tuple(variables))
        store(self, "truncation", truncation)
        store(self, "roots", tuple(packed))

    @classmethod
    def build(
        cls,
        variables: Sequence[str],
        truncation: int,
        roots: Iterable[Tuple[Mapping[str, Fraction] | TruncatedSeries, int]],
    ) -> "RootModel":
        variables = tuple(variables)
        packed = []
        for root, mult in roots:
            if isinstance(root, TruncatedSeries):
                series = root
            else:
                terms: Dict[Exponents, Fraction] = {}
                for name, coeff in root.items():
                    exps = tuple(1 if v == name else 0 for v in variables)
                    if name not in variables:
                        raise ValueError(f"unknown generator {name!r}")
                    terms[exps] = Fraction(coeff)
                series = TruncatedSeries(variables, truncation, terms)
            packed.append((series, mult))
        return cls(variables, truncation, tuple(packed))

    @property
    def rank(self) -> int:
        return sum(mult for _, mult in self.roots)

    def concat(self, other: "RootModel") -> "RootModel":
        if self.variables != other.variables or self.truncation != other.truncation:
            raise ValueError("models must share variables and truncation")
        return RootModel(self.variables, self.truncation, self.roots + other.roots)

    def tensor(self, other: "RootModel") -> "RootModel":
        """Pairwise sums of roots, multiplicities multiplied."""
        if self.variables != other.variables or self.truncation != other.truncation:
            raise ValueError("models must share variables and truncation")
        roots = tuple(
            (ra + rb, ma * mb) for ra, ma in self.roots for rb, mb in other.roots
        )
        return RootModel(self.variables, self.truncation, roots)

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "truncation": self.truncation,
            "roots": [
                {
                    "coefficients": {
                        name: format_rational(root.coefficient(
                            tuple(1 if v == name else 0 for v in self.variables)
                        ))
                        for name in self.variables
                    },
                    "multiplicity": mult,
                }
                for root, mult in self.roots
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RootModel":
        variables = tuple(data["variables"])
        truncation = int(data["truncation"])
        roots = [
            (
                {name: parse_rational(c) for name, c in item["coefficients"].items()},
                int(item["multiplicity"]),
            )
            for item in data["roots"]
        ]
        return cls.build(variables, truncation, roots)


class SymFockCharacter(NamedTuple):
    """Character of the symmetric Fock construction, as denominator + unit."""

    denominator: Tuple[Tuple[str, int], ...]
    unit: TruncatedSeries


def chern_character(model: RootModel) -> TruncatedSeries:
    """Sum of multiplicity * e^{root}."""
    out = TruncatedSeries.zero(model.variables, model.truncation)
    for root, mult in model.roots:
        out = out + root.exp() * mult
    return out


def _single_generator(root: TruncatedSeries) -> Tuple[str, Fraction]:
    """The (generator, coefficient) of a root supported on one generator."""
    if len(root.terms) != 1:
        raise ValueError(
            "symmetric Fock factors need each root to be a nonzero multiple "
            "of a single generator"
        )
    (exps, coeff), = root.terms.items()
    idx = exps.index(1)
    return root.variables[idx], coeff


def sym_fock_character(model: RootModel) -> SymFockCharacter:
    """Product of single-level bosonic factors 1/(1 - e^{root}).

    Each root must be a nonzero multiple of one generator, so the non-unit
    denominator can be split off exactly: the result is the multiset of
    generator powers to divide by, together with a unit series.
    """
    D = model.truncation
    variables = model.variables
    denominator: Dict[str, int] = {}
    unit = TruncatedSeries.constant(variables, D, 1)
    for root, mult in model.roots:
        if mult == 0:
            continue
        if root.is_zero():
            raise DivergenceError(
                "bosonic factor for a zero root diverges (occupation sum has ratio 1)"
            )
        name, _ = _single_generator(root)
        lifted = root.embed(variables, D + 1)
        q = (TruncatedSeries.constant(variables, D + 1, 1) - lifted.exp()).quotient_by(name)
        denominator[name] = denominator.get(name, 0) + mult
        if mult > 0:
            unit = unit * q.invert() ** mult
        else:
            unit = unit * q ** (-mult)
    packed = tuple(sorted((k, v) for k, v in denominator.items() if v))
    return SymFockCharacter(packed, unit)


def ext_fock_character(model: RootModel) -> TruncatedSeries:
    """Product of single-level fermionic factors (1 + e^{root})."""
    out = TruncatedSeries.constant(model.variables, model.truncation, 1)
    one = out
    for root, mult in model.roots:
        if mult == 0:
            continue
        factor = one + root.exp()
        if mult > 0:
            out = out * factor ** mult
        else:
            out = out * factor.invert() ** (-mult)
    return out


def spinor_character(l: int, D: int) -> TruncatedSeries:
    """prod_{i=1..l} (e^{x_i/2} + e^{-x_i/2}) over generic roots x1..xl."""
    if l < 0:
        raise ValueError("need l >= 0")
    half = TruncatedSeries.variable(("x",), D, "x") * Fraction(1, 2)
    return root_product([half.exp() + (-half).exp()] * l, D)


def lambda_minus1_dual(l: int, paired: bool, D: int) -> TruncatedSeries:
    """Alternating-sum character prod (1 - e^{-x_i}), optionally times
    prod (1 - e^{x_i}) for the paired-root convention."""
    if l < 0:
        raise ValueError("need l >= 0")
    one = TruncatedSeries.constant(("x",), D, 1)
    x = TruncatedSeries.variable(("x",), D, "x")
    block = one - (-x).exp()
    if paired:
        block = block * (one - x.exp())
    return root_product([block] * l, D)


def fock_character_value(statistics: str, y: float) -> float:
    """Numeric value of the single-level Fock character at root value y.

    Bosonic: 1/(1 - e^y), requiring e^y < 1; fermionic: 1 + e^y, which is
    Infinity where it is beyond binary64 range (y > 709.78).
    """
    if statistics == "BE":
        if y >= 0:
            raise DivergenceError(f"bosonic character needs a negative root, got y={y}")
        return 1.0 / (-math.expm1(y))
    if statistics == "FD":
        return 1.0 + _safe_exp(y)
    raise ValueError(f"unknown statistics {statistics!r}")
