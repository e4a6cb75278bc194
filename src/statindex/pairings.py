"""The four statistics pairings and their index values on catalog manifolds.

Each pairing multiplies a Fock-type Chern character against a genus:

    fb  spinor character * A-hat factors          (Dirac operator)
    bb  alternating dual character * Todd / euler (de Rham operator)
    ff  spinor character * B-hat factors          (Dirac operator)
    bf  alternating dual character * Td* / euler  (de Rham operator)

Products are assembled symbolically in a small factored algebra whose
per-root atoms are x^k, e^{s x}, (1 - e^{-x})^b and (1 + e^{-x})^f; the
plus-argument variants normalize into these via

    (1 - e^{x})^n = (-1)^n e^{n x} (1 - e^{-x})^n
    (1 + e^{x})^n = e^{n x} (1 + e^{-x})^n

so exact cancellations (ff, bb) happen by integer bookkeeping, not series
manipulation.  The nondegenerate limit e^{-x} -> 0 is only ever applied to
this canonical form, where it simply erases the remaining bose/fermi
factors; applying it to an unfactored series would be meaningless.

Each root's canonical factor is lowered to a one-variable series by one
builder (``_lower_root``): ``FactorExpression.root_factor`` returns that
series, and ``to_series`` is the scalar times the root product of the
lowered factors (``series.root_product``).  Every root of a canonical
density carries the same factor x^m u(x), so ``pairing_index`` integrates
it by the splitting principle over the manifold's catalog factors
(``manifolds.multiplicative_integral``), as ``hrr_index`` does ch(E) Td.
The density's Chern-basis polynomial, the multiplicative sequence of that
one-root factor (``symmetric.multiplicative_sequence``), is built only when
``IndexReport.density`` is read; the l-root lowering reduced by
``symmetric.to_chern_basis`` is the oracle tests compare it with.

bb and bf use the paired-root convention for the complexified tangent
bundle (roots +-x_i, i = 1..l), with the parity prefactor (-1)^{l(2l+1)}
= (-1)^l on bb, a sign per root; the literal single-root products over
m = 2l independent roots are exercised by verify_identity as a separate
route.  Its brute-force route never touches the factored algebra: each
root's block is one root's character from ``bundles`` times the genus
factors of ``genera.generating_series``.  Both routes are products of
copies of one block, so verify compares the blocks by one exact rule
(``_products_agree``, on the blocks' integer form) and expands the products
only to name a mismatch.

Every block is memoised by ``series.grown``, with the truncation D as its
last argument: per key it holds the value at the largest D built so far,
and per (key, D) the value returned, so a repeat returns the same object, a
lower D is that value truncated, and a key is built again only for a D above
every D built for it.  The keys are the root's factor for ``_lower_root``
and the kind for route (b)'s ``_brute_block`` and the literal check's
``_literal_blocks``; each level holds at most 256 entries.

A root's factor is one immutable record (``_RootFactor``), so one value
serves as the atom state, the memo key and the one-root density: an atom
multiplication replaces the root's record, ``_root_data`` holds (scalar,
factor) per (kind, mode) in an ``lru_cache(maxsize=256)``, and
``pairing_density`` shares that one factor across its l roots.  Route (b)'s
memo is kept apart from ``_lower_root``, and neither is built from the other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from typing import List, Optional, Tuple, Union

from ._record import Record, store
from .series import (
    TruncatedSeries, _check_root_block, _coerce, format_rational, grown, root_product,
    root_variables,
)
from .symmetric import ChernPolynomial, multiplicative_sequence
from .genera import generating_series
from .bundles import RootModel, lambda_minus1_dual, spinor_character
from .manifolds import (
    CohomologyModel,
    TangentData,
    _factor_classes,
    catalog,
    multiplicative_integral,
)

__all__ = [
    "FactorExpression",
    "IndexReport",
    "PAIRING_KINDS",
    "PoleError",
    "VerifyReport",
    "density_series",
    "hrr_index",
    "pairing_density",
    "pairing_index",
    "verify_identity",
]

PAIRING_KINDS = ("fb", "bb", "ff", "bf")
MODES = ("exact", "nondegenerate")


class PoleError(ValueError):
    """A factored density with an uncancelled pole cannot be lowered to a series."""


class _RootFactor(Record):
    """One root's factor x^power e^{exp_coeff x} (1 - e^{-x})^bose (1 + e^{-x})^fermi.

    Immutable, so one record is shared: it is the atom state of a
    ``FactorExpression``, the memo key of ``_lower_root`` and the factor
    ``_root_data`` holds."""

    __slots__ = __match_args__ = ("power", "exp_coeff", "bose", "fermi")

    def __init__(self, power: int = 0, exp_coeff: Fraction = Fraction(0), bose: int = 0,
                 fermi: int = 0):
        store(self, "power", power)
        store(self, "exp_coeff", exp_coeff)
        store(self, "bose", bose)
        store(self, "fermi", fermi)


@grown
def _lower_root(factor: _RootFactor, D: int) -> TruncatedSeries:
    """One root's factor x^p e^{s x} (1 - e^{-x})^b (1 + e^{-x})^f as a
    series in ``x1`` through degree D.  Held per factor at the largest D
    built so far and per (factor, D) as returned, at most 256 of each
    (``series.grown``): a factor is built again only for a D above every D
    built for it.  The series are shared (they are immutable).

    (1 - e^{-x})^b is written x^b u^b with the unit u = (1 - e^{-x})/x, so an
    inverse bose factor needs x powers p + b >= 0 to cover it; otherwise the
    factor has a genuine pole.
    """
    power, bose, fermi = factor.power, factor.bose, factor.fermi
    variables = ("x1",)
    net = power + bose
    if net < 0:
        raise PoleError(f"uncancelled pole: x^{power} against (1-e^-x)^{bose}")
    out = TruncatedSeries.monomial(variables, D, (net,))
    if bose:
        x = TruncatedSeries.variable(variables, D + 1, "x1")
        u = (TruncatedSeries.constant(variables, D + 1, 1) - (-x).exp()).quotient_by("x1")
        out = out * (u ** bose if bose > 0 else u.invert() ** (-bose))
    x = TruncatedSeries.variable(variables, D, "x1")
    if factor.exp_coeff:
        out = out * (x * factor.exp_coeff).exp()
    if fermi:
        g = TruncatedSeries.constant(variables, D, 1) + (-x).exp()
        out = out * (g ** fermi if fermi > 0 else g.invert() ** (-fermi))
    return out


class FactorExpression:
    """Canonical factored product over roots x_1..x_l with a rational scalar.

    It is symbolic only: ``spectral`` takes products over eigenvalues from
    the exponents of the one-root form, never by evaluating it."""

    def __init__(self, l: int):
        if l < 1:
            raise ValueError("need at least one root")
        self.scalar = Fraction(1)
        self.factors = [_RootFactor()] * l

    @property
    def n_roots(self) -> int:
        return len(self.factors)

    # -- atom multiplication (all normalize into the canonical atoms) ------

    def _mul_root(self, i: int, power=0, exp_coeff=0, bose=0, fermi=0) -> "FactorExpression":
        """Root i's factor times x^power e^{exp_coeff x} (1 - e^{-x})^bose
        (1 + e^{-x})^fermi, as a new record; an inexact exponent is a TypeError."""
        for n in (power, bose, fermi):
            if not isinstance(n, int):
                raise TypeError(f"integer exponent expected, got {type(n).__name__}")
        f = self.factors[i]
        self.factors[i] = _RootFactor(f.power + power, f.exp_coeff + _coerce(exp_coeff),
                                      f.bose + bose, f.fermi + fermi)
        return self

    def mul_scalar(self, value) -> "FactorExpression":
        self.scalar *= _coerce(value)
        return self

    def mul_power(self, i: int, k: int) -> "FactorExpression":
        return self._mul_root(i, power=k)

    def mul_exp(self, i: int, s) -> "FactorExpression":
        return self._mul_root(i, exp_coeff=s)

    def mul_bose_minus(self, i: int, n: int) -> "FactorExpression":
        """(1 - e^{-x_i})^n"""
        return self._mul_root(i, bose=n)

    def mul_fermi_minus(self, i: int, n: int) -> "FactorExpression":
        """(1 + e^{-x_i})^n"""
        return self._mul_root(i, fermi=n)

    def mul_bose_plus(self, i: int, n: int) -> "FactorExpression":
        """(1 - e^{x_i})^n = (-1)^n e^{n x_i} (1 - e^{-x_i})^n"""
        self._mul_root(i, exp_coeff=n, bose=n)
        if n % 2:
            self.scalar = -self.scalar
        return self

    def mul_fermi_plus(self, i: int, n: int) -> "FactorExpression":
        """(1 + e^{x_i})^n = e^{n x_i} (1 + e^{-x_i})^n"""
        return self._mul_root(i, exp_coeff=n, fermi=n)

    # -- canonical-form consumers ------------------------------------------

    def copy(self) -> "FactorExpression":
        out = FactorExpression(self.n_roots)
        out.scalar = self.scalar
        out.factors = self.factors.copy()
        return out

    def nondegenerate_limit(self) -> "FactorExpression":
        """Substitute e^{-x_i} -> 0: every (1 +- e^{-x_i})^n factor becomes 1."""
        out = self.copy()
        out.factors = [_RootFactor(f.power, f.exp_coeff) for f in self.factors]
        return out

    def is_root_monomial(self) -> bool:
        """True when the expression is exactly scalar * prod x_i^{k_i}."""
        return all(
            f.exp_coeff == 0 and f.bose == 0 and f.fermi == 0 for f in self.factors
        )

    def to_series(self, D: int) -> TruncatedSeries:
        """Lower to a truncated series over x1..xl: the scalar times the
        product of every root's one-variable lowering (``_lower_root``).
        Raises PoleError when an inverse bose factor is not covered by x
        powers."""
        blocks = [_lower_root(f, D) for f in self.factors]
        return root_product(blocks, D, self.scalar)

    def root_factor(self, D: int) -> TruncatedSeries:
        """The factor every root carries, lowered alone over ``("x1",)``
        (scalar excluded).

        Raises ValueError when the roots carry different factors, since the
        product is then not a multiplicative sequence.
        """
        first = self.factors[0]
        if any(f != first for f in self.factors):
            raise ValueError("roots carry different factors")
        return _lower_root(first, D)

    def canonical_string(self) -> str:
        variables = root_variables(self.n_roots)
        pieces: List[str] = []
        if self.scalar != 1:
            pieces.append(format_rational(self.scalar))
        for name, f in zip(variables, self.factors):
            if f.power == 1:
                pieces.append(name)
            elif f.power:
                pieces.append(f"{name}^{f.power}")
            if f.exp_coeff:
                pieces.append(f"exp({format_rational(f.exp_coeff)}*{name})")
            if f.bose == 1:
                pieces.append(f"(1-exp(-{name}))")
            elif f.bose:
                pieces.append(f"(1-exp(-{name}))^{f.bose}")
            if f.fermi == 1:
                pieces.append(f"(1+exp(-{name}))")
            elif f.fermi:
                pieces.append(f"(1+exp(-{name}))^{f.fermi}")
        if not pieces:
            return "1"
        return " * ".join(pieces)


# -- pairing assembly ----------------------------------------------------------


def _check_kind(kind: str) -> None:
    if kind not in PAIRING_KINDS:
        raise ValueError(f"unknown pairing kind {kind!r}; expected one of {PAIRING_KINDS}")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@lru_cache(maxsize=256)
def _root_data(kind: str, mode: str) -> Tuple[Fraction, _RootFactor]:
    """The density on one root: its share of the scalar (the bb parity
    prefactor (-1)^{l(2l+1)} = (-1)^l is one sign per root) and the factor
    every root carries.  Built once per process by the atom multiplications;
    both are immutable, so every caller gets the same pair."""
    _check_kind(kind)
    _check_mode(mode)
    root = FactorExpression(1)
    half = Fraction(1, 2)
    if kind == "fb":
        root.mul_exp(0, half).mul_fermi_minus(0, 1)          # e^{x/2}(1+e^{-x})
        root.mul_power(0, 1).mul_exp(0, -half).mul_bose_minus(0, -1)
    elif kind == "ff":
        root.mul_exp(0, half).mul_fermi_minus(0, 1)
        root.mul_power(0, 1).mul_exp(0, -half).mul_fermi_minus(0, -1)
    elif kind == "bb":
        root.mul_bose_minus(0, 1).mul_bose_plus(0, 1)        # dual character, roots +-x
        root.mul_power(0, 1).mul_bose_minus(0, -1)           # Todd factor at +x
        root.mul_scalar(-1).mul_power(0, 1).mul_bose_plus(0, -1)  # Todd factor at -x
        root.mul_power(0, -1)                                # 1/euler
        root.mul_scalar(-1)                                  # parity prefactor
    elif kind == "bf":
        root.mul_bose_minus(0, 1).mul_bose_plus(0, 1)
        root.mul_power(0, 1).mul_fermi_minus(0, -1)          # Td* factor at +x
        root.mul_scalar(-1).mul_power(0, 1).mul_fermi_plus(0, -1)  # Td* factor at -x
        root.mul_power(0, -1)
    else:
        raise AssertionError(kind)
    if mode == "nondegenerate":
        root = root.nondegenerate_limit()
    return root.scalar, root.factors[0]


def pairing_density(kind: str, l: int, mode: str = "exact") -> FactorExpression:
    """The pairing's index density in canonical factored form: each of the
    l roots carries the one-root factor, the scalar its l-th power.  The
    expression is a new one, so its atom multiplications change no other."""
    scalar, factor = _root_data(kind, mode)
    expr = FactorExpression(l)
    expr.scalar = scalar ** l
    expr.factors = [factor] * l
    return expr


def density_series(kind: str, l: int, mode: str, D: int) -> TruncatedSeries:
    """The pairing density lowered to a truncated series over x1..xl."""
    return pairing_density(kind, l, mode).to_series(D)


# -- index evaluation -----------------------------------------------------------


class IndexReport(Record):
    """An index value with the density it integrates over ``roots`` roots.

    ``density`` (the Chern-basis polynomial) and ``density_form`` are built
    on first read, so a request that prints the value alone never builds
    them.
    """

    __match_args__ = ("manifold", "pairing", "mode", "index_value", "roots")

    def __init__(self, manifold: str, pairing: str, mode: str, index_value: Fraction, roots: int):
        store(self, "manifold", manifold)
        store(self, "pairing", pairing)
        store(self, "mode", mode)
        store(self, "index_value", index_value)
        store(self, "roots", roots)

    @cached_property
    def density(self) -> ChernPolynomial:
        l = self.roots
        scalar, factor = _root_data(self.pairing, self.mode)
        return multiplicative_sequence(_lower_root(factor, l) * scalar, l, l)

    @cached_property
    def density_form(self) -> str:
        return pairing_density(self.pairing, self.roots, self.mode).canonical_string()

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "pairing": self.pairing,
            "mode": self.mode,
            "density_form": self.density_form,
            "density_chern_basis": self.density.to_json_dict(),
            "index": format_rational(self.index_value),
        }


ManifoldLike = Union[str, Tuple[CohomologyModel, TangentData]]


def _resolve(manifold: ManifoldLike) -> Tuple[CohomologyModel, TangentData]:
    if isinstance(manifold, str):
        return catalog(manifold)
    return manifold


def _check_truncation(D: int, l: int) -> None:
    if D < l:
        raise ValueError(
            f"truncation {D} is below the complex dimension {l}; the top "
            "degree would be lost"
        )


def pairing_index(
    kind: str, manifold: ManifoldLike, mode: str = "exact", D: Optional[int] = None
) -> IndexReport:
    """Exact rational index of a pairing on a catalog manifold.

    Every root of the canonical density carries the same factor s x^m u(x),
    so the index is the splitting-principle integral of that one-root factor
    over the manifold's catalog factors
    (``manifolds.multiplicative_integral``).  Terms above the complex
    dimension cannot contribute to the integral, so the factor is lowered
    through that degree regardless of D.  Tests check the value against the
    density's Chern-basis polynomial evaluated on the tangent Chern classes.
    """
    model, _ = _resolve(manifold)
    l = model.complex_dim
    _check_truncation(model.real_dimension if D is None else D, l)
    scalar, factor = _root_data(kind, mode)
    value = multiplicative_integral(model, _lower_root(factor, l), scalar)
    return IndexReport(
        manifold=model.name, pairing=kind, mode=mode, index_value=value, roots=l
    )


def hrr_index(
    manifold: ManifoldLike, bundle: Optional[RootModel] = None, D: Optional[int] = None
) -> Fraction:
    """Holomorphic Euler characteristic: integral of ch(E) * Td(TM).

    ``bundle`` is a RootModel over the manifold's generators; None means
    the trivial line bundle, so the result is the Todd genus.  A root
    sum_j k_j h_j of multiplicity m contributes, one catalog factor at a
    time, m prod_j sum_{i <= n_j} k_j^i / i! td_j[n_j - i], td_j the Todd
    class of the cp^{n_j} factor (0 when a torus factor is present).  A
    truncation D below the complex dimension raises ValueError, as in
    ``pairing_index``; None skips the check.
    """
    model, _ = _resolve(manifold)
    l = model.complex_dim
    if D is not None:
        _check_truncation(D, l)
    todd = generating_series("todd", l)
    if bundle is None:
        return multiplicative_integral(model, todd)
    classes = _factor_classes(model, todd, Fraction(1))
    if tuple(bundle.variables) != model.generators:
        raise ValueError(
            f"bundle roots use generators {bundle.variables}, "
            f"manifold has {model.generators}"
        )
    if bundle.truncation < l:
        raise ValueError(
            f"bundle truncation {bundle.truncation} is below the model's "
            f"complex dimension {l}"
        )
    if classes is None or model.top_exponents is None:
        return Fraction(0)
    total = Fraction(0)
    for root, mult in bundle.roots:
        value = Fraction(mult)
        for j, td in enumerate(classes):
            k = root.coefficient(tuple(int(i == j) for i in range(len(model.generators))))
            value *= sum(k ** i / factorial(i) * td[-1 - i] for i in range(len(td)))
        total += value
    return total * model.top_integral


# -- dual-route verification -----------------------------------------------------


class VerifyReport(Record):
    __slots__ = __match_args__ = ("kind", "l", "truncation", "ok", "canonical_form", "chain",
                                  "first_mismatch", "literal_ok")

    def __init__(self, kind: str, l: int, truncation: int, ok: bool, canonical_form: str,
                 chain: Tuple[str, ...], first_mismatch: Optional[Tuple[Tuple[int, ...], str, str]],
                 literal_ok: Optional[bool]):
        store(self, "kind", kind)
        store(self, "l", l)
        store(self, "truncation", truncation)
        store(self, "ok", ok)
        store(self, "canonical_form", canonical_form)
        store(self, "chain", chain)
        store(self, "first_mismatch", first_mismatch)
        store(self, "literal_ok", literal_ok)

    def to_json_dict(self) -> dict:
        return {
            "pairing": self.kind,
            "roots": self.l,
            "truncation": self.truncation,
            "ok": self.ok,
            "canonical_form": self.canonical_form,
            "chain": list(self.chain),
            "first_mismatch": None
            if self.first_mismatch is None
            else {
                "exponents": list(self.first_mismatch[0]),
                "factored_route": self.first_mismatch[1],
                "series_route": self.first_mismatch[2],
            },
            "literal_ok": self.literal_ok,
        }


def _products_agree(a: TruncatedSeries, s_a, b: TruncatedSeries, s_b, n: int, D: int) -> bool:
    """Whether s_a prod a(x_i) = s_b prod b(x_i) over n roots through degree D,
    decided on the one-variable blocks a and b.

    A product vanishes unless its scalar is nonzero and its block has a term
    of degree m <= D/n.  Otherwise, with m the common lowest degree, they agree
    iff s_a a_m^(n-1) a_k = s_b b_m^(n-1) b_k for k = m..D-(n-1)m: these are
    the coefficients of x1^m...x(n-1)^m xn^k, and they give s_a (a_m/b_m)^n =
    s_b and a = (a_m/b_m) b on every exponent either product reaches.  The
    test is made on the blocks' integer form, cross-multiplied by the
    scalars' and blocks' denominators.  Blocks that ``root_product`` refuses
    raise ValueError.
    """
    def lowest(block, scalar):  # the lowest degree the product reaches, None if it vanishes
        _check_root_block(block, D)
        nums = block._nums  # canonical: no zero numerator
        return next((k for k in range(D // n + 1) if scalar and (k,) in nums), None)
    m, m_b = lowest(a, s_a), lowest(b, s_b)
    if m is None or m != m_b:
        return m == m_b
    nums_a, nums_b = a._nums, b._nums
    # s_a a_m^(n-1) a_k = s_b b_m^(n-1) b_k times the denominators of s_a, s_b, a^n and b^n
    left = s_a.numerator * s_b.denominator * b._den ** n * nums_a[(m,)] ** (n - 1)
    right = s_b.numerator * s_a.denominator * a._den ** n * nums_b[(m,)] ** (n - 1)
    return all(left * nums_a.get((k,), 0) == right * nums_b.get((k,), 0)
               for k in range(m, D - (n - 1) * m + 1))


@grown
def _brute_block(kind: str, D: int) -> Tuple[TruncatedSeries, int]:
    """One root's block of the density by plain series arithmetic, no
    factored algebra, and the sign each root carries (bb's -1 is the parity
    prefactor).  For fb/ff it is the spinor character of one root times the
    A-hat or B-hat series; for bb/bf the paired dual character of one root
    times the Todd or Td* series at x and at -x (roots +-x), over x.  Memoised
    by ``series.grown`` and shared (series are immutable)."""
    if kind in ("fb", "ff"):
        genus = generating_series("ahat" if kind == "fb" else "bhat", D)
        return spinor_character(1, D) * genus.rename({"x": "x1"}), 1
    genus = generating_series("todd" if kind == "bb" else "tdstar", D + 1).rename({"x": "x1"})
    at_minus = {e: c * (-1) ** e[0] for e, c in genus.terms.items()}  # the genus at -x
    block = lambda_minus1_dual(1, True, D + 1) * genus * TruncatedSeries(("x1",), D + 1, at_minus)
    return block.quotient_by("x1"), -1 if kind == "bb" else 1


def _euler_blocks(kind: str, expr: FactorExpression, D: int) -> Tuple:
    """The blocks and scalars whose products over the roots must agree for
    ``expr`` to be the euler monomial: exactly for ff and bb, in the
    nondegenerate limit for fb and bf."""
    if kind in ("fb", "bf"):
        expr = expr.nondegenerate_limit()
    return expr.root_factor(D), expr.scalar, generating_series("euler", D), 1


@grown
def _literal_blocks(kind: str, D: int) -> Tuple[Tuple, Tuple]:
    """The two block comparisons of the literal check at truncation D,
    memoised by ``series.grown``: one root built in the factored algebra
    against the unpaired dual character of one root times the genus, and
    that root against the euler monomial."""
    root = FactorExpression(1).mul_bose_minus(0, 1).mul_power(0, 1)
    (root.mul_bose_minus if kind == "bb" else root.mul_fermi_minus)(0, -1)
    genus = generating_series("todd" if kind == "bb" else "tdstar", D)
    block = lambda_minus1_dual(1, False, D) * genus.rename({"x": "x1"})
    return (root.root_factor(D), root.scalar, block, 1), _euler_blocks(kind, root, D)


def _literal_check(kind: str, l: int, D: int) -> Optional[bool]:
    """Single-root (unpaired) products over m = 2l independent roots: for bb
    the chain prod(1 - e^{-x_i}) * prod x_i/(1 - e^{-x_i}), which must be the
    euler monomial over all m roots, for bf the analogous Td* product, which
    is the monomial in the limit (``_literal_blocks``)."""
    m = 2 * l
    if kind not in ("bb", "bf") or D < m:
        return None
    return all(_products_agree(*blocks, m, D) for blocks in _literal_blocks(kind, D))


_CHAINS = {
    "fb": (
        "spin character: prod_i exp(x_i/2)*(1+exp(-x_i))",
        "A-hat factors: prod_i x_i*exp(-x_i/2)/(1-exp(-x_i))",
        "product: prod_i x_i*(1+exp(-x_i))/(1-exp(-x_i))",
        "limit exp(-x)->0: prod_i x_i",
    ),
    "bb": (
        "dual character (roots +-x): prod_i (1-exp(-x_i))*(1-exp(x_i))",
        "Todd factors (roots +-x): prod_i x_i*(-x_i)/((1-exp(-x_i))*(1-exp(x_i)))",
        "divide by euler monomial, parity prefactor (-1)^(l(2l+1))",
        "product: prod_i x_i",
    ),
    "ff": (
        "spin character: prod_i exp(x_i/2)*(1+exp(-x_i))",
        "B-hat factors: prod_i x_i*exp(-x_i/2)/(1+exp(-x_i))",
        "product: prod_i x_i",
    ),
    "bf": (
        "dual character (roots +-x): prod_i (1-exp(-x_i))*(1-exp(x_i))",
        "Td* factors (roots +-x): prod_i x_i*(-x_i)/((1+exp(-x_i))*(1+exp(x_i)))",
        "divide by euler monomial",
        "product: prod_i x_i*((1-exp(-x_i))/(1+exp(-x_i)))^2",
        "limit exp(-x)->0: prod_i x_i",
    ),
}


def verify_identity(kind: str, l: int, D: Optional[int] = None) -> VerifyReport:
    """Re-derive the pairing density two independent ways and compare.

    Route (a) is the factored-algebra cancellation; route (b) is brute-force
    series arithmetic on the characters and genus factors.  For ff/bb the
    density must also equal the euler monomial outright, for fb/bf after the
    nondegenerate substitution.  Each comparison is made on the per-root
    blocks (``_products_agree``); the l-variable expansions are built only to
    name the first differing coefficient when the routes disagree.
    """
    _check_kind(kind)
    if l < 1:
        raise ValueError("need l >= 1")
    if D is None:
        D = 2 * l + 4
    if D < l:
        raise ValueError(
            f"truncation {D} is below the root count {l}; the density's "
            "leading degree would be lost"
        )
    expr = pairing_density(kind, l)
    block, sign = _brute_block(kind, D)
    mismatch: Optional[Tuple[Tuple[int, ...], str, str]] = None
    ok = _products_agree(expr.root_factor(D), expr.scalar, block, sign ** l, l, D)
    if not ok:
        factored = expr.to_series(D)
        brute = root_product([block] * l, D, sign ** l)
        for exps in sorted(set(factored.terms) | set(brute.terms)):
            a = factored.coefficient(exps)
            b = brute.coefficient(exps)
            if a != b:
                mismatch = (exps, format_rational(a), format_rational(b))
                break
    ok = ok and _products_agree(*_euler_blocks(kind, expr, D), l, D)
    literal_ok = _literal_check(kind, l, D) if ok else None
    ok = ok and literal_ok is not False
    return VerifyReport(
        kind=kind,
        l=l,
        truncation=D,
        ok=ok,
        canonical_form=expr.canonical_string(),
        chain=_CHAINS[kind],
        first_mismatch=mismatch,
        literal_ok=literal_ok,
    )
