"""Spectral-sheaf pairs: formal characters, zeta determinants, formal pairings.

A spectrum is either an explicit finite list of positive eigenvalues or the
affine family lambda_n = a*(n + c) for n >= 0.  Eigenvalues play the role
of Chern roots: the formal Chern character is sum e^{-lambda_i}, the
bosonic and fermionic characters are the grand partition functions, and
the formal Euler class is the (regularized) product of the spectrum.

For the affine family the zeta-regularized determinant has the closed form

    det' = a^{1/2 - c} * sqrt(2*pi) / Gamma(c)

obtained from zeta_H(0, c) = 1/2 - c and zeta_H'(0, c) = ln Gamma(c) -
(1/2) ln(2*pi) through zeta_F(s) = a^{-s} * zeta_H(s, c).  An independent
Euler-Maclaurin route (numerical differentiation of the continued zeta
function, Bernoulli corrections from the exact series core) guards the
closed form against sign and convention slips.  The affine chern character
is e^{-ac}/(1 - e^{-a}), and ln Xi_BE and ln Xi_FD come from the Mellin
expansion in powers of a (small a and ac) or from a short Lambert series of
chern characters (elsewhere), so every affine value costs O(1) whatever a
is; the term-by-term sum ``_affine_terms`` is kept as the tests' oracle.

Every product over a finite spectrum is exp of a combination of three
fsums: sum ln lambda, ln Xi_BE and ln Xi_FD.  A pairing's one-root density
(``pairings._root_data(kind, mode)``, the scalar 1 and a ``_RootFactor``) is
lambda^p (1 - e^{-lambda})^b (1 + e^{-lambda})^f, so its product is
exp(p sum ln lambda - b ln Xi_BE + f ln Xi_FD): fb exact is det Xi_BE
Xi_FD, bf exact det / (Xi_BE Xi_FD)^2, and the other six values det.  The
bb and bf densities pair every root x with -x; in canonical form the pair is
the per-root factor of the squared de-Rham/Todd convention that the grading
lambda_i^+ = lambda_i^- gives.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ._record import Record, store
from .series import bernoulli_numbers
from .bundles import _safe_exp
from .statmech import (_KERNELS, TailBoundError, _be_logs, _fd_logs, _require_keys, _to_float,
                       _to_floats)
from .pairings import MODES, PAIRING_KINDS, _root_data

__all__ = [
    "SpectralPairReport",
    "SpectrumSpec",
    "build_spectral_report",
    "de_rham_type_character",
    "formal_chern_character",
    "formal_euler_class",
    "formal_pairing",
    "hurwitz_zeta_em",
    "log_gamma",
    "spinor_type_character",
    "xi_formal",
    "zeta_det",
    "zeta_det_euler_maclaurin",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
# zeta(2) = pi^2/6 as the float nearest it plus the float nearest the rest
_ZETA2, _ZETA2_REST = 1.6449340668482264, 3.040672350398476e-17
_U = 2.0 ** -53


class SpectrumSpec(Record):
    """Discrete operator spectrum: explicit list or affine law a*(n + c)."""

    __slots__ = __match_args__ = ("form", "eigenvalues", "a", "c", "graded")

    def __init__(self, form: str, eigenvalues: Tuple[float, ...] = (), a: float = 0.0,
                 c: float = 0.0, graded: bool = False):
        if form == "finite":
            eigenvalues = _to_floats(eigenvalues, "eigenvalues")
            if not eigenvalues:
                raise ValueError("finite spectrum needs at least one eigenvalue")
            if not all(0 < x < math.inf for x in eigenvalues):
                raise ValueError("finite spectrum eigenvalues must be positive and finite")
        elif form == "affine":
            if not (0 < a < math.inf and 0 < c < math.inf):
                raise ValueError("affine spectrum needs finite a > 0 and c > 0")
        else:
            raise ValueError(f"unknown spectrum form {form!r}")
        store(self, "form", form)
        store(self, "eigenvalues", eigenvalues)
        store(self, "a", a)
        store(self, "c", c)
        store(self, "graded", graded)

    @classmethod
    def finite(cls, eigenvalues: Sequence[float], graded: bool = False) -> "SpectrumSpec":
        return cls(form="finite", eigenvalues=eigenvalues, graded=graded)

    @classmethod
    def affine(cls, a: float, c: float, graded: bool = False) -> "SpectrumSpec":
        return cls(form="affine", a=float(a), c=float(c), graded=graded)

    def to_json_dict(self) -> dict:
        if self.form == "finite":
            return {
                "form": "finite",
                "eigenvalues": list(self.eigenvalues),
                "grading": self.graded,
            }
        return {"form": "affine", "a": self.a, "c": self.c, "grading": self.graded}

    @classmethod
    def from_json_dict(cls, data) -> "SpectrumSpec":
        _require_keys(data, ("form",), "spectrum")
        graded = data.get("grading", False)
        if not isinstance(graded, bool):
            raise ValueError(f"grading must be true or false, got {graded!r}")
        if data["form"] == "finite":
            _require_keys(data, ("eigenvalues",), "finite spectrum")
            return cls.finite(data["eigenvalues"], graded=graded)
        if data["form"] != "affine":
            raise ValueError(f"unknown spectrum form {data['form']!r}")
        _require_keys(data, ("a", "c"), "affine spectrum")
        return cls.affine(_to_float(data["a"], "a"), _to_float(data["c"], "c"), graded=graded)


def _affine_terms(spec: SpectrumSpec, tol: float, max_terms: int = 2_000_000):
    """Yield eigenvalues a*(n + c) until the geometric tail e^{-lam}/(1-e^{-a})
    falls below tol; raises when the bound cannot be met.  The term-by-term
    oracle that the closed forms below are tested against."""
    a, c = spec.a, spec.c
    one_minus = -math.expm1(-a)
    # the loop stops once a(n + 1 + c) >= -ln(tol (1 - e^{-a})), or where e^{-a(n + 1 + c)}
    # underflows to 0 (exp(-745.2) == 0.0); the margin covers rounding
    log_stop = math.log(tol) + math.log(one_minus) if tol > 0 else -math.inf
    needed = -max(log_stop, -745.2) / a - c
    if needed > 1.001 * max_terms + 1:
        raise TailBoundError(
            f"geometric tail needs about {needed:.3g} terms to fall below {tol}, "
            f"more than {max_terms} (a = {a} too small)"
        )
    for n in range(max_terms):
        lam = a * (n + c)
        yield lam
        if math.exp(-a * (n + 1 + c)) / one_minus <= tol:
            return
    raise TailBoundError(f"geometric tail still above {tol} after {max_terms} terms")


# -- affine spectra in closed form ------------------------------------------------
#
# For lambda_n = a(n + c), n >= 0, every sum over the spectrum has a closed form
# or a series whose length does not grow as a -> 0, so each request costs O(1).

def _chern(a: float, c: float) -> float:
    """sum_n e^{-a(n + c)} = e^{-ac} / (1 - e^{-a}), taken through logarithms
    where e^{-ac} alone would underflow (ac >= 700)."""
    t = a * c
    if t < 700.0:
        return math.exp(-t) / -math.expm1(-a)
    return math.exp(-t - math.log(-math.expm1(-a)))


# Mellin expansions of ln Xi in powers of a, from the poles of
# Gamma(s) zeta(s + 1) zeta(s, c) a^{-s} (BE; eta(s + 1) in place of
# zeta(s + 1) for FD) at s = 1, 0, -1, -2, ... (Zagier, "The Mellin transform
# and related analytic techniques", appendix to Zeidler, Quantum Field
# Theory I, 2006).  With B_1 = +1/2 and w_n = (-1)^n B_n / (n (n + 1) n!),
#
#     ln Xi_BE = pi^2/(6a) - ln det' + sum_n w_n B_{n+1}(c) a^n,
#     ln Xi_FD = pi^2/(12a) + (1/2 - c) ln 2 - sum_n (2^n - 1) w_n B_{n+1}(c) a^n.
#
# w_n vanishes for odd n > 1.  Row (n, r) holds r_i = w_n C(n+1, 2i) B_{2i}(1/2),
# so that with x = c - 1/2 and m = len(r) - 1
#
#     w_n B_{n+1}(c) a^{n+1} = (ax)^{n+1 - 2m} sum_i r_i (ax)^{2(m - i)} a^{2i},
#
# a form in which no power overflows.  Every entry is the float nearest the
# exact rational (tests/test_affine_budget.py regenerates them).
_MELLIN_ROWS = (
    (1, (-0.25, 0.020833333333333332)),
    (2, (0.013888888888888888, -0.003472222222222222)),
    (4, (-6.944444444444444e-05, 5.787037037037037e-05, -1.0127314814814815e-05)),
    (6, (7.873519778281683e-07, -1.3778659611992946e-06, 8.037551440329218e-07,
         -1.2712453808683968e-07)),
    (8, (-1.1482216343327455e-08, 3.444664902998236e-08, -4.2197145061728393e-08,
         2.2246794165196943e-08, -3.4177534584435627e-09)),
    (10, (1.8978869988971e-10, -8.698648744945042e-10, 1.8267162364384586e-09,
          -2.022435833199722e-09, 1.035682866195019e-09, -1.578483490293649e-10)),
    (12, (-3.387301370953521e-12, 2.201745891119789e-11, -7.063934734009322e-11,
          1.3407059801283e-10, -1.4417995358879743e-10, 7.324818687253986e-11,
          -1.1140392209082551e-11)),
    (14, (6.372636443183181e-14, -5.576056887785283e-13, 2.5371058839423038e-12,
          -7.356744102247667e-12, 1.356251372398239e-11, -1.446943199435845e-11,
          7.335569399612969e-12, -1.1150752433556946e-12)),
    (16, (-1.2462059912950672e-15, 1.4123667901344096e-14, -8.650746589573259e-14,
          3.557398852651044e-13, -1.0019528623293365e-12, 1.832490739621657e-12,
          -1.950937832235302e-12, 9.885360674552813e-13, -1.5024631705682443e-13)),
)
# the expansion is used for a <= 0.3 and ac <= 1/4; there the first omitted
# term (n = 18) is below 1.6e-19 of the value, and the terms cancel little
_MELLIN_MAX_A = 0.3
_MELLIN_MAX_AC = 0.25


def _mellin_log_xis(a: float, c: float) -> Tuple[float, float]:
    """(ln Xi_BE, ln Xi_FD) by the Mellin expansions, for a <= 0.3, ac <= 1/4."""
    ax = a * (c - 0.5)
    ax2, a2 = ax * ax, a * a
    # zeta(2)/a = lead + rest: the leading term's rounding error, found
    # exactly, goes into the sums, which then round about once
    lead = _ZETA2 / a
    rest = 0.0 if lead == math.inf else (
        float(Fraction(_ZETA2) - Fraction(lead) * Fraction(a)) + _ZETA2_REST) / a
    be = [lead, rest, -_log_det(a, c)]
    fd = [0.5 * _ZETA2 / a, 0.5 * rest, (0.5 - c) * _LN2]
    for n, row in _MELLIN_ROWS:
        p, power = 0.0, 1.0
        for coef in row:
            p = p * ax2 + coef * power
            power *= a2
        if n > 1:
            p *= ax
        be.append(p / a)
        fd.append(-(2 ** n - 1) * p / a)
    return math.fsum(be), math.fsum(fd)


def _lambert_log_xis(a: float, c: float) -> Tuple[float, float]:
    """(ln Xi_BE, ln Xi_FD) as the modes with n + c < 2 plus the Lambert
    series sum_k (+-1)^{k+1} ch(ka, c')/k of the rest, c' = c + (modes
    taken).  Term k + 1 is at most e^{-ac'} times term k, and ac' >= 1/4
    outside the expansion's range, so the series stops, on a certified
    relative tail bound, within about 160 terms for any a."""
    lows = [a * (n + c) for n in range(max(0, math.ceil(2.0 - c)))]
    fd = _fd_logs(lows)
    if lows and lows[0] < sys.float_info.min:  # ac subnormal or 0: -ln(1 - e^{-ac}) = -ln(ac)
        be = [-(math.log(a) + math.log(c))] + _be_logs(lows[1:])
    else:
        be = _be_logs(lows)
    c += len(lows)
    # r/(1 - r), r = e^{-ac}, bounds the tail after a term by that term
    ratio = math.exp(-a * c) / -math.expm1(-a * c)
    fd_total = math.fsum(fd)
    k = 0
    while True:
        k += 1
        term = _chern(k * a, c) / k
        be.append(term)
        fd.append(term if k % 2 else -term)
        fd_total += fd[-1]
        # either tail is below u/2 of ln Xi_FD <= ln Xi_BE
        if term * ratio <= 0.5 * _U * fd_total:
            return math.fsum(be), math.fsum(fd)


def _affine_log_xis(a: float, c: float) -> Tuple[float, float]:
    """(ln Xi_BE, ln Xi_FD) of the spectrum a(n + c); inf beyond float range."""
    if a <= _MELLIN_MAX_A and a * c <= _MELLIN_MAX_AC:
        return _mellin_log_xis(a, c)
    return _lambert_log_xis(a, c)


def _in_range(value: float, name: str, spec: SpectrumSpec) -> float:
    if value == math.inf:
        where = (f"a = {spec.a}, c = {spec.c}" if spec.form == "affine"
                 else f"a finite spectrum of {len(spec.eigenvalues)} eigenvalues")
        raise OverflowError(f"{name} is beyond float range for {where}")
    return value


def formal_chern_character(spec: SpectrumSpec, tol: float = 1e-13) -> float:
    """Trace of e^{-F}: sum of e^{-lambda_i} over the spectrum.

    Affine spectra: e^{-ac} / (1 - e^{-a}), within
    u (ac + |ln(1 - e^{-a})| + 4) relative of the exact sum, u = 2^-53
    (tested against mpmath); OverflowError beyond float range.  ``tol`` is
    not used: it is kept so that existing callers still work.
    """
    if spec.form == "finite":
        return math.fsum(math.exp(-lam) for lam in spec.eigenvalues)
    return _in_range(_chern(spec.a, spec.c), "the chern character", spec)


def xi_formal(spec: SpectrumSpec, statistics: str, tol: float = 1e-13) -> float:
    """Log-domain grand partition function of the spectrum.

    ln Xi_BE = -sum ln(1 - e^{-lambda}), ln Xi_FD = sum ln(1 + e^{-lambda}).
    An affine spectrum takes the Mellin expansion for a <= 0.3 and
    ac <= 1/4, and the Lambert series elsewhere; either value is within
    u (ac + |ln(1 - e^{-a})| + 8) relative of the exact sum, u = 2^-53
    (tested against mpmath for a in [1e-8, 50], c in [1e-3, 1e3]).  A
    value beyond float range (ln Xi_BE for a below about 9e-309) raises
    OverflowError.
    ``tol`` is not used: it is kept so that existing callers still work.
    """
    if statistics not in ("BE", "FD"):
        raise ValueError(f"statistics must be BE or FD, got {statistics!r}")
    if spec.form == "finite":
        return math.fsum(_KERNELS[statistics][0](spec.eigenvalues))
    value = _affine_log_xis(spec.a, spec.c)[statistics == "FD"]
    return _in_range(value, f"ln Xi_{statistics}", spec)


def spinor_type_character(spec: SpectrumSpec) -> float:
    """prod (e^{lambda/2} + e^{-lambda/2}) = exp(sum lambda / 2 + ln Xi_FD)
    over a finite spectrum; Infinity beyond float range."""
    if spec.form != "finite":
        raise ValueError("the spinor-type character is defined for finite spectra")
    return _safe_exp(0.5 * math.fsum(spec.eigenvalues) + xi_formal(spec, "FD"))


def de_rham_type_character(spec: SpectrumSpec) -> float:
    """prod (1 - e^{-lambda}) = exp(-ln Xi_BE) over all modes.

    With a declared grading the given eigenvalues are the positive sector
    and the identification lambda^+ = lambda^- doubles every factor, so the
    exponent is doubled; without it the given eigenvalues are all modes.
    """
    if spec.form != "finite":
        raise ValueError("the de-Rham-type character is defined for finite spectra")
    return math.exp(-(2.0 if spec.graded else 1.0) * xi_formal(spec, "BE"))


# -- log-gamma and Euler-Maclaurin zeta -----------------------------------------

# from here on the Stirling terms after the leading one sum to less than
# 1/(12x) < 1e-16, far below an ulp of the leading term (above 3e16)
_STIRLING_LEAD_ONLY = 1e15


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0: ``math.lgamma`` below x = 1e15, the leading
    Stirling term from there on.

    Above 1e15 the leading term alone is the rounded sum; it is formed at
    half scale, which is exact, so it stays finite wherever ln Gamma(x)
    does and reads inf where ln Gamma(x) passes max float (x above about
    2.56e305), where ``math.lgamma`` would raise.  Every x in (0, max
    float] answers, within 1e-13 of mpmath relative to
    max(1, |ln Gamma(x)|), tested from 5e-324 to max float.
    """
    if x <= 0:
        raise ValueError("log_gamma needs x > 0")
    if x < _STIRLING_LEAD_ONLY:
        return math.lgamma(x)
    return 2.0 * ((x - 0.5) * (0.5 * math.log(x)) - 0.5 * x + 0.25 * _LOG_2PI)


def hurwitz_zeta_em(s: float, c: float, n_direct: int = 40, terms: int = 10) -> float:
    """Hurwitz zeta by Euler-Maclaurin continuation for real s in [-1, 3.5],
    s != 1, and c > 0, the range checked against mpmath to 1e-12 relative
    to max(1, |zeta|).  Below s = -1 the error grows (about 3e-12 at s = -2).

    zeta(s, c) = sum_{n<N} (n+c)^{-s} + (N+c)^{1-s}/(s-1) + (N+c)^{-s}/2
               + sum_k B_{2k}/(2k)! * s(s+1)...(s+2k-2) * (N+c)^{-s-2k+1}
    """
    if c <= 0:
        raise ValueError("hurwitz_zeta_em needs c > 0")
    if s == 1.0:
        raise ValueError("pole at s = 1")
    N = n_direct
    direct = math.fsum((n + c) ** (-s) for n in range(N))
    M = N + c
    acc = [direct, M ** (1.0 - s) / (s - 1.0), 0.5 * M ** (-s)]
    bern = bernoulli_numbers(2 * terms)
    rising = s
    fact = 2.0
    for k in range(1, terms + 1):
        coeff = float(bern[2 * k]) / fact
        acc.append(coeff * rising * M ** (-s - 2 * k + 1))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
    return math.fsum(acc)


def zeta_det_euler_maclaurin(a: float, c: float, h: float = 2e-5) -> float:
    """Independent oracle for the affine determinant: differentiate
    zeta_F(s) = a^{-s} * zeta_H(s, c) numerically at s = 0."""
    if a <= 0 or c <= 0:
        raise ValueError("affine spectrum needs a > 0 and c > 0")

    def zeta_f(s: float) -> float:
        return a ** (-s) * hurwitz_zeta_em(s, c)

    derivative = (zeta_f(h) - zeta_f(-h)) / (2.0 * h)
    return math.exp(-derivative)


def _log_det(a: float, c: float) -> float:
    """ln det' = (1/2 - c) ln a - ln Gamma(c) + (1/2) ln 2 pi, with ln Gamma(c)
    from ``math.lgamma``.  From c = 1e15 on, where ln Gamma(c) is its
    Stirling leading term, the same sum is formed as
    c (1 - ln(ac)) + (1/2) ln(ac): it is inf only where det' overflows, and
    -inf only where det' is 0."""
    if c < _STIRLING_LEAD_ONLY:
        return (0.5 - c) * math.log(a) - log_gamma(c) + 0.5 * _LOG_2PI
    ac = a * c
    log_ac = math.log(ac) if sys.float_info.min <= ac < math.inf else math.log(a) + math.log(c)
    return c * (1.0 - log_ac) + 0.5 * log_ac


def zeta_det(spec: SpectrumSpec) -> float:
    """Zeta-regularized determinant exp(-zeta_F'(0)).

    Finite spectra: zeta_F'(0) = -sum ln lambda, so the determinant is the
    plain product exp(fsum(ln lambda)).  On log-balanced spectra (sum ln
    lambda near 0) its relative error is within u * (sum |ln lambda| + 2),
    u = 2^-53: a rounding of each logarithm and one of exp; elsewhere the
    rounding of the sum adds u * |sum ln lambda|.  Affine spectra: the
    Hurwitz closed form a^{1/2-c} * sqrt(2*pi) / Gamma(c), within
    u (4 |(1/2 - c) ln a| + 4 |ln Gamma(c)| + 16) relative (tested against
    mpmath for a in [1e-8, 50], c in [1e-3, 1e3]); for c >= 1e15 it is
    exp(c (1 - ln(ac)) + (1/2) ln(ac)), 0 where that underflows.  Either
    form raises OverflowError for a determinant beyond float range.
    """
    log_det = (math.fsum(map(math.log, spec.eigenvalues)) if spec.form == "finite"
               else _log_det(spec.a, spec.c))
    return _in_range(_safe_exp(log_det), "the determinant", spec)


def formal_euler_class(spec: SpectrumSpec) -> float:
    """Regularized product of the spectrum, ``zeta_det``.

    Pairing the formal integral over the base with this scalar is the
    identity: the product itself is the invariant.
    """
    return zeta_det(spec)


# -- formal pairings -------------------------------------------------------------


def _log_sums(eigenvalues: Sequence[float]) -> Tuple[float, float, float]:
    """(sum ln lambda, ln Xi_BE, ln Xi_FD), each by one fsum."""
    return (math.fsum(map(math.log, eigenvalues)),
            math.fsum(_KERNELS["BE"][0](eigenvalues)),
            math.fsum(_KERNELS["FD"][0](eigenvalues)))


def _pairing_value(log_sums: Tuple[float, float, float], kind: str, mode: str) -> float:
    """exp(p ln det - b ln Xi_BE + f ln Xi_FD); the small integer multiples
    are exact, so the exponent is rounded once."""
    _, root = _root_data(kind, mode)
    log_det, log_xi_be, log_xi_fd = log_sums
    return _safe_exp(math.fsum((root.power * log_det, -root.bose * log_xi_be,
                                root.fermi * log_xi_fd)))


def formal_pairing(spec: SpectrumSpec, kind: str, mode: str = "exact") -> float:
    """Product of the pairing's one-root density over a finite spectrum,
    exp(p sum ln lambda - b ln Xi_BE + f ln Xi_FD), whatever the order of
    the eigenvalues.  A normal value is within 2u (sum |ln lambda| +
    |b| ln Xi_BE + |f| ln Xi_FD + 2) relative, u = 2^-53; fb exact reads
    Infinity beyond float range.  Affine spectra would need each infinite
    factor regularized separately."""
    if spec.form != "finite":
        raise ValueError("formal pairings are defined for finite spectra")
    return _pairing_value(_log_sums(spec.eigenvalues), kind, mode)


class SpectralPairReport(Record):
    __slots__ = __match_args__ = ("spec", "chern_character", "log_xi_be", "log_xi_fd",
                                  "determinant", "euler_class", "pairings")

    def __init__(self, spec: SpectrumSpec, chern_character: float, log_xi_be: float,
                 log_xi_fd: float, determinant: float, euler_class: float,
                 pairings: Optional[Dict[str, Dict[str, float]]]):
        store(self, "spec", spec)
        store(self, "chern_character", chern_character)
        store(self, "log_xi_be", log_xi_be)
        store(self, "log_xi_fd", log_xi_fd)
        store(self, "determinant", determinant)
        store(self, "euler_class", euler_class)
        store(self, "pairings", pairings)

    def __hash__(self) -> int:  # through a frozen view of the dict of dicts
        pairings = None if self.pairings is None else frozenset(
            (kind, frozenset(modes.items())) for kind, modes in self.pairings.items())
        return hash(self._key(self)[:-1] + (pairings,))

    def to_json_dict(self) -> dict:
        return {
            "spectrum": self.spec.to_json_dict(),
            "chern_character": self.chern_character,
            "log_xi_be": self.log_xi_be,
            "log_xi_fd": self.log_xi_fd,
            "xi_be": _safe_exp(self.log_xi_be),
            "xi_fd": _safe_exp(self.log_xi_fd),
            "determinant": self.determinant,
            "euler_class": self.euler_class,
            "pairings": self.pairings,
        }


def build_spectral_report(spec: SpectrumSpec, tol: float = 1e-13) -> SpectralPairReport:
    """Everything the spectrum determines, in one report; a finite
    spectrum's three log sums are taken once, an affine spectrum's two ln Xi
    in one pass.  A printed value beyond float range raises OverflowError.
    ``tol`` is not used: it is kept so that existing callers still work."""
    pairings: Optional[Dict[str, Dict[str, float]]] = None
    if spec.form == "finite":
        log_det, log_xi_be, log_xi_fd = log_sums = _log_sums(spec.eigenvalues)
        determinant = _in_range(_safe_exp(log_det), "the determinant", spec)
        pairings = {
            kind: {mode: _pairing_value(log_sums, kind, mode) for mode in MODES}
            for kind in PAIRING_KINDS
        }
    else:
        log_xi_be, log_xi_fd = _affine_log_xis(spec.a, spec.c)
        _in_range(log_xi_be, "ln Xi_BE", spec)  # ln Xi_FD <= ln Xi_BE
        determinant = zeta_det(spec)
    return SpectralPairReport(
        spec=spec,
        chern_character=formal_chern_character(spec, tol),
        log_xi_be=log_xi_be,
        log_xi_fd=log_xi_fd,
        determinant=determinant,
        # the formal Euler class is the regularized product: the determinant
        euler_class=determinant,
        pairings=pairings,
    )
