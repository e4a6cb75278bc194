"""Grand canonical ensemble for finite-level non-interacting systems.

Everything here is plain binary64 arithmetic.  The canonical level
argument is x = beta * (epsilon - mu), which equals alpha + beta*epsilon
with alpha = -mu * beta; the sheaf-side convention uses x_sheaf =
epsilon - mu and the Chern root y = -beta * x_sheaf = -x.  Both views are
exposed explicitly (thermo_arguments / chern_roots) and never converted
silently.

Totals over many levels are accumulated in the log domain so that systems
with thousands of levels do not overflow the linear-domain product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .bundles import DivergenceError, fock_character_value

__all__ = [
    "ConvergenceError",
    "CorrespondenceReport",
    "EnsembleReport",
    "LevelSystem",
    "STATISTICS",
    "TailBoundError",
    "bose_geometric_sum",
    "correspondence_check",
    "grand_ensemble",
    "level_partition",
    "log_level_partition",
    "occupation",
    "occupation_by_derivative",
]

STATISTICS = ("BE", "FD", "MB")


class ConvergenceError(ValueError):
    """Bose-Einstein occupations diverge when a level does not sit above mu."""


class TailBoundError(ArithmeticError):
    """A truncated series tail cannot be certified below the tolerance."""


def _check_statistics(statistics: str) -> None:
    if statistics not in STATISTICS:
        raise ValueError(f"unknown statistics {statistics!r}; expected one of {STATISTICS}")


def _require_keys(data, keys, what: str) -> None:
    """ValueError unless the decoded JSON ``data`` is an object holding every key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} lacks required key(s): {', '.join(missing)}")


def _to_float(value, what: str) -> float:
    try:
        return float(value)
    except TypeError:
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _to_floats(values, what: str) -> Tuple[float, ...]:
    """A list of numbers as floats; a string is rejected rather than read
    character by character."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a list of numbers, got the string {values!r}")
    try:
        return tuple(map(float, values))
    except TypeError:
        raise ValueError(f"{what} must be a list of numbers") from None


def level_partition(statistics: str, x: float) -> float:
    """Single-level grand partition function at argument x = beta*(eps - mu)."""
    if statistics == "BE":
        if x <= 0:
            raise ConvergenceError(
                f"bosonic level sum diverges for x = {x} <= 0 (needs eps > mu)"
            )
        return 1.0 / (-math.expm1(-x))
    if statistics == "FD":
        return 1.0 + math.exp(-x)
    raise ValueError(f"level_partition is defined for BE and FD, got {statistics!r}")


def log_level_partition(statistics: str, x: float) -> float:
    """ln of the single-level partition function; MB uses the classical
    (Poisson) level sum exp(e^{-x}), whose log is simply e^{-x}."""
    _check_statistics(statistics)
    if statistics == "BE":
        if x <= 0:
            raise ConvergenceError(
                f"bosonic level sum diverges for x = {x} <= 0 (needs eps > mu)"
            )
        return -math.log1p(-math.exp(-x))
    if statistics == "FD":
        if x < -40.0:
            # log(1 + e^{-x}) = -x + log(1 + e^{x}) and e^{x} < 5e-18 here
            return -x
        return math.log1p(math.exp(-x))
    return math.exp(-x)


def occupation(statistics: str, x: float) -> float:
    """Mean occupation of a level: 1/(e^x - 1), 1/(e^x + 1) or e^{-x}."""
    _check_statistics(statistics)
    if statistics == "BE":
        if x <= 0:
            raise ConvergenceError(
                f"Bose-Einstein occupation diverges for x = {x} <= 0"
            )
        return 1.0 / math.expm1(x)
    if statistics == "FD":
        return 1.0 / (math.exp(x) + 1.0)
    return math.exp(-x)


def occupation_by_derivative(statistics: str, x: float, h: float) -> float:
    """Occupation as the central difference of -d/dx ln Xi_level.

    Cross-validates the closed forms; converges at O(h^2).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if statistics == "BE" and x - h <= 0:
        raise ConvergenceError(f"x - h = {x - h} leaves the convergence region")
    plus = log_level_partition(statistics, x + h)
    minus = log_level_partition(statistics, x - h)
    return -(plus - minus) / (2.0 * h)


@dataclass(frozen=True)
class LevelSystem:
    """Finite list of single-particle levels in the grand canonical ensemble.

    Each level is one quantum state; degeneracy is expressed by repeating
    the entry.  beta is primary and temperature is derived as 1/(kB*beta).
    """

    levels: Tuple[float, ...]
    mu: float
    beta: float
    statistics: str
    kB: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "levels", _to_floats(self.levels, "levels"))
        _check_statistics(self.statistics)
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.kB <= 0:
            raise ValueError("kB must be positive")
        if self.statistics == "BE":
            for idx, eps in enumerate(self.levels):
                if eps - self.mu <= 0:
                    raise ConvergenceError(
                        f"level {idx} (eps = {eps}) does not satisfy eps > mu = {self.mu}; "
                        "the bosonic occupation sum diverges"
                    )

    @property
    def temperature(self) -> float:
        return 1.0 / (self.kB * self.beta)

    def thermo_arguments(self) -> Tuple[float, ...]:
        """x_i = alpha + beta*eps_i = beta*(eps_i - mu)."""
        return tuple(self.beta * (eps - self.mu) for eps in self.levels)

    def sheaf_arguments(self) -> Tuple[float, ...]:
        """x_i = eps_i - mu, the convention with beta kept outside."""
        return tuple(eps - self.mu for eps in self.levels)

    def chern_roots(self) -> Tuple[float, ...]:
        """Sheaf-side roots y_i = -beta*(eps_i - mu)."""
        return tuple(-x for x in self.thermo_arguments())

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "mu": self.mu,
            "beta": self.beta,
            "statistics": self.statistics,
            "kB": self.kB,
        }

    @classmethod
    def from_json_dict(cls, data) -> "LevelSystem":
        _require_keys(data, ("levels", "statistics"), "level system")
        return cls(
            levels=data["levels"],
            mu=_to_float(data.get("mu", 0.0), "mu"),
            beta=_to_float(data.get("beta", 1.0), "beta"),
            statistics=str(data["statistics"]),
            kB=_to_float(data.get("kB", 1.0), "kB"),
        )


@dataclass(frozen=True)
class EnsembleReport:
    """Per-level and total grand canonical quantities."""

    system: LevelSystem
    per_level_xi: Tuple[float, ...]
    per_level_occupation: Tuple[float, ...]
    log_xi: float
    xi: float
    omega: float
    mean_particle_number: float

    def to_json_dict(self) -> dict:
        return {
            "system": self.system.to_json_dict(),
            "per_level": [
                {"epsilon": eps, "xi": xi, "occupation": n}
                for eps, xi, n in zip(
                    self.system.levels, self.per_level_xi, self.per_level_occupation
                )
            ],
            "log_xi": self.log_xi,
            "xi": self.xi,
            "omega": self.omega,
            "mean_particle_number": self.mean_particle_number,
            "temperature": self.system.temperature,
        }

    def csv_rows(self) -> List[Tuple[str, ...]]:
        rows = [("level", "epsilon", "x", "xi", "occupation")]
        for idx, (eps, x, xi, n) in enumerate(
            zip(
                self.system.levels,
                self.system.thermo_arguments(),
                self.per_level_xi,
                self.per_level_occupation,
            )
        ):
            rows.append((str(idx), _fmt(eps), _fmt(x), _fmt(xi), _fmt(n)))
        return rows


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _safe_exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def grand_ensemble(system: LevelSystem) -> EnsembleReport:
    """Full ensemble report; the total Xi is accumulated in the log domain."""
    xs = system.thermo_arguments()
    stat = system.statistics
    per_xi = tuple(_safe_exp(log_level_partition(stat, x)) for x in xs)
    per_n = tuple(occupation(stat, x) for x in xs)
    log_xi = math.fsum(log_level_partition(stat, x) for x in xs)
    xi = _safe_exp(log_xi)
    omega = -log_xi / system.beta
    return EnsembleReport(
        system=system,
        per_level_xi=per_xi,
        per_level_occupation=per_n,
        log_xi=log_xi,
        xi=xi,
        omega=omega,
        mean_particle_number=math.fsum(per_n),
    )


def bose_geometric_sum(
    y: float, tol: float = 1e-13, max_terms: int = 2_000_000
) -> Tuple[float, int, float]:
    """Occupation sum sum_{n>=0} e^{n y} for y < 0, truncated with a
    certified geometric tail bound.

    Returns (value, terms_used, tail_bound) with
    tail = e^{(N+1) y} / (1 - e^y) <= tol.
    """
    if y >= 0:
        raise DivergenceError(f"geometric level sum needs y < 0, got {y}")
    ratio = math.exp(y)
    one_minus = -math.expm1(y)
    if tol > 0:
        # the tail after N terms is e^{N y}/(1 - e^y), so the loop needs
        # N = ln(tol (1 - e^y))/y terms; the margin covers its rounding
        needed = (math.log(tol) + math.log(one_minus)) / y
        if needed > 1.001 * max_terms + 1:
            raise TailBoundError(
                f"tail bound needs about {needed:.3g} terms to fall below "
                f"tolerance {tol}, more than {max_terms} "
                f"(y = {y} too close to 0)"
            )
    total = 0.0
    term = 1.0
    for n in range(max_terms):
        total += term
        term *= ratio
        tail = term / one_minus
        if tail <= tol:
            return total, n + 1, tail
    raise TailBoundError(
        f"tail bound {term / one_minus} still above tolerance {tol} after "
        f"{max_terms} terms (y = {y} too close to 0)"
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    """Agreement between the ensemble Xi and the Fock-character routes."""

    system: LevelSystem
    character_values: Tuple[float, ...]
    series_values: Tuple[float, ...]
    ensemble_values: Tuple[float, ...]
    max_relative_deviation: float
    tolerance: float
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "system": self.system.to_json_dict(),
            "per_level": [
                {"character": c, "series": s, "ensemble": e}
                for c, s, e in zip(
                    self.character_values, self.series_values, self.ensemble_values
                )
            ],
            "max_relative_deviation": self.max_relative_deviation,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def correspondence_check(
    system: LevelSystem, tol: float = 1e-12
) -> CorrespondenceReport:
    """Check Xi = (Fock character at the Chern roots), level by level.

    Three routes per level: the bundle-side character value at the root
    y = -beta*(eps - mu), the defining occupation sum (a certified truncated
    geometric series for bosons, the exact two-term sum for fermions), and
    the ensemble's closed-form level partition function.
    """
    if system.statistics not in ("BE", "FD"):
        raise ValueError("the correspondence is defined for BE and FD statistics")
    xs = system.thermo_arguments()
    roots = system.chern_roots()
    stat = system.statistics
    characters: List[float] = []
    sums: List[float] = []
    ensembles: List[float] = []
    for x, y in zip(xs, roots):
        characters.append(fock_character_value(stat, y))
        if stat == "BE":
            value, _, _ = bose_geometric_sum(y, tol=tol / 10.0)
            sums.append(value)
        else:
            sums.append(1.0 + math.exp(y))
        ensembles.append(level_partition(stat, x))
    worst = 0.0
    for c, s, e in zip(characters, sums, ensembles):
        scale = max(abs(c), abs(s), abs(e))
        worst = max(worst, abs(c - s) / scale, abs(c - e) / scale, abs(s - e) / scale)
    log_character = math.fsum(math.log(c) for c in characters)
    total_character = _safe_exp(log_character)
    ensemble = grand_ensemble(system)
    if total_character < math.inf and 0.0 < ensemble.xi < math.inf:
        worst = max(worst, abs(total_character - ensemble.xi) / abs(ensemble.xi))
    else:
        # a total beyond binary64 range is compared through its logarithm:
        # |Xi_char / Xi - 1| = |expm1(ln Xi_char - ln Xi)|
        worst = max(worst, abs(math.expm1(log_character - ensemble.log_xi)))
    return CorrespondenceReport(
        system=system,
        character_values=tuple(characters),
        series_values=tuple(sums),
        ensemble_values=tuple(ensembles),
        max_relative_deviation=worst,
        tolerance=tol,
        ok=worst <= tol,
    )
