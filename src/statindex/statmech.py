"""Grand canonical ensemble for finite-level non-interacting systems.

Everything here is plain binary64 arithmetic.  The canonical level
argument is x = beta * (epsilon - mu), which equals alpha + beta*epsilon
with alpha = -mu * beta; the sheaf-side convention uses x_sheaf =
epsilon - mu and the Chern root y = -beta * x_sheaf = -x.  Both views are
exposed explicitly (thermo_arguments / chern_roots) and never converted
silently.

Per-level values come from one pair of kernels per statistics, chosen
once per system, each a list comprehension over the level arguments: one
for ln Xi_level and one for the occupation n (MB's occupation is its
ln Xi_level, so one kernel serves both).  The scalar functions
``log_level_partition`` and ``occupation`` run the same kernels on a single
level, so a level's values do not depend on the route that asked for them.
Whether e^v is in float range is one comparison, v <= ``bundles._LOG_MAX``:
far above mu, where e^x is beyond it, n = e^{-x}/(1 -/+ e^{-x}) rounds to
e^{-x}, a subnormal number or 0, and a per-level Xi beyond it is reported as
Infinity.  Totals over many levels are accumulated in the log domain with
``math.fsum`` so that systems with thousands of levels do not overflow the
linear-domain product.

Nothing per level is held beyond the levels themselves.  The totals are
``math.fsum`` over the level tuple taken ``_CSV_CHUNK_ROWS`` levels at a
time: each slice's arguments and kernel values are made, fed to the sum
and dropped, and since ``fsum`` is correctly rounded the totals do not
depend on that slicing.  A report builds a per-level tuple (the arguments,
Xi or n) from its system only when that field is read; the CSV table and
the CLI's JSON rows are written from the same slices, one at a time.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ._record import Record, store
from .bundles import _LOG_MAX, DivergenceError, _safe_exp, fock_character_value

__all__ = [
    "ConvergenceError",
    "CorrespondenceReport",
    "EnsembleReport",
    "LevelSystem",
    "LevelTable",
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
    """A scalar field as a float; a JSON boolean or string is not a number here."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _to_floats(values, what: str) -> Tuple[float, ...]:
    """A list of numbers as floats, passed through when all are floats; a
    string, or a boolean or string item, is rejected rather than read."""
    if isinstance(values, str):
        raise ValueError(f"{what} must be a list of numbers, got the string {values!r}")
    try:
        items = tuple(values)
        kinds = set(map(type, items))
        if kinds <= {float}:
            return items
        if any(issubclass(kind, (bool, str)) for kind in kinds):
            idx = next(i for i, item in enumerate(items) if isinstance(item, (bool, str)))
            raise ValueError(f"{what} must be numbers; item {idx} is {items[idx]!r}")
        return tuple(map(float, items))
    except TypeError:
        raise ValueError(f"{what} must be a list of numbers") from None


_LN2 = math.log(2.0)
_BOSE_SUM_DIVERGES = "bosonic level sum diverges for x = {x} <= 0 (needs eps > mu)"

# a per-level kernel: the list of one value per level argument x
_Kernel = Callable[[Sequence[float]], List[float]]


def _be_logs(xs: Sequence[float]) -> List[float]:
    """-ln(1 - e^{-x}) for x > 0 by one rule (Maechler 2012): ln(-expm1(-x))
    for x <= ln 2, where 1 - e^{-x} would cancel, and log1p(-e^{-x}) above,
    where e^{-x} <= 1/2 is exact enough.  Relative error at most 3e-16 for
    x in (0, 708]; beyond that the value is subnormal and within 2.5e-324."""
    exp, expm1, log, log1p, ln2 = math.exp, math.expm1, math.log, math.log1p, _LN2
    return [-log(-expm1(-x)) if x <= ln2 else -log1p(-exp(-x)) for x in xs]


def _be_occupations(xs: Sequence[float]) -> List[float]:
    """1/(e^x - 1), or e^{-x} where e^x is beyond float range.  Within 3e-16
    relative for x in (0, 708.39], where n is normal, and 5e-324 beyond."""
    exp, expm1, log_max = math.exp, math.expm1, _LOG_MAX
    return [1.0 / expm1(x) if x <= log_max else exp(-x) for x in xs]


def _fd_logs(xs: Sequence[float]) -> List[float]:
    """ln(1 + e^{-x}), read as -x below -40, where log1p(e^x) < 5e-18 is
    below half an ulp.  Within 3e-16 relative for x <= 708.39, 5e-324 beyond."""
    exp, log1p = math.exp, math.log1p
    return [-x if x < -40.0 else log1p(exp(-x)) for x in xs]


def _fd_occupations(xs: Sequence[float]) -> List[float]:
    """1/(e^x + 1), or e^{-x} where e^x is beyond float range.  Within 3e-16
    relative for x <= 708.39, where n is normal, and 5e-324 beyond."""
    exp, log_max = math.exp, _LOG_MAX
    return [1.0 / (exp(x) + 1.0) if x <= log_max else exp(-x) for x in xs]


def _mb_logs(xs: Sequence[float]) -> List[float]:
    """The classical (Poisson) level sum exp(e^{-x}) has log e^{-x}, which is
    also the occupation."""
    exp = math.exp
    return [exp(-x) for x in xs]


# statistics -> (ln Xi_level kernel, occupation kernel)
_KERNELS: Dict[str, Tuple[_Kernel, _Kernel]] = {
    "BE": (_be_logs, _be_occupations),
    "FD": (_fd_logs, _fd_occupations),
    "MB": (_mb_logs, _mb_logs),
}


def level_partition(statistics: str, x: float) -> float:
    """Single-level grand partition function at argument x = beta*(eps - mu);
    Infinity where it is beyond binary64 range (FD with x < -709.78)."""
    if statistics == "BE":
        if x <= 0:
            raise ConvergenceError(_BOSE_SUM_DIVERGES.format(x=x))
        return 1.0 / (-math.expm1(-x))
    if statistics == "FD":
        return 1.0 + _safe_exp(-x)
    raise ValueError(f"level_partition is defined for BE and FD, got {statistics!r}")


def log_level_partition(statistics: str, x: float) -> float:
    """ln of the single-level partition function; MB uses the classical
    (Poisson) level sum exp(e^{-x}), whose log is simply e^{-x}."""
    _check_statistics(statistics)
    if statistics == "BE" and x <= 0:
        raise ConvergenceError(_BOSE_SUM_DIVERGES.format(x=x))
    (value,) = _KERNELS[statistics][0]((x,))
    return value


def occupation(statistics: str, x: float) -> float:
    """Mean occupation of a level: 1/(e^x - 1), 1/(e^x + 1) or e^{-x}.

    Far above mu, where e^x overflows, the quantum occupations are e^{-x}
    (a subnormal number, or 0.0).
    """
    _check_statistics(statistics)
    if statistics == "BE" and x <= 0:
        raise ConvergenceError(f"Bose-Einstein occupation diverges for x = {x} <= 0")
    (value,) = _KERNELS[statistics][1]((x,))
    return value


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


class LevelSystem(Record):
    """Finite list of single-particle levels in the grand canonical ensemble.

    Each level is one quantum state; degeneracy is expressed by repeating
    the entry.  beta is primary and temperature is derived as 1/(kB*beta).
    """

    __slots__ = __match_args__ = ("levels", "mu", "beta", "statistics", "kB")

    def __init__(self, levels: Tuple[float, ...], mu: float, beta: float, statistics: str,
                 kB: float = 1.0):
        levels = _to_floats(levels, "levels")
        _check_statistics(statistics)
        if not all(map(math.isfinite, levels)):
            idx = next(i for i, eps in enumerate(levels) if not math.isfinite(eps))
            raise ValueError(f"levels must be finite; level {idx} is {levels[idx]}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        for name, value in (("beta", beta), ("kB", kB)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # eps - mu is monotone in eps, so the lowest level decides
        if statistics == "BE" and levels and min(levels) - mu <= 0:
            idx, eps = next((i, eps) for i, eps in enumerate(levels) if eps - mu <= 0)
            raise ConvergenceError(
                f"level {idx} (eps = {eps}) does not satisfy eps > mu = {mu}; "
                "the bosonic occupation sum diverges"
            )
        store(self, "levels", levels)
        store(self, "mu", mu)
        store(self, "beta", beta)
        store(self, "statistics", statistics)
        store(self, "kB", kB)

    @property
    def temperature(self) -> float:
        """1/(kB*beta); Infinity where kB*beta underflows to 0."""
        kt = self.kB * self.beta
        return 1.0 / kt if kt else math.inf

    def thermo_arguments(self) -> Tuple[float, ...]:
        """x_i = alpha + beta*eps_i = beta*(eps_i - mu)."""
        beta, mu = self.beta, self.mu
        return tuple(beta * (eps - mu) for eps in self.levels)

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


# levels per slice: of the summed totals, of a CSV piece and of JSON rows
_CSV_CHUNK_ROWS = 1024


def _argument_slices(system: LevelSystem) -> Iterator[List[float]]:
    """The level arguments x = beta*(eps - mu), ``_CSV_CHUNK_ROWS`` levels
    at a time, each as ``thermo_arguments`` computes it."""
    levels, beta, mu = system.levels, system.beta, system.mu
    for start in range(0, len(levels), _CSV_CHUNK_ROWS):
        yield [beta * (eps - mu) for eps in levels[start:start + _CSV_CHUNK_ROWS]]


def _level_xis(logs: Sequence[float]) -> List[float]:
    """Xi_level = e^v of each ln Xi_level v; Infinity where that passes max float."""
    exp, inf, log_max = math.exp, math.inf, _LOG_MAX
    return [inf if v > log_max else exp(v) for v in logs]


def _fsum_slices(slices: Iterator[List[float]]) -> float:
    """``math.fsum`` of the values of every slice; a lone slice is summed
    as it is, without a chain over it."""
    first = next(slices, [])
    second = next(slices, None)
    if second is None:
        return math.fsum(first)
    return math.fsum(chain(first, second, chain.from_iterable(slices)))


def _bose_underflow(system: LevelSystem) -> ConvergenceError:
    """The error for a BE level whose argument is not positive.  Every level
    is above mu (``LevelSystem`` checks that), so beta*(eps - mu) has
    underflowed to 0."""
    beta, mu = system.beta, system.mu
    idx, eps = next((i, eps) for i, eps in enumerate(system.levels) if beta * (eps - mu) <= 0)
    return ConvergenceError(
        f"level {idx} (eps = {eps}) is above mu = {mu}, but x = beta*(eps - mu) "
        f"underflows to {beta * (eps - mu)} at beta = {beta}; the bosonic level sum needs x > 0"
    )


class LevelTable:
    """Per-level JSON records held as columns, not as dicts: ``keys`` in
    sorted order, ``count`` records, and ``slices()``, which yields the
    columns of ``_CSV_CHUNK_ROWS`` records at a time, one sequence of floats
    per key in key order.  The CLI writes it a slice at a time."""

    __slots__ = ("keys", "count", "slices")

    def __init__(self, keys: Tuple[str, ...], count: int,
                 slices: Callable[[], Iterator[Tuple[Sequence[float], ...]]]):
        self.keys = keys
        self.count = count
        self.slices = slices

    def records(self) -> List[dict]:
        """The records as a list of dicts, one per level."""
        keys = self.keys
        return [dict(zip(keys, row)) for columns in self.slices() for row in zip(*columns)]


class EnsembleReport(Record):
    """Per-level and total grand canonical quantities; ``arguments`` holds
    the level arguments x_i = beta*(eps_i - mu) they were computed from.

    A per-level field given as None (as ``grand_ensemble`` gives all three)
    is built from ``system`` when it is first read, and kept; reading one
    builds no other.  ``csv_chunks`` and the JSON rows take a slice of each
    column at a time, from its tuple where one is held and from ``system``
    otherwise, so they never hold a whole column.  Equality, hash, repr and
    pickling read the fields, as for any other record."""

    __match_args__ = ("system", "arguments", "per_level_xi", "per_level_occupation",
                      "log_xi", "xi", "omega", "mean_particle_number")
    __slots__ = ("system", "_arguments", "_per_level_xi", "_per_level_occupation",
                 "log_xi", "xi", "omega", "mean_particle_number")

    def __init__(self, system: LevelSystem, arguments: Optional[Tuple[float, ...]],
                 per_level_xi: Optional[Tuple[float, ...]],
                 per_level_occupation: Optional[Tuple[float, ...]],
                 log_xi: float, xi: float, omega: float, mean_particle_number: float):
        store(self, "system", system)
        store(self, "_arguments", arguments)
        store(self, "_per_level_xi", per_level_xi)
        store(self, "_per_level_occupation", per_level_occupation)
        store(self, "log_xi", log_xi)
        store(self, "xi", xi)
        store(self, "omega", omega)
        store(self, "mean_particle_number", mean_particle_number)

    @property
    def arguments(self) -> Tuple[float, ...]:
        """x_i = beta*(eps_i - mu) of each level."""
        if self._arguments is None:
            store(self, "_arguments", self.system.thermo_arguments())
        return self._arguments

    @property
    def per_level_xi(self) -> Tuple[float, ...]:
        """Xi_level = e^{ln Xi_level} of each level, Infinity where that
        passes max float."""
        if self._per_level_xi is None:
            log_kernel = _KERNELS[self.system.statistics][0]
            xis = (_level_xis(log_kernel(xs)) for xs in _argument_slices(self.system))
            store(self, "_per_level_xi", tuple(chain.from_iterable(xis)))
        return self._per_level_xi

    @property
    def per_level_occupation(self) -> Tuple[float, ...]:
        """Mean occupation n of each level."""
        if self._per_level_occupation is None:
            kernel = _KERNELS[self.system.statistics][1]
            ns = chain.from_iterable(map(kernel, _argument_slices(self.system)))
            store(self, "_per_level_occupation", tuple(ns))
        return self._per_level_occupation

    def _level_slices(self) -> Iterator[Tuple[int, Sequence[float], Sequence[float],
                                              Sequence[float], Sequence[float]]]:
        """(first level, eps, x, Xi, n) of ``_CSV_CHUNK_ROWS`` levels at a
        time: a slice of each held tuple, or else the kernels' values on the
        slice alone."""
        levels = self.system.levels
        log_kernel, occupation_kernel = _KERNELS[self.system.statistics]
        held_x, held_xi, held_n = self._arguments, self._per_level_xi, self._per_level_occupation
        for start, xs in zip(range(0, len(levels), _CSV_CHUNK_ROWS),
                             _argument_slices(self.system)):
            stop = start + _CSV_CHUNK_ROWS
            if held_x is not None:
                xs = held_x[start:stop]
            xis = _level_xis(log_kernel(xs)) if held_xi is None else held_xi[start:stop]
            ns = occupation_kernel(xs) if held_n is None else held_n[start:stop]
            yield start, levels[start:stop], xs, xis, ns

    def to_json_dict(self) -> dict:
        """The report as a JSON payload; ``per_level`` holds one
        ``{"epsilon", "occupation", "xi"}`` dict per level."""
        payload = self._json_payload()
        payload["per_level"] = payload["per_level"].records()
        return payload

    def _json_payload(self) -> dict:
        """``to_json_dict()`` with ``per_level`` as a ``LevelTable``."""
        return {
            "system": self.system.to_json_dict(),
            "per_level": LevelTable(
                ("epsilon", "occupation", "xi"), len(self.system.levels),
                lambda: ((eps, ns, xis) for _, eps, _, xis, ns in self._level_slices())),
            "log_xi": self.log_xi,
            "xi": self.xi,
            "omega": self.omega,
            "mean_particle_number": self.mean_particle_number,
            "temperature": self.system.temperature,
        }

    def csv_chunks(self) -> Iterator[str]:
        """The CSV table in pieces: the header line, then the lines of
        ``_CSV_CHUNK_ROWS`` levels at a time; floats with 17 significant
        digits."""
        yield "level,epsilon,x,xi,occupation\n"
        for start, levels, xs, xis, ns in self._level_slices():
            rows = zip(range(start, start + _CSV_CHUNK_ROWS), levels, xs, xis, ns)
            yield "".join(["%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows])

    def csv_text(self) -> str:
        """The CSV table, one line per level after the header: ``csv_chunks``
        joined."""
        return "".join(self.csv_chunks())

    def csv_rows(self) -> List[Tuple[str, ...]]:
        """The CSV table as rows of fields, header first."""
        return [tuple(line.split(",")) for line in self.csv_text().splitlines()]


def grand_ensemble(system: LevelSystem) -> EnsembleReport:
    """Ensemble totals in one pass over the levels per sum.

    ln Xi is the ``math.fsum`` of the log kernel and mean N that of the
    occupation kernel (for MB the same sum), each fed one slice of level
    arguments at a time, so the total Xi is accumulated in the log domain
    and no per-level array is kept; a total beyond float range raises
    OverflowError.  The report's per-level fields are built when first
    read.  Occupations far above mu underflow to e^{-x} instead of
    overflowing; see the module docstring.
    """
    log_kernel, occupation_kernel = _KERNELS[system.statistics]
    # a system of one slice makes it once, for both sums
    kept = list(_argument_slices(system)) if len(system.levels) <= _CSV_CHUNK_ROWS else None

    def values(kernel: _Kernel, bosons: bool = False) -> Iterator[List[float]]:
        for xs in _argument_slices(system) if kept is None else kept:
            if bosons and min(xs) <= 0:
                raise _bose_underflow(system)
            yield kernel(xs)

    try:
        log_xi = _fsum_slices(values(log_kernel, system.statistics == "BE"))
    except OverflowError:  # MB's e^{-x}, or the sum of finite logs, passes max float
        log_xi = math.inf
    if log_xi == math.inf:  # or a level's log is inf
        raise OverflowError("ln Xi is beyond float range")
    if occupation_kernel is log_kernel:  # MB: the occupations are the logs
        mean_n = log_xi
    else:
        mean_n = _fsum_slices(values(occupation_kernel))
    return EnsembleReport(
        system=system,
        arguments=None,
        per_level_xi=None,
        per_level_occupation=None,
        log_xi=log_xi,
        xi=_safe_exp(log_xi),
        omega=-log_xi / system.beta,
        mean_particle_number=mean_n,
    )


def bose_geometric_sum(
    y: float, tol: float = 1e-13, max_terms: int = 2_000_000
) -> Tuple[float, int, float]:
    """Occupation sum sum_{n>=0} e^{n y} for y < 0, truncated with a
    certified geometric tail bound.

    Returns (value, terms_used, tail_bound) with
    tail = e^{(N+1) y} / (1 - e^y) <= tol.

    The value is within u (2 / expm1(-y) + 2) relative of the exact sum of
    its terms_used terms e^{n y}, u = 2^-53: term n carries the n-th power
    of e^y's rounding and n rounded products, 2n u at most, the terms'
    mean n is at most 1/expm1(-y), and the compensated sum adds about one
    rounding.  Against 1/(1 - e^y) add tol, which bounds the dropped tail
    relative to it (both tested against mpmath for y in [-700, -3e-5]).
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
    # compensated summation (Fast2Sum: total >= term after the first step);
    # a plain running total drifts by about one rounding per term
    total = 0.0
    error = 0.0
    term = 1.0
    for n in range(max_terms):
        new = total + term
        error += term - (new - total)
        total = new
        term *= ratio
        tail = term / one_minus
        if tail <= tol:
            return total + error, n + 1, tail
    raise TailBoundError(
        f"tail bound {term / one_minus} still above tolerance {tol} after "
        f"{max_terms} terms (y = {y} too close to 0)"
    )


class CorrespondenceReport(Record):
    """Agreement between the ensemble Xi and the Fock-character routes."""

    __slots__ = __match_args__ = ("system", "character_values", "series_values",
                                  "ensemble_values", "max_relative_deviation", "tolerance", "ok")

    def __init__(self, system: LevelSystem, character_values: Tuple[float, ...],
                 series_values: Tuple[float, ...], ensemble_values: Tuple[float, ...],
                 max_relative_deviation: float, tolerance: float, ok: bool):
        store(self, "system", system)
        store(self, "character_values", character_values)
        store(self, "series_values", series_values)
        store(self, "ensemble_values", ensemble_values)
        store(self, "max_relative_deviation", max_relative_deviation)
        store(self, "tolerance", tolerance)
        store(self, "ok", ok)

    def to_json_dict(self) -> dict:
        """The report as a JSON payload; ``per_level`` holds one
        ``{"character", "ensemble", "series"}`` dict per level."""
        payload = self._json_payload()
        payload["per_level"] = payload["per_level"].records()
        return payload

    def _json_payload(self) -> dict:
        """``to_json_dict()`` with ``per_level`` as a ``LevelTable``."""
        chars, sums, ensembles = self.character_values, self.series_values, self.ensemble_values
        step = _CSV_CHUNK_ROWS
        return {
            "system": self.system.to_json_dict(),
            "per_level": LevelTable(
                ("character", "ensemble", "series"), len(chars),
                lambda: ((chars[i:i + step], ensembles[i:i + step], sums[i:i + step])
                         for i in range(0, len(chars), step))),
            "max_relative_deviation": self.max_relative_deviation,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def correspondence_check(
    system: LevelSystem, tol: float = 1e-12, ensemble: Optional[EnsembleReport] = None
) -> CorrespondenceReport:
    """Check Xi = (Fock character at the Chern roots), level by level.

    Three routes per level: the bundle-side character value at the root
    y = -beta*(eps - mu), the defining occupation sum (a certified truncated
    geometric series for bosons, the exact two-term sum for fermions), and
    the ensemble's closed-form level partition function.  ``ensemble`` is
    the ``grand_ensemble`` report of ``system``, built here when not given;
    its totals are reused.  A level whose values are
    beyond binary64 range (FD, x < -709.78) is reported as Infinity and
    compared through the logs of its values.
    """
    if system.statistics not in ("BE", "FD"):
        raise ValueError("the correspondence is defined for BE and FD statistics")
    if ensemble is None:
        ensemble = grand_ensemble(system)
    elif ensemble.system != system:
        raise ValueError("the ensemble report belongs to another level system")
    xs = system.thermo_arguments()
    roots = [-x for x in xs]
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
            sums.append(1.0 + _safe_exp(y))
        ensembles.append(level_partition(stat, x))
    worst = 0.0
    overflowed = []
    for i, (c, s, e) in enumerate(zip(characters, sums, ensembles)):
        scale = max(abs(c), abs(s), abs(e))
        if scale < math.inf:
            worst = max(worst, abs(c - s) / scale, abs(c - e) / scale, abs(s - e) / scale)
        else:
            overflowed.append(i)
    log_characters = list(map(math.log, characters))
    for i in overflowed:
        # only FD overflows: the character and the two-term sum are both
        # 1 + e^y, whose log is y + log1p(e^{-y}); the ensemble's is its kernel's
        y = roots[i]
        log_characters[i] = y + math.log1p(math.exp(-y))
        deviation = math.expm1(log_characters[i] - log_level_partition(stat, xs[i]))
        worst = max(worst, abs(deviation))
    log_character = math.fsum(log_characters)
    total_character = _safe_exp(log_character)
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
