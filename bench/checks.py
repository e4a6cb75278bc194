"""Verdicts on the outcome of one request, against the closed forms in exact.py.

An outcome is ``{"rc", "traceback", "stderr", "stdout"}``.  The verdict is

    ok     the answer is right, or a known-fault request now ends cleanly
           (exit 2 with an ``error:`` message and no traceback)
    error  no answer: a traceback escaped main(), or a nonzero exit
    wrong  an answer that disagrees with the closed form

Tolerances, relative to the expected value (with a 1e-300 absolute floor so
that subnormal results compare):

    REL_CLOSED   1e-12  the same closed form evaluated in another order
    REL_PRODUCT  1e-10  products and exponentials of sums over up to 10^5 terms
    REL_TAIL     1e-10  affine sums, plus TAIL_ABS = 1e-12 absolute: the CLI
                        truncates them once the tail is below its default
                        --tolerance of 1e-12
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence

import exact

REL_CLOSED = 1e-12
REL_PRODUCT = 1e-10
REL_TAIL = 1e-10
ABS_FLOOR = 1e-300
CLI_TOLERANCE = 1e-12  # the CLI default --tolerance
TAIL_ABS = CLI_TOLERANCE


class Mismatch(Exception):
    """The answer disagrees with the closed form."""


def verdict(request: Dict, outcome: Dict) -> str:
    if outcome["traceback"] is not None:
        return "error"
    rc = outcome["rc"]
    if rc == 2 and request.get("fault") and outcome["stderr"].startswith("error:"):
        return "ok"
    if rc != 0 or outcome["stderr"]:
        return "error"
    try:
        _CHECKS[request["check"]](request, outcome["stdout"])
    except (Mismatch, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
        return "wrong"
    return "ok"


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def _close(got: float, want: float, rel: float, what: str, abs_tol: float = ABS_FLOOR) -> None:
    if got == want:
        return
    _require(abs(got - want) <= rel * abs(want) + abs_tol, f"{what}: {got!r} != {want!r}")


def _text_fields(stdout: str) -> Dict[str, str]:
    """``label   value`` lines of the text reports, keyed by label."""
    fields = {}
    for line in stdout.splitlines():
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            fields[parts[0]] = parts[1]
    return fields


# -- symbolic requests ---------------------------------------------------------------


def _check_index(request: Dict, stdout: str) -> None:
    text = json.loads(stdout)["index"] if request["fmt"] == "json" else stdout.strip()
    _require(Fraction(text) == Fraction(request["expect"]), "index value")


def _check_genus(request: Dict, stdout: str) -> None:
    text = json.loads(stdout)["value"] if request["fmt"] == "json" else stdout.strip()
    _require(Fraction(text) == Fraction(request["expect"]), "genus value")


def _check_genus_degree(request: Dict, stdout: str) -> None:
    poly = json.loads(stdout)
    kind, d = request["kind"], request["degree"]
    _require(poly["basis"] == ("pontryagin" if kind == "ahat" else "chern"), "basis")
    splits = [(d, 0)] + ([(request["split"], d - request["split"])] if request["split"] else [])
    for a, b in splits:
        got = exact.evaluate_class_polynomial(poly, a, b)
        _require(got == exact.degree_polynomial_value(kind, a, b), f"value on CP^{a} x CP^{b}")


def _check_verify(request: Dict, stdout: str) -> None:
    kind, l, truncation = request["kind"], request["l"], request["truncation"]
    if request["fmt"] == "json":
        (report,) = json.loads(stdout)
        _require(report["pairing"] == kind and report["roots"] == l, "report identity")
        _require(report["truncation"] == truncation, "truncation")
        _require(report["ok"] is True and report["first_mismatch"] is None, "verify ok")
        _require(report["literal_ok"] is not False, "literal check")
        return
    _require(f"(l = {l}, D = {truncation})" in stdout.splitlines()[0], "header")
    rows = re.findall(rf"^\s*{kind}\s+dual-route\s+(\w+)$", stdout, flags=re.M)
    _require(rows == ["PASS"], "dual-route row")


# -- float requests -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check_stats(request: Dict, stdout: str) -> None:
    system = _load(request["input"])
    stat, beta, mu = system["statistics"], system["beta"], system["mu"]
    levels = system["levels"]
    xs = [beta * (eps - mu) for eps in levels]
    terms = [exact.level_terms(stat, x) for x in xs]
    log_xi = math.fsum(t[0] for t in terms)
    mean_n = math.fsum(t[2] for t in terms)
    if request["fmt"] == "text":
        fields = _text_fields(stdout)
        _require(fields["statistics"] == stat and int(fields["levels"]) == len(levels), "header")
        _close(float(fields["ln Xi"]), log_xi, REL_CLOSED, "ln Xi")
        _close(float(fields["Xi"]), exact.safe_exp(log_xi), REL_PRODUCT, "Xi")
        _close(float(fields["Omega"]), -log_xi / beta, REL_CLOSED, "Omega")
        _close(float(fields["mean N"]), mean_n, REL_CLOSED, "mean N")
        if request["correspondence"]:
            _require(fields["correspondence"].startswith("PASS "), "correspondence")
        return
    if request["fmt"] == "csv":
        rows = list(csv.reader(stdout.splitlines()))
        _require(rows[0] == ["level", "epsilon", "x", "xi", "occupation"], "csv header")
        _require(len(rows) == len(levels) + 1, "csv row count")
        for idx, (row, eps, x, (_, xi, occ)) in enumerate(zip(rows[1:], levels, xs, terms)):
            _require(int(row[0]) == idx and float(row[1]) == eps, "csv level")
            _close(float(row[2]), x, REL_CLOSED, "csv x")
            _close(float(row[3]), xi, REL_CLOSED, "csv xi")
            _close(float(row[4]), occ, REL_CLOSED, "csv occupation")
        return
    payload = json.loads(stdout)
    _close(payload["log_xi"], log_xi, REL_CLOSED, "log_xi")
    _close(payload["xi"], exact.safe_exp(log_xi), REL_PRODUCT, "xi")
    _close(payload["omega"], -log_xi / beta, REL_CLOSED, "omega")
    _close(payload["mean_particle_number"], mean_n, REL_CLOSED, "mean N")
    _close(payload["temperature"], 1.0 / beta, REL_CLOSED, "temperature")
    per_level = payload["per_level"]
    _require(len(per_level) == len(levels), "per_level count")
    for item, eps, (_, xi, occ) in zip(per_level, levels, terms):
        _require(item["epsilon"] == eps, "per_level epsilon")
        _close(item["xi"], xi, REL_CLOSED, "per_level xi")
        _close(item["occupation"], occ, REL_CLOSED, "per_level occupation")
    if request["correspondence"]:
        check = payload["correspondence"]
        _require(check["ok"] is True, "correspondence ok")
        _require(check["max_relative_deviation"] <= CLI_TOLERANCE, "correspondence deviation")


def _product(eigenvalues: Sequence[float]) -> float:
    return exact.safe_exp(math.fsum(math.log(lam) for lam in eigenvalues))


def _number(request: Dict, stdout: str, key: str) -> float:
    return float(json.loads(stdout)[key]) if request["fmt"] == "json" else float(stdout)


def _check_zeta_finite(request: Dict, stdout: str) -> None:
    _close(_number(request, stdout, "determinant"), _product(request["eigenvalues"]),
           REL_PRODUCT, "determinant")


def _check_zeta_affine(request: Dict, stdout: str) -> None:
    _close(_number(request, stdout, "determinant"),
           exact.affine_determinant(request["a"], request["c"]), REL_PRODUCT, "determinant")


def _spectral_expected(spec: Dict) -> Dict:
    if spec["form"] == "affine":
        a, c = spec["a"], spec["c"]
        det = exact.affine_determinant(a, c)
        return {
            "chern_character": math.exp(-a * c) / -math.expm1(-a),
            "log_xi_be": exact.affine_log_xi("BE", a, c),
            "log_xi_fd": exact.affine_log_xi("FD", a, c),
            "determinant": det,
            "euler_class": det,
            "pairings": None,
        }
    eigs: List[float] = spec["eigenvalues"]
    det = _product(eigs)
    return {
        "chern_character": math.fsum(math.exp(-lam) for lam in eigs),
        "log_xi_be": math.fsum(exact.be_log_term(lam) for lam in eigs),
        "log_xi_fd": math.fsum(math.log1p(math.exp(-lam)) for lam in eigs),
        "determinant": det,
        "euler_class": det,
        "pairings": {
            kind: {mode: math.prod(exact.spectral_pairing(kind, lam, mode == "nondegenerate")
                                   for lam in eigs)
                   for mode in ("exact", "nondegenerate")}
            for kind in ("fb", "bb", "ff", "bf")
        },
    }


_SPECTRAL_TEXT = {
    "chern character": "chern_character",
    "ln Xi_BE": "log_xi_be",
    "ln Xi_FD": "log_xi_fd",
    "determinant": "determinant",
    "euler class": "euler_class",
}


def _check_spectral(request: Dict, stdout: str) -> None:
    spec = _load(request["input"])
    want = _spectral_expected(spec)
    if request["fmt"] == "json":
        got = json.loads(stdout)
        _close(got["xi_be"], exact.safe_exp(want["log_xi_be"]), REL_PRODUCT, "xi_be")
        _close(got["xi_fd"], exact.safe_exp(want["log_xi_fd"]), REL_PRODUCT, "xi_fd")
        pairings = got["pairings"]
    else:
        fields = _text_fields(stdout)
        _require(fields["spectrum"] == spec["form"], "spectrum form")
        got = {key: float(fields[label]) for label, key in _SPECTRAL_TEXT.items()}
        pairings = None
        rows = re.findall(r"^pairing (\w+)\s+exact (\S+)\s+nondegenerate (\S+)$", stdout, flags=re.M)
        if rows:
            pairings = {kind: {"exact": float(e), "nondegenerate": float(n)} for kind, e, n in rows}
    for key in _SPECTRAL_TEXT.values():
        _close(got[key], want[key], REL_TAIL, key, TAIL_ABS)
    if want["pairings"] is None:
        _require(pairings is None, "pairings of an affine spectrum")
        return
    _require(set(pairings) == set(want["pairings"]), "pairing kinds")
    for kind, modes in want["pairings"].items():
        for mode, value in modes.items():
            _close(pairings[kind][mode], value, REL_PRODUCT, f"pairing {kind} {mode}")


_CHECKS = {
    "index": _check_index,
    "genus": _check_genus,
    "genus_degree": _check_genus_degree,
    "verify": _check_verify,
    "stats": _check_stats,
    "zeta_finite": _check_zeta_finite,
    "zeta_affine": _check_zeta_affine,
    "spectral": _check_spectral,
}


def density_mismatches(density_series, cases) -> List[str]:
    """Compare the library's density_series with the univariate per-root
    product for each (kind, l, D); returns the failing cases."""
    failures = []
    for kind, l, D in cases:
        series = density_series(kind, l, "exact", D)
        got = {tuple(e): Fraction(c) for e, c in series.terms.items() if c}
        if got != exact.density_terms(kind, l, D):
            failures.append(f"density_series({kind!r}, {l}, 'exact', {D})")
    return failures
