"""Seeded request lists for the three workloads.

A request is a dict with the CLI ``argv`` and the parameters its checker
needs.  The seed chooses values (product splittings, bundle twists, output
formats, level energies, eigenvalues, affine laws) and the order of the
requests; the make-up of a pass (how many requests of each kind and size)
is fixed, so every seed asks for comparable work.  Input files are written
under ``input_dir`` and the program receives only those files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import exact

WORKLOADS = ("catalog-cli", "verify-dual-route", "thermo-spectral")
GENUS_KINDS = ("todd", "ahat", "bhat", "tdstar", "euler")
PAIRINGS = ("fb", "bb", "ff", "bf")


def build(workload: str, seed: int, input_dir: Path, size: str = "full") -> List[Dict]:
    rng = random.Random(f"{workload}:{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    tiny = size == "tiny"
    if workload == "catalog-cli":
        requests = _catalog(rng, tiny)
    elif workload == "verify-dual-route":
        requests = _verify(rng, tiny)
    else:
        requests = _thermo(rng, input_dir, tiny)
    rng.shuffle(requests)
    for index, request in enumerate(requests):
        request["id"] = index
    return requests


def _with_format(fmt: str, argv: List[str]) -> List[str]:
    return (["--format", fmt] if fmt != "text" else []) + argv


# -- catalog-cli ------------------------------------------------------------------

_SPLITS = {
    2: [(1, 1)],
    3: [(1, 2), (2, 1), (1, 1, 1)],
    4: [(1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1)],
    5: [(1, 4), (4, 1), (2, 3), (3, 2)],
    6: [(1, 5), (5, 1), (2, 4), (4, 2), (3, 3)],
}


def _manifolds(rng: random.Random, tiny: bool) -> List[List]:
    if tiny:
        return [[("cp", 1)], [("cp", 2)], [("cp", 3)], [("cp", 1), ("cp", 2)],
                [("cp", 1), ("torus", 1)]]
    # Every slot has a fixed complex dimension, which sets the cost of its
    # symmetric reductions; the seed only chooses how it splits into factors.
    out = [[("cp", n)] for n in range(1, 8)]
    for dim in (2, 3, 4, 5, 6, 6):
        out.append([("cp", n) for n in rng.choice(_SPLITS[dim])])
    out.append([("torus", 3)])
    cp_dim = rng.randint(1, 4)
    pair = [("cp", cp_dim), ("torus", 5 - cp_dim)]
    out.append(pair)
    out.append(pair[::-1])
    return out


def _catalog(rng: random.Random, tiny: bool) -> List[Dict]:
    requests = []

    def add(argv: List[str], check: str, expect: Fraction) -> None:
        fmt = rng.choice(("text", "json"))
        requests.append({"argv": _with_format(fmt, argv), "fmt": fmt,
                         "check": check, "expect": str(expect)})

    for factors in _manifolds(rng, tiny):
        name = "x".join(f"{kind}{n}" for kind, n in factors)
        chi = exact.euler_char(factors)
        add(["index", "fb", name], "index", exact.signature(factors))
        add(["index", "bb", name], "index", chi)
        add(["index", "ff", name], "index", chi)
        add(["index", "bf", name], "index", Fraction(0))
        add(["index", "fb", name, "--mode", "nondegenerate"], "index", chi)
        add(["index", "bf", name, "--mode", "nondegenerate"], "index", chi)
        cp_factors = [f for f in factors if f[0] == "cp"]
        if cp_factors:
            twists = [rng.randint(-3, 5) for _ in cp_factors]
            bundle = "O(" + ",".join(map(str, twists)) + ")"
            add(["index", "hrr", name, "--bundle", bundle], "index", exact.hrr(factors, twists))
        else:
            add(["index", "hrr", name], "index", exact.genus("todd", factors))
        for kind in GENUS_KINDS:
            add(["genus", kind, "--manifold", name], "genus", exact.genus(kind, factors))
    for kind in GENUS_KINDS:
        for degree in range(0, 4 if tiny else 8):
            split = rng.randint(1, degree - 1) if degree >= 2 else None
            requests.append({
                "argv": ["--format", "json", "genus", kind, "--degree", str(degree)],
                "fmt": "json",
                "check": "genus_degree",
                "kind": kind,
                "degree": degree,
                "split": split,
            })
    return requests


# -- verify-dual-route --------------------------------------------------------------


def _verify(rng: random.Random, tiny: bool) -> List[Dict]:
    requests = []
    for l in range(1, 3 if tiny else 6):
        for degree in (None, 2 * l + 6):
            for kind in PAIRINGS:
                fmt = rng.choice(("text", "json"))
                argv = ["verify", kind, "--l", str(l)]
                if degree is not None:
                    argv += ["--degree", str(degree)]
                requests.append({
                    "argv": _with_format(fmt, argv),
                    "fmt": fmt,
                    "check": "verify",
                    "kind": kind,
                    "l": l,
                    "truncation": 2 * l + 4 if degree is None else degree,
                })
    return requests


# density_series is compared with the univariate per-root product for l <= 3
# at the two truncations the workload uses.
DENSITY_CASES = [(kind, l, D) for kind in PAIRINGS for l in (1, 2, 3)
                 for D in (2 * l + 4, 2 * l + 6)]


# -- thermo-spectral ------------------------------------------------------------------

# Each known fault escapes main() as a traceback today.  Their inputs do not
# depend on the seed, and every pass runs each of them once.
FAULT_GRID = [0.1 + 9.9 * (i + 0.5) / 1000 for i in range(1000)]


def _write(input_dir: Path, name: str, payload: Dict) -> str:
    path = input_dir / name
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


def _levels(rng: random.Random, n: int, statistics: str, checked: bool) -> Dict:
    """Levels with x = beta (eps - mu) >= 0.25.  Systems that get
    --check-correspondence keep x >= 1, so ln Xi stays below 250 at 10^4
    levels: fault 1 (ln Xi > 709.78) then shows only in its own request,
    once per pass, whatever the seed."""
    low, beta_low = (1.0, 1.0) if checked else (0.5, 0.5)
    return {
        "levels": [rng.uniform(low, 20.0) for _ in range(n)],
        "mu": rng.uniform(-1.0, 0.0),
        "beta": rng.uniform(beta_low, 2.0),
        "statistics": statistics,
    }


def _eigenvalues(rng: random.Random) -> List[float]:
    return [rng.uniform(0.2, 4.0) for _ in range(40)]


def _thermo(rng: random.Random, input_dir: Path, tiny: bool) -> List[Dict]:
    requests = []

    def stats(n: int, statistics: str, fmt: str, check: bool) -> None:
        name = f"levels-{n}-{statistics}-{len(requests)}.json"
        path = _write(input_dir, name, _levels(rng, n, statistics, check))
        argv = ["stats", path] + (["--check-correspondence"] if check else [])
        requests.append({"argv": _with_format(fmt, argv), "fmt": fmt, "check": "stats",
                         "input": path, "correspondence": check})

    small, medium, large = (100, 1000, None) if tiny else (1000, 10_000, 100_000)
    for n in (small, medium):
        for statistics in ("BE", "FD", "MB"):
            for fmt in ("text", "json", "csv"):
                stats(n, statistics, fmt, False)
    for statistics in ("BE", "FD"):
        stats(small, statistics, "text", True)
        stats(small, statistics, "json", True)
        stats(medium, statistics, "text", True)
    if large:
        stats(large, "BE", "text", False)
        stats(large, "FD", "csv", False)
        stats(large, "MB", "text", False)

    for _ in range(6):
        eigs = _eigenvalues(rng)
        fmt = rng.choice(("text", "json"))
        requests.append({"argv": _with_format(fmt, ["zeta-det", "--finite", ",".join(map(repr, eigs))]),
                         "fmt": fmt, "check": "zeta_finite", "eigenvalues": eigs})
        path = _write(input_dir, f"spectrum-{len(requests)}.json",
                      {"form": "finite", "eigenvalues": eigs})
        fmt = rng.choice(("text", "json"))
        requests.append({"argv": _with_format(fmt, ["spectral", path]), "fmt": fmt,
                         "check": "spectral", "input": path})
    # Small a gives long tails (about 35/a terms).  Its ln Xi_BE ~ pi^2/(6a)
    # is beyond the float range of Xi, and the JSON report of such a spectrum
    # overflows in the program for some seeds only, so it is asked for in text.
    for low, high, fmts in 2 * ((0.002, 0.003, ("text",)), (0.05, 0.5, ("text", "json")),
                                (0.5, 3.0, ("text", "json"))):
        a, c = rng.uniform(low, high), rng.uniform(0.2, 3.0)
        fmt = rng.choice(("text", "json"))
        requests.append({"argv": _with_format(fmt, ["zeta-det", "--affine", repr(a), repr(c)]),
                         "fmt": fmt, "check": "zeta_affine", "a": a, "c": c})
        path = _write(input_dir, f"spectrum-{len(requests)}.json", {"form": "affine", "a": a, "c": c})
        fmt = rng.choice(fmts)
        requests.append({"argv": _with_format(fmt, ["spectral", path]), "fmt": fmt,
                         "check": "spectral", "input": path})

    overflow = _write(input_dir, "fault-overflow-levels.json",
                      {"levels": [-50.0] * 20, "mu": 0.0, "beta": 1.0, "statistics": "FD"})
    requests.append({"argv": ["stats", overflow, "--check-correspondence"], "fmt": "text",
                     "check": "stats", "input": overflow, "correspondence": True,
                     "fault": "correspondence_check overflows for ln Xi > 709.78"})
    requests.append({"argv": ["zeta-det", "--finite", ",".join(map(repr, FAULT_GRID))],
                     "fmt": "text", "check": "zeta_finite", "eigenvalues": FAULT_GRID,
                     "fault": "zeta_det overflows for a finite product above 1.8e308"})
    tiny_eig = _write(input_dir, "fault-subnormal-spectrum.json",
                      {"form": "finite", "eigenvalues": [1e-320]})
    requests.append({"argv": ["spectral", tiny_eig], "fmt": "text", "check": "spectral",
                     "input": tiny_eig,
                     "fault": "FactorExpression.evaluate divides by 1 - e^-x = 0"})
    return requests
