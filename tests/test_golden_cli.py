"""Byte-identical CLI output against a committed golden file.

``golden_cli.json`` holds the stdout of every case below.  The index, hrr
and genus groups were captured before the class-space multiplicative-sequence
route replaced symmetric reduction on the index and genus path; the verify
and spectral groups before every density came from one per-root lowering.
The stats group was captured before the one-pass ensemble kernel and the
shared JSON writer, so it pins every per-level float and output byte; its
JSON ``be-seeded --check-correspondence`` row was captured again when the BE
series route gained compensated summation, which moved 7 ``series`` values
each closer to its exact partial sum.  The ``be-near-mu`` stats rows and the
``finite-spread`` spectral rows were captured again when the BE log kernel
took -ln(-expm1(-x)) for every x <= ln 2, which moved 13 values (the
levels at x = 1e-9 and 1e-4, the totals over them, and ln Xi_BE of the
eigenvalues 0.01 and 0.37), each closer to mpmath.  The four finite
spectral cases were captured again when every pairing value became exp of
one combination of sum ln lambda, ln Xi_BE and ln Xi_FD: 19 pairing values
moved in text and JSON, 4 of them closer to mpmath (finite-spread fb exact
5.7e-15 -> 1.1e-15, bf exact 1.1e-14 -> 1.4e-15) and 15 by 1-2 ulp, among
them the six values per spectrum that now equal its ``determinant`` line.
The index-wide group (tori, mixed products, cp8, cp10, cp4xcp4, every genus and
twisted hrr) was captured while every index still went through the class
polynomial, before the per-factor splitting route replaced it.  The
``zeta-det`` group (finite and affine) and the affine spectral grid, a in
{1e-3, 0.05, 0.3, 2, 5} by c in {0.2, 1, 10}, were captured while every
affine sum was still added term by term; they were captured again when the
closed forms replaced those sums, which moved 42 of the 48 chern
characters, ln Xi_BE and ln Xi_FD of the 16 affine spectral rows in text,
the same 42 in JSON and 23 of the JSON xi_be and xi_fd, each closer to
mpmath (affine-5.0-10.0 from 6.7e-3 to 1.2e-17 relative).  No determinant
and no zeta-det row moved.  Both groups were captured again when ln Gamma
became ``math.lgamma``: 85 values moved.  At c = 0.2 and 1 every moved
determinant and euler class went from 3.4e-15..5.1e-15 to within 6.5e-16
of mpmath, and ln Xi_BE and xi_be of three expansion rows (a = 0.05 and
0.3) moved closer too.  At c = 10 four determinants, with their euler
classes, moved farther by at most 3.6e-15 relative (affine-2.0-10.0 from
1.9e-17), and one moved closer.  Every moved value is within its stated
budget.
Spectral cases are keyed by a label from ``SPECTRA`` and stats cases by a
label from ``SYSTEMS``; the input is written to a temporary file when the case
runs.  Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from statindex.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

PAIRINGS = ("fb", "bb", "ff", "bf")
GENERA = ("todd", "ahat", "bhat", "tdstar", "euler")
MANIFOLDS = tuple(f"cp{n}" for n in range(1, 7)) + ("cp1xcp1", "cp2xcp3")
FORMATS = ((), ("--format", "json"))
SPECTRA = {
    "finite-123": {"form": "finite", "eigenvalues": [1.0, 2.0, 3.0]},
    "finite-single": {"form": "finite", "eigenvalues": [0.693]},
    "finite-graded": {"form": "finite", "eigenvalues": [0.25, 1.5, 4.0, 9.75],
                      "grading": True},
    "finite-spread": {"form": "finite", "eigenvalues": [0.01, 0.37, 2.2, 13.0, 41.5]},
    "affine-1-1": {"form": "affine", "a": 1.0, "c": 1.0},
}
SPECTRA.update({f"affine-{a!r}-{c!r}": {"form": "affine", "a": a, "c": c}
                for a in (1e-3, 0.05, 0.3, 2.0, 5.0) for c in (0.2, 1.0, 10.0)})
ZETA_DETS = (
    [["--finite", ",".join(map(repr, SPECTRA[label]["eigenvalues"]))]
     for label in ("finite-123", "finite-single", "finite-spread")]
    + [["--affine", repr(a), repr(c)] for a in (1e-3, 0.12, 1.0, 5.0) for c in (0.2, 1.0, 10.0)]
    + [["--affine", "1", "2e18"]]
)


def _seeded_levels(seed, low, high, n=40):
    rng = random.Random(seed)
    return [rng.uniform(low, high) for _ in range(n)]


SYSTEMS = {
    "be-seeded": {"levels": _seeded_levels(1, 0.3, 25.0), "mu": -0.4, "beta": 1.3,
                  "statistics": "BE"},
    "fd-seeded": {"levels": _seeded_levels(2, -30.0, 30.0), "mu": 0.7, "beta": 0.9,
                  "statistics": "FD"},
    "mb-seeded": {"levels": _seeded_levels(3, -5.0, 40.0), "mu": -1.1, "beta": 1.7,
                  "statistics": "MB", "kB": 8.617333262e-5},
    "be-near-mu": {"levels": [1e-9, 1e-4, 0.5, 2.0, 2.0, 700.0], "mu": 0.0, "beta": 1.0,
                   "statistics": "BE"},
    # levels at x < -709 overflow the per-level xi to Infinity
    "fd-deep": {"levels": [-800.0, -750.0, -40.5, -0.25, 0.0, 1.0, 39.0, 700.0],
                "mu": 0.0, "beta": 1.0, "statistics": "FD"},
}
CHECKED = ("be-seeded", "fd-seeded")
WIDE_MANIFOLDS = ("torus3", "cp2xtorus3", "torus2xcp3", "cp1xcp1xcp2", "cp8", "cp10",
                  "cp4xcp4")


def _wide_bundles(name):
    """Twists -3..5 on every cp generator of a product, one request per
    shift, so each generator meets every twist."""
    gens = sum(part.startswith("cp") for part in name.split("x"))
    if "x" not in name or not gens:
        return []
    return ["O(" + ",".join(str((k + i) % 9 - 3) for i in range(gens)) + ")"
            for k in range(9)]


def cases():
    """(group, argv) pairs in a fixed order."""
    for fmt in FORMATS:
        for kind in PAIRINGS:
            for mode in ("exact", "nondegenerate"):
                for name in MANIFOLDS:
                    yield "index", [*fmt, "index", kind, name, "--mode", mode]
        for name, bundle in (("cp1", "O(3)"), ("cp2", "O(-2)"), ("cp3", "O(2)"),
                             ("cp1xcp1", "O(1,2)"), ("cp4", None)):
            extra = ["--bundle", bundle] if bundle else []
            yield "hrr", [*fmt, "index", "hrr", name, *extra]
        for kind in GENERA:
            for name in MANIFOLDS:
                yield "genus-manifold", [*fmt, "genus", kind, "--manifold", name]
        for kind in GENERA:
            for degree in range(8):
                yield "genus-degree", [*fmt, "genus", kind, "--degree", str(degree)]
        for kind in PAIRINGS:
            for l in range(1, 4):
                yield "verify", [*fmt, "verify", kind, "--l", str(l)]
                yield "verify", [*fmt, "verify", kind, "--l", str(l),
                                 "--degree", str(2 * l + 6)]
        for label in SPECTRA:
            yield "spectral", [*fmt, "spectral", label]
        for args in ZETA_DETS:
            yield "zeta-det", [*fmt, "zeta-det", *args]
    for fmt in FORMATS:
        for name in WIDE_MANIFOLDS:
            for kind in PAIRINGS:
                for mode in ("exact", "nondegenerate"):
                    yield "index-wide", [*fmt, "index", kind, name, "--mode", mode]
            for kind in GENERA:
                yield "index-wide", [*fmt, "genus", kind, "--manifold", name]
            yield "index-wide", [*fmt, "index", "hrr", name]
            for bundle in _wide_bundles(name):
                yield "index-wide", [*fmt, "index", "hrr", name, "--bundle", bundle]
    for fmt in FORMATS + (("--format", "csv"),):
        for label in SYSTEMS:
            yield "stats", [*fmt, "stats", label]
    for fmt in FORMATS:
        for label in CHECKED:
            yield "stats", [*fmt, "stats", label, "--check-correspondence"]


def _stdout(argv):
    buffer = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        run_argv = list(argv)
        for command, inputs in (("spectral", SPECTRA), ("stats", SYSTEMS)):
            if command in run_argv:
                at = run_argv.index(command) + 1
                path = Path(tmp) / "input.json"
                path.write_text(json.dumps(inputs[run_argv[at]]))
                run_argv[at] = str(path)
        with contextlib.redirect_stdout(buffer):
            code = main(run_argv)
    assert code == 0, argv
    return buffer.getvalue()


@pytest.mark.parametrize(
    "group",
    ["index", "hrr", "genus-manifold", "genus-degree", "verify", "spectral", "zeta-det",
     "stats", "index-wide"],
)
def test_cli_output_matches_golden(group):
    golden = {" ".join(argv): out for argv, out in json.loads(GOLDEN.read_text())}
    argvs = [argv for case_group, argv in cases() if case_group == group]
    assert argvs
    for argv in argvs:
        assert _stdout(argv) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    rows = [[argv, _stdout(argv)] for _, argv in cases()]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
