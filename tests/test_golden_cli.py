"""Byte-identical CLI output against a committed golden file.

``golden_cli.json`` holds the stdout of every case below.  The index, hrr
and genus groups were captured before the class-space multiplicative-sequence
route replaced symmetric reduction on the index and genus path; the verify
and spectral groups before every density came from one per-root lowering.
Spectral cases are keyed by a label from ``SPECTRA``; the spectrum is written
to a temporary file when the case runs.  Regenerate the file (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
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


def _stdout(argv):
    buffer = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        run_argv = list(argv)
        if "spectral" in run_argv:
            path = Path(tmp) / "spectrum.json"
            path.write_text(json.dumps(SPECTRA[run_argv[-1]]))
            run_argv[-1] = str(path)
        with contextlib.redirect_stdout(buffer):
            code = main(run_argv)
    assert code == 0, argv
    return buffer.getvalue()


@pytest.mark.parametrize(
    "group", ["index", "hrr", "genus-manifold", "genus-degree", "verify", "spectral"]
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
