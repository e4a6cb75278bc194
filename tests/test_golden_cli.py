"""Byte-identical CLI output against a committed golden file.

``golden_cli.json`` holds the stdout of every case below, captured before
the class-space multiplicative-sequence route replaced symmetric reduction
on the index and genus path.  Regenerate it (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from statindex.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

PAIRINGS = ("fb", "bb", "ff", "bf")
GENERA = ("todd", "ahat", "bhat", "tdstar", "euler")
MANIFOLDS = tuple(f"cp{n}" for n in range(1, 7)) + ("cp1xcp1", "cp2xcp3")
FORMATS = ((), ("--format", "json"))


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


def _stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0, argv
    return buffer.getvalue()


@pytest.mark.parametrize("group", ["index", "hrr", "genus-manifold", "genus-degree"])
def test_cli_output_matches_golden(group):
    golden = {" ".join(argv): out for argv, out in json.loads(GOLDEN.read_text())}
    argvs = [argv for case_group, argv in cases() if case_group == group]
    assert argvs
    for argv in argvs:
        assert _stdout(argv) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    rows = [[argv, _stdout(argv)] for _, argv in cases()]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
