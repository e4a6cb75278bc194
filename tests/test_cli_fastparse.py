"""The table-driven fast parser against argparse, its oracle.

``main()`` parses a well-formed command line without argparse and leaves
every other one to the argparse tree built from the same grammar.  Whenever
the fast parser returns a namespace, argparse must parse the same argv
without exiting and give equal ``vars()``, value for value and type for type; when it returns None, argparse
takes the call.  Tier-1 runs the default profile; the ``ci`` profile runs
ten times as many examples against whichever argparse is installed:

    python -m pytest -q tests/test_cli_fastparse.py --hypothesis-profile=ci
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from statindex import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given = hypothesis.example, hypothesis.given

HERE = Path(__file__).parent
GOLDEN_CLI = json.loads((HERE / "golden_cli.json").read_text())
GOLDEN_USAGE = json.loads((HERE / "golden_usage.json").read_text())

_OPTIONS = sorted({"--config", "--degree", "--format", "--tolerance", "--manifold", "--mode",
                   "--bundle", "--all", "--l", "--check-correspondence", "--finite",
                   "--affine", "--input"})
_SPECIAL = ["--deg", "--form", "--man", "--mo", "--b", "--al", "--check", "--fin", "--aff",
            "--inp", "--con", "--tol", "--degree=3", "--format=json", "--mode=exact",
            "--l=2", "--", "-h", "--help", "-", "-x", "---", "--frob"]
_VALUES = ["genus", "index", "verify", "stats", "zeta-det", "spectral", "frobnicate",
           "todd", "ahat", "bhat", "tdstar", "euler", "fb", "bb", "ff", "bf", "hrr", "zz",
           "text", "json", "csv", "yaml", "exact", "nondegenerate", "cp1", "cp2xtorus1",
           "O(1)", "O(1,2)", "cfg.json", "0", "3", "12", "1.5", "1e-9", "nan", "inf",
           "1,2,3", "-1", "-2.5", "-1e3", "x", "", " 1", "a b"]
TOKENS = _OPTIONS + _SPECIAL + _VALUES


def _reprs(namespace):
    """``repr`` of each value, so that nan equals nan and 1 differs from
    1.0 and True."""
    return {key: repr(value) for key, value in vars(namespace).items()}


def _argparse_reprs(argv):
    """``_reprs`` of argparse's namespace; fails the test if argparse exits."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return _reprs(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            pytest.fail(f"argparse exits {exc.code} on {argv!r} the fast parser accepts: "
                        f"{err.getvalue()}")


def _agrees(argv):
    """True when the fast parser accepts ``argv``, False when it declines;
    an accepted argv must read the same as through argparse."""
    fast = cli._fast_parse(argv)
    if fast is not None:
        assert _reprs(fast) == _argparse_reprs(argv), argv
    return fast is not None


def _one(tokens):
    return st.sampled_from(tokens).map(lambda token: [token])


_INT = st.sampled_from(["0", "3", "12", " 4", "1_0", "1.5", "x", "-1"])
_FLOAT = st.sampled_from(["1", "0.25", "2e18", "nan", "inf", "1e-9", "one", "-2.5"])
_FILE = st.sampled_from(["in.json", "cfg.json", "", "a b", "-x", "--"])
_GLOBAL = {"--config": [_FILE], "--degree": [_INT],
           "--format": [st.sampled_from(["text", "json", "csv", "yaml"])],
           "--tolerance": [_FLOAT]}
# per command: its positionals (each drawn as a list of 0 or 1 token), its
# other options and the members of its required group, each option with
# one strategy per value token
_SHAPES = {
    "genus": ([_one(["todd", "ahat", "euler", "zz"])], {},
              {"--degree": [_INT], "--manifold": [_FILE]}),
    "index": ([_one(["fb", "bf", "hrr", "zz"]), _one(["cp1", "cp2xtorus1"])],
              {"--mode": [st.sampled_from(["exact", "nondegenerate", "yaml"])],
               "--bundle": [st.sampled_from(["O(1)", "O(1,2)"])]}, {}),
    "verify": ([st.lists(st.sampled_from(["fb", "bb", "ff", "bf", "zz"]), max_size=1)],
               {"--all": [], "--l": [_INT], "--degree": [_INT]}, {}),
    "stats": ([_one(["in.json"])], {"--check-correspondence": []}, {}),
    "zeta-det": ([], {}, {"--finite": [st.sampled_from(["1,2,3", "4"])],
                          "--affine": [_FLOAT, _FLOAT], "--input": [_FILE]}),
    "spectral": ([_one(["in.json", ""])], {}, {}),
}


@st.composite
def _command_lines(draw):
    """A command line built to the grammar, then perhaps one slip: a token
    inserted, dropped or replaced, two tokens swapped, or the line cut
    short."""
    argv = []

    def options(table, names):
        for name in names:
            argv.append(name)
            argv.extend(draw(value) for value in table[name])

    options(_GLOBAL, draw(st.lists(st.sampled_from(sorted(_GLOBAL)), unique=True)))
    command = draw(st.sampled_from(sorted(_SHAPES)))
    positionals, free, group = _SHAPES[command]
    argv.append(command)
    for tokens in positionals:
        argv.extend(draw(tokens))
    table = {**free, **group}
    names = draw(st.lists(st.sampled_from(sorted(free)), unique=True)) if free else []
    if group:
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(sorted(group))))
    options(table, names)
    slip = draw(st.sampled_from(["none", "none", "insert", "drop", "replace", "swap", "cut"]))
    at, other = draw(st.integers(0, len(argv) - 1)), draw(st.integers(0, len(argv) - 1))
    if slip == "insert":
        argv.insert(at, draw(st.sampled_from(TOKENS)))
    elif slip == "drop":
        del argv[at]
    elif slip == "replace":
        argv[at] = draw(st.sampled_from(TOKENS))
    elif slip == "swap":
        argv[at], argv[other] = argv[other], argv[at]
    elif slip == "cut":
        del argv[at:]
    return argv


@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=10), _command_lines()))
@example(["verify", "--all"])
@example(["verify", "--all", "fb"])
@example(["zeta-det", "--affine", "1", "2"])
@example(["zeta-det", "--affine", "1", "-2"])
@example(["zeta-det", "--affine", "1"])
@example(["index", "fb", "cp1", "--bundle", "-x"])
@example(["--degree", "3", "genus", "todd", "--degree", "2"])
@example(["--config", "index", "index", "fb", "cp1"])
@example(["index", "fb", ""])
@example(["--tolerance", "nan", "stats", "in.json", "--check-correspondence"])
def test_fast_parser_agrees_with_argparse(argv):
    hypothesis.event("fast path" if _agrees(argv) else "declined")


def test_golden_command_lines_take_the_fast_path():
    assert len(GOLDEN_CLI) == 705
    assert [argv for argv, _ in GOLDEN_CLI if not _agrees(argv)] == []


def test_help_and_usage_errors_are_declined():
    assert [argv for argv, *_ in GOLDEN_USAGE if cli._fast_parse(argv) is not None] == []
