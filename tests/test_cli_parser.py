"""One argparse tree per process: repeated ``main()`` calls must behave as
if each built its own parser.  Well-formed command lines take the fast
parser and build no tree at all; ``test_cli_fastparse.py`` checks that
path against argparse.

``golden_usage.json`` holds the exit code, stdout and stderr of ``--help``
and of argparse usage errors at an 80-column terminal, captured while
``main()`` still built the parser on every call.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from statindex import cli
from statindex.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_usage.json").read_text())


def _call(argv, parser=None):
    """(exit code, stdout, stderr) of one in-process call; with ``parser``,
    parse with that parser alone, as the usage cases never reach a handler."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv) if parser is None else parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, code, out, err", GOLDEN, ids=[" ".join(row[0]) or "<none>" for row in GOLDEN]
)
def test_help_and_usage_errors_are_unchanged(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert _call(argv) == (code, out, err)
    fresh = cli._build_parser.__wrapped__()
    assert _call(argv, fresh) == (code, out, err)


def test_json_then_text_leaks_no_state(tmp_path):
    text = _call(["index", "fb", "cp2"])
    assert text == (0, "1\n", "")
    as_json = _call(["--format", "json", "index", "fb", "cp2"])
    assert as_json[0] == 0 and json.loads(as_json[1])["index"] == "1"
    assert _call(["index", "fb", "cp2"]) == text
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "json"}))
    assert _call(["--config", str(config), "genus", "todd", "--manifold", "cp2"])[1].startswith("{")
    assert _call(["genus", "todd", "--manifold", "cp2"]) == (0, "1\n", "")
    # a subcommand's defaults come back after a call that set them
    assert _call(["index", "bf", "cp2", "--mode", "nondegenerate"]) == (0, "3\n", "")
    assert _call(["index", "bf", "cp2"]) == (0, "0\n", "")
    assert _call(["genus", "todd", "--degree", "1"]) == (0, "c1/2\n", "")
    assert _call(["genus", "todd", "--manifold", "cp1"]) == (0, "1\n", "")
    long_run = _call(["verify", "ff", "--l", "3"])
    assert "(l = 3, D = 10)" in long_run[1]
    assert "(l = 2, D = 8)" in _call(["verify", "ff"])[1]


def test_usage_errors_still_exit_2_between_calls():
    assert _call(["index", "ff", "cp1"]) == (0, "2\n", "")
    code, out, err = _call(["index", "zz", "cp1"])
    assert (code, out) == (2, "") and "invalid choice: 'zz'" in err
    assert _call(["index", "ff", "cp1"]) == (0, "2\n", "")
    code, _, err = _call(["genus", "todd", "--degree", "2", "--manifold", "cp2"])
    assert code == 2 and "not allowed with argument" in err
    code, _, err = _call(["genus", "todd"])
    assert code == 2 and "one of the arguments" in err


def test_parser_is_built_on_first_call_not_at_import():
    assert cli._build_parser() is cli._build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # well-formed calls take the fast path and build no parser; the first
    # declined call builds it, and later declined calls reuse it
    probe = """
import contextlib, io, sys
import statindex.cli as c
seen = ['argparse' in sys.modules]
for argv in (['genus', 'euler', '--manifold', 'cp1'], ['genus', 'todd', '--degree', '0'],
             ['--help'], ['index', 'zz', 'cp1'], ['genus', 'todd', '--degree=0']):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            c.main(argv)
    info = c._build_parser.cache_info()
    seen.append((info.currsize, info.misses))
print(seen)
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[False, (0, 0), (0, 0), (1, 1), (1, 1), (1, 1)]"
