"""The CLI's exit-code contract under generated requests.

Every request to ``statindex.cli.main`` exits 0, 1 or 2, and no exception
escapes it (a usage error leaves through argparse's ``SystemExit(2)``).
Exit 1 comes only from a ``verify`` or ``stats --check-correspondence``
request whose output reports the failed check.  Requests with an answer in
float range must exit 0: a log-balanced finite spectrum (eigenvalues
e^{t_i - mean t}, whose product is near 1) and BE levels at x down to
1e-300.  Every float of an exit-0 JSON answer is finite, except in the
fields that the README lists as possibly Infinity, and a finite spectrum's
``spectral`` answer does not depend on the order of its eigenvalues.  Every
affine spectrum a, c > 0 answers, unless a printed value passes max float.
A spectrum request exits with the same code in text and JSON, and every
number both formats print is the same float; so does a stats request in
text, JSON and CSV.
Tier-1 runs the default profile's few seconds of examples; the ``ci``
profile runs ten times as many:

    python -m pytest -q tests/test_cli_fuzz.py --hypothesis-profile=ci
"""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest

from statindex.cli import main
from test_spectral import _log_balanced

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given = hypothesis.example, hypothesis.given

PAIRINGS = ("fb", "bb", "ff", "bf")
GENERA = ("todd", "ahat", "bhat", "tdstar", "euler")

# the fields of an exit-0 JSON answer that may be Infinity (and only those;
# none may be NaN), as the README lists them; a list index reads as "[]"
_MAY_BE_INFINITE = {
    # stats: values beyond float range, and -ln Xi / beta or 1/(kB beta) for a tiny beta
    ("per_level", "[]", "xi"), ("per_level", "[]", "occupation"), ("xi",), ("omega",),
    ("mean_particle_number",), ("temperature",),
    ("correspondence", "per_level", "[]", "character"),
    ("correspondence", "per_level", "[]", "series"),
    ("correspondence", "per_level", "[]", "ensemble"),
    # spectral: Xi beyond float range, and fb exact = det Xi_BE Xi_FD; the
    # other pairing values are at most the determinant, which exits 2 when
    # it overflows
    ("xi_be",), ("xi_fd",), ("pairings", "fb", "exact"),
}


def _non_finite_fields(value, path=()):
    """(path, value) of every float of a decoded JSON answer that is not finite."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_fields(item, path + (key,))
    elif isinstance(value, list):
        for item in value:
            yield from _non_finite_fields(item, path + ("[]",))
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, value


def _run(argv, files=()):
    """(exit code, stdout) of one request; ``files`` maps a placeholder
    argument to the text written to a temporary file in its place."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        for name, text in files:
            path = Path(tmp) / f"{name}.json"
            path.write_text(text)
            argv = [str(path) if arg == name else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
    assert "Traceback" not in err.getvalue(), argv
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
    if code == 1:
        failed = "FAIL" in out.getvalue() or '"ok": false' in out.getvalue()
        assert failed and ("verify" in argv or "--check-correspondence" in argv), argv
    if code == 0 and out.getvalue().startswith(("{", "[")):
        for path, value in _non_finite_fields(json.loads(out.getvalue())):
            assert path in _MAY_BE_INFINITE and value == value, (argv, path, value)
    return code, out.getvalue()


# -- values ----------------------------------------------------------------------

_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400), _floats,
    st.sampled_from((5e-324, 1e-300, 1e-17, -0.0, 709.8, 745.2, 1e308)), st.text(max_size=6),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)
_number_lists = st.one_of(st.lists(_floats, max_size=6), st.lists(_json_values, max_size=4))


_stats_inputs = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {"levels": _number_lists, "statistics": st.sampled_from(("BE", "FD", "MB", "XY"))},
        optional={"mu": _json_values, "beta": _json_values, "kB": _json_values},
    ),
)
_spectra = st.one_of(
    _json_values,
    st.fixed_dictionaries({"form": st.just("finite"), "eigenvalues": _number_lists},
                          optional={"grading": _json_values}),
    st.fixed_dictionaries({"form": st.just("affine"), "a": _json_values, "c": _json_values},
                          optional={"grading": _json_values}),
)
_globals = st.lists(
    st.one_of(
        st.tuples(st.just("--format"), st.sampled_from(("text", "json", "csv", "xml"))),
        st.tuples(st.just("--degree"), st.integers(-2, 12).map(str)),
        st.tuples(st.just("--tolerance"),
                  st.sampled_from(("1e-12", "1e-3", "5e-324", "0", "-1", "nan", "inf", "x"))),
    ),
    max_size=2,
).map(lambda pairs: [arg for pair in pairs for arg in pair])


# -- requests --------------------------------------------------------------------

_manifolds = st.lists(
    st.one_of(st.integers(0, 8).map(lambda n: f"cp{n}"),
              st.integers(0, 3).map(lambda n: f"torus{n}"),
              st.sampled_from(("", "cp", "s2", "cp-1"))),
    min_size=1, max_size=3,
).map("x".join)
_bundles = st.lists(st.integers(-4, 4).map(str) | st.sampled_from(("1/2", "1.5", "a", "")),
                    max_size=3).map(lambda ks: "O(" + ",".join(ks) + ")")


@st.composite
def _symbolic(draw):
    command = draw(st.sampled_from(("genus-degree", "genus-manifold", "index", "verify")))
    if command == "genus-degree":
        return ["genus", draw(st.sampled_from(GENERA)), "--degree",
                str(draw(st.integers(-1, 10)))]
    if command == "genus-manifold":
        return ["genus", draw(st.sampled_from(GENERA)), "--manifold", draw(_manifolds)]
    if command == "index":
        kind = draw(st.sampled_from(PAIRINGS + ("hrr",)))
        argv = ["index", kind, draw(_manifolds)]
        if kind == "hrr" and draw(st.booleans()):
            argv += ["--bundle", draw(_bundles | st.sampled_from(("O", "trivial", "O(")))]
        elif draw(st.booleans()):
            argv += ["--mode", draw(st.sampled_from(("exact", "nondegenerate")))]
        return argv
    argv = ["verify", *draw(st.sampled_from([[kind] for kind in PAIRINGS] + [["--all"]])),
            "--l", str(draw(st.integers(-1, 6)))]
    if draw(st.booleans()):
        argv += ["--degree", str(draw(st.integers(-1, 16)))]
    return argv


@given(_globals, _symbolic())
def test_symbolic_requests_keep_the_exit_contract(options, argv):
    _run(options + argv)


@given(_globals, _stats_inputs, st.booleans())
def test_stats_inputs_keep_the_exit_contract(options, payload, check):
    argv = options + ["stats", "input"] + (["--check-correspondence"] if check else [])
    _run(argv, [("input", json.dumps(payload))])


@given(_globals, _spectra, st.sampled_from((["spectral"], ["zeta-det", "--input"])))
def test_spectrum_inputs_keep_the_exit_contract(options, payload, command):
    _run(options + command + ["input"], [("input", json.dumps(payload))])


@given(st.lists(st.one_of(_floats.map(repr), st.sampled_from(("", " ", "1e400", "x"))),
                min_size=1, max_size=5),
       st.tuples(_floats, _floats))
def test_zeta_det_arguments_keep_the_exit_contract(finite, affine):
    _run(["zeta-det", "--finite", ",".join(finite)])
    _run(["zeta-det", "--affine", *map(repr, affine)])


@given(_json_values)
def test_config_files_keep_the_exit_contract(config):
    argv = ["--config", "config", "genus", "todd", "--degree", "3"]
    _run(argv, [("config", json.dumps(config))])


# sizes 1..2e4, spread evenly over the decades
_sizes = st.integers(0, 43).map(lambda k: round(10 ** (k / 10)))


# a spectrum whose every eigenvalue and product are in range was once
# refused with "internal check failed"; seed 16 was such a spectrum
@example(seed=16, n=10_000, spread=3.0, command=["zeta-det", "--input"], fmt="text")
@given(st.integers(0, 2**32), _sizes, st.sampled_from((3.0, 30.0)),
       st.sampled_from((["zeta-det", "--input"], ["spectral"])), st.sampled_from(("text", "json")))
def test_log_balanced_spectrum_exits_0(seed, n, spread, command, fmt):
    spectrum = {"form": "finite", "eigenvalues": _log_balanced(seed, n, spread)}
    code, out = _run(["--format", fmt, *command, "input"], [("input", json.dumps(spectrum))])
    assert code == 0, (seed, n, spread)
    if fmt == "json":
        assert 0.0 < json.loads(out)["determinant"] < math.inf


@given(st.lists(st.floats(-300.0, math.log10(700.0)).map(lambda k: 10.0 ** k),
                min_size=1, max_size=50),
       st.sampled_from(("text", "json", "csv")))
def test_be_levels_above_mu_exit_0(xs, fmt):
    system = {"levels": xs, "mu": 0.0, "beta": 1.0, "statistics": "BE"}
    code, _ = _run(["--format", fmt, "stats", "input"], [("input", json.dumps(system))])
    assert code == 0, xs


def _levels(levels, statistics, beta=1.0):
    return {"levels": levels, "mu": 0.0, "beta": beta, "statistics": statistics}


# 25 eigenvalues of 1e16 and 25 of 1e-16: the determinant is 1, while a
# product taken factor by factor overflows or underflows, by the order
_ORDER_SENSITIVE = [1e16] * 25 + [1e-16] * 25
_eigenvalue = st.floats(-320.0, 20.0).map(lambda k: 10.0 ** k)


@example(eigenvalues=_ORDER_SENSITIVE, seed=0)
@example(eigenvalues=_ORDER_SENSITIVE[::-1], seed=0)
@given(st.lists(_eigenvalue, min_size=1, max_size=40), st.integers(0, 2**32))
def test_spectral_output_does_not_depend_on_eigenvalue_order(eigenvalues, seed):
    # text stdout is byte-identical; JSON also echoes the eigenvalue list,
    # so every other field's bytes are compared
    shuffled = list(eigenvalues)
    random.Random(seed).shuffle(shuffled)
    for fmt in ("text", "json"):
        outputs = set()
        for order in (eigenvalues, eigenvalues[::-1], shuffled):
            spectrum = {"form": "finite", "eigenvalues": order}
            code, out = _run(["--format", fmt, "spectral", "input"],
                             [("input", json.dumps(spectrum))])
            if code == 0 and fmt == "json":
                report = json.loads(out)
                assert report.pop("spectrum")["eigenvalues"] == order
                out = json.dumps(report, sort_keys=True)
            outputs.add((code, out))
        assert len(outputs) == 1, (eigenvalues, seed, fmt)


# one request for each way a listed field reaches Infinity
_INFINITE_REQUESTS = [
    (["stats", "input"], _levels([1e-310, 1.0], "BE")),
    (["stats", "input"], _levels([1.0], "FD", beta=1e-310)),
    (["stats", "input", "--check-correspondence"], _levels([-800.0, 1.0], "FD")),
    (["spectral", "input"], {"form": "finite", "eigenvalues": [1e16] * 25 + [1e-16] * 25}),
    (["spectral", "input"], {"form": "affine", "a": 0.001, "c": 2.0}),
]


def test_every_listed_field_can_be_infinite():
    seen = set()
    for argv, payload in _INFINITE_REQUESTS:
        code, out = _run(["--format", "json", *argv], [("input", json.dumps(payload))])
        assert code == 0, argv
        seen |= {path for path, _ in _non_finite_fields(json.loads(out))}
    assert seen == _MAY_BE_INFINITE


_positive = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(-323.3, 308.25).map(lambda k: 10.0 ** k),
)


def _affine_determinant_overflows(a, c):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        log_det = ((mpmath.mpf(1) / 2 - c) * mpmath.log(a) - mpmath.loggamma(c)
                   + mpmath.log(2 * mpmath.pi) / 2)
    return log_det > math.log(sys.float_info.max) - 1e-9


# a = 5e-324: ln Xi_BE passes max float; 1e-280, 1e308: det' = 0, once
# refused; 2e-5 and 1e-6: once past the term-by-term tail's limit
@example(a=5e-324, c=5e-13)
@example(a=1e-280, c=1e308)
@example(a=2e-5, c=1.0)
@example(a=1e-6, c=1.0)
@example(a=5e-324, c=2.5e305)
@given(_positive, _positive)
def test_every_affine_spectrum_answers_unless_a_value_passes_max_float(a, c):
    # ln Xi_BE <= pi^2/(6a) - ln(1 - e^{-ac}) stays below max float for
    # a >= 1e-308, and bounds ln Xi_FD and the chern character, so only a
    # smaller a or a determinant beyond float range may exit 2
    det_overflows = _affine_determinant_overflows(a, c)
    spectrum = json.dumps({"form": "affine", "a": a, "c": c})
    code, _ = _run(["spectral", "input"], [("input", spectrum)])
    assert code == 0 or (code == 2 and (a < 1e-308 or det_overflows)), (a, c, code)
    code, _ = _run(["zeta-det", "--affine", repr(a), repr(c)])
    assert code == 0 or (code == 2 and det_overflows), (a, c, code)


_JSON_NAMES = {"chern_character": "chern character", "log_xi_be": "ln Xi_BE",
               "log_xi_fd": "ln Xi_FD", "determinant": "determinant",
               "euler_class": "euler class"}


def _printed_numbers(fmt, out):
    """{name: float} of every number an exit-0 spectral or zeta-det answer
    prints, named alike in both formats."""
    if fmt == "json":
        report = json.loads(out)
        numbers = {name: report[key] for key, name in _JSON_NAMES.items() if key in report}
        for kind, modes in (report.get("pairings") or {}).items():
            numbers.update({f"pairing {kind} {mode}": v for mode, v in modes.items()})
        return numbers
    lines = out.splitlines()
    if len(lines) == 1:  # zeta-det
        return {"determinant": float(lines[0])}
    numbers = {}
    for line in lines[1:]:
        words = line.split()
        if words[0] == "pairing":
            numbers[f"pairing {words[1]} exact"] = float(words[3])
            numbers[f"pairing {words[1]} nondegenerate"] = float(words[5])
        else:
            numbers[line[:18].strip()] = float(words[-1])
    return numbers


_valid_spectra = st.one_of(
    st.fixed_dictionaries({"form": st.just("affine"), "a": _positive, "c": _positive}),
    st.fixed_dictionaries({"form": st.just("finite"),
                           "eigenvalues": st.lists(_eigenvalue, min_size=1, max_size=8)}),
)
_spectrum_requests = st.one_of(
    st.tuples(st.sampled_from((["spectral", "input"], ["zeta-det", "--input", "input"])),
              st.one_of(_valid_spectra, _spectra).map(json.dumps)),
    st.tuples(st.tuples(_positive, _positive).map(
        lambda ac: ["zeta-det", "--affine", *map(repr, ac)]), st.none()),
    st.tuples(st.lists(_eigenvalue.map(repr), min_size=1, max_size=5).map(
        lambda eigs: ["zeta-det", "--finite", ",".join(eigs)]), st.none()),
)


@given(_spectrum_requests)
def test_text_and_json_print_the_same_numbers(request):
    argv, payload = request
    files = [] if payload is None else [("input", payload)]
    (code, text), (json_code, json_out) = (
        _run(["--format", fmt, *argv], files) for fmt in ("text", "json"))
    assert code == json_code, (argv, payload)
    if code == 0:
        assert _printed_numbers("text", text) == _printed_numbers("json", json_out), (
            argv, payload)


# stats: the totals that text and JSON both print, and the per-level
# values that JSON and CSV both print
_STATS_TOTALS = {"log_xi": "ln Xi", "xi": "Xi", "omega": "Omega",
                 "mean_particle_number": "mean N"}
_LEVEL_FIELDS = ("epsilon", "xi", "occupation")


def _stats_numbers(fmt, out):
    """{name: float} of the numbers a stats answer prints that another
    format prints too, named alike in every format."""
    if fmt == "json":
        report = json.loads(out)
        numbers = {name: report[key] for key, name in _STATS_TOTALS.items()}
        for i, level in enumerate(report["per_level"]):
            numbers.update({f"{field} {i}": level[field] for field in _LEVEL_FIELDS})
        return numbers
    if fmt == "csv":
        lines = [line for line in out.splitlines() if not line.startswith("correspondence")]
        header = lines[0].split(",")
        numbers = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            numbers.update({f"{field} {row['level']}": float(row[field])
                            for field in _LEVEL_FIELDS})
        return numbers
    names = set(_STATS_TOTALS.values())
    return {line[:18].strip(): float(line[18:]) for line in out.splitlines()
            if line[:18].strip() in names}


_valid_systems = st.fixed_dictionaries(
    {"levels": st.lists(st.one_of(_floats.filter(math.isfinite),
                                  st.floats(-3.0, 3.0).map(lambda k: 10.0 ** k)),
                        min_size=1, max_size=6),
     "mu": st.one_of(st.floats(-5.0, 5.0), st.sampled_from((0.0, -800.0, 1e-300))),
     "beta": st.one_of(st.floats(1e-3, 1e3), st.sampled_from((1e-310, 1.0, 1e300))),
     "statistics": st.sampled_from(("BE", "FD", "MB"))},
    optional={"kB": st.sampled_from((1.0, 8.617333262e-5, 1e-200))},
)


@given(st.one_of(_valid_systems, _stats_inputs), st.booleans(),
       st.sampled_from(((), ("--tolerance", "1e-12"), ("--tolerance", "1e-3"))))
def test_stats_formats_agree(payload, check, options):
    argv = [*options, "stats", "input"] + (["--check-correspondence"] if check else [])
    files = [("input", json.dumps(payload))]
    results = {fmt: _run(["--format", fmt, *argv], files) for fmt in ("text", "json", "csv")}
    codes = {code for code, _ in results.values()}
    assert len(codes) == 1, (payload, check, results)
    if codes == {2}:
        return
    numbers = {fmt: _stats_numbers(fmt, out) for fmt, (_, out) in results.items()}
    assert numbers["text"].keys() == set(_STATS_TOTALS.values()), results["text"]
    for one, other in (("text", "json"), ("json", "csv")):
        shared = numbers[one].keys() & numbers[other].keys()
        assert all(numbers[one][k] == numbers[other][k] for k in shared), (
            payload, one, other, numbers)
