import json
import math

import pytest

from statindex import cli
from statindex.cli import main
from statindex.statmech import ConvergenceError, CorrespondenceReport, LevelSystem, grand_ensemble


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genus_degree(capsys):
    code, out, _ = run(capsys, "genus", "todd", "--degree", "2")
    assert code == 0
    assert out.strip() == "(c1^2 + c2)/12"


def test_genus_degree_one(capsys):
    code, out, _ = run(capsys, "genus", "todd", "--degree", "1")
    assert code == 0
    assert out.strip() == "c1/2"


def test_genus_manifold(capsys):
    code, out, _ = run(capsys, "genus", "todd", "--manifold", "cp2")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "genus", "ahat", "--manifold", "cp2")
    assert (code, out.strip()) == (0, "-1/8")


def test_genus_unknown_manifold_exits_2(capsys):
    code, _, err = run(capsys, "genus", "todd", "--manifold", "k3")
    assert code == 2
    assert "error" in err


def test_index_ff_cp2(capsys):
    code, out, _ = run(capsys, "index", "ff", "cp2")
    assert (code, out.strip()) == (0, "3")


def test_index_fb_torus_exact(capsys):
    code, out, _ = run(capsys, "index", "fb", "torus2", "--mode", "exact")
    assert (code, out.strip()) == (0, "0")


def test_index_hrr_bundle(capsys):
    code, out, _ = run(capsys, "index", "hrr", "cp1", "--bundle", "O(3)")
    assert (code, out.strip()) == (0, "4")


def test_index_hrr_rejects_truncation_below_dimension(capsys):
    code, out, err = run(capsys, "--degree", "1", "index", "hrr", "cp3")
    assert (code, out) == (2, "")
    _, _, fb_err = run(capsys, "--degree", "1", "index", "fb", "cp3")
    assert err == fb_err
    assert "below the complex dimension 3" in err
    for argv in (("--degree", "3"), ("--degree", "9"), ()):
        code, out, _ = run(capsys, *argv, "index", "hrr", "cp3")
        assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "--degree", "3", "index", "hrr", "cp3", "--bundle", "O(2)")
    assert (code, out.strip()) == (0, "10")


def test_index_json_payload(capsys):
    code, out, _ = run(capsys, "--format", "json", "index", "bb", "cp2")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == "3"
    assert payload["mode"] == "exact"


def test_index_bad_bundle_exits_2(capsys):
    code, _, err = run(capsys, "index", "hrr", "cp1", "--bundle", "Q(1)")
    assert code == 2


@pytest.mark.parametrize("bundle", ["O(1/2)", "O(1.5)", "O(1,-1/3)"])
def test_index_hrr_rejects_a_twist_that_is_not_an_integer(capsys, bundle):
    manifold = "cp1xcp1" if "," in bundle else "cp2"
    code, out, err = run(capsys, "index", "hrr", manifold, "--bundle", bundle)
    assert (code, out) == (2, "")
    assert err == f"error: bundle {bundle!r} has a twist that is not an integer\n"
    code, out, _ = run(capsys, "index", "hrr", "cp2", "--bundle", "O(2.0)")
    assert (code, out.strip()) == (0, "6")


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--l", "2")
    assert code == 0
    assert out.count("PASS") == 4
    assert "x1 * x2" in out


def test_verify_single_kind(capsys):
    code, out, _ = run(capsys, "verify", "ff", "--l", "1")
    assert code == 0
    assert "x1" in out and "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--all", "--l", "1")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 4
    assert all(item["ok"] for item in reports)


def _verify_header(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    return out.splitlines()[0]


def test_verify_reads_the_global_degree(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": 10}))
    default = "pairing dictionary (l = 2, D = 8)"
    assert _verify_header(capsys, "verify", "fb", "--l", "2") == default
    ten = "pairing dictionary (l = 2, D = 10)"
    assert _verify_header(capsys, "--degree", "10", "verify", "fb", "--l", "2") == ten
    assert _verify_header(capsys, "--config", str(config), "verify", "fb", "--l", "2") == ten
    # the global flag wins over the config key, the subcommand's flag over both
    six = "pairing dictionary (l = 2, D = 6)"
    assert _verify_header(capsys, "--config", str(config), "--degree", "6",
                          "verify", "fb", "--l", "2") == six
    assert _verify_header(capsys, "--config", str(config), "--degree", "12",
                          "verify", "fb", "--l", "2", "--degree", "6") == six
    code, out, _ = run(capsys, "--format", "json", "--degree", "9", "verify", "--all", "--l", "3")
    assert code == 0 and {report["truncation"] for report in json.loads(out)} == {9}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_global_degree_below_the_root_count_exits_2(tmp_path, capsys, source):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": 1}))
    option = ["--degree", "1"] if source == "flag" else ["--config", str(config)]
    code, out, err = run(capsys, *option, "verify", "fb", "--l", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: truncation 1 is below the root count 2")


def test_stats_text_and_correspondence(tmp_path, capsys):
    payload = {"levels": [math.log(2.0)], "mu": 0.0, "beta": 1.0, "statistics": "FD"}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "stats", str(path), "--check-correspondence")
    assert code == 0
    assert "Xi                1.5" in out
    assert "PASS" in out


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("payload, message", [
    ({"levels": [1.0, 2.0], "mu": 0.0, "beta": 1.0, "statistics": "MB"},
     "the correspondence is defined for BE and FD"),
    # x = 1e-7: the geometric sum needs about 4.6e8 terms
    ({"levels": [1e-7, 1.0], "mu": 0.0, "beta": 1.0, "statistics": "BE"}, "tail bound needs"),
], ids=["mb", "be-near-mu"])
def test_correspondence_error_prints_nothing_on_stdout(tmp_path, capsys, fmt, payload, message):
    # the check runs before the report is written, so exit 2 leaves stdout empty
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "--format", fmt, "stats", str(path), "--check-correspondence")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}"), err


_UNDERFLOW_OPTIONS = {
    "text": ((), ()), "json": (("--format", "json"), ()), "csv": (("--format", "csv"), ()),
    "check": ((), ("--check-correspondence",)),
}
# each level passes LevelSystem's eps > mu, but beta (eps - mu) rounds to 0.0
_UNDERFLOWS = {
    "": ([1e-300], "level 0 (eps = 1e-300)"),
    "-second-level": ([2.0, 1e-30, 3.0], "level 1 (eps = 1e-30)"),
}


@pytest.mark.parametrize("options, extra, levels, named", [
    pytest.param(*options, levels, named, id=name + suffix)
    for suffix, (levels, named) in _UNDERFLOWS.items()
    for name, options in _UNDERFLOW_OPTIONS.items()
])
def test_be_argument_underflowing_to_zero_diverges(tmp_path, capsys, options, extra, levels, named):
    data = {"levels": levels, "mu": 0, "beta": 1e-300, "statistics": "BE"}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *options, "stats", str(path), *extra)
    assert (code, out) == (2, "")
    assert err == (f"error: {named} is above mu = 0.0, but x = beta*(eps - mu) "
                   "underflows to 0.0 at beta = 1e-300; the bosonic level sum needs x > 0\n")
    with pytest.raises(ConvergenceError):
        grand_ensemble(LevelSystem.from_json_dict(data))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_failed_correspondence_exits_1_in_every_format(tmp_path, monkeypatch, capsys, fmt):
    real = cli.correspondence_check
    calls = []

    def failing(system, tol, ensemble):
        report = real(system, tol=tol, ensemble=ensemble)
        calls.append(report)
        return CorrespondenceReport(
            report.system, report.character_values, report.series_values,
            report.ensemble_values, report.max_relative_deviation, report.tolerance, False,
        )

    monkeypatch.setattr(cli, "correspondence_check", failing)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"levels": [1.0, 2.0], "mu": 0.0, "beta": 1.0,
                                "statistics": "FD"}))
    code, out, _ = run(capsys, "--format", fmt, "stats", str(path), "--check-correspondence")
    assert code == 1
    assert len(calls) == 1
    if fmt == "json":
        assert json.loads(out)["correspondence"]["ok"] is False
    else:
        assert out.splitlines()[-1].startswith("correspondence    FAIL")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_be_level_near_mu_passes_correspondence_in_every_format(tmp_path, capsys, fmt):
    # the 3e-5 level needs 1.4M series terms; a plain running total drifted
    # by 2.2e-12 and reported a valid input as a failed verification
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"levels": [3e-5, 1.0], "mu": 0.0, "beta": 1.0,
                                "statistics": "BE"}))
    code, out, _ = run(capsys, "--format", fmt, "stats", str(path), "--check-correspondence")
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["correspondence"]["ok"] is True
    else:
        assert out.splitlines()[-1].startswith("correspondence    PASS")


def test_stats_csv(tmp_path, capsys):
    payload = {"levels": [1.0, 2.0], "mu": 0.0, "beta": 1.0, "statistics": "BE"}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "--format", "csv", "stats", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,epsilon,x,xi,occupation"
    assert len(lines) == 3


def test_stats_be_divergence_exits_2(tmp_path, capsys):
    payload = {"levels": [1.0], "mu": 1.0, "beta": 1.0, "statistics": "BE"}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "stats", str(path))
    assert code == 2
    assert "level 0" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("levels", [1.0, math.nan]),
        ("levels", [-math.inf, 1.0]),
        ("mu", math.nan),
        ("mu", math.inf),
        ("beta", math.nan),
        ("beta", math.inf),
        ("beta", -1.0),
        ("kB", math.nan),
        ("kB", math.inf),
        ("kB", 0.0),
    ],
)
def test_non_finite_system_fields_exit_2(tmp_path, capsys, field, value):
    # json writes NaN and Infinity literals, and json.load reads them back
    payload = {"levels": [1.0, 2.0], "mu": 0.0, "beta": 1.0, "statistics": "FD", "kB": 1.0}
    payload[field] = value
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "stats", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} must be")


@pytest.mark.parametrize("statistics", ["BE", "FD"])
def test_levels_far_above_mu_underflow(tmp_path, capsys, statistics):
    # x = 720 gives a subnormal occupation and x = 800 gives 0.0; e^x overflows
    path = tmp_path / "system.json"
    path.write_text(json.dumps(
        {"levels": [1.0, 720.0, 800.0], "mu": 0.0, "beta": 1.0, "statistics": statistics}
    ))
    code, out, err = run(capsys, "--format", "json", "stats", str(path))
    assert (code, err) == (0, "")
    occupations = [level["occupation"] for level in json.loads(out)["per_level"]]
    assert occupations[1:] == [math.exp(-720.0), 0.0]
    code, out, err = run(capsys, "stats", str(path), "--check-correspondence")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("correspondence    PASS")


def test_zeta_det_affine(capsys):
    code, out, _ = run(capsys, "zeta-det", "--affine", "1", "1")
    assert code == 0
    assert abs(float(out) - math.sqrt(2 * math.pi)) < 1e-10


def test_zeta_det_finite(capsys):
    code, out, _ = run(capsys, "zeta-det", "--finite", "1,2,3")
    assert code == 0
    assert float(out) == pytest.approx(6.0)


def test_spectral_report(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"form": "finite", "eigenvalues": [1.0, 2.0, 3.0]}))
    code, out, _ = run(capsys, "spectral", str(path))
    assert code == 0
    assert "euler class       6" in out
    assert "pairing ff" in out


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "--format", "json", "verify", "--all", "--l", "2")
    _, second, _ = run(capsys, "--format", "json", "verify", "--all", "--l", "2")
    assert first == second


def test_config_file_sets_format(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "json"}))
    code, out, _ = run(capsys, "--config", str(config), "index", "ff", "cp1")
    assert code == 0
    assert json.loads(out)["index"] == "2"


def test_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "json"}))
    code, out, _ = run(capsys, "--config", str(config), "--format", "text",
                       "index", "ff", "cp1")
    assert code == 0
    assert out.strip() == "2"


_FD_HOT = {"levels": [-50.0] * 20, "mu": 0.0, "beta": 1.0, "statistics": "FD"}
_WIDE = ",".join(repr(0.1 + 9.9 * (k + 0.5) / 1000) for k in range(1000))
_HUGE = {"form": "finite", "eigenvalues": [1e308, 1e308]}
_FAR_BELOW_MU = {"levels": [-1e308], "mu": 1e308, "beta": 1.0, "statistics": "FD"}
_MB_FAR_BELOW_MU = {"levels": [-800.0], "mu": 0.0, "beta": 1.0, "statistics": "MB"}
_FD_LOGS_PAST_MAX = {"levels": [-1e308, -1e308], "mu": 0.0, "beta": 1.0, "statistics": "FD"}
_FORMATS = ("text", "json", "csv")


@pytest.mark.parametrize(
    "argv, payload, value",
    [
        (["zeta-det", "--finite", _WIDE], None, "the determinant"),
        # ln det' = c (1 - ln(ac)) + (1/2) ln(ac), about 1.05e307
        (["zeta-det", "--affine", "5e-324", "2.5e305"], None, "the determinant"),
        (["spectral", "{path}"], _HUGE, "the determinant"),
        (["--format", "json", "spectral", "{path}"], _HUGE, "the determinant"),
        # x = beta (eps - mu) overflows to -inf, so the level's ln Xi is inf
        *[(["--format", fmt, "stats", "{path}"], _FAR_BELOW_MU, "ln Xi") for fmt in _FORMATS],
        # an MB level's ln Xi = e^{-x} = e^800 is beyond float range
        *[(["--format", fmt, "stats", "{path}"], _MB_FAR_BELOW_MU, "ln Xi") for fmt in _FORMATS],
        # two finite FD logs of 1e308 sum past max float
        *[(["--format", fmt, "stats", "{path}"], _FD_LOGS_PAST_MAX, "ln Xi") for fmt in _FORMATS],
    ],
    ids=["finite-det-overflow", "affine-power-overflow", "spectral-finite-det-overflow",
         "spectral-json-finite-det-overflow", "stats-ln-xi-overflow",
         "stats-json-ln-xi-overflow", "stats-csv-ln-xi-overflow",
         "stats-mb-level-overflow", "stats-json-mb-level-overflow",
         "stats-csv-mb-level-overflow", "stats-fd-sum-overflow",
         "stats-json-fd-sum-overflow", "stats-csv-fd-sum-overflow"],
)
def test_arithmetic_errors_exit_2(tmp_path, capsys, argv, payload, value):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {value} is beyond float range"), err
    assert "a = 0.0" not in err


@pytest.mark.parametrize(
    "argv, payload, field",
    [
        # ln det' = c (1 - ln(ac)) + (1/2) ln(ac) is about -6.4e309 and -1.28e307;
        # ln Gamma(c) alone would be inf or (1/2 - c) ln a pass max float
        (["zeta-det", "--affine", "1e-280", "1e308"], None, None),
        (["spectral", "{path}"], {"form": "affine", "a": 1e-300, "c": 1e306}, "determinant"),
    ],
    ids=["zeta-det-1e-280-1e308", "spectral-1e-300-1e306"],
)
def test_affine_determinant_below_float_range_prints_0(tmp_path, capsys, argv, payload, field):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, err) == (0, "")
    if field is None:
        assert out == "0\n"
    else:  # ac = 1e6: the chern character and both ln Xi underflow to 0 too
        assert out.splitlines()[1:] == [f"{label:18}0" for label in (
            "chern character", "ln Xi_BE", "ln Xi_FD", "determinant", "euler class")]


@pytest.mark.parametrize("c", ["2e18", "1e300", "1.7976931348623157e308"])
def test_huge_affine_c_answers(capsys, c):
    # ln Gamma(c) is finite up to about c = 2.56e305 and inf beyond it; the
    # determinant a^{1/2-c} sqrt(2 pi) / Gamma(c) underflows to 0 either way
    assert run(capsys, "zeta-det", "--affine", "1", c) == (0, "0\n", "")


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_correspondence_overflow_is_compared_in_log_domain(tmp_path, capsys, fmt):
    # ln Xi = 20 ln(1 + e^50), about 1000: Xi itself is beyond binary64
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_FD_HOT))
    code, out, err = run(capsys, *fmt, "stats", str(path), "--check-correspondence")
    assert (code, err) == (0, "")
    if fmt:
        payload = json.loads(out)
        assert payload["xi"] == math.inf
        check = payload["correspondence"]
        assert check["ok"] and check["max_relative_deviation"] <= 1e-12
    else:
        assert "Xi                inf" in out
        assert out.splitlines()[-1] == "correspondence    PASS (max deviation 0)"


def test_affine_json_reports_overflowing_xi_as_inf(tmp_path, capsys):
    # a = 0.001, c = 2: ln Xi_BE is about 1640 and ln Xi_FD about 820, so
    # both totals are beyond binary64
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"form": "affine", "a": 0.001, "c": 2.0}))
    code, out, err = run(capsys, "--format", "json", "spectral", str(path))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert 1600 < payload["log_xi_be"] < 1700
    assert payload["xi_be"] == math.inf
    assert payload["log_xi_fd"] > 710 and payload["xi_fd"] == math.inf
    _, text, _ = run(capsys, "spectral", str(path))
    assert f"ln Xi_BE          {payload['log_xi_be']:.17g}" in text


def test_affine_log_xi_beyond_float_range_exits_2_at_once(tmp_path, capsys):
    # a = 5e-324: ln Xi_BE is about pi^2/(6a), beyond max float; the closed
    # form says so without adding a single term
    import time

    path = tmp_path / "input.json"
    path.write_text(json.dumps({"form": "affine", "a": 5e-324, "c": 5e-13}))
    start = time.perf_counter()
    code, out, err = run(capsys, "spectral", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ln Xi_BE is beyond float range")
    assert "Traceback" not in err


@pytest.mark.parametrize("a", [1e-4, 2e-5, 1e-6])
@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_small_affine_a_answers_at_once(tmp_path, capsys, a, fmt):
    # once refused below a = 2.45e-5 (the term-by-term tail's limit), and
    # 0.5 s at a = 1e-4; the leading terms are 1/a, pi^2/(6a) and pi^2/(12a)
    import time

    path = tmp_path / "input.json"
    path.write_text(json.dumps({"form": "affine", "a": a, "c": 1.0}))
    start = time.perf_counter()
    code, out, err = run(capsys, *fmt, "spectral", str(path))
    assert time.perf_counter() - start < 0.1
    assert (code, err) == (0, "")
    if fmt:
        report = json.loads(out)
        chern, be, fd = (report[key] for key in ("chern_character", "log_xi_be", "log_xi_fd"))
    else:
        chern, be, fd = (float(line.split()[-1]) for line in out.splitlines()[1:4])
    assert abs(chern * a - 1.0) < a
    assert abs(be * a - math.pi ** 2 / 6.0) < 20.0 * a
    assert abs(fd * a - math.pi ** 2 / 12.0) < a


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--seed=1", "verify", "--all", "--l", "1"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--all", "--l", "2", "--degree", "1"],
        ["zeta-det", "--finite", "nan"],
        ["zeta-det", "--finite", ""],
        ["zeta-det", "--finite", " , "],
        ["zeta-det", "--finite", "1,inf"],
        ["zeta-det", "--affine", "nan", "1"],
        ["zeta-det", "--affine", "1", "inf"],
        ["--tolerance", "nan", "zeta-det", "--affine", "1", "1"],
    ],
)
def test_inputs_without_a_meaningful_answer_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command, payload, named",
    [
        ("stats", {"levels": [1.0]}, "statistics"),
        ("stats", {"statistics": "FD"}, "levels"),
        ("stats", [1.0], "JSON object"),
        ("stats", {"levels": "12", "statistics": "FD"}, "'12'"),
        ("stats", {"levels": [None], "statistics": "FD"}, "list of numbers"),
        ("spectral", {"form": "finite"}, "eigenvalues"),
        ("spectral", {"eigenvalues": [1.0]}, "form"),
        ("spectral", {"form": "affine", "a": 1.0}, "c"),
        ("spectral", {"form": "periodic"}, "unknown spectrum form 'periodic'"),
        ("spectral", {"form": "affine", "a": None, "c": 1.0}, "a must be a number"),
        ("spectral", {"form": "finite", "eigenvalues": "12"}, "'12'"),
        ("spectral", {"form": "finite", "eigenvalues": 12}, "list of numbers"),
        ("spectral", {"form": "affine", "a": 1, "c": "x"}, "c must be a number, got 'x'"),
        ("spectral", {"form": "affine", "a": True, "c": 1.0}, "a must be a number, got True"),
        ("spectral", {"form": "finite", "eigenvalues": [1.0], "grading": "false"}, "grading"),
        ("spectral", {"form": "finite", "eigenvalues": [1.0], "grading": 0}, "grading"),
        ("stats", {"levels": [1.0], "mu": True, "statistics": "FD"}, "mu must be a number"),
        ("stats", {"levels": [1.0], "beta": False, "statistics": "FD"}, "beta must be a number"),
        ("stats", {"levels": [1.0], "kB": True, "statistics": "FD"}, "kB must be a number"),
        ("stats", {"levels": [1.0], "mu": "x", "statistics": "FD"}, "mu must be a number"),
        ("stats", {"levels": [True, 2.0], "statistics": "FD"}, "levels must be numbers; item 0 is True"),
        ("stats", {"levels": [1, "2"], "statistics": "FD"}, "levels must be numbers; item 1 is '2'"),
        ("spectral", {"form": "finite", "eigenvalues": ["1"]}, "eigenvalues must be numbers; item 0 is '1'"),
        ("spectral", {"form": "finite", "eigenvalues": [2.0, False]}, "eigenvalues must be numbers; item 1 is False"),
        ("stats", {"levels": [1.0, 2.0], "mu": "0.5", "beta": 1, "statistics": "FD"}, "mu must be a number, got '0.5'"),
        ("spectral", {"form": "affine", "a": "1", "c": 0.5}, "a must be a number, got '1'"),
    ],
)
def test_malformed_input_files_exit_2(tmp_path, capsys, command, payload, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err


def test_zeta_det_input_reads_numbers_but_not_numeric_strings(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"form": "affine", "a": "1", "c": "0.5"}))
    code, out, err = run(capsys, "zeta-det", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a must be a number, got '1'\n"
    path.write_text(json.dumps({"form": "affine", "a": 1, "c": 1}))  # JSON ints are numbers
    assert run(capsys, "zeta-det", "--input", str(path)) == run(capsys, "zeta-det", "--affine", "1", "1")


@pytest.mark.parametrize(
    "config, named",
    [
        ({"degree": "3"}, "degree"),
        ({"degree": True}, "degree"),
        ({"degree": 3.0}, "degree"),
        ({"tolerance": "x"}, "tolerance"),
        ({"tolerance": [1e-9]}, "tolerance"),
        (["degree"], "JSON object"),
    ],
)
def test_mistyped_config_values_exit_2(tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(path), "verify", "--all", "--l", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("eigenvalue", [5e-4, 1e-17, 1e-320])
def test_eigenvalue_below_cancellation_has_its_pairings(tmp_path, capsys, eigenvalue):
    # 1 - e^{-lambda} rounds to 0 below about 1.1e-16, yet each factor is
    # finite: fb exact is lambda / tanh(lambda/2) -> 2 and bf exact
    # lambda tanh^2(lambda/2) -> 0, each within 2u (|ln lambda| + |b| ln Xi_BE
    # + |f| ln Xi_FD + 2)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"form": "finite", "eigenvalues": [eigenvalue]}))
    code, out, err = run(capsys, "--format", "json", "spectral", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    t = math.tanh(eigenvalue / 2.0)
    sums = abs(math.log(eigenvalue)), report["log_xi_be"], report["log_xi_fd"]
    for kind, want, (abs_b, abs_f) in (("fb", eigenvalue / t, (1, 1)),
                                        ("bf", eigenvalue * t * t, (2, 2))):
        budget = 2.0**-52 * (sums[0] + abs_b * sums[1] + abs_f * sums[2] + 2.0)
        assert abs(report["pairings"][kind]["exact"] - want) <= budget * want, kind


@pytest.mark.parametrize("eigenvalue", [1e-17, 1e-320])
def test_tiny_eigenvalue_beside_a_normal_one_reads_in_text(tmp_path, capsys, eigenvalue):
    # the pairings are products over the spectrum: beside lambda = 2 the tiny
    # factor still answers, fb exact (2 / tanh 1) (lambda / tanh(lambda/2))
    # and bf exact (2 tanh^2 1) (lambda tanh^2(lambda/2)), the latter 0 at 1e-320
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"form": "finite", "eigenvalues": [2.0, eigenvalue]}))
    code, out, err = run(capsys, "spectral", str(path))
    assert (code, err) == (0, "")
    rows = {}
    for line in out.splitlines():
        head, _, rest = line.partition("  ")
        rows[head.strip()] = rest.split()
    assert rows["spectrum"] == ["finite"]
    t1, t = math.tanh(1.0), math.tanh(eigenvalue / 2.0)
    sums = (math.log(2.0) + abs(math.log(eigenvalue)), float(rows["ln Xi_BE"][0]),
            float(rows["ln Xi_FD"][0]))
    for kind, want, (abs_b, abs_f) in (("fb", (2.0 / t1) * (eigenvalue / t), (1, 1)),
                                        ("bf", (2.0 * t1 * t1) * (eigenvalue * t * t),
                                         (2, 2))):
        exact = rows[f"pairing {kind}"]
        assert exact[0] == "exact", kind
        budget = 2.0**-52 * (sums[0] + abs_b * sums[1] + abs_f * sums[2] + 2.0)
        assert abs(float(exact[1]) - want) <= budget * want, kind


def test_underflowing_kb_beta_reads_infinite_temperature(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"levels": [1.0], "mu": 0, "beta": 1e-200, "kB": 1e-200,
                                "statistics": "FD"}))
    code, out, err = run(capsys, "--format", "json", "stats", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["temperature"] == math.inf


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
def test_correspondence_of_an_overflowing_fd_level(tmp_path, capsys, fmt):
    # x = -800: 1 + e^800 is beyond binary64 on all three routes
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"levels": [-800.0, 1.0], "mu": 0.0, "beta": 1.0,
                                "statistics": "FD"}))
    code, out, err = run(capsys, *fmt, "stats", str(path), "--check-correspondence")
    assert (code, err) == (0, "")
    if fmt:
        payload = json.loads(out)
        check = payload["correspondence"]
        assert check["per_level"][0] == {"character": math.inf, "series": math.inf,
                                         "ensemble": math.inf}
        assert payload["per_level"][0]["xi"] == math.inf
        assert check["ok"] and check["max_relative_deviation"] <= 1e-12
    else:
        assert "Xi                inf" in out
        assert out.splitlines()[-1] == "correspondence    PASS (max deviation 0)"


def test_be_levels_just_above_mu(tmp_path, capsys):
    # x = beta * eps is 1e-320 and 2e-320: e^{-x} rounds to 1
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"levels": [1.0, 2.0], "mu": 0.0, "beta": 1e-320,
                                "statistics": "BE"}))
    code, out, err = run(capsys, "--format", "json", "stats", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["log_xi"] == math.fsum([-math.log(1e-320), -math.log(2e-320)])
    assert [level["xi"] for level in report["per_level"]] == [math.inf, math.inf]
