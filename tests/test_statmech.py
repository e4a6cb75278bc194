import contextlib
import json
import math
import pickle
import random
import tracemalloc

import pytest

from statindex.bundles import _LOG_MAX, _safe_exp, fock_character_value
from statindex.cli import main
from statindex.statmech import (
    _CSV_CHUNK_ROWS,
    ConvergenceError,
    EnsembleReport,
    LevelSystem,
    TailBoundError,
    _be_logs,
    _be_occupations,
    _fd_logs,
    _fd_occupations,
    bose_geometric_sum,
    correspondence_check,
    grand_ensemble,
    level_partition,
    log_level_partition,
    occupation,
    occupation_by_derivative,
)

LN2 = math.log(2.0)


def test_level_partition_closed_forms():
    assert abs(level_partition("BE", LN2) - 2.0) < 1e-15
    assert level_partition("FD", LN2) == 1.5
    with pytest.raises(ConvergenceError):
        level_partition("BE", 0.0)
    with pytest.raises(ConvergenceError):
        level_partition("BE", -1.0)


def test_occupation_closed_forms():
    assert abs(occupation("BE", LN2) - 1.0) < 1e-15
    assert abs(occupation("FD", LN2) - 1.0 / 3.0) < 1e-16
    assert occupation("FD", 0.0) == 0.5
    assert occupation("MB", 2.0) == math.exp(-2.0)
    with pytest.raises(ConvergenceError):
        occupation("BE", 0.0)


@pytest.mark.parametrize("statistics", ["BE", "FD"])
def test_occupation_far_above_mu_underflows(statistics):
    # e^x overflows beyond x = 709.78, while n = e^{-x}/(1 -/+ e^{-x}) = e^{-x}
    tail = occupation(statistics, 720.0)
    assert tail == math.exp(-720.0)
    assert 0.0 < tail < 2.0**-1022
    assert occupation(statistics, 800.0) == 0.0
    # in range the closed form is kept
    assert occupation(statistics, 709.0) == 1.0 / (
        math.expm1(709.0) if statistics == "BE" else math.exp(709.0) + 1.0
    )
    report = grand_ensemble(
        LevelSystem(levels=(1.0, 720.0, 800.0), mu=0.0, beta=1.0, statistics=statistics)
    )
    assert report.per_level_occupation[1:] == (tail, 0.0)
    assert report.per_level_occupation[0] == occupation(statistics, 1.0)
    # up to _LOG_MAX the closed form is kept, one float above it e^{-x}
    above = math.nextafter(_LOG_MAX, math.inf)
    assert occupation(statistics, above) == math.exp(-above)
    assert occupation(statistics, _LOG_MAX) == 1.0 / (
        math.expm1(_LOG_MAX) if statistics == "BE" else math.exp(_LOG_MAX) + 1.0
    )


def test_log_max_is_where_exp_and_expm1_overflow():
    assert _LOG_MAX == math.log(1.7976931348623157e308)
    assert math.isfinite(math.exp(_LOG_MAX)) and math.isfinite(math.expm1(_LOG_MAX))
    above = math.nextafter(_LOG_MAX, math.inf)
    for function in (math.exp, math.expm1):
        with pytest.raises(OverflowError):
            function(above)
    assert _safe_exp(_LOG_MAX) == math.exp(_LOG_MAX)
    assert _safe_exp(above) == math.inf
    assert math.isnan(_safe_exp(math.nan))


def _closed_form_or(value, fallback):
    """value(), or fallback() where value() raises OverflowError: the rule
    by which every per-level value was once decided."""
    try:
        return value()
    except OverflowError:
        return fallback()


# _LOG_MAX, its neighbours, and points well past it, on both sides of 0
_EDGE = (math.nextafter(_LOG_MAX, 0.0), _LOG_MAX, math.nextafter(_LOG_MAX, math.inf),
         720.0, 800.0)
_THRESHOLD_GRID = _EDGE + tuple(-x for x in _EDGE)


@pytest.mark.parametrize("x", _THRESHOLD_GRID)
def test_per_level_values_at_the_overflow_threshold(x):
    exp, expm1, inf = math.exp, math.expm1, math.inf
    fd_xi = _closed_form_or(lambda: 1.0 + exp(-x), lambda: inf)
    fd_n = _closed_form_or(lambda: 1.0 / (exp(x) + 1.0), lambda: exp(-x))
    assert occupation("FD", x) == fd_n
    assert level_partition("FD", x) == fd_xi
    assert fock_character_value("FD", -x) == fd_xi
    expected = {"FD": (fd_xi, fd_n)}
    if x > 0:
        be_n = _closed_form_or(lambda: 1.0 / expm1(x), lambda: exp(-x))
        assert occupation("BE", x) == be_n
        be_xi = 1.0 / -expm1(-x)
        assert level_partition("BE", x) == fock_character_value("BE", -x) == be_xi
        expected["BE"] = (be_xi, be_n)
    for statistics, (xi, n) in expected.items():
        system = LevelSystem(levels=(x,), mu=0.0, beta=1.0, statistics=statistics)
        report = grand_ensemble(system)
        log_xi = log_level_partition(statistics, x)
        assert report.per_level_xi == (_closed_form_or(lambda: exp(log_xi), lambda: inf),)
        assert report.per_level_occupation == (n,)
        check = correspondence_check(system, ensemble=report)
        assert check.character_values == check.ensemble_values == (xi,)
        if statistics == "FD":
            assert check.series_values == (xi,)
        assert check.ok


def test_be_levels_just_above_mu_have_finite_logs():
    # below x = 5.6e-17, e^{-x} rounds to 1, yet the level's log stays finite
    assert log_level_partition("BE", 1e-17) == -math.log(1e-17)
    assert log_level_partition("BE", 1e-320) == -math.log(1e-320)
    report = grand_ensemble(
        LevelSystem(levels=(1e-17, 1.0), mu=0.0, beta=1.0, statistics="BE")
    )
    # the other level keeps the value of the closed form
    assert report.per_level_xi[1] == math.exp(-math.log1p(-math.exp(-1.0)))
    assert report.log_xi == math.fsum([-math.log(1e-17), -math.log1p(-math.exp(-1.0))])


def _be_log_reference(x, mpmath):
    """-ln(1 - e^{-x}) to 50 digits: the working precision also covers the
    digits that 1 - e^{-x} cancels, -log10(x) for small x and x/ln 10 for
    large x, so the reference needs neither expm1 nor log1p."""
    with mpmath.workdps(55 + max(0, -math.log10(x)) + x / math.log(10)):
        return -mpmath.log(1 - mpmath.exp(-mpmath.mpf(x)))


def test_be_log_kernel_accuracy_budget():
    # relative error at most 3e-16 on (0, 708]; beyond it the value is
    # subnormal (or 0) and within 2.5e-324
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(17)
    grid = [rng.uniform(0.0, 8.0) for _ in range(1500)]
    grid += [math.exp(rng.uniform(-745.0, 6.7)) for _ in range(1500)]
    grid += [5e-324, 1e-300, math.nextafter(LN2, 0.0), LN2, math.nextafter(LN2, 1.0), 708.0,
             745.2]
    for x, got in zip(grid, _be_logs(grid)):
        expected = _be_log_reference(x, mpmath)
        bound = 3e-16 * expected if x <= 708.0 else mpmath.mpf(2.5e-324)
        assert abs(got - expected) <= bound, x


def _kernel_reference(kernel, x, mpmath):
    """1/(e^x - 1), 1/(e^x + 1) or ln(1 + e^{-x}) to 50 digits, with the
    digits that e^x - 1 and 1 + e^{-x} cancel added to the working precision."""
    with mpmath.workdps(55 + max(0, -math.log10(abs(x))) + abs(x) / math.log(10)):
        e = mpmath.exp(mpmath.mpf(x))
        if kernel is _be_occupations:
            return 1 / (e - 1)
        if kernel is _fd_occupations:
            return 1 / (e + 1)
        return mpmath.log(1 + 1 / e)


@pytest.mark.parametrize("kernel", [_be_occupations, _fd_occupations, _fd_logs],
                         ids=["be-occupations", "fd-occupations", "fd-logs"])
def test_occupation_and_fd_log_kernel_accuracy_budget(kernel):
    # relative error at most 3e-16 up to x = 708.39, where the value is a
    # normal float; beyond it the value is subnormal (or 0) and within 5e-324
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(18)
    grid = [math.exp(rng.uniform(math.log(1e-17), math.log(745.5))) for _ in range(600)]
    grid += [rng.uniform(0.0, 8.0) for _ in range(150)] + [rng.uniform(708.0, 746.0)
                                                          for _ in range(150)]
    grid += [1e-300, 40.0, 708.39, 708.4] + list(_EDGE)
    if kernel is not _be_occupations:
        grid += [-x for x in grid]
    for x, got in zip(grid, kernel(grid)):
        expected = _kernel_reference(kernel, x, mpmath)
        bound = 3e-16 * abs(expected) if x <= 708.39 else mpmath.mpf(5e-324)
        assert abs(got - expected) <= bound, x


def test_occupation_by_derivative_matches_closed_forms():
    assert abs(occupation_by_derivative("FD", LN2, 1e-6) - 1.0 / 3.0) < 1e-10
    assert abs(occupation_by_derivative("BE", 1.0, 1e-6) - 1.0 / (math.e - 1.0)) < 1e-9
    assert abs(occupation_by_derivative("MB", 2.0, 1e-6) - math.exp(-2.0)) < 1e-9
    with pytest.raises(ConvergenceError):
        occupation_by_derivative("BE", 1e-7, 1e-6)


def test_derivative_converges_at_second_order():
    # halving h divides the error by about 4
    for stat, x in (("FD", LN2), ("BE", 1.0), ("MB", 0.7)):
        exact = occupation(stat, x)
        err_h = abs(occupation_by_derivative(stat, x, 1e-2) - exact)
        err_half = abs(occupation_by_derivative(stat, x, 5e-3) - exact)
        ratio = err_h / err_half
        assert 3.8 <= ratio <= 4.2


def test_fd_particle_hole_symmetry():
    for x in (-3.0, -0.5, 0.0, 0.2, 1.7, 10.0):
        assert abs(occupation("FD", x) + occupation("FD", -x) - 1.0) <= 1e-14


def test_statistics_ordering():
    rng = random.Random(20260810)
    for _ in range(50):
        x = rng.uniform(0.05, 8.0)
        be = occupation("BE", x)
        mb = occupation("MB", x)
        fd = occupation("FD", x)
        assert be > mb > fd


def test_grand_ensemble_fd_singleton():
    system = LevelSystem(levels=(LN2,), mu=0.0, beta=1.0, statistics="FD")
    report = grand_ensemble(system)
    assert report.xi == 1.5
    assert abs(report.per_level_occupation[0] - 1.0 / 3.0) < 1e-16
    assert abs(report.omega - (-math.log(1.5))) < 1e-15
    assert report.system.temperature == 1.0


def test_grand_ensemble_be_two_identical_levels():
    system = LevelSystem(levels=(LN2, LN2), mu=0.0, beta=1.0, statistics="BE")
    report = grand_ensemble(system)
    assert abs(report.xi - 4.0) < 1e-14
    assert abs(report.mean_particle_number - 2.0) < 1e-14


def test_be_maxwell_boltzmann_regime():
    deviation = abs(occupation("BE", 20.0) / math.exp(-20.0) - 1.0)
    assert deviation <= 3e-9


def test_be_convergence_error_names_level():
    with pytest.raises(ConvergenceError, match="level 1"):
        LevelSystem(levels=(1.0, 0.5), mu=0.5, beta=1.0, statistics="BE")


def test_log_domain_consistency():
    rng = random.Random(5)
    levels = tuple(rng.uniform(0.2, 4.0) for _ in range(200))
    system = LevelSystem(levels=levels, mu=0.0, beta=1.3, statistics="FD")
    report = grand_ensemble(system)
    direct = math.fsum(
        log_level_partition("FD", x) for x in system.thermo_arguments()
    )
    assert report.log_xi == direct


def test_beta_mu_kb_parameterization():
    # x = beta*(eps - mu) no matter what kB is; temperature folds kB in
    system = LevelSystem(levels=(2.0,), mu=0.5, beta=2.0, statistics="FD", kB=3.0)
    assert system.thermo_arguments() == (3.0,)
    assert system.sheaf_arguments() == (1.5,)
    assert system.chern_roots() == (-3.0,)
    assert abs(system.temperature - 1.0 / 6.0) < 1e-16


def test_bose_geometric_sum_tail_bound():
    value, terms, tail = bose_geometric_sum(-LN2, tol=1e-13)
    assert abs(value - 2.0) < 1e-12
    assert tail <= 1e-13
    assert terms < 60
    with pytest.raises(TailBoundError):
        bose_geometric_sum(-1e-9, tol=1e-13, max_terms=1000)


def test_bose_geometric_sum_is_compensated_over_many_terms():
    mpmath = pytest.importorskip("mpmath")
    y = -3e-5
    value, terms, _ = bose_geometric_sum(y, tol=1e-14)
    with mpmath.workdps(50):
        ratio = mpmath.exp(mpmath.mpf(y))
        partial = (1 - ratio**terms) / (1 - ratio)
        assert abs((value - partial) / partial) < 1e-12
        exact = 1 / (1 - ratio)
        assert abs((value - exact) / exact) < 1e-12


def test_bose_geometric_sum_within_its_budget():
    mpmath = pytest.importorskip("mpmath")
    u = 2.0 ** -53
    rng = random.Random(2201)
    ys = [-10 ** rng.uniform(math.log10(3e-5), math.log10(700.0)) for _ in range(30)]
    ys += [-3e-5, -3.1e-5, -1e-4, -1e-3, -0.5, -LN2, -2.0, -40.0, -700.0]  # y -> 0- first
    for y in ys:
        value, terms, _ = bose_geometric_sum(y, tol=1e-13)
        budget = u * (2 / math.expm1(-y) + 2)
        with mpmath.workdps(40):
            ratio = mpmath.exp(mpmath.mpf(y))
            partial = (1 - ratio**terms) / (1 - ratio)
            exact = 1 / (1 - ratio)
            assert abs(value - partial) <= budget * partial, y
            assert abs(value - exact) <= (budget + 1e-13) * exact, y


def test_correspondence_fermion_singleton():
    system = LevelSystem(levels=(LN2,), mu=0.0, beta=1.0, statistics="FD")
    report = correspondence_check(system)
    assert report.ok
    assert report.character_values[0] == report.ensemble_values[0] == 1.5
    assert abs(report.series_values[0] - 1.5) < 1e-15


def test_correspondence_boson_singleton():
    system = LevelSystem(levels=(LN2,), mu=0.0, beta=1.0, statistics="BE")
    report = correspondence_check(system, tol=1e-12)
    assert report.ok
    assert abs(report.character_values[0] - 2.0) < 1e-13


def test_correspondence_three_boson_levels():
    system = LevelSystem(levels=(1.0, 2.0, 3.0), mu=0.0, beta=1.0, statistics="BE")
    report = correspondence_check(system, tol=1e-12)
    assert report.ok
    assert report.max_relative_deviation <= 1e-12


def test_correspondence_rejects_mb():
    system = LevelSystem(levels=(1.0,), mu=0.0, beta=1.0, statistics="MB")
    with pytest.raises(ValueError):
        correspondence_check(system)


def test_level_system_validation():
    with pytest.raises(ValueError):
        LevelSystem(levels=(1.0,), mu=0.0, beta=0.0, statistics="FD")
    with pytest.raises(ValueError):
        LevelSystem(levels=(1.0,), mu=0.0, beta=1.0, statistics="XX")


def test_level_system_reads_numbers_but_not_booleans_or_strings():
    levels = (0.5, 1.5)
    assert LevelSystem(levels, 0.0, 1.0, "FD").levels is levels  # floats pass unconverted
    for given in ([1, 2.5], (x for x in (1, 2.5))):
        converted = LevelSystem(given, 0.0, 1.0, "FD").levels
        assert converted == (1.0, 2.5) and type(converted[0]) is float
    for bad, named in (([1.0, True], "item 1 is True"), (["1"], "item 0 is '1'")):
        with pytest.raises(ValueError, match=f"^levels must be numbers; {named}$"):
            LevelSystem(bad, 0.0, 1.0, "FD")


def test_correspondence_reuses_the_given_ensemble():
    system = LevelSystem(levels=(0.5, 1.5, 4.0), mu=-0.2, beta=1.3, statistics="BE")
    ensemble = grand_ensemble(system)
    assert correspondence_check(system, ensemble=ensemble) == correspondence_check(system)
    other = LevelSystem(levels=(0.5, 1.5), mu=-0.2, beta=1.3, statistics="BE")
    with pytest.raises(ValueError, match="another level system"):
        correspondence_check(other, ensemble=ensemble)


def test_ensemble_report_json():
    system = LevelSystem(levels=(LN2,), mu=0.0, beta=1.0, statistics="FD")
    data = grand_ensemble(system).to_json_dict()
    assert data["xi"] == 1.5
    assert len(data["per_level"]) == 1
    report = grand_ensemble(system)
    rows = report.csv_rows()
    assert rows[0][0] == "level"
    assert len(rows) == 2
    assert report.csv_text() == "".join(",".join(row) + "\n" for row in rows)
    assert rows[1] == ("0", f"{LN2:.17g}", f"{LN2:.17g}", "1.5", f"{1 / 3:.17g}")


def _one_line_csv(report):
    """The CSV table by the one-line rule it had before it was streamed."""
    rows = zip(range(len(report.arguments)), report.system.levels, report.arguments,
               report.per_level_xi, report.per_level_occupation)
    return "level,epsilon,x,xi,occupation\n" + "".join(
        ["%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows])


def _write_system(tmp_path, system):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system.to_json_dict()))
    return str(path)


def _stats_to_file(tmp_path, fmt, input_path):
    """Exit code of ``stats`` on the system file, stdout sent to a file."""
    with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            return main(["--format", fmt, "stats", input_path])


@pytest.mark.parametrize("n", [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                               2 * _CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("statistics", ["BE", "FD", "MB"])
def test_streamed_csv_is_the_one_line_table(tmp_path, statistics, n):
    rng = random.Random(f"{statistics}:{n}")
    levels = [rng.uniform(0.5, 20.0) for _ in range(n)]
    if statistics == "FD" and levels:
        levels[n // 2] = -800.0  # x = -800: the level's xi is inf
    system = LevelSystem(levels=levels, mu=-0.3, beta=1.1, statistics=statistics)
    streamed, read_first = grand_ensemble(system), grand_ensemble(system)
    held = ("_arguments", "_per_level_xi", "_per_level_occupation")
    # no per-level tuple until one is read, and a read builds only that one
    assert [getattr(read_first, name) for name in held] == [None, None, None]
    xi = read_first.per_level_xi
    assert [getattr(read_first, name) is None for name in held] == [True, False, True]
    assert (statistics == "FD" and n > 0) == (math.inf in xi)
    # compared as lists of lines: pytest reports the first differing line of
    # a list at once, where a diff of two long strings takes minutes
    lines = streamed.csv_text().splitlines(keepends=True)
    assert lines == _one_line_csv(streamed).splitlines(keepends=True)
    assert read_first.csv_text().splitlines(keepends=True) == lines
    assert len(lines) == n + 1
    # csv_text builds no per-level Xi; a later read builds the same tuple
    assert streamed.per_level_xi == xi and read_first.per_level_xi is xi
    assert _stats_to_file(tmp_path, "csv", _write_system(tmp_path, system)) == 0
    assert (tmp_path / "stdout.txt").read_text(encoding="utf-8").splitlines(keepends=True) == lines
    explicit = EnsembleReport(system, streamed.arguments, xi,
                              streamed.per_level_occupation, streamed.log_xi, streamed.xi,
                              streamed.omega, streamed.mean_particle_number)
    fresh = grand_ensemble(system)
    assert fresh == explicit and hash(fresh) == hash(explicit)
    assert pickle.loads(pickle.dumps(grand_ensemble(system))) == explicit
    assert repr(grand_ensemble(system)) == repr(explicit)


def test_csv_request_peaks_like_the_text_request(tmp_path):
    # the CSV table is written in pieces, each with its own slice of Xi, so
    # the request holds no more than the text one, which prints six totals
    rng = random.Random(26)
    (tmp_path / "large").mkdir()
    system = LevelSystem(levels=[rng.uniform(0.5, 20.0) for _ in range(100_000)],
                         mu=-0.5, beta=1.2, statistics="FD")
    large = _write_system(tmp_path / "large", system)
    small = _write_system(tmp_path, LevelSystem((1.0, 2.0), 0.0, 1.0, "FD"))
    peaks = {}
    tracemalloc.start()
    try:
        for fmt in ("text", "csv"):
            assert _stats_to_file(tmp_path, fmt, small) == 0  # lazy set-up is not counted
            tracemalloc.reset_peak()
            assert _stats_to_file(tmp_path, fmt, large) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks["csv"] <= 1.1 * peaks["text"], peaks


_JSON_CASES = [(statistics, check) for statistics in ("BE", "FD", "MB")
               for check in (False, True) if not (check and statistics == "MB")]


@pytest.mark.parametrize("n", [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                               2 * _CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("statistics, check", _JSON_CASES,
                         ids=[f"{s}-{'check' if c else 'plain'}" for s, c in _JSON_CASES])
def test_streamed_json_is_json_dumps(tmp_path, statistics, check, n):
    # the JSON rows and the levels are written a slice at a time; the
    # output is still json.dumps of the report's dict payload
    rng = random.Random(f"json:{statistics}:{n}")
    levels = [rng.uniform(0.5, 20.0) for _ in range(n)]
    if statistics == "FD" and levels:
        levels[n // 2] = -800.0  # x = -800: the level's xi is inf
    system = LevelSystem(levels=levels, mu=-0.3, beta=1.1, statistics=statistics)
    argv = ["--format", "json", "stats", _write_system(tmp_path, system)]
    with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--check-correspondence"] * check) == 0
    report = grand_ensemble(system)
    payload = report.to_json_dict()
    if check:
        payload["correspondence"] = correspondence_check(system, ensemble=report).to_json_dict()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert ("Infinity" in text) == (statistics == "FD" and n > 0)
    assert (tmp_path / "stdout.txt").read_text(encoding="utf-8").splitlines(keepends=True) == \
        text.splitlines(keepends=True)


@pytest.mark.parametrize("statistics", ["BE", "FD", "MB"])
def test_stats_requests_peak_like_json_load(tmp_path, statistics):
    # nothing per level is held beyond the levels, so text and CSV requests
    # peak where json.load of their input does, and JSON within twice that
    rng = random.Random(28)
    levels = [rng.uniform(0.5, 20.0) for _ in range(100_000)]
    if statistics == "FD":
        levels[50_000] = -800.0
    (tmp_path / "large").mkdir()
    large = _write_system(tmp_path / "large", LevelSystem(levels, -0.5, 1.2, statistics))
    small = _write_system(tmp_path, LevelSystem((1.0, 2.0), 0.0, 1.0, statistics))
    del levels
    peaks = {}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with open(large, encoding="utf-8") as handle:
            json.load(handle)
        load = tracemalloc.get_traced_memory()[1] - before
        for fmt in ("text", "csv", "json"):
            assert _stats_to_file(tmp_path, fmt, small) == 0  # lazy set-up is not counted
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert _stats_to_file(tmp_path, fmt, large) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks["text"] <= 1.1 * load, (load, peaks)
    assert peaks["csv"] <= 1.1 * load, (load, peaks)
    assert peaks["json"] <= 2 * load, (load, peaks)


def test_bose_geometric_sum_rejects_hopeless_sums_before_looping():
    import time

    start = time.perf_counter()
    with pytest.raises(TailBoundError):
        bose_geometric_sum(-1e-5)
    with pytest.raises(TailBoundError):
        bose_geometric_sum(-5e-324)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("y", (-0.5, -0.01, -3e-3, -1e-4))
def test_bose_geometric_sum_term_limit_is_exact(y):
    # a sum that fits its term limit exactly still converges, one term
    # fewer raises: the early check never cuts a convergent sum short
    value, terms, tail = bose_geometric_sum(y)
    assert bose_geometric_sum(y, max_terms=terms) == (value, terms, tail)
    with pytest.raises(TailBoundError):
        bose_geometric_sum(y, max_terms=terms - 1)
