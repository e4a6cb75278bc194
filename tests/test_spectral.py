import math
import random
import sys

import pytest

from statindex.pairings import pairing_density
from statindex.statmech import LevelSystem, TailBoundError, grand_ensemble
from statindex.spectral import (
    SpectrumSpec,
    _affine_terms,
    build_spectral_report,
    de_rham_type_character,
    formal_chern_character,
    formal_euler_class,
    formal_pairing,
    hurwitz_zeta_em,
    log_gamma,
    spinor_type_character,
    xi_formal,
    zeta_det,
    zeta_det_euler_maclaurin,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
LN2 = math.log(2.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectrumSpec.finite([])
    with pytest.raises(ValueError):
        SpectrumSpec.finite([1.0, -2.0])
    with pytest.raises(ValueError):
        SpectrumSpec.affine(0.0, 1.0)
    with pytest.raises(ValueError):
        SpectrumSpec(form="other")


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_spectrum_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        SpectrumSpec.finite([1.0, bad])
    with pytest.raises(ValueError):
        SpectrumSpec.affine(bad, 1.0)
    with pytest.raises(ValueError):
        SpectrumSpec.affine(1.0, bad)


def test_formal_chern_character_finite():
    assert formal_chern_character(SpectrumSpec.finite([LN2])) == 0.5
    spec = SpectrumSpec.finite([1.0, 2.0, 3.0])
    expected = math.exp(-1) + math.exp(-2) + math.exp(-3)
    assert abs(formal_chern_character(spec) - expected) < 1e-16


def test_formal_chern_character_affine_geometric():
    spec = SpectrumSpec.affine(1.0, 1.0)
    assert abs(formal_chern_character(spec) - 1.0 / (math.e - 1.0)) < 1e-12


def test_hopeless_affine_tail_raises_on_first_term():
    terms = _affine_terms(SpectrumSpec.affine(5e-324, 5e-13), 1e-12)
    with pytest.raises(TailBoundError, match="needs about"):
        next(terms)
    with pytest.raises(TailBoundError, match="needs about"):
        next(_affine_terms(SpectrumSpec.affine(2e-5, 0.5), 1e-13))


@pytest.mark.parametrize(
    "a, c, tol", [(1.0, 0.5, 1e-13), (0.0025, 1.3, 1e-12), (0.3, 2.0, 0.0), (5.0, 1e-300, 0.0)]
)
def test_affine_term_limit_is_exact(a, c, tol):
    # a tail that fits its term limit exactly still converges, one term
    # fewer raises after the loop: the early check never cuts it short
    # (tol = 0 stops where e^{-lambda} underflows)
    spec = SpectrumSpec.affine(a, c)
    full = list(_affine_terms(spec, tol))
    assert list(_affine_terms(spec, tol, max_terms=len(full))) == full
    with pytest.raises(TailBoundError, match="still above"):
        list(_affine_terms(spec, tol, max_terms=len(full) - 1))


def test_xi_formal_finite():
    assert abs(xi_formal(SpectrumSpec.finite([LN2]), "BE") - LN2) < 1e-15
    spec = SpectrumSpec.finite([LN2, LN2])
    assert abs(xi_formal(spec, "FD") - 2.0 * math.log(1.5)) < 1e-15


def test_xi_formal_affine_matches_level_sum():
    # explicit levels 1..60 plus a certified tail against the affine route
    spec = SpectrumSpec.affine(1.0, 1.0)
    system = LevelSystem(
        levels=tuple(float(n) for n in range(1, 61)), mu=0.0, beta=1.0, statistics="BE"
    )
    explicit = grand_ensemble(system).log_xi
    assert abs(xi_formal(spec, "BE") - explicit) < 1e-12


def test_zeta_det_finite_is_plain_product():
    assert zeta_det(SpectrumSpec.finite([1.0, 2.0, 3.0])) == pytest.approx(6.0, rel=1e-15)
    assert zeta_det(SpectrumSpec.finite([5.0])) == pytest.approx(5.0, rel=1e-15)


def _log_balanced(seed, n, spread):
    """n eigenvalues e^{t_i - mean t}, t_i uniform in (-spread, spread)."""
    rng = random.Random(seed)
    t = [rng.uniform(-spread, spread) for _ in range(n)]
    mean = math.fsum(t) / n
    return [math.exp(x - mean) for x in t]


@pytest.mark.parametrize("n, spread", [(1_000, 3.0), (1_000, 30.0), (10_000, 3.0),
                                       (10_000, 30.0), (100_000, 3.0)])
def test_finite_zeta_det_accuracy_budget(n, spread):
    # relative error within u (sum |ln lambda| + 2) against mpmath at 50
    # digits; seed 16 at n = 10^4, spread 3 was once refused as "internal
    # check failed", though its product is within 4.4e-15 of mpmath
    mpmath = pytest.importorskip("mpmath")
    eigs = _log_balanced(16, n, spread)
    with mpmath.workdps(50):
        expected = mpmath.exp(mpmath.fsum(map(mpmath.log, eigs)))
        error = abs((zeta_det(SpectrumSpec.finite(eigs)) - expected) / expected)
    assert error <= 2.0**-53 * (math.fsum(abs(math.log(x)) for x in eigs) + 2.0)


def test_zeta_det_positive_integers():
    got = zeta_det(SpectrumSpec.affine(1.0, 1.0))
    assert abs(got - SQRT_2PI) < 1e-10


def test_zeta_det_scaling_examples():
    assert abs(zeta_det(SpectrumSpec.affine(2.0, 1.0)) - math.sqrt(math.pi)) < 1e-10
    assert abs(zeta_det(SpectrumSpec.affine(1.0, 0.5)) - math.sqrt(2.0)) < 1e-10
    expected = 3.0 ** (-1.5) * SQRT_2PI
    assert abs(zeta_det(SpectrumSpec.affine(3.0, 2.0)) - expected) < 1e-10


def test_zeta_det_scaling_law_random():
    rng = random.Random(20260810)
    for _ in range(8):
        a = rng.uniform(0.5, 4.0)
        c = rng.uniform(0.3, 3.0)
        lhs = zeta_det(SpectrumSpec.affine(a, c))
        rhs = a ** (0.5 - c) * zeta_det(SpectrumSpec.affine(1.0, c))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_euler_maclaurin_oracle():
    assert abs(zeta_det_euler_maclaurin(1.0, 1.0) - SQRT_2PI) < 1e-8
    assert abs(zeta_det_euler_maclaurin(2.0, 1.0) - math.sqrt(math.pi)) < 1e-8


def test_hurwitz_zeta_reference_points():
    assert abs(hurwitz_zeta_em(2.0, 1.0) - math.pi**2 / 6.0) < 1e-12
    assert abs(hurwitz_zeta_em(0.0, 1.0) - (-0.5)) < 1e-12
    assert abs(hurwitz_zeta_em(0.0, 0.25) - (0.5 - 0.25)) < 1e-12
    assert abs(hurwitz_zeta_em(-1.0, 1.0) - (-1.0 / 12.0)) < 1e-12


def test_log_gamma_certified():
    # exact values: ln Gamma(n) = ln (n - 1)! and ln Gamma(1/2) = (1/2) ln pi
    for n in (1, 2, 3, 4, 7, 11, 26, 100, 171, 1000):
        exact = math.log(math.factorial(n - 1))  # of the exact integer
        assert abs(log_gamma(float(n)) - exact) < 1e-13 * max(1.0, abs(exact)), n
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def test_log_gamma_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(41)
    points = [10 ** rng.uniform(-4.0, 4.0) for _ in range(200)] + [1e-300, 5e-324, 1e12]
    # 1e18 up to max float, where the Stirling terms' powers of x would
    # overflow; ln Gamma itself passes max float (inf) from about 2.56e305
    points += [10 ** rng.uniform(18.0, 308.0) for _ in range(100)]
    points += [1e18, 1.35e18, 2e18, 2.555e305, 2.558e305, 1e308, sys.float_info.max]
    for x in points:
        with mpmath.workdps(30):
            expected = float(mpmath.loggamma(x))
        value = log_gamma(x)
        assert value == expected or abs(value - expected) < 1e-13 * max(1.0, abs(expected)), x


def test_hurwitz_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(43)
    # s in [-1, 3.5] away from the pole, c across the range the affine
    # determinant uses and beyond; zeta_det differentiates at s = +/-2e-5
    grid = [(rng.uniform(-1.0, 3.5), rng.uniform(0.05, 6.0)) for _ in range(200)]
    grid += [(s, c) for s in (-2e-5, 0.0, 2e-5) for c in (0.05, 0.2, 1.0, 3.0)]
    for s, c in grid:
        if abs(s - 1.0) < 0.05:
            continue
        with mpmath.workdps(30):
            expected = float(mpmath.zeta(s, c))
        assert abs(hurwitz_zeta_em(s, c) - expected) < 1e-12 * max(1.0, abs(expected)), (s, c)


def test_zeta_det_affine_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(47)
    grid = [(rng.uniform(0.05, 5.0), rng.uniform(0.05, 6.0)) for _ in range(200)]
    for a, c in grid:
        # det' = exp(-zeta_F'(0)) with zeta_F(s) = a^{-s} zeta_H(s, c)
        with mpmath.workdps(30):
            log_det = mpmath.log(a) * (mpmath.mpf(1) / 2 - c) - mpmath.zeta(0, c, derivative=1)
            expected = float(mpmath.exp(log_det))
        got = zeta_det(SpectrumSpec.affine(a, c))
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected)), (a, c)


def test_formal_euler_class():
    assert formal_euler_class(SpectrumSpec.finite([1.0, 2.0, 3.0])) == pytest.approx(6.0)
    assert abs(formal_euler_class(SpectrumSpec.affine(1.0, 1.0)) - SQRT_2PI) < 1e-10
    for spec in (SpectrumSpec.finite(_log_balanced(3, 100, 30.0)), SpectrumSpec.affine(0.7, 2.5)):
        assert formal_euler_class(spec) == zeta_det(spec)


def test_formal_pairings_exact_cancellation():
    spec = SpectrumSpec.finite([1.0, 2.0, 3.0])
    assert formal_pairing(spec, "ff") == pytest.approx(6.0, rel=1e-15)
    assert formal_pairing(SpectrumSpec.finite([2.0]), "bb") == pytest.approx(2.0, rel=1e-15)


def test_formal_fb_pairing_hand_values():
    spec = SpectrumSpec.finite([LN2])
    assert abs(formal_pairing(spec, "fb") - 3.0 * LN2) < 1e-15
    assert abs(formal_pairing(spec, "fb", "nondegenerate") - LN2) < 1e-16


def test_formal_bf_pairing_hand_value():
    lam = LN2
    spec = SpectrumSpec.finite([lam])
    expected = lam * ((1 - 0.5) / (1 + 0.5)) ** 2
    assert abs(formal_pairing(spec, "bf") - expected) < 1e-15
    assert abs(formal_pairing(spec, "bf", "nondegenerate") - lam) < 1e-16


def test_ff_scale_consistency():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(1, 5)
        eigs = [rng.uniform(0.3, 3.0) for _ in range(n)]
        scale = rng.uniform(0.5, 2.5)
        base = formal_pairing(SpectrumSpec.finite(eigs), "ff")
        scaled = formal_pairing(SpectrumSpec.finite([scale * e for e in eigs]), "ff")
        assert scaled == pytest.approx(scale**n * base, rel=1e-12)


@pytest.mark.parametrize("mode", ["exact", "nondegenerate"])
@pytest.mark.parametrize("kind", ["fb", "bb", "ff", "bf"])
def test_one_root_densities_are_read_from_three_log_sums(kind, mode):
    # scalar 1 and no e^{sx} factor: lambda^p (1 - e^{-lambda})^b
    # (1 + e^{-lambda})^f is all a one-root density holds, so sum ln lambda,
    # ln Xi_BE and ln Xi_FD give every product over the spectrum
    density = pairing_density(kind, 1, mode)
    assert density.scalar == 1
    assert density.factors[0].exp_coeff == 0


_SPECTRA = [[1.0, 2.0, 3.0], [0.693], [0.25, 1.5, 4.0, 9.75], [0.01, 0.37, 2.2, 13.0, 41.5],
            [5e-4], [1e-320, 2.0], [1e16] * 25 + [1e-16] * 25, _log_balanced(5, 3000, 8.0)]


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("eigs", _SPECTRA, ids=range(len(_SPECTRA)))
def test_determinant_valued_pairings_equal_it_bit_for_bit(eigs, graded):
    report = build_spectral_report(SpectrumSpec.finite(eigs, graded=graded))
    values = [report.pairings[kind][mode] for kind in ("ff", "bb")
              for mode in ("exact", "nondegenerate")]
    values += [report.pairings[kind]["nondegenerate"] for kind in ("fb", "bf")]
    assert values == [report.determinant] * 6


def _budget_spectra():
    """Seeded log-balanced spectra of 1 to 3,000 eigenvalues, and spectra
    where 1 - e^{-lambda} cancels or rounds to 0."""
    rng = random.Random(59)
    spectra = [_log_balanced(seed, round(10 ** rng.uniform(0.0, math.log10(3000.0))),
                             rng.uniform(0.5, 12.0)) for seed in range(60)]
    spectra += [[5e-4], [1e-17], [1e-320, 2.0], [3e-9, 0.02, 700.0], [0.01, 0.37, 2.2, 13.0]]
    return spectra


def test_formal_pairing_accuracy_budget():
    # every normal pairing value within 2u (sum |ln lambda| + |b| ln Xi_BE
    # + |f| ln Xi_FD + 2) of mpmath at 40 digits, also where 1 - e^{-lambda}
    # cancels (5e-4) or rounds to 0 (1e-17, 1e-320)
    mpmath = pytest.importorskip("mpmath")
    exponents = {"fb": (-1, 1), "bf": (2, -2), "ff": (0, 0), "bb": (0, 0)}
    for eigs in _budget_spectra():
        report = build_spectral_report(SpectrumSpec.finite(eigs))
        with mpmath.workdps(40):
            log_det = mpmath.fsum(map(mpmath.log, eigs))
            log_be = -mpmath.fsum(mpmath.log(-mpmath.expm1(-x)) for x in eigs)
            log_fd = mpmath.fsum(mpmath.log1p(mpmath.exp(-x)) for x in eigs)
            abs_log_det = math.fsum(abs(math.log(x)) for x in eigs)
            for kind, exact in exponents.items():
                for mode, (b, f) in (("exact", exact), ("nondegenerate", (0, 0))):
                    got = report.pairings[kind][mode]
                    if not sys.float_info.min <= got < math.inf:
                        continue
                    expected = mpmath.exp(log_det - b * log_be + f * log_fd)
                    budget = 2.0**-52 * (abs_log_det + abs(b) * report.log_xi_be
                                         + abs(f) * report.log_xi_fd + 2.0)
                    assert abs(got / expected - 1) <= budget, (len(eigs), kind, mode)


def test_pairings_restricted_to_finite_spectra():
    with pytest.raises(ValueError):
        formal_pairing(SpectrumSpec.affine(1.0, 1.0), "ff")


def test_grading_squares_de_rham_character():
    eigs = [0.7, 1.3, 2.9]
    plain = de_rham_type_character(SpectrumSpec.finite(eigs, graded=False))
    squared = de_rham_type_character(SpectrumSpec.finite(eigs, graded=True))
    assert squared == pytest.approx(plain * plain, rel=1e-15)


def test_spinor_type_character_value():
    spec = SpectrumSpec.finite([LN2])
    expected = math.sqrt(2.0) + 1.0 / math.sqrt(2.0)
    assert spinor_type_character(spec) == pytest.approx(expected, rel=1e-15)


def test_cross_module_character_identity():
    # spectrum lambda_i = beta*(eps_i - mu) reproduces the ensemble values
    levels = (0.9, 1.7, 2.4)
    beta = 1.3
    system = LevelSystem(levels=levels, mu=0.1, beta=beta, statistics="BE")
    lams = [beta * (e - 0.1) for e in levels]
    spec = SpectrumSpec.finite(lams)
    assert abs(xi_formal(spec, "BE") - grand_ensemble(system).log_xi) < 1e-14
    fd_system = LevelSystem(levels=levels, mu=0.1, beta=beta, statistics="FD")
    assert abs(xi_formal(spec, "FD") - grand_ensemble(fd_system).log_xi) < 1e-14


def test_spectral_report_and_json():
    report = build_spectral_report(SpectrumSpec.finite([1.0, 2.0]))
    data = report.to_json_dict()
    assert data["euler_class"] == pytest.approx(2.0)
    assert set(data["pairings"]) == {"fb", "bb", "ff", "bf"}
    affine_report = build_spectral_report(SpectrumSpec.affine(1.0, 1.0))
    assert affine_report.pairings is None
    again = SpectrumSpec.from_json_dict(report.spec.to_json_dict())
    assert again == report.spec
