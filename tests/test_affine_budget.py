"""The affine spectrum's closed forms against mpmath and against the
term-by-term sums they replaced.

For lambda_n = a(n + c) the chern character, ln Xi_BE, ln Xi_FD and the
determinant are held to the relative bounds their docstrings state, with
u = 2^-53, on a in [1e-8, 50] and c in [1e-3, 1e3].  The reference sums
every mode below n = 20 - c at 40 digits and the rest by Euler-Maclaurin,
whose integral is a dilogarithm and whose derivatives are polylogarithms
of negative order: a route that shares nothing with the Mellin expansion
or the Lambert series.  The ``ci`` profile runs ten times as many points:

    python -m pytest -q tests/test_affine_budget.py --hypothesis-profile=ci
"""

import math
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from statindex import spectral
from statindex.series import bernoulli_numbers
from statindex.spectral import (
    SpectrumSpec,
    _affine_terms,
    _lambert_log_xis,
    _mellin_log_xis,
    formal_chern_character,
    xi_formal,
    zeta_det,
)
from statindex.statmech import _KERNELS

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given = hypothesis.example, hypothesis.given

U = 2.0 ** -53
MIN_NORMAL = 2.2250738585072014e-308

def _eulerian_numbers(top):
    """Rows 0..top of the Eulerian numbers A(n, k), k = 0..n-1 (row 0 is [1])."""
    rows = [[1]]
    for n in range(1, top + 1):
        prev = rows[-1] + [0]
        rows.append([(k + 1) * prev[k] + (n - k) * (prev[k - 1] if k else 0) for k in range(n)])
    return rows


_EULERIAN = _eulerian_numbers(23)


def _li_negative(n, z):
    """Li_{-n}(z) = z A_n(z) / (1 - z)^{n+1}, A_n the Eulerian polynomial."""
    if n == 0:
        return z / (1 - z)
    return z * mpmath.polyval(_EULERIAN[n][::-1], z) / (1 - z) ** (n + 1)


def _li2(z):
    if z > 0.5:  # reflected, where the series in z converges slowly
        return mpmath.pi ** 2 / 6 - mpmath.log(z) * mpmath.log1p(-z) - mpmath.polylog(2, 1 - z)
    return mpmath.polylog(2, z)


def _mp_log_xis(a, c, head=20, terms=12):
    """(ln Xi_BE, ln Xi_FD) at 40 digits.  For a >= 1/2 every mode is added
    until the terms fall below 1e-40 of the sum.  Below it the modes n < N,
    N = max(0, ceil(head - c)), are added and the rest is

        int_N^inf f + f(N)/2 - sum_k B_2k/(2k)! f^(2k-1)(N),

    with y0 = a(N + c): the integral is Li_2(e^{-y0})/a (BE) or
    -Li_2(-e^{-y0})/a (FD), and f^(j)(N) = -a^j Li_{1-j}(e^{-y0}) (BE) or
    a^j Li_{1-j}(-e^{-y0}) (FD) for odd j.  The summand's nearest
    singularity is at least 12 away from N, so the 12 terms leave an error
    far below 1e-20 of the value."""
    with mpmath.workdps(40):
        a, c = mpmath.mpf(a), mpmath.mpf(c)

        def be_log(y):
            return -mpmath.log(-mpmath.expm1(-y)) if y < 1 else -mpmath.log1p(-mpmath.exp(-y))

        def fd_log(y):
            return mpmath.log1p(mpmath.exp(-y))

        if a >= 0.5:
            be = fd = mpmath.mpf(0)
            n = 0
            while True:
                y = a * (n + c)
                be, fd = be + be_log(y), fd + fd_log(y)
                if be_log(y) < be * mpmath.mpf(10) ** -40:
                    return be, fd
                n += 1
        first = max(0, int(mpmath.ceil(head - c)))
        ys = [a * (n + c) for n in range(first)]
        be = mpmath.fsum(map(be_log, ys))
        fd = mpmath.fsum(map(fd_log, ys))
        y0 = a * (first + c)
        z = mpmath.exp(-y0)
        be += _li2(z) / a + be_log(y0) / 2
        fd += -mpmath.polylog(2, -z) / a + fd_log(y0) / 2
        for k in range(1, terms + 1):
            weight = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * a ** (2 * k - 1)
            be += weight * _li_negative(2 * k - 2, z)
            fd -= weight * _li_negative(2 * k - 2, -z)
        return be, fd


def _within(got, exact, budget):
    """|got - exact| <= budget |exact|, plus one subnormal step where the
    exact value is below the normal range."""
    slack = math.ulp(0.0) if abs(exact) < MIN_NORMAL else 0.0
    return abs(mpmath.mpf(got) - exact) <= budget * abs(exact) + slack


def _log_sum_budget(a, c):
    return U * (a * c + abs(math.log(-math.expm1(-a))) + 8)


_decades = st.floats(-8.0, math.log10(50.0)).map(lambda k: 10.0 ** k)
_offsets = st.floats(-3.0, 3.0).map(lambda k: 10.0 ** k)


# the gate's corners, the old absolute-accuracy faults (5, 10) and (10, 3),
# the requests that were slow or refused, a chern character taken through
# logarithms (ac = 720 >= 700, with a small enough that it is normal), and
# a lowest mode a*c that is subnormal or rounds to 0
@example(a=0.3, c=0.25 / 0.3)
@example(a=0.3, c=0.84)
@example(a=0.31, c=0.2)
@example(a=5.0, c=10.0)
@example(a=10.0, c=3.0)
@example(a=2.0, c=3.0)
@example(a=1e-4, c=1.0)
@example(a=2e-5, c=1.0)
@example(a=1e-6, c=1.0)
@example(a=1e-8, c=1e3)
@example(a=1e-8, c=7.2e10)
@example(a=50.0, c=1e-3)
@example(a=0.7, c=1e-320)
@example(a=0.5, c=5e-324)
@given(_decades, _offsets)
def test_affine_kernels_within_their_budgets(a, c):
    spec = SpectrumSpec.affine(a, c)
    with mpmath.workdps(40):
        exact_chern = mpmath.exp(-mpmath.mpf(a) * c) / -mpmath.expm1(-mpmath.mpf(a))
        log_det = ((mpmath.mpf(1) / 2 - c) * mpmath.log(a) - mpmath.loggamma(c)
                   + mpmath.log(2 * mpmath.pi) / 2)
    exact_be, exact_fd = _mp_log_xis(a, c)
    chern_budget = U * (a * c + abs(math.log(-math.expm1(-a))) + 4)
    assert _within(formal_chern_character(spec), exact_chern, chern_budget), (a, c)
    assert _within(xi_formal(spec, "BE"), exact_be, _log_sum_budget(a, c)), (a, c)
    assert _within(xi_formal(spec, "FD"), exact_fd, _log_sum_budget(a, c)), (a, c)
    if log_det > math.log(sys.float_info.max):
        with pytest.raises(OverflowError, match="determinant"):
            zeta_det(spec)
        return
    det_budget = U * (4 * abs((0.5 - c) * math.log(a)) + 4 * abs(math.lgamma(c)) + 16)
    with mpmath.workdps(40):
        assert _within(zeta_det(spec), mpmath.exp(log_det), det_budget), (a, c)


def test_literal_tables_regenerate_exactly():
    bern = bernoulli_numbers(18)
    at_half = [(Fraction(2) ** (1 - j) - 1) * b for j, b in enumerate(bern)]  # B_j(1/2)
    rows = []
    for n in range(1, 17):
        b_n = -bern[1] if n == 1 else bern[n]  # B_1 = +1/2 in the weight
        if b_n:
            weight = (-1) ** n * b_n / (n * (n + 1) * factorial(n))
            rows.append((n, tuple(float(weight * comb(n + 1, 2 * i) * at_half[2 * i])
                                  for i in range((n + 1) // 2 + 1))))
    assert spectral._MELLIN_ROWS == tuple(rows)


@pytest.mark.parametrize("a", [0.01, 0.03, 0.1, 0.3, 0.31, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("c", [1e-3, 0.2, 1.0, 3.3, 30.0])
def test_closed_forms_agree_with_the_term_by_term_oracle(a, c):
    # tol = 0 adds every mode until e^{-lambda} underflows
    spec = SpectrumSpec.affine(a, c)
    eigenvalues = list(_affine_terms(spec, 0.0))
    chern = math.fsum(math.exp(-lam) for lam in eigenvalues)
    assert abs(formal_chern_character(spec) - chern) <= 2 * U * (a * c + 4) * chern
    budget = _log_sum_budget(a, c)
    for statistics in ("BE", "FD"):
        direct = math.fsum(_KERNELS[statistics][0](eigenvalues))
        assert abs(xi_formal(spec, statistics) - direct) <= budget * direct, statistics


@pytest.mark.parametrize("a", [0.02, 0.1, 0.2, 0.3])
@pytest.mark.parametrize("ac", [0.02, 0.1, 0.25])
def test_expansion_and_lambert_series_agree_where_both_hold(a, ac):
    # two independent formulas for the same sums, on the expansion's range
    mellin, lambert = _mellin_log_xis(a, ac / a), _lambert_log_xis(a, ac / a)
    for got, want in zip(mellin, lambert):
        assert abs(got - want) <= 2 * _log_sum_budget(a, ac / a) * want
