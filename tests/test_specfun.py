import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from beamtrack.analysis import (
    ConvergenceError,
    QuadratureSpec,
    bessel_i0_scaled,
    integrate_semi_infinite,
    marcum_q1,
)
from beamtrack.astp import harmonic


# ---------------------------------------------------------------- oracles

def i0_series(x, terms=30):
    # I0(x) = sum_k (x/2)^{2k} / (k!)^2
    total = 0.0
    term = 1.0
    for k in range(terms):
        if k > 0:
            term *= (x / 2.0) ** 2 / k**2
        total += term
    return total


def marcum_q1_series_oracle(a, b, tail=1e-14):
    # Q1(a,b) = sum_k e^{-a^2/2} (a^2/2)^k / k! * Q(k+1, b^2/2), with the
    # upper incomplete gamma accumulated by the e^{-y} y^j / j! recurrence.
    m = a * a / 2.0
    y = b * b / 2.0
    pois = math.exp(-m)
    gterm = math.exp(-y)
    gsum = gterm
    total = pois * gsum
    k = 0
    while pois > tail:
        k += 1
        pois *= m / k
        gterm *= y / k
        gsum += gterm
        total += pois * gsum
    return total


# ---------------------------------------------------------------- bessel

def test_i0_scaled_at_zero():
    assert bessel_i0_scaled(0.0) == 1.0


def test_i0_scaled_matches_series_at_one():
    expected = math.exp(-1.0) * i0_series(1.0)
    assert abs(bessel_i0_scaled(1.0) - expected) < 1e-12


def test_i0_scaled_large_argument_asymptotic():
    # I0(x) ~ e^x / sqrt(2 pi x) * (1 + 1/(8x) + 9/(128 x^2))
    x = 700.0
    val = bessel_i0_scaled(x)
    asym = (1.0 + 1.0 / (8 * x) + 9.0 / (128 * x * x)) / math.sqrt(2 * math.pi * x)
    assert math.isfinite(val) and val > 0
    assert abs(val - asym) / asym < 1e-6


def test_i0_scaled_rejects_negative():
    with pytest.raises(ValueError):
        bessel_i0_scaled(-0.5)


# ---------------------------------------------------------------- marcum

def test_marcum_b_zero_is_one():
    for a in [0.0, 0.3, 2.0, 40.0]:
        assert marcum_q1(a, 0.0) == 1.0


def test_marcum_a_zero_is_rayleigh_tail():
    for b in [0.1, 1.0, 3.0]:
        assert abs(marcum_q1(0.0, b) - math.exp(-b * b / 2)) < 1e-15


def test_marcum_matches_series_oracle():
    for a, b in [(1.0, 1.0), (0.5, 2.0), (3.0, 2.5), (4.0, 6.0), (2.0, 0.3)]:
        assert abs(marcum_q1(a, b) - marcum_q1_series_oracle(a, b)) < 1e-10


def test_marcum_rejects_negative():
    with pytest.raises(ValueError):
        marcum_q1(-1.0, 1.0)
    with pytest.raises(ValueError):
        marcum_q1(1.0, -1.0)


def test_marcum_monotone_grid():
    a_grid = np.linspace(0.0, 6.0, 20)
    b_grid = np.linspace(0.0, 6.0, 20)
    q = np.array([[marcum_q1(a, b) for b in b_grid] for a in a_grid])
    assert np.all(q >= 0.0) and np.all(q <= 1.0)
    # nonincreasing in b along every row, nondecreasing in a along every column
    assert np.all(np.diff(q, axis=1) <= 1e-14)
    assert np.all(np.diff(q, axis=0) >= -1e-14)


def test_marcum_symmetry_identity_across_branches():
    # Q1(a,b) + Q1(b,a) = 1 + exp(-(a-b)^2/2) * i0e(a*b), exercised on both
    # sides of the series/tail-form switch.
    for a, b in [(2.0, 3.0), (5.0, 5.5), (6.0, 5.0, ), (7.0, 7.1), (9.0, 8.5), (12.0, 11.0)]:
        lhs = marcum_q1(a, b) + marcum_q1(b, a)
        rhs = 1.0 + math.exp(-((a - b) ** 2) / 2.0) * bessel_i0_scaled(a * b)
        assert abs(lhs - rhs) < 1e-10, (a, b)


def test_marcum_continuity_at_branch_switch():
    # a*b = 30 boundary: values on both sides of the switch agree closely
    a = 5.0
    for b in [30.0 / a - 1e-9, 30.0 / a + 1e-9]:
        assert abs(marcum_q1(a, b) - marcum_q1_series_oracle(a, b)) < 1e-10


def test_marcum_large_arguments_sane():
    assert marcum_q1(100.0, 80.0) > 1.0 - 1e-12
    assert marcum_q1(80.0, 100.0) < 1e-12
    assert 0.5 < marcum_q1(50.0, 49.9) < 0.55


# ---------------------------------------------------------------- harmonic

def test_harmonic_base_cases():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0


def test_harmonic_alternating_binomial_identity():
    # F(p) = sum_{n=1..p} (-1)^{n+1} C(p,n) / n; the alternating sum cancels
    # catastrophically in floats by p = 20, so the oracle runs in rationals
    for p in range(1, 21):
        alt = sum(Fraction((-1) ** (n + 1) * math.comb(p, n), n) for n in range(1, p + 1))
        assert abs(harmonic(p) - float(alt)) < 1e-12, p


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


# ---------------------------------------------------------------- quadrature

def test_quadrature_exponential():
    assert abs(integrate_semi_infinite(lambda u: math.exp(-u)) - 1.0) < 1e-8


def test_quadrature_gamma_two():
    assert abs(integrate_semi_infinite(lambda u: u * math.exp(-u)) - 1.0) < 1e-8


def test_quadrature_scaled_exponential():
    c = 7.3
    val = integrate_semi_infinite(lambda u: math.exp(-u / c) / c)
    assert abs(val - 1.0) < 1e-8


def test_quadrature_agrees_with_direct_infinite_quad():
    # same integrand through scipy's own infinite-interval handling
    f = lambda u: math.exp(-0.37 * u) * math.cos(u) ** 2
    direct, _ = integrate.quad(f, 0.0, np.inf, limit=400)
    assert abs(integrate_semi_infinite(f) - direct) < 1e-7


def test_quadrature_deterministic():
    f = lambda u: math.exp(-u) * math.sin(u) ** 2
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=150)
    assert integrate_semi_infinite(f, spec) == integrate_semi_infinite(f, spec)


def test_quadrature_convergence_error_carries_partial():
    # one subdivision is not enough for a sharp bump; partial estimate survives
    f = lambda u: math.exp(-((u - 40.0) ** 2) * 200.0)
    with pytest.raises(ConvergenceError) as err:
        integrate_semi_infinite(f, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=1))
    assert isinstance(err.value.partial, float)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


# ----------------------------------------------- exponential-average identities

def test_marcum_exponential_average_closed_form():
    # int_0^inf Q1(sqrt(A t), sqrt(B t)) (1/s2) e^{-t/s2} dt
    #   = 1/2 - ((B-A) s2 - 2) / (4 sqrt(1 + (A+B) s2 + s2^2 (A-B)^2 / 4))
    rng = np.random.default_rng(7)
    for _ in range(10):
        a_lo, b_hi = np.sort(rng.uniform(0.05, 6.0, size=2))
        s2 = rng.uniform(0.2, 3.0)
        f = lambda t: marcum_q1(math.sqrt(a_lo * t), math.sqrt(b_hi * t)) * math.exp(-t / s2) / s2
        quad_val = integrate_semi_infinite(f, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=400))
        root = math.sqrt(1.0 + (a_lo + b_hi) * s2 + s2 * s2 * (a_lo - b_hi) ** 2 / 4.0)
        closed = 0.5 - ((b_hi - a_lo) * s2 - 2.0) / (4.0 * root)
        assert abs(quad_val - closed) < 1e-6


def test_rician_i0_exponential_average_constant_is_one():
    # int_0^inf e^{-(A+B)t/2} I0(sqrt(AB) t) (1/s2) e^{-t/s2} dt
    #   = 1 / sqrt(1 + (A+B) s2 + s2^2 (A-B)^2 / 4)
    # (a 1/4-scaled variant of the right-hand side fails this check)
    rng = np.random.default_rng(11)
    for _ in range(10):
        a_lo, b_hi = np.sort(rng.uniform(0.05, 6.0, size=2))
        s2 = rng.uniform(0.2, 3.0)
        c = math.sqrt(a_lo * b_hi)
        decay = (math.sqrt(a_lo) - math.sqrt(b_hi)) ** 2 / 2.0

        def f(t):
            return bessel_i0_scaled(c * t) * math.exp(-decay * t) * math.exp(-t / s2) / s2

        quad_val = integrate_semi_infinite(f, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=400))
        root = math.sqrt(1.0 + (a_lo + b_hi) * s2 + s2 * s2 * (a_lo - b_hi) ** 2 / 4.0)
        assert abs(quad_val - 1.0 / root) < 1e-6
        assert abs(quad_val - 1.0 / (4.0 * root)) > 1e-3
