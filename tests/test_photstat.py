import math

import numpy as np
import pytest

from ghcs import photstat as ps
from ghcs import specfun as sf
from ghcs import states as st
from ghcs.errors import DivergenceError, ParameterError

CS = st.validate([], [])

FIG_GRID = (
    [("F01", st.validate([], [b]), az) for b in (0.2, 1.0, 5.0) for az in (0.25, 0.75, 3.0)]
    + [("F11", st.validate([a], [b]), az)
       for a, b in ((2.0, 4.0), (4.0, 2.0), (3.0, 3.0)) for az in (0.25, 0.75, 3.0)]
    + [("F10", st.validate([a], []), az) for a in (1.5, 2.0, 4.0) for az in (0.25, 0.75)]
    + [("F21", st.validate([3.0, 3.0], [2.0]), az) for az in (0.25, 0.75)]
)


def test_poisson_distribution():
    d = ps.pn_distribution(st.StateSpec(CS, 3.0))
    for n in range(len(d.values)):
        ref = math.exp(-9.0 + n * math.log(9.0) - math.lgamma(n + 1.0))
        assert d.values[n] == pytest.approx(ref, rel=1e-12)
    assert d.norm_residual <= 1e-10


def test_vacuum_distribution():
    d = ps.pn_distribution(st.StateSpec(st.validate([2.0], [3.0]), 0.0))
    assert d.values[0] == 1.0 and len(d.values) == 1


def test_negative_binomial_shape():
    # (1;0): P(n) = (a)_n / n! (1-x)^a x^n
    a, x = 2.0, 0.5625
    d = ps.pn_distribution(st.StateSpec(st.validate([a], []), math.sqrt(x)))
    for n in range(min(12, len(d.values))):
        ref = sf.pochhammer(a, n) / math.factorial(n) * (1 - x) ** a * x**n
        assert d.values[n] == pytest.approx(ref, rel=1e-11)


def test_unnormalizable_circle_has_no_distribution():
    with pytest.raises(DivergenceError):
        ps.pn_distribution(st.StateSpec(st.validate([2.0], []), 1.0))


# -------------------------------------------------------- factorial moments

def test_factorial_moment_power_law():
    for k in (1, 2, 3):
        assert ps.factorial_moment(CS, 2.7, k) == pytest.approx(2.7**k, rel=1e-12)


def test_factorial_moment_brute_force():
    params = st.validate([], [2.0])
    d = ps.pn_distribution(st.StateSpec(params, 2.0), tol=1e-14)
    brute = float(np.sum(d.grid * d.values))
    assert ps.factorial_moment(params, 4.0, 1) == pytest.approx(brute, rel=1e-9)


def test_factorial_moment_at_zero():
    assert ps.factorial_moment(st.validate([2.0], [3.0]), 0.0, 2) == 0.0


def test_mean_and_mandel_geometric_family():
    m, q = ps.mean_and_mandel(st.validate([2.0], []), 0.25)
    assert m == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert q == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_mandel_continuous_extension_at_zero():
    assert ps.mean_and_mandel(st.validate([], [1.0]), 0.0) == (0.0, 0.0)


def test_bessel_family_nonclassical():
    _, q = ps.mean_and_mandel(st.validate([], [1.0]), 9.0)
    assert q < 0.0


# ----------------------------------------------------------- closed forms

def test_closed_form_cs():
    stats = ps.closed_form_stats("CS", CS, 9.0)
    assert stats.mean == 9.0 and stats.mandel_q == 0.0


def test_closed_form_f01_bessel_ratio():
    stats = ps.closed_form_stats("F01", st.validate([], [1.0]), 9.0)
    ref = 3.0 * sf.bessel_i(1.0, 6.0) / sf.bessel_i(0.0, 6.0)
    assert stats.mean == pytest.approx(ref, rel=1e-12)


def test_closed_form_family_mismatch():
    with pytest.raises(ParameterError):
        ps.closed_form_stats("F01", st.validate([2.0], []), 0.5)
    with pytest.raises(ValueError):
        ps.closed_form_stats("XX", CS, 0.5)


def test_f11_reduces_to_cs_when_equal():
    for x in (0.0625, 9.0):
        s1 = ps.closed_form_stats("F11", st.validate([3.0], [3.0]), x)
        assert s1.mean == pytest.approx(x, rel=1e-12)
        assert abs(s1.mandel_q) <= 1e-10 * max(1.0, x)


def test_f21_reduces_to_f10_when_b_matches():
    s21 = ps.closed_form_stats("F21", st.validate([3.0, 2.0], [2.0]), 0.5625)
    s10 = ps.closed_form_stats("F10", st.validate([3.0], []), 0.5625)
    assert s21.mean == pytest.approx(s10.mean, rel=1e-11)
    assert s21.mandel_q == pytest.approx(s10.mandel_q, rel=1e-11)


@pytest.mark.parametrize("family,params,az", FIG_GRID,
                         ids=[f"{f}{p.label()}@{az}" for f, p, az in FIG_GRID])
def test_closed_vs_generic_oracle(family, params, az):
    x = az * az
    stats = ps.closed_form_stats(family, params, x)
    mean, q = ps.mean_and_mandel(params, x, tol=1e-14)
    assert stats.mean == pytest.approx(mean, rel=1e-8)
    assert abs(stats.mandel_q - q) <= 1e-8 * max(1.0, abs(q), mean)
    d = ps.pn_distribution(st.StateSpec(params, az), tol=1e-14)
    k = min(len(d.values), len(stats.pn.values))
    rel = np.abs(d.values[:k] - stats.pn.values[:k]) / np.maximum(stats.pn.values[:k], 1e-300)
    assert float(np.max(rel)) <= 1e-8
    assert d.norm_residual <= 1e-10 and stats.pn.norm_residual <= 1e-10


def test_mandel_sign_structure_f11():
    # Q > 0 for a < b and Q < 0 for a > b
    for az in (0.25, 0.75, 3.0):
        assert ps.mean_and_mandel(st.validate([2.0], [4.0]), az * az)[1] > 0.0
        assert ps.mean_and_mandel(st.validate([4.0], [2.0]), az * az)[1] < 0.0


def test_f10_mandel_independent_of_a():
    for x in (0.0625, 0.5625):
        ref = x / (1.0 - x)
        for a in (1.5, 2.0, 7.0):
            m, q = ps.mean_and_mandel(st.validate([a], []), x, tol=1e-14)
            assert q == pytest.approx(ref, rel=1e-12)
            assert m == pytest.approx(a * x / (1.0 - x), rel=1e-12)


def test_complex_pair_generic_path():
    # conjugate-pair parameters run through the generic machinery only
    params = st.validate([1 + 2j, 1 - 2j], [0.5])
    m, q = ps.mean_and_mandel(params, 0.25)
    assert m > 0.0 and math.isfinite(q)
    with pytest.raises(ParameterError):
        ps.closed_form_stats("F21", params, 0.25)


DRIFT_CASES = [("CS", [], [], 18.0), ("CS", [], [], 20.0), ("CS", [], [], 26.0),
               ("F11", [5.0], [1.0], 17.0), ("F11", [1.0], [2.0], 20.0)]


@pytest.mark.parametrize("family,a,b,az", DRIFT_CASES,
                         ids=[f"{f}({a};{b})@{az:g}" for f, a, b, az in DRIFT_CASES])
def test_pn_distribution_large_amplitude(family, a, b, az):
    # sum P(n) reaches 1 - 1e-12 only if log rho does not drift: a plain
    # running sum is off by ~1e-11 within the first 1,500 terms
    params = st.validate(a, b)
    d = ps.pn_distribution(st.StateSpec(params, az))
    assert d.norm_residual <= 1e-10
    ref = ps.closed_form_stats(family, params, az * az).pn.values
    k = min(len(d.values), len(ref))
    rel = np.abs(d.values[:k] - ref[:k]) / np.maximum(ref[:k], 1e-300)
    assert float(np.max(rel)) <= 1e-8
