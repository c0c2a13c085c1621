import math

import numpy as np
import pytest

from ghcs import states as st
from ghcs import weights as wt
from ghcs.errors import CircleNoGoError, ParameterError

CS = st.validate([], [])


def test_cs_weight_is_unity():
    for x in (0.0, 1.7, 30.0):
        assert wt.weight("CS", CS, x) == 1.0


def test_f10_weight_at_origin():
    assert wt.weight("F10", st.validate([2.0], []), 0.0) == 1.0


def test_f10_weight_needs_a_above_one():
    with pytest.raises(ParameterError):
        wt.weight("F10", st.validate([1.0], []), 0.3)


def test_f21_weight_needs_eta_above_one():
    with pytest.raises(ParameterError):
        wt.weight("F21", st.validate([0.5, 0.5], [1.5]), 0.3)


def test_f21_reduces_to_f10():
    p21 = st.validate([3.0, 2.0], [2.0])
    p10 = st.validate([3.0], [])
    for x in (0.0, 0.5):
        assert wt.weight("F21", p21, x) == pytest.approx(
            wt.weight("F10", p10, x), rel=1e-10
        )


def test_f11_equal_parameters_reduce_to_cs():
    p = st.validate([2.7], [2.7])
    for x in (0.3, 0.8, 5.0):
        assert wt.weight("F11", p, x) == pytest.approx(1.0, abs=1e-10)


def test_weight_tilde_is_weight_over_normalization():
    cases = [("F01", st.validate([], [2.0]), 1.3),
             ("F11", st.validate([2.0], [4.0]), 0.9),
             ("F10", st.validate([3.0], []), 0.4),
             ("F21", st.validate([3.0, 3.0], [2.0]), 0.4)]
    for fam, p, x in cases:
        assert wt.weight_tilde(fam, p, x) == pytest.approx(
            wt.weight(fam, p, x) / st.normalization(p, x), rel=1e-10
        )


# ------------------------------------------------------------ moment checks

def test_cs_zeroth_moment():
    assert wt.moment_integral("CS", CS, 0) == pytest.approx(1.0, rel=1e-12)


def test_f10_beta_integral_oracle():
    # (a-1) Beta(n+1, a-1) = n!/(a)_n
    p = st.validate([3.0], [])
    for n in (0, 2, 7):
        beta = math.gamma(n + 1.0) * math.gamma(3.0) / math.gamma(n + 3.0)
        assert wt.moment_integral("F10", p, n) == pytest.approx(beta, rel=1e-9)


def test_f01_moment_check_b2():
    rep = wt.moment_check("F01", st.validate([], [2.0]), n_max=20)
    assert rep.max_rel_error <= 1e-6
    assert len(rep.records) == 21
    for r in rep:
        assert r.rel_error == abs(r.quad - r.rho) / r.rho


@pytest.mark.parametrize("family,params", [
    ("CS", CS),
    ("F01", st.validate([], [0.2])),
    ("F11", st.validate([4.0], [2.0])),
    ("F11", st.validate([1.3], [4.6])),   # negative noninteger Tricomi argument
    ("F10", st.validate([1.5], [])),
    ("F21", st.validate([3.0, 3.0], [2.0])),
    ("F21", st.validate([2.0, 2.2], [0.7])),  # density singular at the origin
], ids=lambda v: v if isinstance(v, str) else v.label())
def test_moment_checks_sampled_families(family, params):
    rep = wt.moment_check(family, params, n_max=8)
    assert rep.max_rel_error <= 1e-6


@pytest.mark.parametrize("a,b", [(5.0, 1.0), (6.0, 1.5), (2.5, 3.0)])
def test_f11_moment_check_large_tricomi_argument(a, b):
    # the density is U(a-b, 2-b, x): a - b >= 4 and integer 2 - b, where the
    # two-Kummer combination cancels; the Laplace rule serves every x
    rep = wt.moment_check("F11", st.validate([a], [b]), n_max=20)
    assert rep.max_rel_error <= 1e-6


@pytest.mark.parametrize("family,params", [
    ("CS", CS),
    ("F01", st.validate([], [1.0])),
    ("F11", st.validate([2.0], [4.0])),
    ("F10", st.validate([2.0], [])),
    ("F21", st.validate([3.0, 3.0], [2.0])),
], ids=lambda v: v if isinstance(v, str) else v.label())
def test_moment_check_matches_single_moment_integrals(family, params):
    # the one vector pass over all n agrees with n separate scalar passes
    rep = wt.moment_check(family, params, n_max=20)
    for r in rep:
        assert r.quad == pytest.approx(wt.moment_integral(family, params, r.n), rel=1e-10)
        # the estimate meets the per-component rule (summed over two halves)
        assert 0.0 < r.quad_err <= 1e-10 * abs(r.quad) + 1e-14 * r.rho


def test_density_integral_never_calls_g_where_density_underflows():
    # exp(-x) is 0 from x ~ 745 on, and g = exp(x/2) overflows from x ~ 1420:
    # the masked rows leave no inf * 0 (nor an overflow warning) behind
    def g(x):
        assert np.all(np.exp(-x) > 0.0)
        return np.exp(0.5 * x)

    val, err = wt.density_integral("CS", CS, g, rel_tol=1e-10, abs_tol=1e-14)
    assert math.isfinite(val) and val == pytest.approx(2.0, rel=1e-10)
    assert err <= 1e-10 * val


@pytest.mark.parametrize("family,params", [
    ("CS", CS),
    ("F01", st.validate([], [0.2])), ("F01", st.validate([], [2.0])),  # K_0.8, K_1
    # Tricomi U(a-b, 2-b, x): polynomial, reflected Laplace, recurrence and two-Kummer
    ("F11", st.validate([2.0], [4.0])), ("F11", st.validate([3.0], [3.0])),
    ("F11", st.validate([1.3], [4.6])), ("F11", st.validate([0.5], [2.3])),
    ("F10", st.validate([1.5], [])), ("F21", st.validate([3.0, 3.0], [2.0])),
])
def test_array_density_matches_scalar_calls(family, params):
    # quadrature nodes on every branch: small x, x where 2 sqrt(x) or x passes
    # the asymptotic thresholds, and disk points on both sides of 1/2
    r = wt.support_radius(family)
    xs = np.array([1e-6, 0.01, 0.3, 0.6, 0.9, 0.999]) if r == 1.0 else \
        np.array([1e-6, 0.05, 1.5, 2.9, 40.0, 80.0, 400.0, 699.0, 701.0, 5e4])
    rows = wt._density(family, wt.family_params(family, params), xs)
    ref = np.array([wt.weight_tilde(family, params, float(x)) for x in xs])
    assert rows.shape == xs.shape
    assert np.allclose(rows, ref, rtol=1e-13, atol=0.0)


def test_f21_weight_at_origin():
    # finite for b > 1, divergent (integrably) for b < 1
    assert wt.weight("F21", st.validate([3.0, 3.0], [2.0]), 0.0) == pytest.approx(
        4.0, rel=1e-10
    )
    from ghcs.errors import DivergenceError
    with pytest.raises(DivergenceError):
        wt.weight("F21", st.validate([2.0, 2.2], [0.7]), 0.0)


# --------------------------------------------------------------- positivity

def test_positivity_f01_small_b():
    rep = wt.positivity_scan("F01", st.validate([], [0.5]), grid_size=500)
    assert rep.min_value > 0.0 and not rep.negative


def test_positivity_f10_near_vanishing():
    rep = wt.positivity_scan("F10", st.validate([1.0001], []), grid_size=500)
    assert rep.min_value > 0.0
    # the weight approaches its a -> 1 vanishing limit: min at the left edge
    assert rep.min_value == pytest.approx(1e-4 / (1.0 - rep.argmin) ** 2, rel=1e-12)


def test_positivity_f21_reports_only():
    rep = wt.positivity_scan("F21", st.validate([3.0, 3.0], [2.0]), grid_size=500)
    assert math.isfinite(rep.min_value)
    assert rep.argmin > 0.0


# ------------------------------------------------------------------ circle

def test_circle_refusal_for_normalizable_family():
    with pytest.raises(CircleNoGoError):
        wt.circle_weight_attempt(st.validate([0.3, 0.4], [1.5]))


def test_circle_phase_state_constant():
    assert wt.circle_weight_attempt(st.validate([1.0], [])) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-15
    )


def test_circle_refusal_off_limit():
    with pytest.raises(CircleNoGoError):
        wt.circle_weight_attempt(st.validate([1.5], []))


def test_circle_attempt_rejects_plane_families():
    with pytest.raises(ParameterError):
        wt.circle_weight_attempt(CS)
