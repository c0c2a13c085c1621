import math
import tracemalloc

import numpy as np
import pytest

from ghcs import cli
from ghcs import states as st
from ghcs import weights as wt
from ghcs.errors import CircleNoGoError, ParameterError

CS = st.validate([], [])


def positivity_scan(family, params, grid_size, x_min=1e-6):
    """(min, argmin) of the weight on a log-dense grid over (0, R), R capped at
    1e4 on the plane, the disk grid crowding towards both ends."""
    if math.isinf(wt.support_radius(family)):
        grid = np.logspace(math.log10(x_min), 4.0, grid_size)
    else:
        half = grid_size // 2
        grid = np.concatenate([np.logspace(math.log10(x_min), math.log10(0.5), half),
                               1.0 - np.logspace(math.log10(0.5), -8, grid_size - half)])
    values = wt.weight(family, params, grid)
    k = int(np.argmin(values))
    return float(values[k]), float(grid[k])


def single_moment(family, params, n, quad_tol=1e-10):
    """integral_0^R x^n wt(x) dx in a pass of its own."""
    return float(wt._moment_integrals(family, params, np.array([n]), quad_tol)[0][0])


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


def test_f11_coherent_weight_beyond_x_700():
    # w = sign exp(log|wt| + log N): the density underflows and N overflows
    # there, their product stays 1
    for x in (705.0, 1e3, 1e4):
        assert abs(wt.weight("F11", st.validate([3.0], [3.0]), x) - 1.0) <= 1e-11
    assert math.isfinite(positivity_scan("F11", st.validate([2.0], [4.0]), 2000)[0])


@pytest.mark.parametrize("family,params,xs", [
    ("F11", st.validate([3.0], [3.0]), (701.0, 705.0, 708.0)),
    ("F01", st.validate([], [2.0]), (1.24e5, 1.25e5, 1.26e5)),  # wt from e^-701 to e^-706
])
def test_density_forms_agree_beyond_x_700(family, params, xs):
    # one (log|wt|, sign) form: weight_tilde is not cut to 0 where it passes
    # e^-700, and stays weight / normalization down to the least normal double
    for x in xs:
        ln, sign = wt.log_weight_tilde(family, params, x)
        ref = wt.weight(family, params, x) * math.exp(-st.log_terms(params, x)[1])
        for v in (wt.weight_tilde(family, params, x), sign * math.exp(ln)):
            assert v > 0.0 and v == pytest.approx(ref, rel=1e-12)


def test_weight_keeps_the_argument_shape():
    p = st.validate([2.0], [4.0])
    xs = np.array([0.3, 2.0, 9.0])
    for f in (wt.weight, wt.weight_tilde):
        assert isinstance(f("F11", p, 2.0), float)
        assert np.array_equal(f("F11", p, xs), [f("F11", p, v) for v in xs.tolist()])
    assert all(isinstance(v, float) for v in wt.log_weight_tilde("F11", p, 2.0))


@pytest.mark.parametrize("f", [wt.weight, wt.weight_tilde, wt.log_weight_tilde])
@pytest.mark.parametrize("family,params", [("F01", st.validate([], [2.0])),
                                           ("F11", st.validate([2.0], [4.0]))])
def test_plane_weights_refuse_the_origin(f, family, params):
    # one rule for every entry point, raised before any evaluator runs
    with pytest.raises(ValueError, match=f"{family} weight needs x > 0"):
        f(family, params, 0.0)


def test_weight_on_a_grid_takes_one_slice_per_octave(monkeypatch):
    # 2,000 log-spaced points over ten decades lie in 34 octaves of x: one
    # log_terms pass per octave, where one per point took 2,000, and the
    # longer slice of the octave moves log N by no more than its last bit
    xs = np.logspace(-6, 4, 2000)
    for family, params in (("F01", st.validate([], [2.0])), ("F11", st.validate([3.0], [3.0]))):
        ref = np.array([wt.weight(family, params, x) for x in xs.tolist()])
        calls = []
        log_terms = wt.log_terms
        monkeypatch.setattr(wt, "log_terms", lambda p, x: calls.append(x) or log_terms(p, x))
        tracemalloc.start()
        try:
            w = wt.weight(family, params, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert len(calls) <= 40
        assert peak <= 24e6
        assert np.max(np.abs(w / ref - 1.0)) <= 9e-16


def test_f21_weight_inside_the_circle_band():
    # 1 - 1e-14 is inside the support [0, 1) and within specfun.UNIT_BAND of
    # the circle, which is StateSpec's test: the weight is w~ N with N at x as
    # given, finite for eta = 4.  w~ = 2 om^2 2F1(1, 1; 3; om) for (3, 3; 2)
    mpmath = pytest.importorskip("mpmath")
    x = 1.0 - 1e-14
    w = wt.weight("F21", st.validate([3.0, 3.0], [2.0]), x)
    with mpmath.workdps(40):
        om = 1 - mpmath.mpf(x)
        ref = 2 * om**2 * mpmath.hyp2f1(1, 1, 3, om) * mpmath.hyp2f1(3, 3, 2, x)
    assert math.isfinite(w) and w == pytest.approx(float(ref), rel=1e-10)


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
    assert single_moment("CS", CS, 0) == pytest.approx(1.0, rel=1e-12)


def test_f10_beta_integral_oracle():
    # (a-1) Beta(n+1, a-1) = n!/(a)_n
    p = st.validate([3.0], [])
    for n in (0, 2, 7):
        beta = math.gamma(n + 1.0) * math.gamma(3.0) / math.gamma(n + 3.0)
        assert single_moment("F10", p, n) == pytest.approx(beta, rel=1e-9)


def test_moment_check_refuses_negative_n_max():
    with pytest.raises(ValueError, match="n_max"):
        wt.moment_check("CS", st.validate(), n_max=-1)


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
    ("F21", st.validate([15.0, 20.0], [2.0])),  # log case whose log part cancels
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
        assert r.quad == pytest.approx(single_moment(family, params, r.n), rel=1e-10)
        # the estimate meets the per-component rule
        assert 0.0 < r.quad_err <= 1e-10 * abs(r.quad) + 1e-14 * r.rho


def test_verify_moment_sets_take_few_density_calls(monkeypatch):
    # one density call per refinement round, on the nodes of both halves of
    # the unit map: a pass with one call per panel made 351 calls on 5,265
    # nodes over the 11 sets of `ghcs verify moments`
    sizes = []
    ln_density = wt._ln_density
    monkeypatch.setattr(wt, "_ln_density", lambda family, vals, x, om=None:
                        sizes.append(len(x)) or ln_density(family, vals, x, om))
    checks = []
    cli._verify_moments(checks)
    assert len(checks) == 11 and all(c["pass"] for c in checks)
    assert len(sizes) <= 100
    assert sum(sizes) <= 5265


def test_density_integral_carries_log_density_where_it_underflows():
    # exp(-x) is 0 from x ~ 745 on, and exp(x/2) overflows from x ~ 1420:
    # g takes log wt into its exponent, so these nodes leave no inf * 0 (nor
    # an overflow warning, an error in this suite) behind
    seen = []

    def g(x, log_wt):
        seen.append(x.max())
        return np.exp(0.5 * x + log_wt)

    val, err = wt.density_integral("CS", CS, g, rel_tol=1e-10, abs_tol=1e-14)
    assert max(seen) > 1420.0
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
    rows = wt.weight_tilde(family, params, xs)
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
    assert positivity_scan("F01", st.validate([], [0.5]), 500)[0] > 0.0


def test_positivity_f10_near_vanishing():
    low, at = positivity_scan("F10", st.validate([1.0001], []), 500)
    assert low > 0.0
    # the weight approaches its a -> 1 vanishing limit: min at the left edge
    assert low == pytest.approx(1e-4 / (1.0 - at) ** 2, rel=1e-12)


def test_positivity_f21_reports_only():
    low, at = positivity_scan("F21", st.validate([3.0, 3.0], [2.0]), 500)
    assert math.isfinite(low)
    assert at > 0.0


WEIGHT_SETS = [("CS", CS), ("F01", st.validate([], [2.0])), ("F11", st.validate([2.0], [4.0])),
               ("F10", st.validate([2.0], [])), ("F21", st.validate([3.0, 3.0], [2.0]))]


@pytest.mark.parametrize("entry", [wt.weight, wt.weight_tilde, wt.log_weight_tilde],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("family,params", WEIGHT_SETS, ids=[f for f, _ in WEIGHT_SETS])
def test_nan_x_is_out_of_range(entry, family, params):
    # nan passes x < 0 and x >= R alike; it is refused as out of range, not
    # returned (CS gave 1.0) or left to a special function deep inside
    with pytest.raises(ValueError, match="outside"):
        entry(family, params, math.nan)


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
