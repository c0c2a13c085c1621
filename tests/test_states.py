import cmath
import itertools
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from ghcs import ladder as ld
from ghcs import photstat as ps
from ghcs import states as st
from ghcs.errors import ConvergenceError, DivergenceError, ParameterError

CS = st.validate([], [])

# families reused across property tests
PARAM_MATRIX = [
    st.validate([], []),
    st.validate([], [0.2]),
    st.validate([], [5.0]),
    st.validate([2.0], [4.0]),
    st.validate([4.0], [2.0]),
    st.validate([2.0], []),
    st.validate([3.0, 3.0], [2.0]),
    st.validate([-1.5, -1.2], [2.0]),
    st.validate([1 + 2j, 1 - 2j], [0.5]),
    st.validate([0.3, 0.4], [1.5]),
]


# ---------------------------------------------------------------- validate

def test_validate_all_positive():
    p = st.validate([], [2.5])
    assert (p.p, p.q) == (0, 1)


def test_validate_negative_pair_same_integer_part():
    p = st.validate([-1.5, -1.2], [])
    assert p.p == 2


def test_validate_rejects_negative_integer():
    with pytest.raises(ParameterError) as ei:
        st.validate([-2.0], [])
    assert ei.value.rule == "nonpositive-integer"
    assert ei.value.which == "a" and ei.value.index == 0


@pytest.mark.parametrize("a,b,which", [
    ([], [math.inf], "b"), ([math.nan], [], "a"), ([2.0, complex(1.0, math.inf)], [], "a"),
])
def test_validate_rejects_non_finite(a, b, which):
    # a non-finite real or imaginary part is refused by name, before any
    # rounding or series sees it
    with pytest.raises(ParameterError) as ei:
        st.validate(a, b)
    assert (ei.value.rule, ei.value.which, ei.value.index) == ("non-finite", which, len(a + b) - 1)


def test_fock_basis_vector_refuses_negative_index():
    assert st.fock_basis_vector(0).coeffs.tolist() == [1.0]
    with pytest.raises(ParameterError):
        st.fock_basis_vector(-1)


def test_validate_rejects_zero():
    with pytest.raises(ParameterError):
        st.validate([1.0], [0.0])


def test_validate_rejects_unpaired_negative():
    with pytest.raises(ParameterError) as ei:
        st.validate([-2.5], [])
    assert ei.value.rule == "negative-pairing"


def test_validate_rejects_mismatched_integer_parts():
    with pytest.raises(ParameterError) as ei:
        st.validate([-1.5, -2.2], [])
    assert ei.value.rule == "negative-integer-part-pairing"


def test_validate_conjugate_pair():
    p = st.validate([1 + 2j, 1 - 2j], [0.5])
    assert p.p == 2


def test_validate_rejects_lone_complex():
    with pytest.raises(ParameterError) as ei:
        st.validate([1 + 2j], [1.0])
    assert ei.value.rule == "conjugate-pair"


def test_validate_rejects_cross_list_conjugates():
    with pytest.raises(ParameterError):
        st.validate([1 + 2j], [1 - 2j])


def test_validate_cross_list_negative_pair():
    # the positivity condition constrains only the ratio's sign, so a
    # negative pair may span the two lists
    p = st.validate([-1.5], [-1.2])
    assert (p.p, p.q) == (1, 1)


# ---------------------------------------------------------------- classify

def test_classify_plane():
    dom = st.classify(CS)
    assert dom.kind is st.DomainKind.PLANE and dom.eta == 0.0


def test_classify_disk():
    dom = st.classify(st.validate([2.0], []))
    assert dom.kind is st.DomainKind.UNIT_DISK and dom.eta == 2.0


def test_classify_circle_normalized():
    dom = st.classify(st.validate([0.3, 0.4], [1.5]))
    assert dom.kind is st.DomainKind.CIRCLE_NORMALIZED
    assert dom.eta == pytest.approx(-0.8, abs=1e-15)


def test_state_kind_resolution():
    disk = st.validate([2.0], [])
    assert st.StateSpec(disk, 0.5).domain_kind() is st.DomainKind.UNIT_DISK
    assert st.StateSpec(disk, cmath.exp(1j)).domain_kind() is st.DomainKind.CIRCLE_UNNORMALIZABLE
    circ = st.validate([0.3, 0.4], [1.5])
    assert st.StateSpec(circ, cmath.exp(1j)).domain_kind() is st.DomainKind.CIRCLE_NORMALIZED
    with pytest.raises(DivergenceError):
        st.StateSpec(disk, 1.2).domain_kind()


BAND_SETS = [st.validate([0.3, 0.4], [14.5]), st.validate([0.5, 0.5], [16.0]),
             st.validate([1.0, 1.0, 2.0], [9.0, 9.0]), st.validate([1 + 2j, 1 - 2j], [8.5])]


@pytest.mark.parametrize("params", BAND_SETS, ids=lambda p: p.label())
def test_circle_band_points_take_the_unit_circle_values(params):
    # |z| within 1e-14 of 1 is on the circle (StateSpec), and the state
    # functions take it at |z| = 1: at 1 + 6e-15 they raised DivergenceError
    # from a band on x = |z|^2 of their own
    phase = cmath.exp(0.7j)
    unit = st.StateSpec(params, phase)
    ref = (st.fock_vector(unit).coeffs, ps.pn_distribution(unit).values,
           np.array(ps.mean_and_mandel(params, 1.0)), ld.eigenvalue_residual(unit))
    for r in (1.0 - 6e-15, 1.0 + 6e-15):
        spec = st.StateSpec(params, r * phase)
        assert spec.domain_kind() is st.DomainKind.CIRCLE_NORMALIZED
        got = (st.fock_vector(spec).coeffs, ps.pn_distribution(spec).values,
               np.array(ps.mean_and_mandel(params, r * r)), ld.eigenvalue_residual(spec))
        for g, f in zip(got, ref):
            assert np.shape(g) == np.shape(f) and np.max(np.abs(g - f)) <= 1e-12, (r, g, f)


@pytest.mark.parametrize("az", [1.4e154, 1e200, math.inf])
@pytest.mark.parametrize("params", [CS, st.validate([], [2.0])], ids=lambda p: p.label())
def test_overflowing_absz_squared_is_refused(params, az):
    # |z|^2 past double range is refused where the point is classified, with
    # |z| named, not a bare OverflowError from abs(z) ** 2
    spec = st.StateSpec(params, az)
    for call in (spec.domain_kind, lambda: st.fock_vector(spec),
                 lambda: ps.pn_distribution(spec), lambda: ld.eigenvalue_residual(spec)):
        with pytest.raises(DivergenceError, match=re.escape(f"|z| = {az:g}")):
            call()


# --------------------------------------------------------------------- rho

def test_rho_factorial():
    assert st.rho(CS, 3) == pytest.approx(6.0, rel=1e-14)


def test_rho_seed():
    for p in PARAM_MATRIX:
        assert st.rho(p, 0) == 1.0


def test_rho_hand_value():
    # (1;0) a=2: rho(2) = 2!/(2)_2 = 1/3
    assert st.rho(st.validate([2.0], []), 2) == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("params", PARAM_MATRIX, ids=lambda p: p.label())
def test_rho_positivity_to_200(params):
    for n in range(201):
        assert st.log_rho(params, n) == st.log_rho(params, n)  # finite, defined
    assert st.log_rho(params, 200) > -math.inf


@pytest.mark.parametrize("params", PARAM_MATRIX, ids=lambda p: p.label())
def test_rho_recurrence_consistency(params):
    for n in range(0, 60):
        ratio = math.exp(st.log_rho(params, n + 1) - st.log_rho(params, n))
        num = 1.0 + 0.0j
        for bj in params.b:
            num *= bj + n
        den = 1.0 + 0.0j
        for ai in params.a:
            den *= ai + n
        expected = (n + 1.0) * (num / den).real
        assert ratio == pytest.approx(expected, rel=1e-13)


def test_rho_gamma_form_agreement():
    # log_rho_half steps the odd orders from one Gamma-ratio anchor log rho(1/2):
    # every half order agrees with the gamma form log Gamma(nu+1) + sum[lnG(b+nu)
    # - lnG(b)] - sum[lnG(a+nu) - lnG(a)] in 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    p = st.validate([1 + 2j, 1 - 2j], [0.5])
    t = st.log_rho_half(p, 23)
    with mpmath.workdps(30):
        for k in (0, 1, 2, 7, 14, 23, 45, 46):
            nu = mpmath.mpf(k) / 2
            ref = mpmath.loggamma(nu + 1) + sum(
                mpmath.loggamma(v + nu) - mpmath.loggamma(v) for v in p.b) - sum(
                mpmath.loggamma(v + nu) - mpmath.loggamma(v) for v in p.a)
            assert t[k] == pytest.approx(float(mpmath.re(ref)), abs=1e-11)
    # a sign-changing rho(1/2) has no log: (-0.3; -0.6) is a valid F11 pair
    with pytest.raises(ParameterError, match="negative"):
        st.log_rho_half(st.validate([-0.3], [-0.6]), 4)


def test_rho_overflow_error():
    with pytest.raises(OverflowError):
        st.rho(CS, 400)


# ------------------------------------------------------ symmetry/coalesce

def test_parameter_permutation_bit_identical():
    p1 = st.validate([2.0, 0.7, 3.3], [1.1, 4.4])
    p2 = st.validate([3.3, 2.0, 0.7], [4.4, 1.1])
    assert p1 == p2
    assert st.rho(p1, 17) == st.rho(p2, 17)
    assert st.normalization(p1, 0.8) == st.normalization(p2, 0.8)


def test_rho_sequence_bit_identical_across_entry_order_and_growth():
    p1 = st.validate([2.0, 0.7 + 1j, 0.7 - 1j], [1.1, 4.4])
    p2 = st.validate([0.7 - 1j, 2.0, 0.7 + 1j], [4.4, 1.1])
    st.log_rho(p1, 5)  # p1 grows its sequence in steps, p2 at once
    st.log_rho(p1, 90)
    f1, lr1 = st.rho_steps(p1, 700)
    f2, lr2 = st.rho_steps(p2, 700)
    assert np.array_equal(f1, f2) and np.array_equal(lr1, lr2)
    assert len(f1) == 700 and len(lr1) == 701


def test_rho_sequence_is_compensated():
    # log n! against lgamma: within 3.5e-16 relative to n = 3000; a plain
    # running sum is off by 1.8e-15 (~1e-11 absolute by n = 1500)
    lr = st.rho_steps(CS, 3000)[1]
    ref = np.array([math.lgamma(n + 1.0) for n in range(3001)])
    assert float(np.max(np.abs(lr - ref) / np.maximum(ref, 1.0))) <= 1e-15


def test_rho_steps_are_read_only_and_not_fields():
    p = st.validate([2.0], [3.0])
    f2, lr = st.rho_steps(p, 10)
    with pytest.raises(ValueError):
        lr[3] = 0.0
    assert p == st.validate([2.0], [3.0]) and hash(p) == hash(st.validate([2.0], [3.0]))
    assert f2[1] == pytest.approx(2.0 * 4.0 / 3.0, rel=1e-15)
    assert math.exp(lr[2] - lr[1]) == pytest.approx(f2[1], rel=1e-14)


def test_rho_steps_reject_non_positive_ratio():
    # not a valid set (validate refuses it): the ratio turns negative at k = 3
    with pytest.raises(ParameterError, match=r"f\(3\)"):
        st.rho_steps(st.ParameterSet([-2.5], [-3.5]), 10)


@pytest.mark.parametrize("params", PARAM_MATRIX[:6], ids=lambda p: p.label())
def test_coalescence_invariance(params):
    ext = params.appended(2.7)
    for n in (1, 5, 40):
        assert st.rho(ext, n) == pytest.approx(st.rho(params, n), rel=1e-12)
    x = 0.5
    assert st.normalization(ext, x) == pytest.approx(
        st.normalization(params, x), rel=1e-12
    )
    v1 = st.fock_vector(st.StateSpec(params, 0.5), tol=1e-13)
    v2 = st.fock_vector(st.StateSpec(ext, 0.5), tol=1e-13)
    k = min(len(v1.coeffs), len(v2.coeffs))
    assert np.max(np.abs(v1.coeffs[:k] - v2.coeffs[:k])) < 1e-12


# ----------------------------------------------------------- normalization

def test_normalization_exponential():
    for x in (0.0, 0.3, 9.0):
        assert st.normalization(CS, x) == pytest.approx(math.exp(x), rel=1e-12)


def test_normalization_binomial():
    assert st.normalization(st.validate([2.0], []), 0.5) == pytest.approx(4.0, rel=1e-12)


def test_normalization_circle_gauss_constant():
    p = st.validate([0.3, 0.4], [1.5])
    ref = math.gamma(1.5) * math.gamma(0.8) / (math.gamma(1.2) * math.gamma(1.1))
    assert st.normalization(p, 1.0) == pytest.approx(ref, rel=1e-12)


def test_normalization_circle_divergence():
    with pytest.raises(DivergenceError):
        st.normalization(st.validate([2.0], []), 1.0)
    with pytest.raises(DivergenceError):
        st.normalization(st.validate([2.0], []), np.array([0.5, 1.0]))


def test_normalization_array_matches_float_calls():
    # one call over the nodes: a float gives a float, an array the values of
    # the float calls; x is taken as given, so 1 - 1e-15 is summed there (the
    # circle band is StateSpec's) and only x = 1 takes the unit formula, or
    # diverges for eta >= 0
    xs = np.array([0.0, 0.3, 0.85, 1.0 - 1e-15, 1.0])
    for p in (st.validate([0.3, 0.4], [1.5]), st.validate([2.5, 1.8], [2.0])):
        at = xs if p.eta < 0 else xs[:-1]
        ones = [st.normalization(p, float(x)) for x in at]
        assert type(ones[0]) is float
        assert np.allclose(st.normalization(p, at), ones, rtol=1e-15, atol=0.0)
    edge = st.normalization(st.validate([0.3, 0.4], [1.5]), xs[-2:])
    assert edge[0] < edge[1] == pytest.approx(edge[0], rel=1e-10)
    with pytest.raises(DivergenceError, match="eta = 2.3 >= 0"):
        st.normalization(st.validate([2.5, 1.8], [2.0]), xs)
    assert np.allclose(st.normalization(CS, xs), np.exp(xs), rtol=1e-13, atol=0.0)


# ------------------------------------------------------------- fock_vector

def test_fock_vacuum():
    v = st.fock_vector(st.StateSpec(CS, 0.0))
    assert v.cutoff == 0 and v.coeffs[0] == 1.0 and v.tail_bound == 0.0


def test_fock_coherent_phase_state():
    # (1;0) at a = 1: c_n = sqrt(1 - eps^2) eps^n
    eps = 0.6
    v = st.fock_vector(st.StateSpec(st.validate([1.0], []), eps), tol=1e-14)
    pref = math.sqrt(1.0 - eps * eps)
    for n in range(v.cutoff + 1):
        assert v.coeffs[n].real == pytest.approx(pref * eps**n, abs=1e-13)


def test_fock_norm_certificate():
    v = st.fock_vector(st.StateSpec(st.validate([], [1.0]), 3.0), tol=1e-12)
    assert v.normalized
    assert abs(v.norm_sq() - 1.0) <= 2.0 * v.tail_bound + 1e-13


def test_fock_circle_normalized():
    p = st.validate([0.5, 0.5], [16.0])
    v = st.fock_vector(st.StateSpec(p, cmath.exp(0.7j)), tol=1e-13)
    assert abs(v.norm_sq() - 1.0) <= 2.0 * v.tail_bound + 1e-13


@pytest.mark.parametrize("tol", [1e-14, 1e-15])
def test_fock_circle_normalizes_at_its_tol(tol):
    # N(1) is summed at the Fock tol, not at pfq's default 1e-12: taken at
    # 1e-12 it was 3.5e-13 below mpmath's 3F2, so 1 - ||c||^2 read -3.5e-13
    # against a tail_bound of 6.1e-18 at tol 1e-15
    v = st.fock_vector(st.StateSpec(st.validate([1.0, 1.0, 2.0], [9.0, 9.0]), 1.0), tol=tol)
    assert abs(1.0 - v.norm_sq()) <= v.tail_bound + 10.0 * tol


def test_fock_circle_cut_ignores_the_last_bit_of_x():
    # |z|^2 rounds to 1.0 at e^{0.7i} and to 1 - 2^-53 at e^{0.36i}; the
    # circle search starts from one constant, so both cut at 27 (25 and 27
    # when it started at int(2|z|^2) + 8)
    p = st.validate([0.5, 0.5], [16.0])
    assert abs(cmath.exp(0.36j)) ** 2 < 1.0 == abs(cmath.exp(0.7j)) ** 2
    cuts = {st.fock_vector(st.StateSpec(p, cmath.exp(1j * t)), tol=1e-12).cutoff
            for t in (0.7, 0.36)}
    assert cuts == {27}


def test_fock_circle_cap_for_shallow_eta():
    # eta = -0.8 decays like n^{-1.8}: a 1e-14 tail needs n far beyond the cap.
    # The row of that failed call reaches the cap, and later calls on the set
    # still cut where the growing loop cut (1e-12 also needs more than the
    # cap, 1e-4 cuts at 11,623)
    p = st.validate([0.3, 0.4], [1.5])
    spec = st.StateSpec(p, cmath.exp(0.3j))
    for tol in (1e-14, 1e-12):
        with pytest.raises(ConvergenceError):
            st.fock_vector(spec, tol=tol)
        assert _growing_loop(st.validate([0.3, 0.4], [1.5]), spec.z, tol) is None
    coeffs, tail = _growing_loop(st.validate([0.3, 0.4], [1.5]), spec.z, 1e-4)
    v = st.fock_vector(spec, tol=1e-4)
    assert v.cutoff == 11623 and np.array_equal(v.coeffs, coeffs) and v.tail_bound == tail


def _growing_loop(params, z, tol):
    """The normalized circle cut as the growing loop made it, one pass per
    candidate length: (coefficients, tail bound), or None past the cap."""
    ln_n = math.log(st.normalization(params, 1.0, tol=tol))
    n = 10
    while n <= st.MAX_CUTOFF:
        m = n + 16
        lc = -st.rho_steps(params, m)[1] - ln_n
        k = np.arange(n, m)
        s = min(float(np.min(-np.diff(lc[n:]) / np.log((k + 2.0) / (k + 1.0)))), 1.0 - params.eta)
        tail = math.exp(lc[n]) * (1.0 + (n + 1.0) / (s - 1.0)) if s > 1.0 else math.inf
        if tail <= tol:
            return np.exp(0.5 * lc[: n + 1]) * np.exp(1j * cmath.phase(z) * np.arange(n + 1)), tail
        n = max(n + 8, int(1.5 * n))
    return None


def _growing_loop_pn(params, tol):
    """P(n) of a normalized circle state as it was: N(1) summed at tol and
    the cut rule of _pn_series from 64 terms; None where that raised."""
    ln_n = math.log(st.normalization(params, 1.0, tol=tol))
    try:
        return ps._pn_series(lambda n: -st.rho_steps(params, n - 1)[1] - ln_n, 64, params.label())
    except ConvergenceError:
        return None


def _circle_band(count, seed):
    rng = np.random.default_rng(seed)
    etas = -16.0 + 15.1 * (np.arange(count) + rng.random(count)) / count  # one per stratum
    return [([a1, a2], [a1 + a2 - eta], cmath.exp(1j * t)) for eta, a1, a2, t in
            zip(etas, rng.uniform(0.3, 3.0, count), rng.uniform(0.3, 3.0, count),
                rng.uniform(-math.pi, math.pi, count))]


CIRCLE_BAND = _circle_band(16, 28)


@pytest.mark.parametrize("a,b,z", CIRCLE_BAND,
                         ids=[f"eta={sum(a) - b[0]:.2f}" for a, b, _ in CIRCLE_BAND])
def test_circle_row_cuts_as_the_growing_loop(a, b, z):
    # eta in [-16, -0.9]: the cuts, coefficients and P(n) read from the kept
    # row equal, bit for bit, those of the loop that grew the cut pass by
    # pass, with both tols called in both orders on one set.  The row takes
    # each tail with the loop's scalar math.exp, so the tail bound is held to
    # 0 ulp as well
    for tols in ((1e-12, 1e-14), (1e-14, 1e-12)):
        spec = st.StateSpec(st.validate(a, b), z)
        for tol in tols:
            ref = _growing_loop(st.validate(a, b), z, tol)
            if ref is None:
                with pytest.raises(ConvergenceError):
                    st.fock_vector(spec, tol=tol)
            else:
                v = st.fock_vector(spec, tol=tol)
                assert np.array_equal(v.coeffs, ref[0]) and v.tail_bound == ref[1]
            ref_pn = _growing_loop_pn(st.validate(a, b), tol)
            if ref_pn is None:
                with pytest.raises(ConvergenceError):
                    ps.pn_distribution(spec, tol=tol)
            else:
                pn = ps.pn_distribution(spec, tol=tol)
                assert np.array_equal(pn.values, ref_pn.values)
                assert pn.norm_residual == ref_pn.norm_residual


def test_fock_unnormalizable_circle_warns():
    p = st.validate([2.0], [])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        v = st.fock_vector(st.StateSpec(p, cmath.exp(1.0j)), tol=1e-10)
    assert any(issubclass(w.category, RuntimeWarning) for w in rec)
    assert not v.normalized and math.isinf(v.tail_bound)
    assert abs(abs(v.coeffs[0]) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-14


SLICE_CASES = (
    [(a, b, az) for a, b in (([], []), ([], [2.0]), ([2.0], [3.0])) for az in (0.75, 15.0, 60.0)]
    + [(a, b, az) for a, b in (([2.0], []), ([0.7, 1.3], [2.2])) for az in (0.75, 0.97)]
)


@pytest.mark.parametrize("a,b,az", SLICE_CASES,
                         ids=[f"({a};{b})@{az:g}" for a, b, az in SLICE_CASES])
def test_fock_vector_is_the_log_terms_slice(a, b, az):
    p = st.validate(a, b)
    v = st.fock_vector(st.StateSpec(p, az * cmath.exp(0.4j)), tol=1e-12)
    log_t, ln_n = st.log_terms(p, az * az)
    assert v.cutoff + 1 == len(log_t)
    # |c_n|^2 against the slice's exact shares t_n / sum t: exp(log t_n - log N)
    # would carry the rounding of log N, an ulp of |z|^2 (4.5e-13 at |z| = 60)
    w = np.exp(log_t - log_t.max())
    assert abs(ln_n - (log_t.max() + math.log(math.fsum(w)))) <= 1e-15 * max(1.0, ln_n)
    c_sq = np.abs(v.coeffs) ** 2
    assert np.max(np.abs(c_sq - w / math.fsum(w))) <= 1e-15 * c_sq.max()
    assert abs(v.coeffs[-1]) ** 2 <= v.tail_bound <= st.SLICE_REST
    k = np.arange(len(log_t), 4 * len(log_t))  # the rest, summed out to 4 slice lengths
    rest = np.exp(k * math.log(az * az) - st.rho_steps(p, k[-1])[1][k] - ln_n).sum()
    assert rest <= v.tail_bound


PLANE_SETS = [([], []), ([], [0.2]), ([], [2.0]), ([], [6.0]), ([2.0], [3.0]), ([5.0], [0.5]),
              ([1 + 2j, 1 - 2j], [0.5, 2.0, 2.5]), ([-1.5, -1.5], [2.0, 3.0])]
SLICE_START_CASES = (
    [(a, b, az) for a, b in PLANE_SETS for az in (0.75, 3.0, 15.0, 40.0)]
    + [(a, b, az) for a, b in (([2.0], []), ([0.7, 1.3], [2.2])) for az in (0.3, 0.75, 0.97)]
)


def _settled(params, log_t, x) -> bool:
    """The slice certificate of log_terms on the prefix log_t, restated."""
    last = log_t[-16:]
    r_bar = max(math.exp((last[1:] - last[:-1]).max(initial=-math.inf)),
                x if params.p == params.q + 1 else 0.0)
    return r_bar < 1.0 and log_t[-1] - math.log1p(-r_bar) < log_t.max() + math.log(st.SLICE_REST)


@pytest.mark.parametrize("a,b,az", SLICE_START_CASES,
                         ids=[f"({a};{b})@{az:g}" for a, b, az in SLICE_START_CASES])
def test_slice_length_near_the_shortest_settled_prefix(a, b, az):
    # L* is the shortest prefix the slice certificate accepts, by brute force;
    # the slice starts from the mode and width of t_n, so it is at most a
    # quarter and two windows longer (F01 (;2) at |z| = 40: 94 orders against
    # L* = 88, where a start at 2|z|^2 + 32 gave 3,232)
    params = st.validate(a, b)
    x = az * az
    n = len(st.log_terms(params, x)[0])
    full = np.arange(4 * n) * math.log(x) - st.rho_steps(params, 4 * n)[1][: 4 * n]
    l_star = next(k for k in range(1, n + 1) if _settled(params, full[:k], x))
    assert l_star <= n <= 1.25 * l_star + 32


def test_fock_tol_below_the_slice_rest_raises():
    spec = st.StateSpec(CS, 0.75)
    assert st.fock_vector(spec, tol=1e-18).tail_bound <= 1e-18
    with pytest.raises(ConvergenceError):
        st.fock_vector(spec, tol=1e-25)


def test_fock_from_coeffs_normalizes_and_refuses_empty_norms():
    v = st.fock_from_coeffs([3.0, 4.0j])
    assert v.normalized and v.norm_sq() == pytest.approx(1.0, rel=1e-15)
    for bad in ([0.0, 0.0], [1.0, math.nan], [math.inf, 1.0], []):
        with pytest.raises(ParameterError):
            st.fock_from_coeffs(bad)


def test_fock_tail_bound_is_honest():
    # compare the certified bound against a run at much tighter tolerance, on a
    # normalized circle state, where tol still sets the cut (a plane or disk
    # vector is the whole log_terms slice at any tol): cutoffs 18 and 60,
    # bound 4.4e-11 against a true tail of 2.0e-11
    spec = st.StateSpec(st.validate([0.5, 0.5], [16.0]), cmath.exp(0.7j))
    v = st.fock_vector(spec, tol=1e-8)
    ref = st.fock_vector(spec, tol=1e-15)
    assert v.cutoff < ref.cutoff
    true_tail = float(np.sum(np.abs(ref.coeffs[v.cutoff + 1:]) ** 2)) + ref.tail_bound
    assert true_tail <= v.tail_bound


LOG_NORM_CASES = (
    [(a, b, az) for a, b in (([], []), ([], [2.0]), ([2.0], [3.0]), ([5.0], [1.0]))
     for az in (20.0, 28.0, 60.0)]
    + [([2.5], [], az) for az in (0.3, 0.9, 0.99)]
    + [([0.7, 1.3], [2.2], az) for az in (0.3, 0.9, 0.99)]
)


@pytest.mark.parametrize("a,b,az", LOG_NORM_CASES,
                         ids=[f"({a};{b})@{az:g}" for a, b, az in LOG_NORM_CASES])
def test_log_norm_against_mpmath(a, b, az):
    # log N and the log N_k of the shifted sets (a+k; b+k), each from its own
    # slice, against 40-digit mpmath, including |z| = 28 and 60, where N
    # itself leaves the double range
    mpmath = pytest.importorskip("mpmath")
    params = st.validate(a, b)
    x = az * az
    with mpmath.workdps(40):
        for k in range(3):
            log_n = st.log_terms(params.shifted(k), x)[1]
            ref = float(mpmath.log(mpmath.hyper([v + k for v in a], [v + k for v in b], x)))
            assert abs(log_n - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("a,b,hi", [([], [], 28.0), ([], [0.2], 6.0), ([4.0], [2.0], 6.0),
                                    ([2.5], [], 0.99), ([0.7, 1.3], [2.2], 0.9)])
def test_log_terms_array_matches_scalar_calls(a, b, hi):
    # every point reads the slice of the largest x; a one-point array is the
    # scalar call, slice and bits
    params = st.validate(a, b)
    x = np.linspace(0.05, hi, 25) ** 2
    log_t, log_n = st.log_terms(params, x)
    assert log_t.shape[0] == len(x) and log_n.shape == x.shape
    for v, got in zip(x, log_n):
        ref = st.log_terms(params, float(v))[1]
        assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))
    one_t, one_n = st.log_terms(params, x[-1:])
    ref_t, ref_n = st.log_terms(params, float(x[-1]))
    assert np.array_equal(one_t[0], ref_t) and one_n[0] == ref_n


def test_log_terms_respects_the_term_cap(monkeypatch):
    # GHCS_MAX_TERMS lowers specfun.DEFAULT_MAX_TERMS; the slice obeys it too
    monkeypatch.setattr(st.specfun, "DEFAULT_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError):
        st.log_terms(st.validate([], [1.0]), 9.0)


def test_kept_slice_is_not_served_under_a_lower_term_cap(monkeypatch):
    # the slice kept on the set was settled under the default cap; a lower
    # cap settles anew and refuses, as on a fresh set
    p = st.validate([], [1.0])
    assert len(st.log_terms(p, 9.0)[0]) > 5
    monkeypatch.setattr(st.specfun, "DEFAULT_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError):
        st.log_terms(p, 9.0)


KEPT_SLICE_CASES = [([], [], 9.0), ([], [2.0], 36.0), ([2.0], [3.0], 25.0),
                    ([2.0], [], 0.81), ([0.7, 1.3], [2.2], 0.81)]


@pytest.mark.parametrize("a,b,x", KEPT_SLICE_CASES,
                         ids=[f"({a};{b})@{x:g}" for a, b, x in KEPT_SLICE_CASES])
def test_kept_slice_is_order_independent_and_read_only(a, b, x):
    # every order of the slice's readers on one set (the Fock vector, mean
    # and Q, P(n), an array call at the same x) gives
    # the bits of a fresh set, and leaves the kept slice as a fresh set
    # settles it
    readers = (lambda p: st.fock_vector(st.StateSpec(p, math.sqrt(x))).coeffs,
               lambda p: np.array(ps.mean_and_mandel(p, x)),
               lambda p: ps.pn_distribution(st.StateSpec(p, math.sqrt(x))).values,
               lambda p: st.log_terms(p, np.array([x]))[0][0])
    refs = [read(st.validate(a, b)) for read in readers]
    ref_t, ref_n = st.log_terms(st.validate(a, b), x)
    for order in itertools.permutations(range(len(readers))):
        p = st.validate(a, b)
        for i in order:
            assert np.array_equal(readers[i](p), refs[i])
        log_t, log_n = st.log_terms(p, x)
        assert np.array_equal(log_t, ref_t) and log_n == ref_n
    assert p == st.validate(a, b) and hash(p) == hash(st.validate(a, b))  # not a field
    with pytest.raises(ValueError):
        log_t[0] = 0.0


def test_kept_slice_shared_by_threads_matches_its_point():
    # threads alternating two points on one set each get their own point's
    # slice: the kept tuple is read once and published whole
    xs = (9.0, 30.0)
    refs = [st.log_terms(st.validate([], [2.0]), x) for x in xs]
    p, bad = st.validate([], [2.0]), []

    def work(i):
        for j in range(300):
            k = (i + j) % 2
            got = st.log_terms(p, xs[k])
            if not (np.array_equal(got[0], refs[k][0]) and got[1] == refs[k][1]):
                bad.append((i, j))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and bad == []


def test_kept_circle_row_shared_by_threads_matches_its_tol():
    # threads alternating two tols on one (3;2) circle set, whose N(1) is a
    # pfq sum at each tol, each get the Fock vector of their own tol
    tols, z = (1e-12, 1e-14), cmath.exp(3.0j)
    refs = [st.fock_vector(st.StateSpec(st.validate([1.0, 1.0, 2.0], [9.0, 9.0]), z), tol=tol)
            for tol in tols]
    spec, bad = st.StateSpec(st.validate([1.0, 1.0, 2.0], [9.0, 9.0]), z), []

    def work(i):
        for j in range(100):
            k = (i + j) % 2
            got, ref = st.fock_vector(spec, tol=tols[k]), refs[k]
            if not (np.array_equal(got.coeffs, ref.coeffs) and got.tail_bound == ref.tail_bound):
                bad.append((i, j))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and bad == []


# fock_vector cutoffs of the signals of figures 8-13 (|z| = 3/4, tol 1e-12),
# the lengths of their log_terms slices less one: a change to the slice rule
# shows here before it moves a figure (32 and 131 when the slice started at
# 2|z|^2 + 32 and doubled)
FIGURE_SIGNAL_CUTOFFS = [
    (([], [0.5]), 16), (([], [1.0]), 15), (([], [3.0]), 15),               # figure 8
    (([2.0], [4.0]), 16), (([3.0], [3.0]), 17), (([4.0], [2.0]), 27),      # figure 9
    (([1.5], []), 87), (([2.0], []), 88), (([4.0], []), 92),               # figure 10
    (([], []), 17),                                                        # CS, figures 8-13
]


@pytest.mark.parametrize("ab,cutoff", FIGURE_SIGNAL_CUTOFFS,
                         ids=[f"({a};{b})" for (a, b), _ in FIGURE_SIGNAL_CUTOFFS])
def test_figure_signal_cutoffs_pinned(ab, cutoff):
    v = st.fock_vector(st.StateSpec(st.validate(*ab), 0.75), tol=1e-12)
    assert v.cutoff == cutoff


def test_tail_bound_covers_the_last_kept_term():
    for params, az in ((st.validate([], [0.4]), 1.37), (st.validate([], [1.0]), 1.19),
                       (CS, 4.0), (st.validate([2.0], []), 0.9)):
        v = st.fock_vector(st.StateSpec(params, az), tol=1e-14)
        assert abs(v.coeffs[-1]) ** 2 <= v.tail_bound <= 1e-14


@pytest.mark.parametrize("a,eta", [(2.5, -4.0), (1.0, -4.0)])
def test_fock_circle_beyond_old_cap(a, eta):
    # at tol 1e-14 the power-law certificate needs 26,151 and 7,749 terms
    p = st.validate([a, a], [2.0 * a - eta])
    v = st.fock_vector(st.StateSpec(p, cmath.exp(0.4j)), tol=1e-14)
    assert v.cutoff > 4096 and abs(v.norm_sq() - 1.0) <= 2.0 * v.tail_bound + 1e-13


def test_fock_unnormalizable_circle_stops_at_first_small_term():
    p = st.validate([0.5, 0.5], [1.0])  # eta = 0: |c_n|^2 falls like 1/n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        v = st.fock_vector(st.StateSpec(p, 1.0), tol=1e-2)
    lc = -math.log(2.0 * math.pi) - st.rho_steps(p, v.cutoff)[1]
    assert lc[-1] < math.log(1e-2) - math.log(2.0 * math.pi) <= lc[-2]
    assert len(p.__dict__["_rho_seq"][1]) < 1024  # not grown to the cap


# ----------------------------------------------------------------- overlap

def test_overlap_self_is_one():
    assert st.overlap(st.validate([2.0], []), 0.3 + 0.1j, 0.3 + 0.1j) == pytest.approx(1.0)


def test_overlap_coherent_formula():
    a1, a2 = 0.8 + 0.2j, -0.3 + 0.9j
    ref = cmath.exp(a1.conjugate() * a2 - abs(a1) ** 2 / 2 - abs(a2) ** 2 / 2)
    assert st.overlap(CS, a1, a2) == pytest.approx(ref, rel=1e-12)


def test_overlap_of_a_large_b_disk_set_against_mpmath():
    # N(0.9409) of (1,1.5;180.3) takes the two-term connection formula, whose
    # coefficient Gamma(180.3) Gamma(177.8) / (Gamma(179.3) Gamma(178.8)) is a
    # log Gamma ratio: read through 1/Gamma, which underflows past 178.5, it
    # was dropped, N came out 7e-224 and the overlap divided by zero
    mpmath = pytest.importorskip("mpmath")
    z, z2 = 0.97, 0.97j
    with mpmath.workdps(40):
        n = lambda x: mpmath.hyp2f1(1, 1.5, 180.3, x)
        ref = complex(n(z * z2) / mpmath.sqrt(n(abs(z) ** 2) * n(abs(z2) ** 2)))
    got = st.overlap(st.validate([1.0, 1.5], [180.3]), z, z2)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_overlap_cauchy_schwarz():
    rng = np.random.default_rng(3)
    families = [CS, st.validate([], [1.5]), st.validate([2.0], [])]
    for _ in range(100):
        params = families[rng.integers(len(families))]
        scale = 2.0 if params.p < params.q + 1 else 0.95
        z1 = scale * (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        z2 = scale * (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        assert abs(st.overlap(params, z1, z2)) <= 1.0 + 1e-12


def test_overlap_takes_circle_band_points_at_the_unit_circle():
    # a point within UNIT_BAND of the circle enters the pfq argument at z/|z|,
    # as in normalization: at |z| = 1 + 6e-15, z* z raised DivergenceError
    params = st.validate([0.3, 0.4], [14.5])
    unit, inner = cmath.exp(0.7j), 0.5 * cmath.exp(-1.1j)
    self_ref, cross_ref = st.overlap(params, unit, unit), st.overlap(params, unit, inner)
    assert abs(self_ref - 1.0) <= 1e-9
    for r in (1.0 - 6e-15, 1.0 + 6e-15):
        assert abs(st.overlap(params, r * unit, r * unit) - self_ref) <= 1e-15
        assert abs(st.overlap(params, r * unit, inner) - cross_ref) <= 1e-15
        assert abs(st.overlap(params, inner, r * unit) - cross_ref.conjugate()) <= 1e-15
