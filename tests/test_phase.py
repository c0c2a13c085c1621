import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ghcs import phase as ph
from ghcs import specfun as sf
from ghcs import states as st
from ghcs import weights as wt
from ghcs.errors import GHSError, ParameterError, RangeError

CS = st.validate([], [])
TWO_PI = 2.0 * math.pi


def coherent_signal(absz=0.75, phi=0.0, params=CS, tol=1e-14):
    return st.fock_vector(st.StateSpec(params, absz * cmath.exp(1j * phi)), tol=tol)


# ---------------------------------------------------------------- G tables

def test_g_diagonal_exactly_one():
    for analyzer in ("Q", "PB", st.validate([2.0], [3.0])):
        t = ph.g_coefficients(analyzer, 40).table
        assert np.all(np.diag(t) == 1.0)


def test_g_symmetry():
    t = ph.g_coefficients(st.validate([2.0], [0.7]), 30).table
    assert np.max(np.abs(t - t.T)) == 0.0


def test_g_husimi_value():
    # G_Q(0,2) = Gamma(2)/sqrt(Gamma(1) Gamma(3)) = 1/sqrt(2)
    t = ph.g_coefficients("Q", 4).table
    assert t[0, 2] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_g_phase_state_analyzer_is_ones():
    # the (1;0) analyzer at a = 1 weighs all coherences equally
    t = ph.g_coefficients(st.validate([1.0], []), 25).table
    assert np.max(np.abs(t - 1.0)) < 1e-13
    t2 = ph.g_coefficients("PB", 25).table
    assert np.max(np.abs(t2 - 1.0)) == 0.0


def test_g_dominance_pb_over_q():
    t = ph.g_coefficients("Q", 200).table
    assert np.all(t <= 1.0 + 1e-14)
    assert np.all(t > 0.0)


def test_g_coalescence():
    t1 = ph.g_coefficients(st.ParameterSet([2.5, 0.7], [2.5, 0.7]), 30).table
    t2 = ph.g_coefficients("Q", 30).table
    assert np.max(np.abs(t1 - t2)) <= 1e-12


def test_g_table_cap():
    with pytest.raises(OverflowError):
        ph.g_coefficients("Q", 3000)


def test_g_table_cap_is_structured_and_bounds_phase_cutoff():
    with pytest.raises(RangeError):
        ph.g_coefficients("Q", ph.G_TABLE_CAP + 1)
    # the support window of |2049> is one entry, but the cap is on the cutoff
    with pytest.raises(GHSError):
        ph.phase_distribution(st.fock_basis_vector(ph.G_TABLE_CAP + 1), "Q")


def _lgamma_log_rho(a_list, b_list):
    """nu -> log rho(nu) = lnG(nu+1) + sum[lnG(b+nu) - lnG(b)] - sum[lnG(a+nu) - lnG(a)]
    from math.lgamma, independent of the package's rho sequences."""
    def log_rho(nu):
        v = math.lgamma(nu + 1.0)
        v += sum(math.lgamma(b + nu) - math.lgamma(b) for b in b_list)
        return v - sum(math.lgamma(a + nu) - math.lgamma(a) for a in a_list)
    return log_rho


@pytest.mark.parametrize("a_list,b_list", [([], []), ([3.0], []), ([2.0], [0.7])])
def test_g_table_at_cap_against_lgamma(a_list, b_list):
    n_cap = ph.G_TABLE_CAP
    t = ph.g_coefficients(st.validate(a_list, b_list), n_cap).table
    assert t.shape == (n_cap + 1, n_cap + 1)
    assert np.all(np.diag(t) == 1.0)
    assert np.array_equal(t, t.T)
    log_rho = _lgamma_log_rho(a_list, b_list)
    rng = np.random.default_rng(29)
    checked = 0
    for n, m in rng.integers(0, n_cap + 1, size=(400, 2)):
        ref = math.exp(log_rho(0.5 * (n + m)) - 0.5 * (log_rho(n) + log_rho(m)))
        if ref > 1e-300:
            assert t[n, m] == pytest.approx(ref, rel=1e-10)
            checked += 1
    assert checked >= 200


# ------------------------------------------------------ phase distributions

def test_fock_state_uniform():
    d = ph.phase_distribution(st.fock_basis_vector(4), "Q")
    assert np.max(np.abs(d.values - 1.0 / TWO_PI)) <= 1e-12
    assert d.norm_residual <= 1e-12


def test_peak_at_state_phase():
    phi = 0.7
    d = ph.phase_distribution(coherent_signal(phi=phi), "Q")
    theta_pk, _ = d.peak()
    assert abs(theta_pk - phi) <= d.thetas[1] - d.thetas[0]


def test_pb_peak_dominates_q_peak():
    sig = coherent_signal()
    dq = ph.phase_distribution(sig, "Q")
    dpb = ph.phase_distribution(sig, "PB")
    k = np.argmin(np.abs(dq.thetas))
    assert dpb.values[k] >= dq.values[k]


def test_normalization_residuals():
    for params in (CS, st.validate([], [1.0]), st.validate([2.0], [])):
        sig = coherent_signal(params=params)
        for analyzer in ("Q", "PB", st.validate([3.0], [])):
            d = ph.phase_distribution(sig, analyzer)
            assert d.norm_residual <= 1e-8


def test_theta_shift_covariance():
    sig = coherent_signal(phi=0.0)
    d0 = ph.phase_distribution(sig, "Q")
    step = d0.thetas[1] - d0.thetas[0]
    shift = 40
    delta = shift * step
    shifted = st.FockVector(
        sig.coeffs * np.exp(1j * np.arange(len(sig.coeffs)) * delta),
        sig.tail_bound, True,
    )
    d1 = ph.phase_distribution(shifted, "Q")
    # periodic roll on the closed grid (first == last point)
    rolled = np.roll(d0.values[:-1], shift)
    assert np.max(np.abs(d1.values[:-1] - rolled)) <= 1e-12


def test_density_matrix_input_matches_pure_state():
    sig = coherent_signal()
    rho = np.outer(sig.coeffs, sig.coeffs.conj())
    d1 = ph.phase_distribution(sig, "Q")
    d2 = ph.phase_distribution(rho, "Q")
    assert np.max(np.abs(d1.values - d2.values)) <= 1e-14


def test_density_matrix_hermiticity_validated():
    bad = np.array([[1.0, 0.5], [0.2, 0.0]], dtype=complex)
    with pytest.raises(ParameterError):
        ph.phase_distribution(bad, "Q")


def test_mixed_state_phase_distribution():
    # an equal mixture of |0> and |1> has no coherences: uniform phase
    rho = np.diag([0.5, 0.5]).astype(complex)
    d = ph.phase_distribution(rho, "Q")
    assert np.max(np.abs(d.values - 1.0 / TWO_PI)) <= 1e-14


def _brute_force_phase(psi, log_rho, thetas):
    """P(theta) from the full outer product psi psi*, G from math.lgamma, the
    diagonal sums C_m and explicit cos/sin sums over m."""
    n = len(psi)
    half = np.array([log_rho(0.5 * k) for k in range(2 * n - 1)])
    idx = np.arange(n)
    g = np.exp(half[idx[:, None] + idx[None, :]]
               - 0.5 * (half[2 * idx][:, None] + half[2 * idx][None, :]))
    weighted = np.outer(psi, psi.conj()) * g
    c = np.array([np.diagonal(weighted, -m).sum() for m in range(n)])
    m = np.arange(1, n)[:, None]
    cos_sum = (c[1:].real[:, None] * np.cos(m * thetas)).sum(axis=0)
    sin_sum = (c[1:].imag[:, None] * np.sin(m * thetas)).sum(axis=0)
    return (c[0].real + 2.0 * (cos_sum + sin_sum)) / TWO_PI


_ORACLE_SIGNALS = {
    "CS |z|=25": lambda: coherent_signal(absz=25.0, phi=0.3),
    "F01 (;2)": lambda: coherent_signal(absz=6.0, phi=-1.2, params=st.validate([], [2.0])),
    "F11 (2;3)": lambda: coherent_signal(absz=5.0, phi=2.0, params=st.validate([2.0], [3.0])),
}
_ORACLE_ANALYZERS = {
    "Q": ("Q", [], []), "PB": ("PB", [1.0], []),
    "(3;)": (st.validate([3.0], []), [3.0], []),
    "(0.5;)": (st.validate([0.5], []), [0.5], []),
}


@pytest.mark.parametrize("signal", sorted(_ORACLE_SIGNALS))
@pytest.mark.parametrize("analyzer", sorted(_ORACLE_ANALYZERS))
def test_phase_distribution_against_brute_force(signal, analyzer):
    sig = _ORACLE_SIGNALS[signal]()
    tag, a_list, b_list = _ORACLE_ANALYZERS[analyzer]
    log_rho = _lgamma_log_rho(a_list, b_list)
    rng = np.random.default_rng(31)
    peak = None  # the distribution's maximum, read on the dense default grid
    for thetas in (ph.default_theta_grid(), np.sort(rng.uniform(-math.pi, math.pi, 97))):
        got = ph.phase_distribution(sig, tag, thetas).values
        ref = _brute_force_phase(sig.coeffs, log_rho, thetas)
        peak = peak or np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-12 * peak


def test_g_above_one_analyzer_has_concave_half_sequence():
    # (1;0) at a = 0.5 has G > 1 off the diagonal, so the support window's
    # bound does not hold and phase_distribution must sum the whole support
    p = st.validate([0.5], [])
    assert np.max(ph.g_coefficients(p, 20).table) > 1.0
    assert np.any(np.diff(st.log_rho_half(p, 20), 2) < 0.0)
    assert np.all(np.diff(st.log_rho_half(CS, 20), 2) >= 0.0)


def _tracemalloc_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_g_table_builds_one_square_array():
    ph.g_coefficients("Q", 8)  # warm the Q rho sequence
    g, peak = _tracemalloc_peak(lambda: ph.g_coefficients("Q", ph.G_TABLE_CAP))
    assert peak <= 1.25 * g.table.nbytes


def test_phase_distribution_memory_scales_with_support_window():
    sig = coherent_signal(absz=25.0, phi=0.3)
    assert sig.cutoff >= 1250
    ph.phase_distribution(sig, "Q")  # warm the rho sequences
    mag = np.abs(sig.coeffs)
    keep = np.flatnonzero(mag >= 1e-17 * mag.max())
    w = keep[-1] - keep[0] + 1
    assert w < 0.6 * len(mag)
    _, peak = _tracemalloc_peak(lambda: ph.phase_distribution(sig, "Q"))
    assert peak <= 3 * w * w * 16


def test_circle_state_signal_phase_distribution():
    # a normalized circle state peaks at its own phase like any other signal
    params = st.validate([0.5, 0.5], [16.0])
    phi = 1.1
    sig = st.fock_vector(st.StateSpec(params, cmath.exp(1j * phi)), tol=1e-13)
    d = ph.phase_distribution(sig, "Q")
    assert d.norm_residual <= 1e-8
    theta_pk, _ = d.peak()
    assert abs(theta_pk - phi) <= d.thetas[1] - d.thetas[0]


# ---------------------------------------------------------------- husimi q

def test_husimi_self_overlap():
    alpha = 0.75 * cmath.exp(0.7j)
    sig = st.fock_vector(st.StateSpec(CS, alpha), tol=1e-14)
    assert ph.husimi_q(sig, alpha) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_husimi_one_photon_at_origin():
    assert ph.husimi_q(st.fock_basis_vector(1), 0.0) == 0.0


def test_husimi_self_dual_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(10):
        za = complex(rng.normal(), rng.normal())
        zb = complex(rng.normal(), rng.normal())
        siga = st.fock_vector(st.StateSpec(CS, za), tol=1e-14)
        sigb = st.fock_vector(st.StateSpec(CS, zb), tol=1e-14)
        assert ph.husimi_q(siga, zb) == pytest.approx(ph.husimi_q(sigb, za), rel=1e-10)


def test_husimi_high_fock_number():
    # Poisson(400; 400)/pi: n! and |alpha|^{2n} e^{-|alpha|^2} each leave double range
    n = 400
    expected = math.exp(-n + n * math.log(n) - math.lgamma(n + 1.0)) / math.pi
    assert ph.husimi_q(st.fock_basis_vector(n), 20.0) == pytest.approx(expected, rel=1e-10)
    assert math.isfinite(ph.husimi_q(st.fock_basis_vector(800), math.sqrt(800.0)))


@pytest.mark.parametrize("n", [700, 1000, 1500])
def test_husimi_fock_state_at_its_peak(n):
    # |<alpha|n>|^2 = e^{-x} x^n / n! at x = n: x^{n/2} / sqrt(n!) overflows
    # past n of about 1420 and e^{-x/2} underflows past about 1490
    alpha = math.sqrt(n) * cmath.exp(0.9j)
    expected = math.exp(-n + n * math.log(n) - math.lgamma(n + 1.0)) / math.pi
    assert ph.husimi_q(st.fock_basis_vector(n), alpha) == pytest.approx(expected, rel=1e-10)


# --------------------------------------------------------------- gh husimi

def test_gh_husimi_reduces_to_husimi():
    sig = coherent_signal(phi=0.4)
    for z in (0.3 + 0.2j, 1.0 - 0.5j):
        assert ph.gh_husimi(sig, "CS", CS, z) == pytest.approx(
            ph.husimi_q(sig, z), rel=1e-12
        )


def test_gh_husimi_high_fock_number_plane():
    # (1/pi) wt(x) x^n / rho(n) for the Fock state n, where 1/sqrt(rho(n)) underflows
    n = 400
    sig = st.fock_basis_vector(n)
    p01 = st.validate([], [2.0])
    for family, params, x in (("CS", CS, 400.0), ("F01", p01, 1e4)):
        expected = (wt.weight_tilde(family, params, x)
                    * math.exp(n * math.log(x) - st.log_rho(params, n)) / math.pi)
        got = ph.gh_husimi(sig, family, params, math.sqrt(x) * cmath.exp(0.3j))
        assert got == pytest.approx(expected, rel=1e-10)


def test_gh_husimi_high_fock_number_where_density_underflows():
    # F01 (;2), Fock 400: near x = 1.6e5 wt (about e^-797) underflows and the
    # overlap x^400/rho(400) (about e^785) overflows; log wt enters the exponent
    n, b = 400, 2.0
    sig = st.fock_basis_vector(n)
    p01 = st.validate([], [b])
    at = lambda x: ph.gh_husimi(sig, "F01", p01, math.sqrt(x) * cmath.exp(0.3j))
    # (1/pi) 2 sqrt(x) K_1(2 sqrt(x)) x^n / (n! (2)_n), all in logs
    closed = lambda x: math.exp(math.log(2.0) + 0.5 * math.log(x) + sf.ln_bessel_k(1.0, 2.0 * math.sqrt(x))
                                + n * math.log(x) - math.lgamma(n + 1.0) - math.lgamma(n + 2.0)) / math.pi
    for x in (1.3e5, 1.6e5, 2e5):
        assert math.isfinite(at(x)) and at(x) > 0.0
        assert at(x) == pytest.approx(closed(x), rel=1e-10)
    assert at(1e5) == pytest.approx(1.2994573377513345e-14, rel=1e-12)  # the value before


def test_gh_husimi_rejects_family_mismatch():
    sig = coherent_signal()
    with pytest.raises(ParameterError):
        ph.gh_husimi(sig, "F10", CS, 0.3)


def test_gh_husimi_self_dual_closed_form():
    p10 = st.validate([3.0], [])
    rng = np.random.default_rng(13)
    for _ in range(10):
        zs = 0.7 * (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6))
        z = 0.7 * (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6))
        sig = st.fock_vector(st.StateSpec(p10, zs), tol=1e-15)
        assert ph.gh_husimi(sig, "F10", p10, z) == pytest.approx(
            ph.self_dual_husimi("F10", p10, zs, z), abs=1e-12, rel=1e-10
        )


def test_gh_husimi_normalization_2d():
    # integral over the disk of the generalized Husimi distribution is 1
    from ghcs import quadrature as qd
    p10 = st.validate([3.0], [])
    sig = coherent_signal(absz=0.5)
    m_ang = 64
    angles = 2.0 * math.pi * np.arange(m_ang) / m_ang

    def f_point(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return sum(
            ph.gh_husimi(sig, "F10", p10, math.sqrt(x) * cmath.exp(1j * a))
            for a in angles
        ) / m_ang

    val, _ = qd.integrate_unit(lambda xs: np.array([f_point(x) for x in xs.tolist()]),
                               rel_tol=1e-6, abs_tol=1e-9)
    assert math.pi * val == pytest.approx(1.0, abs=1e-4)


# ----------------------------------------------------------- radial checks

def test_radial_phase_check_cs():
    dev = ph.radial_phase_check(coherent_signal(), "CS", CS,
                                thetas=np.linspace(-math.pi, math.pi, 9))
    assert dev <= 1e-6


def test_radial_phase_check_disk_family():
    for family, params in (("F10", st.validate([3.0], [])),
                           ("F21", st.validate([3.0, 3.0], [2.0]))):
        dev = ph.radial_phase_check(coherent_signal(absz=0.5), family, params,
                                    thetas=np.linspace(-math.pi, math.pi, 9))
        assert dev <= 1e-5


def test_gh_phase_from_husimi_disk_matches_phase_distribution():
    # one density_integral pass over every angle, against the G-table pipeline
    p10 = st.validate([3.0], [])
    sig = coherent_signal(absz=0.5, phi=0.4)
    thetas = np.linspace(-math.pi, math.pi, 25)
    direct = ph.gh_phase_from_husimi(sig, "F10", p10, thetas)
    assert direct.shape == thetas.shape
    series = ph.phase_distribution(sig, p10, thetas).values
    assert np.max(np.abs(direct - series)) <= 1e-5
    # reference: one pass per angle over the explicit overlap sum
    n = np.arange(len(sig.coeffs))
    inv_sqrt_rho = np.array([1.0 / math.sqrt(st.rho(p10, k)) for k in n])
    for th, got in zip(thetas[::6], direct[::6]):
        def g(x):
            z_conj = np.sqrt(x)[:, None] * cmath.exp(-1j * th)
            return np.abs(np.sum(z_conj**n * sig.coeffs * inv_sqrt_rho, axis=1)) ** 2
        ref, _ = wt.density_integral("F10", p10, g, rel_tol=1e-9, abs_tol=1e-13)
        assert got == pytest.approx(0.5 * ref / math.pi, rel=1e-8, abs=1e-12)


def test_gh_phase_from_husimi_high_fock_number_uniform():
    # a Fock state has the uniform phase distribution; its radial density
    # x^n wt(x) / rho(n) peaks where x^{n/2} and 1/sqrt(rho(n)) leave double range
    thetas = np.linspace(-math.pi, math.pi, 7)
    for family, params, n in (("CS", CS, 400), ("F01", st.validate([], [2.0]), 150)):
        got = ph.gh_phase_from_husimi(st.fock_basis_vector(n), family, params, thetas)
        assert np.max(np.abs(got - 1.0 / TWO_PI)) <= 1e-8


def test_radial_phase_check_fock_uniform():
    sig = st.fock_basis_vector(2)
    thetas = np.linspace(-math.pi, math.pi, 5)
    direct = ph.gh_phase_from_husimi(sig, "F01", st.validate([], [2.0]), thetas)
    assert np.max(np.abs(direct - 1.0 / TWO_PI)) <= 1e-8


# ------------------------------------------------------------ dual ordering

def _peak_heights(dists):
    return [d.values[np.argmin(np.abs(d.thetas))] for d in dists]


def test_dual_peak_orderings_move_oppositely():
    # sweep b over the bessel family at |z| = 3/4: size ordering of the
    # analyzer-Q peaks of family signals reverses against the ordering of
    # family-analyzer peaks of a coherent signal
    bs = (0.5, 1.0, 3.0)
    sig_cs = coherent_signal()
    direct = [
        ph.phase_distribution(coherent_signal(params=st.validate([], [b])), "Q")
        for b in bs
    ]
    dual = [
        ph.phase_distribution(sig_cs, st.validate([], [b]))
        for b in bs
    ]
    h_direct = _peak_heights(direct)
    h_dual = _peak_heights(dual)
    assert h_direct == sorted(h_direct, reverse=True)  # decreasing with b
    assert h_dual == sorted(h_dual)                    # increasing with b

    # same for the geometric family swept over a
    a_vals = (1.5, 2.0, 4.0)
    direct = [
        ph.phase_distribution(coherent_signal(params=st.validate([a], [])), "Q")
        for a in a_vals
    ]
    dual = [
        ph.phase_distribution(sig_cs, st.validate([a], []))
        for a in a_vals
    ]
    h_direct = _peak_heights(direct)
    h_dual = _peak_heights(dual)
    assert h_direct == sorted(h_direct)                # increasing with a
    assert h_dual == sorted(h_dual, reverse=True)      # decreasing with a

    # two-parameter sweep: along (2,4) -> (3,3) -> (4,2), a grows while b
    # shrinks, so the direct peaks increase and the dual peaks decrease
    pairs = ((2.0, 4.0), (3.0, 3.0), (4.0, 2.0))
    direct = [
        ph.phase_distribution(coherent_signal(params=st.validate([a], [b])), "Q")
        for a, b in pairs
    ]
    dual = [
        ph.phase_distribution(sig_cs, st.validate([a], [b]))
        for a, b in pairs
    ]
    h_direct = _peak_heights(direct)
    h_dual = _peak_heights(dual)
    assert h_direct == sorted(h_direct)
    assert h_dual == sorted(h_dual, reverse=True)
