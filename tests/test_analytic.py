import cmath
import math

import numpy as np
import pytest

from ghcs import analytic as an
from ghcs import states as st
from ghcs import weights as wt
from ghcs.errors import DivergenceError, RangeError

CS = st.validate([], [])


def wavefunction(family, params, psi, z):
    """sqrt(w(|z|^2)) <p;q;z|psi> = sqrt(wt) A(z*): the row of
    wavefunction_rows at x = |z|^2, theta = arg z."""
    x = abs(z) ** 2
    log_wt, sign = wt.log_weight_tilde(family, params, x)
    assert sign > 0
    return complex(an.wavefunction_rows(params, psi, [cmath.phase(z)])(np.array([x]), log_wt)[0, 0])


def test_bargmann_function_of_coherent_state():
    alpha = 0.8 + 0.3j
    sig = st.fock_vector(st.StateSpec(CS, alpha), tol=1e-15)
    for zeta in (0.5, 1.2 - 0.7j, -2.0 + 1.0j):
        # |zeta| > 1 amplifies the signal's truncation tail, hence the margin
        ref = cmath.exp(zeta * alpha - abs(alpha) ** 2 / 2.0)
        assert an.analytic_rep(CS, sig, zeta) == pytest.approx(ref, rel=1e-9)


def test_single_photon_representation():
    one = st.fock_basis_vector(1)
    zeta = 0.7 + 0.1j
    assert an.analytic_rep(CS, one, zeta) == zeta  # rho(1) = 1


def test_analytic_rep_at_high_fock_order():
    # zeta^1000 / sqrt(1000!) at zeta = sqrt(1000) is 1.58e216, while
    # exp(-log rho(1000) / 2) alone underflows (it returned 0); a factor past
    # double range raises
    mpmath = pytest.importorskip("mpmath")
    zeta = math.sqrt(1000.0)
    got = an.analytic_rep(CS, st.fock_basis_vector(1000), zeta * cmath.exp(0.3j))
    with mpmath.workdps(30):
        ref = complex(mpmath.mpf(1000) ** 500 / mpmath.sqrt(mpmath.factorial(1000))
                      * mpmath.expj(300))
    assert got == pytest.approx(ref, rel=1e-12)
    with pytest.raises(RangeError):
        an.analytic_rep(CS, st.fock_basis_vector(1000), 2.0 * zeta)


def test_hardy_representation():
    # (1;0) at a = 1: rho = 1, so the representation is the raw power series
    p1 = st.validate([1.0], [])
    one = st.fock_basis_vector(1)
    assert an.analytic_rep(p1, one, 0.3) == pytest.approx(0.3)
    with pytest.raises(DivergenceError):
        an.analytic_rep(p1, one, 1.4)


def test_wavefunction_coherent_composition():
    alpha = 0.8 + 0.3j
    z = 0.4 - 0.9j
    sig = st.fock_vector(st.StateSpec(CS, alpha), tol=1e-15)
    ref = cmath.exp(-abs(z) ** 2 / 2.0 + z.conjugate() * alpha - abs(alpha) ** 2 / 2.0)
    assert wavefunction("CS", CS, sig, z) == pytest.approx(ref, rel=1e-10)


def test_wavefunction_at_high_fock_order():
    # |z|^1000 and 1/sqrt(1000!) each leave double range; with sqrt(wt) their
    # product is the Husimi amplitude sqrt(pi Q)
    from ghcs import phase as ph
    sig = st.fock_basis_vector(1000)
    z = math.sqrt(1000.0) * cmath.exp(0.3j)
    v = wavefunction("CS", CS, sig, z)
    assert abs(v) == pytest.approx(math.sqrt(math.pi * ph.gh_husimi(sig, "CS", CS, z)), rel=1e-12)
    assert abs(v) == pytest.approx(0.1123, abs=1e-4)


def test_wavefunction_vacuum_signal():
    p10 = st.validate([3.0], [])
    z = 0.5
    v = wavefunction("F10", p10, st.fock_basis_vector(0), z)
    ref = math.sqrt(wt.weight("F10", p10, 0.25) / st.normalization(p10, 0.25))
    assert v == pytest.approx(ref, rel=1e-12)


def test_wavefunction_norm_by_quadrature():
    # |Psi(z)|^2 integrates (with 1/pi) to 1 over the disk at (1;0), a=3
    from ghcs import quadrature as qd
    p10 = st.validate([3.0], [])
    sig = st.fock_vector(st.StateSpec(CS, 0.5), tol=1e-14)
    m_ang = 64
    angles = 2.0 * math.pi * np.arange(m_ang) / m_ang

    def f_point(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return sum(
            abs(wavefunction("F10", p10, sig, math.sqrt(x) * cmath.exp(1j * a))) ** 2
            for a in angles
        ) / m_ang

    # (1/pi) int d^2z |Psi|^2 = (1/pi)(1/2) int dx (2 pi f(x)) = int f dx
    val, _ = qd.integrate_unit(lambda xs, om: np.array([f_point(x) for x in xs.tolist()]),
                               rel_tol=1e-6, abs_tol=1e-9)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_inner_product_vacuum():
    vac = st.fock_basis_vector(0)
    assert an.inner_product_via_measure("CS", CS, vac, vac) == pytest.approx(
        1.0, abs=1e-10
    )


@pytest.mark.parametrize("family,params", [
    ("CS", CS), ("F10", st.validate([3.0], [])),
    ("F01", st.validate([], [1.5])), ("F21", st.validate([3.0, 3.0], [2.0])),
], ids=("CS", "F10a3", "F01b1.5", "F21a3a3b2"))
def test_inner_product_random_pairs(family, params):
    rng = np.random.default_rng(11)
    for _ in range(5):
        phi = st.fock_from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
        psi = st.fock_from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
        exact = phi.inner(psi)
        via = an.inner_product_via_measure(family, params, phi, psi)
        assert abs(via - exact) <= 1e-6


@pytest.mark.parametrize("family,params", [
    ("CS", CS), ("F01", st.validate([], [2.0])), ("F11", st.validate([2.0], [4.0])),
], ids=("CS", "F01b2", "F11a2b4"))
def test_inner_product_high_fock_number(family, params):
    # x^n wt(x)/rho(n) peaks where x^{n/2} overflows and wt underflows: the rows
    # are formed in logs and the pass starts split at the peak
    for n in (200, 250, 300, 400):
        v = st.fock_basis_vector(n)
        assert abs(an.inner_product_via_measure(family, params, v, v) - 1.0) <= 1e-9


def test_wavefunction_rows_match_pointwise_wavefunction():
    # each row entry is sqrt(wt(x)) A(sqrt(x) e^{-i theta}), A from analytic_rep
    p = st.validate([2.0], [4.0])
    sig = st.fock_vector(st.StateSpec(p, 0.9 - 0.4j), tol=1e-15)
    xs, thetas = np.array([0.3, 2.0, 9.0]), np.array([-2.0, 0.0, 1.1])
    ln = np.array([wt.log_weight_tilde("F11", p, x)[0] for x in xs.tolist()])
    rows = an.wavefunction_rows(p, sig, thetas)(xs, ln)
    for i, x in enumerate(xs.tolist()):
        for j, th in enumerate(thetas.tolist()):
            ref = math.exp(0.5 * ln[i]) * an.analytic_rep(p, sig, math.sqrt(x) * cmath.exp(-1j * th))
            assert rows[i, j] == pytest.approx(ref, rel=1e-12)


def test_cauchy_riemann_residual():
    # analyticity probe: the finite-difference Cauchy-Riemann residual of
    # analytic_rep on a plus-stencil around zeta
    alpha = 0.8 + 0.3j
    sig = st.fock_vector(st.StateSpec(CS, alpha), tol=1e-14)
    f, h = lambda w: an.analytic_rep(CS, sig, w), 1e-5
    for zeta in (0.3 + 0.2j, -0.5 + 1.0j):
        du_dx = (f(zeta + h) - f(zeta - h)) / (2.0 * h)
        du_dy = (f(zeta + 1j * h) - f(zeta - 1j * h)) / (2.0 * h)
        assert abs(du_dx + 1j * du_dy) / 2.0 <= 1e-6

