import cmath
import math

import numpy as np
import pytest

from ghcs import analytic as an
from ghcs import states as st
from ghcs import weights as wt
from ghcs.errors import DivergenceError

CS = st.validate([], [])


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
    assert an.ghcs_wavefunction("CS", CS, sig, z) == pytest.approx(ref, rel=1e-10)


def test_wavefunction_vacuum_signal():
    p10 = st.validate([3.0], [])
    z = 0.5
    v = an.ghcs_wavefunction("F10", p10, st.fock_basis_vector(0), z)
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
            abs(an.ghcs_wavefunction("F10", p10, sig, math.sqrt(x) * cmath.exp(1j * a))) ** 2
            for a in angles
        ) / m_ang

    # (1/pi) int d^2z |Psi|^2 = (1/pi)(1/2) int dx (2 pi f(x)) = int f dx
    val, _ = qd.integrate_unit(lambda xs: np.array([f_point(x) for x in xs.tolist()]),
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


def test_cauchy_riemann_residual():
    alpha = 0.8 + 0.3j
    sig = st.fock_vector(st.StateSpec(CS, alpha), tol=1e-14)
    for zeta in (0.3 + 0.2j, -0.5 + 1.0j):
        assert an.cauchy_riemann_residual(CS, sig, zeta) <= 1e-6


def test_analytic_sample_container():
    s = an.analytic_sample(CS, st.fock_basis_vector(1), 0.25)
    assert s.zeta == 0.25 and s.value == 0.25 and s.params == CS
