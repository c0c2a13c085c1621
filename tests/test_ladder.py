import cmath
import math

import numpy as np
import pytest

from ghcs import ladder as ld
from ghcs import states as st

CS = st.validate([], [])

PARAM_MATRIX = [
    CS,
    st.validate([], [0.2]),
    st.validate([2.0], [4.0]),
    st.validate([2.0], []),
    st.validate([3.0, 3.0], [2.0]),
    st.validate([1 + 2j, 1 - 2j], [0.5]),
]


def test_f_oscillator():
    # (0;0): f(n) = sqrt(n+1)
    assert ld.f_coeff(CS, 3) == pytest.approx(2.0, rel=1e-15)


def test_f_minus_one_is_zero():
    for p in PARAM_MATRIX:
        assert ld.f_coeff(p, -1) == 0.0


def test_f_hand_value():
    # (1;0) a=2 at n=0: sqrt(1 * 1 / 2)
    assert ld.f_coeff(st.validate([2.0], []), 0) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_f_raising_hand_value():
    # (1;1) a=2, b=3, n=1: sqrt(2 * 4 / 3)
    assert ld.f_coeff(st.validate([2.0], [3.0]), 1) == pytest.approx(
        math.sqrt(8.0 / 3.0), rel=1e-15
    )


@pytest.mark.parametrize("params", PARAM_MATRIX, ids=lambda p: p.label())
def test_product_identity(params):
    # rho(n) = (f(0) ... f(n-1))^2
    log_prod = 0.0
    for n in range(1, 101):
        log_prod += 2.0 * math.log(ld.f_coeff(params, n - 1))
        assert log_prod == pytest.approx(st.log_rho(params, n), abs=1e-12 * max(1, abs(log_prod)))


def test_lowering_on_basis():
    v = st.fock_basis_vector(3)
    out = ld.apply_lowering(CS, v)
    assert out.cutoff == 2
    assert out.coeffs[2] == pytest.approx(math.sqrt(3.0))


def test_lowering_annihilates_vacuum():
    out = ld.apply_lowering(CS, st.fock_basis_vector(0))
    assert np.all(out.coeffs == 0.0)


def test_adjointness():
    # <U^dagger u|v> = <u|U v>, with (U^dagger u)_(n+1) = f(n) u_n formed here
    rng = np.random.default_rng(5)
    params = st.validate([2.0], [3.0])
    u = st.fock_from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
    v = st.fock_from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
    f = np.array([ld.f_coeff(params, n) for n in range(9)])
    lhs = np.vdot(np.concatenate(([0.0], f * u.coeffs))[:9], v.coeffs)
    rhs = u.inner(ld.apply_lowering(params, v))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def commutator_diagonal(params, n):
    """<n| [U, U^dagger] |n> = f(n)^2 - f(n-1)^2 (noncanonical in general)."""
    return ld.f_coeff(params, n) ** 2 - ld.f_coeff(params, n - 1) ** 2


def test_commutator_canonical_limit():
    for n in (0, 1, 7, 40):
        assert commutator_diagonal(CS, n) == pytest.approx(1.0, rel=1e-14)


def test_commutator_phase_operator_limit():
    # (1;0) a=1: f = 1, so the diagonal is 1 at n=0 and 0 beyond
    p = st.validate([1.0], [])
    assert commutator_diagonal(p, 0) == pytest.approx(1.0)
    for n in (1, 2, 9):
        assert commutator_diagonal(p, n) == pytest.approx(0.0, abs=1e-14)


def test_commutator_matrix_oracle():
    rng = np.random.default_rng(7)
    params = st.validate([2.0], [4.0])
    n_dim = 12
    v = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    low = np.zeros((n_dim, n_dim), dtype=complex)
    for n in range(n_dim - 1):
        low[n, n + 1] = ld.f_coeff(params, n)
    comm = low @ low.conj().T - low.conj().T @ low
    lhs = (v.conj() @ comm @ v).real
    # interior diagonal matches f(n)^2 - f(n-1)^2; the last row feels the
    # truncation, so compare on the interior block
    rhs = sum(commutator_diagonal(params, n) * abs(v[n]) ** 2 for n in range(n_dim - 1))
    rhs += (0.0 - ld.f_coeff(params, n_dim - 2) ** 2) * abs(v[n_dim - 1]) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_coalescence_of_f():
    base = st.validate([2.0], [])
    ext = base.appended(1.7)
    for n in range(50):
        assert ld.f_coeff(ext, n) == pytest.approx(ld.f_coeff(base, n), rel=1e-13)


# ------------------------------------------------------------- eigenvalues

def test_eigenvalue_vacuum():
    assert ld.eigenvalue_residual(st.StateSpec(CS, 0.0)) == 0.0


def test_eigenvalue_plane():
    res = ld.eigenvalue_residual(st.StateSpec(CS, 1.0 + 0.0j), tol=1e-14)
    assert res <= 1e-6


def test_eigenvalue_disk():
    res = ld.eigenvalue_residual(
        st.StateSpec(st.validate([2.0], [3.0]), 0.8 + 0.3j), tol=1e-14
    )
    assert res <= 1e-6


def test_eigenvalue_circle():
    p = st.validate([0.5, 0.5], [16.0])
    res = ld.eigenvalue_residual(st.StateSpec(p, cmath.exp(0.9j)), tol=1e-14)
    assert res <= 1e-6


def test_eigenvalue_interior_cancellation_is_exact():
    # the residual is concentrated on the truncation boundary: it should be
    # within a small factor of |z| |c_N|
    spec = st.StateSpec(CS, 2.0)
    v = st.fock_vector(spec, tol=1e-14)
    res = ld.eigenvalue_residual(spec, tol=1e-14)
    assert res <= 4.0 * abs(spec.z) * abs(v.coeffs[v.cutoff])


@pytest.mark.parametrize("b,az", [(0.4, 1.37), (1.0, 1.19)])
def test_eigenvalue_residual_meets_its_bound(b, az):
    # the residual is the boundary row |z c_N|; the tail certificate bounds
    # |c_N|^2 too, so it stays below |z| sqrt(tol) (1.08e-6 when it did not)
    res = ld.eigenvalue_residual(st.StateSpec(st.validate([], [b]), az), tol=1e-14)
    assert res <= az * 1e-7 * (1.0 + 1e-6) and res <= 1e-6


def test_eigenvalue_residual_of_the_slice():
    # the Fock slice ends SLICE_REST below its peak, so |z c_N| is far below
    # |z| sqrt(tol) (2.33e-7 from a separate cutoff search)
    res = ld.eigenvalue_residual(st.StateSpec(st.validate([2.0], [4.0]), 3.0j), tol=1e-14)
    assert res <= 1e-9


def test_eigenvalue_circle_beyond_old_cap():
    p = st.validate([2.5, 2.5], [9.0])  # eta = -4: cutoff 26,151 at tol 1e-14
    assert ld.eigenvalue_residual(st.StateSpec(p, 1.0)) <= 1e-6



def test_cosine_sine_square_sum():
    # C = (U^dag + U)/2 and S = i(U^dag - U)/2 give C^2 + S^2 the diagonal
    # (f(n-1)^2 + f(n)^2)/2; at (1;0) a=1 (f = 1) it is 1 past n = 0
    p = st.validate([1.0], [])
    diag = [(ld.f_coeff(p, n - 1) ** 2 + ld.f_coeff(p, n) ** 2) / 2.0 for n in range(6)]
    assert diag[0] == pytest.approx(0.5, rel=1e-14)
    for n in range(1, 6):
        assert diag[n] == pytest.approx(1.0, rel=1e-14)
