"""Generalized hypergeometric ladder operators on truncated Fock space.

The lowering operator U maps |n+1> to f(n) |n> with

    f(n) = sqrt[(n+1) prod(n + b_j) / prod(n + a_i)],   f(-1) = 0,

so every state of the family is an eigenstate of U with eigenvalue z, and
rho(n) = (f(0) f(1) ... f(n-1))^2 ties the operator back to the state's
moments.  For p < q+1 these generalize the harmonic-oscillator a/a^dagger
(f(n) = sqrt(n+1) when p = q = 0); for p = q+1 they generalize the
exponential phase operator, whose a -> 1 limit has f = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .states import MAX_CUTOFF, FockVector, ParameterSet, StateSpec, fock_vector, rho_steps


def f_coeff(params: ParameterSet, n: int) -> float:
    """Ladder coefficient f(n) >= 0, the square root of the parameter set's
    rho step f2[n] = rho(n+1)/rho(n) (states.rho_steps); f(-1) = 0 by
    definition."""
    if n < -1:
        raise ValueError("ladder coefficient index must be >= -1")
    if n == -1:
        return 0.0
    return math.sqrt(rho_steps(params, n + 1)[0][n])


def apply_lowering(params: ParameterSet, v: FockVector) -> FockVector:
    """(U v)_n = f(n) v_{n+1}; the cutoff drops by one.

    The propagated tail bound scales the input tail by the boundary rate
    f(N)^2 (an estimate, not a sup bound: f grows without bound for plane
    families, but the certified tails decay much faster than f^2 grows).
    """
    n_max = v.cutoff
    if n_max == 0:
        return FockVector(np.zeros(1, dtype=complex), 0.0, False)
    f2 = rho_steps(params, n_max + 1)[0]
    coeffs = np.sqrt(f2[:n_max]) * v.coeffs[1:]
    tail = v.tail_bound * f2[n_max] if math.isfinite(v.tail_bound) else math.inf
    return FockVector(coeffs, tail, False)


def apply_raising(params: ParameterSet, v: FockVector) -> FockVector:
    """(U^dagger v)_{n+1} = f(n) v_n; the cutoff grows by one, up to MAX_CUTOFF."""
    n_max = v.cutoff
    if n_max + 1 > MAX_CUTOFF:
        raise ConvergenceError(f"raising would exceed the cutoff cap {MAX_CUTOFF}")
    f2 = rho_steps(params, n_max + 2)[0]
    coeffs = np.concatenate(([0.0 + 0.0j], np.sqrt(f2[: n_max + 1]) * v.coeffs))
    tail = v.tail_bound * f2[n_max + 1] if math.isfinite(v.tail_bound) else math.inf
    return FockVector(coeffs, tail, False)


def commutator_diagonal(params: ParameterSet, n: int) -> float:
    """<n| [U, U^dagger] |n> = f(n)^2 - f(n-1)^2 (noncanonical in general)."""
    if n < 0:
        raise ValueError("diagonal index must be non-negative")
    fn = f_coeff(params, n)
    fm = f_coeff(params, n - 1)
    return fn * fn - fm * fm


def eigenvalue_residual(spec: StateSpec, tol: float = 1e-14) -> float:
    """|| U v - z v ||_2 for the truncated state v.

    Interior components cancel through rho(n+1) = rho(n) f(n)^2 up to
    rounding; what remains is the dropped boundary row |z c_N|.  The
    certified tail of fock_vector covers sum_{k>=N} |c_k|^2, c_N included,
    so the residual is at most |z| sqrt(tail_bound) plus rounding: below
    |z| 1e-9 for plane and disk states (their slice rest is at most
    states.SLICE_REST), below |z| sqrt(tol) on the circle.
    """
    v = fock_vector(spec, tol=tol)
    z = complex(spec.z)
    c = v.coeffs
    d = np.sqrt(rho_steps(spec.params, v.cutoff)[0]) * c[1:] - z * c[:-1]
    d = np.append(d, z * c[-1])  # dropped boundary row
    return math.sqrt(float(np.vdot(d, d).real))


def hermitian_matrices(params: ParameterSet, n_cutoff: int):
    """Dense truncated quadrature/phase combinations in the Fock basis.

    Returns (Q, P, C, S) with Q = (U^dag + U)/sqrt2, P = i(U^dag - U)/sqrt2,
    C = (U^dag + U)/2, S = i(U^dag - U)/2, each of shape
    (n_cutoff+1, n_cutoff+1).  The row coupling past the cutoff is dropped.
    """
    if n_cutoff < 1:
        raise ValueError("need at least a 2-dimensional truncation")
    low = np.diag(np.sqrt(rho_steps(params, n_cutoff)[0]), 1).astype(complex)
    raise_ = low.conj().T
    q = (raise_ + low) / math.sqrt(2.0)
    p = 1j * (raise_ - low) / math.sqrt(2.0)
    c = (raise_ + low) / 2.0
    s = 1j * (raise_ - low) / 2.0
    return q, p, c, s
