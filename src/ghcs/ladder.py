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

from .states import FockVector, ParameterSet, StateSpec, fock_vector, rho_steps


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


def eigenvalue_residual(spec: StateSpec, tol: float = 1e-14) -> float:
    """|| U v - z v ||_2 for the truncated state v, with U v from apply_lowering.

    Interior components cancel through rho(n+1) = rho(n) f(n)^2 up to
    rounding; what remains is the dropped boundary row |z c_N|.  The
    certified tail of fock_vector covers sum_{k>=N} |c_k|^2, c_N included,
    so the residual is at most |z| sqrt(tail_bound) plus rounding: below
    |z| 1e-9 for plane and disk states (their slice rest is at most
    states.SLICE_REST), below |z| sqrt(tol) on the circle.
    """
    v = fock_vector(spec, tol=tol)
    z = complex(spec.z)
    d = apply_lowering(spec.params, v).coeffs - z * v.coeffs[:-1]
    d = np.append(d, z * v.coeffs[-1])  # dropped boundary row
    return math.sqrt(float(np.vdot(d, d).real))
