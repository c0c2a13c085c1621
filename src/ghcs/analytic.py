"""Analytic representations of arbitrary states over coherent families.

Any state psi with Fock coefficients psi_n defines an entire (plane
families) or unit-disk (p = q+1 families) analytic function

    A(zeta) = sum_n zeta^n psi_n / sqrt(rho(n)),

the generalized analytic representation; for the empty parameter set this
is the Bargmann function, for the phase-state family the Hardy-space
representation.  The family wave function sqrt(w) <p;q;z|psi> =
sqrt(wt) A(z*) (wavefunction_rows) and the measure d mu = d^2 zeta / pi * w/N
turn scalar products into integrals, which this module verifies by
radial-angular quadrature: an exact angular rule inside
weights.density_integral, the package's one radial integral.  `ghcs verify
measure` holds both against their second pipelines: the Fock inner product
and analytic_rep.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DivergenceError, RangeError
from .states import FockVector, ParameterSet, rho_steps
from .weights import density_integral

QUAD_TOL = 1e-9  # relative tolerance of the radial passes here and in phase


def analytic_rep(params: ParameterSet, psi: FockVector, zeta: complex) -> complex:
    """A(zeta) = sum_n zeta^n psi_n / sqrt(rho(n)) over the truncated signal, with
    zeta^n / sqrt(rho(n)) stepped by zeta / f(n); one past double range raises RangeError."""
    zeta = complex(zeta)
    if params.p == params.q + 1 and abs(zeta) > 1.0:
        # the truncated sum is a polynomial, so the closed disk is allowed;
        # beyond it the full series has no meaning for p = q + 1
        raise DivergenceError(
            f"analytic representation of a disk family needs |zeta| <= 1, got {abs(zeta):g}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        value = complex(psi.coeffs @ np.cumprod(np.append(1.0, zeta / np.sqrt(rho_steps(
            params, psi.cutoff)[0]))))
    if not cmath.isfinite(value):
        raise RangeError(f"zeta^n / sqrt(rho(n)) passes double range at |zeta| = {abs(zeta):g}")
    return value


def wavefunction_rows(params: ParameterSet, psi: FockVector, thetas):
    """(x, log_wt) -> sqrt(|wt(x)|) A(sqrt(x) e^{-i theta}), the wave function
    at z = sqrt(x) e^{i theta}: a row per node x > 0, a column per theta,
    log_wt = log |wt| a float or one per row.  Each term's magnitude is formed
    in logs: finite where x^{n/2}, 1/sqrt(rho(n)) or wt leave double range."""
    n = np.arange(psi.cutoff + 1)
    half_log_rho = 0.5 * rho_steps(params, psi.cutoff)[1]
    rotations = np.exp(-1j * np.outer(n, thetas))
    return lambda x, log_wt: (psi.coeffs * np.exp(0.5 * (
        np.log(x)[:, None] * n + np.reshape(log_wt, (-1, 1))) - half_log_rho)) @ rotations


def inner_product_via_measure(family: str, params: ParameterSet,
                              phi: FockVector, psi: FockVector) -> complex:
    """<phi|psi> reconstructed as integral d mu(zeta) A_phi*(zeta) A_psi(zeta).

    Angular integration uses a uniform M-point rule with M > combined
    cutoff (exact: the integrand is a trigonometric polynomial of bounded
    degree); the complex angular mean of the wavefunction_rows products is
    integrated in one weights.density_integral pass, split at the Fock order
    of the largest |phi_n psi_n|.
    """
    m_ang = max(64, 2 * max(phi.cutoff, psi.cutoff) + 2)
    angles = 2.0 * math.pi * np.arange(m_ang) / m_ang
    rows_phi, rows_psi = (wavefunction_rows(params, v, angles) for v in (phi, psi))
    k = min(phi.cutoff, psi.cutoff) + 1
    val, _ = density_integral(
        family, params, lambda x, ln: np.mean(rows_phi(x, ln).conj() * rows_psi(x, ln), axis=1),
        rel_tol=QUAD_TOL, abs_tol=1e-12,
        n_peak=int(np.argmax(np.abs(phi.coeffs[:k] * psi.coeffs[:k]))))
    return complex(val)
