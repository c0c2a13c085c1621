"""Analytic representations of arbitrary states over coherent families.

Any state psi with Fock coefficients psi_n defines an entire (plane
families) or unit-disk (p = q+1 families) analytic function

    A(zeta) = sum_n zeta^n psi_n / sqrt(rho(n)),

the generalized analytic representation; for the empty parameter set this
is the Bargmann function, for the phase-state family the Hardy-space
representation.  The family wave function sqrt(w) <p;q;z|psi> and the
measure d mu = d^2 zeta / pi * w/N turn scalar products into integrals,
which this module verifies by radial-angular quadrature: an exact angular
rule inside weights.density_integral, the package's one radial integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .states import FockVector, ParameterSet, rho_steps
from .weights import density_integral, family_params, support_radius, weight_tilde


@dataclass(frozen=True)
class AnalyticSample:
    zeta: complex
    value: complex
    params: ParameterSet


def analytic_rep(params: ParameterSet, psi: FockVector, zeta: complex) -> complex:
    """A(zeta) = sum_n zeta^n psi_n / sqrt(rho(n)) over the truncated signal."""
    zeta = complex(zeta)
    if params.p == params.q + 1 and abs(zeta) > 1.0:
        # the truncated sum is a polynomial, so the closed disk is allowed;
        # beyond it the full series has no meaning for p = q + 1
        raise DivergenceError(
            f"analytic representation of a disk family needs |zeta| <= 1, got {abs(zeta):g}"
        )
    scaled = psi.coeffs * np.exp(-0.5 * rho_steps(params, psi.cutoff)[1])
    return complex(np.polynomial.polynomial.polyval(zeta, scaled))


def analytic_sample(params: ParameterSet, psi: FockVector, zeta: complex) -> AnalyticSample:
    return AnalyticSample(complex(zeta), analytic_rep(params, psi, zeta), params)


def ghcs_wavefunction(family: str, params: ParameterSet, psi: FockVector,
                      z: complex) -> complex:
    """sqrt(w(|z|^2)) <p;q;z|psi> = sqrt(wt(|z|^2)) A(z*)."""
    family_params(family, params)
    z = complex(z)
    x = abs(z) ** 2
    r = support_radius(family)
    if x >= r:
        raise DivergenceError(f"|z|^2 = {x:g} outside the family domain [0, {r})")
    wt_val = weight_tilde(family, params, x)
    if wt_val < 0:
        raise DivergenceError("weight density is negative here; no wave function")
    return math.sqrt(wt_val) * analytic_rep(params, psi, z.conjugate())


def inner_product_via_measure(family: str, params: ParameterSet,
                              phi: FockVector, psi: FockVector,
                              quad_tol: float = 1e-9) -> complex:
    """<phi|psi> reconstructed as integral d mu(zeta) A_phi*(zeta) A_psi(zeta).

    Angular integration uses a uniform M-point rule with M > combined
    cutoff (exact: the integrand is a trigonometric polynomial of bounded
    degree); the complex angular mean is integrated against the moment
    density wt in one weights.density_integral pass.
    """
    n_max = max(phi.cutoff, psi.cutoff)
    m_ang = max(64, 2 * n_max + 2)
    angles = 2.0 * math.pi * np.arange(m_ang) / m_ang
    phase_grid = np.exp(1j * angles)
    half_rho = np.exp(-0.5 * rho_steps(params, n_max)[1])
    c_phi = phi.coeffs * half_rho[: phi.cutoff + 1]
    c_psi = psi.coeffs * half_rho[: psi.cutoff + 1]
    pv = np.polynomial.polynomial.polyval

    def angular_mean(x: float) -> complex:
        zetas = math.sqrt(x) * phase_grid
        return complex(np.mean(pv(zetas, c_phi).conj() * pv(zetas, c_psi)))

    val, _ = density_integral(family, params, angular_mean, rel_tol=quad_tol, abs_tol=1e-12)
    return complex(val)


def cauchy_riemann_residual(params: ParameterSet, psi: FockVector,
                            zeta: complex, h: float = 1e-5) -> float:
    """Finite-difference Cauchy-Riemann residual of the analytic
    representation on a plus-stencil around zeta (analyticity probe)."""
    f = lambda w: analytic_rep(params, psi, w)
    du_dx = (f(zeta + h) - f(zeta - h)) / (2.0 * h)
    du_dy = (f(zeta + 1j * h) - f(zeta - 1j * h)) / (2.0 * h)
    return abs(du_dx + 1j * du_dy) / 2.0
