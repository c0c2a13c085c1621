"""Husimi distributions and phase distributions.

The phase distribution of a signal with Fock coefficients psi_n (or a
density matrix rho_{n,n'}) under an analyzing family is

    P(theta) = (1/2pi) sum_{n,n'} psi_n psi*_{n'} G(n,n') e^{-i(n-n') theta},

where the G table encodes the analyzer through half-order moments:
G(n,n') = rho((n+n')/2) / sqrt(rho(n) rho(n')).  The analyzer tag "Q"
(conventional Husimi) is the empty parameter set, G = Gamma(m+1)/
sqrt(n! n'!); the tag "PB" (phase-state analyzer, a -> 1 of (1;0)) gives
the all-ones table.  The generalized Husimi distribution itself is
(1/pi) w(|z|^2) |<p;q;z|psi>|^2 over the analyzer's plane or disk, and its
radial integral, taken by weights.density_integral, reproduces the G-table
phase distribution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ParameterError
from .states import FockVector, ParameterSet, log_rho_gamma, rho_steps
from .weights import density_integral, family_params, weight_tilde

G_TABLE_CAP = 2048

_ANALYZER_TAGS = {"Q": ParameterSet((), ()), "PB": ParameterSet((1.0,), ())}


def analyzer_params(analyzer) -> ParameterSet:
    """Resolve an analyzer tag ('Q', 'PB') or ParameterSet."""
    if isinstance(analyzer, ParameterSet):
        return analyzer
    try:
        return _ANALYZER_TAGS[analyzer]
    except KeyError:
        raise ValueError(f"analyzer must be 'Q', 'PB', or a ParameterSet, got {analyzer!r}")


@dataclass(frozen=True)
class GCoefficientTable:
    analyzer: ParameterSet
    table: np.ndarray

    def __getitem__(self, idx):
        return self.table[idx]


def g_coefficients(analyzer, n_cutoff: int) -> GCoefficientTable:
    """Symmetric table G(n,n') for n,n' <= n_cutoff, diagonal exactly 1.

    Built in log space from T(k) = log rho(k/2) on the half-integer grid
    (gamma form), G = exp(T[n+n'] - (T[2n] + T[2n'])/2); the n = n'
    exponent cancels identically, so the diagonal is exactly 1.
    """
    params = analyzer_params(analyzer)
    if n_cutoff > G_TABLE_CAP:
        raise OverflowError(f"G table cutoff {n_cutoff} exceeds cap {G_TABLE_CAP}")
    t = np.array([log_rho_gamma(params, 0.5 * k) for k in range(2 * n_cutoff + 1)])
    idx = np.arange(n_cutoff + 1)
    expo = t[idx[:, None] + idx[None, :]] - 0.5 * (t[2 * idx][:, None] + t[2 * idx][None, :])
    return GCoefficientTable(params, np.exp(expo))


@dataclass(frozen=True)
class PhaseDistribution:
    thetas: np.ndarray
    values: np.ndarray
    norm_residual: float
    analyzer_label: str = ""

    def peak(self):
        k = int(np.argmax(self.values))
        return float(self.thetas[k]), float(self.values[k])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.thetas))


def default_theta_grid(points: int = 721) -> np.ndarray:
    return np.linspace(-math.pi, math.pi, points)


def _signal_products(signal):
    """Return (coefficient matrix accessor, cutoff) for a FockVector or a
    hermitian density matrix in the Fock basis."""
    if isinstance(signal, FockVector):
        psi = signal.coeffs
        return np.outer(psi, psi.conj()), len(psi) - 1
    mat = np.asarray(signal, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("density matrix must be square")
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > 1e-12:
        raise ParameterError(f"density matrix hermiticity residual {herm:g} > 1e-12")
    return mat, mat.shape[0] - 1


def phase_distribution(signal, analyzer="Q", thetas=None) -> PhaseDistribution:
    """Phase distribution of a pure signal (FockVector) or density matrix.

    The double sum collapses over the difference index m = n - n', giving
    P(theta) = (1/2pi) [C_0 + 2 sum_m Re(C_m e^{-im theta})]; the result is
    real by hermiticity, and the reported normalization residual is the
    trapezoid integral's deviation from 1.
    """
    if thetas is None:
        thetas = default_theta_grid()
    thetas = np.asarray(thetas, dtype=float)
    prod, cutoff = _signal_products(signal)
    g = g_coefficients(analyzer, cutoff).table
    weighted = prod * g
    # C_m = sum_n psi_{n+m} psi*_n G(n+m, n): the m-th lower diagonal
    c = np.array([np.trace(weighted, offset=-m) for m in range(cutoff + 1)])
    phases = np.exp(-1j * np.outer(np.arange(1, cutoff + 1), thetas))
    values = (c[0].real + 2.0 * (c[1:, None] * phases).real.sum(axis=0)) / (2.0 * math.pi)
    residual = abs(float(np.trapezoid(values, thetas)) - 1.0)
    return PhaseDistribution(
        thetas, values, residual,
        analyzer if isinstance(analyzer, str) else analyzer.label(),
    )


def husimi_q(signal: FockVector, alpha: complex) -> float:
    """Conventional Husimi value (1/pi) |<alpha|psi>|^2."""
    psi = signal.coeffs
    alpha = complex(alpha)
    n = np.arange(len(psi))
    if alpha == 0:
        amp = psi[0]
    else:
        log_mag = n * math.log(abs(alpha)) - 0.5 * np.array(
            [math.lgamma(k + 1.0) for k in range(len(psi))]
        )
        coeff = np.exp(log_mag) * np.exp(-1j * n * cmath.phase(alpha))
        amp = np.sum(coeff * psi) * math.exp(-0.5 * abs(alpha) ** 2)
    return float(abs(amp) ** 2 / math.pi)


def _overlap_sq(params: ParameterSet, signal: FockVector, thetas):
    """x -> |sum_n (z*)^n psi_n / sqrt(rho(n))|^2 at z = sqrt(x) e^{i theta}
    for every theta (normalization-free overlap), with the magnitudes
    x^{n/2} / sqrt(rho(n)) formed in log space."""
    psi = signal.coeffs
    n = np.arange(len(psi))
    half_log_rho = 0.5 * rho_steps(params, len(psi) - 1)[1]
    rotations = np.exp(-1j * np.outer(n, thetas))
    return lambda x: np.abs((psi * np.exp(0.5 * n * math.log(x) - half_log_rho)) @ rotations) ** 2


def gh_husimi(signal: FockVector, family: str, params: ParameterSet,
              z: complex) -> float:
    """Generalized Husimi distribution (1/pi) w(|z|^2) |<p;q;z|psi>|^2 for a
    weight-supported analyzer family; reduces to husimi_q for family 'CS'."""
    family_params(family, params)
    z = complex(z)
    x = abs(z) ** 2
    if x > 0.0:
        overlap_sq = float(_overlap_sq(params, signal, [cmath.phase(z)])(x)[0])
    else:
        overlap_sq = abs(signal.coeffs[0]) ** 2
    return weight_tilde(family, params, x) * overlap_sq / math.pi


def self_dual_husimi(family: str, params: ParameterSet, z_signal: complex,
                     z: complex) -> float:
    """Closed form of the generalized Husimi distribution when the signal is
    a state of the analyzer's own family:
    (1/pi) w(|z|^2) |N(z* zs)|^2 / (N(|z|^2) N(|zs|^2))."""
    family_params(family, params)
    x = abs(complex(z)) ** 2
    num = specfun.pfq(params.a, params.b, complex(z).conjugate() * complex(z_signal),
                      tol=1e-14).value
    den = specfun.pfq(params.a, params.b, abs(complex(z_signal)) ** 2, tol=1e-14).value
    return (
        weight_tilde(family, params, x)
        * abs(complex(num)) ** 2
        / complex(den).real
        / math.pi
    )


def gh_phase_from_husimi(signal: FockVector, family: str, params: ParameterSet,
                         thetas, quad_tol: float = 1e-9) -> np.ndarray:
    """Phase distribution by direct radial integration of the generalized
    Husimi distribution: P(theta) = (1/2) int_0^R Q(sqrt(x) e^{i theta}) dx,
    one weights.density_integral pass over all angles."""
    val, _ = density_integral(family, params, _overlap_sq(params, signal, thetas),
                              rel_tol=quad_tol, abs_tol=1e-13)
    return 0.5 * val / math.pi


def radial_phase_check(signal: FockVector, family: str, params: ParameterSet,
                       thetas=None, quad_tol: float = 1e-9) -> float:
    """Max absolute deviation between the radially-integrated generalized
    Husimi distribution and the G-table phase distribution (two independent
    pipelines for the same quantity)."""
    if thetas is None:
        thetas = np.linspace(-math.pi, math.pi, 25)
    thetas = np.asarray(thetas, dtype=float)
    direct = gh_phase_from_husimi(signal, family, params, thetas, quad_tol=quad_tol)
    series = phase_distribution(signal, params, thetas).values
    return float(np.max(np.abs(direct - series)))
