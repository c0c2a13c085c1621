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
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import specfun
from .errors import ParameterError, RangeError
from .states import FockVector, ParameterSet, log_rho_half, rho_steps
from .weights import density_integral, family_params, log_weight_tilde, weight_tilde

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


def _capped_log_rho_half(params: ParameterSet, n_cutoff: int) -> np.ndarray:
    if n_cutoff > G_TABLE_CAP:
        raise RangeError(f"G table cutoff {n_cutoff} exceeds cap {G_TABLE_CAP}")
    return log_rho_half(params, n_cutoff)


def _g_block(t: np.ndarray, lo: int, w: int) -> np.ndarray:
    """G(n, n') for n, n' = lo..lo+w-1 from T[k] = log rho(k/2), as one w x w
    array: exp(T[n+n'] - (T[2n] + T[2n'])/2) formed in place on a Hankel view
    of T.  The view minus the symmetric sum is exactly 0 on the diagonal and
    bitwise symmetric, so G is too."""
    half = 0.5 * t[2 * lo: 2 * (lo + w): 2]
    g = np.add.outer(half, half)
    np.subtract(sliding_window_view(t[2 * lo: 2 * (lo + w) - 1], w), g, out=g)
    return np.exp(g, out=g)


def g_coefficients(analyzer, n_cutoff: int) -> GCoefficientTable:
    """Symmetric table G(n,n') for n,n' <= n_cutoff, diagonal exactly 1.

    T(k) = log rho(k/2) comes from the half-integer sequence
    states.log_rho_half; the table is the one N^2 array of _g_block.
    Raises RangeError (an OverflowError) above G_TABLE_CAP.
    """
    params = analyzer_params(analyzer)
    t = _capped_log_rho_half(params, n_cutoff)
    return GCoefficientTable(params, _g_block(t, 0, n_cutoff + 1))


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


def phase_distribution(signal, analyzer="Q", thetas=None) -> PhaseDistribution:
    """Phase distribution of a pure signal (FockVector) or density matrix.

    P(theta) = (1/2pi) [C_0 + 2 Re sum_m C_m e^{-im theta}] with the lower
    diagonal sums C_m = sum_n rho_{n+m,n} G(n+m,n), taken as the row sums of a
    skewed view of one zero-padded (2w, w) buffer and summed over theta by
    Horner's rule in e^{-i theta}.  A pure signal enters on the window of n
    with |psi_n| >= 1e-17 max|psi| when T = log rho(k/2) is discretely convex
    (then G <= 1, and the dropped terms are below 1e-17 ||psi||_1 max|psi|);
    otherwise, and for density matrices, the window is the whole matrix.
    The normalization residual is the trapezoid integral's deviation from 1.
    """
    thetas = default_theta_grid() if thetas is None else np.asarray(thetas, dtype=float)
    pure = isinstance(signal, FockVector)
    psi = signal.coeffs if pure else np.asarray(signal, dtype=complex)
    if not pure:
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ValueError("density matrix must be square")
        herm = np.max(np.abs(psi - psi.conj().T))
        if herm > 1e-12:
            raise ParameterError(f"density matrix hermiticity residual {herm:g} > 1e-12")
    t = _capped_log_rho_half(analyzer_params(analyzer), len(psi) - 1)
    lo, w = 0, len(psi)
    if pure and np.all(np.diff(t, 2) >= 0.0):
        mag = np.abs(psi)
        keep = np.flatnonzero(~(mag < 1e-17 * mag.max()))  # a nan or 0 max keeps all
        lo, w = int(keep[0]), int(keep[-1] - keep[0]) + 1
    buf = np.zeros((2 * w, w), dtype=complex)
    if pure:
        np.multiply.outer(psi[lo: lo + w], psi[lo: lo + w].conj(), out=buf[:w])
    else:
        buf[:w] = psi
    buf[:w] *= _g_block(t, lo, w)
    # row m of the skewed view runs down the m-th lower diagonal into the padding
    c = as_strided(buf, (w, w), (buf.strides[0], sum(buf.strides))).sum(axis=1)
    u = np.exp(-1j * thetas)
    acc = np.zeros_like(u)
    for cm in c[:0:-1]:  # Horner: acc = sum_{m >= 1} C_m u^m
        acc += cm
        acc *= u
    values = (c[0].real + 2.0 * acc.real) / (2.0 * math.pi)
    residual = abs(float(np.trapezoid(values, thetas)) - 1.0)
    return PhaseDistribution(
        thetas, values, residual,
        analyzer if isinstance(analyzer, str) else analyzer.label(),
    )


def husimi_q(signal: FockVector, alpha: complex) -> float:
    """Conventional Husimi value (1/pi) |<alpha|psi>|^2: the Q-analyzer overlap
    (rho(n) = n!) with e^{-|alpha|^2} folded into its exponent."""
    alpha = complex(alpha)
    if alpha == 0:
        return float(abs(signal.coeffs[0]) ** 2 / math.pi)
    x = abs(alpha) ** 2
    return float(_overlap_sq(_ANALYZER_TAGS["Q"], signal, [cmath.phase(alpha)])(
        np.array([x]), -x)[0, 0]) / math.pi


def _overlap_sq(params: ParameterSet, signal: FockVector, thetas):
    """(x, log_w) -> w |sum_n (z*)^n psi_n / sqrt(rho(n))|^2 at z = sqrt(x) e^{i theta},
    a row per x of an array and a column per theta (normalization-free overlap,
    w = exp(log_w), log_w a float or one per row), magnitudes formed in logs."""
    psi = signal.coeffs
    n = np.arange(len(psi))
    half_log_rho = 0.5 * rho_steps(params, len(psi) - 1)[1]
    rotations = np.exp(-1j * np.outer(n, thetas))
    return lambda x, log_w=0.0: np.abs((psi * np.exp(0.5 * (
        np.log(x)[:, None] * n + np.reshape(log_w, (-1, 1))) - half_log_rho)) @ rotations) ** 2


def gh_husimi(signal: FockVector, family: str, params: ParameterSet,
              z: complex) -> float:
    """Generalized Husimi distribution (1/pi) w(|z|^2) |<p;q;z|psi>|^2 for a
    weight-supported analyzer family; reduces to husimi_q for family 'CS'.  log
    wt enters the overlap's exponent: finite where wt underflows."""
    z = complex(z)
    x = abs(z) ** 2
    if x == 0.0:
        return weight_tilde(family, params, x) * abs(signal.coeffs[0]) ** 2 / math.pi
    log_w, sign = log_weight_tilde(family, params, x)
    return sign * float(_overlap_sq(params, signal, [cmath.phase(z)])(
        np.array([x]), log_w)[0, 0]) / math.pi


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
    thetas = np.linspace(-math.pi, math.pi, 25) if thetas is None else np.asarray(thetas, float)
    direct = gh_phase_from_husimi(signal, family, params, thetas, quad_tol=quad_tol)
    series = phase_distribution(signal, params, thetas).values
    return float(np.max(np.abs(direct - series)))
