"""Husimi distributions and phase distributions.

The phase distribution of a pure signal with Fock coefficients psi_n
under an analyzing family is

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

from .analytic import QUAD_TOL, wavefunction_rows
from .errors import RangeError
from .states import FockVector, ParameterSet, checked_abs, log_rho_half, overlap
from .weights import density_integral, log_weight_tilde, weight, weight_tilde

G_TABLE_CAP = 2048
# multiply-adds per matrix product in phase_distribution's theta sum.  OpenBLAS,
# numpy's BLAS, hands a complex product of 2^16 to all cores; waking its threads
# cost 4-18 ms a product on a 2-vCPU VM, against 0.05-0.5 ms on the calling
# thread, so the product is taken in column blocks of at most 2^15.
_PRODUCT_MACS = 2**15
# rows m of the lower triangle taken per block in phase_distribution's C_m
# stage.  A block's row sums are np.vecdot, one BLAS dot a row on the calling
# thread: as one matrix-vector product, OpenBLAS handed (64, 212) blocks to its
# threads, and in 3 of 6 processes a call at w = 212 took 22-26 ms, not 1.4 ms.
_CM_ROWS = 64

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


def _g_block(t: np.ndarray, w: int) -> np.ndarray:
    """G(n, n') for n, n' < w from T[k] = log rho(k/2), as one w x w array:
    exp(T[n+n'] - (T[2n] + T[2n'])/2) formed in place on a Hankel view of T.
    The view minus the symmetric sum is exactly 0 on the diagonal and bitwise
    symmetric, so G is too."""
    half = 0.5 * t[: 2 * w: 2]
    g = np.add.outer(half, half)
    np.subtract(sliding_window_view(t[: 2 * w - 1], w), g, out=g)
    return np.exp(g, out=g)


def g_coefficients(analyzer, n_cutoff: int) -> GCoefficientTable:
    """Symmetric table G(n,n') for n,n' <= n_cutoff, diagonal exactly 1.

    T(k) = log rho(k/2) comes from the half-integer sequence
    states.log_rho_half; the table is the one N^2 array of _g_block.
    Raises RangeError (an OverflowError) above G_TABLE_CAP.
    """
    if n_cutoff > G_TABLE_CAP:
        raise RangeError(f"G table cutoff {n_cutoff} exceeds cap {G_TABLE_CAP}")
    params = analyzer_params(analyzer)
    return GCoefficientTable(params, _g_block(log_rho_half(params, n_cutoff), n_cutoff + 1))


@dataclass(frozen=True)
class PhaseDistribution:
    thetas: np.ndarray
    values: np.ndarray
    norm_residual: float
    analyzer_label: str = ""

    def peak(self):
        k = int(np.argmax(self.values))
        return float(self.thetas[k]), float(self.values[k])


def default_theta_grid(points: int = 721) -> np.ndarray:
    return np.linspace(-math.pi, math.pi, points)


def phase_distribution(signal: FockVector, analyzer="Q", thetas=None) -> PhaseDistribution:
    """Phase distribution of a pure signal, a FockVector; anything else raises TypeError.

    P(theta) = (1/2pi) [C_0 + 2 Re sum_m C_m e^{-im theta}] with the lower
    diagonal sums C_m = sum_{n < w-m} psi_{n+m} psi*_n G(n+m,n), taken over the
    triangle n + m < w only, in blocks of _CM_ROWS rows m on strided views of
    the signal and of T (one exp and one product a block), and summed over
    any theta grid by baby-step giant-step in u = e^{-i theta} (Paterson &
    Stockmeyer, SIAM J. Comput. 2 (1973) 60): k = isqrt(w) + 1 powers of u, one matrix
    product for the inner sums over m mod k and Horner's rule in u^k over
    the ceil(w/k) rows, about 2 sqrt(w) array steps.  The signal enters on
    the window of n with |psi_n| >= 1e-17 max|psi| when T = log rho(k/2) is
    discretely convex (then G <= 1, and the dropped terms are below 1e-17
    ||psi||_1 max|psi|); otherwise the window is the whole signal.
    Cut at a Fock slice's certified rest (|psi_n| >= 1e-9 max|psi|), the window would
    move P(theta) by up to 9e-10 of its peak (PB analyzer), past a brute-force sum's 1e-12.
    A window, not a signal, above G_TABLE_CAP + 1 orders raises RangeError.
    The normalization residual is the trapezoid integral's deviation from 1.
    """
    if not isinstance(signal, FockVector):
        raise TypeError(f"phase_distribution takes a FockVector, got {type(signal).__name__}")
    thetas = default_theta_grid() if thetas is None else np.asarray(thetas, dtype=float)
    psi = signal.coeffs
    t = log_rho_half(analyzer_params(analyzer), len(psi) - 1)
    lo, w = 0, len(psi)
    if np.all(np.diff(t, 2) >= 0.0):
        mag = np.abs(psi)
        keep = np.flatnonzero(~(mag < 1e-17 * mag.max()))  # a nan or 0 max keeps all
        lo, w = int(keep[0]), int(keep[-1] - keep[0]) + 1
    if w > G_TABLE_CAP + 1:
        raise RangeError(f"phase window of {w} orders exceeds the G table cap {G_TABLE_CAP}")
    # C_m over the triangle n + m < w in blocks of rows m, from strided views
    # only: past the window the signal reads 0, T[2n+m] reads 0 and
    # T[2(n+m)]/2 reads +inf, so a cell with n + m >= w is exp(-inf) * 0 = 0.
    # G is T[2n+m] - (T[2(n+m)]/2 + T[2n]/2), the operands of _g_block
    tw = t[2 * lo: 2 * (lo + w) - 1]
    t_pad = np.zeros(3 * w)
    t_pad[:2 * w - 1] = tw
    h_pad = np.full(2 * w, np.inf)
    h_pad[:w] = 0.5 * tw[::2]
    s = t_pad.strides[0]  # each view ends inside its buffer: at 3w - 3, 2w - 2
    t_mid = as_strided(t_pad, (w, w), (s, 2 * s))  # T[2n+m]
    h_sum = as_strided(h_pad, (w, w), (s, s))  # T[2(n+m)]/2; the row h_pad[:w] is T[2n]/2
    rows = min(_CM_ROWS, w)
    # the signal, zero-padded by one block, read as psi_{n+m} (times conj
    # psi_n, the conjugated left factor of vecdot); a block's view ends
    # before w + rows - 1
    amp = np.zeros(w + rows, dtype=complex)
    amp[:w] = psi[lo: lo + w]
    c = np.empty(w, dtype=complex)
    for m0 in range(0, w, rows):
        m1, cols = min(m0 + rows, w), w - m0
        g = np.add(h_sum[m0:m1, :cols], h_pad[:cols])
        np.subtract(t_mid[m0:m1, :cols], g, out=g)
        np.exp(g, out=g)
        cells = as_strided(amp[m0:], (m1 - m0, cols), amp.strides * 2) * g
        np.vecdot(amp[:cols], cells, out=c[m0:m1])
    # acc = sum_{m >= 1} C_m u^m, u = e^{-i theta}, baby-step giant-step: with
    # m = jk + r, the inner sums over r for every j are one product with the
    # powers u^0..u^(k-1), then Horner's rule in u^k runs over the rows j
    k = math.isqrt(w) + 1
    pows = np.empty((k + 1, len(thetas)), dtype=complex)
    pows[0] = 1.0
    pows[1] = np.exp(-1j * thetas)
    for r in range(2, k + 1):  # a third of np.multiply.accumulate's time down axis 0
        np.multiply(pows[r - 1], pows[1], out=pows[r])
    coef = np.zeros((-(-w // k), k), dtype=complex)
    coef.flat[1:w] = c[1:]
    inner = np.empty((len(coef), len(thetas)), dtype=complex)
    step = max(1, _PRODUCT_MACS // coef.size)
    for s in range(0, len(thetas), step):
        np.matmul(coef, pows[:k, s: s + step], out=inner[:, s: s + step])
    acc = inner[-1]
    for row in inner[-2::-1]:
        acc *= pows[k]
        acc += row
    values = (c[0].real + 2.0 * acc.real) / (2.0 * math.pi)
    residual = abs(float(np.trapezoid(values, thetas)) - 1.0)
    return PhaseDistribution(
        thetas, values, residual,
        analyzer if isinstance(analyzer, str) else analyzer.label(),
    )


def gh_husimi(signal: FockVector, family: str, params: ParameterSet,
              z: complex) -> float:
    """Generalized Husimi distribution (1/pi) w(|z|^2) |<p;q;z|psi>|^2 for a
    weight-supported analyzer family (the conventional Husimi Q for 'CS').
    log wt enters the overlap's exponent: finite where wt underflows.  F01
    and F11 refuse z = 0, as their weights do; a |z|^2 past double range
    raises DivergenceError, as it does for a state point."""
    z = complex(z)
    x = checked_abs(z) ** 2
    if x == 0.0:
        return float(weight_tilde(family, params, x) * abs(signal.coeffs[0]) ** 2 / math.pi)
    log_w, sign = log_weight_tilde(family, params, x)
    row = wavefunction_rows(params, signal, [cmath.phase(z)])(np.array([x]), log_w)
    return sign * float(np.abs(row[0, 0]) ** 2) / math.pi


def self_dual_husimi(family: str, params: ParameterSet, z_signal: complex,
                     z: complex) -> float:
    """Closed form of the generalized Husimi distribution of a state of the
    analyzer's own family: (1/pi) w(|z|^2) |<z|zs>|^2, with states.overlap."""
    return weight(family, params, checked_abs(z) ** 2) * abs(
        overlap(params, z, z_signal, tol=1e-14)) ** 2 / math.pi


def gh_phase_from_husimi(signal: FockVector, family: str, params: ParameterSet,
                         thetas) -> np.ndarray:
    """Phase distribution by direct radial integration of the generalized
    Husimi distribution: P(theta) = (1/2) int_0^R Q(sqrt(x) e^{i theta}) dx,
    one weights.density_integral pass over all angles of the squared
    analytic.wavefunction_rows, split at the Fock order of the largest |psi_n|."""
    rows = wavefunction_rows(params, signal, thetas)
    val, _ = density_integral(family, params, lambda x, ln: np.abs(rows(x, ln)) ** 2,
                              rel_tol=QUAD_TOL, abs_tol=1e-13,
                              n_peak=int(np.argmax(np.abs(signal.coeffs))))
    return 0.5 * val / math.pi


def radial_phase_check(signal: FockVector, family: str, params: ParameterSet,
                       thetas=None) -> float:
    """Max absolute deviation between the radially-integrated generalized
    Husimi distribution and the G-table phase distribution (two independent
    pipelines for the same quantity)."""
    thetas = np.linspace(-math.pi, math.pi, 25) if thetas is None else np.asarray(thetas, float)
    direct = gh_phase_from_husimi(signal, family, params, thetas)
    series = phase_distribution(signal, params, thetas).values
    return float(np.max(np.abs(direct - series)))
