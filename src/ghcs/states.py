"""Parameter validation, convergence-domain classification, and truncated
Fock-space construction of generalized hypergeometric (coherent) states.

A state |p; q; z> is determined by numerator parameters (a_1..a_p),
denominator parameters (b_1..b_q) and a complex point z:

    |p; q; z> = N(|z|^2)^{-1/2} sum_n z^n / sqrt(rho(n)) |n>,

with rho(n) = n! (b_1)_n...(b_q)_n / [(a_1)_n...(a_p)_n] and N = pFq.
Depending on (p, q) and eta = Re(sum a - sum b) the states live on the
whole plane, the open unit disk, or the unit circle (normalized for
eta < 0, otherwise only as 1/sqrt(2 pi)-prefactored unnormalizable states).
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from .errors import ConvergenceError, DivergenceError, ParameterError, RangeError

DEFAULT_FOCK_TOL = 1e-12
MAX_CUTOFF = 65536  # O(N) consumers: states, P(n), moments, the ladder


def _canon(v):
    """Collapse numerically-real complex entries to float."""
    if isinstance(v, complex):
        if v.imag == 0.0 or abs(v.imag) <= 1e-15 * abs(v.real):
            return float(v.real)
        return complex(v)
    return float(v)


def _sort_key(v):
    c = complex(v)
    return (c.real, c.imag)


@dataclass(frozen=True)
class ParameterSet:
    """Validated numerator/denominator parameter lists.

    Entries are stored in canonical sorted order, so permutation-equivalent
    inputs produce bit-identical downstream results.  Construct through
    validate(); the constructor itself only normalizes.  The instance also
    carries its rho sequence (see rho_steps), built on first use and grown
    by doubling, its last settled log_terms slice at one x and its circle_row;
    none is a field, so equality and hashing ignore them.
    """

    a: tuple
    b: tuple

    def __init__(self, a=(), b=()):
        object.__setattr__(self, "a", tuple(sorted((_canon(v) for v in a), key=_sort_key)))
        object.__setattr__(self, "b", tuple(sorted((_canon(v) for v in b), key=_sort_key)))

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def eta(self) -> float:
        return float(
            sum(complex(v).real for v in self.a) - sum(complex(v).real for v in self.b)
        )

    def shifted(self, k: int) -> "ParameterSet":
        """Every entry incremented by k (factorial-moment parameter shift)."""
        return ParameterSet([v + k for v in self.a], [v + k for v in self.b])

    def appended(self, *values) -> "ParameterSet":
        """Same values appended to both lists (coalescing extension)."""
        return ParameterSet(self.a + tuple(values), self.b + tuple(values))

    def label(self) -> str:
        fmt = lambda v: f"{v:g}" if not isinstance(v, complex) else f"{v.real:g}{v.imag:+g}i"
        return f"({','.join(map(fmt, self.a))};{','.join(map(fmt, self.b))})"


class DomainKind(Enum):
    PLANE = "plane"
    UNIT_DISK = "unit_disk"
    CIRCLE_NORMALIZED = "circle_normalized"
    CIRCLE_UNNORMALIZABLE = "circle_unnormalizable"


@dataclass(frozen=True)
class DomainClass:
    kind: DomainKind
    eta: float


def validate(a=(), b=()) -> ParameterSet:
    """Check the positivity constraints and return a ParameterSet.

    Acceptance rules for the combined lists:
      * every entry is finite (real and imaginary parts);
      * no entry may be zero or a negative integer;
      * complex entries must occur in conjugate pairs within their own list;
      * real negative entries must be even in number and pair up with equal
        negative integer parts.  Since only the sign of the product ratio
        prod(b_j + n)/prod(a_i + n) is constrained, a pair may span the two
        lists (both factors flip sign at the same n either way).

    Raises ParameterError naming the first offending entry and rule.
    """
    lists = {"a": [_canon(v) for v in a], "b": [_canon(v) for v in b]}
    negatives = []  # (flip index, which, idx)
    for which, vals in lists.items():
        complex_pool = {}
        for idx, v in enumerate(vals):
            if not cmath.isfinite(v):
                raise ParameterError(f"{which}[{idx}] = {v}: entries must be finite",
                                     which=which, index=idx, rule="non-finite")
            if specfun._is_nonpositive_integer(v):
                raise ParameterError(
                    f"{which}[{idx}] = {v}: zero and negative integer parameters are excluded",
                    which=which, index=idx, rule="nonpositive-integer",
                )
            if isinstance(v, complex):
                key = (v.real, abs(v.imag))
                complex_pool[key] = complex_pool.get(key, 0) + (1 if v.imag > 0 else -1)
            elif v < 0:
                negatives.append((math.ceil(-v), which, idx))
        for (re, im), balance in complex_pool.items():
            if balance != 0:
                idx = next(
                    i for i, v in enumerate(vals)
                    if isinstance(v, complex) and (v.real, abs(v.imag)) == (re, im)
                )
                raise ParameterError(
                    f"{which}[{idx}] = {vals[idx]}: complex entries must occur in "
                    f"conjugate pairs within the same list",
                    which=which, index=idx, rule="conjugate-pair",
                )
    if len(negatives) % 2 == 1:
        _, which, idx = negatives[-1]
        raise ParameterError(
            f"{which}[{idx}] = {lists[which][idx]}: odd number of real negative "
            f"parameters (the sign of the defining ratio would flip)",
            which=which, index=idx, rule="negative-pairing",
        )
    groups = {}
    for flip, which, idx in negatives:
        groups.setdefault(flip, []).append((which, idx))
    for flip, members in sorted(groups.items()):
        if len(members) % 2 == 1:
            which, idx = members[-1]
            raise ParameterError(
                f"{which}[{idx}] = {lists[which][idx]}: negative parameters must pair "
                f"up with equal negative integer parts (unpaired sign flip at n = {flip})",
                which=which, index=idx, rule="negative-integer-part-pairing",
            )
    return ParameterSet(lists["a"], lists["b"])


def classify(params: ParameterSet) -> DomainClass:
    """Convergence domain of the family: plane for p < q+1; for p = q+1 the
    open unit disk, extending to a normalized state on the unit circle
    exactly when eta < 0."""
    eta = params.eta
    if params.p < params.q + 1:
        return DomainClass(DomainKind.PLANE, eta)
    if params.p == params.q + 1:
        if eta < 0:
            return DomainClass(DomainKind.CIRCLE_NORMALIZED, eta)
        return DomainClass(DomainKind.UNIT_DISK, eta)
    raise ParameterError(
        f"p = {params.p} > q + 1 = {params.q + 1}: the normalization series "
        f"diverges for every z != 0",
        rule="p-exceeds-q-plus-1",
    )


FAMILIES = ("CS", "F01", "F11", "F10", "F21")


def family_params(family: str, params: ParameterSet) -> tuple:
    """Check that params matches the family shape; returns the bare values."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    shapes = {"CS": (0, 0), "F01": (0, 1), "F11": (1, 1), "F10": (1, 0), "F21": (2, 1)}
    if (params.p, params.q) != shapes[family]:
        raise ParameterError(
            f"family {family} expects (p;q) = {shapes[family]}, got "
            f"({params.p};{params.q})"
        )
    return tuple(params.a) + tuple(params.b)


def checked_abs(z) -> float:
    """|z| of a point whose |z|^2 is finite; past double range DivergenceError
    names |z|."""
    az = abs(complex(z))
    if not math.isfinite(az * az):
        raise DivergenceError(f"|z|^2 is not finite at |z| = {az:g}")
    return az


@dataclass(frozen=True)
class StateSpec:
    """A parameter set together with a complex point z in its domain."""

    params: ParameterSet
    z: complex

    def domain_kind(self) -> DomainKind:
        """The point's domain; a |z|^2 past double range, or a point outside
        the unit disk closure of a p = q + 1 family, raises DivergenceError.
        |z| within specfun.UNIT_BAND of 1 is on the circle, and the state
        functions take it at |z| = 1."""
        dom = classify(self.params)
        az = checked_abs(self.z)
        if dom.kind is DomainKind.PLANE:
            return DomainKind.PLANE
        on_circle = specfun.on_unit_circle(az)
        if az < 1.0 and not on_circle:
            return DomainKind.UNIT_DISK
        if on_circle:
            if dom.eta < 0:
                return DomainKind.CIRCLE_NORMALIZED
            return DomainKind.CIRCLE_UNNORMALIZABLE
        raise DivergenceError(
            f"|z| = {az:g} lies outside the unit disk closure for p = q + 1"
        )


def _log_ratio_sum(params: ParameterSet, k):
    """(f2, s): f2 = f(k)^2 = (k+1) prod(b_j+k)/prod(a_i+k) = rho(k+1)/rho(k) on
    the grid k, and s = _log_cumsum(f2).  This is the one place where the
    ratio product is formed."""
    with np.errstate(divide="ignore", invalid="ignore"):  # each product taken left to right
        f2 = (k + 1.0) * math.prod(bj + k for bj in params.b) / math.prod(ai + k for ai in params.a)
    if f2.dtype.kind == "c" or not ((f2 > 0.0) & (f2 < math.inf)).all():
        bad = ~np.isfinite(f2) | ~(f2.real > 0.0) | (np.abs(f2.imag) > 1e-12 * np.abs(f2.real))
        if bad.any():
            k0 = int(np.argmax(bad))
            raise ParameterError(f"f({k[k0]:g})^2 = {f2[k0]} is not a positive real")
    return f2.real, _log_cumsum(f2.real)


def _log_cumsum(f2):
    """s[..., j] = sum_{i<j} log f2[..., i] along the last axis, plus the running
    sum of the exact rounding errors (TwoSum; Neumaier, ZAMM 54, 1974), so s
    carries no drift that grows with j."""
    steps = np.zeros(f2.shape[:-1] + (f2.shape[-1] + 1,))
    np.log(f2, out=steps[..., 1:])
    run = np.add.accumulate(steps, axis=-1)  # the plain running sum, term by term
    prev, cur, steps = run[..., :-1], run[..., 1:], steps[..., 1:]
    back = cur - prev  # the rounding error of prev + step = cur, exactly:
    cur += np.add.accumulate((prev - (cur - back)) + (steps - back), axis=-1)
    return run


def rho_steps(params: ParameterSet, n: int):
    """(f2, log_rho) = _log_ratio_sum on the integers: f2[k] for k < n and
    log rho(k) for k <= n, read-only views of arrays that live on params and
    are rebuilt whole at double the length when a caller needs more (the pair
    is published by one attribute assignment, so no lock is needed)."""
    seq = params.__dict__.get("_rho_seq")
    if seq is None or len(seq[1]) <= n:
        size = max(n, 2 * len(seq[0])) if seq else max(n, 32)
        seq = _log_ratio_sum(params, np.arange(size, dtype=float))
        for arr in seq:
            arr.flags.writeable = False
        object.__setattr__(params, "_rho_seq", seq)
    return seq[0][:n], seq[1][: n + 1]


def log_rho_half(params: ParameterSet, n: int) -> np.ndarray:
    """T[k] = log rho(k/2) for k = 0..2n.  Even k read rho_steps; odd k are
    anchored by the gamma form rho(1/2) = Gamma(3/2) prod Gamma(b+1/2) Gamma(a)
    / (prod Gamma(b) Gamma(a+1/2)) and stepped by f(j+1/2)^2.  A negative
    rho(1/2) has no log and raises ParameterError."""
    a, b = params.a, params.b
    ln, sign = specfun.ln_gamma_ratio((1.5, *(v + 0.5 for v in b), *a), (*b, *(v + 0.5 for v in a)))
    if sign < 0:
        raise ParameterError(f"rho(1/2) = -exp({ln:.6g}) is negative")
    t = np.empty(2 * n + 1)
    t[0::2] = rho_steps(params, n)[1]
    t[1::2] = ln + _log_ratio_sum(params, np.arange(n - 1) + 0.5)[1][:n]
    return t


def log_rho(params: ParameterSet, n: int) -> float:
    """log rho(n), one entry of rho_steps(params, n)."""
    if n < 0:
        raise ValueError("rho order must be non-negative")
    return float(rho_steps(params, n)[1][n])


def rho(params: ParameterSet, n: int) -> float:
    """Parameter function rho(n) > 0; raises RangeError when it exceeds
    double range (use log_rho for large n)."""
    lr = log_rho(params, n)
    if lr > 709.0:
        raise RangeError(f"rho({n}) exceeds double range (log = {lr:.3g})")
    return math.exp(lr)


def _real_gauss(params: ParameterSet) -> bool:
    """Whether normalization sums params with gauss_2f1: a real (2;1) set,
    whose N(1) is the gamma formula, the same at every tol."""
    return (params.p, params.q) == (2, 1) and not any(isinstance(v, complex)
                                                      for v in params.a + params.b)


def normalization(params: ParameterSet, x, tol: float = specfun.DEFAULT_TOL):
    """Normalization function pFq(a; b; x) at x = |z|^2 >= 0, a float or a
    1-D array (whose result is an array), taken as given: a point of
    StateSpec's circle band comes in at x = 1.

    A p = q + 1 family takes x = 1 only for eta < 0; the (2;1) family then
    uses the closed gamma formula for 2F1 at unit argument (the raw series
    converges only like n^eta there).
    """
    nodes = isinstance(x, np.ndarray)
    if (x.min(initial=0.0) if nodes else x) < 0:
        raise ValueError("normalization argument is |z|^2 >= 0")
    dom = classify(params)
    if params.p == params.q + 1 and dom.eta >= 0 and np.any(x == 1.0):
        raise DivergenceError(f"normalization diverges at |z| = 1 for eta = {dom.eta:g} >= 0")
    if _real_gauss(params):
        # the Gauss evaluator keeps full accuracy near and at the disk edge,
        # where the raw series slows to a crawl; x = 1 takes its unit formula
        a1, a2, b1 = params.a + params.b
        value = specfun.gauss_2f1(a1, a2, b1, x, tol=tol).value
    else:
        value = specfun.pfq(params.a, params.b, x, tol=tol).value
    return value.real if nodes else complex(value).real


@dataclass(frozen=True)
class FockVector:
    """Truncated number-basis coefficients c_0..c_N with a certified bound
    on the discarded squared tail sum."""

    coeffs: np.ndarray
    tail_bound: float
    normalized: bool

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)

    def inner(self, other: "FockVector") -> complex:
        n = min(len(self.coeffs), len(other.coeffs))
        return complex(np.vdot(self.coeffs[:n], other.coeffs[:n]))


def fock_basis_vector(n: int) -> FockVector:
    if n < 0:
        raise ParameterError(f"Fock index {n} is negative", rule="negative-fock-index")
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    return FockVector(c, 0.0, True)


def fock_from_coeffs(coeffs) -> FockVector:
    """The normalized signal c / ||c||; a zero or non-finite c is refused."""
    c = np.asarray(coeffs, dtype=complex)
    nrm = float(np.vdot(c, c).real)
    if not 0.0 < nrm < math.inf:
        raise ParameterError(f"coefficient vector has squared norm {nrm:g}; need finite and > 0")
    return FockVector(c / math.sqrt(nrm), 0.0, True)


_RATIO_WINDOW = 16
SLICE_REST = 1e-18  # log_terms settles its slice to this fraction of the peak term
# the cut lengths a normalized circle state tries, 10, 18, 27, ..., n -> max(n + 8,
# int(1.5 n)), up to MAX_CUTOFF: 22 lengths, the last 58,839
_CIRCLE_CUTS = np.array([n for n in itertools.accumulate(
    range(24), lambda n, _: max(n + 8, int(1.5 * n)), initial=10) if n <= MAX_CUTOFF])


def log_terms(params: ParameterSet, x):
    """(log_t, log_n) of a plane or disk state at x = |z|^2 > 0, from one
    slice of rho_steps: log_t[j] = j log x - log rho(j), and log_n the
    log-sum-exp log N(x) of the slice.  The slice is settled when its last
    term plus the geometric bound on the rest (last window's largest ratio
    joined with the n -> inf limit) is below SLICE_REST of the peak, within
    MAX_CUTOFF and specfun.DEFAULT_MAX_TERMS.  It starts a window past where
    the terms fall to SLICE_REST of their mode m, f^2(m) = x (plane: a
    Gaussian of variance m/d, f^2 ~ n^d, d = q + 1 - p; disk: n^(eta-1) x^n),
    and grows, at most doubling, as far as its last ratio sheds the excess.

    A 1-D array x adds a leading axis over it, all points on the slice that
    settles x_max = max(x), which settles each smaller x: t_j(x) =
    (x/x_max)^j t_j(x_max) shrinks every ratio t_{j+1}/t_j (and the bound)
    by x/x_max, and t_N(x)/t_M(x) <= (x/x_max)^(N-M) t_N(x_max)/t_M(x_max)
    for the peak index M <= N of x_max.

    A scalar call reads the slice kept on params, the last (x, term cap,
    log_t, log_n) settled (read-only, published by one attribute
    assignment); another x or cap settles and keeps a new one.  So one
    state's Fock vector, P(n), factorial moments and eigen residual share
    one pass, and each call gets the bits of that pass whatever came before
    it.  Arrays of x settle per call and are not kept.
    """
    cap = min(MAX_CUTOFF, specfun.DEFAULT_MAX_TERMS)
    if isinstance(x, np.ndarray) and x.ndim > 0:
        return _settled_slice(params, x, cap)
    kept = params.__dict__.get("_slice")
    if kept is None or kept[0] != x or kept[1] != cap:
        kept = (x, cap) + _settled_slice(params, x, cap)
        kept[2].flags.writeable = False
        object.__setattr__(params, "_slice", kept)
    return kept[2], kept[3]


def _settled_slice(params: ParameterSet, x, cap: int):
    """The settling pass of log_terms, slice length at most cap."""
    many = isinstance(x, np.ndarray) and x.ndim > 0
    x_max = float(x.max()) if many else x
    lnx, fall = math.log(x_max), -math.log(SLICE_REST)
    d, eta = params.q + 1 - params.p, params.eta  # f^2 ~ (n + (1 - eta)/d)^d or 1 + (1 - eta)/n
    m = max(0.0, x_max ** (1 / d) - (1 - eta) / d if d else (eta - 1) * x_max / (1 - x_max))
    end = m + (math.sqrt(2.0 * fall * m / d) if d else fall / -lnx)
    if not end < math.inf:
        raise ConvergenceError(f"normalization series at x = {x_max:g} peaks past its {cap}-term cap")
    n = min(cap, int(end) + _RATIO_WINDOW)
    rho_steps(params, min(2 * n, cap) + 2)  # one build: n at most doubles, moments read 2 past it
    while True:
        lr = rho_steps(params, n)[1][:n]
        log_t = np.arange(n) * lnx - lr
        last = np.diff(log_t[-_RATIO_WINDOW:])
        r_bar = max(math.exp(last.max(initial=-math.inf)), 0.0 if d else x_max)
        if r_bar < 1.0 and log_t[-1] - math.log1p(-r_bar) < log_t.max() + math.log(SLICE_REST):
            break
        if n >= cap:
            raise ConvergenceError(f"normalization series not settled within {cap} terms")
        ln_r = max(last[-1], -math.inf if d else lnx)  # the last ratio, joined with the limit
        step = n if ln_r >= 0.0 else max(1, math.ceil(
            (log_t[-1] - math.log1p(-math.exp(ln_r)) - log_t.max() + fall) / -ln_r))
        n = min(cap, n + min(n, step))
    if many:
        log_t = np.array([math.log(v) for v in x])[:, None] * np.arange(n) - lr
    peak = log_t.max(axis=-1)
    return log_t, peak + np.log(np.exp(log_t - peak[..., None]).sum(axis=-1))


def log_shares(log_t: np.ndarray) -> np.ndarray:
    """log(t_n / sum t) against the largest term, free of log N's rounding (an ulp of |z|^2)."""
    lp = log_t - log_t.max()
    return lp - math.log(np.exp(lp).sum())


def circle_row(params: ParameterSet, tol: float):
    """(key, N(1), lc, cuts, tails) of a normalized circle state, kept on
    params: lc[k] = log |c_k|^2 at |z| = 1, and tails[i] fock_vector's
    certificate at cuts[i], a prefix of _CIRCLE_CUTS that holds a cut with
    tail <= tol, or all of them.  It is sized where the tail, about n^eta
    exp(-g) / (-eta N(1)) with g = sum ln Gamma(a) - sum ln Gamma(b), is
    tol/100, with half again the terms, so a job's tighter second tol reads
    it too.  key is the tol of N(1)'s sum, None for the gamma formula."""
    key = None if _real_gauss(params) else tol
    row = params.__dict__.get("_circle")
    kept = row is not None and row[0] == key
    if kept and (min(row[4]) <= tol or len(row[3]) == len(_CIRCLE_CUTS)):
        return row
    n1 = row[1] if kept else normalization(params, 1.0, tol=tol)
    ln_n, eta = math.log(n1), params.eta
    g = specfun.ln_gamma_ratio(params.a, params.b)[0]
    size = 1.5 * math.exp(min((math.log(tol / 100.0) + g + ln_n + math.log(-eta)) / eta, 12.0))
    grown = 2 * row[3][-1] if kept else 0  # a tol that the kept row does not serve
    cuts = _CIRCLE_CUTS[: np.searchsorted(_CIRCLE_CUTS, max(size, grown)) + 1]
    m = int(cuts[-1]) + _RATIO_WINDOW
    lc = -rho_steps(params, m)[1] - ln_n
    k = np.arange(m)
    s = -np.diff(lc) / np.log((k + 2.0) / (k + 1.0))  # the local power of each step
    s = np.minimum(s[cuts[:, None] + np.arange(_RATIO_WINDOW)].min(axis=1), 1.0 - eta)
    tails = tuple(math.exp(lc[n]) * (1.0 + (n + 1.0) / (s_n - 1.0)) if s_n > 1.0 else math.inf
                  for n, s_n in zip(cuts.tolist(), s.tolist()))
    lc.flags.writeable = False
    object.__setattr__(params, "_circle", (key, n1, lc, cuts, tails))  # one assignment publishes
    return circle_row(params, tol)


def fock_vector(spec: StateSpec, tol: float = DEFAULT_FOCK_TOL) -> FockVector:
    """Truncated Fock representation c_n = z^n / sqrt(rho(n) N(|z|^2)).

    Plane and disk states are the slice that log_terms settles: |c_n|^2 =
    t_n / N (log_shares) for every n of it, and the certified tail, covering
    sum_{k>=N} |c_k|^2 with c_N included, is its rest SLICE_REST * peak / N;
    a tol below that rest raises ConvergenceError.  Normalized circle states,
    taken at |z| = 1, have no geometric rate (the ratios tend to 1): they cut
    at the first n of _CIRCLE_CUTS whose tail bound |c_n|^2 (1 + (n+1)/(s-1))
    is <= tol, s the least power of the steps |c_(k+1)|^2/|c_k|^2 =
    ((k+1)/(k+2))^s over _RATIO_WINDOW past n, at most 1 - eta; every tol
    reads these bounds from the row kept on the set (circle_row).
    Unnormalizable circle states get the 1/sqrt(2 pi) prefactor, tail_bound =
    inf and a RuntimeWarning (their squared norm diverges), and stop at the
    first term below tol.
    """
    params = spec.params
    z = complex(spec.z)
    kind = spec.domain_kind()
    # coefficients from log |c_n|^2, n = 0..len-1
    build = lambda lc: np.exp(0.5 * lc) * np.exp(1j * cmath.phase(z) * np.arange(len(lc)))

    if kind is DomainKind.CIRCLE_UNNORMALIZABLE:
        warnings.warn("unnormalizable circle state: coefficients carry 1/sqrt(2 pi), the squared "
                      "norm diverges (conditional convergence only)", RuntimeWarning)
        ln_c0_sq = -math.log(2.0 * math.pi)
        n = 64
        while True:
            lcn = ln_c0_sq - rho_steps(params, n)[1]
            below = np.flatnonzero(lcn < math.log(tol) + ln_c0_sq)
            if below.size or n >= MAX_CUTOFF:
                n = int(below[0]) if below.size else n
                return FockVector(build(lcn[: n + 1]), math.inf, False)
            n = min(2 * n, MAX_CUTOFF)

    if abs(z) == 0.0:
        return FockVector(np.array([1.0 + 0.0j]), 0.0, True)

    if kind is not DomainKind.CIRCLE_NORMALIZED:
        lc = log_shares(log_terms(params, abs(z) ** 2)[0])
        rest = SLICE_REST * math.exp(lc.max())
        if tol < rest:
            raise ConvergenceError(f"tol {tol:g} is below the Fock slice's rest {rest:.3g}")
        return FockVector(build(lc), rest, True)

    _, _, lc, cuts, tails = circle_row(params, tol)  # on the circle: |z| = 1
    for n, tail in zip(cuts.tolist(), tails):
        if tail <= tol:
            return FockVector(build(lc[: n + 1]), tail, True)
    raise ConvergenceError(f"fock_vector cutoff cap {MAX_CUTOFF} reached before tail <= {tol:g}")


def overlap(params: ParameterSet, z: complex, z2: complex,
            tol: float = specfun.DEFAULT_TOL) -> complex:
    """<p;q;z | p;q;z2> = N(z* z2) / sqrt(N(|z|^2) N(|z2|^2)).  A point on the
    circle (|z| within specfun.UNIT_BAND of 1) enters at z/|z|, and its
    |z|^2 at 1.0."""
    points, xs = [], []
    for point in (complex(z), complex(z2)):
        kind = StateSpec(params, point).domain_kind()
        on_circle = kind in (DomainKind.CIRCLE_NORMALIZED, DomainKind.CIRCLE_UNNORMALIZABLE)
        points.append(point / abs(point) if on_circle else point)
        xs.append(1.0 if on_circle else abs(point) ** 2)
    # N(|z|^2) first: a circle point with eta >= 0 gets normalization's refusal, not pfq's
    den = math.sqrt(normalization(params, xs[0], tol=tol) * normalization(params, xs[1], tol=tol))
    num = specfun.pfq(params.a, params.b, points[0].conjugate() * points[1], tol=tol).value
    return complex(num) / den
