"""Seeded operation lists of the three benchmark workloads.

Each generator takes the run seed and the pass index and returns a list
of Op; every pass of a run draws a fresh list, so a run averages over
several draws.  The program sees only the generated inputs; the seed
itself never reaches it.  Draws are stratified: every continuous input
is spread over its range by jittered strata (one uniform draw inside each
of n equal sub-intervals, then shuffled), so each seed gets the same
share of every input property and a run measures the program rather than
the luck of one draw.  run.py reports the shares from the props of the
ops.

moments -- nested adaptive quadrature (weights, quadrature, the integral
    branches of specfun); almost no Fock-space or phase-table work.  This
    is where a vector-valued moment pass would act.
      11 fixed `ghcs verify moments` sets, moment_check n_max=20
      F01 x6 (b in [0.2, 6])      F10 x4 (a in [1.1, 6])
      F21 x4 (a1+a2-b in [1.2, 4])
      F11 x4 with a < b (b in [2.2, 2.8], [3.2, 3.8] twice and [4.2, 4.8],
          b - a in [0.5, 1.5]); the base commit fails F11 with a - b >= 4
          and F11 at integer b with non-integer a, such as (2.5;3)
          (ConvergenceError, within about 0.005 of the integer), so those
          inputs are in known_defects instead
      inner_product_via_measure x3, radial_phase_check x2 on coherent
          signals (the other two copies of the radial density integral)
    The mix puts about a third of the operations below 0.1 s, half
    between 0.1 and 0.7 s and a seventh (the F11 checks, 1-3 s) above,
    so that the median and the 90th percentile each fall inside a group
    rather than on the edge between two.
    34 operations per pass.

states -- thousands of small scalar calls on fresh parameter sets, so the
    log-rho and f caches miss; states, photstat, ladder and specfun.pfq,
    no quadrature.  This is where log-space normalization and a single
    truncation rule would act.  One operation is one state job:
    validate -> fock_vector -> pn_distribution -> mean_and_mandel ->
    closed_form_stats -> eigenvalue_residual, each checked against the
    others (circle states have no closed form in photstat; their mean and
    Mandel Q are checked against the Gauss sum at unit argument).
      plane |z| in (0, 15]: CS x36, F01 x32 (b in [2, 6]),
          F11 x12 (a, b in [0.3, 6]).  The base commit fails CS from
          |z| = 18 on, F11 from |z| of about 16 on for some (a, b), and
          the eigen residual gate of F01 with b below about 1.3 near
          |z| = 1.2; those inputs are in known_defects instead
      disk |z| in (0, 0.97): F10 x40 (a in [0.3, 6]),
          F21 x40 (a1, a2, b in [0.3, 5], with s = b - a1 - a2 kept 0.01
          from the integers: the base commit fails some F21 disk states
          within about 0.005 of an integer s, see known_defects)
      circle, normalized (eta in [-16, -6]; the Mandel Q is finite below
          -2, and the base commit hits its cutoff cap above about -5):
          F21 x20, |z| = 1
    180 operations per pass.

figures -- the numpy O(N^2) G-table and phase kernels plus JSON emission
    and atomic file writes; a few parameter sets reused across sweeps, so
    caches are warm (the opposite of states); no quadrature.
      cli.main(["figure", k, "--out", ...]) for k = 1..13 at defaults
      phase_distribution of 13 plane signals (CS, F01, F11 in turn), 6 at
          a cutoff of about 40, 4 at about 200 and 3 at about 800, under
          the analyzers Q, PB and a (1;0) set
      g_coefficients at the 2048 cap for Q and a (1;0) set
    54 operations per pass.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ghcs import analytic, cli, ladder, phase, photstat, states, weights

# Pinned tolerances of tests/test_acceptance.py (criterion in brackets) and
# of the unit tests for the checks that criterion list does not cover.
MOMENT_TOL = 1e-6          # [1] moment identity
EIGEN_TOL = 1e-6           # [3] lowering-eigenstate residual
STATS_TOL = 1e-8           # [4] generic vs closed-form statistics
PHASE_NORM_TOL = 1e-8      # [8] phase normalization
MEASURE_TOL = 1e-5         # [11] measure inner product vs Fock sum
PN_RESIDUAL_TOL = 1e-10    # test_photstat: sum P(n) residual
RADIAL_TOL = 1e-6          # test_phase: radial vs G-table phase distribution
FIGURE_TOL = 1e-8          # figure series vs values recorded in figures_ref.json

FIGURE_REF = Path(__file__).with_name("figures_ref.json")

# Largest |z| of the plane draws of `states`.  The base commit fails every
# CS and some F11 state jobs from |z| of about 16 on (see known_defects),
# and a timed workload must not fail, so those inputs run in the
# known-defect probe instead.
PLANE_R_MAX = 15.0

# Smallest distance of s = b - a1 - a2 from an integer in the F21 disk
# draws of `states` (see _off_integer_s).
S_GAP = 0.01

# (lowest radius, highest radius, signals) of the figures phase bands.  The
# middle band (cutoff about 200) holds the median operation of a pass: 21
# operations are faster and 21 slower, so op_p50_ms does not sit on the
# gap between two groups of operations.
PHASE_BANDS = ((3.6, 4.4, 6), (9.5, 10.5, 4), (19.5, 20.5, 3))

# Prefix of a check result that reports an overflowed or undefined value:
# a loud failure, counted like an exception, not a wrong number.
NONFINITE = "non-finite"


@dataclass
class Op:
    """One user-level operation: run(steps) does the timed work and appends
    the name of each step it enters to steps; check(result) returns None or
    a description of the gate it missed.  recorded marks a check against
    values recorded at the benchmark's base commit."""

    kind: str
    label: str
    run: object
    check: object
    props: dict = field(default_factory=dict)
    recorded: bool = False


def strata(rng, n: int, lo: float, hi: float) -> list:
    """n jittered-stratum draws over [lo, hi), in shuffled order, as Python
    floats (numpy scalars would change how the program overflows)."""
    u = (np.arange(n) + rng.random(n)) / n
    return [lo + (hi - lo) * float(v) for v in rng.permutation(u)]


def _gate(what: str, value: float, tol: float):
    """None when value <= tol, else a description of the miss."""
    if not math.isfinite(value):
        return f"{NONFINITE} {what}"
    return None if value <= tol else f"{what} {value:.3g} > {tol:g}"


def _max_rel(got, ref) -> float:
    return float(np.max(np.abs(got - ref) / np.maximum(ref, 1e-300)))


# ------------------------------------------------------------------ moments

def _moment_op(family: str, a, b, props=None) -> Op:
    params = states.validate(a, b)

    def run(steps):
        steps.append("moment_check")
        return weights.moment_check(family, params, n_max=20)

    def check(rep):
        return _gate("moment rel error", rep.max_rel_error, MOMENT_TOL)

    return Op("moment_check", f"{family} {params.label()}", run, check,
              {"family": family, **(props or {})})


def _coherent(z: complex) -> states.FockVector:
    return states.fock_vector(states.StateSpec(states.validate([], []), z), tol=1e-14)


def _measure_op(family: str, a, b, phi, psi) -> Op:
    params = states.validate(a, b)

    def run(steps):
        steps.append("inner_product_via_measure")
        return analytic.inner_product_via_measure(family, params, phi, psi)

    def check(val):
        return _gate("measure inner product dev", abs(val - phi.inner(psi)), MEASURE_TOL)

    return Op("inner_product_via_measure", f"measure {family} {params.label()}", run, check,
              {"family": family})


def _radial_op(family: str, a, b, signal) -> Op:
    params = states.validate(a, b)

    def run(steps):
        steps.append("radial_phase_check")
        return phase.radial_phase_check(signal, family, params)

    def check(dev):
        return _gate("radial phase dev", dev, RADIAL_TOL)

    return Op("radial_phase_check", f"radial {family} {params.label()}", run, check,
              {"family": family})


def moments(seed: int, pass_index: int, out_dir: Path) -> list:
    rng = np.random.default_rng([seed, pass_index, 1])
    ops = [_moment_op("CS", [], [])]
    ops += [_moment_op("F01", [], [b]) for b in cli.FIG_B_SWEEP]
    ops += [_moment_op("F11", [a], [b]) for a, b in cli.FIG_AB_SWEEP]
    ops += [_moment_op("F10", [a], []) for a in cli.FIG_A_SWEEP]
    ops += [_moment_op("F21", [3.0, 3.0], [2.0])]
    for op in ops:
        op.props["verify_set"] = True

    ops += [_moment_op("F01", [], [b]) for b in strata(rng, 6, 0.2, 6.0)]
    ops += [_moment_op("F10", [a], []) for a in strata(rng, 4, 1.1, 6.0)]
    for s, b, f in zip(strata(rng, 4, 1.2, 4.0), strata(rng, 4, 0.5, 3.0),
                       strata(rng, 4, 0.3, 0.7)):
        ops.append(_moment_op("F21", [f * (s + b), (1.0 - f) * (s + b)], [b]))
    for base, frac, d in zip((2, 3, 3, 4), strata(rng, 4, 0.2, 0.8), strata(rng, 4, 0.5, 1.5)):
        b = base + frac
        ops.append(_moment_op("F11", [b - d], [b], {"f11_amb_ge_4": False}))

    zs = [r * cmath.exp(1j * t) for r, t in
          zip(strata(rng, 4, 0.6, 1.4), strata(rng, 4, -math.pi, math.pi))]
    ops.append(_measure_op("CS", [], [], _coherent(zs[0]), _coherent(zs[1])))
    ops.append(_measure_op("F10", [strata(rng, 1, 2.0, 4.0)[0]], [],
                           _coherent(0.5 * zs[2]), _coherent(0.5 * zs[3])))
    ops.append(_measure_op("F01", [], [strata(rng, 1, 0.5, 3.0)[0]],
                           _coherent(zs[1]), _coherent(zs[2])))
    ops.append(_radial_op("CS", [], [], _coherent(zs[3])))
    ops.append(_radial_op("F01", [], [strata(rng, 1, 0.5, 3.0)[0]],
                          _coherent(zs[0])))
    return ops


# ------------------------------------------------------------------- states

def _circle_stats(a, b) -> tuple:
    """Mean and Mandel Q of the (2;1) circle state at |z| = 1 from the Gauss
    sum 2F1(a1, a2; b; 1) = G(b) G(s) / (G(b-a1) G(b-a2)), s = b - a1 - a2:
    mean = a1 a2 / (s-1) and <n(n-1)> = a1(a1+1) a2(a2+1) / ((s-1)(s-2))."""
    (a1, a2), (b1,) = a, b
    s = b1 - a1 - a2
    mean = a1 * a2 / (s - 1.0)
    n2 = a1 * (a1 + 1.0) * a2 * (a2 + 1.0) / ((s - 1.0) * (s - 2.0))
    return mean, n2 / mean - mean


def _state_op(family: str, a, b, z: complex, props: dict) -> Op:
    circle = props["circle"]

    def run(steps):
        steps.append("validate")
        params = states.validate(a, b)
        spec = states.StateSpec(params, z)
        steps.append("fock_vector")
        vec = states.fock_vector(spec)
        steps.append("pn_distribution")
        pn = photstat.pn_distribution(spec)
        x = abs(z) ** 2
        steps.append("mean_and_mandel")
        mean, q = photstat.mean_and_mandel(params, x)
        closed = None
        if not circle:
            steps.append("closed_form_stats")
            closed = photstat.closed_form_stats(family, params, x)
        steps.append("eigenvalue_residual")
        res = ladder.eigenvalue_residual(spec)
        return vec, pn, mean, q, closed, res

    def check(result):
        vec, pn, mean, q, closed, res = result
        if not (np.all(np.isfinite(vec.coeffs)) and np.all(np.isfinite(pn.values))):
            return f"{NONFINITE} Fock coefficients or P(n)"
        k = min(len(pn.values), len(vec.coeffs))
        fock_dev = _max_rel(pn.values[:k], np.abs(vec.coeffs[:k]) ** 2)
        if closed is None:
            ref_mean, ref_q = _circle_stats(a, b)
            closed_dev = 0.0
        else:
            ref_mean, ref_q = closed.mean, closed.mandel_q
            kk = min(len(pn.values), len(closed.pn.values))
            closed_dev = _max_rel(pn.values[:kk], closed.pn.values[:kk])
        return (_gate("eigen residual", res, EIGEN_TOL)
                or _gate("sum P(n) residual", pn.norm_residual, PN_RESIDUAL_TOL)
                or _gate("P(n) vs |c_n|^2", fock_dev, STATS_TOL)
                or _gate("P(n) vs closed form", closed_dev, STATS_TOL)
                or _gate("mean rel dev", abs(mean - ref_mean) / abs(ref_mean), STATS_TOL)
                or _gate("Mandel Q dev", abs(q - ref_q) / max(1.0, abs(ref_q), abs(mean)),
                         STATS_TOL))

    fmt = lambda vals: ",".join(f"{v:.4g}" for v in vals)
    label = f"{family} ({fmt(a)};{fmt(b)}) |z|={abs(z):.4g}"
    return Op("state_job", label, run, check, {"family": family, **props})


def _off_integer_s(a1: float, a2: float, b: float) -> float:
    """b moved, when needed, so that s = b - a1 - a2 is at least S_GAP from
    the nearest integer: the base commit's Gauss evaluator loses accuracy
    within about 0.005 of an integer s (see known_defects).  A b that lands
    closer is pushed S_GAP further from the integer it is nearest."""
    d = (b - a1 - a2) - round(b - a1 - a2)
    return b + math.copysign(S_GAP, d) if abs(d) < S_GAP else b


def states_ops(seed: int, pass_index: int, out_dir: Path) -> list:
    rng = np.random.default_rng([seed, pass_index, 2])
    ops = []

    def draw(family, params, r_max):
        n = len(params)
        for (a, b), r, t in zip(params, strata(rng, n, 0.0, r_max),
                                strata(rng, n, -math.pi, math.pi)):
            props = {"plane": r_max > 1.0, "circle": False,
                     "absz_ge_18": r >= 18.0, "absz_ge_27": r >= 27.0}
            ops.append(_state_op(family, a, b, r * cmath.exp(1j * t), props))

    draw("CS", [([], [])] * 36, PLANE_R_MAX)
    draw("F01", [([], [b]) for b in strata(rng, 32, 2.0, 6.0)], PLANE_R_MAX)
    draw("F11", [([a], [b]) for a, b in
                 zip(strata(rng, 12, 0.3, 6.0), strata(rng, 12, 0.3, 6.0))], PLANE_R_MAX)
    draw("F10", [([a], []) for a in strata(rng, 40, 0.3, 6.0)], 0.97)
    draw("F21", [([a1, a2], [_off_integer_s(a1, a2, b)]) for a1, a2, b in
                 zip(*(strata(rng, 40, 0.3, 5.0) for _ in range(3)))], 0.97)
    for eta, a1, a2, t in zip(strata(rng, 20, -16.0, -6.0), strata(rng, 20, 0.3, 3.0),
                              strata(rng, 20, 0.3, 3.0), strata(rng, 20, -math.pi, math.pi)):
        ops.append(_state_op("F21", [a1, a2], [a1 + a2 - eta], cmath.exp(1j * t),
                             {"plane": False, "circle": True}))
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------------------ figures

def _series_digest(values) -> dict:
    """Every stride-th value plus the sum and sum of squares of all values:
    enough to compare a series within FIGURE_TOL without storing it whole."""
    y = np.asarray(values, dtype=float)
    stride = max(1, len(y) // 60)
    return {"n": len(y), "stride": stride, "sample": y[::stride].tolist(),
            "sum": float(y.sum()), "sumsq": float((y * y).sum())}


def figure_digest(doc: dict) -> list:
    return [dict(label=s["label"], **_series_digest([p[1] for p in s["points"]]))
            for s in doc["series"]]


def _close(got: float, ref: float, scale: float = 1.0) -> bool:
    return abs(got - ref) <= FIGURE_TOL * max(scale, abs(ref))


def compare_figure(got: list, ref: list):
    if [s["label"] for s in got] != [s["label"] for s in ref]:
        return "series labels differ"
    for g, r in zip(got, ref):
        if g["n"] != r["n"]:
            return f"{r['label']}: {g['n']} points, recorded {r['n']}"
        for gv, rv in zip(g["sample"], r["sample"]):
            if not _close(gv, rv):
                return f"{r['label']}: value {gv!r} vs recorded {rv!r}"
        if not _close(g["sum"], r["sum"], r["n"]) or not _close(g["sumsq"], r["sumsq"], r["n"]):
            return f"{r['label']}: series sum differs from the recorded one"
    return None


def _figure_op(k: int, out_dir: Path, ref: list) -> Op:
    path = out_dir / f"figure{k}.json"

    def run(steps):
        steps.append("cli.main")
        return cli.main(["figure", str(k), "--out", str(path)])

    def check(code):
        if code != cli.EXIT_OK:
            return f"ghcs figure {k} exited with {code}"
        with open(path) as fh:
            doc = json.load(fh)
        return compare_figure(figure_digest(doc), ref)

    return Op("figure", f"figure {k}", run, check, {"bytes_path": str(path)}, recorded=True)


def _phase_op(signal, analyzer, label: str, props: dict) -> Op:
    def run(steps):
        steps.append("phase_distribution")
        return phase.phase_distribution(signal, analyzer)

    def check(d):
        return _gate("phase normalization residual", d.norm_residual, PHASE_NORM_TOL)

    return Op("phase_distribution", label, run, check, props)


def _g_ratio(a, n: int, m: int) -> float:
    """G(n, m) of the (1;0) analyzer with parameter a (a=None: Q analyzer),
    from math.lgamma, as an independent spot check of g_coefficients."""
    def log_rho(nu):
        v = math.lgamma(nu + 1.0)
        return v if a is None else v + math.lgamma(a) - math.lgamma(a + nu)
    return math.exp(log_rho(0.5 * (n + m)) - 0.5 * (log_rho(n) + log_rho(m)))


def _g_op(analyzer, a, idx) -> Op:
    def run(steps):
        steps.append("g_coefficients")
        return phase.g_coefficients(analyzer, phase.G_TABLE_CAP)

    def check(g):
        t = g.table
        if t.shape != (phase.G_TABLE_CAP + 1,) * 2:
            return f"G table shape {t.shape}"
        if not np.all(np.diag(t) == 1.0) or not np.array_equal(t, t.T):
            return "G table diagonal or symmetry broken"
        if a is None and not np.all(t <= 1.0 + 1e-15):
            return "G_Q exceeds 1"
        for n, m in idx:
            ref = _g_ratio(a, int(n), int(m))
            if not abs(t[n, m] - ref) <= STATS_TOL * ref:
                return f"G({n},{m}) = {t[n, m]!r}, lgamma gives {ref!r}"
        return None

    name = "Q" if a is None else f"(1;0) a={a:.4g}"
    return Op("g_coefficients", name, run, check)


def figures(seed: int, pass_index: int, out_dir: Path) -> list:
    rng = np.random.default_rng([seed, pass_index, 3])
    with open(FIGURE_REF) as fh:
        refs = json.load(fh)
    ops = [_figure_op(k, out_dir, refs[str(k)]) for k in range(1, 14)]

    analyzer_a = strata(rng, 1, 1.5, 4.0)[0]
    analyzers = ("Q", "PB", states.validate([analyzer_a], []))
    for lo, hi, n in PHASE_BANDS:
        radii = strata(rng, n, lo, hi)
        phis = strata(rng, n, -math.pi, math.pi)
        p01 = strata(rng, n, 0.5, 3.0)
        p11 = strata(rng, 2 * n, 0.5, 3.0)
        for i, r, t in zip(range(n), radii, phis):
            family, a, b = (("CS", [], []), ("F01", [], [p01[i]]),
                            ("F11", [p11[i]], [p11[n + i]]))[i % 3]
            spec = states.StateSpec(states.validate(a, b), r * cmath.exp(1j * t))
            signal = states.fock_vector(spec)
            for an in analyzers:
                name = an if isinstance(an, str) else an.label()
                ops.append(_phase_op(signal, an, f"{family} cutoff {signal.cutoff} {name}",
                                     {"cutoff": signal.cutoff}))
    idx = rng.integers(0, phase.G_TABLE_CAP + 1, size=(8, 2))
    ops.append(_g_op("Q", None, idx))
    ops.append(_g_op(analyzers[2], analyzer_a, idx))
    return ops


WORKLOADS = {"moments": moments, "states": states_ops, "figures": figures}


# ----------------------------------------------------------- known defects

def known_defects(name: str, out_dir: Path) -> list:
    """Fixed inputs on which the base commit fails, one or two for each
    failure found while the workloads were drawn up.  The timed workloads
    keep clear of these regions (an operation of a timed pass must not
    fail); the traced run runs this list and reports how many still fail,
    so a fix shows as a drop in defects.failed."""
    ops = []
    if name == "moments":
        for a, b in ((5.0, 1.0), (6.0, 1.5)):   # a - b >= 4: ConvergenceError
            ops.append(_moment_op("F11", [a], [b], {"f11_amb_ge_4": True}))
        ops.append(_moment_op("F11", [2.5], [3.0]))  # integer b: ConvergenceError
    elif name == "states":
        plane = {"plane": True, "circle": False}
        for family, a, b, r in (
                ("CS", [], [], 20.0),              # pn_distribution: DivergenceError
                ("CS", [], [], 28.0),              # fock_vector: OverflowError
                ("F11", [5.0], [1.0], 17.0),       # pn_distribution: DivergenceError
                ("F11", [1.0], [2.0], 20.0),
                ("F11", [2.0], [3.0], 28.0),       # fock_vector: OverflowError
                ("F01", [], [0.4], 1.37),          # eigen residual just above 1e-6
                ("F01", [], [1.0], 1.19),
                # s = b - a1 - a2 within 0.005 of an integer on the disk:
                ("F21", [0.548, 2.618], [3.165], 0.9063),   # DivergenceError
                ("F21", [0.548, 2.618], [3.16601], 0.9063)):  # sum P(n) residual
            ops.append(_state_op(family, a, b, complex(r), dict(
                plane, absz_ge_18=r >= 18.0, absz_ge_27=r >= 27.0)))
        for a, eta in ((2.5, -4.0), (1.0, -4.0)):  # cutoff cap: ConvergenceError
            ops.append(_state_op("F21", [a, a], [2.0 * a - eta], 1.0 + 0.0j,
                                 {"plane": False, "circle": True}))
    return ops


def build(name: str, seed: int, pass_index: int, out_dir: Path,
          defects: bool = False) -> list:
    os.makedirs(out_dir, exist_ok=True)
    if defects:
        return known_defects(name, out_dir)
    return WORKLOADS[name](seed, pass_index, out_dir)
