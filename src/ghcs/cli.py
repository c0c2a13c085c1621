"""Command-line front end.

Subcommands: validate, state, pn, stats, weight, moment-check, phase,
gh-phase, figure, verify.  Output goes to stdout or --out as JSON or CSV;
JSON documents carry schema_version, a verbatim echo of the parsed
configuration, and per-series metadata, so identical invocations produce
byte-identical files (written atomically via temp file + rename).

verify runs one suite, or all nine in this order: moments (weight moments
against rho(n)), eigen (lowering-operator eigenstates), phase-norm (phase
distributions integrate to 1), coalesce (matched parameter pairs drop out),
stats (generic photon statistics against the closed forms), measure (inner
products through the measure, the analytic representation against the
wave function rows), radial (radially integrated Husimi phase against the
G table), husimi (self-dual Husimi closed form) and circle (the circle
moment problem is refused).

Exit codes: 0 ok, 1 verification failure, 2 invalid parameters,
64 usage error, 65 numeric failure.  GHCS_MAX_TERMS overrides the series
term cap; --tol sets the series tolerance and the unit-circle Fock cut.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import analytic, ladder, phase, photstat, specfun, states, weights
from .errors import CircleNoGoError, GHSError, ParameterError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 65

SCHEMA_VERSION = 1

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-]\d*(?:\.\d*)?(?:[eE][+-]?\d+)?)i)?\s*$"
)


def parse_complex(token: str) -> complex:
    """Parse 're', 're+imi' or 're-imi' (e.g. '1.5', '1+2i', '-0.3-0.7i')."""
    m = _COMPLEX_RE.match(token)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {token!r}")
    re_part = float(m.group("re"))
    im_tok = m.group("im")
    if im_tok is None:
        return complex(re_part, 0.0)
    if im_tok in ("+", "-"):
        im_tok += "1"
    return complex(re_part, float(im_tok))


def parse_count(token: str) -> int:
    if not token.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {token!r}")
    return int(token)


def parse_param_list(text: str):
    text = text.strip()
    if not text:
        return []
    return [parse_complex(tok) for tok in text.split(",")]


class UsageError(Exception):
    pass


def _sweep_end(value: float, flag: str) -> float:
    """The end of a |z| sweep from 0; a finite negative one is a usage error,
    and one whose |z|^2 is not finite (+-inf, nan, past 1.3e154) raises
    DivergenceError before the grid is formed."""
    if -math.inf < value < 0.0:
        raise UsageError(f"{flag} ends a |z| sweep from 0 and must be >= 0, got {value:g}")
    states.checked_abs(value)
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _json_default(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _fmt_complex(v: complex) -> str:
    if v.imag == 0.0:
        return f"{v.real:g}"
    return f"{v.real:g}{v.imag:+g}i"


def _config_echo(args) -> dict:
    out = {}
    for key, val in sorted(vars(args).items()):
        if key == "func" or val is None:
            continue
        if isinstance(val, complex):
            val = _fmt_complex(val)
        elif isinstance(val, list) and val and isinstance(val[0], complex):
            val = ",".join(_fmt_complex(v) for v in val)
        out[key] = val
    return out


_POINTS = "\0"  # stands in for a series' points in the json.dumps pass of _json_text


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2, default=_json_default) + newline, byte for
    byte, with each series' (n, 2) points spelled by json's C encoder (float
    repr, NaN, Infinity) straight into that layout; a grid column equal to
    the one before is spelled once."""
    stub = dict(doc, series=[dict(s, points=_POINTS) for s in doc["series"]])
    parts = json.dumps(stub, indent=2, default=_json_default).split(json.dumps(_POINTS))
    spell = lambda col: json.dumps(col.tolist())[1:-1].split(", ")
    grid = None
    for i, s in enumerate(doc["series"], 1):
        pts = s["points"]
        if pts[:, 0].tobytes() != grid:
            grid, xs = pts[:, 0].tobytes(), spell(pts[:, 0])
        body = "\n        ],\n        [\n          ".join(
            map(",\n          ".join, zip(xs, spell(pts[:, 1]))))
        parts[i] = ("[\n        [\n          " + body + "\n        ]\n      ]"
                    if len(pts) else "[]") + parts[i]
    return "".join(parts) + "\n"


def emit(args, series: list, extra: dict | None = None) -> None:
    """Write {schema_version, config, series} as JSON or CSV."""
    doc = {"schema_version": SCHEMA_VERSION, "config": _config_echo(args)}
    if extra:
        doc.update(extra)
    doc["series"] = series
    if getattr(args, "format", "json") == "json":
        text = _json_text(doc)
    else:
        lines = [f"# {key}={val}" for key, val in doc["config"].items()]
        lines.append("x," + ",".join(s["label"] for s in series))
        cols = [series[0]["points"][:, 0]] + [s["points"][:, 1] for s in series]
        lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols))]
        text = "\n".join(lines) + "\n"
    _write_text(args, text)


def _write_text(args, text: str) -> None:
    """text to --out (atomically: temp file + rename) or to stdout."""
    out_path = getattr(args, "out", None)
    if out_path:
        d = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".ghcs-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _series(label: str, xs, ys, **meta) -> dict:
    return {"label": label, "points": np.array((xs, ys), dtype=float).T, **meta}


def _get_params(args) -> states.ParameterSet:
    return states.validate(args.a or [], args.b or [])


def _get_z(args) -> complex:
    if getattr(args, "z", None) is not None:
        return args.z
    absz = getattr(args, "absz", None)
    if absz is None:
        raise UsageError("need --z or --absz")
    return absz * cmath.exp(1j * getattr(args, "phi", 0.0))


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    params = _get_params(args)  # a ParameterError report goes to stdout (main)
    dom = states.classify(params)
    _write_text(args, json.dumps({"valid": True, "params": params.label(),
                                  "domain": dom.kind.value, "eta": dom.eta}, indent=2) + "\n")
    return EXIT_OK


def cmd_state(args) -> int:
    params = _get_params(args)
    spec = states.StateSpec(params, _get_z(args))
    v = states.fock_vector(spec, tol=args.tol)
    ns = np.arange(v.cutoff + 1)
    series = [
        _series("re_c", ns, v.coeffs.real, params=params.label()),
        _series("im_c", ns, v.coeffs.imag, params=params.label()),
    ]
    emit(args, series, {
        "domain": spec.domain_kind().value,
        "cutoff": v.cutoff,
        "tail_bound": v.tail_bound,
        "normalized": v.normalized,
    })
    return EXIT_OK


def cmd_pn(args) -> int:
    params = _get_params(args)
    spec = states.StateSpec(params, _get_z(args))
    d = photstat.pn_distribution(spec, tol=args.tol)
    emit(args, [_series("pn", d.grid, d.values, params=params.label())],
         {"norm_residual": d.norm_residual})
    return EXIT_OK


def cmd_stats(args) -> int:
    params = _get_params(args)
    if args.absz_max is not None:
        grid = np.linspace(0.0, _sweep_end(args.absz_max, "--absz-max"), args.points)
    else:  # one point: the scalar call
        grid = np.array([abs(_get_z(args))])
    if grid.size:  # the largest |z| is classified before |z|^2 is formed
        states.StateSpec(params, float(np.abs(grid).max())).domain_kind()
    x = grid**2 if args.absz_max is not None else float(grid[0]) ** 2
    means, qs = np.atleast_1d(*photstat.mean_and_mandel(params, x, tol=args.tol))
    emit(args, [
        _series("mean", grid, means, params=params.label()),
        _series("mandel_q", grid, qs, params=params.label()),
    ])
    return EXIT_OK


def cmd_weight(args) -> int:
    params = _get_params(args)
    r = weights.support_radius(args.family)
    hi = args.x_max if args.x_max is not None else (0.999 if r == 1.0 else 25.0)
    if not args.x_min <= hi < r:
        raise UsageError(f"need --x-min <= --x-max < {r:g}, the support radius; "
                         f"got {args.x_min:g}, {hi:g}")
    grid = np.linspace(max(args.x_min, 1e-12), hi, args.points)
    emit(args, [
        _series("w", grid, weights.weight(args.family, params, grid), params=params.label()),
        _series("w_tilde", grid, weights.weight_tilde(args.family, params, grid),
                params=params.label()),
    ])
    return EXIT_OK


def cmd_moment_check(args) -> int:
    params = _get_params(args)
    rep = weights.moment_check(args.family, params, n_max=args.n_max,
                               quad_tol=args.quad_tol)
    emit(args, [
        _series("rel_error", [r.n for r in rep.records],
                [r.rel_error for r in rep.records], params=params.label()),
    ], {"max_rel_error": rep.max_rel_error, "family": rep.family})
    return EXIT_OK


def _signal_from_args(args) -> states.FockVector:
    if getattr(args, "signal_fock", None) is not None:
        return states.fock_basis_vector(args.signal_fock)
    params = states.validate(args.signal_a or [], args.signal_b or [])
    z = args.signal_absz * cmath.exp(1j * args.signal_phi)
    return states.fock_vector(states.StateSpec(params, z), tol=args.tol)


def cmd_phase(args) -> int:
    params = _get_params(args)
    spec = states.StateSpec(params, _get_z(args))
    signal = states.fock_vector(spec, tol=args.tol)
    thetas = phase.default_theta_grid(args.points)
    d = phase.phase_distribution(signal, args.analyzer, thetas)
    emit(args, [_series(f"P_{args.analyzer}", thetas, d.values, params=params.label())],
         {"norm_residual": d.norm_residual})
    return EXIT_OK


def cmd_gh_phase(args) -> int:
    analyzer = _get_params(args)
    signal = _signal_from_args(args)
    thetas = phase.default_theta_grid(args.points)
    d = phase.phase_distribution(signal, analyzer, thetas)
    emit(args, [_series(f"P_{analyzer.label()}", thetas, d.values)],
         {"norm_residual": d.norm_residual})
    return EXIT_OK


# ---------------------------------------------------------------- figures

FIG_B_SWEEP = (0.2, 1.0, 5.0)
FIG_AB_SWEEP = ((2.0, 4.0), (3.0, 3.0), (4.0, 2.0))
FIG_A_SWEEP = (1.5, 2.0, 4.0)
FIG_PHASE_B_SWEEP = (0.5, 1.0, 3.0)


def _sweep_params(fig: int, override):
    if fig in (1, 2, 3):
        vals = override or FIG_B_SWEEP
        return [(states.validate([], [b]), f"b={b:g}") for b in vals]
    if fig in (4, 5, 6, 9, 12):
        vals = override or FIG_AB_SWEEP
        return [(states.validate([a], [b]), f"a={a:g},b={b:g}") for a, b in vals]
    if fig in (7, 10, 13):
        vals = override or FIG_A_SWEEP
        return [(states.validate([a], []), f"a={a:g}") for a in vals]
    vals = override or FIG_PHASE_B_SWEEP
    return [(states.validate([], [b]), f"b={b:g}") for b in vals]


def cmd_figure(args) -> int:
    fig = args.id
    override = None
    if args.sweep:
        toks = args.sweep.split(",")
        try:
            if fig in (4, 5, 6, 9, 12):
                override = [tuple(float(v) for v in t.split(":")) for t in toks]
                if any(len(t) != 2 for t in override):
                    raise ValueError("pair sweeps use a:b entries")
            else:
                override = [float(t) for t in toks]
        except ValueError as e:
            raise UsageError(f"bad --sweep {args.sweep!r}: {e}")
    cs = states.validate([], [])
    sweep = _sweep_params(fig, override) + [(cs, "husimi_Q" if fig >= 11 else "CS")]
    series = []
    if args.points is None:
        # amplitude sweeps step |z| by 0.1; phase figures use the full grid
        args.points = 61 if fig in (2, 3, 5, 6) else 721

    if fig in (1, 4, 7):
        absz = args.absz if args.absz is not None else (3.0 if fig in (1, 4) else 0.75)
        pns = [photstat.pn_distribution(states.StateSpec(params, absz), tol=args.tol).values
               for params, _ in sweep]
        grid = np.arange(max(len(pn) for pn in pns))
        for pn, (params, lab) in zip(pns, sweep):
            vals = np.zeros(len(grid))
            vals[: len(pn)] = pn
            series.append(_series(lab, grid, vals, params=params.label()))
    elif fig in (2, 3, 5, 6):
        hi = _sweep_end(args.absz, "--absz") if args.absz is not None else 6.0
        grid = np.linspace(0.0, hi, args.points)
        which = 0 if fig in (2, 5) else 1
        for params, lab in sweep:
            ys = photstat.mean_and_mandel(params, grid**2, tol=args.tol)[which]
            series.append(_series(lab, grid, ys, params=params.label()))
    else:  # 8-10: each family's state under the Husimi analyzer; 11-13: generalized
        # phase distributions of a coherent signal under each family's analyzer
        absz = args.absz if args.absz is not None else 0.75
        thetas = phase.default_theta_grid(args.points)
        for params, lab in sweep:
            signal_params, analyzer = (cs, params) if fig >= 11 else (params, "Q")
            sig = states.fock_vector(states.StateSpec(signal_params, absz), tol=args.tol)
            d = phase.phase_distribution(sig, analyzer, thetas)
            series.append(_series(lab, thetas, d.values, params=params.label()))

    emit(args, series, {"figure": fig})
    return EXIT_OK


# ----------------------------------------------------------------- verify

def _check(name: str, measured: float, tol: float) -> dict:
    return {"name": name, "measured": measured, "tolerance": tol, "pass": measured <= tol}


def _verify_moments(checks: list) -> None:
    cases = [("CS", states.validate([], []))]
    cases += [("F01", states.validate([], [b])) for b in FIG_B_SWEEP]
    cases += [("F11", states.validate([a], [b])) for a, b in FIG_AB_SWEEP]
    cases += [("F10", states.validate([a], [])) for a in FIG_A_SWEEP]
    cases += [("F21", states.validate([3.0, 3.0], [2.0]))]
    for fam, p in cases:
        rep = weights.moment_check(fam, p, n_max=20)
        checks.append(_check(f"moments {fam} {p.label()}", rep.max_rel_error, 1e-6))


def _eigen_states():
    plane = [
        (states.validate([], []), 1.5 + 0.5j),
        (states.validate([], [0.2]), 3.0),
        (states.validate([], [5.0]), 2.0 - 1.0j),
        (states.validate([2.0], [4.0]), 3.0j),
        (states.validate([1 + 2j, 1 - 2j], [0.5, 2.0, 2.5]), 1.0 + 1.0j),
    ]
    disk = [
        (states.validate([2.0], []), 0.6),
        (states.validate([1.5], []), -0.3 + 0.6j),
        (states.validate([3.0, 3.0], [2.0]), 0.75),
        (states.validate([4.0], [2.0, 1.0]) , 0.9j),
    ]
    circle = [
        (states.validate([0.5, 0.5], [16.0]), cmath.exp(0.7j)),
        (states.validate([0.3, 0.4], [14.5]), cmath.exp(-2.0j)),
        (states.validate([1.0, 1.0, 2.0], [9.0, 9.0]), cmath.exp(3.0j)),
    ]
    return plane + disk + circle


def _verify_eigen(checks: list) -> None:
    for params, z in _eigen_states():
        res = ladder.eigenvalue_residual(states.StateSpec(params, z), tol=1e-14)
        checks.append(_check(f"eigen {params.label()} z={z:.3g}", res, 1e-6))


def _verify_phase_norm(checks: list) -> None:
    cs = states.validate([], [])
    signals = [
        ("fock4", states.fock_basis_vector(4)),
        ("coherent", states.fock_vector(states.StateSpec(cs, 0.75), tol=1e-14)),
        ("f01", states.fock_vector(
            states.StateSpec(states.validate([], [1.0]), 0.75), tol=1e-14)),
        ("f10", states.fock_vector(
            states.StateSpec(states.validate([2.0], []), 0.75), tol=1e-14)),
    ]
    for name, sig in signals:
        for analyzer in ("Q", "PB", states.validate([3.0], [])):
            d = phase.phase_distribution(sig, analyzer)
            checks.append(_check(f"phase-norm {name} analyzer={d.analyzer_label}",
                                 d.norm_residual, 1e-8))
    d = phase.phase_distribution(states.fock_basis_vector(4), "Q")
    dev = float(np.max(np.abs(d.values - 1.0 / (2.0 * math.pi))))
    checks.append(_check("phase-norm fock uniform 1/(2pi)", dev, 1e-12))


def _verify_coalesce(checks: list) -> None:
    c = 2.7
    base = states.validate([2.0], [])
    ext = base.appended(c)
    x = 0.5625
    pairs = [
        ("rho", max(
            abs(states.rho(ext, n) / states.rho(base, n) - 1.0) for n in range(60)
        )),
        ("f", max(
            abs(ladder.f_coeff(ext, n) / ladder.f_coeff(base, n) - 1.0)
            for n in range(60)
        )),
        ("mean", abs(
            photstat.mean_and_mandel(ext, x)[0] / photstat.mean_and_mandel(base, x)[0]
            - 1.0
        )),
    ]
    g_ext = phase.g_coefficients(states.ParameterSet([c], [c]), 40).table
    g_q = phase.g_coefficients("Q", 40).table
    pairs.append(("g_table", float(np.max(np.abs(g_ext - g_q)))))
    w_ext = weights.weight("F11", states.validate([c], [c]), 0.8)
    pairs.append(("weight", abs(w_ext - 1.0)))
    checks += [_check(f"coalesce {name}", measured, 1e-12) for name, measured in pairs]


def _verify_stats(checks: list) -> None:
    """Generic P(n), mean and Q against the closed forms over the figure sets
    (criterion 4), and Q against |Q| where it is small beside the mean."""
    cases = [("CS", states.validate([], []), az) for az in (0.75, 3.0)]
    cases += [("F01", states.validate([], [b]), az)
              for b in FIG_B_SWEEP for az in (0.25, 0.75, 3.0)]
    cases += [("F11", states.validate([a], [b]), az)
              for a, b in FIG_AB_SWEEP for az in (0.25, 0.75, 3.0)]
    cases += [("F10", states.validate([a], []), az) for a in FIG_A_SWEEP for az in (0.25, 0.75)]
    cases += [("F21", states.validate([3.0, 3.0], [2.0]), az) for az in (0.25, 0.75)]
    for fam, p, az in cases:
        ref = photstat.closed_form_stats(fam, p, az * az)
        mean, q = photstat.mean_and_mandel(p, az * az, tol=1e-14)
        pn = photstat.pn_distribution(states.StateSpec(p, az), tol=1e-14).values
        k = min(len(pn), len(ref.pn.values))
        dev = max(abs(ref.mean - mean) / mean, abs(ref.mandel_q - q) / max(1.0, abs(q), mean),
                  float(np.max(np.abs(pn[:k] - ref.pn.values[:k])
                               / np.maximum(ref.pn.values[:k], 1e-300))))
        checks.append(_check(f"stats {fam} {p.label()} |z|={az:g}", dev, 1e-8))
    for a, b, az in ((2.0, 3.0, 100.0), (2.0, 3.0, 240.0), (0.5, 4.0, 150.0)):
        p = states.validate([a], [b])
        q_ref = photstat.closed_form_stats("F11", p, az * az).mandel_q
        q = photstat.mean_and_mandel(p, az * az)[1]
        checks.append(_check(f"stats Q/|Q| F11 {p.label()} |z|={az:g}",
                             abs(q - q_ref) / abs(q_ref), 1e-6))


def _weight_families():
    """(family, parameter set, on the disk) for one set of each family with a
    weight function."""
    sets = [("CS", states.validate([], [])), ("F01", states.validate([], [2.0])),
            ("F11", states.validate([2.0], [4.0])), ("F10", states.validate([3.0], [])),
            ("F21", states.validate([3.0, 3.0], [2.0]))]
    return [(fam, p, weights.support_radius(fam) == 1.0) for fam, p in sets]


def _verify_measure(checks: list) -> None:
    """Inner products through the measure against the Fock inner product
    (criterion 11), and wavefunction_rows against analytic_rep."""
    rng = np.random.default_rng(11)
    thetas = np.linspace(-math.pi, math.pi, 7)
    for fam, p, disk in _weight_families():
        phi, psi = (states.fock_from_coeffs(rng.normal(size=9) + 1j * rng.normal(size=9))
                    for _ in range(2))
        via = analytic.inner_product_via_measure(fam, p, phi, psi)
        checks.append(_check(f"measure {fam} {p.label()} inner product",
                             abs(via - phi.inner(psi)), 1e-5))
        xs = np.array([0.1, 0.5, 0.9] if disk else [0.3, 2.0, 9.0])
        rows = analytic.wavefunction_rows(p, psi, thetas)(xs, 0.0)
        ref = np.array([[analytic.analytic_rep(p, psi, math.sqrt(x) * cmath.exp(-1j * t))
                         for t in thetas] for x in xs.tolist()])
        checks.append(_check(f"measure {fam} {p.label()} analytic_rep",
                             float(np.max(np.abs(rows - ref)) / np.max(np.abs(ref))), 1e-12))


def _verify_radial(checks: list) -> None:
    """The phase distribution by radial integration of the generalized Husimi
    distribution against the G-table phase distribution."""
    cs = states.validate([], [])
    for fam, p, disk in _weight_families():
        absz = 0.5 if disk else 0.75
        signals = (("coherent", states.fock_vector(
            states.StateSpec(cs, absz * cmath.exp(0.4j)), tol=1e-14)),
                   ("fock4", states.fock_basis_vector(4)))
        for name, sig in signals:
            checks.append(_check(f"radial {fam} {p.label()} {name}",
                                 phase.radial_phase_check(sig, fam, p), 1e-6))


def _verify_husimi(checks: list) -> None:
    """The generalized Husimi distribution of a state of the analyzer's own
    family against its closed form (criterion 12), four draws a family."""
    rng = np.random.default_rng(22)
    for fam, p, disk in _weight_families():
        scale = 0.65 if disk else 1.2
        dev = 0.0
        for _ in range(4):
            zs, z = (scale * complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
            sig = states.fock_vector(states.StateSpec(p, zs), tol=1e-15)
            closed = phase.self_dual_husimi(fam, p, zs, z)
            dev = max(dev, abs(phase.gh_husimi(sig, fam, p, z) - closed) / max(1e-10, closed))
        checks.append(_check(f"husimi {fam} {p.label()}", dev, 1e-10))


def _verify_circle(checks: list) -> None:
    """The circle moment problem (criterion 13): every circle family is
    refused (measured 1 if a density comes back) but the phase-state limit
    a = 1 of (1;0), whose density is 1/(2 pi)."""
    for p in (states.validate([0.3, 0.4], [1.5]), states.validate([0.5, 0.5], [16.0]),
              states.validate([1.5], []), states.validate([1.0, 1.5], [0.5])):
        try:
            weights.circle_weight_attempt(p)
            measured = 1.0
        except CircleNoGoError:
            measured = 0.0
        checks.append(_check(f"circle no-go {p.label()} eta={p.eta:g}", measured, 0.0))
    const = weights.circle_weight_attempt(states.validate([1.0], []))
    checks.append(_check("circle phase-state density x 2pi", abs(2.0 * math.pi * const - 1.0),
                         1e-15))


VERIFY_SUITES = {
    "moments": _verify_moments,
    "eigen": _verify_eigen,
    "phase-norm": _verify_phase_norm,
    "coalesce": _verify_coalesce,
    "stats": _verify_stats,
    "measure": _verify_measure,
    "radial": _verify_radial,
    "husimi": _verify_husimi,
    "circle": _verify_circle,
}


def cmd_verify(args) -> int:
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    checks: list = []
    for s in suites:
        VERIFY_SUITES[s](checks)
    passed = all(c["pass"] for c in checks)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(args),
        "passed": passed,
        "checks": checks,
    }
    _write_text(args, json.dumps(doc, indent=2, default=_json_default) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: no command may change a default (--a/--b share theirs)."""
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=specfun.DEFAULT_TOL,
                        help="tolerance of the series sums and the unit-circle Fock cut "
                             "(default 1e-12)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="output path (atomic write); stdout if omitted")
    p = _Parser(prog="ghcs", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_params(sp):
        sp.add_argument("--a", type=parse_param_list, default=[],
                        help="numerator parameters, e.g. '2' or '1+2i,1-2i'")
        sp.add_argument("--b", type=parse_param_list, default=[],
                        help="denominator parameters")

    def add_point(sp):
        sp.add_argument("--z", type=parse_complex, help="complex point re+imi")
        sp.add_argument("--absz", type=float, help="|z|")
        sp.add_argument("--phi", type=float, default=0.0, help="arg z")

    sp = sub.add_parser("validate", help="check parameter constraints", parents=[common])
    add_params(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("state", help="truncated Fock coefficients", parents=[common])
    add_params(sp); add_point(sp)
    sp.set_defaults(func=cmd_state)

    sp = sub.add_parser("pn", help="photon number distribution", parents=[common])
    add_params(sp); add_point(sp)
    sp.set_defaults(func=cmd_pn)

    sp = sub.add_parser("stats", help="mean photon number and Mandel Q", parents=[common])
    add_params(sp); add_point(sp)
    sp.add_argument("--absz-max", type=float, help="sweep |z| from 0 to this")
    sp.add_argument("--points", type=parse_count, default=61)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("weight", help="weight function w and density w/N", parents=[common])
    add_params(sp)
    sp.add_argument("--family", required=True, choices=states.FAMILIES)
    sp.add_argument("--x-min", type=float, default=1e-6)
    sp.add_argument("--x-max", type=float)
    sp.add_argument("--points", type=parse_count, default=200)
    sp.set_defaults(func=cmd_weight)

    sp = sub.add_parser("moment-check", help="quadrature vs rho(n)", parents=[common])
    add_params(sp)
    sp.add_argument("--family", required=True, choices=states.FAMILIES)
    sp.add_argument("--n-max", type=parse_count, default=20)
    sp.add_argument("--quad-tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_moment_check)

    sp = sub.add_parser("phase", help="phase distribution of a family state", parents=[common])
    add_params(sp); add_point(sp)
    sp.add_argument("--analyzer", default="Q", choices=("Q", "PB"))
    sp.add_argument("--points", type=parse_count, default=721)
    sp.set_defaults(func=cmd_phase)

    sp = sub.add_parser("gh-phase",
                        help="generalized phase distribution (analyzer --a/--b)", parents=[common])
    add_params(sp)
    sp.add_argument("--signal-a", type=parse_param_list, default=[])
    sp.add_argument("--signal-b", type=parse_param_list, default=[])
    sp.add_argument("--signal-absz", type=float, default=0.75)
    sp.add_argument("--signal-phi", type=float, default=0.0)
    sp.add_argument("--signal-fock", type=int, help="use Fock state |N> as signal")
    sp.add_argument("--points", type=parse_count, default=721)
    sp.set_defaults(func=cmd_gh_phase)

    sp = sub.add_parser("figure", help="emit the data series of figure 1..13", parents=[common])
    sp.add_argument("id", type=int, choices=range(1, 14), metavar="ID", help="1..13")
    sp.add_argument("--sweep", help="override parameter sweep, e.g. '0.5,1,3' or '2:4,3:3'")
    sp.add_argument("--absz", type=float, help="override |z|")
    sp.add_argument("--points", type=parse_count,
                    help="grid size (default: 61 amplitude steps / 721 angles)")
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("verify", help="run verification suites", parents=[common])
    sp.add_argument("suite", choices=tuple(VERIFY_SUITES) + ("all",),
                    help="one suite, or all nine in the order listed")
    sp.set_defaults(func=cmd_verify)

    return p


_BASELINE_MAX_TERMS = specfun.DEFAULT_MAX_TERMS


def main(argv=None) -> int:
    cap = os.environ.get("GHCS_MAX_TERMS") or _BASELINE_MAX_TERMS
    try:
        specfun.DEFAULT_MAX_TERMS = int(cap)
    except ValueError:
        print(f"ghcs: bad GHCS_MAX_TERMS {cap!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("validate", "verify") and args.format != "json":
            raise UsageError(f"{args.command} writes JSON only; it has no series for CSV")
        return args.func(args)
    except UsageError as e:
        print(f"ghcs: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as e:
        print(json.dumps({
            "valid": False, "which": e.which, "index": e.index,
            "rule": e.rule, "message": str(e),
        }, indent=2), file=sys.stdout if args.command == "validate" else sys.stderr)
        return EXIT_INVALID_PARAMS
    except (GHSError, OverflowError, ValueError, ZeroDivisionError) as e:
        print(f"ghcs: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
