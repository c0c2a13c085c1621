"""Span tracer for the traced benchmark run.

The tracer lives entirely in the benchmark: install() replaces every
public function of the ghcs modules, and the specfun branch helpers
listed in BRANCHES, with a timing wrapper in every module namespace that
bound the function object (log_rho, for one, is bound in states,
photstat, weights, phase and analytic).  The wrapper of
quadrature.integrate also wraps the integrand it is handed, so that
quadrature bookkeeping is separated from density evaluation.

Each span has a name, start, end, parent span and operation id.  Self
time is a span's duration minus the time its child spans cover.  Spans
stay in memory and write_spans() stores them at the end; the hot leaf
spans in AGGREGATED (millions per pass) are only counted and timed.  An
exception counts once per layer it leaves (a span that raised into a
caller of another layer).  A name that the program no longer defines is
listed in `absent` and its metrics read 0.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

import ghcs
from ghcs import analytic, cli, ladder, phase, photstat, quadrature, specfun, states, weights

MODULES = (quadrature, specfun, states, photstat, ladder, weights, phase, analytic, cli)

INTEGRAND = "quadrature.integrand"

# evaluator -> {branch: helper names}; the pfaff branch of gauss_2f1 calls
# pfq directly, so it is counted as a pfq span whose parent is gauss_2f1
BRANCHES = {
    "specfun.gauss_2f1": {
        "series": ("_gauss_series",),
        "connection": ("_gauss_nonint_connection",),
        "log": ("_gauss_log_case",),
        "unit": ("gauss_2f1_unit",),
    },
    "specfun.tricomi_u": {
        "laplace": ("_tricomi_laplace",),
        "asymptotic": ("_tricomi_asymptotic",),
        "kummer": ("_tricomi_nonint_b",),
        "recurrence": ("_tricomi_a_recurrence",),
        "polynomial": ("_tricomi_polynomial",),
    },
    "specfun.bessel_k": {
        "asymptotic": ("_ln_bessel_k_asymptotic",),
        "integral": ("_bessel_k_integral",),
        "series": ("_bessel_k_nonint", "_bessel_k_integer_series"),
    },
}
# further entry points whose self time belongs to an evaluator
EVALUATOR_ENTRIES = {
    "specfun.gauss_2f1": ("gauss_2f1_near_unit",),
    "specfun.bessel_k": ("ln_bessel_k", "_bessel_k_asymptotic"),
    "specfun.tricomi_u": (),
}
PRIVATE = {
    "specfun": {h for b in BRANCHES.values() for hs in b.values() for h in hs
                if h.startswith("_")} | {"_bessel_k_asymptotic"},
    "weights": {"_disk_density_om"},
}
DENSITY = ("weights.weight_tilde", "weights._disk_density_om")

# names whose metrics the report reads; missing ones are reported absent
REQUIRED = (
    "quadrature.integrate", "weights.moment_check", *DENSITY, "specfun.pfq",
    "specfun.kummer_m", *BRANCHES,
    *(f"specfun.{h}" for b in BRANCHES.values() for hs in b.values() for h in hs),
    "states.log_rho", "states.normalization", "states.fock_vector",
    "photstat.pn_distribution", "ladder.f_coeff", "phase.phase_distribution",
    "phase.g_coefficients", "analytic.inner_product_via_measure", "cli.main", "cli.emit",
)
AGGREGATED = {"states.log_rho", "ladder.f_coeff"}


class Tracer:
    def __init__(self):
        self.op = -1
        self.stack = []
        self._integrand_acc = [0, 0.0]   # integrand calls, self time
        self.calls = Counter()
        self.self_time = Counter()
        self.errors = Counter()
        self.counts = Counter()    # work counts measured at span boundaries
        self.density_points = set()
        self.absent = []
        self._saved = []           # (namespace, attribute, original)
        self._names = {}
        self._next_id = 0
        self._spans = {k: array("q") for k in ("id", "parent", "name", "op")}
        self._times = {k: array("d") for k in ("start", "end")}

    # ---------------------------------------------------------- wrapping

    def install(self) -> None:
        targets = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in PRIVATE.get(short, ()))):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        found = {name for name, _ in targets.values()}
        self.absent = [n for n in REQUIRED if n not in found]
        for space in (ghcs, *MODULES):
            binding = space.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(space).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._saved.append((space, attr, obj))
                    setattr(space, attr, self._wrap(hit[0], obj, binding))

    def uninstall(self) -> None:
        for space, attr, obj in reversed(self._saved):
            setattr(space, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, fn, binding: str):
        tr = self
        stack, calls, self_time, counts = self.stack, self.calls, self.self_time, self.counts
        perf = time.perf_counter
        record = name not in AGGREGATED
        layer = name.split(".", 1)[0]
        scan_key = f"{binding}->{name}"
        is_integrate = name == "quadrature.integrate"
        is_pfq = name == "specfun.pfq"
        post = _POST.get(name)

        def wrapper(*args, **kwargs):
            # frame: [name, time covered by children, span id, layer]; a
            # frame that is not recorded passes its parent's span id on
            parent = stack[-1] if stack else None
            if record:
                span_id = tr._next_id
                tr._next_id += 1
            else:
                span_id = parent[2] if parent is not None else -1
            frame = [name, 0.0, span_id, layer]
            counts[scan_key] += 1
            if is_integrate:
                if any(f[0] is INTEGRAND for f in stack):
                    counts["quadrature.nested_calls"] += 1
                args = (tr._integrand(args[0], frame),) + args[1:]
            elif is_pfq and parent is not None and parent[0] == "specfun.gauss_2f1":
                counts["specfun.gauss_2f1.branch.pfaff.calls"] += 1
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_time[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if not ok and (parent is None or parent[3] != layer):
                    tr.errors[layer] += 1   # the exception left the layer
                if record:
                    tr._record(span_id, parent, name, t0, t1)
            if post is not None:
                post(tr, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _integrand(self, f, owner: list):
        """Wrap an integrand handed to the integrate call of frame owner."""
        stack, acc, perf = self.stack, self._integrand_acc, time.perf_counter

        def integrand(x):
            frame = [INTEGRAND, 0.0, owner[2], "quadrature"]
            stack.append(frame)
            t0 = perf()
            try:
                return f(x)
            finally:
                dur = perf() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += dur - frame[1]
                owner[1] += dur

        return integrand

    def _record(self, span_id, parent, name, t0, t1) -> None:
        s = self._spans
        s["id"].append(span_id)
        s["parent"].append(parent[2] if parent is not None else -1)
        s["name"].append(self._names.setdefault(name, len(self._names)))
        s["op"].append(self.op)
        self._times["start"].append(t0)
        self._times["end"].append(t1)

    # ----------------------------------------------------------- reports

    def _layer_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def layer_metrics(self) -> dict:
        c, calls, st = self.counts, self.calls, self.self_time
        density = sum(calls[n] for n in DENSITY)
        cache = getattr(states, "_log_rho_cache", None)
        m = {
            "quadrature.integrate.calls": calls["quadrature.integrate"],
            "quadrature.nested_calls": c["quadrature.nested_calls"],
            "quadrature.evals": self._integrand_acc[0],
            "quadrature.self_s": self._layer_self("quadrature."),
            "quadrature.integrand_self_s": self._integrand_acc[1],
            "quadrature.errors": self.errors["quadrature"],
            "weights.moment_check.calls": calls["weights.moment_check"],
            "weights.density_evals": density,
            "weights.density_distinct_frac": len(self.density_points) / density if density else 0.0,
            "weights.self_s": self._layer_self("weights."),
            "specfun.self_s": self._layer_self("specfun."),
            "specfun.pfq.calls": calls["specfun.pfq"],
            "specfun.pfq.terms": c["specfun.pfq.terms"],
            "specfun.pfq.self_s": st["specfun.pfq"],
            "specfun.kummer_m.calls": calls["specfun.kummer_m"],
        }
        for ev, branches in BRANCHES.items():
            members = (ev, *(f"specfun.{h}" for hs in branches.values() for h in hs),
                       *(f"specfun.{h}" for h in EVALUATOR_ENTRIES[ev]))
            m[f"{ev}.calls"] = calls[ev]
            m[f"{ev}.self_s"] = sum(st[k] for k in set(members))
            for br, helpers in branches.items():
                m[f"{ev}.branch.{br}.calls"] = sum(calls[f"specfun.{h}"] for h in helpers)
        m["specfun.gauss_2f1.branch.pfaff.calls"] = c["specfun.gauss_2f1.branch.pfaff.calls"]
        m.update({
            "states.log_rho.calls": calls["states.log_rho"],
            "states.log_rho_cache.entries": sum(map(len, cache.values())) if cache else 0,
            "states.normalization.calls": calls["states.normalization"],
            "states.fock_vector.calls": calls["states.fock_vector"],
            "states.fock_vector.cutoff_sum": c["states.fock_vector.cutoff_sum"],
            "states.self_s": self._layer_self("states."),
            "states.errors": self.errors["states"],
            "photstat.pn_distribution.calls": calls["photstat.pn_distribution"],
            "photstat.pn_scan_terms": c["photstat->states.log_rho"],
            "photstat.self_s": self._layer_self("photstat."),
            "photstat.errors": self.errors["photstat"],
            "ladder.f_coeff.calls": calls["ladder.f_coeff"],
            "ladder.self_s": self._layer_self("ladder."),
            "phase.phase_distribution.calls": calls["phase.phase_distribution"],
            "phase.g_cells": c["phase.g_cells"],
            "phase.self_s": self._layer_self("phase."),
            "analytic.inner_product_via_measure.calls": calls["analytic.inner_product_via_measure"],
            "analytic.self_s": self._layer_self("analytic."),
            "cli.main.calls": calls["cli.main"],
            "cli.emit.self_s": st["cli.emit"],
            "cli.bytes_out": c["cli.bytes_out"],
        })
        if cache is None:
            self.absent.append("states._log_rho_cache")
        return m

    def write_spans(self, path) -> None:
        """Store the recorded spans (times relative to the first span)."""
        start = np.frombuffer(self._times["start"], dtype=float)
        origin = float(start.min()) if len(start) else 0.0
        names = sorted(self._names, key=self._names.get)
        np.savez_compressed(
            path, names=np.array(names),
            **{k: np.frombuffer(v, dtype=np.int64) for k, v in self._spans.items()},
            start=start - origin,
            end=np.frombuffer(self._times["end"], dtype=float) - origin,
        )


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _post_density(tr, name, args, kwargs, result):
    tr.density_points.add((name, *args, *sorted(kwargs.items())))


_POST = {
    "specfun.pfq": lambda tr, n, a, k, r: tr.counts.update({"specfun.pfq.terms": r.terms_used}),
    "states.fock_vector": lambda tr, n, a, k, r: tr.counts.update(
        {"states.fock_vector.cutoff_sum": r.cutoff}),
    "phase.g_coefficients": lambda tr, n, a, k, r: tr.counts.update(
        {"phase.g_cells": (_arg(a, k, 1, "n_cutoff") + 1) ** 2}),
    "weights.weight_tilde": _post_density,
    "weights._disk_density_om": _post_density,
}
