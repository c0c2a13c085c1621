"""ghcs benchmark: run a workload and report its metrics.

    python3 bench/run.py --workload {moments,states,figures,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (bench/worker.py), so the module-level caches of ghcs
start empty each time, as they do for a command-line user.  Passes repeat,
each on its own seeded operation list, until S seconds have gone by and at
least MIN_OPS operations were timed.

--trace 0 prints the end-to-end metrics (timings are medians over passes
or pooled operations), --trace 1 the per-layer metrics of the traced
passes and the outcome of the known-defect probe.  Human-readable lines
come first; the last line of stdout is one JSON object {correct,
attempted, failed, metrics}.  An operation fails when it raises, returns
an overflowed (non-finite) value or misses one of its correctness gates
(ok_frac is 1 minus the failed share).  The drawn inputs keep clear of
the regions where the base commit fails; those inputs form the fixed
known-defect probe of the traced run (workloads.known_defects), whose
failures are reported as defects.failed and not counted in `failed`.
`correct` is false when an emitted figure differs from the values
recorded in figures_ref.json or, with tracing, when two traced passes of
the same seed disagree on a work count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("moments", "states", "figures")
SETUP_PROBES = 5
MIN_OPS = 100
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list, deadline: float) -> dict:
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run set-up probes and passes; return the raw per-pass results.

    Untraced pass k draws its own operation list (pass index k).  A traced
    run makes pass 0 untraced and then traced, at least twice and until
    `seconds` have passed, so the tracing overhead and the repeatability of
    the work counts are measured on identical inputs."""
    start = time.monotonic()
    deadline = start + TIMEOUT_S
    setups = [_worker(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    base = ["--workload", workload, "--seed", str(seed)]
    plain, traced, defects = [], [], None
    if trace:
        defects = _worker(["--workload", workload, "--defects"], deadline)
        plain.append(_worker(base, deadline))
        while len(traced) < 2 or time.monotonic() - start < seconds:
            traced.append(_worker(base + ["--trace"], deadline))
    else:
        while (time.monotonic() - start < seconds
               or sum(len(p["ops"]) for p in plain) < MIN_OPS):
            plain.append(_worker(base + ["--pass-index", str(len(plain))], deadline))
    setups += [p["setup_s"] for p in plain + traced]
    return {"setups": setups, "plain": plain, "traced": traced, "defects": defects}


def _machine() -> str:
    import numpy

    threads = " ".join(f"{v}={_child_env()[v]}" for v in THREAD_VARS)
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} {platform.machine()} (set for workers: {threads})")


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def summarize(workload: str, raw: dict) -> dict:
    """End-to-end metrics, failure table and input shares of one run."""
    passes = raw["plain"] + raw["traced"]
    plain_ops = [op for p in raw["plain"] for op in p["ops"]]
    lat = [op[2] for op in plain_ops]
    failed = [op for p in passes for op in p["ops"] if op[3] != "ok"]
    attempted = sum(len(p["ops"]) for p in passes)
    metrics = {
        "setup_s": (statistics.median(raw["setups"]), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in raw["plain"]), "s"),
        "op_p50_ms": (_ms(statistics.median(lat)), "ms"),
        "op_p90_ms": (_ms(statistics.quantiles(lat, n=10)[8]), "ms"),
        "ok_frac": (1.0 - len(failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in raw["plain"]), "MB"),
    }
    groups = {}
    for op in plain_ops:
        if op[3] != "ok":
            family = op[1].split()[0] if op[0] in ("moment_check", "state_job") else ""
            groups.setdefault((op[0], family, op[4]), []).append(op[1])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failed),
        "mismatches": [op for op in failed if op[3] == "mismatch"],
        "failures": groups,
        "samples": {"setup_s": len(raw["setups"]), "wall_s": len(raw["plain"]),
                    "op_p50_ms": len(lat), "op_p90_ms": len(lat),
                    "ok_frac": attempted, "peak_rss_mb": len(raw["plain"])},
        "shares": shares([pr for p in raw["plain"] for pr in p["props"]]),
        "per_op": per_op(workload, raw["plain"]),
    }


def shares(props: list) -> dict:
    """Share of the draws that have each input property."""
    out = {}
    plane = [p for p in props if p.get("plane")]
    if plane:
        out["plane draws with |z| >= 18"] = sum(p["absz_ge_18"] for p in plane) / len(plane)
        out["plane draws with |z| >= 27"] = sum(p["absz_ge_27"] for p in plane) / len(plane)
    if any("circle" in p for p in props):
        out["circle-state share"] = sum(p.get("circle", False) for p in props) / len(props)
    f11 = [p for p in props if "f11_amb_ge_4" in p]
    if f11:
        out["seeded F11 draws with a-b >= 4"] = sum(p["f11_amb_ge_4"] for p in f11) / len(f11)
    return out


def per_op(workload: str, plain: list) -> list:
    """Median time of the calls that ROADMAP's re-anchor table names."""
    def med(pred):
        vals = [op[2] for p in plain for op in p["ops"] if pred(op)]
        return statistics.median(vals) if vals else None

    rows = []
    if workload == "moments":
        verify = [sum(op[2] for op, pr in zip(p["ops"], p["props"]) if pr.get("verify_set"))
                  for p in plain]
        rows.append(("verify moments (11 sets)", statistics.median(verify)))
        for label in ("F11 (4;2)", "F21 (3,3;2)", "F01 (;0.2)", "F01 (;1)", "F01 (;5)"):
            rows.append((f"moment_check {label}",
                         med(lambda op: op[0] == "moment_check" and op[1] == label)))
    elif workload == "figures":
        for lo, hi in ((30, 80), (150, 260), (700, 900)):
            rows.append((f"phase_distribution cutoff {lo}-{hi}",
                         med(lambda op: op[0] == "phase_distribution"
                             and lo <= int(op[1].split()[2]) <= hi)))
        rows.append(("g_coefficients('Q', 2048)",
                     med(lambda op: op[0] == "g_coefficients" and op[1] == "Q")))
        rows.append(("figure 1..13 (each, median)", med(lambda op: op[0] == "figure")))
    return rows


def layer_metrics(raw: dict) -> tuple:
    """Per-layer metrics of the traced passes and whether counts repeat."""
    runs = [p["layers"] for p in raw["traced"]]
    counts_equal = all(
        r[k] == runs[0][k] for r in runs[1:] for k in runs[0] if not k.endswith("_s")
    )
    out = {}
    for k in runs[0]:
        vals = [r[k] for r in runs]
        out[k] = statistics.median(vals) if k.endswith("_s") else vals[0]
    untraced = statistics.median(p["wall_s"] for p in raw["plain"])
    traced = statistics.median(p["wall_s"] for p in raw["traced"])
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    return out, counts_equal


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    return "ratio" if name.endswith("_frac") else "count"


def report(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload, print its human-readable report and return
    (correct, attempted, failed, {metric: (value, unit)})."""
    raw = collect(workload, seed, seconds, trace)
    s = summarize(workload, raw)
    print(f"ghcs benchmark  workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"machine: {_machine()}")
    print(f"closed loop, one process, one thread; {len(raw['plain'])} untraced and "
          f"{len(raw['traced'])} traced passes of {len(raw['plain'][0]['ops'])} operations, "
          f"each in a fresh interpreter")
    for name, (value, unit) in s["metrics"].items():
        print(f"  {name:<12} {value:>12.6g} {unit:<5} (n={s['samples'][name]})")
    print(f"  {'fail_frac':<12} {s['failed'] / s['attempted']:>12.6g}       "
          f"({s['failed']} of {s['attempted']}; ok_frac = 1 - fail_frac)")
    for (kind, family, detail), labels in sorted(s["failures"].items()):
        print(f"  failed x{len(labels)}: {kind} {family} {detail}  e.g. {'; '.join(labels[:3])}")
    for op in s["mismatches"][:10]:
        print(f"  MISMATCH with recorded values: {op[0]} {op[1]}: {op[4]}")
    for k, v in s["shares"].items():
        print(f"  share: {k}: {v:.3f}")
    for k, v in s["per_op"]:
        print(f"  call: {k}: " + ("n/a" if v is None else f"{_ms(v):.1f} ms"))
    correct = not s["mismatches"]
    if not trace:
        return correct, s["attempted"], s["failed"], s["metrics"]
    metrics, counts_equal = layer_metrics(raw)
    absent = sorted({n for p in raw["traced"] for n in p["absent"]})
    if absent:
        print(f"  absent (metrics read 0): {', '.join(absent)}")
    print(f"  work counts identical across {len(raw['traced'])} traced passes: {counts_equal}")
    print(f"  traced pass peak RSS: {max(p['rss_mb'] for p in raw['traced']):.1f} MB")
    known = raw["defects"]["ops"]
    metrics["defects.failed"] = sum(op[3] != "ok" for op in known)
    print(f"  known-defect probe: {metrics['defects.failed']} of {len(known)} fixed inputs fail")
    for op in known:
        print(f"  known defect: {op[0]} {op[1]}: "
              + ("passes now" if op[3] == "ok" else f"fails ({op[3]}: {op[4]})"))
    for k, v in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {_unit(k)}")
    return (correct and counts_equal, s["attempted"], s["failed"],
            {k: (v, _unit(k)) for k, v in metrics.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="'all' runs the three workloads and ends with a table")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ghcs" / "__init__.py").is_file():
        print(f"bench: no ghcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metric_names = list(results[names[0]][3])
        print(f"\n{'metric':<44} {'unit':<6}" + "".join(f"{n:>14}" for n in names))
        for m in metric_names:
            print(f"{m:<44} {results[names[0]][3][m][1]:<6}"
                  + "".join(f"{results[n][3][m][0]:>14.6g}" for n in names))
        metrics = {f"{n}.{m}": v for n in names for m, v in results[n][3].items()}
    else:
        metrics = results[args.workload][3]
    print(json.dumps({
        "correct": all(r[0] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
