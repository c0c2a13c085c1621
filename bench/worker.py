"""One pass of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --pass-index K [--trace]
    python3 bench/worker.py --workload NAME --defects
    python3 bench/worker.py --setup-only

Measures set-up (import ghcs plus cli.build_parser), builds the seeded
operation list, runs it in a closed loop on one thread (each operation
starts after the previous one returned), checks every result and prints
one JSON object on stdout.  With --trace every public ghcs function is
wrapped by spans.Tracer and the per-layer figures are added.  With
--defects the fixed known-defect inputs of the workload run instead.
"""

import sys
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ghcs  # noqa: E402,F401
from ghcs import cli  # noqa: E402

cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import resource  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


def run_pass(workload: str, seed: int, pass_index: int, traced: bool,
             defects: bool = False) -> dict:
    import workloads

    ops = workloads.build(workload, seed, pass_index, OUT_DIR, defects)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    check_s = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        steps = []
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = op.run(steps)
        except Exception as exc:  # the failure is the measurement
            dt = time.perf_counter() - t0
            step = steps[-1] if steps else "?"
            records.append([op.kind, op.label, dt, "raised", f"{step}: {type(exc).__name__}"])
            continue
        dt = time.perf_counter() - t0
        t1 = time.perf_counter()
        miss = op.check(result)
        check_s += time.perf_counter() - t1
        if miss is None:
            status = "ok"
        elif miss.startswith(workloads.NONFINITE):
            status = "nonfinite"
        else:
            status = "mismatch" if op.recorded else "gate"
        records.append([op.kind, op.label, dt, status, miss or ""])
        if tracer and "bytes_path" in op.props:
            tracer.counts["cli.bytes_out"] += Path(op.props["bytes_path"]).stat().st_size
    wall = time.perf_counter() - start - check_s
    out = {
        "setup_s": SETUP_S,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
        "props": [op.props for op in ops],
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent
        tracer.write_spans(OUT_DIR / f"spans-{workload}-{seed}.npz")
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--defects", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        out = {"setup_s": SETUP_S}
    else:
        out = run_pass(args.workload, args.seed, args.pass_index, args.trace, args.defects)
    sys.stdout.write(json.dumps(out, default=str) + "\n")


if __name__ == "__main__":
    main()
