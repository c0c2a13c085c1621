"""Record the reference digests of figures 1..13 into figures_ref.json.

    python3 bench/record_figures.py

The figures workload compares every figure it emits against these
values.  Re-record only when a change to the figures is intended, and
say so in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ghcs import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    refs = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for k in range(1, 14):
            path = Path(tmp) / f"figure{k}.json"
            if cli.main(["figure", str(k), "--out", str(path)]) != cli.EXIT_OK:
                raise SystemExit(f"figure {k} failed")
            refs[str(k)] = workloads.figure_digest(json.loads(path.read_text()))
    workloads.FIGURE_REF.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
