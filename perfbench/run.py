"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload f2-offline --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; a line before the result holds the workload's own
figures (untraced) or every per-layer figure and the per-phase breakdown
(traced).  A run record (per-round timings, failures and those figures) is
written under ``perfbench/out/``, and a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One thread: pin any BLAS or OpenMP pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "inkspread" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT,
                           spans=OUT / f"spans-{args.workload}.npz" if args.trace else None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        print(json.dumps({"layers": record["layers"], "breakdown": record["breakdown"],
                          "residual_s": record["residual_s"],
                          "trace_overhead_s": record["trace_overhead_s"]}))
    else:
        print(json.dumps({"figures": record["figures"]}))
    if record["errors"]:
        print(json.dumps({"errors": record["errors"]}))
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u}
                    for k, u in units.items() if k in record["metrics"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
