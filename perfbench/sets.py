"""Run a set of benchmark runs, one per seed, and summarise or compare sets.

    python3 perfbench/sets.py run --seeds 1-10 --out perfbench/out/set-a.json
    python3 perfbench/sets.py run --workloads f2-online --seeds 1-5 --out perfbench/out/try.json
    python3 perfbench/sets.py compare perfbench/out/set-a.json perfbench/out/set-b.json

Each run is a fresh, untraced process of ``perfbench/run.py``, one after
another, for the ``run_seconds`` of ``BENCHMARK.json``.
For every end-to-end metric, ``run`` prints the median and quartiles over
the seeds and the spread, the interquartile distance as a share of the
median, against the metric's bound in ``BENCHMARK.json``.  ``compare``
prints how far the second set's medians moved from the first's, as a share
of the first, and whether the share of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_set(workloads, seeds) -> dict:
    """Untraced runs of ``run_seconds`` each, as ``BENCHMARK.json`` sets them."""
    seconds = spec()["run_seconds"]
    results: dict = {}
    for w in workloads:
        for s in seeds:
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                    "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                raise SystemExit(f"{w} seed {s}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(w, []).append({"seed": s} | result)
            print(f"{w} seed {s}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return results


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(results: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"] + spec()["per_layer"]}
    for w, runs in results.items():
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{w}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed/attempted {sorted(failed)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            tail = f"  bound {bound}  spread/bound {spread / bound:.2f}" if bound else ""
            print(f"  {name:28s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.2%}{tail}")


def compare(first: dict, second: dict) -> None:
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    for w in first:
        share = [{r["failed"] / r["attempted"] for r in s[w]} for s in (first, second)]
        print(f"\n{w}: failed share {sorted(share[0])} vs {sorted(share[1])}")
        for name in first[w][0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in first[w])
            b = statistics.median(r["metrics"][name]["value"] for r in second[w])
            worse = (b - a) / a if metrics[name]["better"] == "lower" else (a - b) / a
            bound = metrics[name]["bound"]
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            print(f"  {name:28s} {a:<14.6g} -> {b:<14.6g} worse by {worse:+7.2%} "
                  f"(bound {bound:.0%}) {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec()["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("show")
    p.add_argument("set")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        results = run_set(args.workloads.split(","), parse_seeds(args.seeds))
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
        summarise(results)
    elif args.cmd == "show":
        summarise(json.loads(Path(args.set).read_text()))
    else:
        compare(json.loads(Path(args.first).read_text()), json.loads(Path(args.second).read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
