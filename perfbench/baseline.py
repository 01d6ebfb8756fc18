"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py --runs 10 --first-seed 101 --out perfbench/baseline.json

Each run is a fresh ``perfbench/run.py`` process; runs go round-robin over
the workloads so slow spells of the machine touch all of them.  For each
end-to-end metric the summary gives the median of the runs and the
spread, the distance between the first and third quartile as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.  With
``--traced`` it then makes one traced run per workload and adds the
per-layer table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "details": detail["details"], "environment": detail["environment"]}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median, quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for k in range(args.runs):
        for w in names:
            runs[w].append(run_once(w, args.first_seed + k, seconds, 0))
            r = runs[w][-1]["result"]
            print(f"{w} seed={args.first_seed + k} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)

    summary = {"environment": runs[names[0]][0]["environment"], "seconds": seconds,
               "seeds": [args.first_seed + k for k in range(args.runs)], "workloads": {}}
    unsteady = []  # "workload.metric" whose spread is a third of its bound or more
    print(f"{'workload':<8} {'metric':<20} {'median':>12} {'unit':<6} {'spread':>7} {'bound':>6}")
    for w in names:
        entry = {
            "correct": all(r["result"]["correct"] for r in runs[w]),
            "failed": sum(r["result"]["failed"] for r in runs[w]),
            "attempted": sum(r["result"]["attempted"] for r in runs[w]),
            "op_tail_percentile": runs[w][0]["details"]["op_tail_percentile"],
            "samples_per_run": [r["details"]["samples"] for r in runs[w]],
            "passes_per_run": [r["details"]["passes"] for r in runs[w]],
            "end_to_end": {},
        }
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            med, sp = spread(values)
            entry["end_to_end"][m["name"]] = {
                "median": med, "spread": sp, "bound": m["bound"], "unit": m["unit"], "values": values,
            }
            if sp >= m["bound"] / 3:
                unsteady.append(f"{w}.{m['name']}")
            print(f"{w:<8} {m['name']:<20} {med:>12.6g} {m['unit']:<6} {sp:>7.3f} {m['bound']:>6}")
        summary["workloads"][w] = entry

    if args.traced:
        for w in names:
            traced = run_once(w, args.first_seed, seconds, 1)
            layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            summary["workloads"][w]["per_layer"] = layers
            summary["workloads"][w]["trace_details"] = traced["details"]
            print(f"\n{w}: traced, overhead {layers['trace.overhead']:.3f}")
            for key, value in layers.items():
                if value:
                    print(f"  {key:<44} {value:>14.6g}")

    print(f"\nevery spread below a third of its bound: {not unsteady}")
    if unsteady:
        print("at a third of its bound or above: " + ", ".join(unsteady))
    summary["unsteady"] = unsteady
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
