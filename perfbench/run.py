"""Run one forestdom benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; forestdom is imported from its
``src/`` directory.  The run issues whole passes over the workload's ops,
one op at a time, until ``--seconds`` have passed, at least
``MIN_PASSES`` passes are done and at least ``MIN_SAMPLES`` ops were
issued, and checks every result.  With
``--trace 0`` it reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it and ``perfbench/out/`` hold the details.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, layer_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Passes a run makes at least; ops_per_s takes each op's median latency over them.
MIN_PASSES = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# Latency samples a run takes at least, so that p75 always leaves
# TAIL_BEYOND samples above it.
MIN_SAMPLES = 4 * TAIL_BEYOND
# A traced run makes at least two pairs of an untraced and a traced pass.
TRACED_MIN_PASSES = 4
# Fresh interpreters timed before the first pass and after every pass, so
# that setup_s samples the machine over the whole run.
SETUP_PER_PASS = 3

# A fresh interpreter imports the CLI and issues one tiny op of each kind
# the workloads use; setup_s is the time from spawn to exit.
SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import forestdom.cli
from forestdom import oracle
with contextlib.redirect_stdout(io.StringIO()):
    forestdom.cli.main(["eval", "2,1,1", "--json"])
list(oracle.enumerate_realizations((2, 1, 1), iso_dedup=True))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_forestdom() -> None:
    """Import forestdom from this checkout's src/, or exit non-zero."""
    if not (SRC / "forestdom" / "__init__.py").is_file():
        fail(f"no forestdom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import forestdom

    if Path(forestdom.__file__).resolve().parent != (SRC / "forestdom").resolve():
        fail(f"imported forestdom from {forestdom.__file__}, not from {SRC}")


@dataclass
class Pass:
    traced: bool
    latency: list[float] = field(default_factory=list)  # per op, seconds
    failures: dict[int, str] = field(default_factory=dict)  # op index -> reason
    attained: list[bool] = field(default_factory=list)
    busy: float = 0.0  # summed op latency
    spans: tuple[int, int] = (0, 0)


def run_pass(workload, tracer=None) -> Pass:
    """Issue every op once, timing the call alone and checking its result."""
    clock = time.perf_counter
    rec = Pass(traced=tracer is not None)
    facts = {}
    lo = len(tracer) if tracer is not None else 0
    with tracer if tracer is not None else contextlib.nullcontext():
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            rec.latency.append(clock() - t0)
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    attained, facts[i] = op.check(result)
                    if attained is not None:
                        rec.attained.append(attained)
                except Exception as exc:  # CheckFailed, or a malformed payload
                    error = f"check {type(exc).__name__}: {exc}"
            if error is not None:
                rec.failures[i] = f"{op.label[:60]}: {error}"
            result = None
    rec.failures.update(workload.pass_check(facts))
    rec.busy = sum(rec.latency)
    rec.spans = (lo, len(tracer) if tracer is not None else 0)
    return rec


def run_passes(workload, seconds: float, tracer=None, after_pass=None) -> list[Pass]:
    """Whole passes until `seconds` have passed and enough passes are done.

    Traced runs alternate untraced and traced passes and end on a whole
    pair, so the overhead compares passes made under the same machine
    conditions.
    ``after_pass`` is called between passes, off the clock of every op.
    """
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, tracer if traced else None))
        if after_pass is not None:
            after_pass()
        if tracer is not None:
            enough = len(passes) >= TRACED_MIN_PASSES and len(passes) % 2 == 0
        else:
            enough = len(passes) >= MIN_PASSES and len(passes) * len(workload.ops) >= MIN_SAMPLES
        if enough and time.perf_counter() >= deadline:
            return passes


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile that leaves TAIL_BEYOND of the latency
    samples above it, or the median when none does."""
    fits = [p for p in TAIL_LADDER if samples * (100.0 - p) / 100.0 >= TAIL_BEYOND]
    return fits[-1] if fits else TAIL_LADDER[0]


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(len * pct / 100)
    return ordered[int(rank) - 1]


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to it being ready, `samples` times."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(workload, passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    m = len(workload.ops)
    samples = [t for p in passes for t in p.latency]
    attempted = len(samples)
    failed = sum(len(p.failures) for p in passes)
    attained = [a for p in passes for a in p.attained]
    # For the rate, each op's latency is first reduced to its median over
    # the run's passes, so a slow moment of a shared machine moves one
    # sample of one op rather than the rate.  The percentiles are taken
    # over every sample.
    typical = [statistics.median(p.latency[i] for p in passes) for i in range(m)]
    pct = tail_percentile(attempted)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": m / sum(typical),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": nearest_rank(samples, pct) * 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gamma_attained_frac": sum(attained) / len(attained) if attained else 0.0,
    }
    details = {
        "passes": len(passes),
        "ops_per_pass": m,
        "samples": attempted,
        "op_tail_percentile": pct,
        "samples_beyond_tail": sum(t * 1e3 > metrics["op_tail_ms"] for t in samples),
        "gamma_attained_base": len(attained),
        "pass_busy_s": [p.busy for p in passes],
        "op_median_ms": {workload.ops[i].label: typical[i] * 1e3 for i in range(m)},
    }
    return metrics, details


def per_layer(passes: list[Pass], tracer) -> tuple[dict, dict]:
    """Per-layer metrics: median over traced passes of each pass's value."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    stats = [layer_stats(tracer, *p.spans) for p in traced]
    metrics = {key: statistics.median(s[key] for s in stats) for key in stats[0]}
    # each traced pass against the untraced pass just before it
    metrics["trace.overhead"] = statistics.median(t.busy / u.busy for u, t in zip(plain, traced))
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "traced_busy_s": [p.busy for p in traced],
        "untraced_busy_s": [p.busy for p in plain],
        "spans": len(tracer),
    }
    return metrics, details


def environment(args) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
            cpu = models[0] if models else cpu
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "forestdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    load_forestdom()
    import workloads as wl  # imports forestdom, so only after load_forestdom

    env = environment(args)
    if not args.trace:
        measure_setup(1)  # the first spawn also compiles bytecode; users pay that once
        setup_samples = measure_setup(SETUP_PER_PASS)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        gc.freeze()  # keep the benchmark's own inputs out of the collector's scans
        tracer = Tracer() if args.trace else None
        more_setup = None if args.trace else lambda: setup_samples.extend(measure_setup(SETUP_PER_PASS))
        passes = run_passes(workload, args.seconds, tracer, more_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics, details = per_layer(passes, tracer)
        listed = spec["per_layer"]
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(str(trace_path))
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics, details = end_to_end(workload, passes, statistics.median(setup_samples))
        details["setup_samples_s"] = setup_samples
        listed = spec["end_to_end"]
    failures = [msg for p in passes for msg in p.failures.values()]
    attempted = sum(len(p.latency) for p in passes)
    report = {
        "environment": env,
        "details": details,
        "failures": failures[:20],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    if tracer is not None:
        report["all_layer_stats"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )

    print(json.dumps({"environment": env}))
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"ops={attempted} failed={len(failures)}")
    for key, value in details.items():
        if not isinstance(value, (dict, list)):
            print(f"  {key} = {value}")
    for m in listed:
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    for msg in failures[:5]:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
