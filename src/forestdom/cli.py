"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 verification mismatch,
3 enumeration size cap exceeded, 130 interrupted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from typing import Callable

from .construct import extremal_build
from .degseq import DegreeSequence, SequenceStats, validate
from .forest import read_forest, write_forest
from .formulas import _values, extremal_values
from .oracle import (
    DEFAULT_SIZE_CAP,
    DEFAULT_SWEEP_MAX_N,
    SizeCapExceededError,
    empirical_extremes,
    swap_search_gamma,
    sweep_sequences,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3
EXIT_INTERRUPTED = 130  # the shell's 128 + SIGINT


@contextmanager
def _exact_ints():
    """Print exact counts in full: labelled counts can pass the digit
    limit that CPython 3.11+ puts on int-to-str conversion.  The limit
    is lifted only while output is written, so input parsing keeps it,
    and it is restored before control returns to the caller."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit(args, payload: dict, human: Callable[[], list[str]]) -> None:
    """Print the payload as JSON, or else the lines ``human()`` builds;
    they are built only when they are printed."""
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human():
            print(line)


def _sequence_payload(seq: DegreeSequence) -> dict:
    stats = validate(seq)
    values = _values(stats)
    return {
        "sequence": list(seq.degrees),
        "n": stats.n,
        "n0": stats.n0,
        "n1": stats.n1,
        "n_ge2": stats.n_ge2,
        "c": stats.c,
        "branch": values.branch.value,
        "gamma_max": values.gamma_max,
        "alpha_min": values.alpha_min,
    }


def cmd_eval(args) -> int:
    seq = DegreeSequence.parse(args.sequence)
    payload = _sequence_payload(seq)
    _emit(
        args,
        payload,
        lambda: [
            "n={n} n0={n0} n1={n1} n_ge2={n_ge2} c={c} branch={branch} "
            "gamma_max={gamma_max} alpha_min={alpha_min}".format(**payload)
        ],
    )
    return EXIT_OK


def cmd_build(args) -> int:
    seq = DegreeSequence.parse(args.sequence)
    cert = extremal_build(seq)
    write_forest(cert.forest, args.out)
    payload = {
        "sequence": list(seq.degrees),
        "out": args.out,
        "branch": cert.branch.value,
        "gamma": cert.gamma,
        "expected_gamma_max": cert.expected_gamma_max,
        "alpha": cert.alpha,
        "expected_alpha_min": cert.expected_alpha_min,
    }
    ok = (
        cert.gamma == cert.expected_gamma_max
        and cert.alpha == cert.expected_alpha_min
    )
    payload["match"] = ok
    _emit(
        args,
        payload,
        lambda: [
            f"wrote {args.out}",
            f"gamma={cert.gamma} expected={cert.expected_gamma_max}",
            f"alpha={cert.alpha} expected={cert.expected_alpha_min}",
            "certificate " + ("matches" if ok else "MISMATCH"),
        ],
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_solve(args) -> int:
    forest = read_forest(args.path)
    gamma, gamma_set = forest.domination_number()
    alpha, alpha_set = forest.independence_number()
    seq = forest.degree_sequence()
    # validate refuses the empty sequence; the empty forest's counts are 0
    stats = validate(seq) if forest.n else SequenceStats(0, 0, 0, 0, 0, 0, 0)
    values = _values(stats)
    payload = {
        "n": forest.n,
        "edge_count": len(forest.edges),
        "degree_sequence": list(seq.degrees),
        "gamma": gamma,
        "gamma_witness": sorted(gamma_set),
        "alpha": alpha,
        "alpha_witness": sorted(alpha_set),
        "gamma_max": values.gamma_max,
        "alpha_min": values.alpha_min,
    }
    _emit(
        args,
        payload,
        lambda: [
            f"n={forest.n} edges={len(forest.edges)}",
            f"degree_sequence={seq}",
            f"gamma={gamma} witness={payload['gamma_witness']}",
            f"alpha={alpha} witness={payload['alpha_witness']}",
            f"gamma_max={values.gamma_max} alpha_min={values.alpha_min}",
        ],
    )
    return EXIT_OK


def _verify_payload(seq: DegreeSequence, cap: int) -> dict:
    report = empirical_extremes(seq, cap=cap)
    values = extremal_values(seq)
    return {
        "sequence": list(seq.degrees),
        "labeled": report.realization_count_labeled,
        "iso": report.realization_count_iso,
        "gamma_max_empirical": report.gamma_max,
        "gamma_max_formula": values.gamma_max,
        "gamma_min_empirical": report.gamma_min,
        "alpha_min_empirical": report.alpha_min,
        "alpha_min_formula": values.alpha_min,
        "alpha_max_empirical": report.alpha_max,
        "match": report.gamma_max == values.gamma_max
        and report.alpha_min == values.alpha_min,
    }


def _verify_lines(payload: dict) -> list[str]:
    return [
        "sequence={} labeled={} iso={}".format(
            ",".join(str(d) for d in payload["sequence"]),
            payload["labeled"],
            payload["iso"],
        ),
        "gamma_max empirical={} formula={}".format(
            payload["gamma_max_empirical"], payload["gamma_max_formula"]
        ),
        "alpha_min empirical={} formula={}".format(
            payload["alpha_min_empirical"], payload["alpha_min_formula"]
        ),
        "verdict " + ("match" if payload["match"] else "MISMATCH"),
    ]


def _checked_cap(cap: int) -> int:
    if cap < 0:
        raise ValueError(f"--cap must be non-negative, got {cap}")
    return cap


def ProcessPoolExecutor(*args, **kwargs):
    """The pool ``sweep --parallel`` runs on.  ``concurrent.futures`` and
    the multiprocessing stack under it are imported here, on the first
    pool, so a process that never starts one does not load them."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(*args, **kwargs)


def _worker_count(requested: int) -> int:
    """Worker processes for ``sweep --parallel``: 1 up to the CPU count."""
    if requested < 1:
        raise ValueError(f"--parallel must be at least 1, got {requested}")
    return min(requested, os.cpu_count() or 1)


def cmd_verify(args) -> int:
    cap = _checked_cap(args.cap)
    seq = DegreeSequence.parse(args.sequence)
    payload = _verify_payload(seq, cap)
    with _exact_ints():
        _emit(args, payload, lambda: _verify_lines(payload))
    return EXIT_OK if payload["match"] else EXIT_MISMATCH


def cmd_sweep(args) -> int:
    cap = _checked_cap(args.cap)
    workers = _worker_count(args.parallel)
    # sweep sequences are zero-free and there is one of every length from
    # 3 up, so this is the first length the cap rejects
    too_long = max(3, cap + 1)
    if args.max_n >= too_long:
        raise SizeCapExceededError(
            f"positive part has {too_long} entries, cap is {cap}"
        )
    sequences = list(sweep_sequences(args.max_n))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _verify_payload,
                    sequences,
                    [cap] * len(sequences),
                    chunksize=max(1, len(sequences) // (4 * workers)),
                )
            )
    else:
        results = [_verify_payload(seq, cap) for seq in sequences]
    mismatches = sum(not r["match"] for r in results)
    payload = {"checked": len(results), "mismatches": mismatches, "results": results}
    _emit(
        args,
        payload,
        lambda: [
            "{} gamma_max {}={} alpha_min {}={} {}".format(
                ",".join(str(d) for d in r["sequence"]),
                r["gamma_max_empirical"],
                r["gamma_max_formula"],
                r["alpha_min_empirical"],
                r["alpha_min_formula"],
                "ok" if r["match"] else "MISMATCH",
            )
            for r in results
        ]
        + [f"checked {len(results)} sequences, {mismatches} mismatches"],
    )
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_swap_search(args) -> int:
    seq = DegreeSequence.parse(args.sequence)
    forest = swap_search_gamma(seq, restarts=args.restarts, seed=args.seed)
    gamma, _ = forest.domination_number()
    values = extremal_values(seq)
    if args.out:
        write_forest(forest, args.out)
    payload = {
        "sequence": list(seq.degrees),
        "gamma_found": gamma,
        "gamma_max": values.gamma_max,
        "attained": gamma == values.gamma_max,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    if args.out:
        payload["out"] = args.out
    _emit(
        args,
        payload,
        lambda: [
            f"gamma_found={gamma} gamma_max={values.gamma_max} "
            f"attained={str(payload['attained']).lower()}"
        ]
        + ([f"wrote {args.out}"] if args.out else []),
    )
    # exceeding the proven maximum would mean a defect somewhere
    return EXIT_OK if gamma <= values.gamma_max else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by
    every ``main`` call.  It holds no handlers and no state from a parse:
    ``main`` looks the handler up by name, and each parse fills a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="forestdom",
        description=(
            "Extremes of domination and independence numbers over all "
            "forests with a given degree sequence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("eval", "evaluate the closed forms for a sequence")
    p.add_argument("sequence", help="degrees, e.g. '3,2,1,1,1' or '3 2 1 1 1'")

    p = add("build", "build a realization attaining both extremes")
    p.add_argument("sequence")
    p.add_argument("out", help="output forest file (JSON format)")

    p = add("solve", "solve an existing forest file exactly")
    p.add_argument("path")

    p = add("verify", "compare formulas against full enumeration")
    p.add_argument("sequence")
    p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)

    p = add("sweep", "verify every admissible sequence up to max-n")
    p.add_argument("--max-n", type=int, default=DEFAULT_SWEEP_MAX_N)
    p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument(
        "--parallel", type=int, default=1, help="worker processes (capped at CPU count)"
    )

    p = add("swap-search", "heuristic hill-climb on gamma")
    p.add_argument("sequence")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the best forest here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a handler rebound on the module still runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except SizeCapExceededError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CAP
    # the last two: CPython's size checks refuse an oversize vertex count
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        reason = str(exc)
        if not reason and isinstance(exc, MemoryError):
            reason = "out of memory"  # CPython's own MemoryError has no text
        print(f"error: {type(exc).__name__}: {reason}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
