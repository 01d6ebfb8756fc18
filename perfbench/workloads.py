"""The benchmark workloads, their ops and their output checks.

Each workload is a list of ops that one caller issues in order, the next
only after the previous one returned (a closed loop with one client); a
pass issues every op once.  An op calls forestdom only through public
entry points: ``forestdom.cli.main(argv)`` in-process, or a public
library function.  Names are looked up on the module at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from forestdom import cli, forest, formulas, oracle

from checks import (
    check_dominating,
    check_forest_file,
    check_independent,
    check_internal_domination,
    cli_payload,
    is_tree_sequence,
    require,
    cayley_mismatches,
    tree_count_mismatches,
)
from inputs import (
    SequenceSpec,
    forest_degrees,
    forest_sequences,
    random_forest_edges,
    random_tree_edges,
)

# certify: large inputs on the linear paths.  The B and K2 builds have
# many components (c = 1800 and c = 1499), which is where extremal_build
# peels one component at a time.
EVAL_SPEC = SequenceSpec(n_ge2=400_000, n1=600_000, c=2000)
BUILD_SPECS = {
    "A": SequenceSpec(n_ge2=30_000, n1=70_000, c=3),
    "C": SequenceSpec(n_ge2=60_000, n1=40_000, c=100),
    "B-many": SequenceSpec(n_ge2=2400, n1=3600, c=1800),
    "K2-many": SequenceSpec(n_ge2=2, n1=3000, c=1499),
}
SOLVE_N, SOLVE_COMPONENTS = 100_000, 1000
IDOM_N = 2000

# oracle: every sequence up to these orders, in three groups of ops
VERIFY_MAX_N = 10
ISO_MAX_N = 14
SWAP_MAX_N = 7
SWAP_RESTARTS = 20


@dataclass
class Op:
    """One call into forestdom and the check of its result.

    ``check`` raises CheckFailed on a wrong result.  Otherwise it returns
    whether the result reached the closed-form gamma_max and a fact for
    the pass check.  The flag is None for ops that build no
    gamma-maximising forest of their own, so gamma_attained_frac counts
    only the builds on certify and only the swap searches on oracle.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[Optional[bool], Any]]


@dataclass
class Workload:
    ops: list[Op]
    # Pass-level check: given {op index: fact}, returns {op index: reason}
    # for the ops whose facts disagree with a count known from outside.
    pass_check: Callable[[dict], dict] = field(default=lambda facts: {})


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``forestdom.cli.main(argv)`` and capture its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _text(degrees) -> str:
    return ",".join(map(str, degrees))


# ----------------------------------------------------------------------
# certify


def _eval_op(degrees: list[int], spec: SequenceSpec) -> Op:
    argv = ["eval", _text(degrees), "--json"]

    def check(result):
        p = cli_payload(result)
        got = (p["n"], p["n0"], p["n1"], p["n_ge2"], p["c"], p["branch"])
        want = (spec.n, 0, spec.n1, spec.n_ge2, spec.c, spec.branch)
        require(got == want, f"eval reports {got}, expected {want}")
        return None, None

    return Op("eval", lambda: run_cli(argv), check)


def _build_op(label: str, degrees: list[int], spec: SequenceSpec, out: str) -> Op:
    argv = ["build", _text(degrees), out, "--json"]

    def check(result):
        p = cli_payload(result)
        require(p["match"] is True, "certificate does not match the closed forms")
        require(p["branch"] == spec.branch, f"branch {p['branch']}, expected {spec.branch}")
        check_forest_file(out, degrees, spec.c)
        return p["gamma"] == p["expected_gamma_max"], None

    return Op(f"build:{label}", lambda: run_cli(argv), check)


def _solve_op(edges: list[tuple[int, int]], path: str, n: int) -> Op:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    want_degrees = sorted(degree, reverse=True)
    argv = ["solve", path, "--json"]

    def check(result):
        p = cli_payload(result)
        require(p["n"] == n and p["edge_count"] == len(edges), "solve reports another forest")
        require(p["degree_sequence"] == want_degrees, "solve reports another degree sequence")
        check_dominating(n, edges, p["gamma_witness"], p["gamma"])
        check_independent(n, edges, p["alpha_witness"], p["alpha"])
        require(p["gamma"] <= p["gamma_max"], "gamma above gamma_max")
        require(p["alpha"] >= p["alpha_min"], "alpha below alpha_min")
        return None, None

    return Op("solve", lambda: run_cli(argv), check)


def _internal_domination_op(edges: list[tuple[int, int]], n: int) -> Op:
    def call():
        return forest.Forest(n, edges).internal_dominating_set()

    def check(result):
        check_internal_domination(n, edges, result)
        return None, None

    return Op("internal_dominating_set", call, check)


def certify(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops = [_eval_op(forest_degrees(rng, EVAL_SPEC), EVAL_SPEC)]
    for label, spec in BUILD_SPECS.items():
        out = os.path.join(workdir, f"build-{label}.json")
        ops.append(_build_op(label, forest_degrees(rng, spec), spec, out))
    edges = random_forest_edges(rng, SOLVE_N, SOLVE_COMPONENTS)
    path = os.path.join(workdir, "solve.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": SOLVE_N, "edges": [[u, v] for u, v in edges]}, handle)
    ops.append(_solve_op(edges, path, SOLVE_N))
    ops.append(_internal_domination_op(random_tree_edges(rng, IDOM_N), IDOM_N))
    return Workload(ops)


# ----------------------------------------------------------------------
# oracle: verify, isomorphism classes and swap search in one shuffled pass


def _verify_op(degrees: tuple[int, ...]) -> Op:
    argv = ["verify", _text(degrees), "--json"]

    def check(result):
        p = cli_payload(result)
        require(tuple(p["sequence"]) == degrees, "verify reports another sequence")
        require(p["match"] is True, "formula and enumeration disagree")
        require(p["labeled"] >= p["iso"] >= 1, "impossible realization counts")
        return None, p["labeled"]

    return Op(f"verify:{_text(degrees)}", lambda: run_cli(argv), check)


def _fact_check(sequences: dict[int, tuple[int, ...]], mismatches: Callable[[dict], list[int]]):
    """Pass check over the ops at the given indices, one per sequence:
    fails the tree-sequence ops of every order n whose summed facts
    disagree with the outside count."""

    def pass_check(facts: dict) -> dict:
        if any(i not in facts for i in sequences):
            return {}  # an op already failed; the counts cannot be summed
        bad = mismatches({seq: facts[i] for i, seq in sequences.items()})
        return {
            i: f"tree counts of order {len(seq)} disagree with the known total"
            for i, seq in sequences.items()
            if len(seq) in bad and is_tree_sequence(seq)
        }

    return pass_check


def _iso_op(degrees: tuple[int, ...]) -> Op:
    want = sorted(degrees)
    gamma_max = formulas.gamma_max(degrees)

    def call():
        return list(oracle.enumerate_realizations(degrees, iso_dedup=True))

    def check(forests):
        require(len(forests) >= 1, "no realization listed")
        for f in forests:
            require(f.n == len(degrees), "realization of another order")
            require(sorted(len(nb) for nb in f.adj) == want, "realization of another sequence")
        found = max(f.domination_number()[0] for f in forests)
        require(found == gamma_max, f"largest domination number {found}, closed form {gamma_max}")
        return None, len(forests)

    return Op(f"iso:{_text(degrees)}", call, check)


def _swap_op(degrees: tuple[int, ...], seed: int) -> Op:
    """Every pass searches with the same seed, so passes repeat the same work."""
    argv = ["swap-search", _text(degrees), "--restarts", str(SWAP_RESTARTS), "--seed", str(seed), "--json"]

    def check(result):
        p = cli_payload(result)
        require(tuple(p["sequence"]) == degrees, "swap-search reports another sequence")
        require(p["gamma_found"] <= p["gamma_max"], "gamma_found above gamma_max")
        require(p["attained"] == (p["gamma_found"] == p["gamma_max"]), "inconsistent attained flag")
        return p["attained"], None

    return Op(f"swap:{_text(degrees)}", lambda: run_cli(argv), check)


def oracle_mix(seed: int, workdir: str) -> Workload:
    """verify on every sequence with n <= 10, one forest per isomorphism
    class for every sequence with n <= 14, and swap-search on every
    sequence with n <= 7, shuffled into one order."""
    rng = random.Random(seed)
    ops = [("verify", seq, _verify_op(seq)) for seq in forest_sequences(VERIFY_MAX_N)]
    ops += [("iso", seq, _iso_op(seq)) for seq in forest_sequences(ISO_MAX_N)]
    ops += [("swap", seq, _swap_op(seq, rng.randrange(2**31))) for seq in forest_sequences(SWAP_MAX_N)]
    rng.shuffle(ops)

    def group(kind):
        return {i: seq for i, (k, seq, _) in enumerate(ops) if k == kind}

    cayley = _fact_check(group("verify"), cayley_mismatches)
    trees = _fact_check(group("iso"), tree_count_mismatches)
    return Workload([op for _, _, op in ops], lambda facts: {**cayley(facts), **trees(facts)})


WORKLOADS = {"certify": certify, "oracle": oracle_mix}
