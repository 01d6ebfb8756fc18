"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line with the observed counts, so a bare ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Everything here is deterministic.
"""

import random

import pytest

from forestdom.construct import (
    extremal_build,
    matched_support_forest,
    random_forest,
    realize_any,
)
from forestdom.degseq import Branch, validate
from forestdom.formulas import extremal_values
from forestdom.oracle import empirical_extremes, swap_search_gamma, sweep_sequences


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep12():
    return list(sweep_sequences(12))


def test_criterion_1_formulas_match_exhaustive_enumeration():
    checked = 0
    mismatches = []
    for seq in sweep_sequences(10):
        report = empirical_extremes(seq)
        values = extremal_values(seq)
        if (
            report.gamma_max != values.gamma_max
            or report.alpha_min != values.alpha_min
        ):
            mismatches.append(seq.degrees)
        checked += 1
    _report(
        1,
        checked == 109 and not mismatches,
        f"closed forms equal enumerated extremes on {checked} sequences "
        f"with n <= 10, {len(mismatches)} mismatches",
    )


def test_criterion_2_certificates_are_tight(sweep12):
    bad = []
    for seq in sweep12:
        cert = extremal_build(seq)
        if (
            cert.forest.degree_sequence() != seq
            or cert.gamma != cert.expected_gamma_max
            or cert.alpha != cert.expected_alpha_min
        ):
            bad.append(seq.degrees)
    _report(
        2,
        len(sweep12) == 247 and not bad,
        f"built certificates round-trip and attain both extremes on "
        f"{len(sweep12)} sequences with n <= 12, {len(bad)} failures",
    )


def test_criterion_3_scarce_leaf_construction_structure(sweep12):
    checked = 0
    bad = []
    for seq in sweep12:
        stats = validate(seq)
        if extremal_values(seq).branch is not Branch.C:
            continue
        checked += 1
        forest = matched_support_forest(seq)
        supports = forest.support_vertices()
        spare = {
            v
            for v in range(forest.n)
            if forest.degree(v) >= 2 and v not in supports
        }
        leaf_counts = [
            sum(1 for w in forest.adj[s] if forest.degree(w) == 1)
            for s in supports
        ]
        spare_edges = sum(
            1 for u, v in forest.edges if u in spare and v in spare
        )
        ok = (
            len(supports) == stats.n1
            and all(k == 1 for k in leaf_counts)
            and all(forest.degree(v) == 2 for v in spare)
            and len(spare) == stats.n - 2 * stats.n1
            and spare_edges == max(0, len(spare) - 1)
            and all(
                sum(1 for w in forest.adj[v] if w in spare) <= 2 for v in spare
            )
            and forest.domination_number()[0] == (stats.n + stats.n1) // 3
            and forest.independence_number()[0] == (stats.n + 1) // 2
        )
        if not ok:
            bad.append(seq.degrees)
    _report(
        3,
        checked > 0 and not bad,
        f"scarce-leaf builds have n1 single-leaf supports, a spare path of "
        f"order n-2*n1, and the expected values on {checked} sequences, "
        f"{len(bad)} failures",
    )


def test_criterion_4_internal_domination_bound():
    rng = random.Random(417)
    bad = 0
    for trial in range(1000):
        n = rng.randint(2, 500)
        tree = random_forest(n, 1, seed=trial)
        chosen = tree.internal_dominating_set()
        covered = set(chosen)
        for v in chosen:
            covered.update(tree.adj[v])
        inner_ok = all(
            v in covered for v in range(n) if tree.degree(v) >= 2
        )
        if len(chosen) > (n - 2 + 2) // 3 or not inner_ok:
            bad += 1
    _report(
        4,
        bad == 0,
        f"internal dominating sets of 1000 random trees (n up to 500) stay "
        f"within ceil((n-2)/3) and cover every inner vertex, {bad} failures",
    )


def test_criterion_5_leaf_heavy_identity(sweep12):
    checked = 0
    bad = []
    for seq in sweep12:
        stats = validate(seq)
        if stats.n1 <= stats.n_ge2:
            continue
        checked += 1
        values = extremal_values(seq)
        if values.gamma_max + values.alpha_min != stats.n:
            bad.append(seq.degrees)
    _report(
        5,
        checked > 0 and not bad,
        f"gamma_max + alpha_min = n on all {checked} leaf-heavy sequences "
        f"with n <= 12, {len(bad)} failures",
    )


def test_criterion_6_path_and_star_families():
    bad = []
    for n in range(4, 51):
        seq = (2,) * (n - 2) + (1, 1)
        values = extremal_values(seq)
        path = realize_any(seq)
        if not (
            values.gamma_max == (n + 2) // 3 == path.domination_number()[0]
            and values.alpha_min == (n + 1) // 2 == path.independence_number()[0]
        ):
            bad.append(seq)
    for k in range(2, 51):
        seq = (k,) + (1,) * k
        values = extremal_values(seq)
        star = realize_any(seq)
        if not (
            values.gamma_max == 1 == star.domination_number()[0]
            and values.alpha_min == k == star.independence_number()[0]
        ):
            bad.append(seq)
    _report(
        6,
        not bad,
        f"paths n=4..50 give (ceil(n/3), ceil(n/2)) and stars k=2..50 give "
        f"(1, k), formulas and solvers agreeing, {len(bad)} failures",
    )


def test_criterion_7_random_forest_soundness():
    rng = random.Random(2024)
    bad = 0
    for trial in range(10_000):
        n = rng.randint(2, 60)
        parts = rng.randint(1, n // 2)
        forest = random_forest(n, parts, seed=trial)
        gamma, _ = forest.domination_number()
        alpha, _ = forest.independence_number()
        values = extremal_values(forest.degree_sequence())
        if gamma > values.gamma_max or alpha < values.alpha_min:
            bad += 1
    _report(
        7,
        bad == 0,
        f"gamma <= gamma_max and alpha >= alpha_min on 10000 random forests "
        f"with n <= 60, {bad} violations",
    )


def test_criterion_8_swap_search_attainment():
    sequences = list(sweep_sequences(9))
    attained = 0
    exceeded = []
    for seq in sequences:
        target = extremal_values(seq).gamma_max
        found = swap_search_gamma(seq, restarts=20, seed=11)
        gamma = found.domination_number()[0]
        if gamma > target:
            exceeded.append(seq.degrees)
        elif gamma == target:
            attained += 1
    rate = attained / len(sequences)
    _report(
        8,
        not exceeded and rate >= 0.95,
        f"swap search attained gamma_max on {attained}/{len(sequences)} "
        f"sequences with n <= 9 ({rate:.1%}), exceeded on {len(exceeded)}",
    )


# unlabelled trees on n = 3..14 vertices (OEIS A000055)
UNLABELED_TREES = [1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]


def test_criterion_9_formulas_match_enumeration_to_fourteen():
    checked = 0
    mismatches = []
    classes = [0] * len(UNLABELED_TREES)
    for seq in sweep_sequences(14):
        report = empirical_extremes(seq)
        values = extremal_values(seq)
        if (
            report.gamma_max != values.gamma_max
            or report.alpha_min != values.alpha_min
        ):
            mismatches.append(seq.degrees)
        if validate(seq).c == 1:
            classes[len(seq) - 3] += report.realization_count_iso
        checked += 1
    _report(
        9,
        checked == 518 and not mismatches and classes == UNLABELED_TREES,
        f"closed forms equal enumerated extremes on {checked} sequences "
        f"with n <= 14, {len(mismatches)} mismatches; tree classes per "
        f"n = 3..14 are {classes}",
    )


# unlabelled trees on 15 and 16 vertices (OEIS A000055)
UNLABELED_TREES_15_16 = [7741, 19320]


def test_criterion_10_formulas_match_enumeration_at_fifteen_and_sixteen():
    checked = 0
    mismatches = []
    classes = [0, 0]
    for seq in sweep_sequences(16):
        if len(seq) < 15:
            continue
        report = empirical_extremes(seq, cap=16)
        values = extremal_values(seq)
        if (
            report.gamma_max != values.gamma_max
            or report.alpha_min != values.alpha_min
        ):
            mismatches.append(seq.degrees)
        if validate(seq).c == 1:
            classes[len(seq) - 15] += report.realization_count_iso
        checked += 1
    _report(
        10,
        checked == 507 and not mismatches and classes == UNLABELED_TREES_15_16,
        f"closed forms equal enumerated extremes on {checked} sequences "
        f"with n = 15 and 16, {len(mismatches)} mismatches; tree classes "
        f"per n = 15, 16 are {classes}",
    )
