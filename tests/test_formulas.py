from hypothesis import given, settings
import pytest

from forestdom.degseq import Branch, DegreeSequence, OddSumError, peel_k2, validate
from forestdom.formulas import ExtremalValues, alpha_min, extremal_values, gamma_max

from brute import (
    brute_domination_number,
    brute_independence_number,
    brute_realizations,
)
from test_degseq import realizable_sequences


def test_gamma_max_examples():
    assert gamma_max((3, 1, 1, 1)) == 1
    assert gamma_max((2, 1, 1, 1, 1)) == 2
    assert gamma_max((2, 2, 1, 1, 1, 1, 1, 1)) == 4
    assert gamma_max((2, 2, 2, 1, 1)) == 2


def test_alpha_min_examples():
    assert alpha_min((3, 1, 1, 1)) == 3
    assert alpha_min((2, 2, 1, 1, 1, 1, 1, 1)) == 4
    assert alpha_min((2, 2, 2, 1, 1)) == 3


def test_all_ones_reduced_case():
    values = extremal_values((1, 1))
    assert values.gamma_max == 1
    assert values.alpha_min == 1
    assert values.branch is Branch.REDUCED
    assert values.zeros_stripped == 0
    assert extremal_values((1, 1, 1, 1)).gamma_max == 2


def test_zero_entries_add_isolated_vertices():
    assert gamma_max((3, 2, 2, 1, 1, 1)) == 3
    assert gamma_max((3, 2, 2, 1, 1, 1, 0)) == 4
    assert alpha_min((3, 2, 2, 1, 1, 1, 0)) == alpha_min((3, 2, 2, 1, 1, 1)) + 1
    values = extremal_values((1, 1, 0, 0))
    assert (values.gamma_max, values.alpha_min, values.zeros_stripped) == (3, 3, 2)
    # the edgeless forest: every vertex is in both extremal sets
    for n0 in (1, 2, 5):
        assert extremal_values((0,) * n0) == ExtremalValues(n0, n0, Branch.REDUCED, n0)


def test_branch_tags_reported():
    assert extremal_values((3, 1, 1, 1)).branch is Branch.A
    assert extremal_values((2, 2, 1, 1, 1, 1, 1, 1)).branch is Branch.B
    assert extremal_values((2, 2, 2, 1, 1)).branch is Branch.C


def test_invalid_sequences_propagate():
    with pytest.raises(OddSumError):
        gamma_max((2, 1))
    with pytest.raises(ValueError):
        alpha_min(())


def test_path_family():
    # paths: two leaves, the rest degree 2
    for n in range(4, 51):
        seq = DegreeSequence([2] * (n - 2) + [1, 1])
        assert gamma_max(seq) == (n + 2) // 3
        assert alpha_min(seq) == (n + 1) // 2


def test_star_family():
    for k in range(2, 51):
        seq = DegreeSequence([k] + [1] * k)
        assert gamma_max(seq) == 1
        assert alpha_min(seq) == k


@given(realizable_sequences())
def test_values_bounded_by_order(seq):
    values = extremal_values(seq)
    assert 1 <= values.gamma_max <= len(seq)
    assert 1 <= values.alpha_min <= len(seq)


@given(realizable_sequences())
def test_leaf_heavy_identity(seq):
    # when leaves outnumber the rest, the two extremes always sum to n
    stats = validate(seq)
    if stats.n0 or stats.n1 <= stats.n_ge2:
        return
    values = extremal_values(seq)
    assert values.gamma_max + values.alpha_min == stats.n


@given(realizable_sequences())
def test_peeling_steps_both_values(seq):
    stats = validate(seq)
    if stats.n0 or stats.c < 2 or stats.n1 <= stats.n_ge2:
        return
    peeled = peel_k2(seq)
    assert gamma_max(seq) == gamma_max(peeled) + 1
    assert alpha_min(seq) == alpha_min(peeled) + 1


@settings(deadline=None)
@given(realizable_sequences(max_len=7))
def test_matches_brute_force_enumeration(seq):
    positive = seq.without_zeros()
    if len(positive) > 7:
        return
    zeros = len(seq) - len(positive)
    n = len(positive)
    gammas = []
    alphas = []
    for edges in brute_realizations(positive.degrees):
        gammas.append(brute_domination_number(n, edges))
        alphas.append(brute_independence_number(n, edges))
    assert gammas, "validated sequences always have a realization"
    assert gamma_max(seq) == max(gammas) + zeros
    assert alpha_min(seq) == min(alphas) + zeros
