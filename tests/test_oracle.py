import hashlib
import random
import sys
from collections import Counter
from itertools import chain, combinations_with_replacement, product
from math import comb, factorial

import pytest

from brute import aut_count, brute_realizations, canonical_key
from forestdom.construct import random_forest
from forestdom.degseq import DegreeSequence, validate
from forestdom.formulas import extremal_values
from forestdom.forest import Forest, ForestError, _dominate, _independent
from forestdom import oracle
from forestdom.oracle import (
    DEFAULT_SIZE_CAP,
    SizeCapExceededError,
    _apply_move,
    _edge_mask,
    _forest_value,
    _groupings,
    _iso_edge_sets,
    _labeled_count,
    _labeled_edge_sets,
    _picks,
    _plan,
    _ranked,
    _swap_moves,
    _walk_order,
    empirical_extremes,
    enumerate_realizations,
    sweep_sequences,
    swap_search_gamma,
)

# labeled count, iso count, gamma range, alpha range; all double-checked
# against the subset-search enumerator in brute.py
FROZEN = [
    ((2, 1, 1), 1, 1, (1, 1), (2, 2)),
    ((3, 1, 1, 1), 1, 1, (1, 1), (3, 3)),
    ((1, 1, 1, 1), 3, 1, (2, 2), (2, 2)),
    ((2, 1, 1, 1, 1), 6, 1, (2, 2), (3, 3)),
    ((2, 2, 2, 1, 1), 6, 1, (2, 2), (3, 3)),
    ((2, 2, 2, 2, 1, 1), 24, 1, (2, 2), (3, 3)),
    ((3, 2, 1, 1, 1, 1, 1), 40, 2, (2, 3), (4, 5)),
    ((2, 2, 1, 1, 1, 1, 1, 1), 180, 2, (3, 4), (4, 5)),
]


@pytest.mark.parametrize("seq,labeled,iso,g,a", FROZEN)
def test_empirical_extremes_frozen(seq, labeled, iso, g, a):
    report = empirical_extremes(seq)
    assert report.sequence == DegreeSequence(seq)
    assert report.realization_count_labeled == labeled
    assert report.realization_count_iso == iso
    assert (report.gamma_min, report.gamma_max) == g
    assert (report.alpha_min, report.alpha_max) == a


def test_witnesses_attain_their_extremes():
    for seq, *_ in FROZEN:
        report = empirical_extremes(seq)
        for witness in (report.witness_gamma_max, report.witness_alpha_min):
            assert witness.degree_sequence() == DegreeSequence(seq)
        assert report.witness_gamma_max.domination_number()[0] == report.gamma_max
        assert report.witness_alpha_min.independence_number()[0] == report.alpha_min


def test_labeled_enumeration_is_duplicate_free():
    seen = set()
    for forest in enumerate_realizations((2, 2, 1, 1, 1, 1, 1, 1)):
        assert forest.edges not in seen
        seen.add(forest.edges)
    assert len(seen) == 180


def test_enumeration_matches_independent_enumerator():
    for seq in sweep_sequences(7):
        ours = sorted(f.edges for f in enumerate_realizations(seq))
        theirs = sorted(tuple(sorted(e)) for e in brute_realizations(seq.degrees))
        assert ours == theirs


def test_iso_pass_preserves_extremes():
    # relabelling changes neither number, so folding over one
    # representative per class gives the same extremes
    for seq in sweep_sequences(7):
        gammas = set()
        alphas = set()
        for forest in enumerate_realizations(seq):
            gammas.add(forest.domination_number()[0])
            alphas.add(forest.independence_number()[0])
        report = empirical_extremes(seq)
        assert report.gamma_min == min(gammas)
        assert report.gamma_max == max(gammas)
        assert report.alpha_min == min(alphas)
        assert report.alpha_max == max(alphas)
        assert report.realization_count_iso <= report.realization_count_labeled


def test_empirical_extremes_match_closed_forms():
    for seq in sweep_sequences(7):
        report = empirical_extremes(seq)
        values = extremal_values(seq)
        assert report.gamma_max == values.gamma_max
        assert report.alpha_min == values.alpha_min


def test_zero_entries_become_isolated_vertices():
    report = empirical_extremes((1, 1, 0))
    assert report.realization_count_labeled == 1
    assert (report.gamma_min, report.gamma_max) == (2, 2)
    assert (report.alpha_min, report.alpha_max) == (2, 2)
    assert report.witness_gamma_max.degree(2) == 0
    edgeless = empirical_extremes((0, 0, 0))
    assert (edgeless.realization_count_labeled, edgeless.realization_count_iso) == (1, 1)
    assert (edgeless.gamma_min, edgeless.gamma_max) == (3, 3)
    assert (edgeless.alpha_min, edgeless.alpha_max) == (3, 3)
    assert edgeless.witness_gamma_max == edgeless.witness_alpha_min == Forest(3)


def _report_fields(report):
    return (
        report.sequence.degrees,
        report.realization_count_labeled,
        report.realization_count_iso,
        report.gamma_min,
        report.gamma_max,
        report.alpha_min,
        report.alpha_max,
        report.witness_gamma_max.edges,
        report.witness_alpha_min.edges,
    )


# SHA-256 of repr() of every EnumerationReport field, witness edges
# included, over sweep_sequences(11) and zero-padded members.  Recorded
# from the fold that repeated enumerate_realizations' cap check and loop
REPORTS_SHA256 = (
    "48098c769ee7e48c20864a2560d4dab04b328144a98eb5a595142062f94ae5f4"
)


def test_enumeration_reports_are_pinned():
    sequences = [seq.degrees for seq in sweep_sequences(11)]
    sequences += [seq + (0,) * k for seq in sequences[::5] for k in (1, 2)]
    reports = [_report_fields(empirical_extremes(d)) for d in sequences]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == REPORTS_SHA256


def test_folds_over_the_iso_walk_match_the_forest_solvers():
    # empirical_extremes never builds most classes as a Forest, so the
    # walk's own rooting must give what the validated Forest gives
    classes = 0
    for n in range(1, 13):
        for degrees in _forest_sequences(n):
            for edges in _iso_edge_sets(degrees):
                order, parent = _walk_order(n, edges)
                assert sorted(order) == list(range(n))
                forest = Forest(n, edges)
                gamma = len(_dominate(order, parent, [False] * (n + 1)))
                alpha = len(_independent(order, parent))
                assert gamma == forest.domination_number()[0]
                assert alpha == forest.independence_number()[0]
                classes += 1
    assert classes == sum(UNLABELED_FORESTS[:12])  # every forest on 1..12 vertices


def test_empirical_extremes_builds_a_forest_only_per_new_value(monkeypatch):
    # each class is folded over the iso walk's own edges; only a class
    # that sets a new gamma or alpha value becomes a Forest
    sequences = [seq.degrees for seq in sweep_sequences(10)]
    sequences += [(3, 2, 2, 1, 1, 1, 1, 1, 0, 0), (2, 2, 1, 1, 1, 1, 0)]
    setting = []
    for degrees in sequences:
        gammas, alphas, count = set(), set(), 0
        for forest in enumerate_realizations(degrees, iso_dedup=True):
            gamma, alpha = forest.domination_number()[0], forest.independence_number()[0]
            count += gamma not in gammas or alpha not in alphas
            gammas.add(gamma)
            alphas.add(alpha)
        setting.append(count)
    built = []

    class CountingForest(Forest):
        def __init__(self, n, edges=()):
            built.append(n)
            super().__init__(n, edges)

    monkeypatch.setattr(oracle, "Forest", CountingForest)
    iso = 0
    for degrees, count in zip(sequences, setting):
        built.clear()
        iso += empirical_extremes(degrees).realization_count_iso
        assert len(built) <= count
    # 191 of the 329 classes set a new value
    assert (sum(setting), iso) == (191, 329)


# ----------------------------------------------------------------------
# the closed-form labelled count


def _label_assignments(degrees) -> int:
    """Ways to hand the entries to labelled vertices: n! / prod m_k!."""
    ways = factorial(len(degrees))
    for multiplicity in Counter(degrees).values():
        ways //= factorial(multiplicity)
    return ways


def _forest_sequences(n: int):
    """Every forest degree sequence of length n, zero entries included."""
    yield (0,) * n
    for positive in range(2, n + 1):
        zeros = (0,) * (n - positive)
        if positive % 2 == 0:
            yield (1,) * positive + zeros
        for seq in sweep_sequences(positive):
            if len(seq) == positive:
                yield seq.degrees + zeros


def _walked_sequences():
    """Every sweep sequence with n <= 9, plus zero-padded, all-ones and
    all-zero ones: small enough to walk every labelled realization."""
    sequences = [seq.degrees for seq in sweep_sequences(9)]
    sequences += [seq + (0,) * k for seq in sequences[::7] for k in (1, 3)]
    sequences += [(1,) * n for n in range(2, 11, 2)]
    sequences += [(0,) * n for n in range(1, 4)]
    return sequences


def test_labeled_count_matches_labeled_walk():
    for degrees in _walked_sequences():
        walked = sum(1 for _ in _labeled_edge_sets(degrees))
        assert _labeled_count(degrees) == walked, degrees


# SHA-256 of repr([tuple(_labeled_edge_sets(d)) for d in _walked_sequences()]),
# recorded from the union-find walk with an undo log
LABELED_WALK_SHA256 = "62e5bed5f558dfbb4cfdad2ca529c5a525bd84cb5807bb8bb877080b7d7ac38e"


def test_labeled_walk_order_is_pinned():
    walked = repr([tuple(_labeled_edge_sets(d)) for d in _walked_sequences()])
    assert hashlib.sha256(walked.encode()).hexdigest() == LABELED_WALK_SHA256


def test_labeled_count_gives_cayley_over_tree_sequences():
    for n in range(3, 15):
        trees = [
            seq.degrees
            for seq in sweep_sequences(n)
            if len(seq) == n and validate(seq).c == 1
        ]
        total = sum(_label_assignments(d) * _labeled_count(d) for d in trees)
        assert total == n ** (n - 2), n


# labelled forests on n vertices, n = 1..11 (OEIS A001858)
LABELED_FORESTS = [1, 2, 7, 38, 291, 2932, 36961, 561948, 10026505, 205608536, 4767440679]


def test_labeled_count_gives_labeled_forest_totals():
    totals = [
        sum(_label_assignments(d) * _labeled_count(d) for d in _forest_sequences(n))
        for n in range(1, 12)
    ]
    assert totals == LABELED_FORESTS


def test_labeled_count_gives_cayley_recurrence_totals():
    # f(n) = sum_k C(n-1, k-1) k^(k-2) f(n-k): the tree that holds vertex
    # 1 has k vertices (OEIS A001858), with k^(k-2) = 1 at k = 1
    forests = [1]
    for n in range(1, 17):
        forests.append(
            sum(
                comb(n - 1, k - 1) * k ** max(k - 2, 0) * forests[n - k]
                for k in range(1, n + 1)
            )
        )
    assert forests[1:12] == LABELED_FORESTS
    for n in range(1, 17):
        total = sum(_label_assignments(d) * _labeled_count(d) for d in _forest_sequences(n))
        assert total == forests[n], n


# recorded from the memoized top-down count, the last from the per-tree
# level fold; each has 7 to 18 trees and several inner degrees, far past
# what the labelled walk can check
@pytest.mark.parametrize(
    "degrees, count",
    [
        ((3,) * 12 + (2,) * 10 + (1,) * 26, 404504670189546381528377565789292756992000000000),
        ((5, 3, 3, 2, 2, 2) + (1,) * 41, 9056665689178202580570866480700000),
        ((4, 4, 3, 3, 2, 2, 2) + (1,) * 30, 171949995315417550631400000),
        (
            (7, 6, 5, 5, 4, 4, 4, 3, 3, 3, 3) + (2,) * 3 + (1,) * 45,
            50415247154230861114098651669619964857771972064256000000,
        ),
    ],
)
def test_labeled_count_pinned_on_multi_tree_sequences(degrees, count):
    assert validate(degrees).c > 1
    assert _labeled_count(degrees) == count


def test_iso_classes_match_labeled_walk():
    # one forest per class: distinct keys, and together every class the
    # full labelled walk meets, with vertex i of degree degrees[i]
    for degrees in _walked_sequences():
        n = len(degrees)
        keys = []
        for forest in enumerate_realizations(degrees, iso_dedup=True):
            assert [len(nb) for nb in forest.adj] == list(degrees), degrees
            keys.append(canonical_key(n, forest.edges))
        assert len(set(keys)) == len(keys), degrees
        walked = {canonical_key(n, edges) for edges in _labeled_edge_sets(degrees)}
        assert set(keys) == walked, degrees
    assert list(enumerate_realizations((0, 0, 0), iso_dedup=True)) == [Forest(3)]


@pytest.fixture(scope="module")
def iso_classes_to_13():
    """(n, degrees, edge sets of its iso classes) for every forest
    sequence of length n <= 13."""
    return [
        (n, d, [f.edges for f in enumerate_realizations(d, iso_dedup=True)])
        for n in range(1, 14)
        for d in _forest_sequences(n)
    ]


# the iso stream itself: every class's edges, in yield order, for the
# 1,097 sequences and 6,606 classes of the fixture
ISO_CLASSES_SHA256 = "f4bd9aebf50cb275a4a72b5b280e8ea5211d2dd35fe85d296069cb68c863b1e3"


def test_iso_classes_are_pinned(iso_classes_to_13):
    assert len(iso_classes_to_13) == 1097
    assert sum(len(classes) for _, _, classes in iso_classes_to_13) == 6606
    digest = hashlib.sha256(repr(iso_classes_to_13).encode()).hexdigest()
    assert digest == ISO_CLASSES_SHA256


# the iso stream past the fixture, where the planted-tree caps bind
# hardest: every class's edges, in yield order, for the 159 sweep
# sequences of length 14 and three longer ones
ISO_CLASSES_PAST_13_SHA256 = (
    "583744360fd4b8f45aed8411adb3538b189a6a12ac4f6e3c822aa46fae96b966"
)


def test_iso_classes_past_thirteen_are_pinned():
    inputs = [seq.degrees for seq in sweep_sequences(14) if len(seq) == 14]
    assert len(inputs) == 159
    inputs += [(3,) * 6 + (2,) * 4 + (1,) * 8, (4,) + (2,) * 14 + (1,) * 4]
    inputs += [(6,) + (2,) * 12 + (1,) * 8]
    streams = [list(_iso_edge_sets(degrees)) for degrees in inputs]
    assert sum(len(classes) for classes in streams) == 6923
    digest = hashlib.sha256(repr(streams).encode()).hexdigest()
    assert digest == ISO_CLASSES_PAST_13_SHA256


# the iso search itself, not only what it yields: every split that
# _groupings offers, in order, and the number of child and tree picks,
# over the 518 sweep sequences with n <= 14.  Undoing the planted-tree
# caps keeps both class pins green but changes these.
ISO_SPLITS_SHA256 = "302fde2a8983273a505ccb0bc93caf60b84fd45cde565248efe829bcc5d90ecf"


def test_iso_search_is_pinned(monkeypatch):
    splits = []
    picks = 0
    real_groupings, real_picks = oracle._groupings, oracle._picks

    def recording(*args):
        for groups in real_groupings(*args):
            splits.append(groups)
            yield groups

    def counting(groups):
        nonlocal picks
        for chosen in real_picks(groups):
            picks += 1
            yield chosen

    monkeypatch.setattr(oracle, "_groupings", recording)
    monkeypatch.setattr(oracle, "_picks", counting)
    for seq in sweep_sequences(14):
        for _ in _iso_edge_sets(seq.degrees):
            pass
    assert (len(splits), picks) == (15316, 22697)
    assert hashlib.sha256(repr(splits).encode()).hexdigest() == ISO_SPLITS_SHA256


# Two degree values packed in 3-bit fields under guard bits 2 and 5, as
# `_iso_edge_sets` packs them: 16 holds two of the first value, 9 one of
# each.  Both start at degree index 0, so both sit in row 0, descending.
ROWS = [[16, 9], []]
GUARD = 0b100100


def test_groupings_takes_a_last_part_only_from_start_on():
    marks = {16: 1, 9: 1}
    # at the top of a split, start is 0: a lone part anywhere in its row
    assert list(_groupings(16, 1, ROWS, marks, 1, 3, GUARD)) == [((16, 1),)]
    assert list(_groupings(9, 1, ROWS, marks, 1, 3, GUARD)) == [((9, 1),)]
    # after 9, the rest 16 sits before start: larger than the part before
    # it, it was already taken as the split 16 + 9
    assert list(_groupings(25, 2, ROWS, marks, 1, 3, GUARD)) == [((16, 1), (9, 1))]
    # after one 9, start is past the end of the row: a second 9 comes only
    # as two copies
    assert list(_groupings(18, 2, ROWS, marks, 1, 3, GUARD)) == [((9, 2),)]


def test_groupings_offers_only_marked_parts():
    marks = {16: 2, 9: 1}
    assert list(_groupings(16, 1, ROWS, marks, 1, 3, GUARD)) == []
    assert list(_groupings(25, 2, ROWS, marks, 1, 3, GUARD)) == []
    assert list(_groupings(25, 2, ROWS, marks, 3, 3, GUARD)) == [((16, 1), (9, 1))]


@pytest.mark.parametrize(
    "groups,count",
    [
        ([], 1),  # the all-zero forest: one empty pick
        ([("abc", 2), ("de", 1), ("fg", 3)], 6 * 2 * 4),
    ],
)
def test_picks_are_multisets_per_group_in_product_order(groups, count):
    reference = [
        tuple(chain.from_iterable(chosen))
        for chosen in product(
            *(combinations_with_replacement(trees, copies) for trees, copies in groups)
        )
    ]
    assert list(_picks(groups)) == reference
    assert len(reference) == count


# unlabelled forests on n vertices, n = 1..13 (OEIS A005195)
UNLABELED_FORESTS = [1, 2, 3, 6, 10, 20, 37, 76, 153, 329, 710, 1601, 3658]


def test_iso_classes_give_unlabeled_forest_totals(iso_classes_to_13):
    totals = [0] * 13
    for n, _, classes in iso_classes_to_13:
        totals[n - 1] += len(classes)
    assert totals == UNLABELED_FORESTS


def test_iso_class_orbits_give_labeled_counts(iso_classes_to_13):
    # orbit-stabilizer: permuting labels within each degree (prod m_k!
    # ways) meets each labelled forest of class F |Aut(F)| times, and
    # the classes' orbits together are every labelled realization
    for n, degrees, classes in iso_classes_to_13:
        labellings = 1
        for copies in Counter(degrees).values():
            labellings *= factorial(copies)
        total = 0
        for edges in classes:
            orbit, rest = divmod(labellings, aut_count(n, edges))
            assert rest == 0, (degrees, edges)
            total += orbit
        assert total == _labeled_count(degrees), degrees


def test_gamma_and_alpha_take_every_value_between_their_extremes(iso_classes_to_13):
    # observed on every sequence here, not a theorem: the paper proves
    # the end points only
    for n, degrees, classes in iso_classes_to_13:
        forests = [Forest(n, edges) for edges in classes]
        for values in (
            {forest.domination_number()[0] for forest in forests},
            {forest.independence_number()[0] for forest in forests},
        ):
            assert values == set(range(min(values), max(values) + 1)), degrees


def test_two_switches_move_gamma_and_alpha_by_at_most_one():
    # observed on every class here, not proved: with the switches
    # connecting each F(d), steps of at most 1 would give the intervals
    switches = 0
    for seq in sweep_sequences(10):
        n = len(seq)
        for forest in enumerate_realizations(seq, iso_dedup=True):
            edges = list(forest.edges)
            gamma = forest.domination_number()[0]
            alpha = forest.independence_number()[0]
            for move in _swap_moves(n, edges, _edge_mask(n, edges)):
                try:
                    after = Forest(n, _apply_move(edges, move))
                except ForestError:
                    continue
                switches += 1
                assert abs(after.domination_number()[0] - gamma) <= 1, after.edges
                assert abs(after.independence_number()[0] - alpha) <= 1, after.edges
    assert switches == 6544


@pytest.mark.parametrize("degrees", [(2,) * 250 + (1, 1), (1,) * 800])
def test_labeled_walk_needs_no_deep_recursion(degrees):
    # one frame per vertex: past the interpreter's limit when recursive
    limit = sys.getrecursionlimit()
    walk = enumerate_realizations(degrees, iso_dedup=False, cap=5000)
    first, second = next(walk), next(walk)
    assert sys.getrecursionlimit() == limit
    for forest in (first, second):
        assert [len(nb) for nb in forest.adj] == list(degrees)
    # the first choice of every vertex is its lowest open candidate
    if degrees[0] == 1:
        assert first.edges == tuple((v, v + 1) for v in range(0, 800, 2))
    else:
        assert first.edges == ((0, 1), (0, 2), *((v, v + 2) for v in range(1, 250)))
    assert first.edges < second.edges


def test_iso_walk_needs_no_deep_recursion():
    # planted halves 300 levels deep, built bottom up without recursion
    degrees = (2,) * 600 + (1, 1)
    limit = sys.getrecursionlimit()
    (path,) = enumerate_realizations(degrees, iso_dedup=True, cap=5000)
    assert sys.getrecursionlimit() == limit
    # n - 1 edges and no degree above 2: one path
    assert [len(nb) for nb in path.adj] == list(degrees)
    assert len(path.edges) == len(degrees) - 1


def test_size_cap():
    too_long = (1,) * (DEFAULT_SIZE_CAP + 2)
    with pytest.raises(SizeCapExceededError):
        next(enumerate_realizations(too_long))
    with pytest.raises(SizeCapExceededError):
        empirical_extremes(too_long)
    with pytest.raises(SizeCapExceededError):
        next(enumerate_realizations((2, 1, 1), cap=2))
    # only positive entries count against the cap
    padded = (1, 1) + (0,) * DEFAULT_SIZE_CAP
    assert sum(1 for _ in enumerate_realizations(padded)) == 1


@pytest.mark.parametrize("cap", [True, 20.5, 14.0, "14", None])
def test_size_cap_must_be_an_int(cap):
    # True compared as 1 and 20.5 as itself, and the error said "cap is True"
    for iso_dedup in (False, True):
        with pytest.raises(ValueError, match="cap must be an integer"):
            next(enumerate_realizations((2, 1, 1), iso_dedup=iso_dedup, cap=cap))
    with pytest.raises(ValueError, match="cap must be an integer"):
        empirical_extremes((2, 1, 1), cap=cap)


def test_canonical_key_is_relabelling_invariant():
    rng = random.Random(7)
    for trial in range(25):
        forest = random_forest(9, rng.randint(1, 3), seed=trial)
        perm = list(range(forest.n))
        rng.shuffle(perm)
        mapped = [(perm[u], perm[v]) for u, v in forest.edges]
        assert canonical_key(forest.n, forest.edges) == canonical_key(forest.n, mapped)


def test_canonical_key_separates_shapes():
    path = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 1), (0, 2), (0, 3)]
    assert canonical_key(4, path) != canonical_key(4, star)


# ----------------------------------------------------------------------
# sweep_sequences


def test_sweep_starts_with_smallest_sequence():
    assert list(sweep_sequences(3)) == [DegreeSequence((2, 1, 1))]


def test_sweep_order_at_four():
    assert list(sweep_sequences(4)) == [
        DegreeSequence((2, 1, 1)),
        DegreeSequence((3, 1, 1, 1)),
        DegreeSequence((2, 2, 1, 1)),
    ]


def test_sweep_counts_frozen():
    assert sum(1 for _ in sweep_sequences(10)) == 109
    assert sum(1 for _ in sweep_sequences(12)) == 247


def test_sweep_members_are_valid_and_unique():
    seen = set()
    for seq in sweep_sequences(8):
        assert seq.degrees not in seen
        seen.add(seq.degrees)
        stats = validate(seq)
        assert stats.n0 == 0
        assert stats.n_ge2 >= 1
        assert stats.c >= 1


def test_sweep_rejects_tiny_bound():
    with pytest.raises(ValueError):
        next(sweep_sequences(1))
    assert list(sweep_sequences(2)) == []


@pytest.mark.parametrize("max_n", [4.0, True, "4", None])
def test_sweep_rejects_a_non_int_bound(max_n):
    # 4.0 failed inside range() with a bare TypeError
    with pytest.raises(ValueError, match="max_n must be an integer"):
        next(sweep_sequences(max_n))


# ----------------------------------------------------------------------
# swap search


def test_swap_search_returns_a_realization():
    for seq in [(2, 2, 1, 1, 1, 1, 1, 1), (3, 2, 1, 1, 1, 1, 1), (4, 2, 1, 1, 1, 1)]:
        found = swap_search_gamma(seq, restarts=5, seed=3)
        assert found.degree_sequence() == DegreeSequence(seq)
        assert found.domination_number()[0] <= extremal_values(seq).gamma_max


def test_swap_search_zero_entries_become_isolated_vertices():
    plain = swap_search_gamma((3, 2, 1, 1, 1, 1, 1), restarts=5, seed=3)
    padded = swap_search_gamma((3, 2, 1, 1, 1, 1, 1, 0, 0), restarts=5, seed=3)
    assert padded == Forest(9, plain.edges)
    assert padded.domination_number()[0] == plain.domination_number()[0] + 2
    assert swap_search_gamma((0, 0), restarts=3, seed=1) == Forest(2)


@pytest.mark.parametrize("restarts", [0, -5])
def test_swap_search_rejects_restarts_below_one(monkeypatch, restarts):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(oracle, "realize_any", no_search)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        swap_search_gamma((2, 2, 1, 1, 1, 1, 1, 1), restarts=restarts)


@pytest.mark.parametrize("restarts", [True, 2.0, 20.5, "3", None])
def test_swap_search_rejects_non_int_restarts(monkeypatch, restarts):
    # True would run one restart and 2.0 two, were they coerced
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(oracle, "realize_any", no_search)
    with pytest.raises(ValueError, match="restarts must be an integer"):
        swap_search_gamma((2, 2, 1, 1, 1, 1, 1, 1), restarts=restarts)


@pytest.mark.parametrize("seed", [None, True, 1.5, "7", -1])
def test_swap_search_rejects_seeds_other_than_non_negative_ints(monkeypatch, seed):
    # None would draw from the OS, and Random(-1) draws what Random(1) does
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(oracle, "realize_any", no_search)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
        swap_search_gamma((2, 2, 1, 1, 1, 1, 1, 1), restarts=3, seed=seed)


def test_swap_search_attains_known_maxima():
    found = swap_search_gamma((2, 2, 1, 1, 1, 1, 1, 1), restarts=10, seed=1)
    assert found.domination_number()[0] == 4
    found = swap_search_gamma((2, 2, 2, 1, 1), restarts=1, seed=0)
    assert found.domination_number()[0] == 2


def test_swap_search_is_seed_deterministic():
    a = swap_search_gamma((3, 2, 2, 1, 1, 1, 1, 1), restarts=6, seed=42)
    b = swap_search_gamma((3, 2, 2, 1, 1, 1, 1, 1), restarts=6, seed=42)
    assert a == b


# SHA-256 of repr([swap_search_gamma(seq, restarts=20, seed=11).edges
#                  for seq in sweep_sequences(7)]), recorded from the search
# before it memoized values and built moves lazily; both must leave every
# choice, and so every seeded result, unchanged
SWAP_N7_SEED11_SHA256 = (
    "fb8cf08c27cead8450c59f1bd741909e590fbad4d861a840f4b03f13fd7b2c13"
)


def test_swap_search_outputs_are_pinned():
    found = [
        swap_search_gamma(seq, restarts=20, seed=11).edges
        for seq in sweep_sequences(7)
    ]
    assert len(found) == 25
    assert hashlib.sha256(repr(found).encode()).hexdigest() == SWAP_N7_SEED11_SHA256


# SHA-256 of repr() of the edges of swap_search_gamma(seq, restarts=5,
# seed=3) for every seq in sweep_sequences(8), then for the padded
# (3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0); recorded from the search that
# scanned every move on every step
SWAP_N8_SEED3_SHA256 = (
    "83540602b4b0f11577dd5eb72f1b4a705f5365a59df3a126f35072a161f9d998"
)


def test_swap_search_outputs_are_pinned_at_n8():
    seqs = [*sweep_sequences(8), (3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0)]
    found = [swap_search_gamma(seq, restarts=5, seed=3).edges for seq in seqs]
    assert len(found) == 44
    assert hashlib.sha256(repr(found).encode()).hexdigest() == SWAP_N8_SEED3_SHA256


@pytest.mark.parametrize(
    "edges,improves",
    [
        # a tree of value 3 that some moves raise to 4
        ([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)], 1),
        # a tree of value 4 that no move raises
        ([(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (1, 6), (1, 7), (2, 8), (3, 9)], 0),
        # two trees
        ([(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (7, 8), (8, 9)], 1),
    ],
)
def test_ranked_plan_is_the_scan_in_every_edge_order(edges, improves):
    n = 10
    mask = _edge_mask(n, edges)
    memo = {mask: _forest_value(n, edges)}
    onto, best, neutral = _plan(n, edges, mask, memo)
    rng = random.Random(5)
    seen_from_y = 0
    for _ in range(12):
        order = rng.sample(edges, len(edges))
        scan = [
            (move, _forest_value(n, _apply_move(order, move)))
            for move in _swap_moves(n, order, mask)
        ]
        forests = [(move, value) for move, value in scan if value is not None]
        top = max(value for _, value in forests)
        assert _ranked(onto, order) == [move for move, _ in forests]
        assert _ranked(best, order) == [
            move for move, value in forests if value == top > memo[mask]
        ]
        assert _ranked(neutral, order) == [
            move for move, value in forests if value == memo[mask]
        ]
        pos = {e: k for k, e in enumerate(order)}
        seen_from_y += sum(
            1 for x, y, e1, *_ in onto if y[1] in e1 and pos[y] < pos[x]
        )
    # the crossed pairing was met with its edges in both orders
    assert seen_from_y
    assert bool(best) == improves


def test_plan_of_a_star_is_empty():
    # no two edges of a star are disjoint, so it has no move at all
    n, edges = 4, [(0, 1), (0, 2), (0, 3)]
    mask = _edge_mask(n, edges)
    memo = {mask: _forest_value(n, edges)}
    assert _plan(n, edges, mask, memo) == ([], [], [])
    assert memo == {mask: 1}


def test_swap_search_scans_each_edge_set_once(monkeypatch):
    scanned = []
    real = oracle._swap_moves

    def counting(n, edges, mask):
        scanned.append(mask)
        return real(n, edges, mask)

    monkeypatch.setattr(oracle, "_swap_moves", counting)
    swap_search_gamma((3, 2, 2, 1, 1, 1, 1, 1), restarts=6, seed=42)
    assert scanned
    assert len(scanned) == len(set(scanned))


def test_swap_moves_are_simple_two_switches():
    n = 6
    edges = [(0, 1), (2, 3), (0, 2), (3, 4), (4, 5)]
    moves = list(_swap_moves(n, edges, _edge_mask(n, edges)))
    # (0, 1), (2, 3) -> (0, 2), (1, 3) would repeat the edge (0, 2)
    assert not any(move[:4] == (0, 1, (0, 2), (1, 3)) for move in moves)
    assert any(move[:4] == (0, 1, (0, 3), (1, 2)) for move in moves)
    for move in moves:
        after = _apply_move(edges, move)
        assert len(set(after)) == len(after)
        assert move[4] == _edge_mask(n, after)
        # degree-preserving: the same endpoints, re-paired
        assert sorted(sum(after, ())) == sorted(sum(edges, ()))


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (2, 3), (3, 4), (0, 2), (4, 5)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (0, 1)],
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 8), (3, 9), (2, 7)],
        [(5, 6), (0, 1), (7, 8), (0, 2), (6, 7), (0, 3), (8, 9), (0, 4)],
    ],
)
def test_apply_move_drops_both_edges_and_appends_the_new_pair(edges):
    n = 10
    moves = list(_swap_moves(n, edges, _edge_mask(n, edges)))
    pairs = {move[:2] for move in moves}
    last = len(edges) - 1
    assert (last - 1, last) in pairs  # adjacent, and at the end
    before = list(edges)
    for move in moves:
        expected = [e for k, e in enumerate(edges) if k not in move[:2]]
        assert _apply_move(edges, move) == expected + list(move[2:4])
        assert edges == before


def test_cyclic_switch_is_rejected():
    n = 6
    path = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    moves = _swap_moves(n, path, _edge_mask(n, path))
    by_pairing = {
        move[2:4]: _forest_value(n, _apply_move(path, move))
        for move in moves
        if move[:2] == (0, 4)
    }
    # (1, 4) closes the cycle 1-2-3-4; (0, 4), (1, 5) leaves a path
    assert by_pairing == {((0, 4), (1, 5)): 2, ((0, 5), (1, 4)): None}


def test_swap_search_runs_one_dp_per_distinct_forest(monkeypatch):
    evaluated = []
    real = oracle._forest_value

    def counting(n, edges):
        assert len(set(edges)) == len(edges)  # repeated edges never reach it
        evaluated.append(frozenset(edges))
        return real(n, edges)

    monkeypatch.setattr(oracle, "_forest_value", counting)
    swap_search_gamma((3, 2, 2, 1, 1, 1, 1, 1), restarts=6, seed=42)
    assert evaluated
    assert len(evaluated) == len(set(evaluated))
