import hashlib

import pytest

from forestdom import construct
from forestdom.construct import (
    InfeasibleSplitError,
    PreconditionError,
    all_support_tree,
    extremal_build,
    matched_support_forest,
    random_forest,
    realize_any,
)
from forestdom.degseq import Branch, DegreeSequence, validate
from forestdom.forest import Forest
from forestdom.formulas import extremal_values
from forestdom.oracle import sweep_sequences


def degrees_by_label(forest):
    return tuple(forest.degree(v) for v in range(forest.n))


# ----------------------------------------------------------------------
# realize_any


def test_realize_any_path():
    assert realize_any((2, 1, 1)).edges == ((0, 1), (0, 2))
    assert realize_any((2, 2, 1, 1)).edges == ((0, 1), (0, 2), (1, 3))


def test_realize_any_star_and_matching():
    assert realize_any((3, 1, 1, 1)).edges == ((0, 1), (0, 2), (0, 3))
    assert realize_any((1, 1, 1, 1)).edges == ((0, 1), (2, 3))


def test_realize_any_splits_components():
    forest = realize_any((3, 2, 1, 1, 1, 1, 1))
    assert forest.component_count() == 2
    assert forest.degree_sequence() == DegreeSequence((3, 2, 1, 1, 1, 1, 1))


def test_realize_any_label_order_matches_sorted_degrees():
    for seq in sweep_sequences(9):
        forest = realize_any(seq)
        assert degrees_by_label(forest) == seq.degrees
        assert forest.component_count() == validate(seq).c


def test_realize_any_rejects_zeros():
    with pytest.raises(PreconditionError):
        realize_any((2, 1, 1, 0))


# ----------------------------------------------------------------------
# matched_support_forest (scarce leaves: n1 <= n_ge2)


def test_matched_support_path_four():
    assert matched_support_forest((2, 2, 1, 1)).edges == ((0, 1), (0, 2), (1, 3))


def test_matched_support_path_six_via_subdivision():
    forest = matched_support_forest((2, 2, 2, 2, 1, 1))
    assert forest.degree_sequence() == DegreeSequence((2, 2, 2, 2, 1, 1))
    assert forest.domination_number()[0] == 2
    assert forest.independence_number()[0] == 3
    assert len(forest.longest_path()) == 6  # it is the 6-vertex path


def test_matched_support_worked_example():
    forest = matched_support_forest((3, 2, 2, 2, 1, 1, 1))
    assert forest.degree_sequence() == DegreeSequence((3, 2, 2, 2, 1, 1, 1))
    assert forest.support_vertices() == {0, 1, 2}
    assert forest.domination_number()[0] == 3
    assert forest.independence_number()[0] == 4


def test_matched_support_structure_over_sweep():
    for seq in sweep_sequences(10):
        stats = validate(seq)
        if stats.n1 > stats.n_ge2:
            continue
        forest = matched_support_forest(seq)
        assert forest.degree_sequence() == seq
        assert forest.component_count() == stats.c
        supports = forest.support_vertices()
        assert len(supports) == stats.n1
        for s in supports:
            assert sum(1 for w in forest.adj[s] if forest.degree(w) == 1) == 1
        spare = [
            v
            for v in range(forest.n)
            if forest.degree(v) >= 2 and v not in supports
        ]
        assert all(forest.degree(v) == 2 for v in spare)
        assert len(spare) == stats.n - 2 * stats.n1
        # the spare vertices induce a path: at most two spare neighbours each
        for v in spare:
            assert sum(1 for w in forest.adj[v] if w in set(spare)) <= 2
        inner_edges = [
            (u, v) for u, v in forest.edges if u in set(spare) and v in set(spare)
        ]
        assert len(inner_edges) == max(0, len(spare) - 1)
        assert forest.domination_number()[0] == (stats.n + stats.n1) // 3
        assert forest.independence_number()[0] == (stats.n + 1) // 2


def test_matched_support_rejects_leaf_heavy():
    with pytest.raises(PreconditionError):
        matched_support_forest((3, 1, 1, 1))
    with pytest.raises(PreconditionError):
        matched_support_forest((1, 1))


# ----------------------------------------------------------------------
# all_support_tree (leaf heavy, single component)


def test_all_support_star():
    assert all_support_tree((3, 1, 1, 1)).edges == ((0, 1), (0, 2), (0, 3))
    assert all_support_tree((2, 1, 1)).edges == ((0, 1), (0, 2))


def test_all_support_worked_example():
    forest = all_support_tree((3, 3, 2, 1, 1, 1, 1))
    assert forest.degree_sequence() == DegreeSequence((3, 3, 2, 1, 1, 1, 1))
    assert forest.domination_number()[0] == 3
    assert forest.independence_number()[0] == 4
    assert forest.support_vertices() == {0, 1, 2}


def test_all_support_every_inner_vertex_supports():
    for seq in sweep_sequences(10):
        stats = validate(seq)
        if stats.c != 1 or stats.n1 <= stats.n_ge2:
            continue
        forest = all_support_tree(seq)
        assert forest.degree_sequence() == seq
        assert forest.component_count() == 1
        inner = {v for v in range(forest.n) if forest.degree(v) >= 2}
        assert forest.support_vertices() == inner
        assert len(inner) == stats.n_ge2


def test_all_support_preconditions():
    with pytest.raises(PreconditionError):
        all_support_tree((2, 2, 2, 1, 1))  # leaves not in the majority
    with pytest.raises(PreconditionError):
        all_support_tree((3, 1, 1, 1, 1, 1))  # two components
    with pytest.raises(PreconditionError):
        all_support_tree((1, 1))


# ----------------------------------------------------------------------
# extremal_build


def test_extremal_build_examples():
    cert = extremal_build((2, 2, 1, 1, 1, 1, 1, 1))
    assert cert.forest.edges == ((0, 1), (0, 2), (1, 3), (4, 5), (6, 7))
    assert (cert.gamma, cert.alpha) == (4, 4)
    assert cert.branch is Branch.B

    cert = extremal_build((2, 1, 1, 1, 1))
    assert (cert.gamma, cert.alpha) == (2, 3)
    assert cert.forest.component_count() == 2

    cert = extremal_build((3, 1, 1, 1))
    assert cert.forest.edges == ((0, 1), (0, 2), (0, 3))
    assert (cert.gamma, cert.alpha) == (1, 3)
    assert cert.branch is Branch.A

    # branch A with c = 3: all c - 1 components are split off
    cert = extremal_build((3, 3) + (1,) * 8)
    assert cert.forest.edges == (
        (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (6, 7), (8, 9)
    )
    assert cert.branch is Branch.A

    # branch B with c = 5: ceil((n1 - n_ge2) / 2) = 4 components split off
    cert = extremal_build((2, 2, 2) + (1,) * 10)
    assert cert.forest.edges == (
        (0, 2), (0, 4), (1, 3), (1, 4), (5, 6), (7, 8), (9, 10), (11, 12)
    )
    assert cert.branch is Branch.B


def test_extremal_build_certificates_tight_over_sweep():
    for seq in sweep_sequences(10):
        cert = extremal_build(seq)
        assert cert.forest.degree_sequence() == seq
        assert cert.gamma == cert.expected_gamma_max == extremal_values(seq).gamma_max
        assert cert.alpha == cert.expected_alpha_min == extremal_values(seq).alpha_min


@pytest.mark.parametrize(
    "degrees,branch",
    [
        ((3, 3) + (1,) * 8, Branch.A),
        ((2, 2, 2) + (1,) * 10, Branch.B),
        ((3, 2, 2, 2, 1, 1, 1), Branch.C),
    ],
)
def test_extremal_build_constructs_one_forest(monkeypatch, degrees, branch):
    # the builders' edge lists meet only in the certificate, which is
    # the one Forest validated
    built = []

    class CountingForest(Forest):
        def __init__(self, n, edges=()):
            built.append(n)
            super().__init__(n, edges)

    monkeypatch.setattr(construct, "Forest", CountingForest)
    cert = extremal_build(degrees)
    assert cert.branch is branch
    assert built == [len(degrees)]
    assert cert.forest.degree_sequence() == DegreeSequence(degrees)


@pytest.mark.parametrize(
    "degrees", [(3, 3) + (1,) * 8, (2, 2, 2) + (1,) * 10, (3, 2, 2, 2, 1, 1, 1)]
)
def test_extremal_build_walks_its_forest_once(monkeypatch, degrees):
    # both solver values come from one rooted traversal of the certificate
    walks = []
    rooted = Forest._rooted

    def counting(self, *args):
        walks.append(self.n)
        return rooted(self, *args)

    monkeypatch.setattr(Forest, "_rooted", counting)
    cert = extremal_build(degrees)
    assert walks == [len(degrees)]
    assert (cert.gamma, cert.alpha) == (cert.expected_gamma_max, cert.expected_alpha_min)


def test_extremal_build_preconditions():
    with pytest.raises(PreconditionError):
        extremal_build((1, 1))
    with pytest.raises(PreconditionError):
        extremal_build((2, 2, 1, 1, 0))


def _pinned_builder_sequences():
    """Every sweep_sequences(12) member, stars, all-ones and paths."""
    sequences = [seq.degrees for seq in sweep_sequences(12)]
    sequences += [(k,) + (1,) * k for k in range(2, 40)]
    sequences += [(1,) * n for n in range(2, 41, 2)]
    sequences += [(2,) * k + (1, 1) for k in range(1, 40)]
    return sequences


# SHA-256 of repr() of: for each _pinned_builder_sequences() member, the
# edges of realize_any, matched_support_forest and all_support_tree, or
# the class name of the error each raises.  Recorded from the builders
# that special-cased one-vertex and all-ones caterpillars, the single
# inner vertex and an unsubdivided base edge
BUILDERS_SHA256 = (
    "89f2c6b80dba902c8eeb8559e54dbe2a4a44d9631bfd5c200c35e50aa68e4777"
)


def test_builder_outputs_are_pinned():
    outputs = []
    for degrees in _pinned_builder_sequences():
        for build in (realize_any, matched_support_forest, all_support_tree):
            try:
                outputs.append(build(degrees).edges)
            except ValueError as error:
                outputs.append(type(error).__name__)
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == BUILDERS_SHA256


# SHA-256 of repr() of: for each _pinned_builder_sequences() member, the
# extremal_build certificate's (forest edges, gamma, alpha, branch value),
# or the class name of the error it raises
EXTREMAL_BUILD_SHA256 = (
    "0f508d5185a67e0d4215acd277b33259c7876325eeefa0ce668b900d4f9a9495"
)


def test_extremal_build_certificates_are_pinned():
    outputs = []
    for degrees in _pinned_builder_sequences():
        try:
            cert = extremal_build(degrees)
        except ValueError as error:
            outputs.append(type(error).__name__)
        else:
            outputs.append((cert.forest.edges, cert.gamma, cert.alpha, cert.branch.value))
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == EXTREMAL_BUILD_SHA256


# ----------------------------------------------------------------------
# random_forest


def test_random_forest_deterministic_per_seed():
    one = random_forest(20, 4, seed=123)
    two = random_forest(20, 4, seed=123)
    other = random_forest(20, 4, seed=124)
    assert one == two
    assert one != other  # overwhelmingly likely and fixed by the seeds


def test_random_forest_two_vertex_blocks_are_edges():
    assert random_forest(2, 1, seed=3) == Forest(2, [(0, 1)])
    # blocks of sizes 2, 1, 7, 2; recorded when blocks of 2 were special-
    # cased.  A block of 2 draws nothing, so the 7-block after it is unmoved
    assert random_forest(12, 4, seed=1).edges == (
        (0, 1), (3, 5), (3, 6), (4, 5), (6, 8), (6, 9), (7, 9), (10, 11)
    )


def test_random_forest_component_target():
    for n, k in [(1, 1), (7, 3), (12, 12), (30, 1)]:
        assert random_forest(n, k, seed=0).component_count() == k


@pytest.mark.parametrize(
    "n, target, name",
    [(5, True, "component_target"), (5, 1.0, "component_target"),
     (5.0, 1, "n"), (True, 1, "n"), ("5", 1, "n")],
)
def test_random_forest_rejects_non_int_counts(n, target, name):
    # a True target built a one-component tree, as 1 would
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        random_forest(n, target, seed=0)


@pytest.mark.parametrize("seed", [None, True, 1.5, "7", -1])
def test_random_forest_rejects_seeds_other_than_non_negative_ints(monkeypatch, seed):
    # None would draw from the OS, and Random(-1) draws what Random(1) does
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(construct.random, "Random", no_draws)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
        random_forest(12, 4, seed=seed)


def test_random_forest_infeasible_split():
    with pytest.raises(InfeasibleSplitError):
        random_forest(3, 4, seed=0)
    with pytest.raises(InfeasibleSplitError):
        random_forest(3, 0, seed=0)
    with pytest.raises(ValueError):
        random_forest(0, 1, seed=0)
