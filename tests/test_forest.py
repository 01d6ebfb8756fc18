import copy
import hashlib
import pickle
import random
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestdom.construct import _decode_prufer, extremal_build, random_forest
from forestdom.degseq import DegreeSequence
from forestdom.forest import (
    CycleDetectedError,
    DuplicateEdgeError,
    Forest,
    ForestFormatError,
    LabelOutOfRangeError,
    NotConnectedError,
    SelfLoopError,
    from_text,
    read_forest,
    write_forest,
)
from forestdom.oracle import empirical_extremes, sweep_sequences

from brute import (
    brute_domination_number,
    brute_independence_number,
    brute_internal_domination_number,
    dp_domination_number,
    dp_independence_number,
    greedy_domination_number,
    matching_independence_number,
)


def path(n):
    return Forest(n, [(i, i + 1) for i in range(n - 1)])


def star(k):
    return Forest(k + 1, [(0, i) for i in range(1, k + 1)])


def is_dominating(forest, subset):
    return all(
        v in subset or any(w in subset for w in forest.adj[v])
        for v in range(forest.n)
    )


def is_independent(forest, subset):
    return all(u not in subset or v not in subset for u, v in forest.edges)


# ----------------------------------------------------------------------
# construction and shape


def test_edges_normalized_sorted():
    forest = Forest(4, [(3, 2), (1, 0), (2, 1)])
    assert forest.edges == ((0, 1), (1, 2), (2, 3))
    assert forest.adj[1] == (0, 2)
    rng = random.Random(8)
    for seed in range(20):
        tree = random_forest(30, 3, seed=seed)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges]
        rng.shuffle(shuffled)
        again = Forest(30, shuffled)
        assert again.edges == tree.edges
        assert all(list(nb) == sorted(nb) for nb in again.adj)


def test_value_semantics():
    assert Forest(3, [(1, 0)]) == Forest(3, [(0, 1)])
    assert Forest(3, [(0, 1)]) != Forest(3, [(0, 2)])
    assert hash(Forest(3, [(1, 0)])) == hash(Forest(3, [(0, 1)]))
    assert repr(Forest(4, [(2, 3), (0, 1)])) == "Forest(n=4, edges=((0, 1), (2, 3)))"


def test_immutable():
    forest = path(3)
    with pytest.raises(AttributeError):
        forest.n = 5
    with pytest.raises(AttributeError):
        del forest.adj
    with pytest.raises(AttributeError):
        del forest.n
    with pytest.raises(AttributeError):
        forest.extra = 1


def test_pickle_and_copy_rebuild_through_the_checks(monkeypatch):
    forest = Forest(5, [(3, 4), (0, 1), (1, 2)])
    report = empirical_extremes((2, 2, 1, 1, 1, 1, 1, 1))
    certificate = extremal_build((3, 2, 1, 1, 1))
    built = []
    init = Forest.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Forest, "__init__", counting_init)
    for clone in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.copy, copy.deepcopy):
        built.clear()
        again = clone(forest)
        # the copy is rebuilt through the constructor, checks included
        assert built == [(forest.n, forest.edges)]
        assert again == forest and again.adj == forest.adj
        report_again = clone(report)
        certificate_again = clone(certificate)
        assert report_again == report and certificate_again == certificate
        pairs = [
            (report_again.witness_gamma_max, report.witness_gamma_max),
            (report_again.witness_alpha_min, report.witness_alpha_min),
            (certificate_again.forest, certificate.forest),
        ]
        assert all(new.adj == old.adj for new, old in pairs)


def test_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        Forest(3, [(1, 1)])


def test_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        Forest(3, [(0, 1), (1, 0)])


def test_rejects_cycle():
    with pytest.raises(CycleDetectedError):
        Forest(3, [(0, 1), (1, 2), (0, 2)])


def test_repeated_edge_is_reported_before_a_cycle():
    # (1, 2) closes the cycle before the repeat of (2, 3) is reached
    # in sorted order; the repeat still names the error
    edges = [(0, 1), (1, 2), (2, 0), (3, 2), (2, 3)]
    with pytest.raises(DuplicateEdgeError, match=r"edge \(2, 3\) appears"):
        Forest(4, edges)
    with pytest.raises(CycleDetectedError, match=r"edge \(1, 2\) closes"):
        Forest(4, edges[:4])


def test_rejects_bad_labels():
    with pytest.raises(LabelOutOfRangeError):
        Forest(3, [(0, 3)])
    with pytest.raises(LabelOutOfRangeError):
        Forest(3, [(-1, 0)])


@pytest.mark.parametrize("edge", [(0, 1.0), (True, 2), (0, "1"), (None, 1)])
def test_rejects_non_int_labels(edge):
    # type() rather than isinstance(): a bool label would be written out
    # as JSON true, which from_json rejects
    with pytest.raises(LabelOutOfRangeError, match="non-int label"):
        Forest(3, [(0, 1), edge])


def test_names_the_first_bad_edge_in_input_order():
    with pytest.raises(LabelOutOfRangeError, match=r"edge \(0, 5\) outside"):
        Forest(3, [(0, 1), (0, 5), (1, 2.0)])
    with pytest.raises(LabelOutOfRangeError, match=r"edge \(1, 2\.0\) has"):
        Forest(3, [(0, 1), (1, 2.0), (0, 5)])


@pytest.mark.parametrize("n", [True, 3.0, "3", None])
def test_rejects_non_int_vertex_count(n):
    with pytest.raises(ValueError, match="must be an integer"):
        Forest(n)


def test_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        Forest(-1)


@pytest.mark.parametrize("v", [-1, 3, True, 1.0])
def test_degree_rejects_a_label_outside_the_vertices(v):
    # -1 read vertex 2's degree and True vertex 1's, as list indices do
    forest = Forest(3, [(0, 1)])
    with pytest.raises(LabelOutOfRangeError, match=r"not an int in 0\.\.2"):
        forest.degree(v)
    assert [forest.degree(u) for u in range(3)] == [1, 1, 0]


def test_degree_sequence_and_components():
    forest = Forest(6, [(0, 1), (0, 2), (3, 4)])
    assert forest.degree_sequence() == DegreeSequence((2, 1, 1, 1, 1, 0))
    assert forest.components() == [
        frozenset({0, 1, 2}),
        frozenset({3, 4}),
        frozenset({5}),
    ]
    assert forest.component_count() == 3


def test_support_vertices():
    assert path(2).support_vertices() == frozenset()
    assert path(4).support_vertices() == {1, 2}
    assert star(3).support_vertices() == {0}
    caterpillar = Forest(5, [(0, 1), (1, 2), (1, 3), (2, 4)])
    assert caterpillar.support_vertices() == {1, 2}


# ----------------------------------------------------------------------
# exact solvers


def test_domination_small_cases():
    assert path(4).domination_number()[0] == 2
    assert path(7).domination_number()[0] == 3
    assert star(5).domination_number()[0] == 1
    assert Forest(1).domination_number() == (1, frozenset({0}))


def test_independence_small_cases():
    assert path(4).independence_number()[0] == 2
    assert path(5).independence_number()[0] == 3
    assert star(5).independence_number()[0] == 5
    assert Forest(1).independence_number() == (1, frozenset({0}))


def test_solvers_on_the_empty_forest():
    assert Forest(0).domination_number() == (0, frozenset())
    assert Forest(0).independence_number() == (0, frozenset())


def test_isolated_vertices_count_in_both():
    forest = Forest(4, [(0, 1)])
    gamma, dom = forest.domination_number()
    alpha, ind = forest.independence_number()
    assert gamma == 3 and {2, 3} <= dom
    assert alpha == 3 and {2, 3} <= ind


def test_solvers_additive_over_components():
    left = path(5)
    pieces = Forest(8, list(left.edges) + [(5, 6)])
    assert (
        pieces.domination_number()[0]
        == left.domination_number()[0] + 1 + 1  # K2 plus isolated vertex
    )
    assert pieces.independence_number()[0] == left.independence_number()[0] + 1 + 1


def test_witnesses_are_valid():
    for seed in range(40):
        forest = random_forest(random.Random(seed).randint(1, 30), 1, seed=seed)
        gamma, dom = forest.domination_number()
        alpha, ind = forest.independence_number()
        assert len(dom) == gamma and is_dominating(forest, dom)
        assert len(ind) == alpha and is_independent(forest, ind)


def test_solvers_match_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 8)
        forest = random_forest(n, rng.randint(1, n), seed=rng.randint(0, 10**6))
        gamma, dom = forest.domination_number()
        alpha, ind = forest.independence_number()
        assert gamma == brute_domination_number(n, forest.edges)
        assert alpha == brute_independence_number(n, forest.edges)
        assert is_dominating(forest, dom) and len(dom) == gamma
        assert is_independent(forest, ind) and len(ind) == alpha


@st.composite
def drawn_forests(draw, max_n=10):
    """A forest on up to max_n vertices, grown breadth-first: each vertex
    in turn takes some of the vertices not yet placed as its children,
    and a vertex the queue never reached starts a new tree.  The labels
    are shuffled afterwards."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.permutations(range(n)))
    edges = []
    placed = 1
    for u in range(n):
        if u == placed:
            placed += 1
        kids = draw(st.integers(min_value=0, max_value=n - placed))
        edges.extend((labels[u], labels[w]) for w in range(placed, placed + kids))
        placed += kids
    return Forest(n, edges)


@settings(max_examples=300, deadline=None)
@given(drawn_forests())
def test_solvers_match_brute_force_on_drawn_forests(forest):
    gamma, dom = forest.domination_number()
    alpha, ind = forest.independence_number()
    assert gamma == brute_domination_number(forest.n, forest.edges)
    assert alpha == brute_independence_number(forest.n, forest.edges)
    assert dom <= set(range(forest.n)) and ind <= set(range(forest.n))
    assert len(dom) == gamma and is_dominating(forest, dom)
    assert len(ind) == alpha and is_independent(forest, ind)


def _solver_values(forest):
    gamma, dom = forest.domination_number()
    alpha, ind = forest.independence_number()
    inner = None
    if forest.component_count() == 1:
        inner = sorted(forest.internal_dominating_set())
    comps = [sorted(comp) for comp in forest.components()]
    return (gamma, sorted(dom), alpha, sorted(ind), comps, inner)


def _relabelled(forest, rng):
    labels = list(range(forest.n))
    rng.shuffle(labels)
    return Forest(forest.n, [(labels[u], labels[v]) for u, v in forest.edges])


# SHA-256 of repr() of: _solver_values over 300 seeded random_forest draws
# with n <= 60 (half of them trees), each in its own labels and then
# relabelled, and over a 20,000-vertex tree in both labellings; then the
# extremal_build edges of every sweep_sequences(12) member.  Recorded from
# the solvers that kept children lists and a witness stack; the parent-
# array folds must reproduce every tie-break
SOLVERS_SHA256 = (
    "b10f3a17d239c4458a5946f461c209b9e42d67a3f643e1368effec72cb3e4d60"
)


def test_solver_outputs_are_pinned():
    rng = random.Random(20260)
    forests = []
    for draw in range(300):
        n = rng.randint(1, 60)
        target = 1 if draw % 2 else rng.randint(1, n)
        forest = random_forest(n, target, seed=rng.randrange(10**6))
        forests += [forest, _relabelled(forest, rng)]
    big = random_forest(20_000, 1, seed=7)
    forests += [big, _relabelled(big, rng)]
    values = [_solver_values(forest) for forest in forests]
    values.append([extremal_build(seq).forest.edges for seq in sweep_sequences(12)])
    assert hashlib.sha256(repr(values).encode()).hexdigest() == SOLVERS_SHA256


def test_solvers_deterministic():
    forest = random_forest(25, 3, seed=5)
    assert forest.domination_number() == forest.domination_number()
    assert forest.independence_number() == forest.independence_number()


def _seeded_large_forests():
    """100 seeded forests with up to 2,000 vertices: every other one a
    tree, and half of them relabelled."""
    rng = random.Random(2000)
    for draw in range(100):
        n = rng.randint(1, 2000)
        target = 1 if draw % 2 else rng.randint(1, n)
        forest = random_forest(n, target, seed=rng.randrange(10**6))
        if draw % 4 < 2:
            forest = _relabelled(forest, rng)
        yield forest


def test_solvers_match_greedy_algorithms_on_large_forests():
    # the classical linear algorithms share no code with the library
    for draw, forest in enumerate(_seeded_large_forests()):
        n = forest.n
        assert forest.domination_number()[0] == greedy_domination_number(
            n, forest.edges
        ), draw
        assert forest.independence_number()[0] == matching_independence_number(
            n, forest.edges
        ), draw


def _labelled_trees(max_n):
    """Every labelled tree on 1 .. max_n vertices, one per Prufer code."""
    yield Forest(1)
    for n in range(2, max_n + 1):
        for code in product(range(n), repeat=n - 2):
            yield Forest(n, _decode_prufer(list(code)))


def test_solvers_pick_what_the_cost_programs_pick():
    # the greedy folds must return the cost programs' very witness sets
    trees = list(_labelled_trees(7))
    assert len(trees) == 18_249
    for forest in chain(trees, _seeded_large_forests()):
        assert forest.domination_number() == dp_domination_number(
            forest.n, forest.edges
        ), forest
        assert forest.independence_number() == dp_independence_number(
            forest.n, forest.edges
        ), forest


# ----------------------------------------------------------------------
# longest path and the internal dominating set


def test_longest_path_on_paths_and_stars():
    assert path(1).longest_path() == [0]
    assert path(2).longest_path() in ([0, 1], [1, 0])
    assert len(path(9).longest_path()) == 9
    assert len(star(4).longest_path()) == 3


def test_longest_path_needs_connected():
    with pytest.raises(NotConnectedError):
        Forest(4, [(0, 1), (2, 3)]).longest_path()
    with pytest.raises(NotConnectedError):
        Forest(2).longest_path()


# SHA-256 of repr() of longest_path() over 400 seeded random_forest trees
# with n <= 80, each in its own labels and then relabelled, and over a
# 20,000-vertex tree in both labellings.  Recorded from the two-BFS
# version that kept its own dict-and-deque sweep
LONGEST_PATH_SHA256 = (
    "90ce4835544e698bd78ab5ab2f34c9120e8f71eb663f1216d04a53e9ca70e866"
)


def test_longest_path_is_pinned():
    rng = random.Random(4127)
    paths = []
    for _ in range(400):
        n = rng.randint(1, 80)
        tree = random_forest(n, 1, seed=rng.randrange(10**6))
        paths += [tree.longest_path(), _relabelled(tree, rng).longest_path()]
    big = random_forest(20_000, 1, seed=11)
    paths += [big.longest_path(), _relabelled(big, rng).longest_path()]
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == LONGEST_PATH_SHA256


def test_longest_path_is_a_real_path():
    for seed in range(20):
        tree = random_forest(17, 1, seed=seed)
        walk = tree.longest_path()
        assert len(set(walk)) == len(walk)
        for u, v in zip(walk, walk[1:]):
            assert (min(u, v), max(u, v)) in set(tree.edges)


def test_internal_dominating_set_examples():
    assert path(2).internal_dominating_set() == frozenset()
    assert star(3).internal_dominating_set() == {0}
    seven = path(7).internal_dominating_set()
    assert len(seven) <= 2


def test_internal_dominating_set_is_minimum():
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(1, 10)
        tree = random_forest(n, 1, seed=rng.randint(0, 10**6))
        assert len(tree.internal_dominating_set()) == (
            brute_internal_domination_number(n, tree.edges)
        )


# SHA-256 of repr() of the sorted internal_dominating_set() of every
# labelled tree with n <= 7, then of each tree among _seeded_large_forests().
# Recorded from the version that kept its own covered and needed arrays
INTERNAL_DOMINATION_SHA256 = (
    "870ece667385448df8508ac2626f02a8630a7be1d1d170375fbd256f08ee3872"
)


def test_internal_dominating_sets_are_pinned():
    sets = []
    for tree in _labelled_trees(7):
        chosen = sorted(tree.internal_dominating_set())
        assert len(chosen) == brute_internal_domination_number(tree.n, tree.edges)
        sets.append(chosen)
    for forest in _seeded_large_forests():
        if forest.component_count() == 1:
            sets.append(sorted(forest.internal_dominating_set()))
    assert len(sets) == 18_249 + 50
    digest = hashlib.sha256(repr(sets).encode()).hexdigest()
    assert digest == INTERNAL_DOMINATION_SHA256


def test_internal_dominating_set_needs_connected():
    with pytest.raises(NotConnectedError):
        Forest(4, [(0, 1), (2, 3)]).internal_dominating_set()


def test_internal_dominating_set_contract():
    # size within ceil((n - 2) / 3), all inner vertices covered
    for seed in range(80):
        n = random.Random(seed).randint(2, 120)
        tree = random_forest(n, 1, seed=seed * 7 + 1)
        chosen = tree.internal_dominating_set()
        assert len(chosen) <= (n - 2 + 2) // 3
        for v in range(n):
            if tree.degree(v) >= 2 and v not in chosen:
                assert any(w in chosen for w in tree.adj[v])


# ----------------------------------------------------------------------
# serialization


def test_json_round_trip_bit_exact():
    forest = Forest(5, [(0, 1), (1, 2), (3, 4)])
    text = forest.to_json()
    assert text == '{"n": 5, "edges": [[0, 1], [1, 2], [3, 4]]}'
    assert from_text(text) == forest
    assert from_text(text).to_json() == text


def test_plain_text_round_trip():
    forest = Forest(4, [(0, 1), (2, 3)])
    text = forest.to_edge_text()
    assert text == "n 4\n0 1\n2 3\n"
    assert from_text(text) == forest


def test_file_round_trip(tmp_path):
    forest = Forest(6, [(0, 5), (1, 2), (2, 3)])
    target = tmp_path / "forest.json"
    write_forest(forest, target)
    assert read_forest(target) == forest
    plain = tmp_path / "forest.txt"
    plain.write_text(forest.to_edge_text())
    assert read_forest(plain) == forest


def test_format_errors():
    with pytest.raises(ForestFormatError):
        from_text("")
    with pytest.raises(ForestFormatError):
        from_text("{not json")
    with pytest.raises(ForestFormatError):
        from_text('{"n": 3}')
    with pytest.raises(ForestFormatError):
        from_text('{"n": 3, "edges": [[0, 1, 2]]}')
    with pytest.raises(ForestFormatError):
        from_text("m 3\n0 1\n")
    with pytest.raises(ForestFormatError):
        from_text("n 3\n0 1 2\n")
    with pytest.raises(CycleDetectedError):
        from_text('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')


def test_text_format_names_a_non_integer_token():
    with pytest.raises(ForestFormatError, match="non-integer token: .*'x'"):
        from_text("n 3\n0 x\n")


def test_deeply_nested_json_is_a_format_error():
    doc = '{"n": 2, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ForestFormatError, match="invalid JSON"):
        from_text(doc)


@pytest.mark.parametrize(
    "text", ["n 1_0\n", "n 3\n0 +1\n", "n \u0663\n0 1\n", "n 3\n\uff10 1\n"]
)
def test_text_format_rejects_what_int_would_coerce(text):
    with pytest.raises(ForestFormatError, match="unexpected character"):
        from_text(text)


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[false, true]]}',
        '{"n": 3, "edges": [[0, 1], [1, true]]}',
    ],
)
def test_json_booleans_are_not_integers(doc):
    with pytest.raises(ForestFormatError):
        from_text(doc)
