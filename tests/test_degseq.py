import sys

from hypothesis import given
from hypothesis import strategies as st
import pytest

from forestdom import degseq
from forestdom.degseq import (
    Branch,
    DegreeSequence,
    NotPeelableError,
    OddSumError,
    TooManyEdgesError,
    branch,
    peel_k2,
    validate,
)


def test_constructor_sorts_and_freezes():
    seq = DegreeSequence((1, 3, 2, 1))
    assert seq.degrees == (3, 2, 1, 1)
    assert DegreeSequence([1, 1, 2, 3]) == seq
    assert len(seq) == 4
    assert seq[0] == 3
    assert list(seq) == [3, 2, 1, 1]
    assert str(seq) == "3,2,1,1"


def test_constructor_rejects_negative():
    with pytest.raises(ValueError):
        DegreeSequence((2, -1))


@pytest.mark.parametrize(
    "entries", [(2.7, 1.2, 1.9), (True, True), (2, 1, "1"), (2.0, 1, 1)]
)
def test_constructor_rejects_non_integers(entries):
    with pytest.raises(ValueError, match="degrees must be integers"):
        DegreeSequence(entries)


@given(st.lists(st.integers(min_value=-3, max_value=40), max_size=60))
def test_constructor_is_a_descending_sort(entries):
    if entries and min(entries) < 0:
        with pytest.raises(
            ValueError, match=rf"^degrees must be non-negative, got {min(entries)}$"
        ):
            DegreeSequence(entries)
    else:
        assert DegreeSequence(entries).degrees == tuple(sorted(entries, reverse=True))


def test_constructor_reads_any_iterable_once():
    assert DegreeSequence(iter([1, 2, 1])).degrees == (2, 1, 1)


def test_parse_accepts_commas_and_whitespace():
    assert DegreeSequence.parse("3,2,1,1") == DegreeSequence((3, 2, 1, 1))
    assert DegreeSequence.parse("3 2  1\t1") == DegreeSequence((3, 2, 1, 1))
    assert DegreeSequence.parse("3, 2, 1") == DegreeSequence((3, 2, 1))
    assert DegreeSequence.parse(" 3 ,2,1 ") == DegreeSequence((3, 2, 1))
    with pytest.raises(ValueError):
        DegreeSequence.parse("  ")
    with pytest.raises(ValueError):
        DegreeSequence.parse("3,two")


@pytest.mark.parametrize(
    "text, field",
    [
        ("1,,1", "field 2 of 3"),
        (",1,1", "field 1 of 3"),
        ("1,1,", "field 3 of 3"),
        (",1,1,", "field 1 of 4"),
        ("1, ,1", "field 2 of 3"),
        (",", "field 1 of 2"),
    ],
)
def test_parse_rejects_empty_comma_fields(text, field):
    # each but "," used to parse as 1,1, dropping the empty field
    with pytest.raises(ValueError, match=f"empty {field} in comma-separated"):
        DegreeSequence.parse(text)


@pytest.mark.parametrize("text", ["1_0,1", "\u0663,1,1,1", "\uff11,1", "+1,1", "2,1,1\u00a0"])
def test_parse_rejects_what_int_would_coerce(text):
    # int() coerces each of these, and split() drops the no-break space
    with pytest.raises(ValueError, match="unexpected character"):
        DegreeSequence.parse(text)


def _int_error(token: str) -> str:
    with pytest.raises(ValueError) as caught:
        int(token)
    return str(caught.value)


@pytest.mark.parametrize(
    "text, named",
    [("2,zz,1,aa,aa,zz", "zz"), ("b a b 1 a", "b"), ("1,1,q,1,p,q", "q"), ("-1,1,x", "x")],
)
def test_parse_names_the_first_bad_token_in_text_order(text, named):
    # repeats and later bad tokens never take the blame, and int()'s error
    # comes before the constructor's refusal of an earlier negative entry
    with pytest.raises(ValueError) as caught:
        DegreeSequence.parse(text)
    assert str(caught.value) == _int_error(named)


def test_parse_keeps_the_int_digit_limit_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() has no digit limit here")
    long_token = "1" * (limit + 1)
    with pytest.raises(ValueError) as caught:
        DegreeSequence.parse(f"2,{long_token},1,{long_token}")
    assert str(caught.value) == _int_error(long_token)


@pytest.mark.parametrize(
    "text, tokens, degrees",
    [
        ("3,1,1,2,1,3", ["3", "1", "2"], (3, 3, 2, 1, 1, 1)),
        ("2 2 1 1", ["2", "1"], (2, 2, 1, 1)),
    ],
)
def test_parse_calls_int_once_per_distinct_token(monkeypatch, text, tokens, degrees):
    # a module global named int shadows the builtin inside degseq; an int
    # subclass, so the constructor's exact-type check accepts its entries
    seen = []

    class Counting(int):
        def __new__(cls, token):
            seen.append(token)
            return super().__new__(cls, token)

    monkeypatch.setattr(degseq, "int", Counting, raising=False)
    assert DegreeSequence.parse(text).degrees == degrees
    assert seen == tokens


def test_validate_tree_sequence():
    stats = validate((3, 2, 2, 1, 1, 1))
    assert (stats.n, stats.n0, stats.n1, stats.n_ge2) == (6, 0, 3, 3)
    assert (stats.n_ge3, stats.c, stats.degree_sum) == (1, 1, 10)


def test_validate_rejects_too_many_edges():
    with pytest.raises(TooManyEdgesError):
        validate((3, 3))


def test_validate_rejects_odd_sum():
    with pytest.raises(OddSumError):
        validate((2, 1))


def test_validate_with_zero_entries():
    stats = validate((1, 1, 1, 1, 0))
    assert (stats.n, stats.n0, stats.n1, stats.n_ge2, stats.c) == (5, 1, 4, 0, 2)


def test_validate_rejects_empty():
    with pytest.raises(ValueError):
        validate(())


def test_validate_accepts_all_zero():
    # the edgeless forest: no non-trivial component, so c == 0
    stats = validate((0, 0, 0))
    assert (stats.n, stats.n0, stats.n1, stats.n_ge2, stats.c) == (3, 3, 0, 0, 0)
    assert stats.degree_sum == 0


def test_validate_rejects_single_positive_entry():
    with pytest.raises(OddSumError):
        validate((1,))
    with pytest.raises(TooManyEdgesError):
        validate((2, 0))


def test_branch_examples():
    assert branch(validate((3, 1, 1, 1))) is Branch.A
    assert branch(validate((2, 2, 1, 1, 1, 1, 1, 1))) is Branch.B
    assert branch(validate((2, 2, 2, 1, 1))) is Branch.C


def test_branch_requires_zero_free_with_big_entry():
    with pytest.raises(ValueError):
        branch(validate((2, 1, 1, 0)))
    with pytest.raises(ValueError):
        branch(validate((1, 1)))


def test_peel_k2_examples():
    assert peel_k2((2, 2, 1, 1, 1, 1, 1, 1)) == DegreeSequence((2, 2, 1, 1, 1, 1))
    assert peel_k2((2, 1, 1, 1, 1)) == DegreeSequence((2, 1, 1))


def test_peel_k2_rejects_single_component():
    with pytest.raises(NotPeelableError):
        peel_k2((2, 2, 1, 1))


def test_peel_k2_rejects_invalid():
    with pytest.raises(OddSumError):
        peel_k2((2, 1))


@st.composite
def realizable_sequences(draw, max_len=12):
    """Valid degree sequences built from a component structure, so the
    forest condition holds by construction."""
    blocks = draw(st.integers(min_value=1, max_value=4))
    degrees = []
    for _ in range(blocks):
        size = draw(st.integers(min_value=2, max_value=max_len // blocks + 1))
        # a tree's degrees: start with a path, then shift degree mass
        tree = [1] * size
        if size > 2:
            for i in range(1, size - 1):
                tree[i] = 2
            moves = draw(st.integers(min_value=0, max_value=size - 2))
            for _ in range(moves):
                src = draw(st.integers(min_value=1, max_value=size - 2))
                if tree[src] > 1:
                    tree[src] -= 1
                    tree[draw(st.integers(min_value=0, max_value=size - 1))] += 1
        degrees.extend(tree)
    degrees.extend([0] * draw(st.integers(min_value=0, max_value=2)))
    return DegreeSequence(degrees)


@given(realizable_sequences())
def test_validate_permutation_invariant(seq):
    reversed_stats = validate(tuple(reversed(seq.degrees)))
    assert reversed_stats == validate(seq)


@given(realizable_sequences())
def test_validate_counts_entries_by_value(seq):
    stats = validate(seq)
    assert stats.n0 == sum(1 for d in seq if d == 0)
    assert stats.n1 == sum(1 for d in seq if d == 1)
    assert stats.n_ge2 == sum(1 for d in seq if d >= 2)
    assert stats.n_ge3 == sum(1 for d in seq if d >= 3)


@given(realizable_sequences())
def test_leaf_count_identity(seq):
    # n1 = 2c + sum over entries >= 3 of (entry - 2), hence n1 >= 2c
    stats = validate(seq)
    surplus = sum(d - 2 for d in seq.degrees if d >= 3)
    assert stats.n1 == 2 * stats.c + surplus
    assert stats.n1 >= 2 * stats.c


@given(realizable_sequences())
def test_peel_k2_stat_deltas(seq):
    stats = validate(seq)
    if stats.c < 2:
        return
    peeled = validate(peel_k2(seq))
    assert peeled.n == stats.n - 2
    assert peeled.n1 == stats.n1 - 2
    assert peeled.n_ge2 == stats.n_ge2
    assert peeled.c == stats.c - 1


@given(realizable_sequences())
def test_peel_k2_never_leaves_case_c(seq):
    stats = validate(seq)
    if stats.n0 or stats.c < 2 or stats.n_ge2 == 0:
        return
    if branch(stats) is not Branch.C:
        return
    peeled = peel_k2(seq)
    assert branch(validate(peeled)) is Branch.C
