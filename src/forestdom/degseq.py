"""Degree sequences and their forest realizability.

A sequence of non-negative integers is the degree sequence of a forest
exactly when it is all zeros, or its total is even and at most
``2 * (n - n0) - 2``, where ``n0`` counts zero entries.  Writing the
total as ``2 * (n - n0) - 2c``, every realization consists of ``n0``
isolated vertices plus exactly ``c`` non-trivial tree components; ``c``
is positive unless every entry is zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator


class DegreeSequenceError(ValueError):
    """Base class for degree sequence rejections."""


class OddSumError(DegreeSequenceError):
    """The degree total is odd, so no graph realizes the sequence."""


class TooManyEdgesError(DegreeSequenceError):
    """The degree total forces a cycle: it exceeds 2 * (n - n0) - 2."""


class NotPeelableError(DegreeSequenceError):
    """Splitting off a 2-vertex component needs c >= 2 and two 1-entries."""


def stray_char(text: str) -> "str | None":
    """The first character that ``int()`` reads but plain ASCII integer
    text does not have (``1_0`` is 10, ``+1`` and a fullwidth 1 are 1):
    a non-ASCII one, ``_`` or ``+``; None if there is none."""
    if text.isascii() and "_" not in text and "+" not in text:
        return None
    return next(ch for ch in text if not ch.isascii() or ch in "_+")


@dataclass(frozen=True)
class DegreeSequence:
    """Immutable multiset of vertex degrees, stored non-increasing.

    The constructor accepts any iterable of non-negative integers and
    sorts it in linear time, so two sequences compare equal iff they
    agree as multisets.
    Entries must be of type ``int`` exactly: floats, bools and other
    look-alikes raise ValueError rather than being coerced.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degrees = tuple(self.degrees)
        # type() rather than isinstance(): bool is a subclass of int
        if not set(map(type, degrees)) <= {int}:
            bad = next(d for d in degrees if type(d) is not int)
            raise ValueError(f"degrees must be integers, got {bad!r}")
        # a counting sort: linear in the entries, and there are few
        # distinct values; extending by repeat() grows one list in place
        # rather than building a temporary list per value
        tally = Counter(degrees)
        if tally and min(tally) < 0:
            raise ValueError(f"degrees must be non-negative, got {min(tally)}")
        ordered: list[int] = []
        for d in sorted(tally, reverse=True):
            ordered.extend(repeat(d, tally[d]))
        object.__setattr__(self, "degrees", tuple(ordered))

    @classmethod
    def parse(cls, text: str) -> "DegreeSequence":
        """Parse a comma- or whitespace-separated list of plain integers.

        Every comma separates two entries, so a leading, trailing or
        doubled comma is an error rather than a dropped entry.
        """
        bad = stray_char(text)
        if bad is not None:
            raise ValueError(f"unexpected character {bad!r} in degree sequence")
        # with whitespace gone, an empty field leaves a comma at an end or
        # two in a row; one pass in C, so long inputs pay no Python loop
        squeezed = "".join(text.split())
        if squeezed.startswith(",") or squeezed.endswith(",") or ",," in squeezed:
            fields = text.split(",")
            blank = next(i for i, f in enumerate(fields) if not f.strip())
            raise ValueError(
                f"empty field {blank + 1} of {len(fields)}"
                " in comma-separated degree sequence"
            )
        # int() once per distinct token, in first-seen order, so the first
        # bad token in the text is the one named; the constructor tallies
        # and sorts the entries
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise ValueError("empty degree sequence")
        value = {token: int(token) for token in dict.fromkeys(tokens)}
        return cls(map(value.__getitem__, tokens))

    def without_zeros(self) -> "DegreeSequence":
        """Drop all zero entries (they only add isolated vertices)."""
        return DegreeSequence(tuple(d for d in self.degrees if d > 0))

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __getitem__(self, index):
        return self.degrees[index]

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.degrees)


@dataclass(frozen=True)
class SequenceStats:
    """Counts derived from a validated degree sequence.

    ``n`` splits as ``n0 + n1 + n_ge2`` by entry value, ``degree_sum``
    equals ``2 * (n - n0) - 2 * c``, and every realization has exactly
    ``c`` non-trivial components.  ``c`` is at least 1, except for an
    all-zero sequence, whose only realization is the edgeless forest
    with ``c == 0``.
    """

    n: int
    n0: int
    n1: int
    n_ge2: int
    n_ge3: int
    c: int
    degree_sum: int


class Branch(str, Enum):
    """Which closed-form case applies to a zero-free sequence.

    A and B split the leaf-heavy regime ``n1 > n_ge2`` by whether the
    component budget ``c - 1`` stays below ``ceil((n1 - n_ge2) / 2)``;
    C is the leaf-scarce regime ``n1 <= n_ge2``.  REDUCED marks
    sequences whose positive part is all ones or empty, where no case
    applies; ``branch`` itself never returns it.
    """

    A = "A"
    B = "B"
    C = "C"
    REDUCED = "reduced"


def as_degree_sequence(value: "DegreeSequence | Iterable[int]") -> DegreeSequence:
    """Coerce an iterable of integers into a DegreeSequence."""
    if isinstance(value, DegreeSequence):
        return value
    return DegreeSequence(tuple(value))


def validate(degrees: "DegreeSequence | Iterable[int]") -> SequenceStats:
    """Check forest realizability and return the derived counts.

    Raises OddSumError or TooManyEdgesError when no forest realizes the
    input, and ValueError on an empty sequence.
    """
    seq = as_degree_sequence(degrees)
    if len(seq) == 0:
        raise ValueError("empty degree sequence")
    n = len(seq)
    n0 = seq.degrees.count(0)
    n1 = seq.degrees.count(1)
    n_ge2 = n - n0 - n1
    n_ge3 = n_ge2 - seq.degrees.count(2)
    total = sum(seq.degrees)
    if total % 2 != 0:
        raise OddSumError(f"degree total {total} is odd")
    c = (n - n0) - total // 2
    # c counts non-trivial components: none exactly when every entry is 0
    if c < 1 and n0 < n:
        raise TooManyEdgesError(
            f"degree total {total} exceeds 2*(n - n0) - 2 = {2 * (n - n0) - 2}"
        )
    return SequenceStats(
        n=n, n0=n0, n1=n1, n_ge2=n_ge2, n_ge3=n_ge3, c=c, degree_sum=total
    )


def branch(stats: SequenceStats) -> Branch:
    """Classify a zero-free sequence with at least one entry >= 2.

    The tag fixes which closed form yields the extremal domination and
    independence values; exactly one of A, B, C applies.
    """
    if stats.n0 != 0:
        raise ValueError("branch classification requires a zero-free sequence")
    if stats.n_ge2 == 0:
        raise ValueError("branch classification requires an entry >= 2")
    if stats.n1 <= stats.n_ge2:
        return Branch.C
    # ceil((n1 - n_ge2) / 2) with integer arithmetic; n1 - n_ge2 >= 1 here
    if stats.c - 1 < (stats.n1 - stats.n_ge2 + 1) // 2:
        return Branch.A
    return Branch.B


def peel_k2(degrees: "DegreeSequence | Iterable[int]") -> DegreeSequence:
    """Remove two 1-entries, i.e. split a 2-vertex component off.

    Valid only when the sequence has c >= 2, so that some realization
    actually contains such a component.  The result keeps n_ge2 and
    drops both n1 and c: stats change by n -> n-2, n1 -> n1-2, c -> c-1.
    """
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.c < 2 or stats.n1 < 2:
        raise NotPeelableError(
            f"need c >= 2 and two 1-entries, have c={stats.c}, n1={stats.n1}"
        )
    remaining = list(seq.degrees)
    remaining.remove(1)
    remaining.remove(1)
    return DegreeSequence(tuple(remaining))
