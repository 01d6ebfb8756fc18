"""Closed-form extremes over all forest realizations of a degree sequence.

``gamma_max`` is the largest domination number and ``alpha_min`` the
smallest independence number any realizing forest can attain.  Both are
piecewise integer formulas in the counts from ``degseq.validate``; no
search is involved.  Zero entries are stripped first and contribute one
isolated vertex each to both values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .degseq import (
    Branch,
    DegreeSequence,
    SequenceStats,
    branch,
    validate,
)


@dataclass(frozen=True)
class ExtremalValues:
    """Both extremes plus the case that produced them.

    ``branch`` is REDUCED when the zero-stripped sequence is all ones or
    empty (every realization is a perfect matching, with no edges when
    every entry is zero); ``zeros_stripped`` counts the isolated
    vertices already folded into the values.
    """

    gamma_max: int
    alpha_min: int
    branch: Branch
    zeros_stripped: int


def _stripped(degrees: "DegreeSequence | Iterable[int]") -> tuple[SequenceStats, int]:
    """Stats of the positive part, plus the number of zeros removed.

    Dropping zeros changes only ``n`` and ``n0``; the positive part of an
    all-zero sequence is empty, with ``n == 0``.
    """
    stats = validate(degrees)
    return replace(stats, n=stats.n - stats.n0, n0=0), stats.n0


def extremal_values(degrees: "DegreeSequence | Iterable[int]") -> ExtremalValues:
    """Evaluate both closed forms for a realizable sequence."""
    stats, zeros = _stripped(degrees)
    if stats.n_ge2 == 0:
        # Only 1-entries left, or none: the unique realization is n/2
        # disjoint edges, each contributing 1 to both numbers.
        half = stats.n // 2
        return ExtremalValues(zeros + half, zeros + half, Branch.REDUCED, zeros)
    tag = branch(stats)
    if tag is Branch.A:
        gamma = stats.n - stats.n1 + stats.c - 1
        alpha = stats.n1 - stats.c + 1
    elif tag is Branch.B:
        gamma = stats.n // 2
        alpha = (stats.n + 1) // 2
    else:
        gamma = (stats.n + stats.n1 - 2 + 2) // 3  # ceil((n + n1 - 2) / 3)
        alpha = (stats.n + 1) // 2
    return ExtremalValues(zeros + gamma, zeros + alpha, tag, zeros)


def gamma_max(degrees: "DegreeSequence | Iterable[int]") -> int:
    """Largest domination number over all forests realizing `degrees`."""
    return extremal_values(degrees).gamma_max


def alpha_min(degrees: "DegreeSequence | Iterable[int]") -> int:
    """Smallest independence number over all forests realizing `degrees`."""
    return extremal_values(degrees).alpha_min
