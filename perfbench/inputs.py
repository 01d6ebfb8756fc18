"""Seeded inputs for the benchmark workloads.

Everything here is built from ``random.Random(seed)`` and nothing from
forestdom, in particular not ``forestdom.random_forest``, so a change to
the package cannot change what the benchmark feeds it.  Random choices
only vary labels and the spread of degrees; the sizes, component counts
and branch of every input are fixed, so each seed costs about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SequenceSpec:
    """Shape of a forest degree sequence: entries >= 2, ones, components."""

    n_ge2: int
    n1: int
    c: int

    @property
    def n(self) -> int:
        return self.n_ge2 + self.n1

    @property
    def branch(self) -> str:
        """Closed-form case of the paper: C when leaves are scarce, else A/B
        by whether c - 1 stays below ceil((n1 - n_ge2) / 2)."""
        if self.n1 <= self.n_ge2:
            return "C"
        return "A" if self.c - 1 < (self.n1 - self.n_ge2 + 1) // 2 else "B"


def forest_degrees(rng: random.Random, spec: SequenceSpec) -> list[int]:
    """A shuffled zero-free degree sequence of a forest with the given shape.

    A forest on n vertices with c non-trivial components has n - c edges,
    so its degrees sum to 2(n - c).  Entries >= 2 start at 2 and share
    the remaining n1 - 2c units at random.
    """
    excess = spec.n1 - 2 * spec.c
    if excess < 0 or spec.c < 1 or (spec.n_ge2 == 0 and excess > 0):
        raise ValueError(f"no forest has shape {spec}")
    degrees = [2] * spec.n_ge2
    for i in rng.choices(range(spec.n_ge2), k=excess):
        degrees[i] += 1
    degrees += [1] * spec.n1
    rng.shuffle(degrees)
    return degrees


def _partitions(total: int, parts: int, largest: int):
    """Non-increasing tuples of `parts` integers >= 1, at most `largest`,
    adding up to `total`, in descending lexicographic order."""
    if parts == 1:
        if 1 <= total <= largest:
            yield (total,)
        return
    for first in range(min(largest, total - parts + 1), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def forest_sequences(max_n: int) -> list[tuple[int, ...]]:
    """Every zero-free forest degree sequence with an entry >= 2 and
    3 <= n <= max_n, non-increasing: the even totals from n + 1 or n + 2
    up to 2n - 2, each split into n positive parts."""
    out = []
    for n in range(3, max_n + 1):
        for total in range(n + 2 - n % 2, 2 * n - 1, 2):
            out.extend(_partitions(total, n, total))
    return out


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random recursive tree on 0..n-1 with shuffled labels and edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)]
    rng.shuffle(edges)
    return edges


def random_forest_edges(
    rng: random.Random, n: int, components: int
) -> list[tuple[int, int]]:
    """A forest on 0..n-1 with exactly `components` trees of order >= 2.

    Block sizes start at 2 and share the other vertices at random; each
    block is a random recursive tree, and all labels are shuffled.
    """
    if components < 1 or n < 2 * components:
        raise ValueError(f"cannot split {n} vertices into {components} trees")
    sizes = [2] * components
    for i in rng.choices(range(components), k=n - 2 * components):
        sizes[i] += 1
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    base = 0
    for size in sizes:
        for v in range(1, size):
            u = base + rng.randrange(v)
            edges.append((perm[u], perm[base + v]))
        base += size
    rng.shuffle(edges)
    return edges
