"""Builders for forest realizations of a degree sequence.

``realize_any`` produces some realization, the remaining builders
produce realizations that attain the closed-form extremes: one leaf per
support vertex when leaves are scarce, an all-support tree when leaves
dominate, and as many 2-vertex components as the closed-form branch
allows glued on top.
All labellings are canonical, so every builder is deterministic.  Each
builder's edge list comes from a private helper; the public builders
wrap it in a ``Forest``, and ``extremal_build`` combines the helpers, so
the certificate is the one forest it validates.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Iterable

from .degseq import (
    Branch,
    DegreeSequence,
    as_degree_sequence,
    validate,
)
from .forest import Forest
from .formulas import _values


class PreconditionError(ValueError):
    """The input sequence does not satisfy the builder's contract."""


class InfeasibleSplitError(ValueError):
    """The requested component count cannot be met at this order."""


@dataclass(frozen=True)
class ExtremalCertificate:
    """A built forest together with its checked extremal values.

    ``gamma``/``alpha`` come from the exact solvers on the built forest,
    the expected values from the closed forms; a correct build has both
    pairs equal.
    """

    forest: Forest
    gamma: int
    alpha: int
    expected_gamma_max: int
    expected_alpha_min: int
    branch: Branch


def _tree_edges(degrees: tuple[int, ...]) -> list[tuple[int, int]]:
    """Caterpillar tree for degrees sorted non-increasing.

    Requires sum(degrees) == 2 * len(degrees) - 2.  Vertices with degree
    >= 2 form the spine 0, 1, ..., s-1 in order, and vertex 0 alone
    when there are none (a single vertex or edge); leaves are labelled
    s .. n-1 and attached spine-first.  Vertex i ends with degree
    degrees[i] exactly.
    """
    n = len(degrees)
    spine = max(1, sum(1 for d in degrees if d >= 2))
    edges = [(i, i + 1) for i in range(spine - 1)]
    leaf = spine
    for i in range(spine):
        used = (1 if i in (0, spine - 1) else 2) if spine > 1 else 0
        for _ in range(degrees[i] - used):
            edges.append((i, leaf))
            leaf += 1
    assert leaf == n, "leaf attachment must consume every degree-1 vertex"
    return edges


def _pair_edges(first: int, count: int) -> list[tuple[int, int]]:
    """``count`` two-vertex components on the labels from ``first`` on."""
    return [(v, v + 1) for v in range(first, first + 2 * count, 2)]


def _realize_edges(degrees: tuple[int, ...], c: int) -> list[tuple[int, int]]:
    """Edges of ``realize_any`` on a valid zero-free sequence with c trees."""
    core = len(degrees) - 2 * (c - 1)
    return _tree_edges(degrees[:core]) + _pair_edges(core, c - 1)


def _matched_edges(
    degrees: tuple[int, ...], n: int, n1: int
) -> list[tuple[int, int]]:
    """Edges of ``matched_support_forest`` on n vertices with n1 leaves.

    ``degrees`` needs only its n1 largest entries, all at least 2.
    """
    lowered = tuple(d - 1 for d in degrees[:n1])
    # a zero-free forest has n - sum / 2 components
    edges = _realize_edges(lowered, n1 - sum(lowered) // 2)
    # subdivide the lexicographically smallest base edge n - 2*n1 times
    a, b = min(edges)
    edges.remove((a, b))
    chain = [a, *range(2 * n1, n), b]
    edges.extend(zip(chain, chain[1:]))
    edges.extend((v, n1 + v) for v in range(n1))
    return edges


def _all_support_edges(inner: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of ``all_support_tree`` whose degree->=2 entries are ``inner``."""
    m = len(inner)
    # a lone inner vertex starts at need -1, which lowers it to degree 0
    e = [1] * m
    need = m - 2
    for i in range(m):
        take = min(need, inner[i] - 1 - e[i])
        e[i] += take
        need -= take
        if need == 0:
            break
    assert need == 0, "n1 > n_ge2 guarantees enough inner capacity"
    edges = _tree_edges(tuple(e))
    leaf = m
    for i in range(m):
        for _ in range(inner[i] - e[i]):
            edges.append((i, leaf))
            leaf += 1
    return edges


def realize_any(degrees: "DegreeSequence | Iterable[int]") -> Forest:
    """Build one forest realization of a zero-free sequence.

    Splits off c - 1 two-vertex components, then lays the rest out as a
    caterpillar.  Labels are canonical: spine first, then leaves in
    attachment order, then the 2-vertex components; vertex i always
    receives the i-th largest degree.
    """
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.n0 != 0:
        raise PreconditionError("realize_any requires a zero-free sequence")
    return Forest(stats.n, _realize_edges(seq.degrees, stats.c))


def matched_support_forest(degrees: "DegreeSequence | Iterable[int]") -> Forest:
    """Extremal realization when leaves are scarce (n1 <= n_ge2).

    Realizes the top n1 entries lowered by one, attaches one new leaf to
    every vertex of that base forest, and subdivides its smallest edge
    n - 2*n1 times.  The result has exactly n1 support vertices, each
    with one leaf, and its other degree->=2 vertices form a path.
    """
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.n0 != 0 or stats.n_ge2 == 0:
        raise PreconditionError("need a zero-free sequence with an entry >= 2")
    if stats.n1 > stats.n_ge2:
        raise PreconditionError(
            f"needs n1 <= n_ge2, have n1={stats.n1}, n_ge2={stats.n_ge2}"
        )
    return Forest(stats.n, _matched_edges(seq.degrees, stats.n, stats.n1))


def all_support_tree(degrees: "DegreeSequence | Iterable[int]") -> Forest:
    """Extremal tree for c == 1 and n1 > n_ge2: every inner vertex supports.

    The degree->=2 entries become an inner tree whose vertex i keeps
    degree e_i there, with 1 <= e_i <= d_i - 1 chosen greedily (largest
    capacity first); the d_i - e_i leftover slots take leaves, so every
    inner vertex is adjacent to at least one leaf.
    """
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.n0 != 0 or stats.n_ge2 == 0:
        raise PreconditionError("need a zero-free sequence with an entry >= 2")
    if stats.c != 1:
        raise PreconditionError(f"needs c == 1, have c={stats.c}")
    if stats.n1 <= stats.n_ge2:
        raise PreconditionError(
            f"needs n1 > n_ge2, have n1={stats.n1}, n_ge2={stats.n_ge2}"
        )
    return Forest(stats.n, _all_support_edges(seq.degrees[: stats.n_ge2]))


def extremal_build(degrees: "DegreeSequence | Iterable[int]") -> ExtremalCertificate:
    """Build a realization attaining gamma_max and alpha_min at once.

    Splits off as many 2-vertex components as the branch allows (all
    c - 1 in branch A, ceil((n1 - n_ge2) / 2) in branch B, none in C),
    builds the rest with the all-support tree (A) or the matching base
    construction (B, C), and re-adds the split components.  Only the
    certificate itself becomes a ``Forest``, so it is validated once.
    The certificate carries solver values next to the closed-form ones
    so callers can check they agree.
    """
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.n0 != 0 or stats.n_ge2 == 0:
        raise PreconditionError("need a zero-free sequence with an entry >= 2")
    values = _values(stats)
    # the sequence is non-increasing, so each peel drops two trailing 1s
    if values.branch is Branch.A:
        peeled = stats.c - 1
        edges = _all_support_edges(seq.degrees[: stats.n_ge2])
    else:
        peeled = (stats.n1 - stats.n_ge2 + 1) // 2 if values.branch is Branch.B else 0
        rest = stats.n - 2 * peeled
        edges = _matched_edges(seq.degrees, rest, stats.n1 - 2 * peeled)
    edges += _pair_edges(stats.n - 2 * peeled, peeled)
    forest = Forest(stats.n, edges)
    gamma, _ = forest.domination_number()
    alpha, _ = forest.independence_number()
    return ExtremalCertificate(
        forest=forest,
        gamma=gamma,
        alpha=alpha,
        expected_gamma_max=values.gamma_max,
        expected_alpha_min=values.alpha_min,
        branch=values.branch,
    )


def _decode_prufer(code: list[int]) -> list[tuple[int, int]]:
    """Labelled tree on len(code) + 2 vertices from its Prufer code."""
    size = len(code) + 2
    degree = [1] * size
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(size) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def random_forest(n: int, component_target: int, seed: int) -> Forest:
    """Seed-deterministic random forest with the requested component count.

    Splits n vertices into component_target consecutive blocks via a
    random composition, then draws each block's tree uniformly from its
    labelled trees.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if type(component_target) is not int:
        raise ValueError(
            f"component_target must be an integer, got {component_target!r}"
        )
    # Random(-s) draws what Random(s) does, and None draws from the OS
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if not 1 <= component_target <= n:
        raise InfeasibleSplitError(
            f"cannot split {n} vertices into {component_target} components"
        )
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, n), component_target - 1))
    bounds = [0] + cuts + [n]
    edges: list[tuple[int, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        if size == 1:
            continue
        code = [rng.randrange(size) for _ in range(size - 2)]
        edges.extend((lo + u, lo + v) for u, v in _decode_prufer(code))
    return Forest(n, edges)
