"""Exhaustive ground truth over all forest realizations of a sequence.

The enumerator assigns the remaining edge slots of the lowest unfinished
vertex in every way that keeps the graph simple and acyclic, so it
visits each labelled realization exactly once.  Isomorphism-aware runs
additionally skip choices that only permute still-untouched vertices of
equal degree and deduplicate survivors by a canonical encoding.  The
number of labelled realizations is counted in closed form, without
walking them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Iterable, Iterator

from .construct import realize_any
from .degseq import DegreeSequence, as_degree_sequence, validate
from .forest import Forest, ForestError

DEFAULT_SIZE_CAP = 14
DEFAULT_SWEEP_MAX_N = 10


class SizeCapExceededError(ValueError):
    """The positive part of the sequence is longer than the cap allows."""


@dataclass(frozen=True)
class EnumerationReport:
    """Empirical extremes of one sequence, with attaining witnesses."""

    sequence: DegreeSequence
    realization_count_labeled: int
    realization_count_iso: int
    gamma_min: int
    gamma_max: int
    alpha_min: int
    alpha_max: int
    witness_gamma_max: Forest
    witness_alpha_min: Forest


def _labeled_edge_sets(
    degrees: tuple[int, ...], symmetric_prune: bool
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the edge set of every labelled forest where vertex i has
    degree degrees[i] (assumed non-increasing).

    With symmetric_prune, partner choices that skip an untouched vertex
    and later take an untouched vertex of the same degree are cut; that
    loses labelled variants but keeps at least one member of every
    isomorphism class.
    """
    n = len(degrees)
    residual = list(degrees)
    parent = list(range(n))  # union-find, no compression, unwindable

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    edges: list[tuple[int, int]] = []

    def assign(u: int) -> Iterator[tuple[tuple[int, int], ...]]:
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield tuple(edges)
            return
        need = residual[u]
        candidates = [v for v in range(u + 1, n) if residual[v] > 0]
        root_u = find(u)
        chosen: list[int] = []
        used_roots = {root_u}

        def choose(idx: int, left: int, blocked: frozenset[int]) -> Iterator[
            tuple[tuple[int, int], ...]
        ]:
            if left == 0:
                undo = []
                residual[u] = 0
                for v in chosen:
                    residual[v] -= 1
                    edges.append((u, v))
                    rv = find(v)
                    undo.append(rv)
                    parent[rv] = root_u
                yield from assign(u + 1)
                for rv in reversed(undo):
                    parent[rv] = rv
                for v in chosen:
                    residual[v] += 1
                del edges[len(edges) - len(chosen):]
                residual[u] = need
                return
            if len(candidates) - idx < left:
                return
            v = candidates[idx]
            untouched = residual[v] == degrees[v]
            root_v = find(v)
            if root_v not in used_roots and not (
                untouched and degrees[v] in blocked
            ):
                chosen.append(v)
                used_roots.add(root_v)
                yield from choose(idx + 1, left - 1, blocked)
                used_roots.discard(root_v)
                chosen.pop()
            if symmetric_prune and untouched:
                blocked = blocked | {degrees[v]}
            yield from choose(idx + 1, left, blocked)

        yield from choose(0, need, frozenset())

    yield from assign(0)


def _labeled_count(degrees: tuple[int, ...]) -> int:
    """Number of labelled forests where vertex i has degree degrees[i].

    A labelled tree on a vertex set B with degrees d_v has
    (|B|-2)! / prod (d_v - 1)! Prufer codes (Moon, *Counting Labelled
    Trees*, 1970), so the forests are the splits of the positive entries
    into tree blocks B with sum d = 2|B| - 2, weighted by that product.
    Vertices of equal degree are interchangeable, so the split runs over
    vectors of remaining multiplicities: each step removes the block that
    holds one fixed leaf, which every non-empty remainder has, choosing
    its other members by binomials.  Zero entries are isolated vertices
    and the empty remainder counts 1.
    """
    tally = Counter(d for d in degrees if d > 1)
    inner = sorted(tally)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def forests(leaves: int, left: tuple[int, ...]) -> int:
        if leaves == 0:
            return 0 if any(left) else 1
        if (leaves, left) in memo:
            return memo[(leaves, left)]
        total = 0
        for take in product(*(range(m + 1) for m in left)):
            # a tree has 2 + sum (d - 2) leaves over its inner vertices
            block_leaves = 2 + sum(j * (d - 2) for j, d in zip(take, inner))
            if block_leaves > leaves:
                continue
            size = block_leaves + sum(take)
            ways = factorial(size - 2) * comb(leaves - 1, block_leaves - 1)
            for j, d, m in zip(take, inner, left):
                ways = ways * comb(m, j) // factorial(d - 1) ** j
            rest = tuple(m - j for m, j in zip(left, take))
            total += ways * forests(leaves - block_leaves, rest)
        memo[(leaves, left)] = total
        return total

    return forests(sum(1 for d in degrees if d == 1), tuple(tally[d] for d in inner))


def _canonical_key(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """Isomorphism-invariant encoding: sorted centre-rooted encodings
    of the components, one per component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def encode_rooted(root: int) -> str:
        # iterative post-order over the component containing root
        order = []
        stack = [(root, -1)]
        while stack:
            v, par = stack.pop()
            order.append((v, par))
            for w in adj[v]:
                if w != par:
                    stack.append((w, v))
        enc: dict[int, str] = {}
        for v, par in reversed(order):
            parts = sorted(enc[w] for w in adj[v] if w != par)
            enc[v] = "(" + "".join(parts) + ")"
        return enc[root]

    seen = [False] * n
    keys = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        # locate the 1 or 2 centres by trimming leaf layers
        degree = {v: len(adj[v]) for v in comp}
        remaining = set(comp)
        layer = [v for v in comp if degree[v] <= 1]
        while len(remaining) > 2:
            for v in layer:
                remaining.discard(v)
            nxt = []
            for v in layer:
                for w in adj[v]:
                    if w in remaining:
                        degree[w] -= 1
                        if degree[w] <= 1:
                            nxt.append(w)
            layer = nxt
        keys.append(min(encode_rooted(c) for c in remaining))
    return "|".join(sorted(keys))


def _checked(degrees, cap: int) -> tuple[DegreeSequence, tuple[int, ...]]:
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.n - stats.n0 > cap:
        raise SizeCapExceededError(
            f"positive part has {stats.n - stats.n0} entries, cap is {cap}"
        )
    return seq, seq.degrees


def enumerate_realizations(
    degrees: "DegreeSequence | Iterable[int]",
    iso_dedup: bool = False,
    cap: int = DEFAULT_SIZE_CAP,
) -> Iterator[Forest]:
    """Stream every realization; one per isomorphism class if iso_dedup."""
    _, degs = _checked(degrees, cap)
    n = len(degs)
    if iso_dedup:
        seen: set[str] = set()
        for edges in _labeled_edge_sets(degs, symmetric_prune=True):
            key = _canonical_key(n, edges)
            if key not in seen:
                seen.add(key)
                yield Forest(n, edges)
    else:
        for edges in _labeled_edge_sets(degs, symmetric_prune=False):
            yield Forest(n, edges)


def empirical_extremes(
    degrees: "DegreeSequence | Iterable[int]", cap: int = DEFAULT_SIZE_CAP
) -> EnumerationReport:
    """Fold domination/independence extremes over every realization.

    The labelled count comes from ``_labeled_count`` in closed form;
    statistics and witnesses come from one representative per
    isomorphism class, which realizes the same extremes because
    relabelling changes neither number.
    """
    seq, degs = _checked(degrees, cap)
    n = len(degs)
    labeled = _labeled_count(degs)
    iso = 0
    seen: set[str] = set()
    gamma_lo = alpha_lo = n + 1
    gamma_hi = alpha_hi = -1
    best_gamma = best_alpha = None
    for edges in _labeled_edge_sets(degs, symmetric_prune=True):
        key = _canonical_key(n, edges)
        if key in seen:
            continue
        seen.add(key)
        iso += 1
        forest = Forest(n, edges)
        gamma, _ = forest.domination_number()
        alpha, _ = forest.independence_number()
        if gamma > gamma_hi:
            gamma_hi = gamma
            best_gamma = forest
        gamma_lo = min(gamma_lo, gamma)
        if alpha < alpha_lo:
            alpha_lo = alpha
            best_alpha = forest
        alpha_hi = max(alpha_hi, alpha)
    assert best_gamma is not None and best_alpha is not None
    return EnumerationReport(
        sequence=seq,
        realization_count_labeled=labeled,
        realization_count_iso=iso,
        gamma_min=gamma_lo,
        gamma_max=gamma_hi,
        alpha_min=alpha_lo,
        alpha_max=alpha_hi,
        witness_gamma_max=best_gamma,
        witness_alpha_min=best_alpha,
    )


def _partitions(total: int, parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing partitions of total into exactly `parts` parts >= 1."""
    if parts == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    for first in range(min(max_part, total - parts + 1), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def sweep_sequences(max_n: int) -> Iterator[DegreeSequence]:
    """All zero-free realizable sequences with an entry >= 2 and n <= max_n.

    Ordered by length, then degree total, then descending-lexicographic
    partition order; the shortest member is (2, 1, 1).
    """
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    for n in range(3, max_n + 1):
        start = n + 2 - (n % 2)  # smallest even total above n
        for total in range(start, 2 * n - 1, 2):
            for partition in _partitions(total, n, total):
                yield DegreeSequence(partition)


def _forest_value(n: int, edges: list[tuple[int, int]]) -> "int | None":
    """Domination number if the edge list is a simple forest, else None."""
    try:
        forest = Forest(n, edges)
    except ForestError:
        return None
    return forest.domination_number()[0]


def _edge_mask(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """The edge set as a bitmask: bit ``u * n + v`` for edge ``(u, v)``, u < v."""
    mask = 0
    for u, v in edges:
        mask |= 1 << (u * n + v)
    return mask


# (i, j, e1, e2, key): edges i and j give way to e1 and e2, giving edge set key
_Move = tuple[int, int, tuple[int, int], tuple[int, int], int]


def _swap_moves(n: int, edges: list[tuple[int, int]], mask: int) -> Iterator[_Move]:
    """Degree-preserving rewirings of two disjoint edges, both pairings.

    Yields ``(i, j, e1, e2, key)``: ``edges[i]`` and ``edges[j]`` give
    way to ``e1`` and ``e2``, and ``key`` is the ``_edge_mask`` of the
    result, whose edges are given by ``mask``.  A rewiring onto an edge
    that is still present would make a multigraph and is skipped.
    """
    count = len(edges)
    for i in range(count):
        a, b = edges[i]
        for j in range(i + 1, count):
            c, d = edges[j]
            if c in (a, b) or d in (a, b):
                continue
            rest = mask ^ (1 << (a * n + b)) ^ (1 << (c * n + d))
            for e1, e2 in (((a, c), (b, d)), ((a, d), (b, c))):
                e1 = e1 if e1[0] < e1[1] else (e1[1], e1[0])
                e2 = e2 if e2[0] < e2[1] else (e2[1], e2[0])
                added = (1 << (e1[0] * n + e1[1])) | (1 << (e2[0] * n + e2[1]))
                if not rest & added:
                    yield i, j, e1, e2, rest | added


def _apply_move(edges: list[tuple[int, int]], move: _Move) -> list[tuple[int, int]]:
    """The edge list after a move: the untouched edges in order, then e1, e2."""
    i, j, e1, e2, _ = move
    return [e for k, e in enumerate(edges) if k != i and k != j] + [e1, e2]


def swap_search_gamma(
    degrees: "DegreeSequence | Iterable[int]",
    restarts: int = 20,
    seed: int = 0,
) -> Forest:
    """Heuristic search for a high-domination realization via edge swaps.

    Hill-climbs from realize_any (randomly perturbed on every restart
    after the first), taking the best strictly-improving rewiring and
    otherwise a random neutral one, at most 10 * n neutral steps per
    restart.  The result is always a realization of `degrees`, so its
    domination number never exceeds the closed-form maximum; reaching
    it is not guaranteed.  Each call memoizes the value of every edge
    set it meets, so the domination DP runs once per distinct forest.
    Zero entries take no part in the search; they are the trailing
    labels, so they come out as isolated vertices.  An all-zero
    sequence has the edgeless forest as its only realization.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.c == 0:
        return Forest(stats.n)
    rng = random.Random(seed)
    start = realize_any(seq.without_zeros())
    n = start.n
    start_mask = _edge_mask(n, start.edges)
    # edge-set bitmask -> domination number, or None for a cyclic edge set;
    # the value depends on the edge set alone, so the memo changes no
    # choice and no draw from rng.  Every edge set the search stands on is
    # the start or a move it took, so its value is always in here.
    memo: dict[int, "int | None"] = {start_mask: start.domination_number()[0]}

    def move_value(edges: list[tuple[int, int]], move: _Move) -> "int | None":
        key = move[4]
        if key not in memo:
            memo[key] = _forest_value(n, _apply_move(edges, move))
        return memo[key]

    best_forest = None
    best_gamma = -1
    for restart in range(restarts):
        edges = list(start.edges)
        mask = start_mask
        if restart > 0:
            for _ in range(3 * n):
                options = [
                    move
                    for move in _swap_moves(n, edges, mask)
                    if move_value(edges, move) is not None
                ]
                if not options:
                    break
                move = rng.choice(options)
                edges, mask = _apply_move(edges, move), move[4]
        current = memo[mask]
        assert current is not None
        neutral_budget = 10 * n
        while True:
            best_move = None
            best_move_gamma = current
            neutral: list[_Move] = []
            for move in _swap_moves(n, edges, mask):
                value = move_value(edges, move)
                if value is None:
                    continue
                if value > best_move_gamma:
                    best_move, best_move_gamma = move, value
                elif value == current:
                    neutral.append(move)
            if best_move is not None:
                edges, mask = _apply_move(edges, best_move), best_move[4]
                current = best_move_gamma
                continue
            if neutral and neutral_budget > 0:
                move = rng.choice(neutral)
                edges, mask = _apply_move(edges, move), move[4]
                neutral_budget -= 1
                continue
            break
        if current > best_gamma:
            best_gamma = current
            best_forest = Forest(stats.n, edges)
    assert best_forest is not None
    return best_forest
