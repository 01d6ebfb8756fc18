"""Exhaustive ground truth over all forest realizations of a sequence.

Isomorphism-aware runs build one forest per isomorphism class by
construction: trees are grown from their centres out of planted subtrees
over sub-multisets of the degrees, with children chosen as multisets, so
no class is met twice and none needs a canonical encoding to be
recognised.  The labelled enumerator assigns the remaining edge slots of
the lowest unfinished vertex in every way that keeps the graph simple
and acyclic, so it visits each labelled realization exactly once.  The
number of labelled realizations is counted in closed form, without
walking them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, product
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


def _choices(
    u: int, residual: list[int], tree: list[int], edges: tuple[tuple[int, int], ...]
) -> Iterator[tuple[list[int], list[int], tuple[tuple[int, int], ...]]]:
    """Each way, in lexicographic order, for vertex ``u`` to fill its
    open slots from the later open vertices, joining distinct trees.

    ``tree[v]`` labels the tree that holds ``v``.  Every choice comes
    out as a fresh ``(residual, tree, edges)`` state, with the merged
    trees relabelled in a copied list, so nothing needs undoing.
    """
    candidates = [v for v in range(u + 1, len(residual)) if residual[v] > 0]
    own = tree[u]
    for picked in combinations(candidates, residual[u]):
        joined = {tree[v] for v in picked}
        if own in joined or len(joined) < len(picked):
            continue
        left = residual.copy()
        left[u] = 0
        for v in picked:
            left[v] -= 1
        merged = [own if t in joined else t for t in tree]
        yield left, merged, edges + tuple([(u, v) for v in picked])


def _labeled_edge_sets(
    degrees: tuple[int, ...]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the edge set of every labelled forest where vertex i has
    degree degrees[i] (assumed non-increasing).

    The lowest vertex with slots left takes its neighbours among the
    later ones, in every way that joins distinct trees.  The walk keeps
    one iterator of states per such vertex on an explicit stack, so its
    depth is bounded by memory rather than by the interpreter's
    recursion limit.
    """
    n = len(degrees)
    frames = [iter([(list(degrees), list(range(n)), ())])]
    while frames:
        state = next(frames[-1], None)
        if state is None:
            frames.pop()
            continue
        residual, tree, edges = state
        u = next(filter(residual.__getitem__, range(n)), n)  # lowest open vertex
        if u == n:
            yield edges
        else:
            frames.append(_choices(u, residual, tree, edges))


def _labeled_count(degrees: tuple[int, ...]) -> int:
    """Number of labelled forests where vertex i has degree degrees[i].

    ``degrees`` must be a validated forest sequence.  A labelled tree on
    a vertex set B with degrees d_v has (|B|-2)! / prod (d_v - 1)!
    Prufer codes (Moon, *Counting Labelled Trees*, 1970), so the forests
    are the splits of the positive entries into tree blocks B with
    sum d = 2|B| - 2, weighted by that product.  Vertices of equal degree
    are interchangeable, so the count folds up over the number of trees
    c: a c-tree forest on inner multiplicities m has 2c + sum m (d - 2)
    leaves, and removing the block that holds one fixed leaf, its other
    members chosen by binomials, leaves a (c-1)-tree forest.  Zero
    entries are isolated vertices; the empty forest counts 1.
    """
    tally = Counter(d for d in degrees if d > 1)
    inner = sorted(tally)
    full = tuple(tally[d] for d in inner)
    trees = (degrees.count(1) - sum(m * (d - 2) for m, d in zip(full, inner))) // 2
    # level c: multiplicities -> number of c-tree forests on them; level 0
    # holds the empty forest alone, every later level each vector
    level = {(0,) * len(inner): 1}
    for c in range(1, trees + 1):
        counts = {}
        for left in product(*(range(m + 1) for m in full)) if c < trees else [full]:
            leaves = 2 * c + sum(m * (d - 2) for m, d in zip(left, inner))
            total = 0
            for take in product(*(range(m + 1) for m in left)):
                rest = level.get(tuple(m - j for m, j in zip(left, take)))
                if rest is None:
                    continue
                # a tree has 2 + sum (d - 2) leaves over its inner vertices
                block_leaves = 2 + sum(j * (d - 2) for j, d in zip(take, inner))
                size = block_leaves + sum(take)
                ways = factorial(size - 2) * comb(leaves - 1, block_leaves - 1)
                for j, d, m in zip(take, inner, left):
                    ways = ways * comb(m, j) // factorial(d - 1) ** j
                total += ways * rest
            counts[left] = total
        level = counts
    return level[full]


# A planted tree is a rooted tree whose root also has a parent outside
# it, held as (height, degree index, children); the children are planted
# trees in turn, shared by every tree that uses them.
_Planted = tuple[int, int, tuple]


def _groupings(
    rest: int, count: int, rows: list[list[int]], field: int, guard: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every way to split the multiset ``rest`` into ``count`` parts
    drawn from ``rows``, once each, as ``(part, copies)`` groups.

    Multisets are packed as in ``_iso_edge_sets``.  ``rows[t]`` lists, in
    descending order, the allowed parts whose first non-zero count is at
    degree index ``t``.  Distinct parts are taken in descending order,
    so the next part always covers the first remaining degree; an
    explicit stack keeps the depth off the interpreter's.  Every allowed
    part has the same degree total relative to its size, so ``count`` is
    fixed by ``rest`` and empties exactly when ``rest`` does.
    """
    last = len(rows) - 1
    stack = [(rest | guard, count, -1, 0, ())]
    while stack:
        held, count, row_prev, pos, groups = stack.pop()
        rest = held ^ guard
        if not rest:
            yield groups
            continue
        t = last - (rest.bit_length() - 1) // field
        row = rows[t]
        start = pos if t == row_prev else 0
        if count == 1:
            if rest in row[start:]:
                yield groups + ((rest, 1),)
            continue
        for i in range(start, len(row)):
            part = row[i]
            left = held - part
            copies = 1
            while copies <= count and left & guard == guard:
                if copies < count or left == guard:
                    chosen = groups + ((part, copies),)
                    stack.append((left, count - copies, t, i + 1, chosen))
                left -= part
                copies += 1


def _picks(groups, memo) -> Iterator[tuple]:
    """One tree per part: a multiset of ``copies`` trees from each group."""
    for chosen in product(
        *(combinations_with_replacement(memo[part], copies) for part, copies in groups)
    ):
        yield tuple(chain.from_iterable(chosen))


def _iso_edge_sets(degrees: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield one edge set per isomorphism class of the forests where
    vertex i has degree degrees[i] (assumed non-increasing).

    Every class is built once, by construction, over sub-multisets of
    the positive degrees.  A planted tree on a sub-multiset S has degree
    total 2|S| - 1; its root of degree d has a multiset of d - 1 planted
    children, one per part of a split of the rest of S.  A free tree
    (total 2|S| - 2) is rooted at its centre (Wright, Richmond, Odlyzko
    and McKay, 1986): a vertex of degree d with d planted children whose
    two tallest have equal height, or an unordered pair of planted
    halves of equal height joined at the central edge.  A forest is a
    multiset of trees over a split of the whole multiset.  Equal parts
    choose their trees as combinations with replacement, so no two
    choices give isomorphic forests.  Vertices of one degree take
    consecutive labels, from where that degree starts in ``degrees``.
    """
    values = sorted({d for d in degrees if d > 0}, reverse=True)
    width = len(values)
    first_label = [degrees.index(d) for d in values]
    full = [degrees.count(d) for d in values]
    # A multiset is one int: the count of values[j] sits in the j-th
    # field of `field` bits from the top, under a guard bit that stays
    # set unless a subtraction takes that count below zero.  Integer
    # order is then lexicographic order of the count vectors.
    field = max(full, default=0).bit_length() + 1
    guard = sum(1 << (field * (j + 1) - 1) for j in range(width))
    unit = [1 << (field * (width - 1 - j)) for j in range(width)]

    def within(key: int, part: int) -> bool:
        return (key | guard) - part & guard == guard

    planted_rows: list[list[int]] = [[] for _ in range(width)]
    tree_rows: list[list[int]] = [[] for _ in range(width)]
    planted_keys = []
    for counts in product(*(range(m + 1) for m in full)):
        size = sum(counts)
        total = sum(m * d for m, d in zip(counts, values))
        key = sum(m * u for m, u in zip(counts, unit))
        if size and total == 2 * size - 1:
            planted_keys.append((size, key))
            rows = planted_rows
        elif size and total == 2 * size - 2:
            rows = tree_rows
        else:
            continue
        rows[next(j for j, m in enumerate(counts) if m)].append(key)
    for row in planted_rows + tree_rows:
        row.sort(reverse=True)

    def rooted(key: int, planted_root: bool) -> Iterator[tuple[int, tuple]]:
        """(root degree index, children) for every root in ``key`` and
        every multiset of planted children on the rest of ``key``; a
        planted root has one child fewer than its degree."""
        for j in range(width):
            if not within(key, unit[j]):
                continue
            rest = key - unit[j]
            if values[j] == 1:
                if not rest:
                    yield j, ()
                continue
            parts = values[j] - 1 if planted_root else values[j]
            for groups in _groupings(rest, parts, planted_rows, field, guard):
                for children in _picks(groups, planted):
                    yield j, children

    # bottom up by size: a part is always smaller than the multiset it splits
    planted: dict[int, list[_Planted]] = {}
    for _, key in sorted(planted_keys):
        planted[key] = [
            (1 + max(c[0] for c in children) if children else 0, j, children)
            for j, children in rooted(key, True)
        ]

    def free_trees(key: int) -> list[tuple[int, tuple]]:
        """Centre-rooted trees on ``key`` as (root degree index, children)."""
        trees = []
        for j, children in rooted(key, False):
            tallest = max(c[0] for c in children)
            if sum(1 for c in children if c[0] == tallest) >= 2:
                trees.append((j, children))
        for half in planted:
            other = key - half
            if other > half or not within(key, half) or other not in planted:
                continue
            if other == half:
                pairs = combinations_with_replacement(planted[half], 2)
            else:
                pairs = product(planted[half], planted[other])
            trees.extend((a[1], a[2] + (b,)) for a, b in pairs if a[0] == b[0])
        return trees

    tree_memo: dict[int, list[tuple[int, tuple]]] = {}
    whole = sum(m * u for m, u in zip(full, unit))
    components = sum(full) - sum(m * d for m, d in zip(full, values)) // 2
    for groups in _groupings(whole, components, tree_rows, field, guard):
        for part, _ in groups:
            if part not in tree_memo:
                tree_memo[part] = free_trees(part)
        for forest in _picks(groups, tree_memo):
            label = list(first_label)
            edges = []
            for j, children in forest:
                root = label[j]
                label[j] += 1
                stack = [(root, child) for child in children]
                while stack:
                    parent, (_, t, grand) = stack.pop()
                    v = label[t]
                    label[t] += 1
                    edges.append((parent, v))
                    stack.extend((v, child) for child in grand)
            yield tuple(edges)


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
    """Stream every realization, or with iso_dedup one per isomorphism
    class, each built once by construction.

    Vertex i has degree ``degrees[i]`` in the non-increasing order of the
    sequence, so zero entries are the trailing, isolated vertices.
    """
    _, degs = _checked(degrees, cap)
    n = len(degs)
    walk = _iso_edge_sets if iso_dedup else _labeled_edge_sets
    for edges in walk(degs):
        yield Forest(n, edges)


def empirical_extremes(
    degrees: "DegreeSequence | Iterable[int]", cap: int = DEFAULT_SIZE_CAP
) -> EnumerationReport:
    """Fold domination/independence extremes over every realization.

    The labelled count comes from ``_labeled_count`` in closed form;
    statistics and witnesses come from the one forest per isomorphism
    class that ``enumerate_realizations(iso_dedup=True)`` builds, which
    realizes the same extremes because relabelling changes neither
    number.
    """
    seq, degs = _checked(degrees, cap)
    n = len(degs)
    labeled = _labeled_count(degs)
    iso = 0
    gamma_lo = alpha_lo = n + 1
    gamma_hi = alpha_hi = -1
    best_gamma = best_alpha = None
    for edges in _iso_edge_sets(degs):
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


# (x, y, crossed, e1, e2, key): a move held by its edges rather than their
# positions.  With x = (a, b) and y = (c, d), e1 and e2 are (a, c), (b, d),
# or (a, d), (b, c) when crossed, each with its smaller end first.
_PlanMove = tuple[
    tuple[int, int], tuple[int, int], bool, tuple[int, int], tuple[int, int], int
]
# an edge set's moves onto forests, its best moves if they beat its own
# value (else none) and its neutral moves, which keep that value
_Plan = tuple[list[_PlanMove], list[_PlanMove], list[_PlanMove]]


def _plan(n: int, edges: list[tuple[int, int]], mask: int, memo: dict) -> _Plan:
    """Scan the moves of the edge set ``mask`` once, in any edge order.

    ``memo`` maps edge-set bitmasks to their ``_forest_value`` and must
    hold ``mask``; the values of the moves' edge sets are added to it.
    """
    current = memo[mask]
    onto: list[_PlanMove] = []
    best: list[_PlanMove] = []
    neutral: list[_PlanMove] = []
    top = current
    for move in _swap_moves(n, edges, mask):
        i, j, e1, e2, key = move
        if key not in memo:
            memo[key] = _forest_value(n, _apply_move(edges, move))
        value = memo[key]
        if value is None:
            continue
        y = edges[j]
        entry = (edges[i], y, y[1] in e1, e1, e2, key)
        onto.append(entry)
        if value > top:
            top, best = value, [entry]
        elif value == top > current:
            best.append(entry)
        if value == current:
            neutral.append(entry)
    return onto, best, neutral


def _ranked(moves: list[_PlanMove], edges: list[tuple[int, int]]) -> list[_Move]:
    """The moves as ``_swap_moves`` yields them for this order of ``edges``.

    That order is by the positions of the two edges, then the straight
    pairing before the crossed one.  Seen from y, the crossed pairing
    lists x's second end first, so its e1 and e2 trade places when y
    comes before x.  Every edge has its smaller end first, so for one
    pair of edges the straight e1 is always the smaller: the moves sort
    as tuples.
    """
    pos = {e: k for k, e in enumerate(edges)}
    ranked = []
    for x, y, crossed, e1, e2, key in moves:
        i, j = pos[x], pos[y]
        if i < j:
            ranked.append((i, j, e1, e2, key))
        elif crossed:
            ranked.append((j, i, e2, e1, key))
        else:
            ranked.append((j, i, e1, e2, key))
    ranked.sort()
    return ranked


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
    It also scans the moves of every edge set it stands on only once,
    into a ``_plan``; a later visit ranks the plan's moves by the
    current edge order, which is all the scan order depends on.  So
    every choice, and every draw from the seeded generator, is the one
    a fresh scan would give.  Zero entries take no part in the search;
    they are the trailing labels, so they come out as isolated
    vertices.  An all-zero sequence has the edgeless forest as its only
    realization.
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
    # edge-set bitmask -> domination number, or None for a cyclic edge set.
    # Every edge set the search stands on is the start or a move it took,
    # so its value is always in here.
    memo: dict[int, "int | None"] = {start_mask: start.domination_number()[0]}
    plans: dict[int, _Plan] = {}

    def plan(edges: list[tuple[int, int]], mask: int) -> _Plan:
        if mask not in plans:
            plans[mask] = _plan(n, edges, mask, memo)
        return plans[mask]

    best_forest = None
    best_gamma = -1
    for restart in range(restarts):
        edges = list(start.edges)
        mask = start_mask
        if restart > 0:
            for _ in range(3 * n):
                options = plan(edges, mask)[0]
                if not options:
                    break
                move = rng.choice(_ranked(options, edges))
                edges, mask = _apply_move(edges, move), move[4]
        neutral_budget = 10 * n
        while True:
            _, best, neutral = plan(edges, mask)
            if best:
                # the first move, in scan order, that reaches the best value
                move = _ranked(best, edges)[0]
            elif neutral and neutral_budget > 0:
                move = rng.choice(_ranked(neutral, edges))
                neutral_budget -= 1
            else:
                break
            edges, mask = _apply_move(edges, move), move[4]
        current = memo[mask]
        assert current is not None
        if current > best_gamma:
            best_gamma = current
            best_forest = Forest(stats.n, edges)
    assert best_forest is not None
    return best_forest
