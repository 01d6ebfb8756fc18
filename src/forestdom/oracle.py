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
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod
from typing import Iterable, Iterator

from .construct import realize_any
from .degseq import DegreeSequence, SequenceStats, as_degree_sequence, validate
from .forest import Forest, ForestError, _dominate, _independent

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

    ``degrees`` must be a validated forest sequence.  By Prufer codes
    (Moon, *Counting Labelled Trees*, 1970), the forests on the n
    positive entries rooted at a c-set R, one root per tree, with k_v
    children at v, number (n-c-1)! sum_{r in R} k_r / prod k_v!: a code
    of length n - c that ends in R and holds v k_v times.  Weight root
    s by 2 - d_s.  A tree has |T| - 1 edges, so its weights add up to
    2, and the sum over all c-sets R counts each forest 2^c times.  With
    j_k roots among the m_k vertices of degree v_k, sum j_k = c,

        count = (n-c-1)! / (2^c prod d_v!) * sum_j (sum_k j_k v_k)
                * prod_k C(m_k, j_k) (2 - v_k)^j_k v_k^(m_k - j_k).

    Degree 2 weighs 0, so its j is 0 and its 2^m cancels its 2!^m;
    leaves take the roots that degrees >= 3 leave over.  Zero entries
    are isolated vertices; the empty forest counts 1.
    """
    tally = Counter(d for d in degrees if d)
    if not tally:
        return 1
    n = sum(tally.values())
    trees = n - sum(degrees) // 2
    inner = [d for d in tally if d > 2]
    total = 0
    for picks in product(*(range(tally[d] + 1) for d in inner)):
        leaves = trees - sum(picks)
        if leaves >= 0:
            term = leaves + sum(j * d for j, d in zip(picks, inner))
            term *= comb(tally[1], leaves)
            for j, d in zip(picks, inner):
                term *= comb(tally[d], j) * (2 - d) ** j * d ** (tally[d] - j)
            total += term
    scale = 2**trees * prod(factorial(d) ** tally[d] for d in inner)
    return factorial(n - trees - 1) * total // scale


# A planted tree is a rooted tree whose root also has a parent outside
# it, held as (height, degree index, children); the children are planted
# trees in turn, shared by every tree that uses them.
_Planted = tuple[int, int, tuple]


def _groupings(
    rest: int,
    count: int,
    rows: list[list[int]],
    marks: dict[int, int],
    low: int,
    field: int,
    guard: int,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every way to split the multiset ``rest`` into ``count`` parts
    drawn from ``rows``, once each, as ``(part, copies)`` groups.

    Multisets are packed as in ``_iso_edge_sets``.  ``rows[t]`` lists, in
    descending order, the parts whose first non-zero count is at degree
    index ``t``, and every key with a non-zero mark sits in its row; a
    part is offered only when ``marks.get(part, 0) & low`` is set.
    Distinct parts are taken in descending order, so the
    next part always covers the first remaining degree; an explicit
    stack keeps the depth off the interpreter's.  Every part has the
    same degree total relative to its size, so ``count`` is fixed by
    ``rest`` and empties exactly when ``rest`` does.
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
            # a marked rest sits in this row, which descends, so it is in
            # row[start:] iff it is no larger than row[start]
            if marks.get(rest, 0) & low and start < len(row) and rest <= row[start]:
                yield groups + ((rest, 1),)
            continue
        for i in range(start, len(row)):
            part = row[i]
            if not marks.get(part, 0) & low:
                continue
            left = held - part
            copies = 1
            while copies <= count and left & guard == guard:
                if copies < count or left == guard:
                    chosen = groups + ((part, copies),)
                    stack.append((left, count - copies, t, i + 1, chosen))
                left -= part
                copies += 1


def _picks(groups) -> Iterator[tuple]:
    """One tree per part: a multiset of ``copies`` trees from each
    ``(trees, copies)`` group.  A split has few groups, so joining their
    tuples with ``sum`` costs less than a chain object per pick."""
    options = [combinations_with_replacement(trees, copies) for trees, copies in groups]
    for chosen in product(*options):
        yield sum(chosen, ())


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

    Only planted trees that some yielded tree can use are built.  With c
    trees on n positive entries, no tree has more than L = n - 2(c - 1)
    vertices, and a planted tree of size s and height h inside a
    centre-rooted tree T has s + h + 1 <= |T| <= L, as the tallest
    other child of the centre, or the other half, is at least as tall.
    So a root of size s takes children no taller than L - 2 - s, and a
    centre no taller than (|T| - 3) / 2; a split offers a part only if
    it has a tree under that cap, and a centre's split is expanded only
    if some height can hold two of its children.  These cuts drop only
    trees that no yielded forest holds, so the yield order is unchanged.
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
    planted_rows: list[list[int]] = [[] for _ in range(width)]
    planted_keys = []
    # A tree has n1 = 2 + sum (d - 2) leaves over its inner vertices (the
    # leaf identity n1 = 2c + sum (d - 2) at c = 1), and a planted tree
    # one fewer.  So each vector of inner counts, with excess sum (d - 2),
    # has one planted multiset (excess + 1 ones) and one tree multiset
    # (excess + 2 ones): no other number of ones gives a total of 2|S| - 1
    # or 2|S| - 2.  Both fit, as the whole sequence has 2c plus the full
    # excess ones.  Ones, when present, are the last field; the all-zero
    # sequence has no field and no multisets, only the empty forest.
    if width:
        ones = unit[-1]
        for counts in product(*(range(m + 1) for m in full[:-1])):
            excess = sum(m * (d - 2) for m, d in zip(counts, values))
            key = sum(m * u for m, u in zip(counts, unit)) + (excess + 1) * ones
            row = next((j for j, m in enumerate(counts) if m), width - 1)
            planted_keys.append((sum(counts) + excess + 1, key))
            planted_rows[row].append(key)
    for row in planted_rows:
        row.sort(reverse=True)
    # each tree key is its planted key plus a one, which keeps a row
    # descending; with no keys, `ones` is never read
    tree_rows = [[key + ones for key in row] for row in planted_rows]
    tree_sizes = {key + ones: s + 1 for s, key in planted_keys}

    whole = sum(m * u for m, u in zip(full, unit))
    components = sum(full) - sum(m * d for m, d in zip(full, values)) // 2
    limit = sum(full) - 2 * (components - 1)  # L: other trees take 2 or more
    planted: dict[int, list[_Planted]] = {}
    heights: dict[int, int] = {}  # bit h is set when planted[key] has height h

    def centre_height(groups: tuple, cap: int) -> int:
        """The tallest t <= cap at which every part has a tree no taller
        than t and two children can stand at height t, else -1."""
        # as height bitmasks: heights some part has, heights two children
        # can take, and the highest of the parts' lowest heights
        once = twice = floor = 0
        for part, copies in groups:
            bits = heights[part]
            twice |= once & bits | (bits if copies > 1 else 0)
            once |= bits
            floor = max(floor, bits & -bits)
        return (twice & ((2 << cap) - 1) & -floor).bit_length() - 1

    def rooted(key: int, planted_root: bool, cap: int) -> Iterator[tuple[int, tuple]]:
        """(root degree index, children) for every root in ``key`` and
        every multiset of planted children of height at most ``cap`` on
        the rest of ``key``; a planted root has one child fewer than its
        degree."""
        for j in range(width):
            if (key | guard) - unit[j] & guard != guard:
                continue
            rest = key - unit[j]
            if values[j] == 1:
                if not rest:
                    yield j, ()
                continue
            parts = values[j] - 1 if planted_root else values[j]
            low = (2 << cap) - 1
            splits = _groupings(rest, parts, planted_rows, heights, low, field, guard)
            for groups in splits:
                top = cap if planted_root else centre_height(groups, cap)
                if top >= 0:
                    fitted = [
                        ([p for p in planted[part] if p[0] <= top], copies)
                        for part, copies in groups
                    ]
                    for children in _picks(fitted):
                        yield j, children

    # Bottom up by size: a part is always smaller than the multiset it
    # splits.  A subtree of size s' and height h' of a planted tree has
    # s' + h' <= s + h - 2, so the cap s + h + 1 <= limit holds all the
    # way down.  Every cap reads the one `planted_rows`, built once: a key
    # not built yet, too big to be a part, has no height mask to offer.
    for s, key in sorted(planted_keys):
        cap = limit - 2 - s
        if s > 1 and cap < 0:
            break  # past the leaf, every planted root has a child
        trees = [
            (1 + max(c[0] for c in children) if children else 0, j, children)
            for j, children in rooted(key, True, cap)
        ]
        if trees:
            planted[key] = trees
            heights[key] = 0
            for p in trees:
                heights[key] |= 1 << p[0]

    def free_trees(key: int, size: int) -> list[tuple[int, tuple]]:
        """Centre-rooted trees on ``key`` as (root degree index, children).

        Two children of height t and the centre take 2t + 3 <= size
        vertices."""
        cap = (size - 3) // 2
        trees = []
        if cap >= 0:
            for j, children in rooted(key, False, cap):
                tallest = max(c[0] for c in children)
                if sum(1 for c in children if c[0] == tallest) >= 2:
                    trees.append((j, children))
        for half in planted:
            other = key - half
            # packed sums never carry, so a planted other holds the rest
            if other > half or other not in planted:
                continue
            if other == half:
                pairs = combinations_with_replacement(planted[half], 2)
            else:
                pairs = product(planted[half], planted[other])
            trees.extend((a[1], a[2] + (b,)) for a, b in pairs if a[0] == b[0])
        return trees

    tree_memo: dict[int, list[tuple[int, tuple]]] = {}
    # every tree part of a c-way split has at most L vertices, so it has a
    # tree: its positive size meets a mask of all ones
    splits = _groupings(whole, components, tree_rows, tree_sizes, -1, field, guard)
    for groups in splits:
        for part, _ in groups:
            if part not in tree_memo:
                tree_memo[part] = free_trees(part, tree_sizes[part])
        for forest in _picks([(tree_memo[part], copies) for part, copies in groups]):
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
                    if grand:
                        stack += [(v, child) for child in grand]
            yield tuple(edges)


def _checked_walk(
    degrees: "DegreeSequence | Iterable[int]", iso_dedup: bool, cap: int
) -> tuple[SequenceStats, Iterator[tuple[tuple[int, int], ...]]]:
    """The sequence's counts and the edge sets of its realizations,
    after the checks that both public walks make."""
    if type(cap) is not int:
        raise ValueError(f"cap must be an integer, got {cap!r}")
    seq = as_degree_sequence(degrees)
    stats = validate(seq)
    if stats.n - stats.n0 > cap:
        raise SizeCapExceededError(
            f"positive part has {stats.n - stats.n0} entries, cap is {cap}"
        )
    walk = _iso_edge_sets if iso_dedup else _labeled_edge_sets
    return stats, walk(seq.degrees)


def enumerate_realizations(
    degrees: "DegreeSequence | Iterable[int]",
    iso_dedup: bool = False,
    cap: int = DEFAULT_SIZE_CAP,
) -> Iterator[Forest]:
    """Stream every realization, or with iso_dedup one per isomorphism
    class, each built once by construction.

    Vertex i has degree ``degrees[i]`` in the non-increasing order of the
    sequence, so zero entries are the trailing, isolated vertices.
    ``cap`` must be of type ``int`` exactly, as degrees must.
    """
    stats, edge_sets = _checked_walk(degrees, iso_dedup, cap)
    for edges in edge_sets:
        yield Forest(stats.n, edges)


def _walk_order(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[list[int], list[int]]:
    """Order and parent array of a forest that the iso walk yields, as
    ``Forest._rooted`` gives them, rooted where the walk rooted it.

    Each ``(p, v)`` edge is emitted after ``p`` is placed, so the roots,
    isolated vertices included, followed by every ``v`` in emission
    order meet each vertex after its parent.
    """
    parent = [-1] * n
    for p, v in edges:
        parent[v] = p
    order = [v for v in range(n) if parent[v] < 0]
    order += [v for _, v in edges]
    return order, parent


def empirical_extremes(
    degrees: "DegreeSequence | Iterable[int]", cap: int = DEFAULT_SIZE_CAP
) -> EnumerationReport:
    """Fold domination/independence extremes over every realization.

    Statistics and witnesses come from the one forest per isomorphism
    class that ``enumerate_realizations(iso_dedup=True)`` yields, which
    realizes the same extremes because relabelling changes neither
    number.  Both greedy folds run over the walk's own edges, so only a
    class that sets a new value becomes a ``Forest``; once the walk has
    validated the sequence, the labelled count comes from
    ``_labeled_count`` in closed form.  Each witness is the first class
    in yield order that takes its extreme.
    """
    seq = as_degree_sequence(degrees)
    stats, edge_sets = _checked_walk(seq, True, cap)
    n = stats.n
    iso = 0
    # value -> the first class that takes it
    gammas: dict[int, Forest] = {}
    alphas: dict[int, Forest] = {}
    for edges in edge_sets:
        iso += 1
        order, parent = _walk_order(n, edges)
        gamma = len(_dominate(order, parent, [False] * (n + 1)))
        alpha = len(_independent(order, parent))
        if gamma not in gammas or alpha not in alphas:
            forest = Forest(n, edges)
            gammas.setdefault(gamma, forest)
            alphas.setdefault(alpha, forest)
    return EnumerationReport(
        sequence=seq,
        realization_count_labeled=_labeled_count(seq.degrees),
        realization_count_iso=iso,
        gamma_min=min(gammas),
        gamma_max=max(gammas),
        alpha_min=min(alphas),
        alpha_max=max(alphas),
        witness_gamma_max=gammas[max(gammas)],
        witness_alpha_min=alphas[min(alphas)],
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
    if type(max_n) is not int:
        raise ValueError(f"max_n must be an integer, got {max_n!r}")
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
    """The edge list after a move: the untouched edges in order, then e1, e2.

    ``edges`` is left as it was.  The move must have ``i < j``, as
    ``_swap_moves`` and ``_ranked`` give it, so that deleting ``j`` first
    leaves ``i`` in place.
    """
    i, j, e1, e2, _ = move
    out = edges.copy()
    del out[j], out[i]
    out += e1, e2
    return out


# (x, y, e1, e2, key): a move held by its edges rather than their
# positions.  With x = (a, b) and y = (c, d), e1 and e2 are (a, c), (b, d),
# or (a, d), (b, c) when crossed, each with its smaller end first; as x
# and y are disjoint, d is in e1 exactly when they are crossed.
_PlanMove = tuple[
    tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int], int
]
# an edge set's moves onto forests, its best moves if they beat its own
# value (else none) and its neutral moves, which keep that value, each
# grouped by value rather than in scan order: _ranked sorts them
_Plan = tuple[list[_PlanMove], list[_PlanMove], list[_PlanMove]]


def _plan(n: int, edges: list[tuple[int, int]], mask: int, memo: dict) -> _Plan:
    """Scan the moves of the edge set ``mask`` once, in any edge order.

    ``memo`` maps edge-set bitmasks to their ``_forest_value`` and must
    hold ``mask``; the values of the moves' edge sets are added to it.
    """
    current = memo[mask]
    # value -> its moves onto forests, out of scan order, which _ranked restores
    by_value: dict[int, list[_PlanMove]] = {}
    for move in _swap_moves(n, edges, mask):
        i, j, e1, e2, key = move
        if key not in memo:
            memo[key] = _forest_value(n, _apply_move(edges, move))
        value = memo[key]
        if value is None:
            continue
        entry = (edges[i], edges[j], e1, e2, key)
        by_value.setdefault(value, []).append(entry)
    onto = [entry for moves in by_value.values() for entry in moves]
    top = max(by_value, default=current)
    best = by_value[top] if top > current else []
    return onto, best, by_value.get(current, [])


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
    for x, y, e1, e2, key in moves:
        i, j = pos[x], pos[y]
        if i < j:
            ranked.append((i, j, e1, e2, key))
        elif y[1] in e1:  # crossed
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
    it is not guaranteed.  The first restart to reach the best value
    wins.  Each call memoizes the value of every edge set it meets, so
    the domination greedy runs once per distinct forest.
    It also scans the moves of every edge set it stands on only once,
    into a ``_plan``; a later visit ranks the plan's moves by the
    current edge order, which is all the scan order depends on.  So
    every choice, and every draw from the seeded generator, is the one
    a fresh scan would give.  Zero entries take no part in the search;
    they are the trailing labels, so they come out as isolated
    vertices.  An all-zero sequence has the edgeless forest as its only
    realization.
    """
    if type(restarts) is not int:
        raise ValueError(f"restarts must be an integer, got {restarts!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    # Random(-s) draws what Random(s) does, and None draws from the OS
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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

    # domination number -> the edges of the first restart to end on it
    finals: dict[int, list[tuple[int, int]]] = {}
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
        finals.setdefault(current, edges)
    return Forest(stats.n, finals[max(finals)])
