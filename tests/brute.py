"""Independent oracles used only by the tests.

Deliberately written along different lines than the library: domination
and independence by subset search, realization enumeration by
include/exclude over the list of vertex pairs, acyclicity by comparing
edge and component counts, and isomorphism classes and automorphism
counts by a canonical string per component, rooted at the centres found
by trimming leaves.
These are only usable at toy sizes.  For large forests, domination and
independence also come from the classical linear greedy algorithms and
from the rooted cost programs (in, covered or left for the parent; in
or out), each over a breadth-first search of its own.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial, prod


def brute_domination_number(n: int, edges) -> int:
    """Smallest dominating set size by exhaustive subset search."""
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            covered = set()
            for v in subset:
                covered |= closed[v]
            if len(covered) == n:
                return size
    raise AssertionError("the full vertex set always dominates")


def brute_internal_domination_number(n: int, edges) -> int:
    """Smallest set covering every vertex of degree >= 2, by subset search."""
    closed = [{v} for v in range(n)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    inner = {v for v in range(n) if len(closed[v]) >= 3}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            covered = set()
            for v in subset:
                covered |= closed[v]
            if inner <= covered:
                return size
    raise AssertionError("the full vertex set always covers")


def brute_independence_number(n: int, edges) -> int:
    """Largest independent set size by exhaustive subset search."""
    edge_set = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if all((a, b) not in edge_set for a, b in combinations(subset, 2)):
                return size
    raise AssertionError("the empty set is always independent")


def _bfs_parents(n: int, edges):
    """Adjacency lists, the vertices in breadth-first order from each
    smallest unseen label, and each vertex's parent (-1 at a root)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
    return adj, order, parent


def greedy_domination_number(n: int, edges) -> int:
    """Domination number of a forest by the deepest-first greedy
    (Cockayne, Goodman and Hedetniemi, 1975): an undominated vertex puts
    its parent in the set, or itself at a root."""
    adj, order, parent = _bfs_parents(n, edges)
    dominated = [False] * n
    size = 0
    for v in reversed(order):
        if dominated[v]:
            continue
        chosen = v if parent[v] < 0 else parent[v]
        size += 1
        dominated[chosen] = True
        for w in adj[chosen]:
            dominated[w] = True
    return size


def matching_independence_number(n: int, edges) -> int:
    """Independence number of a forest as n minus a maximum matching
    (Konig), the matching found by pairing each unmatched vertex, deepest
    first, with its unmatched parent."""
    _, order, parent = _bfs_parents(n, edges)
    matched = [False] * n
    pairs = 0
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            pairs += 1
    return n - pairs


def dp_domination_number(n: int, edges) -> tuple[int, frozenset[int]]:
    """Domination number of a forest and one witness set, by the rooted
    three-state cost program: each vertex is in the set, covered by a
    child, or left for its parent to cover.  A bottom-up sweep sums each
    vertex's three costs into its parent's; a top-down sweep then sets
    each vertex's state from its parent's, every tie going to the set."""
    _, order, parent = _bfs_parents(n, edges)
    inf = n + 1
    cost_in = [1] * n  # in the set: 1 + each child's least cost
    cost_open = [0] * n  # left for the parent: each child covered
    # covered by a child: each child's min(in, cov), plus penalty[v]:
    # 0 once some child prefers the set, 1 if none does (cost_in <=
    # cost_cov + 1 always holds), inf with no child
    cost_cov = [0] * n
    penalty = [inf] * n
    for v in reversed(order):
        c_in = cost_in[v]
        c_cov = cost_cov[v] + penalty[v]
        cost_cov[v] = c_cov
        p = parent[v]
        if p < 0:
            continue
        c_open = cost_open[v]
        cost_open[p] += c_cov
        if c_in <= c_cov:
            cost_in[p] += min(c_in, c_open)
            cost_cov[p] += c_in
            penalty[p] = 0
        else:
            cost_in[p] += min(c_cov, c_open)
            cost_cov[p] += c_cov
            if penalty[p] == inf:
                penalty[p] = 1
    IN, COV, OPEN = 0, 1, 2
    total = 0
    state = [IN] * n
    chosen = []
    for v in order:
        c_in = cost_in[v]
        c_cov = cost_cov[v]
        p = parent[v]
        if p < 0:
            total += min(c_in, c_cov)
            s = IN if c_in <= c_cov else COV
        elif state[p] == IN:
            c_open = cost_open[v]
            if c_in <= c_cov and c_in <= c_open:
                s = IN
            else:
                s = COV if c_cov <= c_open else OPEN
        elif state[p] == OPEN:
            s = COV
        else:
            # p is covered by a child, so p's penalty is 0 and some child
            # joins for free
            s = IN if c_in <= c_cov else COV
        state[v] = s
        if s == IN:
            chosen.append(v)
    return total, frozenset(chosen)


def dp_independence_number(n: int, edges) -> tuple[int, frozenset[int]]:
    """Independence number of a forest and one witness set, by the rooted
    two-state size program: a bottom-up sweep sums each vertex's sizes
    in and out of the set into its parent's; a top-down sweep takes a
    vertex when its parent is out and taking it is no worse."""
    _, order, parent = _bfs_parents(n, edges)
    size_in = [1] * n
    size_out = [0] * n
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            size_in[p] += size_out[v]
            size_out[p] += max(size_in[v], size_out[v])
    total = 0
    taken = [False] * n
    chosen = []
    for v in order:
        p = parent[v]
        if p < 0:
            total += max(size_in[v], size_out[v])
        if size_in[v] >= size_out[v] and (p < 0 or not taken[p]):
            taken[v] = True
            chosen.append(v)
    return total, frozenset(chosen)


def _is_forest(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return len(edges) == n - components


def brute_realizations(degrees):
    """Yield every labelled forest edge set where vertex i has degree
    degrees[i], by deciding each vertex pair in turn."""
    degrees = tuple(degrees)
    n = len(degrees)
    pairs = list(combinations(range(n), 2))
    remaining = list(degrees)
    # how many undecided pairs still touch each vertex
    slack = [n - 1] * n
    chosen: list[tuple[int, int]] = []

    def decide(idx: int):
        if idx == len(pairs):
            if all(r == 0 for r in remaining) and _is_forest(n, chosen):
                yield tuple(chosen)
            return
        u, v = pairs[idx]
        if remaining[u] > slack[u] or remaining[v] > slack[v]:
            return
        slack[u] -= 1
        slack[v] -= 1
        if remaining[u] > 0 and remaining[v] > 0:
            remaining[u] -= 1
            remaining[v] -= 1
            chosen.append((u, v))
            yield from decide(idx + 1)
            chosen.pop()
            remaining[u] += 1
            remaining[v] += 1
        yield from decide(idx + 1)
        slack[u] += 1
        slack[v] += 1

    yield from decide(0)


def _centred_trees(n: int, edges):
    """Adjacency lists and, for each component, its one or two centres,
    located by trimming leaf layers."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    centres = []
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
        centres.append(sorted(remaining))
    return adj, centres


def _rooted_code(adj, root: int, away: int) -> tuple[str, int]:
    """AHU encoding (Aho, Hopcroft and Ullman, 1974) of the subtree at
    ``root`` on the side away from ``away``, and the number of its
    automorphisms that fix the root: k! * |Aut(child)|^k for each group
    of k equal child subtrees, at every vertex."""
    # iterative post-order over the subtree
    order = []
    stack = [(root, away)]
    while stack:
        v, par = stack.pop()
        order.append((v, par))
        for w in adj[v]:
            if w != par:
                stack.append((w, v))
    enc: dict[int, str] = {}
    aut: dict[int, int] = {}
    for v, par in reversed(order):
        children = [w for w in adj[v] if w != par]
        parts = sorted(enc[w] for w in children)
        count = prod(aut[w] for w in children)
        for copies in Counter(parts).values():
            count *= factorial(copies)
        enc[v] = "(" + "".join(parts) + ")"
        aut[v] = count
    return enc[root], aut[root]


def canonical_key(n: int, edges) -> str:
    """Isomorphism-invariant encoding: sorted centre-rooted encodings
    of the components, one per component."""
    adj, centres = _centred_trees(n, edges)
    keys = [min(_rooted_code(adj, c, -1)[0] for c in pair) for pair in centres]
    return "|".join(sorted(keys))


def aut_count(n: int, edges) -> int:
    """Order of the automorphism group of a forest.

    Each tree counts its automorphisms fixing its centre, times 2 when
    it is bicentral with two equal halves; the forest multiplies its
    trees' counts and k! for each group of k equal trees, isolated
    vertices included.
    """
    adj, centres = _centred_trees(n, edges)
    count = 1
    keys = []
    for pair in centres:
        if len(pair) == 1:
            key, aut = _rooted_code(adj, pair[0], -1)
        else:
            a, b = pair
            key_a, aut_a = _rooted_code(adj, a, b)
            key_b, aut_b = _rooted_code(adj, b, a)
            key = min(key_a, key_b) + max(key_a, key_b)
            aut = aut_a * aut_b * (2 if key_a == key_b else 1)
        count *= aut
        keys.append(key)
    for copies in Counter(keys).values():
        count *= factorial(copies)
    return count
