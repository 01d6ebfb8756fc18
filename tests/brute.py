"""Independent oracles used only by the tests.

Deliberately written along different lines than the library: domination
and independence by subset search, realization enumeration by
include/exclude over the list of vertex pairs, acyclicity by comparing
edge and component counts, and isomorphism classes by a canonical
string per component, rooted at the centres found by trimming leaves.
These are only usable at toy sizes.  For large forests, domination and
independence also come from the classical linear greedy algorithms,
over a breadth-first search of their own.
"""

from __future__ import annotations

from itertools import combinations


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


def canonical_key(n: int, edges) -> str:
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
