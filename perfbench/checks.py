"""Output checks that do not trust the code under test.

Each check re-derives its verdict from the raw output with the benchmark's
own code, or compares it with a count known from outside forestdom:
Cayley's ``n^(n-2)`` labelled trees and the numbers of unlabelled trees.
A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
from collections import Counter
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

# Unlabelled trees on n vertices (OEIS A000055), n = 3..14.
UNLABELLED_TREES = {
    3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
    10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159,
}


class CheckFailed(Exception):
    """An output disagrees with what the benchmark knows to be true."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cli_payload(result: tuple[int, str], want_rc: int = 0) -> dict:
    """The JSON object a ``--json`` CLI call printed, after checking its exit code."""
    rc, out = result
    require(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    require(isinstance(payload, dict), "output is not a JSON object")
    return payload


def _adjacency(n: int, edges: Iterable[Sequence[int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        require(0 <= u < n and 0 <= v < n and u != v, f"bad edge ({u}, {v})")
        adj[u].append(v)
        adj[v].append(u)
    return adj


def check_forest_edges(n: int, edges: Sequence[Sequence[int]], degrees: Sequence[int], c: int) -> None:
    """The edges form a forest with c trees whose degrees are `degrees`."""
    require(len(degrees) == n, f"forest has {n} vertices, sequence has {len(degrees)}")
    require(len(edges) == n - c, f"{len(edges)} edges, a forest with {c} trees has {n - c}")
    adj = _adjacency(n, edges)
    require(
        Counter(len(nb) for nb in adj) == Counter(degrees),
        "degree sequence differs from the input",
    )
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        require(ru != rv, f"edge ({u}, {v}) closes a cycle")
        parent[rv] = ru


def check_forest_file(path, degrees: Sequence[int], c: int) -> None:
    """A written JSON forest realizes `degrees` with c trees."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    require(isinstance(doc, dict) and "n" in doc and "edges" in doc, "not a forest document")
    check_forest_edges(doc["n"], doc["edges"], degrees, c)


def check_dominating(n: int, edges, witness: Sequence[int], size: int) -> None:
    """`witness` has `size` vertices and every vertex is in it or next to it."""
    require(len(set(witness)) == len(witness) == size, f"witness size {len(witness)} != gamma {size}")
    chosen = [False] * n
    for v in witness:
        chosen[v] = True
    adj = _adjacency(n, edges)
    for v in range(n):
        require(chosen[v] or any(chosen[w] for w in adj[v]), f"vertex {v} is not dominated")


def check_independent(n: int, edges, witness: Sequence[int], size: int) -> None:
    """`witness` has `size` vertices and no edge joins two of them."""
    require(len(set(witness)) == len(witness) == size, f"witness size {len(witness)} != alpha {size}")
    chosen = set(witness)
    for u, v in edges:
        require(not (u in chosen and v in chosen), f"edge ({u}, {v}) inside the independent set")


def check_internal_domination(n: int, edges, chosen: Iterable[int]) -> None:
    """Every vertex of degree >= 2 is chosen or next to a chosen vertex, and
    at most ceil((n - 2) / 3) vertices are chosen (the tree bound)."""
    chosen = set(chosen)
    require(len(chosen) <= (n - 2 + 2) // 3, f"{len(chosen)} vertices exceed ceil((n-2)/3)")
    adj = _adjacency(n, edges)
    for v in range(n):
        if len(adj[v]) >= 2:
            require(v in chosen or any(w in chosen for w in adj[v]), f"inner vertex {v} uncovered")


def is_tree_sequence(degrees: Sequence[int]) -> bool:
    return sum(degrees) == 2 * len(degrees) - 2


def labellings(degrees: Sequence[int]) -> int:
    """Ways to hand a degree multiset to labelled vertices: n! / prod m_k!."""
    return factorial(len(degrees)) // prod(factorial(m) for m in Counter(degrees).values())


def cayley_mismatches(labeled: Mapping[tuple[int, ...], int]) -> list[int]:
    """Orders n whose tree sequences' labelled counts, weighted by their
    labellings, do not add up to Cayley's n^(n-2)."""
    totals: Counter = Counter()
    for degrees, count in labeled.items():
        if is_tree_sequence(degrees):
            totals[len(degrees)] += count * labellings(degrees)
    return sorted(n for n, total in totals.items() if total != n ** (n - 2))


def tree_count_mismatches(iso: Mapping[tuple[int, ...], int]) -> list[int]:
    """Orders n whose tree sequences' isomorphism-class counts do not add
    up to the number of unlabelled trees."""
    totals: Counter = Counter()
    for degrees, count in iso.items():
        if is_tree_sequence(degrees):
            totals[len(degrees)] += count
    return sorted(n for n, total in totals.items() if total != UNLABELLED_TREES.get(n))
