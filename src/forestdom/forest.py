"""Forests on labelled vertices with exact domination/independence solvers.

Vertices are the integers ``0 .. n-1``.  A ``Forest`` is immutable after
construction and validates itself (no loops, no parallel edges, no
cycles).  Solvers run linear-time dynamic programs per component; every
tie resolves toward smaller labels, so all outputs are deterministic.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator

from .degseq import DegreeSequence

VertexSet = frozenset[int]


class ForestError(ValueError):
    """Base class for malformed forest inputs."""


class SelfLoopError(ForestError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(ForestError):
    """The same vertex pair appears twice."""


class CycleDetectedError(ForestError):
    """The edge set contains a cycle."""


class LabelOutOfRangeError(ForestError):
    """An endpoint is not in 0 .. n-1."""


class NotConnectedError(ForestError):
    """The operation needs a single tree component."""


class ForestFormatError(ForestError):
    """A forest file or string does not follow either format."""


class Forest:
    """A simple acyclic undirected graph, held as a value object.

    ``edges`` is normalized to smaller-endpoint-first pairs in
    lexicographic order; ``adj[v]`` lists neighbours ascending.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise LabelOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        for prev, cur in zip(normalized, normalized[1:]):
            if prev == cur:
                raise DuplicateEdgeError(f"edge {cur} appears more than once")
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in normalized:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise CycleDetectedError(f"edge ({u}, {v}) closes a cycle")
            parent[rv] = ru
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))
        # ascending already: edges are sorted with the smaller endpoint first
        object.__setattr__(self, "adj", tuple(tuple(nb) for nb in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Forest instances are immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forest):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, edges={self.edges})"

    # ------------------------------------------------------------------
    # basic structure

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(tuple(len(nb) for nb in self.adj))

    def component_count(self) -> int:
        # acyclic, so every edge merges exactly two components
        return self.n - len(self.edges)

    def components(self) -> list[VertexSet]:
        """Vertex sets of the components, ordered by smallest member."""
        order, _, roots = self._rooted()
        # each component is the run of the BFS order that starts at its root
        starts = set(roots)
        comps: list[list[int]] = []
        for v in order:
            if v in starts:
                comps.append([])
            comps[-1].append(v)
        return [frozenset(comp) for comp in comps]

    def support_vertices(self) -> VertexSet:
        """Vertices of degree >= 2 adjacent to at least one leaf."""
        out = []
        for v in range(self.n):
            if len(self.adj[v]) >= 2 and any(len(self.adj[w]) == 1 for w in self.adj[v]):
                out.append(v)
        return frozenset(out)

    # ------------------------------------------------------------------
    # exact solvers

    def domination_number(self) -> tuple[int, VertexSet]:
        """Minimum dominating set size plus one witness set.

        Per component, a rooted 3-state program: vertex in the set,
        vertex covered by a child, or vertex left for its parent.
        Isolated vertices are forced into the set.
        """
        n = self.n
        if n == 0:
            return 0, frozenset()
        inf = n + 1
        cost_in = [0] * n
        cost_cov = [0] * n  # not in set, some child in set
        cost_open = [0] * n  # not in set, must be covered by parent
        order, children, roots = self._rooted()
        for v in reversed(order):
            kids = children[v]
            if not kids:
                cost_in[v] = 1
                cost_cov[v] = inf
                cost_open[v] = 0
                continue
            cost_in[v] = 1 + sum(
                min(cost_in[k], cost_cov[k], cost_open[k]) for k in kids
            )
            cost_open[v] = sum(cost_cov[k] for k in kids)
            base = 0
            penalty = inf
            forced = False
            for k in kids:
                base += min(cost_in[k], cost_cov[k])
                if cost_in[k] <= cost_cov[k]:
                    forced = True
                else:
                    penalty = min(penalty, cost_in[k] - cost_cov[k])
            cost_cov[v] = base if forced else base + penalty
        chosen: list[int] = []
        total = 0
        stack: list[tuple[int, int]] = []
        IN, COV, OPEN = 0, 1, 2
        for r in roots:
            total += min(cost_in[r], cost_cov[r])
            stack.append((r, IN if cost_in[r] <= cost_cov[r] else COV))
        while stack:
            v, state = stack.pop()
            kids = children[v]
            if state == IN:
                chosen.append(v)
                for k in kids:
                    best = min(cost_in[k], cost_cov[k], cost_open[k])
                    if cost_in[k] == best:
                        stack.append((k, IN))
                    elif cost_cov[k] == best:
                        stack.append((k, COV))
                    else:
                        stack.append((k, OPEN))
            elif state == OPEN:
                for k in kids:
                    stack.append((k, COV))
            else:
                states = {}
                have_in = False
                for k in kids:
                    if cost_in[k] <= cost_cov[k]:
                        states[k] = IN
                        have_in = True
                    else:
                        states[k] = COV
                if not have_in:
                    force = min(kids, key=lambda k: (cost_in[k] - cost_cov[k], k))
                    states[force] = IN
                for k in kids:
                    stack.append((k, states[k]))
        return total, frozenset(chosen)

    def independence_number(self) -> tuple[int, VertexSet]:
        """Maximum independent set size plus one witness set."""
        n = self.n
        if n == 0:
            return 0, frozenset()
        size_in = [0] * n
        size_out = [0] * n
        order, children, roots = self._rooted()
        for v in reversed(order):
            kids = children[v]
            size_in[v] = 1 + sum(size_out[k] for k in kids)
            size_out[v] = sum(max(size_in[k], size_out[k]) for k in kids)
        chosen: list[int] = []
        total = 0
        stack: list[tuple[int, bool]] = []
        for r in roots:
            total += max(size_in[r], size_out[r])
            stack.append((r, size_in[r] >= size_out[r]))
        while stack:
            v, taken = stack.pop()
            if taken:
                chosen.append(v)
                for k in children[v]:
                    stack.append((k, False))
            else:
                for k in children[v]:
                    stack.append((k, size_in[k] >= size_out[k]))
        return total, frozenset(chosen)

    def _rooted(self) -> tuple[list[int], list[list[int]], list[int]]:
        """BFS order, children lists, and per-component roots (min labels).

        Each component is rooted at its smallest label and occupies one
        contiguous run of the order; ``children[v]`` lists the children
        of ``v`` in discovery order, which is ascending.
        """
        seen = [False] * self.n
        children: list[list[int]] = [[] for _ in range(self.n)]
        order: list[int] = []
        roots: list[int] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            roots.append(start)
            queue = deque([start])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        children[v].append(w)
                        queue.append(w)
        return order, children, roots

    # ------------------------------------------------------------------
    # paths and partial domination

    def longest_path(self) -> list[int]:
        """A longest path of a connected forest, as an ordered vertex list.

        Two breadth-first sweeps: the farthest vertex from any start is
        an endpoint of some longest path, and the farthest vertex from
        that endpoint closes one.  Ties pick the smallest label.
        """
        if self.component_count() != 1:
            raise NotConnectedError("longest_path needs exactly one component")
        first, _ = self._farthest_from(0)
        last, parent = self._farthest_from(first)
        path = [last]
        while path[-1] != first:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def _farthest_from(self, start: int) -> tuple[int, dict[int, int]]:
        """Farthest vertex (smallest label on ties) and the BFS parents."""
        dist = {start: 0}
        parent = {start: -1}
        queue = deque([start])
        best, best_dist = start, 0
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if w in dist:
                    continue
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
                if dist[w] > best_dist or (dist[w] == best_dist and w < best):
                    best, best_dist = w, dist[w]
        return best, parent

    def internal_dominating_set(self) -> VertexSet:
        """A minimum set whose members cover every vertex of degree >= 2.

        For a tree of order n the result has at most ceil((n - 2) / 3)
        vertices, and every vertex of degree >= 2 outside it has a
        neighbour inside.  Linear deepest-first greedy (Cockayne,
        Goodman and Hedetniemi, 1975): an uncovered inner vertex whose
        subtree is settled is best covered by its parent, which also
        covers the most vertices still to come; the root covers itself.
        """
        if self.component_count() != 1:
            raise NotConnectedError("internal_dominating_set needs one component")
        adj = self.adj
        order, children, _ = self._rooted()
        covered = [False] * self.n
        chosen: list[int] = []
        root = order[0]
        for v in reversed(order):
            if any(len(adj[k]) >= 2 and not covered[k] for k in children[v]) or (
                v == root and len(adj[v]) >= 2 and not covered[v]
            ):
                chosen.append(v)
                covered[v] = True
                for w in adj[v]:
                    covered[w] = True
        return frozenset(chosen)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        """Canonical single-line JSON document; stable across round trips."""
        return json.dumps({"n": self.n, "edges": [[u, v] for u, v in self.edges]})

    def to_edge_text(self) -> str:
        """Plain text form: a header line ``n <count>`` then one edge per line."""
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def from_json(text: str) -> Forest:
    """Parse the JSON forest document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ForestFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ForestFormatError("expected an object with fields 'n' and 'edges'")
    n = payload["n"]
    edges = payload["edges"]
    # type() rather than isinstance(): JSON true/false load as bool, an int
    if type(n) is not int or not isinstance(edges, list):
        raise ForestFormatError("'n' must be an integer and 'edges' a list")
    pairs = []
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2):
            raise ForestFormatError(f"edge {item!r} is not a two-element list")
        u, v = item
        if type(u) is not int or type(v) is not int:
            raise ForestFormatError(f"edge {item!r} has non-integer endpoints")
        pairs.append((u, v))
    return Forest(n, pairs)


def from_text(text: str) -> Forest:
    """Parse either accepted format, sniffing JSON by its leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ForestFormatError("empty forest document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ForestFormatError(f"expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
        pairs = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise ForestFormatError(f"expected 'u v', got {line!r}")
            pairs.append((int(parts[0]), int(parts[1])))
    except ValueError as exc:
        if isinstance(exc, ForestError):
            raise
        raise ForestFormatError(f"non-integer token: {exc}") from exc
    return Forest(n, pairs)


def read_forest(path) -> Forest:
    """Load a forest from a file in either format."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_text(handle.read())


def write_forest(forest: Forest, path) -> None:
    """Write the canonical JSON document (plus trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(forest.to_json())
        handle.write("\n")
