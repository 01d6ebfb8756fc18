"""Forests on labelled vertices with exact domination/independence solvers.

Vertices are the integers ``0 .. n-1``.  A ``Forest`` is immutable after
construction and validates itself (no loops, no parallel edges, no
cycles).  Solvers run linear-time dynamic programs as folds over a
breadth-first parent array, one rooted traversal per call; every tie
resolves toward smaller labels, so all outputs are deterministic.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator

from .degseq import DegreeSequence, stray_char

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
        parent = list(range(n))  # union-find with path halving
        for u, v in normalized:
            ru = u
            while parent[ru] != ru:
                parent[ru] = parent[parent[ru]]
                ru = parent[ru]
            rv = v
            while parent[rv] != rv:
                parent[rv] = parent[parent[rv]]
                rv = parent[rv]
            if ru == rv:
                # a repeated edge closes a cycle too, at its second copy;
                # the first repeat, if any, is reported before any cycle
                for prev, cur in zip(normalized, normalized[1:]):
                    if prev == cur:
                        raise DuplicateEdgeError(f"edge {cur} appears more than once")
                raise CycleDetectedError(f"edge ({u}, {v}) closes a cycle")
            parent[rv] = ru
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))
        # ascending already: edges are sorted with the smaller endpoint first
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))

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
        order, parent, _ = self._rooted()
        # each component is the run of the BFS order that starts at its root
        comps: list[list[int]] = []
        for v in order:
            if parent[v] < 0:
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
        Isolated vertices always join the set.  One bottom-up sweep
        adds each vertex's costs into its parent's running sums; one
        top-down sweep then sets each vertex's state from its parent's.
        """
        n = self.n
        if n == 0:
            return 0, frozenset()
        inf = n + 1
        order, parent, roots = self._rooted()
        # running sums over the children folded in so far; a vertex's
        # are final when the bottom-up sweep reaches it
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
                cost_in[p] += c_in if c_in <= c_open else c_open
                cost_cov[p] += c_in
                penalty[p] = 0
            else:
                cost_in[p] += c_cov if c_cov <= c_open else c_open
                cost_cov[p] += c_cov
                if penalty[p] == inf:
                    penalty[p] = 1
        IN, COV, OPEN = 0, 1, 2
        total = sum(min(cost_in[r], cost_cov[r]) for r in roots)
        state = [IN] * n
        chosen: list[int] = []
        for v in order:
            c_in = cost_in[v]
            c_cov = cost_cov[v]
            p = parent[v]
            if p < 0:
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
                # covered by a child: p's penalty is 0, since a vertex with
                # penalty 1 has cost_in <= cost_cov and cost_open < cost_cov
                # and no branch puts it here; so some child joins for free
                s = IN if c_in <= c_cov else COV
            state[v] = s
            if s == IN:
                chosen.append(v)
        return total, frozenset(chosen)

    def independence_number(self) -> tuple[int, VertexSet]:
        """Maximum independent set size plus one witness set.

        One bottom-up sweep adds each vertex's two sizes (in the set,
        out of it) into its parent's; one top-down sweep takes a vertex
        when its parent is out and taking it is no worse.
        """
        n = self.n
        if n == 0:
            return 0, frozenset()
        order, parent, roots = self._rooted()
        size_in = [1] * n
        size_out = [0] * n
        for v in reversed(order):
            p = parent[v]
            if p >= 0:
                s_in = size_in[v]
                s_out = size_out[v]
                size_in[p] += s_out
                size_out[p] += s_in if s_in >= s_out else s_out
        total = sum(max(size_in[r], size_out[r]) for r in roots)
        taken = [False] * n
        chosen: list[int] = []
        for v in order:
            p = parent[v]
            if size_in[v] >= size_out[v] and (p < 0 or not taken[p]):
                taken[v] = True
                chosen.append(v)
        return total, frozenset(chosen)

    def _rooted(self, first: int = 0) -> tuple[list[int], list[int], list[int]]:
        """BFS order, parent array, and per-component roots.

        The first component is rooted at ``first``, which may be any
        label, and every other at its smallest label.  Each component
        occupies one contiguous run of the order; ``parent`` is -1 at
        the roots, and each vertex's children follow it in ascending
        label order.  The solvers are folds over these:
        ``reversed(order)`` meets every vertex after all of its
        children, ``order`` after its parent.
        """
        adj = self.adj
        parent = [-2] * self.n  # -2 until reached
        order: list[int] = []
        roots: list[int] = []
        for start in chain((first,) if self.n else (), range(self.n)):
            if parent[start] != -2:
                continue
            parent[start] = -1
            roots.append(start)
            # the loop walks the run as it grows: breadth-first order
            run = [start]
            append = run.append
            for v in run:
                up = parent[v]
                # acyclic: the parent is the only neighbour reached already
                for w in adj[v]:
                    if w != up:
                        parent[w] = v
                        append(w)
            order += run
        return order, parent, roots

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
        end = 0
        for _ in range(2):
            start = end
            order, parent, _ = self._rooted(start)
            depth = [0] * self.n
            for v in order[1:]:
                depth[v] = depth[parent[v]] + 1
            end = min(order, key=lambda v: (-depth[v], v))
        path = [end]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        return path

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
        order, parent, _ = self._rooted()
        covered = [False] * self.n
        # needed[v]: some child of v has degree >= 2 and is uncovered
        needed = [False] * self.n
        chosen: list[int] = []
        for v in reversed(order):
            inner_open = len(adj[v]) >= 2 and not covered[v]
            p = parent[v]
            if needed[v] or (p < 0 and inner_open):
                chosen.append(v)
                covered[v] = True
                for w in adj[v]:
                    covered[w] = True
            elif inner_open:
                # v's children are settled; only its parent can cover it
                needed[p] = True
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
    except (json.JSONDecodeError, RecursionError) as exc:
        # json decodes nested arrays recursively, so deep nesting runs
        # out of stack rather than failing to parse
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
    bad = stray_char(text)
    if bad is not None:
        raise ForestFormatError(f"unexpected character {bad!r}")
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
