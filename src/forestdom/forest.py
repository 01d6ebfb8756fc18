"""Forests on labelled vertices with exact domination/independence solvers.

Vertices are the integers ``0 .. n-1``.  A ``Forest`` is immutable after
construction and validates itself (no loops, no parallel edges, no
cycles).  The solvers are linear greedy folds over a parent array and a
parent-before-child order, and pick exactly what the rooted cost
programs would; a caller that needs both numbers takes them from one
rooted traversal per solved forest.  All outputs are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

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
    """An endpoint is not an ``int`` in 0 .. n-1."""


class NotConnectedError(ForestError):
    """The operation needs a single tree component."""


class ForestFormatError(ForestError):
    """A forest file or string does not follow either format."""


@dataclass(frozen=True, init=False)
class Forest:
    """A simple acyclic undirected graph, held as a value object.

    ``edges`` is normalized to smaller-endpoint-first pairs in
    lexicographic order; ``adj[v]`` lists neighbours ascending.  The
    vertex count and every endpoint must be of type ``int`` exactly:
    floats, bools and other look-alikes are rejected, not coerced.
    """

    __slots__ = ("n", "edges", "adj")
    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        # type() rather than isinstance(): bool is a subclass of int
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise LabelOutOfRangeError(f"edge ({u!r}, {v!r}) has a non-int label")
            if not (0 <= u < n) or not (0 <= v < n):
                raise LabelOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        parent = list(range(n))  # union-find with path halving
        # not before list(range(n)), which refuses an oversize n at once
        adj: list[list[int]] = [[] for _ in range(n)]
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
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))
        # ascending already: edges are sorted with the smaller endpoint first
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))

    def __reduce__(self):
        # pickle and copy rebuild through __init__, so loading re-runs its checks
        return Forest, (self.n, self.edges)

    # ------------------------------------------------------------------
    # basic structure

    def degree(self, v: int) -> int:
        if type(v) is not int or not 0 <= v < self.n:
            raise LabelOutOfRangeError(f"vertex {v!r} is not an int in 0..{self.n - 1}")
        return len(self.adj[v])

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(tuple(map(len, self.adj)))

    def component_count(self) -> int:
        # acyclic, so every edge merges exactly two components
        return self.n - len(self.edges)

    def components(self) -> list[VertexSet]:
        """Vertex sets of the components, ordered by smallest member."""
        order, parent = self._rooted()
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

        One bottom-up sweep of the deepest-first greedy (Cockayne,
        Goodman and Hedetniemi, 1975): a vertex that a child needs joins
        the set and covers its parent, an uncovered root joins, and any
        other uncovered vertex needs its parent.  It takes exactly what
        the rooted cost program takes.  With in, cov and open v's least
        subtree cost in the set, covered by a child or left for its
        parent (in <= cov + 1 and in <= open + 1 always): open < in <= cov
        iff every child is covered and none is in, in <= min(cov, open)
        iff some child is left, and cov < in otherwise.
        """
        chosen = _dominate(*self._rooted(), [False] * (self.n + 1))
        return len(chosen), frozenset(chosen)

    def independence_number(self) -> tuple[int, VertexSet]:
        """Maximum independent set size plus one witness set.

        A vertex is strict when none of its children is; these are the
        vertices the deepest-first greedy takes (as Cockayne, Goodman
        and Hedetniemi, 1975, do for domination).  A top-down sweep
        takes each vertex with at most one strict child whose parent is
        out, as the rooted in/out size program does: in > out iff no
        child is strict, and in >= out iff at most one is.
        """
        chosen = _independent(*self._rooted())
        return len(chosen), frozenset(chosen)

    def _rooted(self, first: int = 0) -> tuple[list[int], list[int]]:
        """BFS order and parent array.

        The first component is rooted at ``first``, which may be any
        label, and every other at its smallest label.  Each component
        occupies one contiguous run of the order; ``parent`` is -1 at
        the roots, and each vertex's children follow it in ascending
        label order.  ``reversed(order)`` meets every vertex after all
        of its children, ``order`` after its parent.
        """
        adj = self.adj
        parent = [-2] * self.n  # -2 until reached
        order: list[int] = []
        for start in (first, *range(self.n)) if self.n else ():
            if parent[start] != -2:
                continue
            parent[start] = -1
            # the loop walks the run as it grows: breadth-first order
            run = [start]
            for v in run:
                up = parent[v]
                # acyclic: the parent is the only neighbour reached already
                for w in adj[v]:
                    if w != up:
                        parent[w] = v
                        run.append(w)
            order += run
        return order, parent

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
            order, parent = self._rooted(start)
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
        neighbour inside.  It is the domination greedy started with the
        leaves covered: an uncovered inner vertex whose subtree is
        settled is best covered by its parent, which also covers the
        most vertices still to come; the root covers itself.
        """
        if self.component_count() != 1:
            raise NotConnectedError("internal_dominating_set needs one component")
        covered = [len(nb) < 2 for nb in self.adj] + [False]
        return frozenset(_dominate(*self._rooted(), covered))

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        """Canonical single-line JSON document; stable across round trips."""
        # json writes tuples as arrays, so the edges need no list copy
        return json.dumps({"n": self.n, "edges": self.edges})

    def to_edge_text(self) -> str:
        """Plain text form: a header line ``n <count>`` then one edge per line."""
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _dominate(order: list[int], parent: list[int], covered: list[bool]) -> list[int]:
    """The deepest-first greedy's picks, in the order it takes them.

    ``order`` meets every vertex after its parent, and ``parent`` is -1
    at the roots.  ``covered`` has ``len(order) + 1`` slots, the last
    standing for the parent -1 of every root; a vertex covered on entry
    need not be dominated.  A vertex's children are settled before it
    is reached, so only its parent's slot is ever written.
    """
    needed = [False] * (len(order) + 1)
    chosen: list[int] = []
    for v in reversed(order):
        p = parent[v]
        if needed[v] or (p < 0 and not covered[v]):
            chosen.append(v)
            covered[p] = True
        elif not covered[v]:
            needed[p] = True
    return chosen


def _independent(order: list[int], parent: list[int]) -> list[int]:
    """A maximum independent set, in ``order``: strict children are
    counted bottom-up, then each vertex with at most one strict child
    whose parent is out is taken.  ``order`` and ``parent`` are as for
    ``_dominate``."""
    # slot len(order) stands for the parent -1 of every root, never taken
    strict_children = [0] * (len(order) + 1)
    for v in reversed(order):
        if not strict_children[v]:
            strict_children[parent[v]] += 1
    taken = [False] * (len(order) + 1)
    chosen: list[int] = []
    for v in order:
        if strict_children[v] <= 1 and not taken[parent[v]]:
            taken[v] = True
            chosen.append(v)
    return chosen


def _solve(forest: Forest) -> tuple[tuple[int, VertexSet], tuple[int, VertexSet]]:
    """``(domination_number(), independence_number())`` of ``forest``,
    both folded over one rooted traversal."""
    order, parent = forest._rooted()
    dominating = _dominate(order, parent, [False] * (forest.n + 1))
    independent = _independent(order, parent)
    return (
        (len(dominating), frozenset(dominating)),
        (len(independent), frozenset(independent)),
    )


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
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2):
            raise ForestFormatError(f"edge {item!r} is not a two-element list")
        u, v = item
        if type(u) is not int or type(v) is not int:
            raise ForestFormatError(f"edge {item!r} has non-integer endpoints")
    return Forest(n, edges)


def from_text(text: str) -> Forest:
    """Parse either accepted format, sniffing JSON by its leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    bad = stray_char(text)
    if bad is not None:
        raise ForestFormatError(f"unexpected character {bad!r}")
    lines = [line for line in map(str.strip, text.splitlines()) if line]
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
