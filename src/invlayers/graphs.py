"""Simple-graph catalogue: graph6 I/O, canonical labeling, exhaustive
enumeration of isomorphism classes, and automorphism groups.

Graphs are stored as tuples of adjacency bitmask rows, so everything is
hashable and comparisons are cheap.  Canonical labeling picks the vertex
order whose column-major upper-triangle bitstring is lexicographically
minimal, found by branch-and-bound; two graphs are isomorphic exactly when
their canonical graph6 strings match.  The same search keeps every order
that ties the minimum, and the automorphisms are the maps between those
orders (the equivalent leaves of McKay's canonical search tree, "Practical
Graph Isomorphism", 1981), so one search serves both.  The search
carries each unplaced vertex's column value down the tree, one shift-or per
placed vertex, and a flag saying whether the prefix ties the best string.
Enumeration extends each (n-1)-vertex class by one new vertex attached to
one neighbor subset per orbit of the class's automorphism group (its
smallest bitmask), which is complete because subsets in one orbit give
isomorphic children, and dedupes canonically; it reproduces the known class
counts 1, 2, 4, 11, 34, 156, 1044, 12346 for n = 1..8.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import string
from typing import Iterable, Optional, Sequence

from .errors import BudgetError, Graph6ParseError
from .permgroup import PermGroupSpec, Permutation, reduce_generators

__all__ = [
    "Graph",
    "parse_graph6",
    "write_graph6",
    "read_graph6_file",
    "write_graph6_file",
    "canonical_relabeling",
    "canonical_form",
    "canonical_graph6",
    "enumerate_graphs",
    "automorphism_group",
    "automorphism_generators",
    "selftest",
]

_MAX_ENUM_N = 8
_KNOWN_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


@dataclasses.dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``rows[i]`` is the bitmask of neighbors of vertex i; the matrix must be
    symmetric with an empty diagonal.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {self.n!r}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if isinstance(row, bool) or not isinstance(row, int) or row < 0 or row >> self.n:
                raise ValueError(f"row {i} is not an {self.n}-bit mask: {row!r}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"adjacency not symmetric at pair ({i}, {j})")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph whose rows are valid by construction, built without the
        checks of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid edge ({i}, {j}) for n={n}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.rows[i] >> j & 1
        ]

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def relabel(self, perm: Permutation) -> "Graph":
        """The isomorphic graph with each edge (i, j) moved to
        (perm(i), perm(j))."""
        if len(perm.image) != self.n:
            raise ValueError(f"permutation on {len(perm.image)} points for n={self.n}")
        rows = [0] * self.n
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.rows[i] >> j & 1:
                    a, b = perm.image[i], perm.image[j]
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        return Graph._trusted(self.n, tuple(rows))


# ------------------------------------------------------------------- graph6


def parse_graph6(text: str) -> Graph:
    """Decode a short-form graph6 string (n <= 62), ignoring ASCII
    whitespace at either end."""
    text = text.strip(string.whitespace)
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    data = [ord(c) for c in text]
    if not data:
        raise Graph6ParseError("empty graph6 string", offset=0)
    if data[0] == 126:
        raise Graph6ParseError(
            "long-form vertex counts (n > 62) are not supported", offset=0
        )
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise Graph6ParseError(f"invalid header byte {data[0]}", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 < nbytes:
        raise Graph6ParseError(
            f"need {nbytes} data bytes for n={n}, found {len(data) - 1}",
            offset=len(data),
        )
    if len(data) - 1 > nbytes:
        raise Graph6ParseError(
            f"trailing bytes after {nbytes} data bytes for n={n}",
            offset=1 + nbytes,
        )
    bits = []
    for pos, byte in enumerate(data[1:], start=1):
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"data byte {byte} out of range 63..126", offset=pos)
        val = byte - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6ParseError("nonzero padding bits", offset=len(data) - 1)
    rows = [0] * n
    pos = 0
    for j in range(n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> str:
    """Encode as short-form graph6 (header n+63, column-major upper-triangle
    bits six per byte, most significant first)."""
    if g.n > 62:
        raise ValueError(f"short-form graph6 supports n <= 62, got {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    nacc = 0
    for j in range(g.n):
        for i in range(j):
            acc = (acc << 1) | (g.rows[i] >> j & 1)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        out.append(chr((acc << (6 - nacc)) + 63))
    return "".join(out)


def read_graph6_file(path, max_n: Optional[int] = None) -> list[Graph]:
    """The graphs of a graph6 file, one a line, blank lines skipped.  A
    graph with more than ``max_n`` vertices raises ``BudgetError`` naming
    its line.  Latin-1 maps each byte to one character, so a non-ASCII
    byte reaches ``parse_graph6`` and is reported with its line."""
    graphs = []
    with open(os.fspath(path), encoding="latin-1") as fp:
        for number, line in enumerate(fp, 1):
            line = line.strip(string.whitespace)
            if line:
                try:
                    g = parse_graph6(line)
                except Graph6ParseError as exc:
                    exc.args = (f"line {number}: {exc}",)
                    raise
                if max_n is not None and g.n > max_n:
                    raise BudgetError(
                        f"line {number}: {g.n} vertices exceed the verification range cap {max_n}"
                    )
                graphs.append(g)
    return graphs


def write_graph6_file(path, graphs: Iterable[Graph]) -> None:
    with open(os.fspath(path), "w", encoding="ascii") as fp:
        for g in graphs:
            fp.write(write_graph6(g) + "\n")


# -------------------------------------------------------- canonical labeling


@functools.lru_cache(maxsize=1)
def _optimal_orders(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every vertex order minimizing the column-major upper-triangle
    bitstring, in lexicographic order: a depth-first branch and bound tries
    the candidates for each position by column value, ties by vertex.
    The last graph's result is kept, so asking for its automorphisms and
    its canonical form runs one search.

    Two optimal orders give the same canonical graph, so the map between
    them is an automorphism; an automorphism composed with an optimal order
    gives another.  There is one optimal order per automorphism.  The
    search prunes only prefixes strictly greater than the best string so
    far, and the best string only decreases, so no tie of the final best is
    cut.
    """
    rows = g.rows
    best: list[int] = []
    placed: list[int] = []
    cols: list[int] = []
    orders: list[tuple[int, ...]] = []

    def search(candidates: list[tuple[int, int]], tie: bool) -> bool:
        # candidates: (column value, vertex) of each unplaced vertex,
        # ascending, a column value holding its adjacency to the placed
        # prefix with the earliest placed vertex most significant; tie:
        # whether the prefix equals the best string's (else it is smaller,
        # or no string is known).  True when a new best string was found.
        if not candidates:
            if tie:
                orders.append(tuple(placed))
                return False
            best[:] = cols
            orders[:] = [tuple(placed)]
            return True
        depth = len(cols)
        improved = False
        for val, v in candidates:
            if tie and val > best[depth]:
                break  # ascending: all later candidates worse
            row = rows[v]
            placed.append(v)
            cols.append(val)
            rest = sorted([((x << 1) | (row >> w & 1), w) for x, w in candidates if w != v])
            if search(rest, tie and val == best[depth]):
                improved = tie = True  # the new best string runs through this prefix
            cols.pop()
            placed.pop()
        return improved

    # the first vertex has an empty column, so every start ties at 0
    search([(0, v) for v in range(g.n)], False)
    return tuple(orders)


def canonical_relabeling(g: Graph) -> Permutation:
    """A permutation sending g to its canonical labeling: the first vertex
    order, in search order, minimizing the column-major upper-triangle
    bitstring."""
    # order[p] = original vertex at canonical position p; the relabeling
    # permutation maps original vertex -> its position
    order = _optimal_orders(g)[0]
    image = [0] * g.n
    for position, vertex in enumerate(order):
        image[vertex] = position
    return Permutation(tuple(image))


def canonical_form(g: Graph) -> Graph:
    return g.relabel(canonical_relabeling(g))


def canonical_graph6(g: Graph) -> str:
    return write_graph6(canonical_form(g))


# -------------------------------------------------------------- enumeration


def enumerate_graphs(n: int) -> list[Graph]:
    """All isomorphism classes of simple graphs on n vertices, canonically
    labeled and sorted by graph6 string.

    Built by extending every (n-1)-vertex class with a new vertex attached
    to a neighbor subset, then deduping by canonical string; deleting the
    last vertex of any n-vertex graph shows the construction is complete.
    Only the smallest bitmask of each orbit of the parent's automorphism
    group on subsets is tried: an automorphism carrying one subset to
    another extends, fixing the new vertex, to an isomorphism between their
    children, so the skipped children repeat a tried one's class.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    return list(_enumerate_cached(n))


def _extension_subsets(parent: Graph) -> list[int]:
    """The smallest neighbor-subset bitmask in each orbit of the parent's
    automorphism group, ascending."""
    images = _automorphism_images(parent)
    seen = bytearray(1 << parent.n)
    kept = []
    for subset in range(1 << parent.n):
        if not seen[subset]:
            kept.append(subset)
            members = [i for i in range(parent.n) if subset >> i & 1]
            for image in images:
                seen[sum(1 << image[i] for i in members)] = 1
    return kept


def _extend(parent: Graph, subset: int) -> Graph:
    """The parent plus a new last vertex adjacent to the vertices in
    ``subset``."""
    bit = 1 << parent.n
    rows = [row | bit if subset >> i & 1 else row for i, row in enumerate(parent.rows)]
    return Graph._trusted(parent.n + 1, (*rows, subset))


@functools.lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[Graph, ...]:
    if n > _MAX_ENUM_N:
        raise BudgetError(
            f"graph enumeration is supported up to n = {_MAX_ENUM_N}, got {n}"
        )
    if n == 0:
        return (Graph(0, ()),)
    seen: dict[str, Graph] = {}
    for parent in _enumerate_cached(n - 1):
        for subset in _extension_subsets(parent):
            child = canonical_form(_extend(parent, subset))
            seen.setdefault(write_graph6(child), child)
    result = tuple(seen[key] for key in sorted(seen))
    if n in _KNOWN_CLASS_COUNTS and len(result) != _KNOWN_CLASS_COUNTS[n]:
        raise AssertionError(
            f"enumeration produced {len(result)} classes for n={n}, "
            f"expected {_KNOWN_CLASS_COUNTS[n]}"
        )
    return result


# ------------------------------------------------------------ automorphisms


def automorphism_group(g: Graph) -> PermGroupSpec:
    """Every adjacency-preserving permutation, listed exhaustively and
    sorted by image.

    The elements are read off the canonical search: each maps the first
    optimal vertex order to another optimal order.  The returned spec's
    ``generators`` field holds the *full* element list (identity included),
    so callers may sum over it directly; use :func:`automorphism_generators`
    for a small generating set.
    """
    elements = sorted(_automorphism_images(g))
    return PermGroupSpec(n=g.n, generators=tuple(map(Permutation._trusted, elements)))


def _automorphism_images(g: Graph) -> list[tuple[int, ...]]:
    """The image tuple of every automorphism, in search order."""
    first, *_ = orders = _optimal_orders(g)
    images = []
    for order in orders:
        image = [0] * g.n
        for u, v in zip(first, order):
            image[u] = v
        images.append(tuple(image))
    return images


def automorphism_generators(g: Graph) -> PermGroupSpec:
    """A reduced generating set for the automorphism group."""
    spec = automorphism_group(g)
    return PermGroupSpec(n=g.n, generators=tuple(reduce_generators(spec.generators)))


# ----------------------------------------------------------------- selftest


def selftest() -> None:
    """Fast internal consistency checks; raises AssertionError on failure."""
    assert [len(enumerate_graphs(n)) for n in range(5)] == [1, 1, 2, 4, 11]
    square = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert parse_graph6(write_graph6(square)) == square
    assert len(automorphism_group(square).generators) == 8
    star = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    assert len(automorphism_group(star).generators) == 6
    assert canonical_graph6(star) == canonical_graph6(
        star.relabel(Permutation((2, 0, 1, 3)))
    )
