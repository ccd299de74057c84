"""Simple-graph catalogue: graph6 I/O, canonical labeling, exhaustive
enumeration of isomorphism classes, and automorphism groups.

Graphs are stored as tuples of adjacency bitmask rows, so everything is
hashable and comparisons are cheap.  Canonical labeling picks the vertex
order whose column-major upper-triangle bitstring is lexicographically
minimal, found by branch-and-bound; two graphs are isomorphic exactly when
their canonical graph6 strings match.  The same search keeps every order
that ties the minimum, and the automorphisms are the maps between those
orders (the equivalent leaves of McKay's canonical search tree, "Practical
Graph Isomorphism", 1981), so one search serves both.  At each position
it tries only the unplaced vertices with the smallest column, kept as one
bitmask.  Enumeration is orderly (Read 1978; McKay, "Isomorph-free
exhaustive generation", 1998): of the children of each canonical
(n-1)-vertex class, one per neighbor subset of a new last vertex, it keeps
those already canonical, which the same search decides when started from
the child's own string; no canonical form, no dedupe.  The minimal string's
prefix property, that a canonical graph's first n-1 vertices induce a
canonical graph, makes that exact.  It reproduces the known class counts
1, 2, 4, 11, 34, 156, 1044, 12346 for n = 1..8.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import string
from typing import Iterable, Optional

from .errors import BudgetError, Graph6ParseError, _trusted
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
        # perm moves each edge to one between distinct vertices, set both ways
        return _trusted(Graph, n=self.n, rows=tuple(rows))


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


def read_graph6_file(path, max_n: Optional[int] = None, min_n: int = 0) -> list[Graph]:
    """The graphs of a graph6 file, one a line, blank lines skipped.  A
    graph with more than ``max_n`` vertices raises ``BudgetError``, one
    with fewer than ``min_n`` ``ValueError``, naming the file and the line.
    Latin-1 maps each byte to one character, so a non-ASCII byte reaches
    ``parse_graph6`` and is reported with its line."""
    return [g for _, g in _numbered_graph6_lines(path, max_n, min_n)]


def _numbered_graph6_lines(
    path, max_n: Optional[int], min_n: int
) -> list[tuple[int, Graph]]:
    """The graphs of ``read_graph6_file``, each with its line number."""
    graphs = []
    with open(os.fspath(path), encoding="latin-1") as fp:
        for number, line in enumerate(fp, 1):
            line = line.strip(string.whitespace)
            if line:
                where = f"{path}: line {number}"
                try:
                    g = parse_graph6(line)
                except Graph6ParseError as exc:
                    exc.args = (f"{where}: {exc}",)
                    raise
                if max_n is not None and g.n > max_n:
                    raise BudgetError(
                        f"{where}: {g.n} vertices exceed the verification range cap {max_n}"
                    )
                if g.n < min_n:
                    raise ValueError(f"{where}: {g.n} vertices, fewer than {min_n}")
                graphs.append((number, g))
    return graphs


def write_graph6_file(path, graphs: Iterable[Graph]) -> None:
    with open(os.fspath(path), "w", encoding="ascii") as fp:
        for g in graphs:
            fp.write(write_graph6(g) + "\n")


# -------------------------------------------------------- canonical labeling


@functools.lru_cache(maxsize=1)
def _optimal_orders(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every vertex order minimizing the column-major upper-triangle
    bitstring, in lexicographic order: the canonical search run from no
    known string.  The last graph's result is kept, so asking for its
    automorphisms and its canonical form runs one search.

    Two optimal orders give the same canonical graph, so the map between
    them is an automorphism; an automorphism composed with an optimal order
    gives another.  There is one optimal order per automorphism.
    """
    orders: list[tuple[int, ...]] = []
    _canonical_search(g.rows, orders)
    return tuple(orders)


def _is_canonical(rows: tuple[int, ...]) -> bool:
    """Whether no vertex order of the graph with these adjacency rows gives
    a smaller column-major upper-triangle bitstring than the identity's:
    the canonical search run with the identity's string as the best."""
    return not _canonical_search(rows, None)


def _canonical_search(rows: tuple[int, ...], orders: Optional[list]) -> bool:
    """A depth-first branch and bound for the vertex orders minimizing the
    column-major upper-triangle bitstring; True when it finds a string
    smaller than the best it started from.

    At each position the unplaced vertices' columns are read one placed
    vertex at a time, earliest most significant, into a bitmask of the
    vertices with the smallest column: where some of them have a 0, the
    ones with a 1 drop out.  Only those are tried, in vertex order, since
    any other gives a larger string after the same prefix.  A prefix above
    the best string is pruned; the best string only decreases, so no tie of
    the final best is cut.  With a list for ``orders`` the search starts
    from no known string and leaves every optimal order in it, in
    lexicographic order.  With None the identity's string is the best from
    the start, its column at a position read when the search first reaches
    it, and the search stops at the first smaller column.
    """
    best: list[int] = []  # the best string's columns, as far as known
    placed: list[int] = []

    def search(unplaced: int, tie: bool) -> bool:
        # tie: whether the prefix equals the best string's (else it is
        # smaller, or no string is known); True when a new best is found
        if not unplaced:
            if orders is not None:
                if not tie:
                    orders.clear()
                orders.append(tuple(placed))
            return not tie
        depth = len(placed)
        if depth == len(best) and tie:  # only the identity's string grows
            col = 0
            for row in rows[:depth]:
                col = col << 1 | row >> depth & 1
            best.append(col)
        smallest = unplaced
        col = 0
        for p in placed:
            zeros = smallest & ~rows[p]
            col <<= 1
            if zeros:
                smallest = zeros
            else:
                col |= 1
        if tie and col != best[depth]:
            if col > best[depth] or orders is None:
                return col < best[depth]  # pruned, or smaller than the identity's
            tie = False
        if not tie:
            best[depth:] = [col]  # the first leaf below has the new best string
        improved = False
        while smallest:
            low = smallest & -smallest
            smallest ^= low
            placed.append(low.bit_length() - 1)
            if search(unplaced ^ low, tie):
                if orders is None:
                    return True
                improved = tie = True  # the new best string runs through this prefix
            placed.pop()
        return improved

    return search((1 << len(rows)) - 1, orders is None)


def canonical_relabeling(g: Graph) -> Permutation:
    """A permutation sending g to its canonical labeling: the first vertex
    order, in search order, minimizing the column-major upper-triangle
    bitstring."""
    # order[p] = original vertex at canonical position p; the relabeling
    # permutation maps original vertex -> its position
    return Permutation(_order_map(_optimal_orders(g)[0], range(g.n)))


def canonical_form(g: Graph) -> Graph:
    return g.relabel(canonical_relabeling(g))


def canonical_graph6(g: Graph) -> str:
    return write_graph6(canonical_form(g))


# -------------------------------------------------------------- enumeration


def enumerate_graphs(n: int) -> list[Graph]:
    """All isomorphism classes of simple graphs on n vertices, canonically
    labeled and sorted by graph6 string.

    Orderly generation (Read, "Every one a winner", 1978): every canonical
    (n-1)-vertex class gets a new last vertex attached to each neighbor
    subset, and a child is kept only if it is itself canonical.  The
    canonical string has the prefix property: the first n-1 vertices of a
    canonical graph induce a canonical graph, since a smaller string for
    them would, followed by the same last column, give a smaller string for
    the whole.  So each class's one canonical graph is the child of its
    canonical parent and of one subset, and is reached exactly once.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    return list(_enumerate_cached(n))


@functools.lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[Graph, ...]:
    if n > _MAX_ENUM_N:
        raise BudgetError(
            f"graph enumeration is supported up to n = {_MAX_ENUM_N}, got {n}"
        )
    if n == 0:
        return (Graph(0, ()),)
    bit = 1 << (n - 1)
    children = []
    for parent in _enumerate_cached(n - 1):
        for subset in range(bit):
            rows = (
                *(row | bit if subset >> i & 1 else row for i, row in enumerate(parent.rows)),
                subset,
            )
            if _is_canonical(rows):
                # the new vertex's bit is set both ways, and never on its own row
                children.append(_trusted(Graph, n=n, rows=rows))
    result = tuple(sorted(children, key=write_graph6))
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
    first, *_ = orders = _optimal_orders(g)
    elements = sorted(_order_map(first, order) for order in orders)
    # each image maps one vertex order of 0..n-1 to another
    return PermGroupSpec(n=g.n, generators=tuple(_trusted(Permutation, image=e) for e in elements))


def _order_map(source: tuple[int, ...], target: Iterable[int]) -> tuple[int, ...]:
    """The image tuple sending source[i] to target[i] for every position i
    of two vertex orders."""
    image = [0] * len(source)
    for u, v in zip(source, target):
        image[u] = v
    return tuple(image)


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
    for bits in range(64):  # every labeled 4-vertex graph: header C, one data byte
        g = parse_graph6(chr(67) + chr(63 + bits))
        assert _is_canonical(g.rows) == (canonical_form(g) == g)
