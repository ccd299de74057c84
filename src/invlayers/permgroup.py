"""Permutations, generator sets for the groups used in the package, and
exact orbit machinery.

Three group families appear throughout: typed symmetric groups (direct
products of symmetric groups on contiguous node blocks), the cyclic
shift on n points, and the two-dimensional translation group acting on a
d x d pixel grid.  Orbits on points and on k-tuples come from one numpy
kernel, ``_orbit_labels``, which propagates the smallest point of each
orbit along the generator maps; the monomial orbits of ``invariant_ring``
come from the coset representatives of a point-stabilizer chain, read off
a listing of the group in one pass (``_listed_chain``) or built from the
generators by Schreier-Sims (``_stabilizer_chain``).  Element listings go
through breadth-first closure with an explicit cap that raises instead of
truncating.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .budgets import DEFAULT as DEFAULT_BUDGETS
from .errors import BudgetError, _trusted


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``0..n-1`` stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"not a permutation of 0..{len(self.image) - 1}: {self.image}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        image = list(range(n))
        for cycle in cycles:
            if not cycle or not all(
                isinstance(a, int) and not isinstance(a, bool) and 0 <= a < n for a in cycle
            ):
                raise ValueError(f"cycle {tuple(cycle)} must be nonempty with points in 0..{n - 1}")
            rotated = list(cycle[1:]) + [cycle[0]]
            for a, b in zip(cycle, rotated):
                image[a] = b
        return cls(tuple(image))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """``self`` after ``other``: (self * other)(i) = self(other(i))."""
        if other.n != self.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.image[j] for j in other.image))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def apply_tuple(self, t: Sequence[int]) -> tuple[int, ...]:
        """Diagonal action on an index tuple: (i_1..i_k) -> (p(i_1)..p(i_k))."""
        return tuple(self.image[i] for i in t)

    def fixed_point_count(self) -> int:
        return sum(1 for i, j in enumerate(self.image) if i == j)

    def cycle_lengths(self) -> tuple[int, ...]:
        seen = [False] * self.n
        lengths = []
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.image[i]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def to_one_based(self) -> list[int]:
        return [i + 1 for i in self.image]


@dataclass(frozen=True)
class PermGroupSpec:
    """A permutation group given by degree and a generating set."""

    n: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.n != self.n:
                raise ValueError(f"generator degree {g.n} != {self.n}")

    @cached_property
    def _vertex_orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits on points, computed once per spec (``vertex_orbits``)."""
        labels = _orbit_labels(self.n, [g.image for g in self.generators])
        firsts = np.flatnonzero(labels == np.arange(self.n))
        return tuple(tuple(np.flatnonzero(labels == first).tolist()) for first in firsts)


@dataclass(frozen=True)
class TypedNodeSet:
    """Nodes ``0..n-1`` split into m contiguous type blocks of given sizes."""

    type_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "type_sizes", tuple(self.type_sizes))
        if len(self.type_sizes) < 1:
            raise ValueError("need at least one type")
        for s in self.type_sizes:
            if isinstance(s, bool) or not isinstance(s, int) or s < 1:
                raise ValueError(f"type sizes must be positive ints, got {s!r}")

    @property
    def n(self) -> int:
        return sum(self.type_sizes)

    @property
    def m(self) -> int:
        return len(self.type_sizes)

    @cached_property
    def _block_starts(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.type_sizes[:-1], initial=0))

    def block(self, j: int) -> range:
        start = self._block_starts[j]
        return range(start, start + self.type_sizes[j])

    def blocks(self) -> list[range]:
        return [range(s, s + size) for s, size in zip(self._block_starts, self.type_sizes)]

    def type_of(self, node: int) -> int:
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} out of range")
        return bisect.bisect_right(self._block_starts, node) - 1


def young_generators(t: TypedNodeSet) -> PermGroupSpec:
    """Adjacent transpositions within each type block.

    These generate the direct product of symmetric groups that permutes
    nodes freely within a type and never across types.  Blocks of size 1
    contribute no generators; the trivial group has an empty list.
    """
    gens = []
    for block in t.blocks():
        for a in range(block.start, block.stop - 1):
            gens.append(Permutation.from_cycles(t.n, [(a, a + 1)]))
    return PermGroupSpec(t.n, tuple(gens))


def cyclic_generators(n: int) -> PermGroupSpec:
    """The single shift ``i -> i+1 (mod n)``."""
    if n < 1:
        raise ValueError("n must be positive")
    shift = Permutation(tuple((i + 1) % n for i in range(n)))
    return PermGroupSpec(n, (shift,))


def translation_generators(d: int) -> PermGroupSpec:
    """Row and column shifts on a d x d grid, point (i, j) stored as i*d + j."""
    if d < 1:
        raise ValueError("d must be positive")
    row = Permutation(tuple(((i + 1) % d) * d + j for i in range(d) for j in range(d)))
    col = Permutation(tuple(i * d + (j + 1) % d for i in range(d) for j in range(d)))
    return PermGroupSpec(d * d, (row, col))


def _closure(
    candidates: Iterable[tuple[int, ...]], n: int, cap: int
) -> tuple[set[tuple[int, ...]], list[tuple[int, ...]]]:
    """The image tuples of the group the candidate images generate, and the
    candidates kept: in order, each candidate outside the group generated
    so far is kept and the group grows breadth-first, each element found
    multiplied on the left by every kept generator.  The old group's
    elements need only the new generator, since the others keep them inside
    it.  Raises ``BudgetError`` as soon as more than ``cap`` elements are
    held."""
    elements = {tuple(range(n))}
    kept: list[tuple[int, ...]] = []
    for new in candidates:
        if new in elements:
            continue
        kept.append(new)
        frontier, factors = list(elements), [new]
        while frontier:
            found = []
            for x in frontier:
                for h in factors:
                    y = tuple(map(h.__getitem__, x))
                    if y not in elements:
                        elements.add(y)
                        found.append(y)
                        if len(elements) > cap:
                            raise BudgetError(f"group order exceeds closure cap {cap}")
            frontier, factors = found, kept
    return elements, kept


def group_closure(
    spec: PermGroupSpec, cap: int = DEFAULT_BUDGETS.closure_cap
) -> list[Permutation]:
    """All group elements by breadth-first multiplication, sorted by image.

    Always contains the identity.  Raises ``BudgetError`` as soon as more
    than ``cap`` elements have been found; the listing is never silently
    truncated.
    """
    elements, _ = _closure((g.image for g in spec.generators), spec.n, cap)
    # products of permutations of 0..n-1 are permutations of 0..n-1
    return [_trusted(Permutation, image=image) for image in sorted(elements)]


def reduce_generators(elements: Sequence[Permutation]) -> list[Permutation]:
    """A small generating subset of a listed group: scanning the elements
    by image, keep each one the kept ones do not yet generate.  Raises
    ``BudgetError`` when they generate more than ``len(elements)``
    elements, as they do when the list is not a group."""
    if not elements:
        raise ValueError("empty element list")
    images = sorted({g.image for g in elements})
    _, kept = _closure(images, elements[0].n, len(elements))
    # kept images are images of the checked elements
    return [_trusted(Permutation, image=image) for image in kept]


def _stabilizer_chain(spec: PermGroupSpec) -> list[list[tuple[int, ...]]]:
    """The point-stabilizer chain of the group the generators generate,
    along base points 0, 1, ...: for each level whose base point b moves
    under the stabilizer of the points below it, the images of its right
    coset representatives other than the identity.  Each fixes the points
    below b and sends a different point of b's orbit to b, so the group
    order is the product of (level size + 1).

    Deterministic Schreier-Sims (Sims 1970; Seress, Permutation Group
    Algorithms, 2003), which never lists the group: deepest level first, a
    level's orbit is grown breadth-first by the strong generators that fix
    the points below it, and each Schreier generator is sifted from that
    level down; a residue other than the identity becomes a strong
    generator, and the scan restarts at its first moved point.
    """
    n = spec.n
    identity = tuple(range(n))
    strong = [g.image for g in spec.generators if g.image != identity]
    # levels[k][b] = (u, u^-1) with u(k) = b, for each point b of k's orbit
    levels: list[dict] = [{} for _ in range(n)]

    def residue(p: tuple[int, ...], k: int) -> Optional[tuple[int, ...]]:
        """p sifted through levels k, k + 1, ...; None if it sifts to the identity."""
        for j in range(k, n):
            if p[j] != j:
                if p[j] not in levels[j]:
                    return p
                p = tuple(map(levels[j][p[j]][1].__getitem__, p))
        return None

    k = n - 1
    while k >= 0:
        gens = [s for s in strong if s[:k] == identity[:k]]
        levels[k] = orbit = {k: (identity, identity)}
        points = [k]
        for b in points:
            for s in gens:
                if s[b] not in orbit:
                    u = tuple(map(s.__getitem__, orbit[b][0]))
                    orbit[s[b]] = (u, tuple(sorted(identity, key=u.__getitem__)))
                    points.append(s[b])
        # every Schreier generator s * u of the level must sift to the identity
        products = (tuple(map(s.__getitem__, u)) for u, _ in orbit.values() for s in gens)
        found = next((r for p in products if (r := residue(p, k)) is not None), None)
        if found is None:
            k -= 1
        else:
            strong.append(found)
            k = next(i for i in range(n) if found[i] != i)
    return [
        [t for b, (_, t) in level.items() if b != k]
        for k, level in enumerate(levels)
        if len(level) > 1
    ]


def _listed_chain(n: int, elements: Iterable[Permutation]) -> list[list[tuple[int, ...]]]:
    """The point-stabilizer chain of a listed group on n points, in the
    format of ``_stabilizer_chain`` along base points 0, 1, ..., read off
    the listing in one pass.  An element whose first moved point is k fixes
    the points below k and sends a point b = image.index(k) other than k to
    k; the first element listed for each (k, b) is level k's representative.
    The elements that fix the points below k form the stabilizer G_k, and
    those of them that send b to k one right coset of G_(k+1), so every
    coset other than G_(k+1) gets its representative and the chain's order
    is the listing's length.

    Raises ``AssertionError`` unless the identity is listed once and, for
    each k, the elements that fix the points below k number those that also
    fix k times (level size + 1), as in every group (Lagrange)."""
    identity, points = tuple(range(n)), range(n)
    levels: list[dict[int, tuple[int, ...]]] = [{} for _ in points]
    first_moved = [0] * (n + 1)
    for g in elements:
        image = g.image
        k = next(itertools.compress(points, map(operator.ne, image, identity)), n)
        first_moved[k] += 1
        if k < n:
            levels[k].setdefault(image.index(k), image)
    fixing = 0
    for k in range(n, -1, -1):
        below, fixing = fixing, fixing + first_moved[k]
        expected = below * (len(levels[k]) + 1) if k < n else 1
        if fixing != expected:
            raise AssertionError(
                f"{fixing} listed elements fix the points below {k}, "
                f"but their stabilizer chain needs {expected}"
            )
    return [list(level.values()) for level in levels if level]


def _listed_orbit_sizes(elements: Iterable[Permutation]) -> list[int]:
    """The sizes of a listed group's orbits on points, by smallest member:
    the orbit of x is the set of its images, named by the smallest."""
    names = map(min, zip(*(g.image for g in elements)))
    return list(collections.Counter(names).values())


def _orbit_labels(size: int, images: Iterable[Sequence[int]]) -> np.ndarray:
    """Label each point ``0..size-1`` with the smallest point of its orbit,
    where ``images`` holds one map per generator, the image of point x under
    it at index x (a 2-D array gives one map per row).

    Every label stays a point of its own orbit: a round takes the minimum
    over each generator's images and over each generator's power
    g^(2^r), then jumps each label to its own label.  Squaring the powers
    every round moves labels along a cycle of length L in about log2(L)
    rounds instead of L.  The loop stops when the generator maps
    themselves lower no label: then labels[x] <= labels[g(x)] for every
    x and g, so labels are constant along each cycle, hence on each orbit,
    and the smallest point carries its own label.  Each map is its own
    1-D array, so a round costs one gather per map and power.
    """
    labels = np.arange(size)
    maps = [np.asarray(m, dtype=np.intp).reshape(size) for m in images]
    powers = [m[m] for m in maps]
    while True:
        lowered = labels.copy()
        for m in maps:
            np.minimum(lowered, labels[m], out=lowered)
        if np.array_equal(lowered, labels):
            return labels
        for p in powers:
            np.minimum(lowered, labels[p], out=lowered)
        powers = [p[p] for p in powers]
        labels = lowered[lowered]


def orbit_count_on_tuples(
    spec: PermGroupSpec, k: int, budget: int = DEFAULT_BUDGETS.tuple_enumeration
) -> int:
    """Number of orbits of the diagonal action on k-tuples of points.

    Walks all ``n**k`` tuples, so the state count must fit the budget;
    for larger instances ``burnside_count`` gives the same number from
    the element listing without enumerating tuples.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if spec.n**k > budget:
        raise BudgetError(
            f"{spec.n}**{k} tuples exceed budget {budget}; "
            "consider burnside_count instead"
        )
    # a k-tuple is its base-n index, the flat index into an n x ... x n grid
    grid = np.arange(spec.n**k).reshape((spec.n,) * k)
    images = [grid[np.ix_(*[g.image] * k)].ravel() for g in spec.generators]
    labels = _orbit_labels(grid.size, images)
    return int(np.count_nonzero(labels == np.arange(grid.size)))


def burnside_count(spec: PermGroupSpec, k: int, cap: int = DEFAULT_BUDGETS.closure_cap) -> int:
    """Orbit count on k-tuples via the averaged fixed-point formula.

    A tuple is fixed by g exactly when every entry is a fixed point of g,
    so each element contributes ``fix(g)**k``.  The sum is always
    divisible by the group order; the division is checked exactly.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    elements = group_closure(spec, cap)
    total = sum(g.fixed_point_count() ** k for g in elements)
    if total % len(elements):
        raise AssertionError("fixed-point sum not divisible by group order")
    return total // len(elements)


def vertex_orbits(spec: PermGroupSpec) -> list[list[int]]:
    """Orbits of the group on points, sorted by smallest member.  The spec
    keeps them, so asking again for the same spec reruns no orbit kernel."""
    return [list(orbit) for orbit in spec._vertex_orbits]


def max_orbit_size(spec: PermGroupSpec) -> int:
    return max(len(o) for o in vertex_orbits(spec))


def selftest() -> None:
    """Fast internal consistency checks (used by the CLI --selftest flag)."""
    from .combinat import gen_bell

    for sizes in [(2,), (3,), (2, 1), (2, 2), (3, 2)]:
        t = TypedNodeSet(sizes)
        spec = young_generators(t)
        for k in range(3):
            assert orbit_count_on_tuples(spec, k) == burnside_count(spec, k)
    t = TypedNodeSet((3, 3))
    spec = young_generators(t)
    assert orbit_count_on_tuples(spec, 2) == gen_bell(2, 2)
    for n in range(1, 5):
        assert burnside_count(cyclic_generators(n), 3) == n**2
    for d in (2, 3):
        assert burnside_count(translation_generators(d), 2) == d**2
