"""Zero-sum sequence machinery over the group Z_d x Z_d.

A sequence here is a finite multiset of residue pairs (a, b).  It is
*zero-sum* when both coordinate sums vanish mod d.  The key quantity is the
Davenport constant of Z_d x Z_d: the least length L such that every
sequence of L elements contains a nonempty zero-sum subsequence.  Its value
is 2d - 1, witnessed by the extremal zero-sum-free sequence of d - 1 copies
each of (1, 0) and (0, 1).

The combinatorics carries a concrete consequence for translation-invariant
tensors on d x d images: monomials in the spectral coordinates are
invariant exactly when their exponent table is zero-sum, so every invariant
monomial factors into invariant pieces of degree at most 2d - 1, and some
invariant of degree exactly 2d - 1 is indecomposable.  Both halves are
certified here by explicit search.

One subset-sum dynamic program answers every exhaustive zero-sum question
and re-checks each sequence the Davenport search (a bitmask one) finds.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from array import array
from collections import Counter, defaultdict
from typing import Iterable, Mapping, Optional

from .budgets import DEFAULT, Budgets
from .errors import BudgetError

__all__ = [
    "GroupSequence",
    "DavenportResult",
    "GeneratorDegreeCertificate",
    "is_zero_sum",
    "find_zero_sum_subsequence",
    "verify_zero_sum_free",
    "davenport_constant",
    "decompose_invariant_monomial",
    "max_generator_degree_translation",
    "selftest",
]


@dataclasses.dataclass(frozen=True)
class GroupSequence:
    """A finite multiset of elements of Z_d x Z_d.

    ``counts`` holds ((a, b), multiplicity) pairs sorted by element with all
    multiplicities positive; constructors canonicalize, so equal multisets
    compare and hash equal.
    """

    d: int
    counts: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.d!r}")
        merged: Counter = Counter()
        for item in self.counts:
            try:
                (a, b), mult = item
            except (TypeError, ValueError):
                raise ValueError(f"malformed count entry {item!r}") from None
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b)):
                raise ValueError(f"element {(a, b)!r} is not an integer pair")
            if not (0 <= a < self.d and 0 <= b < self.d):
                raise ValueError(
                    f"element {(a, b)} out of range for modulus {self.d}"
                )
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 0:
                raise ValueError(f"multiplicity {mult!r} for {(a, b)} is invalid")
            merged[(a, b)] += mult
        canonical = tuple(
            (elem, merged[elem]) for elem in sorted(merged) if merged[elem] > 0
        )
        object.__setattr__(self, "counts", canonical)

    @classmethod
    def from_elements(cls, d: int, elements: Iterable[tuple[int, int]]) -> "GroupSequence":
        return cls(d, tuple((tuple(e), 1) for e in elements))

    @classmethod
    def from_alpha(cls, d: int, alpha: Mapping[tuple[int, int], int]) -> "GroupSequence":
        return cls(d, tuple((tuple(e), m) for e, m in alpha.items()))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.counts)

    def elements(self) -> list[tuple[int, int]]:
        """The multiset expanded to a sorted list."""
        return [e for e, m in self.counts for _ in range(m)]

    def sum_mod(self) -> tuple[int, int]:
        """Componentwise sum of all elements, reduced mod d."""
        p = sum(a * m for (a, _), m in self.counts) % self.d
        q = sum(b * m for (_, b), m in self.counts) % self.d
        return (p, q)

    def add(self, other: "GroupSequence") -> "GroupSequence":
        if other.d != self.d:
            raise ValueError(f"modulus mismatch: {self.d} vs {other.d}")
        return GroupSequence(self.d, self.counts + other.counts)

    def subtract(self, other: "GroupSequence") -> "GroupSequence":
        if other.d != self.d:
            raise ValueError(f"modulus mismatch: {self.d} vs {other.d}")
        mine = dict(self.counts)
        for elem, mult in other.counts:
            if mine.get(elem, 0) < mult:
                raise ValueError(
                    f"cannot remove {mult} copies of {elem}: not a sub-multiset"
                )
            mine[elem] -= mult
        return GroupSequence.from_alpha(self.d, mine)


def is_zero_sum(s: GroupSequence) -> bool:
    """True when both coordinate sums of the multiset vanish mod d."""
    return s.sum_mod() == (0, 0)


def _first_zero_sum(
    d: int, elems: Iterable[tuple[int, int]], flat: bool = True
) -> Optional[GroupSequence]:
    """First nonempty zero-sum sub-multiset of elems, or None.

    Dynamic program over subset sums, (a, b) coded a*d + b: back[t] is the
    sum t was first reached from (0 for a single element, -1 while t is
    unreached), and ``reached`` lists the sums in the order they were
    reached; the witness is read off by walking back to 0.  Adding e, each
    new sum has one source, so the sums' order is free, and after the first
    copy of e only the sums new at the previous copy can reach more.

    back is one flat array of d*d entries, or, when ``flat`` is false (far
    fewer sums reachable than d*d), a dict holding only the reached sums.
    """
    back = array("q", [-1]) * (d * d) if flat else defaultdict(lambda: -1)
    reached: list[int] = []
    mark = 0
    prev = None
    for e in elems:
        ea, eb = e
        size = len(reached)
        frontier = [0, *reached] if e != prev else reached[mark:size]
        mark, prev = size, e
        for s in frontier:
            t = (s // d + ea) % d * d + (s % d + eb) % d
            if t == 0:
                witness = [e]
                while s:
                    witness.append(((s // d - back[s] // d) % d, (s - back[s]) % d))
                    s = back[s]
                return GroupSequence.from_elements(d, witness)
            if back[t] < 0:
                back[t] = s
                reached.append(t)
    return None


def find_zero_sum_subsequence(
    s: GroupSequence, budget: Budgets = DEFAULT
) -> Optional[GroupSequence]:
    """A nonempty zero-sum sub-multiset of s, or None if s is zero-sum free.

    Runs the subset-sum dynamic program on the first 2d - 1 elements (in
    canonical order), or on all of them when there are fewer: the
    Davenport constant guarantees a witness among 2d - 1 elements, so the
    returned witness always has degree at most 2d - 1.
    """
    if s.degree == 0:
        return None
    if s.d * s.d > budget.closure_cap:
        raise BudgetError(
            f"subset-sum search needs {s.d * s.d} states; budget is {budget.closure_cap}"
        )
    expanded = (e for e, m in s.counts for _ in range(m))
    return _first_zero_sum(s.d, itertools.islice(expanded, 2 * s.d - 1))


def verify_zero_sum_free(s: GroupSequence, budget: Budgets = DEFAULT) -> bool:
    """Exhaustively confirm that no nonempty sub-multiset of s is zero-sum.

    Runs the subset-sum dynamic program on every element; it keeps at most
    one sum per sub-multiset, so the budget bounds the product of
    (multiplicity + 1) over distinct elements.
    """
    combos = math.prod(m + 1 for _, m in s.counts)
    if combos > budget.tuple_enumeration:
        raise BudgetError(
            f"zero-sum-free check needs {combos} sub-multisets; "
            f"budget is {budget.tuple_enumeration}"
        )
    return _first_zero_sum(s.d, s.elements(), flat=s.d * s.d <= combos) is None


@functools.lru_cache(maxsize=None)
def _max_zero_sum_free_length(d: int) -> tuple[int, GroupSequence]:
    """Exhaustive search for the longest zero-sum-free sequence over
    Z_d x Z_d; returns the length and the first such sequence found.

    The result depends on d alone, so the search runs once per d per
    process; ``davenport_constant`` still re-checks the length and the
    sequence on every call, under that call's budget.

    Depth-first over multisets of nonzero elements in nondecreasing order,
    carrying the achievable nonempty subset sums as a bitmask (bit a*d + b
    for the sum (a, b)); a branch dies as soon as (0, 0) becomes
    achievable.  A zero-sum-free sequence has at most d*d - 1 elements (its
    prefix sums are distinct and nonzero), so the search needs no cap.
    """
    nonzero = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
    size = d * d
    full = (1 << size) - 1
    # wrap[b] masks columns 0..b-1 of every row, where a b-column shift wraps
    wrap = [sum(((1 << b) - 1) << (r * d) for r in range(d)) for b in range(d)]
    best_len = 0
    best_seq: list[tuple[int, int]] = []

    def search(start: int, mask: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal best_len, best_seq
        if len(chosen) > best_len:
            best_len = len(chosen)
            best_seq = list(chosen)
        for i in range(start, len(nonzero)):
            a, b = nonzero[i]
            # sums with the new element are the old ones moved by (a, b):
            # rotate the whole mask by a rows, then every row by b columns
            moved = ((mask << a * d) | (mask >> size - a * d)) & full
            moved = ((moved << b) & (full ^ wrap[b])) | ((moved >> d - b) & wrap[b])
            new_mask = mask | moved | (1 << a * d + b)
            if new_mask & 1:  # bit 0 is the sum (0, 0)
                continue
            chosen.append(nonzero[i])
            search(i, new_mask, chosen)
            chosen.pop()

    search(0, 0, [])
    return best_len, GroupSequence.from_elements(d, best_seq)


def _classical_witness(d: int) -> GroupSequence:
    return GroupSequence.from_elements(d, [(1, 0), (0, 1)] * (d - 1))


@dataclasses.dataclass(frozen=True)
class DavenportResult:
    """Computed Davenport constant of Z_d x Z_d with its extremal witness.

    ``certified`` is True when exhaustive search proved no longer zero-sum-
    free sequence exists; otherwise only the witness (lower bound) was
    verified and the constant is reported from the closed form 2d - 1.
    """

    d: int
    constant: int
    witness: GroupSequence
    certified: bool

    @property
    def max_zero_sum_free_length(self) -> int:
        return self.constant - 1


def davenport_constant(d: int, budget: Budgets = DEFAULT) -> DavenportResult:
    """The least length forcing a nonempty zero-sum subsequence in Z_d x Z_d.

    For d up to the exhaustive budget the value is certified by searching
    every zero-sum-free multiset; beyond it the classical witness of length
    2d - 2 is verified zero-sum-free and the constant 2d - 1 is reported
    uncertified.
    """
    if isinstance(d, bool) or not isinstance(d, int):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    witness = _classical_witness(d)
    if not verify_zero_sum_free(witness, budget):
        raise AssertionError("extremal witness failed zero-sum-free check")
    if d <= budget.davenport_exhaustive_max_d:
        max_len, found = _max_zero_sum_free_length(d)
        if max_len != 2 * d - 2:
            raise AssertionError(
                f"exhaustive search found zero-sum-free length {max_len}, "
                f"expected {2 * d - 2}"
            )
        if not verify_zero_sum_free(found, budget):
            raise AssertionError("search produced a non-zero-sum-free sequence")
        return DavenportResult(d=d, constant=max_len + 1, witness=witness, certified=True)
    return DavenportResult(d=d, constant=2 * d - 1, witness=witness, certified=False)


def decompose_invariant_monomial(
    s: GroupSequence, budget: Budgets = DEFAULT
) -> list[GroupSequence]:
    """Split a zero-sum multiset into zero-sum factors of degree <= 2d - 1.

    Repeatedly extracts a short zero-sum sub-multiset (one exists inside any
    2d - 1 elements, by the Davenport constant); the complement of a
    zero-sum part inside a zero-sum whole is again zero-sum, so the
    remainder stays decomposable.  The factors sum to the input exactly.
    """
    if not is_zero_sum(s):
        raise ValueError(
            f"sequence with componentwise sums {s.sum_mod()} mod {s.d} is not zero-sum"
        )
    if s.degree == 0:
        return []
    cap = 2 * s.d - 1
    factors = []
    current = s
    while current.degree > cap:
        part = find_zero_sum_subsequence(current, budget)
        if part is None:  # impossible: current has more than 2d - 1 elements
            raise AssertionError("no zero-sum part found above the Davenport length")
        current = current.subtract(part)
        if not is_zero_sum(current):
            raise AssertionError("complement of a zero-sum part lost the zero-sum property")
        factors.append(part)
    factors.append(current)
    return factors


@dataclasses.dataclass(frozen=True)
class GeneratorDegreeCertificate:
    """Evidence that translation-invariant polynomial generators need
    degree exactly 2d - 1.

    The upper bound comes from the Davenport computation (every longer
    invariant monomial factors); the lower bound is the explicit invariant
    of degree 2d - 1, the Davenport witness plus the element that closes
    its sum, indecomposable because the witness is verified zero-sum free.
    """

    d: int
    degree: int
    davenport: DavenportResult
    indecomposable: GroupSequence
    indecomposable_verified: bool


def max_generator_degree_translation(
    d: int, budget: Budgets = DEFAULT
) -> GeneratorDegreeCertificate:
    """Sharp degree bound 2d - 1 for translation-invariant generators,
    packaged with both halves of the certificate."""
    dav = davenport_constant(d, budget)
    p, q = dav.witness.sum_mod()
    closing = ((-p) % d, (-q) % d)
    # the closing element is the witness's negated sum, so the invariant is
    # zero-sum, of degree 2d - 2 + 1 = 2d - 1
    indecomposable = dav.witness.add(GroupSequence.from_elements(d, [closing]))
    # a proper nonempty zero-sum part leaves a zero-sum complement, and one
    # of the two misses the closing element: so the invariant is
    # indecomposable exactly when it is zero-sum free without that element,
    # that is when dav.witness is, which davenport_constant has verified
    return GeneratorDegreeCertificate(
        d=d,
        degree=indecomposable.degree,
        davenport=dav,
        indecomposable=indecomposable,
        indecomposable_verified=True,
    )


def selftest() -> None:
    """Fast internal consistency checks; raises AssertionError on failure."""
    assert is_zero_sum(GroupSequence.from_elements(2, [(1, 0), (1, 0)]))
    assert davenport_constant(2).constant == 3
    assert davenport_constant(3).constant == 5
    s = GroupSequence.from_alpha(2, {(1, 0): 2, (0, 1): 2, (1, 1): 2})
    factors = decompose_invariant_monomial(s)
    total = GroupSequence.from_elements(2, [])
    for f in factors:
        assert is_zero_sum(f) and f.degree <= 3
        total = total.add(f)
    assert total == s
    cert = max_generator_degree_translation(2)
    assert cert.degree == 3 and cert.indecomposable_verified
