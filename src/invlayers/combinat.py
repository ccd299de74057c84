"""Counting and enumeration of plain and type-colored set partitions.

The dimension of the space of permutation-invariant linear functionals on
order-k tensors reduces to counting set partitions of the k tensor axes.
When the index set splits into m node types the blocks additionally carry
type labels, and the count becomes the m-colored generalisation of the
Bell numbers computed here (``gen_bell``).  The matching canonical
enumerations index the tensor bases built elsewhere in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .budgets import DEFAULT as DEFAULT_BUDGETS
from .errors import BudgetError, _trusted


@dataclass(frozen=True)
class SetPartition:
    """A partition of a finite set of axis indices into nonempty blocks.

    Blocks are kept in canonical form: each block sorted ascending and
    blocks ordered by their minimum element, so structurally equal
    partitions compare (and hash) equal.  The ground set is the union of
    the blocks; it need not be a prefix ``0..k-1``, which lets the same
    type partition the axes of a single color class.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = []
        seen: set[int] = set()
        for block in self.blocks:
            if len(block) == 0:
                raise ValueError("empty block in set partition")
            bs = tuple(sorted(block))
            for x in bs:
                if not isinstance(x, int) or x < 0:
                    raise ValueError(f"invalid axis index {x!r}")
                if x in seen:
                    raise ValueError(f"axis {x} appears in two blocks")
                seen.add(x)
            canon.append(bs)
        canon.sort(key=lambda b: b[0])
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string over the sorted ground set."""
        idx = {x: i for i, block in enumerate(self.blocks) for x in block}
        return tuple(idx[x] for x in self.elements)

    @classmethod
    def from_rgs(cls, elements: Sequence[int], rgs: Sequence[int]) -> "SetPartition":
        if len(elements) != len(rgs):
            raise ValueError("rgs length must match ground set size")
        blocks: dict[int, list[int]] = {}
        top = -1
        for x, label in zip(elements, rgs):
            if label < 0 or label > top + 1:
                raise ValueError(f"not a restricted growth string: {tuple(rgs)}")
            top = max(top, label)
            blocks.setdefault(label, []).append(x)
        return cls(tuple(tuple(b) for b in blocks.values()))


@dataclass(frozen=True)
class ColoredPartition:
    """A type label per tensor axis plus a set partition of each type class.

    ``axis_types[s]`` is the (0-based) type of axis ``s``; ``gammas[j]``
    partitions exactly the axes of type ``j`` and may be empty when no
    axis carries that type.  Equality of tensor indices is constrained
    only within a type class, which is all the typed symmetric group can
    see: nodes of different types live in disjoint ranges.
    """

    axis_types: tuple[int, ...]
    gammas: tuple[SetPartition, ...]

    def __post_init__(self):
        object.__setattr__(self, "axis_types", tuple(self.axis_types))
        object.__setattr__(self, "gammas", tuple(self.gammas))
        m = len(self.gammas)
        if m < 1:
            raise ValueError("need at least one type")
        for s, t in enumerate(self.axis_types):
            if not 0 <= t < m:
                raise ValueError(f"axis {s} has type {t} outside 0..{m - 1}")
        for j, gamma in enumerate(self.gammas):
            expected = self.axes_of_type(j)
            if gamma.elements != expected:
                raise ValueError(
                    f"gamma {j} partitions {gamma.elements}, expected {expected}"
                )

    @property
    def k(self) -> int:
        return len(self.axis_types)

    @property
    def num_types(self) -> int:
        return len(self.gammas)

    def axes_of_type(self, j: int) -> tuple[int, ...]:
        return tuple(s for s, t in enumerate(self.axis_types) if t == j)


def stirling2(k: int, j: int) -> int:
    """Number of partitions of a k-set into exactly j nonempty blocks."""
    if k < 0 or j < 0:
        raise ValueError("k and j must be nonnegative")
    return _stirling_row(k)[j] if j <= k else 0


@lru_cache(maxsize=None)
def _stirling_row(k: int) -> tuple[int, ...]:
    """The Stirling numbers S(k, 0..k), built up one row at a time from
    S(0, 0) = 1 by S(i, j) = j S(i - 1, j) + S(i - 1, j - 1)."""
    row = [1]
    for i in range(1, k + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, i)] + [1]
    return tuple(row)


def bell(k: int) -> int:
    """Number of set partitions of a k-set (dimension count for one type)."""
    return gen_bell(1, k)


def gen_bell(m: int, k: int) -> int:
    """Number of m-colored set partitions of a k-set.

    Equals ``sum_j stirling2(k, j) * m**j``: partition the axes, then give
    each block one of m type labels.  This is the invariant-space
    dimension for m node types acting on order-k tensors, provided every
    type class holds at least k nodes.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    row = _stirling_row(k)
    return sum(row[j] * m**j for j in range(k + 1))


def egf_power_coeffs(a: Sequence[int], m: int) -> list[int]:
    """Taylor coefficients (times k!) of ``f(x)**m`` from those of ``f``.

    ``a[k]`` is k! times the k-th Taylor coefficient of ``f``; the result
    lists the same normalisation for ``f**m``.  Implemented as repeated
    binomial convolution, which is the exponential-generating-function
    product rule.  With ``a`` the Bell numbers (EGF ``exp(exp(x) - 1)``)
    the result is the m-colored count ``gen_bell(m, k)``.
    """
    if m < 1:
        raise ValueError("m must be positive")
    coeffs = list(a)
    out = coeffs
    for _ in range(m - 1):
        out = _binomial_convolve(out, coeffs)
    return out


def _binomial_convolve(u: Sequence[int], v: Sequence[int]) -> list[int]:
    size = min(len(u), len(v))
    return [
        sum(math.comb(k, i) * u[i] * v[k - i] for i in range(k + 1))
        for k in range(size)
    ]


def set_partitions_of(elements: Sequence[int]) -> Iterator[SetPartition]:
    """All partitions of an arbitrary ground set, in RGS lexicographic order."""
    elements = tuple(sorted(elements))
    for rgs in _rgs_strings(len(elements)):
        yield SetPartition.from_rgs(elements, rgs)


def _rgs_strings(k: int) -> Iterator[tuple[int, ...]]:
    # Restricted growth strings of length k in lexicographic order:
    # a[0] = 0 and a[i] <= 1 + max(a[:i]).
    def rec(prefix: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            prefix.append(v)
            yield from rec(prefix, max(top, v))
            prefix.pop()

    yield from rec([], -1)


def enumerate_set_partitions(k: int, cap: int = DEFAULT_BUDGETS.axis_cap) -> list[SetPartition]:
    """All partitions of axes ``0..k-1`` in canonical (RGS lex) order."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > cap:
        raise BudgetError(f"k={k} exceeds axis cap {cap}")
    return list(set_partitions_of(range(k)))


def enumerate_colored_partitions(
    k: int,
    m: int,
    axis_cap: int = DEFAULT_BUDGETS.axis_cap,
    type_cap: int = DEFAULT_BUDGETS.type_cap,
) -> list[ColoredPartition]:
    """All m-colored partitions of axes ``0..k-1`` in canonical order.

    Order: type assignments lexicographically, then per-type partitions in
    RGS order with the last type varying fastest.  The length of the
    result is ``gen_bell(m, k)``.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if m < 1:
        raise ValueError("m must be positive")
    if k > axis_cap:
        raise BudgetError(f"k={k} exceeds axis cap {axis_cap}")
    if m > type_cap:
        raise BudgetError(f"m={m} exceeds type cap {type_cap}")
    # the partitions of each axis subset, built (and checked) once per call
    partitions: dict[tuple[int, ...], list[SetPartition]] = {}
    out = []
    for assignment in itertools.product(range(m), repeat=k):
        per_type = []
        for j in range(m):
            axes = tuple(s for s, t in enumerate(assignment) if t == j)
            if axes not in partitions:
                partitions[axes] = list(set_partitions_of(axes))
            per_type.append(partitions[axes])
        for combo in itertools.product(*per_type):
            # combo[j] partitions exactly the axes of type j
            out.append(_trusted(ColoredPartition, axis_types=assignment, gammas=combo))
    return out


def selftest() -> None:
    """Fast internal consistency checks (used by the CLI --selftest flag)."""
    assert [bell(k) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    for k in range(6):
        assert len(enumerate_set_partitions(k)) == bell(k)
    for m in range(1, 4):
        for k in range(5):
            assert len(enumerate_colored_partitions(k, m)) == gen_bell(m, k)
            assert egf_power_coeffs([bell(i) for i in range(k + 1)], m)[k] == gen_bell(m, k)
