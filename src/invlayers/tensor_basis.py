"""Indicator-tensor bases for linear functionals invariant under typed
node permutations.

Each basis element is indexed by a colored partition of the tensor axes:
the type label of an axis says which node block its index ranges over,
and the partition of the axes within a type prescribes the exact
equality pattern of the indices.  The supports of distinct descriptors
are disjoint and together cover every index tuple, which makes the
family orthogonal and makes coefficient extraction a per-support mean.
A support is empty exactly when a type class holds fewer nodes than the
descriptor has blocks of that type; such elements are kept (flagged) so
the indexing stays aligned with the descriptor enumeration.

A basis file has one layout, written by ``serialize_basis`` and inside
the ``invlayers basis`` report, and read by ``load_basis``: 0-based type
labels and 1-based node indices.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, IO, Sequence

import numpy as np

from .budgets import DEFAULT as DEFAULT_BUDGETS
from .combinat import ColoredPartition, SetPartition, enumerate_colored_partitions, gen_bell
from .errors import BasisFileError, BudgetError, _trusted
from .permgroup import PermGroupSpec, Permutation, TypedNodeSet


@dataclass(frozen=True)
class SparseIndicatorTensor:
    """A 0/1 tensor of order k over ``0..n-1`` given by its support set."""

    n: int
    k: int
    support: frozenset[tuple[int, ...]]

    def __post_init__(self):
        # a frozenset of plain tuples is kept, so values can share one support
        if type(self.support) is not frozenset or any(type(t) is not tuple for t in self.support):
            object.__setattr__(self, "support", frozenset(map(tuple, self.support)))
        for t in self.support:
            if len(t) != self.k:
                raise ValueError(f"support tuple {t} is not of length {self.k}")
            if any(not 0 <= i < self.n for i in t):
                raise ValueError(f"support tuple {t} out of range 0..{self.n - 1}")

    @property
    def size(self) -> int:
        return len(self.support)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n,) * self.k)
        for t in self.support:
            dense[t] = 1.0
        return dense


@dataclass(frozen=True)
class BasisElement:
    descriptor: ColoredPartition
    tensor: SparseIndicatorTensor
    types: TypedNodeSet

    @property
    def is_empty(self) -> bool:
        return self.tensor.size == 0


def build_basis_element(
    desc: ColoredPartition, t: TypedNodeSet, budget: int = DEFAULT_BUDGETS.tuple_enumeration
) -> BasisElement:
    """Realize one descriptor over a concrete typed node set.

    The support holds every index tuple whose axis values lie in the
    blocks named by the axis types and whose equality pattern matches the
    per-type partitions exactly: axes in one partition block share a
    node, axes in different blocks of the same type take distinct nodes.
    """
    if desc.num_types != t.m:
        raise ValueError(f"descriptor has {desc.num_types} types, node set has {t.m}")
    k = desc.k
    block_lists = [desc.gammas[j].blocks for j in range(t.m)]
    est = 1
    for j in range(t.m):
        est *= math.perm(t.type_sizes[j], len(block_lists[j]))
    if est > budget:
        raise BudgetError(f"support size {est} exceeds budget {budget}")
    # one node per block, the blocks of type 0 first: axis s takes the node
    # of its block, slot[s] in that concatenated choice
    slot = [0] * k
    for i, axes in enumerate(itertools.chain.from_iterable(block_lists)):
        for axis in axes:
            slot[axis] = i
    # for k <= 1 the choice is the support tuple (itemgetter would return a bare node)
    pick = operator.itemgetter(*slot) if k > 1 else tuple
    choices = [
        itertools.permutations(t.block(j), len(block_lists[j])) for j in range(t.m)
    ]
    nodes = map(tuple, map(itertools.chain.from_iterable, itertools.product(*choices)))
    support = frozenset(map(pick, nodes))
    if len(support) != est:
        raise AssertionError(f"built {len(support)} support tuples, expected {est}")
    # every support tuple picks k nodes of t's blocks
    return BasisElement(desc, _trusted(SparseIndicatorTensor, n=t.n, k=k, support=support), t)


def build_full_basis(
    k: int, t: TypedNodeSet, budget: int = DEFAULT_BUDGETS.tuple_enumeration
) -> list[BasisElement]:
    """All basis elements of order k for a typed node set, canonical order.

    The nonempty supports partition the full set of ``n**k`` index
    tuples; the number of descriptors is the colored-partition count
    ``gen_bell(t.m, k)`` regardless of block sizes.  Both counts must fit
    the one budget, which then bounds the work, so no axis or type cap
    applies.
    """
    if t.n**k > budget:
        raise BudgetError(f"{t.n}**{k} index tuples exceed budget {budget}")
    count = gen_bell(t.m, k)
    if count > budget:
        raise BudgetError(f"gen_bell({t.m}, {k}) = {count} descriptors exceed budget {budget}")
    return [
        build_basis_element(desc, t, budget)
        for desc in enumerate_colored_partitions(k, t.m, axis_cap=k, type_cap=t.m)
    ]


def equivariant_basis(
    k: int, d: int, t: TypedNodeSet, budget: int = DEFAULT_BUDGETS.tuple_enumeration
) -> list[BasisElement]:
    """Basis for equivariant linear maps from order-k to order-d tensors.

    Such maps correspond to invariant functionals of order k + d, so this
    is the full order-(k+d) basis; read the first k axes as input indices
    and the last d as output indices.
    """
    if k < 0 or d < 0:
        raise ValueError("tensor orders must be nonnegative")
    return build_full_basis(k + d, t, budget)


def apply_functional(b: BasisElement, x: np.ndarray) -> float:
    """Sum of the entries of ``x`` over the element's support."""
    tensor = b.tensor
    x = np.asarray(x)
    if x.shape != (tensor.n,) * tensor.k:
        raise ValueError(
            f"expected tensor of shape {(tensor.n,) * tensor.k}, got {x.shape}"
        )
    if tensor.size == 0:
        return 0.0
    cols = tuple(np.array(c) for c in zip(*sorted(tensor.support)))
    return float(x[cols].sum())


def apply_functional_fold(
    b: BasisElement, value_at: Callable[[tuple[int, ...]], float]
) -> float:
    """Streaming form of ``apply_functional`` for tensors kept out of memory."""
    return float(sum(value_at(t) for t in sorted(b.tensor.support)))


def permute_tensor(x: np.ndarray, g: Permutation) -> np.ndarray:
    """Diagonal action on a dense tensor: (g.x)[g(i_1)..g(i_k)] = x[i_1..i_k]."""
    x = np.asarray(x)
    if x.ndim == 0:
        return x.copy()
    inv = list(g.inverse().image)
    return x[np.ix_(*([inv] * x.ndim))]


def group_average(x: np.ndarray, elements: Sequence[Permutation]) -> np.ndarray:
    """Average of a dense tensor over a listed group (the invariant projection)."""
    if not elements:
        raise ValueError("empty element list")
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for g in elements:
        acc += permute_tensor(x, g)
    return acc / len(elements)


def verify_invariance(b: BasisElement, spec: PermGroupSpec) -> bool:
    """True when every generator maps the support onto itself."""
    support = b.tensor.support
    for g in spec.generators:
        if {g.apply_tuple(t) for t in support} != support:
            return False
    return True


def verify_orthogonality(basis: Sequence[BasisElement]) -> bool:
    """True when all supports are pairwise disjoint."""
    total = 0
    union: set[tuple[int, ...]] = set()
    for b in basis:
        total += b.tensor.size
        union |= b.tensor.support
    return len(union) == total


def decompose(x: np.ndarray, basis: Sequence[BasisElement]) -> list[float]:
    """Coefficient of each basis element in the invariant projection of x.

    Because supports are disjoint 0/1 patterns, the coefficient is just
    the mean of ``x`` over the support; empty elements get 0.0.  The
    reconstruction equals the group average of ``x``.
    """
    coeffs = []
    for b in basis:
        if b.is_empty:
            coeffs.append(0.0)
        else:
            coeffs.append(apply_functional(b, x) / b.tensor.size)
    return coeffs


def reconstruct(coeffs: Sequence[float], basis: Sequence[BasisElement]) -> np.ndarray:
    if len(coeffs) != len(basis):
        raise ValueError("coefficient count does not match basis size")
    if not basis:
        raise ValueError("empty basis")
    first = basis[0].tensor
    out = np.zeros((first.n,) * first.k)
    for c, b in zip(coeffs, basis):
        for t in b.tensor.support:
            out[t] = c
    return out


def _rows(support: frozenset[tuple[int, ...]]) -> list[list[int]]:
    """A support as a basis file holds it: sorted rows of 1-based node indices."""
    return [[i + 1 for i in t] for t in sorted(support)]


def _basis_document(basis: Sequence[BasisElement]) -> dict:
    """The header and the records of a basis, in the ``serialize_basis`` layout."""
    if not basis:
        raise ValueError("refusing to serialize an empty basis")
    n = basis[0].tensor.n
    k = basis[0].tensor.k
    sizes = basis[0].types.type_sizes
    if any(b.types.type_sizes != sizes or b.tensor.k != k for b in basis):
        raise ValueError("basis elements disagree on node set or tensor order")
    records = [
        {
            "axis_types": list(b.descriptor.axis_types),
            "blocks_by_type": [list(g.rgs()) for g in b.descriptor.gammas],
            "support": _rows(b.tensor.support),
        }
        for b in basis
    ]
    return {"n": n, "k": k, "type_sizes": list(sizes), "count": len(basis), "elements": records}


def serialize_basis(basis: Sequence[BasisElement], fp: IO[str] | str | os.PathLike) -> None:
    """Write a basis as UTF-8 JSON: a header (n, k, type_sizes, count) and
    one record per element with its 0-based axis type labels
    (``axis_types``), the restricted growth string of each type's
    partition (``blocks_by_type``) and its sorted support with 1-based
    node indices (``support``), empty supports as empty lists.
    ``invlayers basis`` writes the same layout inside its report."""
    text = json.dumps(_basis_document(basis), indent=1, sort_keys=True) + "\n"
    path = isinstance(fp, (str, os.PathLike))
    with open(fp, "w", encoding="utf-8") if path else nullcontext(fp) as handle:
        handle.write(text)


def load_basis(fp: IO[str] | str | os.PathLike) -> list[BasisElement]:
    """Read a basis written by ``serialize_basis`` or ``invlayers basis``
    (whose ``version`` and ``config`` keys are ignored); inverse up to identity."""
    path = isinstance(fp, (str, os.PathLike))
    try:
        with open(fp, encoding="utf-8") if path else nullcontext(fp) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as e:
        raise BasisFileError(f"line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise BasisFileError(f"not UTF-8: {e}") from e
    if not isinstance(doc, dict):
        raise BasisFileError("top level is not a JSON object")
    for field in ("n", "k", "type_sizes", "count", "elements"):
        if field not in doc:
            raise BasisFileError(f"missing header field {field!r}")
    for field in ("n", "k", "count"):
        value = doc[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise BasisFileError(f"header field {field!r} is not a nonnegative int: {value!r}")
    if not isinstance(doc["elements"], list):
        raise BasisFileError("header field 'elements' is not a list")
    n, k = doc["n"], doc["k"]
    try:
        t = TypedNodeSet(tuple(doc["type_sizes"]))
    except (TypeError, ValueError) as e:
        raise BasisFileError(f"type_sizes: {e}") from e
    if t.n != n:
        raise BasisFileError(f"type_sizes {t.type_sizes} do not sum to n={n}")
    if len(doc["elements"]) != doc["count"]:
        raise BasisFileError(
            f"count field says {doc['count']} but {len(doc['elements'])} records present"
        )
    out = []
    for idx, rec in enumerate(doc["elements"]):
        try:
            axis_types, blocks, rows = rec["axis_types"], rec["blocks_by_type"], rec["support"]
            if len(axis_types) != k:
                raise ValueError(f"axis_types length {len(axis_types)} != k={k}")
            gammas = []
            for j, rgs in enumerate(blocks):
                axes = tuple(s for s, tv in enumerate(axis_types) if tv == j)
                gammas.append(SetPartition.from_rgs(axes, tuple(rgs)))
            rebuilt = build_basis_element(ColoredPartition(tuple(axis_types), tuple(gammas)), t)
            # JSON floats and bools compare equal to ints, so the rows can
            # match and still hold 1.0 or true
            labels = set(map(type, itertools.chain(axis_types, *blocks, *rows)))
        except (KeyError, ValueError, TypeError) as e:
            raise BasisFileError(str(e), record=idx) from e
        if rows != _rows(rebuilt.tensor.support):
            raise BasisFileError("support does not match its descriptor", record=idx)
        if not labels <= {int}:
            raise BasisFileError("a type label, block label or node index is not an int", record=idx)
        out.append(rebuilt)
    return out


def selftest() -> None:
    """Fast internal consistency checks (used by the CLI --selftest flag)."""
    from .permgroup import young_generators

    for sizes in [(2, 1), (2, 2), (3,)]:
        t = TypedNodeSet(sizes)
        for k in (1, 2):
            basis = build_full_basis(k, t)
            assert len(basis) == gen_bell(t.m, k)
            assert verify_orthogonality(basis)
            assert sum(b.tensor.size for b in basis) == t.n**k
            spec = young_generators(t)
            assert all(verify_invariance(b, spec) for b in basis)
