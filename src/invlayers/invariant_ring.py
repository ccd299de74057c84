"""Generator degrees of permutation-invariant polynomial rings, and the
conjecture-verification harness built on them.

For a permutation group acting on variables x_1..x_n, the invariant
polynomials of each degree are spanned by monomial orbit sums.  A minimal
generator at degree d is an invariant not expressible through products of
lower-degree invariants; the scan here computes, degree by degree, how many
new generators appear, by comparing the invariant dimension (orbit count,
cross-checked against the cycle-index series) with the rank of the span of
all products of previously found generators.

Every monomial is one packed int: its exponents sit in fixed-width bit
fields, the first variable most significant, each field wide enough for the
largest degree in play.  Descending int order is then descending lex order,
and a product of monomials is the sum of their ints, with no carries (the
packed monomials of Monagan and Pearce, ISSAC 2009).  A monomial of degree
d is x_i times one, m, of degree d - 1, x_i its first variable, as index
tables cached per degree record.  Its packed int is x_i's plus m's, and a
permutation t sends it to x_t(i) times t(m), so each degree's monomials,
and the maps on them of the permutations the scan carries, are built from
the degree below.  The orbits come from the group's point-stabilizer
chain, with one gather and minimum per coset representative per degree
(``_orbit_partition``).  When the scan is given the group's elements, the
chain is read off them in one pass (``permgroup._listed_chain``), which
checks each stabilizer's element count against its cosets; otherwise it is
built from the generators by Schreier-Sims (``permgroup._stabilizer_chain``),
which lists no element.

Once the scan has passed degree d', the generators found so far generate
every invariant of degree at most d'.  The span of the degree-d generator
products is therefore the sum, over the generators g, of g times the
invariants of degree d - deg(g): it is spanned by the rows g * orbitsum(o),
o an orbit of degree d - deg(g), and no product of three or more factors is
ever built.  A product of invariants is invariant, so a row is held in
orbit-sum coordinates, one coefficient per orbit of degree d (Thiery,
SIGSAM Bull. 34(3), 2000; Goebel, JSC 19, 1995): on the orbit with lead L
it counts the members b of g and m of o with b + m = L, each sum looked up
among the leads.  Lex order is a monomial order, so the row's lead is
L_g + L_o with coefficient 1: leads multiply, as in the subalgebra bases of
Robbiano and Sweedler (LNM 1430, 1990).

Ranks are certified cheapest first, between two bounds.  The cover picks,
for each orbit c of degree d, the first generator g with L_c - L_g the lead
of an orbit o of degree d - deg(g); those rows are triangular with unit
lead coefficients, hence independent, so the rank is at least the cover's
size.  Every row is a combination of the degree-d products of the
generators found below d, so the rank is at most their number P_d, read
off the product over those generators g of 1/(1 - t^deg g)
(``_RingScan.products``), and a cover larger than P_d raises
``AssertionError``.  A cover of min(dim, P_d) columns therefore holds the
leads of the whole product span and settles the degree with no row built:
the uncovered orbits are the new generators.  Otherwise the rows left over
are reduced in place by sparse elimination, the cover's rows standing as
known pivots, built only when a reduction reaches them, and the rows with a
coefficient on an uncovered orbit going first, until the pivots reach
min(dim, P_d).  Under modular arithmetic, where P_d >= dim, one pass runs
modulo a large prime first: rank mod p never exceeds rank over the
rationals, so full rank mod p proves full rank (where P_d < dim full rank
cannot be, and the pass is skipped).  Otherwise one exact pass runs
(fraction-free, with content stripping), and the orbits whose columns hold
no pivot are the new generators.

When the scan is given the group's elements, the high degrees need no
orbit at all.  The elementary symmetric polynomials of each vertex orbit
O, of degrees 1..|O|, form a homogeneous system of parameters θ.  In
characteristic 0 the invariant ring is Cohen-Macaulay (Hochster and Eagon,
Amer. J. Math. 93, 1971), hence a free C[θ]-module, generated by θ and by
module generators counted by the Hilbert numerator N(t) = H(t) * prod
(1 - t^deg θ_i), H the cycle-index series (Stanley, Bull. AMS 1, 1979).  So
degree d holds at most B_d = N_d + #{O : |O| >= d} new generators, and
none above D_G = max(deg N, max |O|), where both terms vanish.  Three
checks guard the bound: N has no negative coefficient, N vanishes above
top = sum |O|(|O|-1)/2 (the sum of the degrees of θ, less n), and the new
generators an exact pass finds never outnumber B_d.  The series is taken
through top at least, which fixes all of N: each of its terms times prod
(1 - t^deg θ_i) is a polynomial of degree top.

Each degree up to D_G is labelled and certified as above.  Above D_G the
scan labels no orbit: each degree there keeps its two budget refusals,
reads P_d off ``products``, every generator found, and takes its
dimension from the series.  No degree up to D_G reads a higher one: its
cover and rows read the degrees d - deg g < d.  The dimensions there
are the series values.  Let H be the group the stabilizer chain labels
and N' its numerator, which has no negative coefficient, R^H being
Cohen-Macaulay.  The chain's read-off checks that the identity is listed
once and that each stabilizer's element count matches its cosets, so |H|
is the listing's length |S|; degree 1, whose rows are the variables,
checks that the vertex orbits H labels are the listing's, so θ serves H
too.  The module rank is then N'(1) = prod |O|! / |H|, since θ has degrees
1..|O| on each orbit (Derksen and Kemper, Computational Invariant Theory,
3.3), and the first settled degree checks N(1) * |S| = prod |O|! (in the
listing's own series only the identity's term has a pole of order n at
t = 1).  The cross-checks through D_G make N'_i = N_i for i <= D_G, so
those coefficients of N' already sum to N'(1), and the ones above, none
negative, vanish: N' = N, and the two series agree at every degree.

The harness applies this to graph automorphism groups.  For each graph it
reports the maximal generator degree (a proxy for the smallest tensor order
needed by invariant function approximators) and checks it against two
conjectured bounds: the vertex count, and the largest automorphism orbit.
Many graphs share their group (a graph and its complement list the same
elements), so ``check_conjectures`` scans each listing once per process:
it keys a memo by the listing, which ``automorphism_group`` sorts by
image, the resolved cap and arithmetic, and the budget, which together
determine the scan, pivots depending on the rows' span alone.  A hit
returns an identical input's scan, which ran every certificate; a scan
that raises is not held, and the pool workers of ``sweep`` start empty.
"""

from __future__ import annotations

import array
import collections
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .budgets import DEFAULT, Budgets
from .errors import BudgetError
from .graphs import Graph, automorphism_group, canonical_graph6, enumerate_graphs
from .permgroup import (
    PermGroupSpec,
    Permutation,
    _listed_chain,
    _listed_orbit_sizes,
    _stabilizer_chain,
    group_closure,
)

__all__ = [
    "GeneratorDegreeResult",
    "ConjectureReport",
    "SweepResult",
    "invariant_dim_by_degree",
    "monomial_orbit_sums",
    "molien_hilbert_coeffs",
    "generator_degrees",
    "full_certification_cap",
    "conjecture_verdict",
    "check_conjectures",
    "sweep",
    "reports_csv_text",
    "write_reports_csv",
    "report_to_json_dict",
    "selftest",
]

_PRIME = 2147483647


# ----------------------------------------------------------------- monomials


def _width(degree: int) -> int:
    """Bits per exponent field: wide enough for any exponent up to degree."""
    return max(degree, 1).bit_length()


def _monomial_count(n: int, d: int) -> int:
    """The number of degree-d monomials on n variables, d >= 0."""
    return math.comb(n + d - 1, d) if n else int(d == 0)


def _budgeted_monomial_count(n: int, d: int, budget: Budgets) -> int:
    """``_monomial_count(n, d)``, refusing (``BudgetError``) a degree with
    more monomials than the budget allows."""
    count = _monomial_count(n, d)
    if count > budget.monomials_per_degree:
        raise BudgetError(
            f"degree {d} has {count} monomials on {n} variables; "
            f"budget is {budget.monomials_per_degree}"
        )
    return count


@functools.lru_cache(maxsize=None)
def _step_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For degree d >= 1 on n variables, the tables that define the rows
    of degree d, the monomials in descending lex order, by those of degree
    d - 1: ``first`` and ``quot``, the first variable x_i of each row and
    the index of the row less x_i among the degree-(d-1) rows, and
    ``mul[j, k]``, the index of x_j times degree-(d-1) row k.  Cached and
    read-only, in the smallest unsigned dtypes that fit; built from the
    tables of degree d - 1, so callers go up one degree at a time.

    In descending lex order the rows with first variable x_i form one
    block, x_i times the degree-(d-1) rows free of x_0..x_(i-1), and those
    are the last count(n - i, d - 1) rows of degree d - 1: the row with
    first variable i and quotient k is k + offset[i].  So if degree-(d-1)
    row k is x_i * q, x_j times it is row k + offset[j] when j <= i, and
    otherwise x_i * (x_j * q), row offset[i] + (the row of x_j * q)."""
    count, below = _monomial_count(n, d), _monomial_count(n, d - 1)
    sizes = np.array([_monomial_count(n - i, d - 1) for i in range(n)], dtype=np.intp)
    # block i ends at row sum(sizes[:i + 1]), its quotients at row below
    offset = np.cumsum(sizes) - below
    dtype = np.min_scalar_type(count)
    first = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), sizes)
    quot = (np.arange(count) - np.repeat(offset, sizes)).astype(dtype)
    if d == 1:
        # x_j times the constant is x_j, row j
        mul = np.arange(n, dtype=dtype)[:, None]
    else:
        lower_first, lower_quot, lower_mul = _step_tables(n, d - 1)
        mul = np.where(
            np.arange(n)[:, None] <= lower_first,
            offset[:, None] + np.arange(below),
            offset[lower_first] + lower_mul[:, lower_quot],
        ).astype(dtype)
    for table in (first, quot, mul):
        table.flags.writeable = False
    return first, quot, mul


@functools.lru_cache(maxsize=None)
def _monomials(n: int, d: int, width: int) -> np.ndarray:
    """The packed degree-d monomials on n variables, in the row order of
    ``_step_tables`` (descending): row r is x_first[r] times row quot[r] of
    degree d - 1, so its int is the sum of theirs.  Exponents sit in
    ``width``-bit fields, the first variable most significant.  Read-only
    Python ints in an object array, since the fields can exceed 64 bits."""
    if d == 0:
        packed = np.zeros(1, dtype=object)
    else:
        first, quot, _ = _step_tables(n, d)
        units = np.array([1 << width * (n - 1 - i) for i in range(n)], dtype=object)
        packed = units[first] + _monomials(n, d - 1, width)[quot]
    packed.flags.writeable = False
    return packed


def _chain_maps(chain: list[list[tuple[int, ...]]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each representative of a stabilizer chain, deepest level first, as
    its image array paired with its map on the one degree-0 row."""
    zero = np.zeros(1, dtype=np.intp)
    return [(np.array(t, dtype=np.intp), zero) for level in reversed(chain) for t in level]


def _orbit_partition(
    spec: PermGroupSpec,
    d: int,
    budget: Budgets,
    prev: Optional[list[tuple[np.ndarray, np.ndarray]]] = None,
):
    """Partition the degree-d monomials into group orbits, refusing a
    negative degree (``ValueError``) and a degree with more monomials than
    the budget allows (``BudgetError``).

    Returns (each monomial's label, the row index of its orbit's lead, an
    int array in ``_step_tables`` row order; the row index of each orbit's
    lead, ascending; the (image, map on the degree-d rows) pair of each
    chain representative, to pass as ``prev`` at degree d + 1).  ``prev``
    pairs each representative of a stabilizer chain of the group, deepest
    level first, with its map at degree d - 1; without it the chain is
    built here from the generators (``permgroup._stabilizer_chain``) and
    the maps carried up from degree 0, where each fixes the one row.  A
    degree-d row is x_i * m, x_i its first variable, and t sends it to
    x_t(i) * t(m), which is looked up in ``_step_tables``, with no sort.

    An orbit's smallest row index is its lex-max member, its lead.  Labels
    start as the row indices, the leads under the trivial group, and each
    representative t, deepest level first, lowers every row's label to the
    label of its image under t where that is smaller.  Level k's
    representatives and the identity are right coset representatives of
    level k + 1's group in level k's, so after level k every row carries
    its lead under level k's group; a label lowered earlier in the same
    level is still a row of that orbit, so it does no harm.  That is one
    gather and minimum per representative, with no fixed-point loop.  The
    rows that label themselves are the leads, in ascending order.
    """
    n = spec.n
    if d < 0:
        raise ValueError(f"need degree >= 0, got {d}")
    count = _budgeted_monomial_count(n, d, budget)
    degrees = (d,)
    if prev is None:
        prev, degrees = _chain_maps(_stabilizer_chain(spec)), range(1, d + 1)
    for e in degrees:
        first, quot, mul = _step_tables(n, e)
        # flat indices into mul, in intp, which take reads fastest
        first, quot, width = first.astype(np.intp), quot.astype(np.intp), mul.shape[1]
        prev = [(image, mul.take((image * width)[first] + m[quot])) for image, m in prev]
    labels = np.arange(count)
    for _, m in prev:
        np.minimum(labels, labels[m], out=labels)
    return labels, np.flatnonzero(labels == np.arange(count)), prev


def invariant_dim_by_degree(
    spec: PermGroupSpec, degree: int, budget: Budgets = DEFAULT
) -> int:
    """Dimension of the degree-d invariant subspace: the number of orbits
    of the group on degree-d exponent vectors.  A call at degree d builds,
    and keeps in the per-process cache, the monomial tables of every
    degree below d."""
    return len(_orbit_partition(spec, degree, budget)[1])


def monomial_orbit_sums(
    spec: PermGroupSpec, degree: int, budget: Budgets = DEFAULT
) -> list[tuple[tuple[int, ...], ...]]:
    """The orbit-sum basis of the degree-d invariants: one tuple of
    exponent vectors per orbit (lex-max member first), orbits sorted by
    descending lead.  Like ``invariant_dim_by_degree``, a call at degree
    d builds, and keeps in the per-process cache, the monomial tables of
    every degree below d."""
    labels, firsts, _ = _orbit_partition(spec, degree, budget)
    # row r is x_first[r] times row quot[r] of the degree below
    rows = np.arange(len(labels))
    exponents = np.zeros((len(labels), spec.n), dtype=np.intp)
    for e in range(degree, 0, -1):
        first, quot, _ = _step_tables(spec.n, e)
        exponents[np.arange(len(labels)), first[rows]] += 1
        rows = quot[rows]
    members: dict[int, list[tuple[int, ...]]] = {lead: [] for lead in firsts.tolist()}
    # scanning in descending order sorts each member list, lead first
    for label, row in zip(labels.tolist(), exponents.tolist()):
        members[label].append(tuple(row))
    return [tuple(ms) for ms in members.values()]


# -------------------------------------------------------------------- Molien


def _series(parts: Iterable[int], top: int) -> list[int]:
    """The coefficients of t^0..t^top in the product over k in parts of
    1/(1 - t^k): at t^d, the number of multisets of parts summing to d."""
    return _multiply_series([1] + [0] * top, parts)


def _multiply_series(coeffs: list[int], parts: Iterable[int]) -> list[int]:
    """Multiply the series ``coeffs``, truncated where the list ends, in
    place by the product over k in parts of 1/(1 - t^k), and return it."""
    for k in parts:
        for i in range(k, len(coeffs)):
            coeffs[i] += coeffs[i - k]
    return coeffs


def _molien_from_elements(elements: Sequence[Permutation], max_degree: int) -> tuple[int, ...]:
    """Invariant dimensions by degree from the cycle-index series
    (1/|G|) * sum over elements of prod over cycles of 1/(1 - t^len), one
    series per cycle type, weighted by the number of elements of that
    type."""
    order = len(elements)
    if order == 0:
        raise ValueError("empty element list")
    total = [0] * (max_degree + 1)
    for lengths, weight in collections.Counter(g.cycle_lengths() for g in elements).items():
        total = [a + weight * b for a, b in zip(total, _series(lengths, max_degree))]
    for i, c in enumerate(total):
        if c % order:
            raise AssertionError(
                f"cycle-index series coefficient {c} at degree {i} is not "
                f"divisible by the group order {order}"
            )
    return tuple(c // order for c in total)


def molien_hilbert_coeffs(
    spec: PermGroupSpec, max_degree: int, budget: Budgets = DEFAULT
) -> tuple[int, ...]:
    """Exact invariant dimensions for degrees 0..max_degree via the
    cycle-index series of the full group (closure of the generators)."""
    if max_degree < 0:
        raise ValueError(f"need max_degree >= 0, got {max_degree}")
    elements = group_closure(spec, cap=budget.closure_cap)
    return _molien_from_elements(elements, max_degree)


def _numerator_degree(orbit_sizes: Sequence[int]) -> int:
    """sum |O|(|O|-1)/2 over the vertex orbits O: the sum of the degrees
    of θ less n, above which a Cohen-Macaulay Hilbert numerator vanishes."""
    return sum(size * (size - 1) // 2 for size in orbit_sizes)


def _hilbert_numerator(molien: Sequence[int], orbit_sizes: Sequence[int]) -> list[int]:
    """The Hilbert numerator N = H * prod over orbits O of
    prod_{k=1..|O|} (1 - t^k), H the invariant dimensions ``molien``,
    truncated at the last degree ``molien`` holds."""
    numerator = list(molien)
    for size in orbit_sizes:
        for k in range(1, size + 1):
            for i in range(len(numerator) - 1, k - 1, -1):
                numerator[i] -= numerator[i - k]
    return numerator


def _generator_bound(numerator: Sequence[int], orbit_sizes: Sequence[int]) -> list[int]:
    """At index d >= 1, B_d = N_d + #{O : |O| >= d}: the most new
    generators degree d can hold, given the Hilbert numerator N from
    degree 0 to sum |O|(|O|-1)/2 or beyond and the sizes of the vertex
    orbits O (see the module docstring).  Raises ``AssertionError`` where
    N is negative, or nonzero above sum |O|(|O|-1)/2, which no
    Cohen-Macaulay ring allows."""
    top = _numerator_degree(orbit_sizes)
    if min(numerator) < 0 or any(numerator[top + 1 :]):
        raise AssertionError(
            f"Hilbert numerator {numerator} is negative, or nonzero above degree {top}"
        )
    return [c + sum(size >= d for size in orbit_sizes) for d, c in enumerate(numerator)]


# ---------------------------------------------------------- generator scan


@dataclasses.dataclass(frozen=True)
class GeneratorDegreeResult:
    """Outcome of the degree-by-degree minimal-generator scan."""

    n: int
    cap: int
    verified_up_to: int
    new_by_degree: tuple[tuple[int, int], ...]
    max_generator_degree: int
    dims: tuple[int, ...]  # invariant dimension at degrees 1..verified_up_to
    arithmetic: str
    # vertex orbit sizes of a listed group, else (); read off the listing,
    # not scanned, so two scans of one group compare equal with or without it
    orbit_sizes: tuple[int, ...] = dataclasses.field(default=(), compare=False)


class _Degree:
    """The orbits of one scanned degree: its packed monomials (descending),
    the label of each (the index of its orbit's lead among the monomials)
    and the index of each orbit's lead, ascending (int arrays, as
    ``_orbit_partition`` returns them).  The tables read off them are built
    when first read, since most degrees are settled by their cover, which
    reads ``leads`` and ``col`` alone, and build no row: ``ids``, the orbit
    of each monomial, numbered by ascending lead index; ``leads``, the
    packed lead of each orbit; ``col``, the orbit of each lead;
    ``orbit_of``, the orbit of each monomial by its packed int; and
    ``members``, the monomials of each orbit."""

    def __init__(self, monomials: np.ndarray, labels: np.ndarray, firsts: np.ndarray):
        self.monomials = monomials
        self.labels = labels
        self.firsts = firsts

    @functools.cached_property
    def ids(self) -> np.ndarray:
        return np.searchsorted(self.firsts, self.labels)

    @functools.cached_property
    def leads(self) -> list[int]:
        return self.monomials[self.firsts].tolist()

    @functools.cached_property
    def col(self) -> dict[int, int]:
        return {lead: c for c, lead in enumerate(self.leads)}

    @functools.cached_property
    def orbit_of(self) -> dict[int, int]:
        return dict(zip(self.monomials.tolist(), self.ids.tolist()))

    @functools.cached_property
    def members(self) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in self.firsts]
        for o, m in zip(self.ids.tolist(), self.monomials.tolist()):
            members[o].append(m)
        return members


def _strip_content(row: dict[int, int]) -> None:
    """Divide the row in place by its content, making its lead positive."""
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for c, v in row.items():
            row[c] = v // g


def _eliminate(
    rows: Iterable[dict[int, int]],
    dim: int,
    prime: Optional[int],
    cover: dict[int, tuple],
    build: Callable[..., dict[int, int]],
    products: int,
) -> set[int]:
    """Sparse Gaussian elimination; returns the pivot columns, which depend
    on the rows' span alone, not on their order.  ``cover`` maps columns to
    known pivots, rows with lead coefficient 1 there, built as
    ``build(*key)`` when a reduction first reaches them.  The cover's rows
    and the rows lie in the span of ``products`` vectors, so the rank
    reaches at most min(dim, products), and once the pivots reach it they
    are all the span has.  Exact fraction-free integer arithmetic when
    prime is None, otherwise arithmetic mod the prime, on entries in
    [0, prime), with every pivot scaled to lead coefficient 1 when stored.
    The rows, fresh nonzero dicts, are reduced in place.  Checks the rank
    before taking each row, so rows past that bound, built lazily, are
    never built, and a cover that reaches it builds nothing."""
    pivots: dict = dict(cover)
    reach = min(dim, products)
    rows = iter(rows)
    while len(pivots) < reach and (row := next(rows, None)) is not None:
        while row:
            if not prime:
                _strip_content(row)
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                if prime and row[lead] != 1:
                    inverse = pow(row[lead], -1, prime)
                    for c, v in row.items():
                        row[c] = v * inverse % prime
                pivots[lead] = row
                break
            if isinstance(piv, tuple):
                piv = pivots[lead] = build(*piv)
            pc, rc = piv[lead], row[lead]
            if pc != 1:
                for c, v in row.items():
                    row[c] = pc * v
            for c, v in piv.items():
                # v and rc are nonzero, so a zero here cancels an entry of row
                w = row.get(c, 0) - rc * v
                if prime:
                    w %= prime
                if w:
                    row[c] = w
                else:
                    del row[c]
    return set(pivots)


class _RingScan:
    """Degree-by-degree minimal-generator computation for one group.

    ``dims[d - 1]`` is the invariant dimension of verified degree d, so
    ``len(dims)`` is the last degree verified, and ``reach`` the last up to
    the cap whose monomials the budget admits, since the scan stops at the
    first it refuses.  The monomial orbits are labelled at each degree up to
    ``labelled_to``: the cap, or for a listed group D_G (see the module
    docstring); ``bound`` holds B_d, and ``rank`` N(1) and the listing's
    length, all read off one Hilbert numerator N.  ``molien``, the series N
    is read off, runs through top and through ``reach``.  ``degrees[d]``
    is the orbit record of labelled degree d, a ``_Degree``; degree 0, the
    constant monomial alone, is built directly.  ``maps`` pairs each
    representative of the group's stabilizer chain with its map on the rows
    of the last degree labelled, carried to the next.  Given the group's
    elements, the scan reads the chain and the vertex orbit sizes of its
    bound off them, and checks that they hold every generator of the spec;
    given none, it builds the chain from the generators.  Each generator
    found is held, in degree order, as its (degree, orbit) pair, so its
    lead and its members are read from the record of its degree.
    ``products[e]``, for e up to ``reach``, is the number of products of
    degree e of the generators found so far, a generator of degree e alone
    counting as one: one series, built once with no generator and
    multiplied in place by 1/(1 - t^deg g) as each generator g is found."""

    def __init__(
        self,
        spec: PermGroupSpec,
        cap: int,
        budget: Budgets,
        arithmetic: str,
        elements: Optional[Sequence[Permutation]],
    ):
        self.spec = spec
        self.n = spec.n
        self.cap = cap
        self.width = _width(cap)
        self.budget = budget
        self.arithmetic = arithmetic
        self.molien = self.bound = None
        self.orbit_sizes: tuple[int, ...] = ()
        self.labelled_to = cap
        limit = budget.monomials_per_degree
        self.reach = next(
            (d - 1 for d in range(1, cap + 1) if _monomial_count(self.n, d) > limit), cap
        )
        if elements is None:
            chain = _stabilizer_chain(spec)
        else:
            chain = _listed_chain(self.n, elements)
            listed = {g.image for g in elements}
            missing = next((g.image for g in spec.generators if g.image not in listed), None)
            if missing is not None:
                raise AssertionError(f"generator {missing} is not a listed element")
            self.orbit_sizes = tuple(_listed_orbit_sizes(elements))
            # the series through top fixes the whole numerator
            top = _numerator_degree(self.orbit_sizes)
            self.molien = _molien_from_elements(elements, max(self.reach, top))
            numerator = _hilbert_numerator(self.molien, self.orbit_sizes)
            self.bound = _generator_bound(numerator, self.orbit_sizes)
            self.rank = sum(numerator), len(elements)
            degree = max(d for d, c in enumerate(numerator) if c)
            self.labelled_to = max((degree, *self.orbit_sizes))
        zero = np.zeros(1, dtype=np.intp)
        self.degrees = [_Degree(_monomials(self.n, 0, self.width), zero, zero)]
        self.maps = _chain_maps(chain)
        self.gens: list[tuple[int, int]] = []
        self.products = _series((), self.reach)
        self.dims: list[int] = []

    # ---- generator x orbit-sum rows

    def _row(self, i: int, o: int, d: int) -> dict[int, int]:
        """g_i times the orbit sum of orbit o at degree d - deg g_i, as
        {column: coefficient} over the orbits of degree d.  The product is
        invariant, so its coefficient on an orbit is its coefficient on the
        orbit's lead: the number of members b of g_i and m of o with b + m
        that lead."""
        dg, g = self.gens[i]
        gen = self.degrees[dg].members[g]
        col = self.degrees[d].col
        row: dict[int, int] = {}
        for m in self.degrees[d - dg].members[o]:
            for b in gen:
                c = col.get(b + m)
                if c is not None:
                    row[c] = row.get(c, 0) + 1
        return row

    def _extra_rows(self, d: int, cover: dict[int, tuple[int, int, int]]):
        """The degree-d rows (i, o) outside the cover, built when the
        elimination asks for the next one: first those with a coefficient on
        an uncovered column m, the orbit o of L_m - b for each member b of
        g_i; then every other pair, so that a degree with new generators
        sees the whole product span."""
        leads = self.degrees[d].leads
        gens = []
        for i, (dg, g) in enumerate(self.gens):
            lower = self.degrees[d - dg]
            gens.append((i, self.degrees[dg].members[g], lower.orbit_of, len(lower.firsts)))
        touching = (
            (i, where.get(leads[m] - b))
            for m in range(len(leads))
            if m not in cover
            for i, members, where, _ in gens
            for b in members
        )
        every = ((i, o) for i, _, _, count in gens for o in range(count))
        seen = set(cover.values())
        for i, o in itertools.chain(touching, every):
            if o is not None and (i, o, d) not in seen:
                seen.add((i, o, d))
                yield self._row(i, o, d)

    # ---- per-degree processing

    def _budgeted_product_count(self, d: int) -> int:
        """P_d, read off ``products`` at labelled and settled degrees alike,
        refusing (``BudgetError``) more products than the budget allows.
        ``products`` ends at ``reach``, so the monomial refusal runs first."""
        products, limit = self.products[d], self.budget.tuple_enumeration
        if products > limit:
            raise BudgetError(f"more than {limit} generator products at degree {d}")
        return products

    def _scan_degree(self, d: int) -> None:
        """Verify degree d, refusing (``BudgetError``) more monomials or
        generator products than the budget allows.

        Every degree reads P_d off ``products``.  Above ``labelled_to`` the
        degree builds nothing: it reads P_d and the series value, and the
        first such degree checks the module rank, N(1) * |S| = prod |O|!
        (``AssertionError``).  Up to ``labelled_to``, the degree's orbit
        count must pass the Molien cross-check, and at degree 1 the vertex
        orbit sizes read off the labels must be the listing's
        (``AssertionError``); then its new generators are found, never more
        than B_d (``AssertionError``), and multiply ``products``.  The
        cover's rows are independent products, so the cover never
        outnumbers P_d (``AssertionError``); the elimination stops at rank
        min(dim, P_d), so a cover that reaches it builds no row, and the
        mod-p pass, which can prove only full rank, runs only where
        P_d >= dim."""
        if d > self.labelled_to:
            if d == self.labelled_to + 1:
                rank, order = self.rank
                if rank * order != math.prod(map(math.factorial, self.orbit_sizes)):
                    raise AssertionError(
                        f"Hilbert numerator sum {rank} times the group order {order} "
                        f"differs from the product of the factorials of {self.orbit_sizes}"
                    )
            _budgeted_monomial_count(self.n, d, self.budget)
            self._budgeted_product_count(d)
            self.dims.append(self.molien[d])
            return
        labels, firsts, self.maps = _orbit_partition(self.spec, d, self.budget, self.maps)
        dim = len(firsts)
        if self.molien is not None and dim != self.molien[d]:
            raise AssertionError(
                f"orbit count {dim} at degree {d} disagrees with the "
                f"cycle-index series value {self.molien[d]}"
            )
        if d == 1 and self.bound is not None:
            # the degree-1 rows are the variables, so the orbits are the vertex orbits
            sizes = tuple(np.bincount(labels)[firsts].tolist())
            if sizes != self.orbit_sizes:
                raise AssertionError(
                    f"vertex orbit sizes {sizes} of the stabilizer chain differ "
                    f"from the listing's {self.orbit_sizes}"
                )
        products = self._budgeted_product_count(d)
        self.dims.append(dim)
        self.degrees.append(_Degree(_monomials(self.n, d, self.width), labels, firsts))
        # The row (i, o) has lead L_{g_i} + L_o.  If L_c - L_{g_i} borrows in
        # any field, it is negative or its fields sum to d - deg g_i plus
        # 2^w - 1 per borrow, so it is no monomial of that degree and misses
        # the lookup, as it should; so does a borrowed L_m - b in _extra_rows.
        leads = self.degrees[d].leads
        cover: dict[int, tuple[int, int, int]] = {}
        uncovered = list(range(dim))
        for i, (dg, g) in enumerate(self.gens):
            col, lead = self.degrees[d - dg].col, self.degrees[dg].leads[g]
            found = [(c, col.get(leads[c] - lead)) for c in uncovered]
            cover.update((c, (i, o, d)) for c, o in found if o is not None)
            uncovered = [c for c, o in found if o is None]
        if len(cover) > products:
            raise AssertionError(
                f"{len(cover)} independent cover rows at degree {d} outnumber "
                f"its {products} generator products"
            )
        # full rank mod p proves full rank, and needs P_d >= dim; a deficit is
        # taken only from exact arithmetic, whose missing pivot columns are
        # new generators
        modular = self.arithmetic == "modular" and products >= dim
        for prime in (_PRIME, None) if modular else (None,):
            pivots = _eliminate(
                self._extra_rows(d, cover), dim, prime, cover, self._row, products
            )
            if len(pivots) == dim:
                return
        new = [(d, c) for c in range(dim) if c not in pivots]
        if self.bound is not None and len(new) > self.bound[d]:
            raise AssertionError(
                f"{len(new)} new generators at degree {d} exceed the Hilbert "
                f"numerator bound {self.bound[d]}"
            )
        self.gens.extend(new)
        _multiply_series(self.products, [d] * len(new))

    def run(self) -> GeneratorDegreeResult:
        for d in range(1, self.cap + 1):
            try:
                self._scan_degree(d)
            except BudgetError:
                break
        return GeneratorDegreeResult(
            n=self.n,
            cap=self.cap,
            verified_up_to=len(self.dims),
            new_by_degree=tuple(collections.Counter(d for d, _ in self.gens).items()),
            max_generator_degree=self.gens[-1][0] if self.gens else 0,
            dims=tuple(self.dims),
            arithmetic=self.arithmetic,
            orbit_sizes=self.orbit_sizes,
        )


def generator_degrees(
    spec: PermGroupSpec,
    degree_cap: int,
    *,
    budget: Budgets = DEFAULT,
    arithmetic: str = "exact",
    elements: Optional[Sequence[Permutation]] = None,
) -> GeneratorDegreeResult:
    """Count new minimal generators of the invariant ring at each degree
    up to the cap.  Every group, the trivial one included, runs the same
    degree-by-degree scan, and every budget overrun stops it: an overrun
    at degree d gives ``verified_up_to == d - 1``.

    ``arithmetic`` selects "exact" integer elimination or the "modular"
    one-prime fast path (a degree that falls short of full rank mod p is
    eliminated again exactly, and only that exact pass names new
    generators).  A given ``elements``, nonempty and on the spec's points
    (``ValueError``), is taken to be the group: the scan reads its
    stabilizer chain and vertex orbits off that listing, checks that it
    holds every generator and that each stabilizer's element count matches
    its cosets, and checks each invariant dimension it labels against the
    listing's cycle-index series, which gives the rest (see the module
    docstring).  The result's ``orbit_sizes`` are the sizes of those vertex
    orbits, by smallest member."""
    if arithmetic not in ("exact", "modular"):
        raise ValueError(f"arithmetic must be 'exact' or 'modular', got {arithmetic!r}")
    if degree_cap < 0:
        raise ValueError(f"need degree_cap >= 0, got {degree_cap}")
    if elements is not None and not elements:
        raise ValueError("need at least one listed element")
    wrong = next((g for g in elements or () if g.n != spec.n), None)
    if wrong is not None:
        raise ValueError(f"listed element {wrong.image} acts on {wrong.n} points, not {spec.n}")
    return _RingScan(spec, degree_cap, budget, arithmetic, elements).run()


# -------------------------------------------------------------- conjectures


def full_certification_cap(n: int) -> int:
    """Degree up to which decomposability must be checked to certify the
    complete generator list of any permutation group on n points: the
    classical bound max(n, n(n-1)/2)."""
    return max(n, n * (n - 1) // 2)


def _resolve_cap(policy, n: int) -> int:
    full = full_certification_cap(n)
    if policy == "full":
        return full
    if policy == "2n":
        return min(2 * n, full)
    if isinstance(policy, int) and not isinstance(policy, bool) and policy >= 0:
        return min(policy, full)
    raise ValueError(
        f"cap policy must be 'full', '2n', or a nonnegative integer, got {policy!r}"
    )


def conjecture_verdict(
    new_by_degree: Sequence[tuple[int, int]],
    bound: int,
    verified_up_to: int,
    full_cap: int,
) -> str:
    """Three-valued verdict for "max generator degree <= bound":
    "false" if a generator above the bound was found (a counterexample),
    "true" if none was and the full certification range was exhausted,
    "capped" otherwise."""
    if any(d > bound for d, count in new_by_degree if count > 0):
        return "false"
    if verified_up_to >= full_cap:
        return "true"
    return "capped"


@dataclasses.dataclass(frozen=True)
class ConjectureReport:
    """Per-graph verification record.

    ``beta_proxy`` is the maximal generator degree of the invariant ring of
    the automorphism group within the verified range; verdict "a" compares
    it against the vertex count, verdict "b" against the largest vertex
    orbit.
    """

    graph6: str
    n: int
    aut_order: int
    orbit_sizes: tuple[int, ...]
    max_orbit: int
    new_by_degree: tuple[tuple[int, int], ...]
    beta_proxy: int
    cap: int
    verified_up_to: int
    invariant_dims: tuple[int, ...]
    a_verdict: str
    b_verdict: str
    arithmetic: str


# the scans a process holds, the oldest dropped first: n <= 8 lists 999
# distinct automorphism groups
_SCAN_MEMO_SIZE = 4096
_scans: collections.OrderedDict = collections.OrderedDict()


def _empty_scan_memo() -> None:
    """Drop every scan ``check_conjectures`` holds; each ``sweep`` pool
    worker runs it first, so a forked one holds none of its parent's."""
    _scans.clear()


def check_conjectures(
    graph: Graph,
    cap_policy="2n",
    *,
    arithmetic: str = "auto",
    budget: Budgets = DEFAULT,
) -> ConjectureReport:
    """Verify both generator-degree bounds for one graph.

    The scan is read through a per-process memo keyed by the automorphism
    listing (sorted by image), the resolved cap and arithmetic, and the
    budget: a hit returns the result of an earlier scan of an identical
    input, which ran every certificate, and a scan that raises is not
    held.  The pool workers of ``sweep`` start with it empty."""
    n = graph.n
    if n < 1:
        raise ValueError("conjecture checks need at least one vertex")
    if arithmetic == "auto":
        arithmetic = "exact" if n <= 5 else "modular"
    aut = automorphism_group(graph)
    cap = _resolve_cap(cap_policy, n)
    images = itertools.chain.from_iterable(g.image for g in aut.generators)
    key = (n, array.array("I", images).tobytes(), cap, arithmetic, budget)
    scan = _scans.get(key)
    if scan is None:
        scan = generator_degrees(
            aut, cap, budget=budget, arithmetic=arithmetic, elements=aut.generators
        )
        _scans[key] = scan
        if len(_scans) > _SCAN_MEMO_SIZE:
            _scans.popitem(last=False)
    orbit_sizes = tuple(sorted(scan.orbit_sizes, reverse=True))
    max_orbit = orbit_sizes[0]
    aut_order = len(aut.generators)
    full_cap = full_certification_cap(n)
    beta = scan.max_generator_degree
    for name, bound in (("Noether's bound |Aut|", aut_order), ("Goebel's bound", full_cap)):
        if beta > bound:
            raise AssertionError(f"generator degree {beta} exceeds {name} = {bound}")
    return ConjectureReport(
        graph6=canonical_graph6(graph),
        n=n,
        aut_order=aut_order,
        orbit_sizes=orbit_sizes,
        max_orbit=max_orbit,
        new_by_degree=scan.new_by_degree,
        beta_proxy=beta,
        cap=cap,
        verified_up_to=scan.verified_up_to,
        invariant_dims=scan.dims,
        a_verdict=conjecture_verdict(scan.new_by_degree, n, scan.verified_up_to, full_cap),
        b_verdict=conjecture_verdict(
            scan.new_by_degree, max_orbit, scan.verified_up_to, full_cap
        ),
        arithmetic=scan.arithmetic,
    )


# -------------------------------------------------------------------- sweep


@dataclasses.dataclass(frozen=True)
class SweepResult:
    reports: tuple[ConjectureReport, ...]
    summary: dict


def _summarize(reports: Sequence[ConjectureReport]) -> dict:
    summary: dict = {}
    for r in reports:
        entry = summary.setdefault(
            r.n,
            {
                "classes": 0,
                "a": {"true": 0, "false": 0, "capped": 0},
                "b": {"true": 0, "false": 0, "capped": 0},
            },
        )
        entry["classes"] += 1
        entry["a"][r.a_verdict] += 1
        entry["b"][r.b_verdict] += 1
    return summary


def sweep(
    n_max: int,
    cap_policy="2n",
    *,
    arithmetic: str = "auto",
    budget: Budgets = DEFAULT,
    jobs: Optional[int] = None,
    graphs: Optional[Sequence[Graph]] = None,
) -> SweepResult:
    """Run the conjecture check over every isomorphism class with up to
    n_max vertices (or over an explicit graph list), deterministically
    ordered by (n, canonical graph6 string)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    if graphs is None:
        if n_max < 1:
            raise ValueError(f"need n_max >= 1, got {n_max}")
        graphs = [g for n in range(1, n_max + 1) for g in enumerate_graphs(n)]
    check = functools.partial(
        check_conjectures, cap_policy=cap_policy, arithmetic=arithmetic, budget=budget
    )
    # a pool starts all its workers at the first submit: no more than one per graph
    workers = min(jobs or 1, len(graphs))
    if workers <= 1:
        reports = list(map(check, graphs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_empty_scan_memo) as pool:
            reports = list(pool.map(check, graphs))
    reports.sort(key=lambda r: (r.n, r.graph6))
    return SweepResult(reports=tuple(reports), summary=_summarize(reports))


# ----------------------------------------------------------------- reporting


def _format_degrees(new_by_degree: Sequence[tuple[int, int]]) -> str:
    return " ".join(f"{d}:{c}" for d, c in new_by_degree)


def reports_csv_text(reports: Sequence[ConjectureReport]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "graph6",
            "n",
            "aut_order",
            "max_orbit",
            "generator_degrees",
            "verified_up_to",
            "A",
            "B",
        ]
    )
    for r in reports:
        writer.writerow(
            [
                r.graph6,
                r.n,
                r.aut_order,
                r.max_orbit,
                _format_degrees(r.new_by_degree),
                r.verified_up_to,
                r.a_verdict,
                r.b_verdict,
            ]
        )
    return buf.getvalue()


def write_reports_csv(reports: Sequence[ConjectureReport], path) -> None:
    with open(os.fspath(path), "w", newline="", encoding="utf-8") as fp:
        fp.write(reports_csv_text(reports))


def report_to_json_dict(report: ConjectureReport) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(report)))


# ----------------------------------------------------------------- selftest


def selftest() -> None:
    """Fast internal consistency checks; raises AssertionError on failure."""
    from .permgroup import TypedNodeSet, young_generators

    star = young_generators(TypedNodeSet((3, 1)))
    res = generator_degrees(star, 6)
    assert res.new_by_degree == ((1, 2), (2, 1), (3, 1))
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    report = check_conjectures(k3)
    assert report.beta_proxy == 3
    assert report.a_verdict == "true" and report.b_verdict == "true"
    result = sweep(2)
    assert all(r.a_verdict == "true" for r in result.reports)
