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
packed monomials of Monagan and Pearce, ISSAC 2009).  The monomials of a
degree are enumerated once, as rows of exponents in a numpy array; each
generator acts on them as a column permutation, and the orbits come from
``permgroup._orbit_labels``, the min-label propagation kernel that also
computes vertex and tuple orbits.

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

Ranks are certified cheapest first.  The cover picks, for each orbit c of
degree d, the first generator g with L_c - L_g the lead of an orbit o of
degree d - deg(g); when every orbit is covered, those rows are triangular
with unit lead coefficients, hence full-rank, with no arithmetic at all.
Otherwise the rows left over are reduced in place by sparse elimination,
the cover's rows standing as known pivots, built only when a reduction
reaches them, and the rows with a coefficient on an uncovered orbit going
first.  Under modular arithmetic one pass runs modulo a large prime: rank
mod p never exceeds rank over the rationals, so full rank mod p proves full
rank.  Otherwise one exact pass runs (fraction-free, with content
stripping), and the orbits whose columns hold no pivot are the new
generators.

The harness applies this to graph automorphism groups.  For each graph it
reports the maximal generator degree (a proxy for the smallest tensor order
needed by invariant function approximators) and checks it against two
conjectured bounds: the vertex count, and the largest automorphism orbit.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .budgets import DEFAULT, Budgets
from .errors import BudgetError
from .graphs import Graph, automorphism_group, canonical_graph6, enumerate_graphs
from .permgroup import (
    PermGroupSpec,
    Permutation,
    _orbit_labels,
    group_closure,
    reduce_generators,
    vertex_orbits,
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


@functools.lru_cache(maxsize=None)
def _exponent_rows(n: int, d: int) -> np.ndarray:
    """The exponent vectors of all degree-d monomials on n variables, one
    row each, in descending lex order.  The array is cached, so it is
    read-only and held in the smallest unsigned dtype that fits d.

    Stars and bars: n - 1 bars among d + n - 1 slots, the exponents being
    the gaps between them; ascending bar positions give ascending lex
    order, so the rows are reversed."""
    if n == 0:
        rows = np.zeros((int(d == 0), 0), dtype=np.uint8)
    else:
        bars = np.array(list(itertools.combinations(range(d + n - 1), n - 1)), dtype=np.intp)
        gaps = np.diff(bars, axis=1, prepend=-1, append=d + n - 1) - 1
        rows = gaps[::-1].astype(np.min_scalar_type(d))
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _monomials(n: int, d: int, width: int) -> tuple[int, ...]:
    """The packed degree-d monomials on n variables, in the order of
    ``_exponent_rows`` (descending).  Exponents sit in fixed-width fields
    with the first variable most significant, so descending int order is
    descending lex order and a product of monomials is the sum of their
    packed ints.  Python ints: the fields can exceed 64 bits."""
    shifts = [width * (n - 1 - i) for i in range(n)]
    return tuple(
        sum(e << s for e, s in zip(row, shifts)) for row in _exponent_rows(n, d).tolist()
    )


def _orbit_partition(spec: PermGroupSpec, d: int, budget: Budgets):
    """Partition the degree-d monomials into group orbits, refusing a
    negative degree (``ValueError``) and a degree with more monomials than
    the budget allows (``BudgetError``).

    Returns (orbit id per monomial, an int array in ``_exponent_rows``
    order; the row index of each orbit's lead, ascending).  Each generator
    permutes the columns of the exponent rows.  The row set is closed under
    the group, so sorting the permuted rows into descending lex order (a
    reversed ``lexsort``) names, for each row, the row mapped onto it;
    ``argsort`` inverts that into each row's image.  An orbit's smallest
    row index is its lex-max member, so orbit ids are sorted by descending
    lead.
    """
    n = spec.n
    if d < 0:
        raise ValueError(f"need degree >= 0, got {d}")
    count = math.comb(n + d - 1, d) if n > 0 else (1 if d == 0 else 0)
    if count > budget.monomials_per_degree:
        raise BudgetError(
            f"degree {d} has {count} monomials on {n} variables; "
            f"budget is {budget.monomials_per_degree}"
        )
    rows = _exponent_rows(n, d)
    # lexsort needs at least one key; on no variables every generator is the identity
    gens = spec.generators if n else ()
    images = [np.argsort(np.lexsort(rows[:, g.image[::-1]].T)[::-1]) for g in gens]
    firsts, ids = np.unique(_orbit_labels(len(rows), images), return_inverse=True)
    return ids, firsts


def invariant_dim_by_degree(
    spec: PermGroupSpec, degree: int, budget: Budgets = DEFAULT
) -> int:
    """Dimension of the degree-d invariant subspace: the number of orbits
    of the group on degree-d exponent vectors."""
    return len(_orbit_partition(spec, degree, budget)[1])


def monomial_orbit_sums(
    spec: PermGroupSpec, degree: int, budget: Budgets = DEFAULT
) -> list[tuple[tuple[int, ...], ...]]:
    """The orbit-sum basis of the degree-d invariants: one tuple of
    exponent vectors per orbit (lex-max member first), orbits sorted by
    descending lead."""
    ids, firsts = _orbit_partition(spec, degree, budget)
    members: list[list[tuple[int, ...]]] = [[] for _ in firsts]
    # scanning in descending order sorts each member list, lead first
    for oid, row in zip(ids.tolist(), _exponent_rows(spec.n, degree).tolist()):
        members[oid].append(tuple(row))
    return [tuple(ms) for ms in members]


# -------------------------------------------------------------------- Molien


def _series(parts: Iterable[int], top: int) -> list[int]:
    """The coefficients of t^0..t^top in the product over k in parts of
    1/(1 - t^k): at t^d, the number of multisets of parts summing to d."""
    coeffs = [1] + [0] * top
    for k in parts:
        for i in range(k, top + 1):
            coeffs[i] += coeffs[i - k]
    return coeffs


def _molien_from_elements(elements: Sequence[Permutation], max_degree: int) -> tuple[int, ...]:
    """Invariant dimensions by degree from the cycle-index series
    (1/|G|) * sum over elements of prod over cycles of 1/(1 - t^len)."""
    total = [0] * (max_degree + 1)
    for g in elements:
        total = [a + b for a, b in zip(total, _series(g.cycle_lengths(), max_degree))]
    order = len(elements)
    if order == 0:
        raise ValueError("empty element list")
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


class _Degree:
    """The orbits of one scanned degree: its packed monomials (descending),
    the orbit id of each (an int array), the packed lead of each orbit, and
    ``col``, the orbit of each lead.  ``orbit_of``, the orbit of each
    monomial, and ``members``, the monomials of each orbit, are built when
    first read."""

    def __init__(self, monomials: tuple[int, ...], ids: np.ndarray, leads: list[int]):
        self.monomials = monomials
        self.ids = ids
        self.leads = leads
        self.col = {lead: c for c, lead in enumerate(leads)}

    @functools.cached_property
    def orbit_of(self) -> dict[int, int]:
        return dict(zip(self.monomials, self.ids.tolist()))

    @functools.cached_property
    def members(self) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in self.leads]
        for o, m in zip(self.ids.tolist(), self.monomials):
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
) -> set[int]:
    """Sparse Gaussian elimination; returns the pivot columns, which depend
    on the rows' span alone, not on their order.  ``cover`` maps columns to
    known pivots, rows with lead coefficient 1 there, built as
    ``build(*key)`` when a reduction first reaches them.  Exact
    fraction-free integer arithmetic when prime is None, otherwise
    arithmetic mod the prime, on entries in [0, prime), with every pivot
    scaled to lead coefficient 1 when stored.  The rows, fresh nonzero
    dicts, are reduced in place.  Stops as soon as the rank reaches dim
    (later rows, built lazily, are never built)."""
    pivots: dict = dict(cover)
    for row in rows:
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
        if len(pivots) == dim:
            break
    return set(pivots)


class _RingScan:
    """Degree-by-degree minimal-generator computation for one group.

    ``degrees[d]`` is the one record of scanned degree d, a ``_Degree``;
    degree 0, the constant monomial alone, is built directly.  Each
    generator found is held as its (degree, orbit) pair, so its lead and
    its members are read from the record of its degree."""

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
        self.molien = (
            _molien_from_elements(elements, cap) if elements is not None else None
        )
        self.degrees = [_Degree((0,), np.zeros(1, dtype=np.intp), [0])]
        self.gens: list[tuple[int, int]] = []

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
            gens.append((i, self.degrees[dg].members[g], lower.orbit_of, len(lower.leads)))
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

    def _scan_degree(self, d: int) -> tuple[int, int]:
        """The invariant dimension at degree d and the number of new
        generators found there."""
        ids, firsts = _orbit_partition(self.spec, d, self.budget)
        monomials = _monomials(self.n, d, self.width)
        leads = [monomials[i] for i in firsts.tolist()]
        self.degrees.append(_Degree(monomials, ids, leads))
        dim = len(leads)
        if self.molien is not None and dim != self.molien[d]:
            raise AssertionError(
                f"orbit count {dim} at degree {d} disagrees with the "
                f"cycle-index series value {self.molien[d]}"
            )
        limit = self.budget.tuple_enumeration
        if _series((dg for dg, _ in self.gens), d)[d] > limit:
            raise BudgetError(f"more than {limit} generator products at degree {d}")
        # The row (i, o) has lead L_{g_i} + L_o.  If L_c - L_{g_i} borrows in
        # any field, it is negative or its fields sum to d - deg g_i plus
        # 2^w - 1 per borrow, so it is no monomial of that degree and misses
        # the lookup, as it should; so does a borrowed L_m - b in _extra_rows.
        cover: dict[int, tuple[int, int, int]] = {}
        uncovered = list(range(dim))
        for i, (dg, g) in enumerate(self.gens):
            col, lead = self.degrees[d - dg].col, self.degrees[dg].leads[g]
            found = [(c, col.get(leads[c] - lead)) for c in uncovered]
            cover.update((c, (i, o, d)) for c, o in found if o is not None)
            uncovered = [c for c, o in found if o is None]
        if len(cover) == dim:
            # the cover's rows are triangular with unit lead coefficients,
            # hence full-rank: no new generators, no arithmetic needed
            return dim, 0
        # full rank mod p proves full rank; a deficit is taken only from
        # exact arithmetic, whose missing pivot columns are new generators
        if self.arithmetic == "modular":
            if len(_eliminate(self._extra_rows(d, cover), dim, _PRIME, cover, self._row)) == dim:
                return dim, 0
        pivots = _eliminate(self._extra_rows(d, cover), dim, None, cover, self._row)
        new = [(d, c) for c in range(dim) if c not in pivots]
        self.gens.extend(new)
        return dim, len(new)

    def run(self) -> GeneratorDegreeResult:
        new_by_degree: list[tuple[int, int]] = []
        dims: list[int] = []
        for d in range(1, self.cap + 1):
            try:
                dim, count = self._scan_degree(d)
            except BudgetError:
                break
            if count:
                new_by_degree.append((d, count))
            dims.append(dim)
        max_deg = max((d for d, _ in new_by_degree), default=0)
        return GeneratorDegreeResult(
            n=self.n,
            cap=self.cap,
            verified_up_to=len(dims),
            new_by_degree=tuple(new_by_degree),
            max_generator_degree=max_deg,
            dims=tuple(dims),
            arithmetic=self.arithmetic,
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
    up to the cap.

    ``arithmetic`` selects "exact" integer elimination or the "modular"
    one-prime fast path (a degree that falls short of full rank mod p is
    eliminated again exactly, and only that exact pass names new
    generators).  When ``elements`` lists the full group, every invariant
    dimension is cross-checked against the cycle-index series.  A budget
    overrun at degree d stops the scan with ``verified_up_to == d - 1``.
    """
    if arithmetic not in ("exact", "modular"):
        raise ValueError(f"arithmetic must be 'exact' or 'modular', got {arithmetic!r}")
    if degree_cap < 0:
        raise ValueError(f"need degree_cap >= 0, got {degree_cap}")
    n = spec.n
    identity = tuple(range(n))
    if all(g.image == identity for g in spec.generators):
        # trivial group: the variables generate, every higher-degree
        # monomial being a product of them
        new = ((1, n),) if degree_cap >= 1 and n >= 1 else ()
        return GeneratorDegreeResult(
            n=n,
            cap=degree_cap,
            verified_up_to=degree_cap,
            new_by_degree=new,
            max_generator_degree=1 if new else 0,
            dims=tuple(math.comb(n + d - 1, d) for d in range(1, degree_cap + 1)),
            arithmetic=arithmetic,
        )
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


def check_conjectures(
    graph: Graph,
    cap_policy="2n",
    *,
    arithmetic: str = "auto",
    budget: Budgets = DEFAULT,
) -> ConjectureReport:
    """Verify both generator-degree bounds for one graph."""
    n = graph.n
    if n < 1:
        raise ValueError("conjecture checks need at least one vertex")
    if arithmetic == "auto":
        arithmetic = "exact" if n <= 5 else "modular"
    aut = automorphism_group(graph)
    gens = PermGroupSpec(n=n, generators=tuple(reduce_generators(aut.generators)))
    orbits = vertex_orbits(gens)
    orbit_sizes = tuple(sorted((len(o) for o in orbits), reverse=True))
    max_orbit = orbit_sizes[0]
    cap = _resolve_cap(cap_policy, n)
    scan = generator_degrees(
        gens, cap, budget=budget, arithmetic=arithmetic, elements=aut.generators
    )
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
    if jobs is None or jobs == 1:
        reports = list(map(check, graphs))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
