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

Generator products are kept in one table per degree of (key, lead) pairs,
the key a nondecreasing tuple of generator indices, in lex order of keys
(the order of the rows handed to the elimination, which sets its fill-in):
the degree-d table puts generator i in front of the tail, found by
bisection, of the degree d - deg(g_i) table whose keys start at i or later.
A product's row is read through one map from orbit lead to column: a
product of invariants is invariant, so its predicted lead is an orbit lead.

Ranks are certified three ways, cheapest first.  Products of orbit sums
have lead coefficient exactly 1 and lead monomial equal to the sum of the
factors' lead monomials, so when every orbit is the predicted lead of some
product the products are triangular and full-rank with no arithmetic at
all.  Otherwise a sparse elimination runs, either in exact integer
arithmetic (fraction-free with content stripping) or modulo one large
prime.  Rank mod p never exceeds rank over the rationals, so full rank mod
p proves full rank; every degree that appears to contain a new generator
is recomputed exactly before being reported.

The harness applies this to graph automorphism groups.  For each graph it
reports the maximal generator degree (a proxy for the smallest tensor order
needed by invariant function approximators) and checks it against two
conjectured bounds: the vertex count, and the largest automorphism orbit.
"""

from __future__ import annotations

import bisect
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Optional, Sequence

import numpy as np

from .budgets import DEFAULT, Budgets
from .errors import BudgetError
from .graphs import (
    Graph,
    automorphism_group,
    canonical_graph6,
    enumerate_graphs,
    parse_graph6,
    write_graph6,
)
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


def _check_monomial_budget(n: int, d: int, budget: Budgets) -> None:
    count = math.comb(n + d - 1, d) if n > 0 else (1 if d == 0 else 0)
    if count > budget.monomials_per_degree:
        raise BudgetError(
            f"degree {d} has {count} monomials on {n} variables; "
            f"budget is {budget.monomials_per_degree}"
        )


def _orbit_partition(spec: PermGroupSpec, d: int, width: int):
    """Partition the packed degree-d monomials into group orbits.

    Returns (orbit id per monomial, an int array in ``_monomials`` order;
    lead monomial per orbit).  Each generator permutes the columns of the
    exponent rows.  The row set is closed under the group, so sorting the
    permuted rows into descending lex order (a reversed ``lexsort``) names,
    for each row, the row mapped onto it; ``argsort`` inverts that into
    each row's image.  An orbit's smallest row index is its lex-max member,
    so orbit ids are sorted by descending lead.
    """
    rows = _exponent_rows(spec.n, d)
    # lexsort needs at least one key; on no variables every generator is the identity
    gens = spec.generators if spec.n else ()
    images = [np.argsort(np.lexsort(rows[:, g.image[::-1]].T)[::-1]) for g in gens]
    firsts, ids = np.unique(_orbit_labels(len(rows), images), return_inverse=True)
    monos = _monomials(spec.n, d, width)
    return ids, [monos[i] for i in firsts.tolist()]


def invariant_dim_by_degree(
    spec: PermGroupSpec, degree: int, budget: Budgets = DEFAULT
) -> int:
    """Dimension of the degree-d invariant subspace: the number of orbits
    of the group on degree-d exponent vectors."""
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    _check_monomial_budget(spec.n, degree, budget)
    return len(_orbit_partition(spec, degree, _width(degree))[1])


def monomial_orbit_sums(
    spec: PermGroupSpec, degree: int, budget: Budgets = DEFAULT
) -> list[tuple[tuple[int, ...], ...]]:
    """The orbit-sum basis of the degree-d invariants: one tuple of
    exponent vectors per orbit (lex-max member first), orbits sorted by
    descending lead."""
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    _check_monomial_budget(spec.n, degree, budget)
    ids, leads = _orbit_partition(spec, degree, _width(degree))
    members: list[list[tuple[int, ...]]] = [[] for _ in leads]
    # scanning in descending order sorts each member list, lead first
    for oid, row in zip(ids.tolist(), _exponent_rows(spec.n, degree).tolist()):
        members[oid].append(tuple(row))
    return [tuple(ms) for ms in members]


# -------------------------------------------------------------------- Molien


def _molien_from_elements(elements: Sequence[Permutation], max_degree: int) -> tuple[int, ...]:
    """Invariant dimensions by degree from the cycle-index series
    (1/|G|) * sum over elements of prod over cycles of 1/(1 - t^len)."""
    total = [0] * (max_degree + 1)
    for g in elements:
        series = [1] + [0] * max_degree
        for length in g.cycle_lengths():
            for i in range(length, max_degree + 1):
                series[i] += series[i - length]
        for i in range(max_degree + 1):
            total[i] += series[i]
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


@dataclasses.dataclass
class _Generator:
    degree: int
    lead: int
    poly: dict[int, int]


def _mod_row(row: dict[int, int], p: int) -> dict[int, int]:
    out = {}
    for c, v in row.items():
        v %= p
        if v:
            out[c] = v
    return out


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            break
    lead = min(row)
    sign = -1 if row[lead] < 0 else 1
    if g > 1 or sign < 0:
        row = {c: sign * v // g for c, v in row.items()}
    return row


def _eliminate(
    rows: Iterable[dict[int, int]], dim: int, prime: Optional[int]
) -> dict[int, dict[int, int]]:
    """Sparse Gaussian elimination; returns the pivot rows keyed by lead
    column.  Exact fraction-free integer arithmetic when prime is None,
    otherwise arithmetic mod the prime.  Stops as soon as the rank reaches
    dim (later rows, built lazily, are never built)."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _mod_row(row, prime) if prime else _strip_content(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            pc, rc = piv[lead], row[lead]
            if prime:
                factor = rc * pow(pc, -1, prime) % prime
                new = {}
                for c in row.keys() | piv.keys():
                    v = (row.get(c, 0) - factor * piv.get(c, 0)) % prime
                    if v:
                        new[c] = v
                row = new
            else:
                new = {}
                for c in row.keys() | piv.keys():
                    v = pc * row.get(c, 0) - rc * piv.get(c, 0)
                    if v:
                        new[c] = v
                row = _strip_content(new) if new else new
        if len(pivots) == dim:
            break
    return pivots


class _RingScan:
    """Degree-by-degree minimal-generator computation for one group."""

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
        self.gens: list[_Generator] = []
        # tables[d]: every generator product of degree d, one factor or more
        self.tables: list[list[tuple[tuple[int, ...], int]]] = [[]]
        self._products: dict[tuple[int, ...], dict[int, int]] = {}

    # ---- generator products

    def _poly(self, key: tuple[int, ...]) -> dict[int, int]:
        if len(key) == 1:
            return self.gens[key[0]].poly
        cached = self._products.get(key)
        if cached is None:
            a = self._poly(key[:-1])
            b = self.gens[key[-1]].poly
            cached = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    cached[e] = cached.get(e, 0) + c1 * c2
            self._products[key] = cached
        return cached

    def _multisets(self, d: int) -> list[tuple[tuple[int, ...], int]]:
        """The degree-d table before any degree-d generator joins it: every
        product of two or more generators, as (nondecreasing index tuple,
        predicted lead) pairs in lex order of the tuples."""
        limit = self.budget.tuple_enumeration
        table: list[tuple[tuple[int, ...], int]] = []
        for i, gen in enumerate(self.gens):
            if gen.degree >= d:
                break  # generators are stored in nondecreasing degree
            below = self.tables[d - gen.degree]
            tail = itertools.islice(below, bisect.bisect_left(below, ((i,),)), None)
            table.extend(((i,) + key, gen.lead + lead) for key, lead in tail)
            if len(table) > limit:
                raise BudgetError(f"more than {limit} generator products at degree {d}")
        return table

    # ---- per-degree processing

    def _lead_rows(self, keys, col):
        """Each product's coefficients on the orbit leads, keyed by column,
        built only when the elimination asks for the next row."""
        for key in keys:
            yield {col[e]: c for e, c in self._poly(key).items() if e in col}

    def _scan_degree(self, d: int) -> tuple[int, int]:
        """The invariant dimension at degree d and the number of new
        generators found there."""
        ids, leads = _orbit_partition(self.spec, d, self.width)
        dim = len(leads)
        if self.molien is not None and dim != self.molien[d]:
            raise AssertionError(
                f"orbit count {dim} at degree {d} disagrees with the "
                f"cycle-index series value {self.molien[d]}"
            )
        table = self._multisets(d)
        self.tables.append(table)
        # a product of invariants is invariant, so its lead is an orbit lead
        col = {lead: c for c, lead in enumerate(leads)}
        first_by_col: dict[int, tuple[int, ...]] = {}
        extras: list[tuple[int, ...]] = []
        for key, lead in table:
            c = col[lead]
            if c in first_by_col:
                extras.append(key)
            else:
                first_by_col[c] = key
        if len(first_by_col) == dim:
            # every orbit is the predicted lead of some product; those
            # representatives are triangular with unit lead coefficients,
            # hence full-rank: no new generators, no arithmetic needed
            return dim, 0
        ordered_keys = [first_by_col[c] for c in sorted(first_by_col)] + extras
        rows = functools.partial(self._lead_rows, ordered_keys, col)
        new_cols = self._rank_deficit(rows, dim)
        if new_cols:
            self._install_generators(d, new_cols, ids, leads)
            self._verify_new_generators(rows(), dim, new_cols)
        return dim, len(new_cols)

    def _rank_deficit(self, rows, dim) -> list[int]:
        """Columns not reached by the product span, under the configured
        arithmetic.  Full rank mod the prime proves full rank over the
        rationals; a modular result short of full rank, which suggests new
        generators, is recomputed exactly."""
        if self.arithmetic == "modular":
            if len(_eliminate(rows(), dim, _PRIME)) == dim:
                return []
        pivots = _eliminate(rows(), dim, None)
        return [c for c in range(dim) if c not in pivots]

    def _install_generators(self, d, new_cols, ids, leads) -> None:
        monos = _monomials(self.n, d, self.width)
        for c in new_cols:
            poly = {monos[j]: 1 for j in np.flatnonzero(ids == c).tolist()}
            # the largest index so far: the table stays in lex order
            self.tables[d].append(((len(self.gens),), leads[c]))
            self.gens.append(_Generator(degree=d, lead=leads[c], poly=poly))

    def _verify_new_generators(self, rows, dim, new_cols) -> None:
        """Independent exact check: appending the new orbit sums to the
        product span must raise the rank by exactly their number."""
        units = ({c: 1} for c in new_cols)
        pivots = _eliminate(itertools.chain(rows, units), dim, None)
        if len(pivots) != dim:
            raise AssertionError(
                f"product span plus {len(new_cols)} new generators has rank "
                f"{len(pivots)}, expected {dim}"
            )

    def run(self) -> GeneratorDegreeResult:
        new_by_degree: list[tuple[int, int]] = []
        dims: list[int] = []
        for d in range(1, self.cap + 1):
            try:
                _check_monomial_budget(self.n, d, self.budget)
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
    one-prime fast path (which always re-verifies candidate generators
    exactly).  When ``elements`` lists the full group, every invariant
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
    if isinstance(policy, int) and policy >= 0:
        return min(policy, full)
    raise ValueError(f"cap policy must be 'full', '2n', or an integer, got {policy!r}")


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


def _sweep_worker(args) -> ConjectureReport:
    graph6, cap_policy, arithmetic, budget = args
    return check_conjectures(
        parse_graph6(graph6), cap_policy, arithmetic=arithmetic, budget=budget
    )


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
    if graphs is None:
        if n_max < 1:
            raise ValueError(f"need n_max >= 1, got {n_max}")
        graphs = [g for n in range(1, n_max + 1) for g in enumerate_graphs(n)]
    if jobs is not None and jobs > 1:
        payload = [(write_graph6(g), cap_policy, arithmetic, budget) for g in graphs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_sweep_worker, payload))
    else:
        reports = [
            check_conjectures(g, cap_policy, arithmetic=arithmetic, budget=budget)
            for g in graphs
        ]
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
