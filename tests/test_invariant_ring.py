import collections
import csv
import dataclasses
import fractions
import functools
import itertools
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlayers import graphs, invariant_ring, permgroup
from invlayers.budgets import DEFAULT, Budgets
from invlayers.errors import BudgetError
from invlayers.graphs import Graph, automorphism_group, enumerate_graphs
from invlayers.invariant_ring import (
    ConjectureReport,
    check_conjectures,
    conjecture_verdict,
    full_certification_cap,
    generator_degrees,
    invariant_dim_by_degree,
    molien_hilbert_coeffs,
    monomial_orbit_sums,
    report_to_json_dict,
    sweep,
    write_reports_csv,
)
from invlayers.permgroup import (
    PermGroupSpec,
    Permutation,
    TypedNodeSet,
    _orbit_labels,
    cyclic_generators,
    group_closure,
    reduce_generators,
    vertex_orbits,
    young_generators,
)
from test_permgroup import generator_lists_with_repeats, small_generator_sets


def trivial_group(n):
    return PermGroupSpec(n=n, generators=())


S3 = young_generators(TypedNodeSet((3,)))
S4 = young_generators(TypedNodeSet((4,)))
STAR_GROUP = young_generators(TypedNodeSet((3, 1)))  # S_3 fixing a 4th point
C3 = cyclic_generators(3)


def graph(n, *edges):
    return Graph.from_edges(n, edges)


def complete_graph(n):
    return graph(n, *itertools.combinations(range(n), 2))


def brute_orbit_sums(spec, degree):
    """Independent oracle: the orbits of the listed group on exponent
    vectors, each sorted descending, sorted by descending lead."""
    elements = group_closure(spec)
    orbits = set()
    for m in itertools.product(range(degree + 1), repeat=spec.n):
        if sum(m) == degree:
            orbit = set()
            for g in elements:
                moved = [0] * spec.n
                for i, e in enumerate(m):
                    moved[g.image[i]] = e
                orbit.add(tuple(moved))
            orbits.add(tuple(sorted(orbit, reverse=True)))
    return sorted(orbits, reverse=True)


def brute_dim(spec, degree):
    """Independent oracle: count orbits of the full group on exponent
    vectors by expanding the closure and acting directly."""
    return len(brute_orbit_sums(spec, degree))


def exponent_rows(n, d):
    """Independent oracle: the exponent vectors of the degree-d monomials on
    n variables, one row each, in descending lex order.  A multiset of
    variables listed as a sorted tuple is lex-greater as an exponent vector
    exactly when it is lex-smaller as a tuple, so
    ``combinations_with_replacement`` lists them in this order."""
    rows = [
        [combo.count(i) for i in range(n)]
        for combo in itertools.combinations_with_replacement(range(n), d)
    ]
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


# ---------------------------------------------------------------- dimensions


def test_dims_trivial_group():
    assert [invariant_dim_by_degree(trivial_group(2), d) for d in range(5)] == [
        1,
        2,
        3,
        4,
        5,
    ]


def test_dims_symmetric_groups():
    s2 = young_generators(TypedNodeSet((2,)))
    assert [invariant_dim_by_degree(s2, d) for d in range(5)] == [1, 1, 2, 2, 3]
    assert invariant_dim_by_degree(S3, 2) == 2
    assert invariant_dim_by_degree(C3, 3) == 4
    assert invariant_dim_by_degree(STAR_GROUP, 1) == 2


@pytest.mark.parametrize(
    "spec", [trivial_group(2), S3, C3, STAR_GROUP], ids=["trivial", "S3", "C3", "star"]
)
def test_dims_match_brute_orbit_oracle(spec):
    for degree in range(5):
        assert invariant_dim_by_degree(spec, degree) == brute_dim(spec, degree)


@given(small_generator_sets())
@settings(max_examples=30, deadline=None)
def test_dims_match_brute_orbit_oracle_random_groups(spec):
    for degree in range(5):
        assert invariant_dim_by_degree(spec, degree) == brute_dim(spec, degree)


def test_dims_budget():
    with pytest.raises(BudgetError):
        invariant_dim_by_degree(S3, 4, budget=Budgets(monomials_per_degree=10))


@pytest.mark.parametrize(
    "orbit_function", [invariant_dim_by_degree, monomial_orbit_sums], ids=["dim", "sums"]
)
def test_orbit_functions_refuse_negative_degree_and_monomial_overrun(orbit_function):
    with pytest.raises(ValueError, match="got -1"):
        orbit_function(S3, -1)
    # degree 4 has 15 monomials on 3 variables
    with pytest.raises(BudgetError, match="degree 4 has 15 monomials on 3 variables"):
        orbit_function(S3, 4, budget=Budgets(monomials_per_degree=14))
    orbit_function(S3, 4, budget=Budgets(monomials_per_degree=15))


def test_orbit_sums_s3_degree2():
    sums = monomial_orbit_sums(S3, 2)
    assert sums == [
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        ((1, 1, 0), (1, 0, 1), (0, 1, 1)),
    ]


def test_orbit_sums_partition_monomials():
    for spec in [S3, C3, STAR_GROUP]:
        for degree in [1, 2, 3]:
            sums = monomial_orbit_sums(spec, degree)
            seen = [m for orbit in sums for m in orbit]
            assert len(seen) == len(set(seen))
            assert invariant_dim_by_degree(spec, degree) == len(sums)
            # orbits listed with their lex-maximal member first, sorted
            leads = [orbit[0] for orbit in sums]
            assert all(orbit[0] == max(orbit) for orbit in sums)
            assert leads == sorted(leads, reverse=True)


@given(generator_lists_with_repeats(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_orbit_sums_match_brute_orbits_random_groups(spec, degree):
    assert monomial_orbit_sums(spec, degree) == brute_orbit_sums(spec, degree)


@pytest.mark.parametrize(
    "gens",
    [(), ((0, 1, 2),), ((1, 2, 0), (1, 2, 0)), ((0, 1, 2), (1, 0, 2), (0, 1, 2))],
    ids=["none", "identity", "repeated", "identity-twice"],
)
def test_orbit_sums_ignore_identity_and_repeated_generators(gens):
    spec = PermGroupSpec(3, tuple(Permutation(g) for g in gens))
    for degree in range(5):
        assert monomial_orbit_sums(spec, degree) == brute_orbit_sums(spec, degree)


def lexsort_orbit_partition(spec, degree):
    """Independent oracle: the orbit partition with each generator's map
    taken from a reversed lexsort of the permuted exponent rows (the map of
    its inverse, which generates the same cyclic group), and the orbits
    numbered from the lead mask."""
    rows = exponent_rows(spec.n, degree)
    # lexsort needs at least one key; on no variables every generator is the identity
    gens = spec.generators if spec.n else ()
    labels = _orbit_labels(
        len(rows), (np.lexsort(rows[:, g.image[::-1]].T)[::-1] for g in gens)
    )
    lead = labels == np.arange(len(rows))
    return (np.cumsum(lead) - 1)[labels].tolist(), np.flatnonzero(lead).tolist()


@st.composite
def groups_on_up_to_seven_points(draw):
    n = draw(st.integers(1, 7))
    count = draw(st.integers(0, 3))
    return PermGroupSpec(
        n, tuple(Permutation(tuple(draw(st.permutations(range(n))))) for _ in range(count))
    )


@given(groups_on_up_to_seven_points(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_carried_maps_give_the_lexsort_orbits(spec, degree):
    # a monomial's label is the row of its orbit's lead
    ids, leads = lexsort_orbit_partition(spec, degree)
    labels, firsts, maps = invariant_ring._orbit_partition(spec, degree, DEFAULT)
    assert (labels.tolist(), firsts.tolist()) == ([leads[i] for i in ids], leads)
    # carried one degree at a time, as the generator scan carries them
    chain = permgroup._stabilizer_chain(spec)
    carried = invariant_ring._chain_maps(chain)
    for d in range(1, degree + 1):
        labels, firsts, carried = invariant_ring._orbit_partition(spec, d, DEFAULT, carried)
        ids, leads = lexsort_orbit_partition(spec, d)
        assert (labels.tolist(), firsts.tolist()) == ([leads[i] for i in ids], leads)
    # each map sends a row to the row of its image: t moves exponent i to t(i)
    rows = exponent_rows(spec.n, degree)
    reps = [t for level in reversed(chain) for t in level]
    assert len(maps) == len(carried) == len(reps)
    for t, (image, m), (_, c) in zip(reps, maps, carried):
        assert image.tolist() == list(t)
        moved = np.empty_like(rows)
        moved[:, list(t)] = rows
        assert np.array_equal(rows[m], moved)
        assert np.array_equal(m, c)


def _check_listed_chain(spec, elements, degree):
    """The chain and the orbit sizes read off a listing of the group of the
    spec, against Schreier-Sims on its generators and the propagation
    kernel."""
    listed = permgroup._listed_chain(spec.n, elements)
    chain = permgroup._stabilizer_chain(spec)
    assert [len(level) for level in listed] == [len(level) for level in chain]
    bases = []
    for level in listed:
        base = next(i for i, x in enumerate(level[0]) if x != i)
        bases.append(base)
        # each representative fixes the points below its base and sends a
        # different point to it
        assert all(t[:base] == tuple(range(base)) and t[base] != base for t in level)
        sent = [t.index(base) for t in level]
        assert len(set(sent)) == len(sent)
    assert bases == sorted(set(bases))
    carried = [invariant_ring._chain_maps(c) for c in (listed, chain)]
    for d in range(1, degree + 1):
        parts = [invariant_ring._orbit_partition(spec, d, DEFAULT, maps) for maps in carried]
        (labels, firsts, _), (chain_labels, chain_firsts, _) = parts
        assert np.array_equal(labels, chain_labels) and np.array_equal(firsts, chain_firsts)
        carried = [maps for _, _, maps in parts]
    assert permgroup._listed_orbit_sizes(elements) == [len(o) for o in vertex_orbits(spec)]


def test_listed_chain_matches_schreier_sims_on_small_graphs():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            elements = automorphism_group(g).generators
            images = {t.image for t in elements}
            # the listing is closed under composition, so it is a group
            assert {tuple(map(a.__getitem__, b)) for a in images for b in images} == images
            spec = PermGroupSpec(n, tuple(reduce_generators(elements)))
            _check_listed_chain(spec, elements, 8)


@given(groups_on_up_to_seven_points())
@settings(max_examples=60, deadline=None)
def test_listed_chain_matches_schreier_sims_random_groups(spec):
    _check_listed_chain(spec, group_closure(spec), 8)


@pytest.mark.parametrize(
    "n,d",
    [(n, d) for n in range(1, 9) for d in range(1, 5)] + [(40, 2), (100, 2), (2, 300)],
)
def test_step_tables_match_exponent_row_lookups(n, d):
    rows = exponent_rows(n, d).tolist()
    lower = exponent_rows(n, d - 1).tolist()
    index = {tuple(row): r for r, row in enumerate(rows)}
    lower_index = {tuple(row): k for k, row in enumerate(lower)}
    first, quot, mul = invariant_ring._step_tables(n, d)
    for table in (first, quot, mul):
        assert table.dtype.itemsize <= 4 and not table.flags.writeable
    assert mul.shape == (n, len(lower))
    for r, row in enumerate(rows):
        i = next(j for j, e in enumerate(row) if e)
        assert first[r] == i
        assert quot[r] == lower_index[(*row[:i], row[i] - 1, *row[i + 1 :])]
    for k, row in enumerate(lower):
        for j in range(n):
            assert mul[j, k] == index[(*row[:j], row[j] + 1, *row[j + 1 :])]


@pytest.mark.parametrize(
    "n,d,width",
    [(n, d, invariant_ring._width(4)) for n in range(1, 9) for d in range(5)]
    + [(40, 2, 2), (100, 2, 2), (2, 300, 9), (3, 4, 63)],
)
def test_monomials_pack_the_exponent_rows(n, d, width):
    # each field holds one exponent, the first variable most significant;
    # the last case has 63-bit fields, so x_1 alone is 2**126
    shifts = [width * (n - 1 - i) for i in range(n)]
    expected = [sum(e << s for e, s in zip(row, shifts)) for row in exponent_rows(n, d).tolist()]
    packed = invariant_ring._monomials(n, d, width)
    assert packed.tolist() == expected
    assert all(type(m) is int for m in packed.tolist())
    assert not packed.flags.writeable


def test_orbit_sums_on_no_points():
    # the constant monomial is the one orbit at degree 0; above it, none
    spec = trivial_group(0)
    assert [monomial_orbit_sums(spec, d) for d in range(4)] == [[((),)], [], [], []]
    assert [invariant_dim_by_degree(spec, d) for d in range(4)] == [1, 0, 0, 0]


def test_orbit_counts_pack_no_monomials():
    # only the generator scan packs monomials into ints; counting and listing
    # orbits read the exponent rows
    invariant_ring._monomials.cache_clear()
    invariant_dim_by_degree(S3, 5)
    monomial_orbit_sums(C3, 4)
    assert invariant_ring._monomials.cache_info().currsize == 0


# -------------------------------------------------------------------- Molien


@pytest.mark.parametrize(
    "spec,expected",
    [
        (trivial_group(2), (1, 2, 3, 4, 5)),
        (young_generators(TypedNodeSet((2,))), (1, 1, 2, 2, 3)),
        (C3, (1, 1, 2, 4, 5)),
    ],
    ids=["trivial2", "S2", "C3"],
)
def test_molien_known_series(spec, expected):
    assert molien_hilbert_coeffs(spec, 4) == expected


def test_molien_from_elements_refuses_empty_and_unclosed_lists():
    with pytest.raises(ValueError, match="empty element list"):
        invariant_ring._molien_from_elements([], 3)
    # the identity and a 3-cycle, without its square: 3 at t^1 is odd
    with pytest.raises(AssertionError, match="not divisible by the group order 2"):
        invariant_ring._molien_from_elements(
            [Permutation.identity(3), Permutation((1, 2, 0))], 3
        )


@pytest.mark.parametrize(
    "spec", [trivial_group(3), S3, S4, C3, STAR_GROUP],
    ids=["trivial3", "S3", "S4", "C3", "star"],
)
def test_molien_equals_orbit_dims(spec):
    coeffs = molien_hilbert_coeffs(spec, 6)
    for degree in range(7):
        assert coeffs[degree] == invariant_dim_by_degree(spec, degree)


def test_degrees_beyond_one_byte_exponents():
    # exponents above 255 need packed fields wider than 8 bits
    s2 = young_generators(TypedNodeSet((2,)))
    assert invariant_dim_by_degree(s2, 300) == molien_hilbert_coeffs(s2, 300)[300] == 151
    res = generator_degrees(s2, 300)
    assert res.new_by_degree == ((1, 1), (2, 1))
    assert res.verified_up_to == 300


@pytest.mark.parametrize(
    "spec,cap,monomials,dims,new_by_degree",
    [
        (cyclic_generators(13), 31, 500, (1, 7, 35), ((1, 1), (2, 6), (3, 28))),
        (young_generators(TypedNodeSet((13,))), 31, 500, (1, 2, 3), ((1, 1), (2, 1), (3, 1))),
        (young_generators(TypedNodeSet((2,))), 2**62, 4, (1, 2, 2), ((1, 1), (2, 1))),
    ],
    ids=["C13", "S13", "S2-63-bit-fields"],
)
def test_packed_monomials_wider_than_a_machine_word(spec, cap, monomials, dims, new_by_degree):
    # cap 31 needs 5-bit fields, so 13 variables pack into 65 bits; cap
    # 2**62 needs 63-bit fields, so x_1 alone is 2**63, past any int64
    res = generator_degrees(spec, cap, budget=Budgets(monomials_per_degree=monomials))
    assert res.verified_up_to == 3  # the monomial budget stops degree 4
    assert res.dims == dims
    assert res.new_by_degree == new_by_degree


# -------------------------------------------------------- generator degrees


def test_generators_trivial_group():
    res = generator_degrees(trivial_group(3), 5)
    assert res.new_by_degree == ((1, 3),)
    assert res.max_generator_degree == 1
    assert res.verified_up_to == 5


@pytest.mark.parametrize("arithmetic", ["exact", "modular"])
@pytest.mark.parametrize("n", range(6))
def test_trivial_group_scan_equals_the_closed_form(n, arithmetic):
    # the n variables generate: every higher monomial is a product of them
    for spec in (trivial_group(n), PermGroupSpec(n, (Permutation.identity(n),))):
        for cap in range(9):
            new = ((1, n),) if cap and n else ()
            expected = invariant_ring.GeneratorDegreeResult(
                n=n,
                cap=cap,
                verified_up_to=cap,
                new_by_degree=new,
                max_generator_degree=len(new),
                dims=tuple(math.comb(n + d - 1, d) for d in range(1, cap + 1)),
                arithmetic=arithmetic,
            )
            for elements in (None, group_closure(spec)):
                res = generator_degrees(spec, cap, arithmetic=arithmetic, elements=elements)
                assert res == expected


def test_trivial_group_scan_stops_at_the_budget():
    # degree 2 has 6 monomials on 3 variables, beyond the tiny budget
    res = generator_degrees(trivial_group(3), 5, budget=Budgets(monomials_per_degree=5))
    assert res.verified_up_to == 1
    assert res.new_by_degree == ((1, 3),) and res.dims == (3,)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generators_symmetric_group_elementary(n):
    spec = young_generators(TypedNodeSet((n,)))
    res = generator_degrees(spec, 8)
    assert res.new_by_degree == tuple((d, 1) for d in range(1, n + 1))
    assert res.max_generator_degree == n


def test_generators_star_group():
    res = generator_degrees(STAR_GROUP, 6)
    assert res.new_by_degree == ((1, 2), (2, 1), (3, 1))
    assert res.max_generator_degree == 3


def test_generators_cyclic_c3():
    res = generator_degrees(C3, 6)
    assert res.new_by_degree == ((1, 1), (2, 1), (3, 2))
    assert res.max_generator_degree == 3


def test_generators_within_noether_bound():
    for spec in [S3, S4, C3, STAR_GROUP]:
        order = len(group_closure(spec))
        res = generator_degrees(spec, 8)
        assert res.max_generator_degree <= order


def test_modular_matches_exact():
    for spec in [trivial_group(3), S3, S4, C3, STAR_GROUP]:
        exact = generator_degrees(spec, 6, arithmetic="exact")
        modular = generator_degrees(spec, 6, arithmetic="modular")
        assert exact.new_by_degree == modular.new_by_degree
        assert exact.dims == modular.dims


def test_generator_budget_degrades_gracefully():
    res = generator_degrees(S3, 5, budget=Budgets(monomials_per_degree=5))
    # degree 2 has 6 monomials on 3 variables, beyond the tiny budget
    assert res.verified_up_to == 1
    assert res.new_by_degree == ((1, 1),)


def test_zero_monomial_budget_verifies_no_degree():
    # degree 0 is built without the budget, so the scan stops at degree 1
    res = generator_degrees(S3, 4, budget=Budgets(monomials_per_degree=0))
    assert res.verified_up_to == 0
    assert res.new_by_degree == () and res.dims == ()


def test_generator_product_budget_stops_the_scan():
    # S3 has generators of degrees 1, 2, 3: 1, 2, 4, 5 and 7 products of
    # two or more factors at degrees 2 through 6
    res = generator_degrees(S3, 8, budget=Budgets(tuple_enumeration=2))
    assert res.verified_up_to == 3
    assert res.new_by_degree == ((1, 1), (2, 1), (3, 1))
    res = generator_degrees(S3, 8, budget=Budgets(tuple_enumeration=5))
    assert res.verified_up_to == 5
    res = generator_degrees(
        cyclic_generators(4), 8, arithmetic="modular", budget=Budgets(tuple_enumeration=10)
    )
    assert res.verified_up_to == 4
    assert res.dims == (1, 3, 5, 10)
    assert res.new_by_degree == ((1, 1), (2, 2), (3, 2), (4, 2))


def test_generator_result_dims_match_molien():
    res = generator_degrees(STAR_GROUP, 6)
    assert res.dims == tuple(molien_hilbert_coeffs(STAR_GROUP, 6)[1:])


def test_product_count_matches_brute_count():
    for degrees in [(), (1,), (1, 1, 2), (1, 2, 2, 3, 3, 3), (2, 3, 5), (4, 4)]:
        for d in range(10):
            brute = sum(
                1
                for k in range(d + 1)
                for combo in itertools.combinations_with_replacement(range(len(degrees)), k)
                if sum(degrees[i] for i in combo) == d
            )
            assert invariant_ring._series(degrees, d)[d] == brute, (degrees, d)


def _check_products_against_expansion(spec, cap):
    """Every buildable row g_i * orbitsum(o) equals that product, expanded
    monomial by monomial over exponent tuples and read at the orbit leads
    of its degree; its lead is L_{g_i} + L_o, with coefficient 1.  The
    packed differences L_c - b looked up by the cover and the extra rows
    find the orbit of the exponent-wise difference, or nothing where it has
    a negative exponent."""
    scan = invariant_ring._RingScan(spec, cap, Budgets(), "modular", None)
    result = scan.run()
    n, width = spec.n, scan.width
    elements = group_closure(spec)

    def exponents(packed):
        return tuple((packed >> width * (n - 1 - i)) & ((1 << width) - 1) for i in range(n))

    @functools.lru_cache(maxsize=None)
    def orbit_sum(e):
        moved = [0] * n
        members = set()
        for g in elements:
            for i, x in enumerate(e):
                moved[g.image[i]] = x
            members.add(tuple(moved))
        return frozenset(members)

    # each generator is a (degree, orbit) reference into the scan's records
    gens = [(dg, scan.degrees[dg].leads[g], scan.degrees[dg].members[g]) for dg, g in scan.gens]
    for _, gen_lead, gen_members in gens:
        assert {exponents(b) for b in gen_members} == orbit_sum(exponents(gen_lead))
    for d in range(1, result.verified_up_to + 1):
        packed_leads = scan.degrees[d].leads
        leads = [exponents(lead) for lead in packed_leads]
        for i, (gen_degree, gen_lead, gen_members) in enumerate(gens):
            if gen_degree >= d:
                continue
            k = d - gen_degree
            lower = [orbit_sum(exponents(lead)) for lead in scan.degrees[k].leads]
            orbit_of = {m: o for o, members in enumerate(lower) for m in members}
            lead_orbit = {max(members): o for o, members in enumerate(lower)}
            for o, members in enumerate(lower):
                product = collections.Counter(
                    tuple(x + y for x, y in zip(b, m))
                    for b in orbit_sum(exponents(gen_lead))
                    for m in members
                )
                expected = {c: product[e] for c, e in enumerate(leads) if e in product}
                row = scan._row(i, o, d)
                assert row == expected, (i, o, d)
                top = tuple(x + y for x, y in zip(exponents(gen_lead), max(members)))
                assert leads[min(row)] == top and row[min(row)] == 1
            for lead, e in zip(packed_leads, leads):
                for b in gen_members:
                    diff = tuple(x - y for x, y in zip(e, exponents(b)))
                    assert scan.degrees[k].orbit_of.get(lead - b) == orbit_of.get(diff)
                diff = tuple(x - y for x, y in zip(e, exponents(gen_lead)))
                assert scan.degrees[k].col.get(lead - gen_lead) == lead_orbit.get(diff)


# caps 7 and 8 fill the exponent fields (3 and 4 bits), so many L - b borrow
@pytest.mark.parametrize("cap", [7, 8])
@pytest.mark.parametrize(
    "spec", [young_generators(TypedNodeSet((2,))), cyclic_generators(4)], ids=["S2", "C4"]
)
def test_orbit_coordinate_products_match_expansion(spec, cap):
    _check_products_against_expansion(spec, cap)


@given(small_generator_sets(), st.sampled_from([7, 8]))
@settings(max_examples=40, deadline=None)
def test_orbit_coordinate_products_match_expansion_random_groups(spec, cap):
    _check_products_against_expansion(spec, cap)


def test_modular_matches_exact_where_the_shortcut_fails_often(monkeypatch):
    # an order-16 automorphism group with orbits (4, 2), where the leads of
    # the generator x orbit-sum rows leave columns uncovered at many degrees
    for g in enumerate_graphs(6):
        aut = automorphism_group(g)
        if len(aut.generators) == 16 and sorted(map(len, vertex_orbits(aut))) == [2, 4]:
            break
    spec = PermGroupSpec(6, tuple(reduce_generators(aut.generators)))
    calls, built = [], set()
    eliminate, row = invariant_ring._eliminate, invariant_ring._RingScan._row

    def record(rows, dim, prime, *args):
        calls.append((dim, prime is None))
        return eliminate(rows, dim, prime, *args)

    def record_row(self, i, o, d):
        built.add(d)
        return row(self, i, o, d)

    monkeypatch.setattr(invariant_ring, "_eliminate", record)
    monkeypatch.setattr(invariant_ring._RingScan, "_row", record_row)
    exact = generator_degrees(spec, 12, arithmetic="exact")
    # the invariant dimension grows at every degree, so it names the degree
    assert list(exact.dims) == sorted(set(exact.dims))
    assert all(is_exact for _, is_exact in calls)
    # at most one elimination of each kind per degree
    assert len(set(calls)) == len(calls)
    eliminated = {exact.dims.index(dim) + 1 for dim, _ in calls}
    new = {d for d, _ in exact.new_by_degree}
    assert new < eliminated
    # some full-rank degree built product rows to reduce
    assert built - new
    calls.clear()
    built.clear()
    modular = generator_degrees(spec, 12, arithmetic="modular")
    assert len(set(calls)) == len(calls)
    assert built - new
    # every new generator was found by an exact pass
    assert new <= {exact.dims.index(dim) + 1 for dim, is_exact in calls if is_exact}
    assert dataclasses.replace(modular, arithmetic="exact") == exact
    assert exact.new_by_degree == ((1, 2), (2, 3), (3, 1), (4, 1))


def test_scan_refuses_a_cover_that_outnumbers_the_product_count(monkeypatch):
    # S3's degree-2 cover row e1 * e1 is one independent product; a count
    # that misses it leaves the cover larger than the rank can be
    count = invariant_ring._RingScan._product_count
    monkeypatch.setattr(
        invariant_ring._RingScan, "_product_count", lambda self, d: count(self, d) - (d == 2)
    )
    with pytest.raises(AssertionError, match="1 independent cover rows at degree 2 outnumber"):
        generator_degrees(S3, 4)


def _sparse(values):
    return {c: v for c, v in enumerate(values) if v}


def _rational_rank(vectors):
    """Rank over the rationals, by Gauss-Jordan elimination on Fractions."""
    rows = [[fractions.Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def elimination_cases(draw):
    """Up to 6 nonzero rows on up to 8 columns, and a cover of unit-lead
    rows on a proper subset of the columns (a full cover needs no
    elimination).  The entries are below 4 in size, so by Hadamard's bound
    every minor is below 2**31 - 1 and the ranks mod the prime equal the
    rational ones."""
    prime = draw(st.sampled_from([None, invariant_ring._PRIME]))
    ncols = draw(st.integers(1, 8))
    entries = st.integers(-3 if prime is None else 0, 3)
    row = st.lists(entries, min_size=ncols, max_size=ncols).filter(any)
    rows = draw(st.lists(row, max_size=6))
    cover = {}
    for c in sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))):
        tail = draw(st.lists(entries, min_size=ncols - c - 1, max_size=ncols - c - 1))
        cover[c] = [0] * c + [1] + tail
    return prime, ncols, rows, cover


@given(elimination_cases())
@settings(max_examples=300, deadline=None)
def test_eliminate_pivots_are_the_rational_echelon_leads(case):
    prime, ncols, rows, cover = case
    covering = list(cover.values())
    # column c leads an echelon basis exactly when it raises the rank of the
    # columns before it
    ranks = [_rational_rank([v[:c] for v in covering + rows]) for c in range(ncols + 1)]
    leads = {c for c in range(ncols) if ranks[c + 1] > ranks[c]}
    # a product count of ncols bounds nothing; one equal to the rank does
    for products in (ncols, ranks[-1]):
        pulled, built = [], []

        def supply():
            for values in rows:
                pulled.append(values)
                yield _sparse(values)

        def build(c):
            built.append((c, len(pulled)))
            return _sparse(cover[c])

        pivots = invariant_ring._eliminate(
            supply(), ncols, prime, {c: (c,) for c in cover}, build, products
        )
        assert pivots == leads
        built_columns = [c for c, _ in built]
        assert len(built_columns) == len(set(built_columns))
        assert set(built_columns) <= set(cover)
        # no row is pulled once the pivots reach the bound, and no cover row is
        # built past the row that reaches it
        full = next(
            k
            for k in range(len(rows) + 1)
            if k == len(rows) or _rational_rank(covering + rows[:k]) == products
        )
        assert len(pulled) == full
        assert all(0 < k <= full for _, k in built)


# ----------------------------------------------------------------- verdicts


def test_conjecture_verdict_rules():
    full = 10
    assert conjecture_verdict(((1, 2), (3, 1)), 5, 10, full) == "true"
    assert conjecture_verdict(((1, 2), (3, 1)), 5, 8, full) == "capped"
    assert conjecture_verdict(((1, 1), (6, 1)), 5, 8, full) == "false"
    assert conjecture_verdict((), 5, 10, full) == "true"


def test_full_certification_cap():
    assert full_certification_cap(1) == 1
    assert full_certification_cap(2) == 2
    assert full_certification_cap(3) == 3
    assert full_certification_cap(4) == 6
    assert full_certification_cap(5) == 10
    assert full_certification_cap(6) == 15


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: molien_hilbert_coeffs(S3, -1), "need max_degree >= 0, got -1"),
        (lambda: generator_degrees(S3, 2, arithmetic="fast"),
         "arithmetic must be 'exact' or 'modular', got 'fast'"),
        (lambda: generator_degrees(S3, -1), "need degree_cap >= 0, got -1"),
        (lambda: check_conjectures(Graph(0, ())), "conjecture checks need at least one vertex"),
        (lambda: sweep(0), "need n_max >= 1, got 0"),
        (lambda: sweep(2, jobs=0), "need jobs >= 1, got 0"),
        (lambda: generator_degrees(trivial_group(2), 2, elements=[]),
         "need at least one listed element"),
        (lambda: generator_degrees(trivial_group(2), 2, elements=[Permutation((1, 0, 2))]),
         "listed element (1, 0, 2) acts on 3 points, not 2"),
    ],
    ids=[
        "molien-degree", "arithmetic", "degree-cap", "no-vertex", "sweep-n", "sweep-jobs",
        "empty-listing", "listing-points",
    ],
)
def test_invariant_ring_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("policy", [True, False, -3, 2.0, "half"])
def test_cap_policy_refuses_what_is_not_a_nonnegative_integer(policy):
    message = f"or a nonnegative integer, got {policy!r}$"
    with pytest.raises(ValueError, match=message):
        invariant_ring._resolve_cap(policy, 4)


# ------------------------------------------------------------ conjectures


def test_check_conjectures_complete_graphs():
    for n in range(1, 6):
        report = check_conjectures(complete_graph(n))
        assert report.beta_proxy == n
        assert report.max_orbit == n
        assert report.aut_order == __import__("math").factorial(n)
        assert report.a_verdict == "true"
        assert report.b_verdict == "true"


def test_check_conjectures_integer_cap():
    # an integer cap at or above the full cap certifies; below it, caps
    for g in [g for n in range(1, 4) for g in enumerate_graphs(n)]:
        report = check_conjectures(g, 3)
        assert (report.cap, report.verified_up_to) == (full_certification_cap(g.n),) * 2
        assert (report.a_verdict, report.b_verdict) == ("true", "true")
    report = check_conjectures(complete_graph(4), 3)
    assert (report.cap, report.verified_up_to) == (3, 3)
    assert report.new_by_degree == ((1, 1), (2, 1), (3, 1))
    assert (report.a_verdict, report.b_verdict) == ("capped", "capped")


def test_check_conjectures_star():
    report = check_conjectures(graph(4, (0, 3), (1, 3), (2, 3)))
    assert report.n == 4
    assert report.aut_order == 6
    assert report.orbit_sizes == (3, 1)
    assert report.max_orbit == 3
    assert report.beta_proxy == 3
    assert report.new_by_degree == ((1, 2), (2, 1), (3, 1))
    assert report.a_verdict == "true"
    assert report.b_verdict == "true"
    assert report.verified_up_to == full_certification_cap(4)


def test_check_conjectures_path5():
    report = check_conjectures(graph(5, (0, 1), (1, 2), (2, 3), (3, 4)))
    assert report.aut_order == 2
    assert report.orbit_sizes == (2, 2, 1)
    assert report.beta_proxy == 2
    assert report.a_verdict == "true"
    assert report.b_verdict == "true"


def test_check_conjectures_triangle_plus_edge():
    report = check_conjectures(graph(5, (0, 1), (0, 2), (1, 2), (3, 4)))
    assert report.aut_order == 12
    assert report.max_orbit == 3
    assert report.beta_proxy == 3
    assert report.b_verdict == "true"


def test_check_conjectures_edgeless_matches_complete():
    empty = check_conjectures(graph(3))
    full = check_conjectures(complete_graph(3))
    assert empty.beta_proxy == full.beta_proxy == 3
    assert empty.aut_order == full.aut_order == 6


def test_check_conjectures_runs_one_canonical_search_per_graph():
    search = graphs._optimal_orders
    search.cache_clear()
    star = graph(4, (0, 3), (1, 3), (2, 3))
    path = graph(5, (0, 1), (1, 2), (2, 3), (3, 4))
    for g in (star, path, star):
        check_conjectures(g)
    assert search.cache_info().misses == 3


def test_check_conjectures_computes_vertex_orbits_once(monkeypatch):
    # the scan's Hilbert numerator bound reads the orbits the report lists
    listed, bounded = [], []
    count, bound = invariant_ring._listed_orbit_sizes, invariant_ring._generator_bound
    monkeypatch.setattr(
        invariant_ring,
        "_listed_orbit_sizes",
        lambda elements: listed.append(len(elements)) or count(elements),
    )
    monkeypatch.setattr(
        invariant_ring,
        "_generator_bound",
        lambda molien, sizes: bounded.append(sorted(sizes)) or bound(molien, sizes),
    )
    report = check_conjectures(graph(4, (0, 1), (1, 2)))
    assert report.orbit_sizes == (2, 1, 1)
    assert listed == [2]
    assert bounded == [[1, 1, 2]]


def test_check_conjectures_labels_monomial_orbits_without_the_propagation_kernel(monkeypatch):
    # the vertex orbits and the stabilizer chain that labels each degree's
    # monomial orbits are both read off the listing: the kernel never runs
    sizes = []
    kernel = permgroup._orbit_labels
    monkeypatch.setattr(
        permgroup, "_orbit_labels", lambda size, maps: sizes.append(size) or kernel(size, maps)
    )
    assert not hasattr(invariant_ring, "_orbit_labels")
    report = check_conjectures(graph(6, (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    assert (report.aut_order, report.orbit_sizes, report.verified_up_to) == (12, (6,), 12)
    assert sizes == []


def test_check_conjectures_reads_the_group_off_the_listing_alone(monkeypatch):
    # the chain, the vertex orbits and the bound come from the one listing
    # of the canonical search: no closure, no reduced generating set, no
    # Schreier-Sims and no propagation kernel
    hexagon = graph(6, (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))
    cases = [(g, "full") for n in range(1, 5) for g in enumerate_graphs(n)]
    cases += [(graph(4, (0, 1), (1, 2)), "2n"), (hexagon, "2n")]
    reports = [check_conjectures(g, cap) for g, cap in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the group was rebuilt from its listing")

    names = ("_orbit_labels", "_closure", "_stabilizer_chain", "reduce_generators")
    for module in (permgroup, invariant_ring, graphs):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert not hasattr(invariant_ring, "_orbit_labels")
    assert [check_conjectures(g, cap) for g, cap in cases] == reports
    path, ring = reports[-2:]
    assert path.orbit_sizes == (2, 1, 1)
    assert (ring.aut_order, ring.orbit_sizes, ring.verified_up_to) == (12, (6,), 12)


def test_vertex_transitive_verdicts_agree():
    c5 = graph(5, (0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    report = check_conjectures(c5)
    assert report.max_orbit == report.n
    assert report.a_verdict == report.b_verdict


def test_trivial_automorphisms_give_beta_one():
    # smallest graph with trivial automorphism group has 6 vertices
    found = 0
    for g in enumerate_graphs(6):
        report = None
        from invlayers.graphs import automorphism_group

        if len(automorphism_group(g).generators) == 1:
            report = check_conjectures(g)
            assert report.beta_proxy == 1
            assert report.orbit_sizes == (1,) * 6
            assert report.max_orbit == 1
            found += 1
            if found >= 2:
                break
    assert found >= 2


def test_modular_report_matches_exact():
    for g in (g for n in range(1, 6) for g in enumerate_graphs(n)):
        exact = check_conjectures(g, "full", arithmetic="exact")
        modular = check_conjectures(g, "full", arithmetic="modular")
        assert exact.arithmetic == "exact"
        assert modular.arithmetic == "modular"
        assert dataclasses.replace(modular, arithmetic="exact") == exact


# (|Aut|, vertex orbit sizes) of the n=6 classes in the benchmark's sample
SIX_SAMPLE_SIGNATURES = [
    (1, (1, 1, 1, 1, 1, 1)),
    (2, (2, 1, 1, 1, 1)),
    (720, (6,)),
    (2, (2, 2, 1, 1)),
    (4, (2, 2, 1, 1)),
    (48, (4, 2)),
    (16, (4, 2)),
    (120, (5, 1)),
    (6, (3, 1, 1, 1)),
    (4, (2, 2, 2)),
    (8, (2, 2, 2)),
    (36, (3, 3)),
    (8, (4, 1, 1)),
    (12, (3, 2, 1)),
    (24, (4, 1, 1)),
]


def six_vertex_sample():
    """The first n=6 class in graph6 order of each sample signature."""
    first = {}
    for g in enumerate_graphs(6):  # graph6 order
        aut = automorphism_group(g)
        sizes = sorted((len(o) for o in vertex_orbits(aut)), reverse=True)
        first.setdefault((len(aut.generators), tuple(sizes)), g)
    return [(signature, first[signature]) for signature in SIX_SAMPLE_SIGNATURES]


def test_modular_report_matches_exact_on_six_vertex_sample():
    for signature, g in six_vertex_sample():
        exact = check_conjectures(g, "2n", arithmetic="exact")
        modular = check_conjectures(g, "2n", arithmetic="modular")
        assert (exact.aut_order, exact.orbit_sizes) == signature
        assert dataclasses.replace(modular, arithmetic="exact") == exact


def _overstate_beta(monkeypatch, beta):
    """Make the scan report a generator degree no correct scan can give."""
    real = invariant_ring.generator_degrees

    def wrong(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), max_generator_degree=beta)

    monkeypatch.setattr(invariant_ring, "generator_degrees", wrong)


def test_report_checks_noether_bound(monkeypatch):
    path5 = graph(5, (0, 1), (1, 2), (2, 3), (3, 4))  # |Aut| = 2, Goebel cap 10
    _overstate_beta(monkeypatch, 3)
    with pytest.raises(AssertionError, match="Noether"):
        check_conjectures(path5)


def test_report_checks_goebel_bound(monkeypatch):
    k4 = complete_graph(4)  # |Aut| = 24, Goebel cap 6
    _overstate_beta(monkeypatch, 7)
    with pytest.raises(AssertionError, match="Goebel"):
        check_conjectures(k4, "full")


# ------------------------------------------------- Hilbert numerator bound


def test_generator_bound_pinned():
    def bound(series, sizes):
        numerator = invariant_ring._hilbert_numerator(series, sizes)
        return invariant_ring._generator_bound(numerator, sizes)

    s6 = young_generators(TypedNodeSet((6,)))
    assert bound(molien_hilbert_coeffs(s6, 9), [6])[1:] == [1] * 6 + [0] * 3  # D_G = 6
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    assert bound(molien_hilbert_coeffs(swap, 4), [2, 1])[1:] == [2, 1, 0, 0]  # D_G = 2
    d7 = PermGroupSpec(7, (Permutation((1, 2, 3, 4, 5, 6, 0)), Permutation((0, 6, 5, 4, 3, 2, 1))))
    b = bound(molien_hilbert_coeffs(d7, 21), [7])
    assert b[16:] == [14, 6, 4, 0, 0, 0]  # D_G = 18
    # numerators no Cohen-Macaulay ring has: 1 - t, and 1 + t + t^2 above degree 0
    with pytest.raises(AssertionError, match="numerator"):
        bound([1, 0, 0], [1])
    with pytest.raises(AssertionError, match="numerator"):
        bound([1, 2, 3], [1])


def _scan_cases():
    """(generators, elements, cap) per class: every n <= 5 class at cap
    full, and the n=6 sample at cap 2n."""
    graphs_and_caps = [
        (g, full_certification_cap(n)) for n in range(1, 6) for g in enumerate_graphs(n)
    ]
    graphs_and_caps += [(g, 12) for _, g in six_vertex_sample()]
    for g, cap in graphs_and_caps:
        aut = automorphism_group(g)
        yield PermGroupSpec(g.n, tuple(reduce_generators(aut.generators))), aut.generators, cap


@pytest.mark.parametrize("arithmetic", ["exact", "modular"])
def test_numerator_skip_matches_full_scan(arithmetic):
    # without elements the scan has no bound and scans every degree in full
    for spec, elements, cap in _scan_cases():
        skipped = generator_degrees(spec, cap, arithmetic=arithmetic, elements=elements)
        assert skipped == generator_degrees(spec, cap, arithmetic=arithmetic), spec


def test_scan_enforces_generator_bound(monkeypatch):
    # the transposition (0 1) on 3 points has B_1 = 2 and two degree-1 generators
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    real = invariant_ring._generator_bound

    def one_lower_at_degree_one(numerator, orbit_sizes):
        b = real(numerator, orbit_sizes)
        b[1] -= 1
        return b

    monkeypatch.setattr(invariant_ring, "_generator_bound", one_lower_at_degree_one)
    with pytest.raises(AssertionError, match="numerator bound 1"):
        generator_degrees(swap, 4, elements=group_closure(swap))


def test_scan_cross_checks_each_dimension_against_molien(monkeypatch):
    # the orbits {0, 1} and {2} give top 1, so degrees up to max(1, 2) = 2
    # are labelled and cross-checked, the ones above read off the series;
    # the bound comes from the true series, so only the cross-check can fire
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    real_series, real_bound = invariant_ring._molien_from_elements, invariant_ring._generator_bound
    true = real_series(group_closure(swap), 4)

    def one_high_at_degree_two(elements, max_degree):
        series = list(real_series(elements, max_degree))
        series[2] += 1
        return tuple(series)

    monkeypatch.setattr(invariant_ring, "_molien_from_elements", one_high_at_degree_two)
    monkeypatch.setattr(
        invariant_ring,
        "_generator_bound",
        lambda _, s: real_bound(invariant_ring._hilbert_numerator(true, s), s),
    )
    message = (
        f"orbit count {true[2]} at degree 2 disagrees with "
        f"the cycle-index series value {true[2] + 1}"
    )
    with pytest.raises(AssertionError, match=message):
        generator_degrees(swap, 4, elements=group_closure(swap))


def test_scan_refuses_a_generator_the_listing_lacks():
    # the listing is a group, the transposition (0 1)'s, but not the
    # group of the spec, whose generator (1 2) it does not hold
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    with pytest.raises(AssertionError, match=r"generator \(0, 2, 1\) is not a listed element"):
        generator_degrees(S3, 4, elements=group_closure(swap))


def test_scan_refuses_a_listing_whose_stabilizers_miscount():
    # S3 less a 3-cycle: the five elements fix no point, but the two that
    # fix 0 and its three cosets need six
    elements = [g for g in group_closure(S3) if g.image != (1, 2, 0)]
    message = "5 listed elements fix the points below 0, but their stabilizer chain needs 6"
    with pytest.raises(AssertionError, match=message):
        generator_degrees(S3, 4, elements=elements)
    # the identity listed twice doubles every stabilizer
    with pytest.raises(AssertionError, match="2 listed elements fix the points below 3"):
        generator_degrees(S3, 4, elements=group_closure(S3) + [Permutation.identity(3)])


def _settled_above(spec, elements):
    """D_G = max(deg N, max |O|) over the listing's vertex orbits O, N the
    Hilbert numerator, which vanishes above sum |O|(|O|-1)/2: above D_G no
    generator appears and the series gives each dimension."""
    sizes = permgroup._listed_orbit_sizes(elements)
    numerator = list(molien_hilbert_coeffs(spec, sum(s * (s - 1) // 2 for s in sizes)))
    for s in sizes:
        for k in range(1, s + 1):
            # times (1 - t^k)
            numerator = [c - (numerator[i - k] if i >= k else 0) for i, c in enumerate(numerator)]
    return max(max(i for i, c in enumerate(numerator) if c), *sizes)


def test_scan_checks_the_vertex_orbits_of_its_chain_against_the_listing(monkeypatch):
    # orbit sizes [3] for the transposition (0 1) on 3 points give the
    # numerator 1 + t + t^2, which the bound accepts, so only the degree-1
    # check of the orbits the chain labels can fire
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    numerator = invariant_ring._hilbert_numerator(molien_hilbert_coeffs(swap, 4), [3])
    bound = invariant_ring._generator_bound(numerator, [3])
    assert bound[1:] == [2, 2, 1, 0]
    monkeypatch.setattr(invariant_ring, "_listed_orbit_sizes", lambda elements: [3])
    message = (
        r"vertex orbit sizes \(2, 1\) of the stabilizer chain differ from the listing's \(3,\)"
    )
    with pytest.raises(AssertionError, match=message):
        generator_degrees(swap, 4, elements=group_closure(swap))


def _record_labelled_degrees(monkeypatch):
    """The degrees ``_orbit_partition`` labels from now on, in call order."""
    labelled = []
    real = invariant_ring._orbit_partition

    def hooked(spec, d, budget, prev=None):
        labelled.append(d)
        return real(spec, d, budget, prev)

    monkeypatch.setattr(invariant_ring, "_orbit_partition", hooked)
    return labelled


def test_listed_scans_label_orbits_up_to_the_settled_degree_alone(monkeypatch):
    labelled = _record_labelled_degrees(monkeypatch)
    for spec, elements, cap in _scan_cases():
        settled_above = _settled_above(spec, elements)
        for listing, last in ((elements, min(cap, settled_above)), (None, cap)):
            labelled.clear()
            generator_degrees(spec, cap, arithmetic="modular", elements=listing)
            assert labelled == list(range(1, last + 1)), (spec, listing is None)


@pytest.mark.parametrize(
    "g, cap",
    [
        # D5: N = 1 + t^2 + t^3 + 2t^4 + 2t^5 + 2t^6 + t^7 + t^8 + t^10
        (graph(5, (0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 9),
        # the net, S3 on a triangle and its pendants: N = 1 + t^2 + 2t^3 + t^4 + t^6
        (graph(6, (0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)), 5),
    ],
)
def test_a_numerator_gap_at_the_cap_settles_no_degree(monkeypatch, g, cap):
    # N vanishes at the cap but not above it, so D_G > cap: a numerator read
    # off the series only up to the cap would settle the cap's degree
    labelled = _record_labelled_degrees(monkeypatch)
    check_conjectures(g, cap)
    assert labelled == list(range(1, cap + 1))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_complete_and_empty_graphs_label_orbits_through_n_alone(monkeypatch, n):
    # Aut = S_n: the numerator is 1, so D_G = n, far below sum |O|(|O|-1)/2
    labelled = _record_labelled_degrees(monkeypatch)
    for g in (complete_graph(n), graph(n)):
        labelled.clear()
        report = check_conjectures(g, "full")
        assert labelled == list(range(1, n + 1))
        assert report.new_by_degree == tuple((d, 1) for d in range(1, n + 1))
        assert report.verified_up_to == full_certification_cap(n)


@pytest.mark.parametrize("degree", [5, 6])
def test_series_between_the_settled_degree_and_top_stays_guarded(monkeypatch, degree):
    # S_4 has D_G 4 and sum |O|(|O|-1)/2 = 6: degrees 5 and 6 are settled
    # from the series at cap 8, and a value one too high at either leaves
    # the numerator negative above it
    s4 = young_generators(TypedNodeSet((4,)))
    elements = group_closure(s4)
    assert _settled_above(s4, elements) == 4
    real_series = invariant_ring._molien_from_elements

    def one_high(elements, max_degree):
        series = list(real_series(elements, max_degree))
        series[degree] += 1
        return tuple(series)

    monkeypatch.setattr(invariant_ring, "_molien_from_elements", one_high)
    with pytest.raises(AssertionError, match="Hilbert numerator"):
        generator_degrees(s4, 8, elements=elements)


def test_scan_checks_the_module_rank_before_it_settles_a_degree(monkeypatch):
    # the transposition (0 1) on 3 points has D_G 2 and N = 1, so
    # N(1) * |G| = 2 = 2! * 1!; a numerator one too high at degree 0 leaves
    # D_G and the bound as they are, and only the rank check can fire
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    elements = group_closure(swap)
    real = invariant_ring._hilbert_numerator

    def one_high_at_degree_zero(molien, orbit_sizes):
        numerator = real(molien, orbit_sizes)
        numerator[0] += 1
        return numerator

    monkeypatch.setattr(invariant_ring, "_hilbert_numerator", one_high_at_degree_zero)
    # at cap 2 no degree is settled, so nothing reads the rank
    assert generator_degrees(swap, 2, elements=elements) == generator_degrees(swap, 2)
    message = r"Hilbert numerator sum 2 times the group order 2 differs .* \(2, 1\)"
    with pytest.raises(AssertionError, match=message):
        generator_degrees(swap, 4, elements=elements)


def test_listed_scan_computes_the_hilbert_numerator_once(monkeypatch):
    # the star settles the degrees above 3 at cap 6, so D_G, B_d and the
    # module rank N(1) are all read, and all off one numerator
    calls = []
    real = invariant_ring._hilbert_numerator
    monkeypatch.setattr(
        invariant_ring,
        "_hilbert_numerator",
        lambda molien, sizes: calls.append(sorted(sizes)) or real(molien, sizes),
    )
    generator_degrees(STAR_GROUP, 6, elements=group_closure(STAR_GROUP))
    assert calls == [[1, 3]]


@pytest.mark.parametrize("degree", range(1, 7))
def test_every_star_dimension_is_checked_against_the_series(monkeypatch, degree):
    # the star's vertex orbits have sizes 3 and 1, so the settled degrees
    # start above 3: below, a series value one too high fails the orbit
    # count's cross-check (the bound kept true); above, it leaves the Hilbert
    # numerator nonzero above degree 3
    elements = group_closure(STAR_GROUP)
    assert _settled_above(STAR_GROUP, elements) == 3
    real_series, real_bound = invariant_ring._molien_from_elements, invariant_ring._generator_bound
    true = real_series(elements, 6)

    def one_high(elements, max_degree):
        series = list(real_series(elements, max_degree))
        series[degree] += 1
        return tuple(series)

    monkeypatch.setattr(invariant_ring, "_molien_from_elements", one_high)
    if degree <= 3:
        monkeypatch.setattr(
            invariant_ring,
            "_generator_bound",
            lambda _, s: real_bound(invariant_ring._hilbert_numerator(true, s), s),
        )
        message = f"orbit count {true[degree]} at degree {degree} disagrees"
    else:
        message = "nonzero above degree 3"
    with pytest.raises(AssertionError, match=message):
        generator_degrees(STAR_GROUP, 6, elements=elements)


@pytest.mark.parametrize("kind", ["monomials_per_degree", "tuple_enumeration"])
def test_budgets_stop_a_settled_degree_as_they_stop_a_labelled_one(monkeypatch, kind):
    # each budget first bites at two above the last labelled degree, where
    # a listed scan builds no orbit and an unlisted one labels them all
    refusals = []
    real = invariant_ring._RingScan._scan_degree

    def recorded(self, d):
        try:
            real(self, d)
        except BudgetError as error:
            refusals.append(str(error))
            raise

    monkeypatch.setattr(invariant_ring._RingScan, "_scan_degree", recorded)
    swap = PermGroupSpec(3, (Permutation((1, 0, 2)),))
    for spec in (swap, C3, STAR_GROUP, young_generators(TypedNodeSet((2, 2)))):
        elements = group_closure(spec)
        d = _settled_above(spec, elements) + 2
        if kind == "monomials_per_degree":
            limit = invariant_ring._monomial_count(spec.n, d - 1)
            count = invariant_ring._monomial_count(spec.n, d)
            message = f"degree {d} has {count} monomials on {spec.n} variables; budget is {limit}"
        else:
            found = generator_degrees(spec, d).new_by_degree
            degrees = [dg for dg, count in found for _ in range(count)]
            limit = invariant_ring._series(degrees, d)[d - 1]
            message = f"more than {limit} generator products at degree {d}"
        budget = Budgets(**{kind: limit})
        refusals.clear()
        results = [
            generator_degrees(spec, d + 2, budget=budget, elements=listing)
            for listing in (elements, None)
        ]
        assert [r.verified_up_to for r in results] == [d - 1, d - 1], spec
        assert results[0] == results[1]
        assert refusals == [message, message]


# ----------------------------------------------------------------- sweep/IO


def test_sweep_n3():
    result = sweep(3)
    assert len(result.reports) == 7
    keys = [(r.n, r.graph6) for r in result.reports]
    assert keys == sorted(keys)
    assert all(r.a_verdict == "true" and r.b_verdict == "true" for r in result.reports)
    assert result.summary[3]["classes"] == 4
    assert result.summary[3]["a"]["true"] == 4
    assert result.summary[2]["b"]["true"] == 2


def test_sweep_csv_round_trip(tmp_path):
    result = sweep(3)
    path = tmp_path / "summary.csv"
    write_reports_csv(result.reports, path)
    with open(path, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 7
    assert set(rows[0]) == {
        "graph6",
        "n",
        "aut_order",
        "max_orbit",
        "generator_degrees",
        "verified_up_to",
        "A",
        "B",
    }
    k3_row = [r for r in rows if r["graph6"] == "Bw"]
    assert len(k3_row) == 1
    assert k3_row[0]["generator_degrees"] == "1:1 2:1 3:1"
    assert k3_row[0]["A"] == "true"


def test_report_json_dict():
    report = check_conjectures(complete_graph(3))
    data = report_to_json_dict(report)
    assert data["graph6"] == "Bw"
    assert data["beta_proxy"] == 3
    assert data["new_by_degree"] == [[1, 1], [2, 1], [3, 1]]
    json.dumps(data)  # must be serializable


def test_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only by a sweep that asks for workers
    code = "import sys, invlayers.invariant_ring; print('multiprocessing' in sys.modules)"
    src = str(pathlib.Path(invariant_ring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_sweep_starts_at_most_one_worker_per_graph(monkeypatch):
    # a pool starts every worker it is given at its first submit
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert sweep(3, jobs=64) == sweep(3)
    assert started == [7]
    assert len(sweep(1, jobs=4).reports) == 1
    assert sweep(3, jobs=4, graphs=[]).reports == ()
    assert started == [7]


def test_sweep_accepts_explicit_graphs():
    gs = [complete_graph(3), graph(3)]
    result = sweep(3, graphs=gs)
    assert len(result.reports) == 2


# Answers frozen from the scan over products of generator multisets, which
# the generator x orbit-sum rows replaced: the seeded random groups (n <= 6,
# cap 2n, full groups listed, so every dimension is checked against Molien)
# and the CSV of `conjectures --nmax 6 --cap 2n --arith modular`.  The CSV of
# `conjectures --nmax 6 --cap full` was frozen before the product-count bound,
# and the n = 7 cap-full CSV less the two D7 classes before a listed scan
# stopped labelling orbits at D_G.
DATA = pathlib.Path(__file__).parent / "data"


def test_generator_degrees_frozen_on_seeded_random_groups():
    cases = json.loads((DATA / "generator_degrees_random_groups.json").read_text())
    for case in cases:
        spec = PermGroupSpec(case["n"], tuple(Permutation(g) for g in case["generators"]))
        elements = group_closure(spec)
        for arithmetic in ("exact", "modular"):
            res = generator_degrees(
                spec, case["cap"], arithmetic=arithmetic, elements=elements
            )
            assert {
                "new_by_degree": [list(p) for p in res.new_by_degree],
                "dims": list(res.dims),
                "verified_up_to": res.verified_up_to,
                "max_generator_degree": res.max_generator_degree,
            } == case[arithmetic], (case["generators"], arithmetic)


@pytest.mark.slow
def test_six_vertex_modular_sweep_csv_frozen():
    result = sweep(6, "2n", arithmetic="modular")
    expected = (DATA / "conjectures_n6_cap2n_modular.csv").read_text(encoding="utf-8")
    assert invariant_ring.reports_csv_text(result.reports) == expected


@pytest.mark.slow
def test_six_vertex_full_cap_sweep_csv_frozen():
    # auto arithmetic: n <= 5 exact, n = 6 modular
    result = sweep(6, "full")
    expected = (DATA / "conjectures_n6_capfull.csv").read_text(encoding="utf-8")
    assert invariant_ring.reports_csv_text(result.reports) == expected


def test_seven_vertex_full_cap_csv_frozen_less_the_dihedral_classes():
    # every n = 7 class but C7 and its complement, whose group D7 has D_G
    # 18: each is labelled to its D_G and settled from the series up to 21
    dihedral = {"F@Ue?", "FLvn_"}
    classes = [g for g in enumerate_graphs(7) if graphs.write_graph6(g) not in dihedral]
    assert len(classes) == 1042
    result = sweep(7, "full", graphs=classes)
    expected = (DATA / "conjectures_n7_capfull_less_d7.csv").read_text(encoding="utf-8")
    assert invariant_ring.reports_csv_text(result.reports) == expected


def _csv_rows(text, sizes):
    """The CSV's rows for graphs whose vertex count is in sizes."""
    return [line for line in text.splitlines()[1:] if int(line.split(",")[1]) in sizes]


def test_no_product_row_where_the_cover_reaches_the_product_count(monkeypatch):
    """Every n <= 5 class at cap full (exact) and every n = 6 class at cap 2n
    (modular): the running product count P_d equals the multiset count over
    the generators found below d, no mod-p pass runs where P_d < dim, no row
    is built at a degree whose cover reaches min(dim, P_d), and the reports
    are the frozen ones."""
    scan_class = invariant_ring._RingScan
    count, row, eliminate = scan_class._product_count, scan_class._row, invariant_ring._eliminate
    settled, built = [], []

    def hooked_count(self, d):
        products = count(self, d)
        assert products == invariant_ring._series((dg for dg, _ in self.gens), d)[d]
        settled.append(False)
        return products

    def hooked_eliminate(rows, dim, prime, cover, build, products):
        # a mod-p pass can only prove full rank, which needs P_d >= dim
        assert prime is None or products >= dim
        settled[-1] = len(cover) >= min(dim, products)
        return eliminate(rows, dim, prime, cover, build, products)

    def hooked_row(self, i, o, d):
        assert not settled[-1], d
        built.append(d)
        return row(self, i, o, d)

    monkeypatch.setattr(scan_class, "_product_count", hooked_count)
    monkeypatch.setattr(scan_class, "_row", hooked_row)
    monkeypatch.setattr(invariant_ring, "_eliminate", hooked_eliminate)
    small = sweep(5, "full", arithmetic="exact")
    six = sweep(6, "2n", arithmetic="modular", graphs=enumerate_graphs(6))
    assert any(settled) and built
    assert len(small.reports) == 52
    for r in small.reports:
        assert r.verified_up_to == full_certification_cap(r.n)
        assert r.a_verdict == r.b_verdict == "true"
    for result, name, sizes in (
        (small, "conjectures_n6_capfull.csv", range(1, 6)),
        (six, "conjectures_n6_cap2n_modular.csv", (6,)),
    ):
        frozen = (DATA / name).read_text(encoding="utf-8")
        rows = _csv_rows(invariant_ring.reports_csv_text(result.reports), sizes)
        assert rows == _csv_rows(frozen, sizes)


def test_selftest_runs():
    from invlayers import invariant_ring

    invariant_ring.selftest()
