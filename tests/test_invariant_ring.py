import csv
import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings

from invlayers import invariant_ring
from invlayers.budgets import Budgets
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
    TypedNodeSet,
    cyclic_generators,
    group_closure,
    vertex_orbits,
    young_generators,
)
from test_permgroup import small_generator_sets


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


def brute_dim(spec, degree):
    """Independent oracle: count orbits of the full group on exponent
    vectors by expanding the closure and acting directly."""
    elements = group_closure(spec)
    n = spec.n
    monos = [
        m
        for m in itertools.product(range(degree + 1), repeat=n)
        if sum(m) == degree
    ]
    orbits = set()
    for m in monos:
        orbit = []
        for g in elements:
            moved = [0] * n
            for i, e in enumerate(m):
                moved[g.image[i]] = e
            orbit.append(tuple(moved))
        orbits.add(frozenset(orbit))
    return len(orbits)


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


# ------------------------------------------------------------ conjectures


def test_check_conjectures_complete_graphs():
    for n in range(1, 6):
        report = check_conjectures(complete_graph(n))
        assert report.beta_proxy == n
        assert report.max_orbit == n
        assert report.aut_order == __import__("math").factorial(n)
        assert report.a_verdict == "true"
        assert report.b_verdict == "true"


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


def test_modular_report_matches_exact_on_six_vertex_sample():
    first = {}
    for g in enumerate_graphs(6):  # graph6 order
        aut = automorphism_group(g)
        sizes = sorted((len(o) for o in vertex_orbits(aut)), reverse=True)
        first.setdefault((len(aut.generators), tuple(sizes)), g)
    for signature in SIX_SAMPLE_SIGNATURES:
        g = first[signature]
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


def test_sweep_accepts_explicit_graphs():
    gs = [complete_graph(3), graph(3)]
    result = sweep(3, graphs=gs)
    assert len(result.reports) == 2


def test_selftest_runs():
    from invlayers import invariant_ring

    invariant_ring.selftest()
