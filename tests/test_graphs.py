import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from invlayers.errors import BudgetError, Graph6ParseError
from invlayers.graphs import (
    Graph,
    automorphism_generators,
    automorphism_group,
    canonical_form,
    canonical_graph6,
    canonical_relabeling,
    enumerate_graphs,
    parse_graph6,
    read_graph6_file,
    write_graph6,
    write_graph6_file,
)
from invlayers.permgroup import Permutation, vertex_orbits


def graph(n, *edges):
    return Graph.from_edges(n, edges)


PATH_3 = graph(3, (0, 1), (1, 2))
PATH_4 = graph(4, (0, 1), (1, 2), (2, 3))
CYCLE_4 = graph(4, (0, 1), (1, 2), (2, 3), (0, 3))
K4 = graph(4, *itertools.combinations(range(4), 2))
STAR_3 = graph(4, (0, 3), (1, 3), (2, 3))  # three symmetric leaves, one hub


def pack_graph6_oracle(g):
    """Independent graph6 writer used as a cross-check: header byte n+63,
    then the upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ... packed
    six per byte, most significant first, zero-padded, each byte offset 63."""
    bits = []
    for j in range(g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for pos in range(0, len(bits), 6):
        val = 0
        for b in bits[pos : pos + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def brute_optimal_orders(g):
    """Every vertex order whose column-major upper-triangle bitstring is
    minimal, found by trying all n! orders, sorted lexicographically."""
    strings = {
        order: [
            int(g.has_edge(order[i], order[j])) for j in range(g.n) for i in range(j)
        ]
        for order in itertools.permutations(range(g.n))
    }
    best = min(strings.values())
    return sorted(order for order, bits in strings.items() if bits == best)


def brute_automorphisms(g):
    perms = set()
    for image in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(image[i], image[j]) == g.has_edge(i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
        ):
            perms.add(image)
    return perms


# ---------------------------------------------------------------- Graph type


def test_graph_construction_and_edges():
    g = PATH_3
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.num_edges == 2
    assert g.degree_sequence() == (1, 2, 1)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong row count
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(2, (0, 0)).relabel(Permutation((0, 1, 2))),
         "permutation on 3 points for n=2"),
        (lambda: write_graph6(Graph(63, (0,) * 63)), "short-form graph6 supports n <= 62, got 63"),
    ],
    ids=["relabel", "graph6-n"],
)
def test_graph_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, value",
    [
        (lambda: Graph(True, (0,)), "True"),
        (lambda: Graph(2.0, (2, 1)), "2.0"),
        (lambda: Graph(2, (2, True)), "True"),
        (lambda: enumerate_graphs(True), "True"),
        (lambda: enumerate_graphs(2.0), "2.0"),
        (lambda: enumerate_graphs(-1), "-1"),
    ],
    ids=["graph-bool-n", "graph-float-n", "graph-bool-row", "enum-bool", "enum-float", "enum-neg"],
)
def test_vertex_counts_and_rows_must_be_ints(make, value):
    with pytest.raises(ValueError, match=f"{value}$"):
        make()


def test_built_graphs_equal_checked_ones():
    # relabel and the enumeration's extension skip the constructor's checks;
    # what they build must pass them and compare and hash as a checked graph
    for g in enumerate_graphs(5):
        for built in (g.relabel(Permutation((4, 2, 0, 3, 1))), canonical_form(g)):
            checked = Graph(built.n, built.rows)
            assert built == checked and hash(built) == hash(checked)
            assert type(built.rows) is tuple
    for g in enumerate_graphs(6):
        assert g == Graph(g.n, g.rows)


def test_graph_relabel():
    perm = Permutation((2, 0, 1))
    moved = PATH_3.relabel(perm)
    # edge (i, j) moves to (perm(i), perm(j))
    assert set(moved.edges()) == {(0, 2), (0, 1)}


# ---------------------------------------------------------------- graph6


def test_parse_known_strings():
    g = parse_graph6("A_")
    assert (g.n, g.edges()) == (2, [(0, 1)])
    assert parse_graph6("?").n == 0
    assert parse_graph6("@").n == 1
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.num_edges == 6


def test_write_matches_independent_packer():
    for g in [PATH_3, PATH_4, CYCLE_4, K4, STAR_3, graph(5), graph(7, (0, 6))]:
        assert write_graph6(g) == pack_graph6_oracle(g)


def test_round_trip_is_identity():
    for g in [graph(0), graph(1), PATH_4, CYCLE_4, K4, STAR_3]:
        assert parse_graph6(write_graph6(g)) == g
    assert write_graph6(parse_graph6("Cl")) == "Cl"


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError, match="byte 0"):
        parse_graph6("")
    with pytest.raises(Graph6ParseError, match="byte 0"):
        parse_graph6("~??")  # long-form header unsupported
    with pytest.raises(Graph6ParseError, match="byte 1"):
        parse_graph6("C")  # truncated data
    with pytest.raises(Graph6ParseError, match="byte 1"):
        parse_graph6("A" + chr(200))
    with pytest.raises(Graph6ParseError):
        parse_graph6("A~")  # nonzero padding bits
    with pytest.raises(Graph6ParseError):
        parse_graph6("A__")  # trailing bytes


def test_graph6_file_round_trip(tmp_path):
    graphs = enumerate_graphs(4)
    path = tmp_path / "four.g6"
    write_graph6_file(path, graphs)
    assert read_graph6_file(path) == graphs
    path2 = tmp_path / "header.g6"
    path2.write_text(">>graph6<<A_\n@\n")
    loaded = read_graph6_file(path2)
    assert [g.n for g in loaded] == [2, 1]


def test_graph6_file_errors_name_their_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\n\nzz!\n")
    prefix = re.escape(f"{path}: line 3: byte 3: ")
    with pytest.raises(Graph6ParseError, match=f"^{prefix}") as info:
        read_graph6_file(path)
    assert info.value.offset == 3


# ---------------------------------------------------------------- canonical


def test_canonical_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    for g in [PATH_4, CYCLE_4, STAR_3, graph(5, (0, 1), (1, 2), (2, 3), (3, 4))]:
        base = canonical_graph6(g)
        for _ in range(10):
            image = tuple(map(int, rng.permutation(g.n)))
            assert canonical_graph6(g.relabel(Permutation(image))) == base


def test_optimal_orders_match_brute_force():
    from invlayers.graphs import _optimal_orders

    rng = np.random.default_rng(17)
    sample = [g for n in range(6) for g in enumerate_graphs(n)]
    sample += [enumerate_graphs(6)[int(i)] for i in rng.choice(156, size=12, replace=False)]
    for g in sample:
        moved = g.relabel(Permutation(tuple(map(int, rng.permutation(g.n)))))
        for h in (g, moved) if g.n < 6 else (moved,):
            assert list(_optimal_orders(h)) == brute_optimal_orders(h)


def test_canonical_separates_nonisomorphic():
    star = graph(4, (0, 1), (0, 2), (0, 3))
    assert canonical_graph6(star) != canonical_graph6(PATH_4)
    assert canonical_graph6(CYCLE_4) != canonical_graph6(K4)


def test_canonical_form_is_isomorphic_relabeling():
    for g in [PATH_4, CYCLE_4, STAR_3]:
        c = canonical_form(g)
        assert c.n == g.n
        assert sorted(c.degree_sequence()) == sorted(g.degree_sequence())
        assert canonical_graph6(c) == write_graph6(c) == canonical_graph6(g)


# ---------------------------------------------------------------- catalogue


# sha256 of the newline-joined graph6 strings of enumerate_graphs(n),
# frozen from enumerations that canonized and deduped each child: n <= 7
# from one that tried every neighbor subset of a parent, n = 8 from one
# that tried one subset per orbit of the parent's automorphism group
ENUMERATION_SHA256 = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
    5: "978306f31045f9be78763583548ac8c32ffdd517ddccce984237ab3ec087ddb8",
    6: "10598a4b41837b791c767d3042b58dc58a723ca5d99144fd8e24085c12a49acb",
    7: "4a04fd789269433a870b8b1493182bfa0a73b637fd522eef4abcb1c7da75f9a1",
    8: "ef42eb7e810e89b8a5facb660c97839506072a4c5333ff16c4e08e2605e71c69",
}


def enumeration_sha256(n):
    text = "\n".join(write_graph6(g) for g in enumerate_graphs(n))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of one line per class with n <= 7 vertices, relabeled by a seeded
# random permutation: its canonical graph6, the image of its canonical
# relabeling and its sorted automorphism images, frozen from the search that
# sorted (column value, vertex) pairs at every node
CANONICAL_SEARCH_SHA256 = "7dd549e545f981e17d74d83816fc4764eb255183fbb5dea1444c7e5d273749f0"


def canonical_search_sha256():
    rng = np.random.default_rng(32)
    digest = hashlib.sha256()
    for n in range(8):
        for g in enumerate_graphs(n):
            moved = g.relabel(Permutation(tuple(map(int, rng.permutation(n)))))
            images = sorted(p.image for p in automorphism_group(moved).generators)
            line = f"{canonical_graph6(moved)} {canonical_relabeling(moved).image} {images}\n"
            digest.update(line.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_pinned_hash(n):
    assert enumeration_sha256(n) == ENUMERATION_SHA256[n]


def test_enumeration_counts_small():
    assert [len(enumerate_graphs(n)) for n in range(0, 7)] == [1, 1, 2, 4, 11, 34, 156]


def test_enumeration_is_canonical_and_sorted():
    graphs = enumerate_graphs(5)
    strings = [write_graph6(g) for g in graphs]
    assert strings == sorted(strings)
    assert len(set(strings)) == len(strings)
    for g in graphs:
        assert canonical_graph6(g) == write_graph6(g)


def test_enumeration_pairwise_nonisomorphic_n4():
    graphs = enumerate_graphs(4)
    # exhaustive oracle: all 2^6 labeled graphs fall into exactly these classes
    seen = set()
    for bits in itertools.product([0, 1], repeat=6):
        edges = [
            e for e, b in zip(itertools.combinations(range(4), 2), bits) if b
        ]
        seen.add(canonical_graph6(graph(4, *edges)))
    assert seen == {write_graph6(g) for g in graphs}


@pytest.mark.slow
def test_is_canonical_matches_canonical_form_on_every_labeled_graph():
    from invlayers.graphs import _is_canonical

    graphs = []
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(graph(n, *(pair for k, pair in enumerate(pairs) if mask >> k & 1)))
    # every child the enumeration of n <= 7 tests: a class with a new last vertex
    for n in range(1, 7):
        for parent in enumerate_graphs(n):
            for subset in range(1 << n):
                edges = [(i, n) for i in range(n) if subset >> i & 1]
                graphs.append(graph(n + 1, *parent.edges(), *edges))
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024 + 11290
    for g in graphs:
        assert _is_canonical(g.rows) == (canonical_form(g) == g)


def test_each_class_deletes_its_last_vertex_to_a_class():
    # the prefix property orderly generation rests on: a canonical graph's
    # first n-1 vertices induce a canonical graph
    for n in range(1, 8):
        parents = set(enumerate_graphs(n - 1))
        last = 1 << (n - 1)
        for g in enumerate_graphs(n):
            assert Graph(n - 1, tuple(row & ~last for row in g.rows[:-1])) in parents


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_graphs(9)


def test_every_enumerable_n_has_a_class_count_certificate():
    from invlayers.graphs import _KNOWN_CLASS_COUNTS, _MAX_ENUM_N

    assert set(range(_MAX_ENUM_N + 1)) <= set(_KNOWN_CLASS_COUNTS)
    assert _KNOWN_CLASS_COUNTS[8] == 12346  # OEIS A000088


@pytest.mark.slow
def test_enumeration_count_n7():
    assert len(enumerate_graphs(7)) == 1044
    assert enumeration_sha256(7) == ENUMERATION_SHA256[7]


@pytest.mark.slow
def test_enumeration_count_n8():
    assert len(enumerate_graphs(8)) == 12346
    assert enumeration_sha256(8) == ENUMERATION_SHA256[8]


@pytest.mark.slow
def test_canonical_search_matches_pinned_hash():
    assert canonical_search_sha256() == CANONICAL_SEARCH_SHA256


# ------------------------------------------------------------ automorphisms


def test_automorphism_orders():
    assert len(automorphism_group(K4).generators) == 24
    assert len(automorphism_group(PATH_3).generators) == 2
    assert len(automorphism_group(STAR_3).generators) == 6
    assert len(automorphism_group(CYCLE_4).generators) == 8
    c5 = graph(5, (0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    assert len(automorphism_group(c5).generators) == 10


def test_automorphisms_match_brute_force():
    rng = np.random.default_rng(11)
    for g in [g for n in range(6) for g in enumerate_graphs(n)]:
        moved = g.relabel(Permutation(tuple(map(int, rng.permutation(g.n)))))
        for h in (g, moved):
            got = [p.image for p in automorphism_group(h).generators]
            assert got == sorted(brute_automorphisms(h))


def test_automorphism_orders_satisfy_orbit_stabilizer():
    # each class with automorphism group A has n!/|A| labelings, and the
    # classes together cover all 2^(n(n-1)/2) labeled graphs
    for n in range(7):
        labeled = sum(
            math.factorial(n) // len(automorphism_group(g).generators)
            for g in enumerate_graphs(n)
        )
        assert labeled == 2 ** (n * (n - 1) // 2)


def test_automorphism_group_is_closed():
    spec = automorphism_group(STAR_3)
    elements = {p.image for p in spec.generators}
    assert tuple(range(4)) in elements
    for p in spec.generators:
        assert p.inverse().image in elements
        for q in spec.generators:
            assert (p * q).image in elements


def test_star_group_fixes_hub():
    spec = automorphism_group(STAR_3)
    assert all(p.image[3] == 3 for p in spec.generators)
    assert vertex_orbits(spec) == [[0, 1, 2], [3]]


def test_automorphism_generators_reduced():
    spec = automorphism_group(K4)
    gens = automorphism_generators(K4)
    assert len(gens.generators) <= 3
    from invlayers.permgroup import group_closure

    assert len(group_closure(gens)) == len(spec.generators)


def test_selftest_runs():
    from invlayers import graphs as graphs_mod

    graphs_mod.selftest()
