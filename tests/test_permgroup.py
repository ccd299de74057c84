import itertools
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from conftest import (
    brute_cyclic_group,
    brute_orbit_count,
    brute_translation_group,
    brute_typed_group,
)
import invlayers
from invlayers.combinat import gen_bell
from invlayers.errors import BudgetError
from invlayers.graphs import automorphism_group, enumerate_graphs
from invlayers.permgroup import (
    PermGroupSpec,
    _orbit_labels,
    Permutation,
    TypedNodeSet,
    burnside_count,
    cyclic_generators,
    group_closure,
    max_orbit_size,
    orbit_count_on_tuples,
    reduce_generators,
    translation_generators,
    vertex_orbits,
    young_generators,
)


def test_permutation_basics():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert (p * q).image == tuple(p(q(i)) for i in range(3))
    assert p * p.inverse() == Permutation.identity(3)
    assert p.apply_tuple((0, 0, 2)) == (1, 1, 0)
    assert p.fixed_point_count() == 0
    assert p.cycle_lengths() == (3,)
    assert q.cycle_lengths() == (1, 2)
    assert p.to_one_based() == [2, 3, 1]
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_typed_node_set():
    t = TypedNodeSet((3, 2))
    assert t.n == 5 and t.m == 2
    assert list(t.block(0)) == [0, 1, 2]
    assert list(t.block(1)) == [3, 4]
    assert t.type_of(3) == 1
    with pytest.raises(ValueError):
        TypedNodeSet((2, 0))
    with pytest.raises(ValueError):
        TypedNodeSet(())


@pytest.mark.parametrize("sizes", [(True, 2), (2, False), (1.0, 2)])
def test_typed_node_set_refuses_sizes_that_are_not_ints(sizes):
    with pytest.raises(ValueError, match="type sizes must be positive ints"):
        TypedNodeSet(sizes)


def test_typed_node_set_blocks_read_cached_starts():
    t = TypedNodeSet((3, 1, 4))
    expected = [range(0, 3), range(3, 4), range(4, 8)]
    for _ in range(2):  # the second pass reads the cached starts
        blocks = t.blocks()
        assert type(blocks) is list and blocks == expected
        assert [t.block(j) for j in range(t.m)] == expected
        assert vars(t)["_block_starts"] == (0, 3, 4)
    blocks.append(range(0))  # callers get a fresh list each time
    assert t.blocks() == expected
    fresh = TypedNodeSet((3, 1, 4))
    assert t == fresh and hash(t) == hash(fresh)
    assert pickle.loads(pickle.dumps(t)).blocks() == expected


def test_young_generators_counts():
    assert young_generators(TypedNodeSet((1, 1, 1))).generators == ()
    gens = young_generators(TypedNodeSet((2, 1))).generators
    assert len(gens) == 1 and gens[0].image == (1, 0, 2)
    # one transposition per adjacent pair inside each block
    assert len(young_generators(TypedNodeSet((4, 3))).generators) == 3 + 2


@pytest.mark.parametrize(
    "sizes", [(2,), (3,), (2, 2), (3, 2), (2, 1, 2), (4,)]
)
def test_closure_matches_directly_listed_group(sizes):
    spec = young_generators(TypedNodeSet(sizes))
    got = {g.image for g in group_closure(spec)}
    assert got == set(brute_typed_group(sizes))


def test_closure_contains_identity_and_inverses():
    spec = young_generators(TypedNodeSet((3, 2)))
    elements = group_closure(spec)
    images = {g.image for g in elements}
    assert Permutation.identity(5).image in images
    assert len(images) == 12
    for g in elements:
        assert g.inverse().image in images
    # closed under composition
    for g, h in itertools.product(elements, repeat=2):
        assert (g * h).image in images


def test_closure_order_divides_factorial():
    for sizes in [(2, 2), (3, 1), (2, 1, 1)]:
        spec = young_generators(TypedNodeSet(sizes))
        order = len(group_closure(spec))
        n = sum(sizes)
        assert math.factorial(n) % order == 0


def test_closure_cap_is_an_error_not_a_truncation():
    spec = young_generators(TypedNodeSet((5,)))
    with pytest.raises(BudgetError):
        group_closure(spec, cap=100)
    assert len(group_closure(spec, cap=120)) == 120


def test_cyclic_and_translation_generators():
    assert {g.image for g in group_closure(cyclic_generators(4))} == set(
        brute_cyclic_group(4)
    )
    for d in (1, 2, 3):
        got = {g.image for g in group_closure(translation_generators(d))}
        assert got == set(brute_translation_group(d))
        assert len(got) == d * d


# Orbit counts frozen from the brute-force oracle; the [k, k+1] block
# sizes make every colored-partition class realizable, so the counts
# agree with the closed-form colored-partition count.
ORBIT_CASES = [
    ((3,), 2, 2),
    ((4,), 3, 5),
    ((2, 1), 2, 5),
    ((3, 2), 2, 6),
    ((2, 2), 2, 6),
    ((3, 3), 3, 22),
    ((1, 1), 3, 8),
]


@pytest.mark.parametrize("sizes,k,expected", ORBIT_CASES)
def test_orbit_count_on_tuples_typed(sizes, k, expected):
    spec = young_generators(TypedNodeSet(sizes))
    assert orbit_count_on_tuples(spec, k) == expected
    assert brute_orbit_count(brute_typed_group(sizes), sum(sizes), k) == expected


def test_small_blocks_fall_short_of_the_closed_form():
    # With a type class smaller than k some basis patterns have no
    # realization, so the true dimension (the orbit count) drops below
    # the colored-partition count: 5 < 6 here.
    spec = young_generators(TypedNodeSet((2, 1)))
    assert orbit_count_on_tuples(spec, 2) == 5 < gen_bell(2, 2)


def test_orbit_count_matches_closed_form_when_blocks_large():
    for m, k in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        sizes = tuple([k] * m)
        spec = young_generators(TypedNodeSet(sizes))
        assert orbit_count_on_tuples(spec, k) == gen_bell(m, k)


def test_orbit_count_budget():
    spec = young_generators(TypedNodeSet((10,)))
    with pytest.raises(BudgetError):
        orbit_count_on_tuples(spec, 8, budget=10**6)


def test_orbit_count_k_zero():
    spec = young_generators(TypedNodeSet((3,)))
    assert orbit_count_on_tuples(spec, 0) == 1
    assert burnside_count(spec, 0) == 1


def test_burnside_known_values():
    assert burnside_count(young_generators(TypedNodeSet((4,))), 3) == 5
    for n in range(1, 7):
        for k in range(1, 5):
            assert burnside_count(cyclic_generators(n), k) == n ** (k - 1)
    for d in (1, 2, 3):
        for k in range(1, 4):
            assert burnside_count(translation_generators(d), k) == d ** (2 * k - 2)


@pytest.mark.parametrize(
    "spec",
    [
        young_generators(TypedNodeSet((3, 2))),
        young_generators(TypedNodeSet((2, 2, 1))),
        cyclic_generators(5),
        translation_generators(2),
        translation_generators(3),
    ],
)
def test_orbit_count_equals_burnside(spec):
    for k in range(4):
        assert orbit_count_on_tuples(spec, k) == burnside_count(spec, k)


def test_vertex_orbits_and_max_orbit():
    trivial = PermGroupSpec(3, ())
    assert vertex_orbits(trivial) == [[0], [1], [2]]
    assert max_orbit_size(trivial) == 1
    spec = young_generators(TypedNodeSet((2, 3)))
    assert vertex_orbits(spec) == [[0, 1], [2, 3, 4]]
    assert max_orbit_size(spec) == 3
    assert vertex_orbits(cyclic_generators(4)) == [[0, 1, 2, 3]]


def test_orbits_of_long_cycles():
    # a cycle of length L takes about log2(L) propagation rounds, not L
    assert orbit_count_on_tuples(cyclic_generators(1000), 2) == 1000
    assert vertex_orbits(cyclic_generators(500)) == [list(range(500))]


def brute_labels(size, maps):
    """The smallest point of each point's orbit, by graph search."""
    labels = list(range(size))
    for start in range(size):
        if labels[start] == start:
            stack = [start]
            while stack:
                x = stack.pop()
                for m in maps:
                    y = int(m[x])
                    if labels[y] != start and y > start:
                        labels[y] = start
                        stack.append(y)
    return labels


def test_orbit_labels_with_no_maps_are_the_points():
    assert _orbit_labels(4, []).tolist() == [0, 1, 2, 3]
    assert _orbit_labels(3, np.empty((0, 3), dtype=int)).tolist() == [0, 1, 2]
    assert _orbit_labels(0, []).tolist() == []


def test_orbit_labels_read_each_row_of_a_2d_array_as_a_map():
    maps = np.array([[1, 0, 2, 3, 4], [0, 1, 3, 4, 2]])
    assert _orbit_labels(5, maps).tolist() == [0, 0, 2, 2, 2]
    assert _orbit_labels(5, maps).tolist() == _orbit_labels(5, list(maps)).tolist()


def test_orbit_labels_on_one_long_scrambled_cycle():
    # one 997-cycle through the points in a seeded order: its smallest point
    # is about 500 steps from a typical point, so the minimum must travel
    # through several rounds of squared powers
    order = np.random.default_rng(5).permutation(997)
    image = np.empty(997, dtype=int)
    image[order] = np.roll(order, -1)
    assert _orbit_labels(997, [image]).tolist() == [0] * 997
    # the same cycle beside fixed points and a 2-cycle
    image = np.concatenate([image, [997, 999, 998]])
    assert _orbit_labels(1000, [image]).tolist() == [0] * 997 + [997, 998, 998]


@given(
    st.integers(1, 30).flatmap(
        lambda size: st.lists(st.permutations(list(range(size))), max_size=3).map(
            lambda maps: (size, maps)
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_orbit_labels_match_graph_search(case):
    size, maps = case
    assert _orbit_labels(size, maps).tolist() == brute_labels(size, maps)


def test_reduce_generators_regenerates_group():
    spec = young_generators(TypedNodeSet((4,)))
    elements = group_closure(spec)
    gens = reduce_generators(elements)
    assert len(gens) <= 3
    regenerated = group_closure(PermGroupSpec(4, tuple(gens)))
    assert {g.image for g in regenerated} == {g.image for g in elements}


def greedy_closure_generators(elements):
    """Independent oracle: the greedy choice of ``reduce_generators``, with
    the closure of the kept generators rebuilt from the identity by
    validated ``Permutation`` products after each one is kept."""
    n = elements[0].n
    gens = []
    generated = {Permutation.identity(n)}
    for g in sorted(set(elements), key=lambda p: p.image):
        if g not in generated:
            gens.append(g)
            generated = {Permutation.identity(n)}
            frontier = list(generated)
            while frontier:
                products = {h * x for x in frontier for h in gens}
                frontier = list(products - generated)
                generated |= products
    return gens


def test_reduce_generators_matches_the_greedy_closure_on_small_graphs():
    for n in range(1, 7):
        for graph in enumerate_graphs(n):
            elements = list(automorphism_group(graph).generators)
            assert reduce_generators(elements) == greedy_closure_generators(elements)


def test_reduce_generators_refuses_a_list_that_is_not_a_group():
    s3 = group_closure(young_generators(TypedNodeSet((3,))))
    with pytest.raises(BudgetError):
        reduce_generators([Permutation.identity(3), Permutation((1, 2, 0))])
    with pytest.raises(BudgetError):
        reduce_generators(s3[:-1])
    assert len(reduce_generators(s3)) == 2


@pytest.mark.parametrize(
    "cycle",
    [(), (0, 5), (-1, 0), (0, 1.0), (0, True)],
    ids=["empty", "beyond-n", "negative", "float", "bool"],
)
def test_from_cycles_refuses_a_bad_cycle(cycle):
    with pytest.raises(ValueError) as e:
        Permutation.from_cycles(3, [cycle])
    assert str(e.value) == f"cycle {cycle} must be nonempty with points in 0..2"


def test_closure_elements_equal_checked_permutations():
    for g in group_closure(translation_generators(3)):
        checked = Permutation(g.image)
        assert g == checked and hash(g) == hash(checked)


@st.composite
def small_generator_sets(draw):
    n = draw(st.integers(2, 5))
    count = draw(st.integers(1, 3))
    gens = tuple(
        Permutation(tuple(draw(st.permutations(list(range(n))))))
        for _ in range(count)
    )
    return PermGroupSpec(n, gens)


@given(small_generator_sets(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_orbit_count_equals_burnside_random_groups(spec, k):
    assert orbit_count_on_tuples(spec, k) == burnside_count(spec, k)


@given(small_generator_sets())
@settings(max_examples=60, deadline=None)
def test_vertex_orbits_match_closure_random_groups(spec):
    elements = group_closure(spec)
    orbits = sorted({tuple(sorted({g(i) for g in elements})) for i in range(spec.n)})
    assert vertex_orbits(spec) == [list(o) for o in orbits]


@given(small_generator_sets())
@settings(max_examples=40, deadline=None)
def test_closure_is_a_group(spec):
    elements = group_closure(spec)
    images = {g.image for g in elements}
    assert Permutation.identity(spec.n).image in images
    for g in elements:
        assert g.inverse().image in images
        for h in spec.generators:
            assert (g * h).image in images


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Permutation((1, 0)).compose(Permutation((0, 1, 2))), "size mismatch"),
        (lambda: PermGroupSpec(3, (Permutation((1, 0)),)), "generator degree 2 != 3"),
        (lambda: TypedNodeSet((2, 1)).type_of(3), "node 3 out of range"),
        (lambda: cyclic_generators(0), "n must be positive"),
        (lambda: translation_generators(0), "d must be positive"),
        (lambda: reduce_generators([]), "empty element list"),
        (lambda: orbit_count_on_tuples(cyclic_generators(3), -1), "k must be nonnegative"),
        (lambda: burnside_count(cyclic_generators(3), -1), "k must be nonnegative"),
    ],
    ids=["compose", "spec-degree", "type-of", "cyclic", "translation", "reduce",
         "orbit-count-k", "burnside-k"],
)
def test_permgroup_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_burnside_checks_divisibility_under_python_O():
    # an element list that is not a group: the identity and a 3-cycle without
    # its square, whose fixed-point sum 3 is not divisible by 2
    code = (
        "from invlayers import permgroup as pg\n"
        "pg.group_closure = lambda spec, cap: [pg.Permutation((0, 1, 2)),"
        " pg.Permutation((1, 2, 0))]\n"
        "try:\n"
        "    print(pg.burnside_count(pg.cyclic_generators(3), 1))\n"
        "except AssertionError as exc:\n"
        "    print('refused:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(Path(invlayers.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: fixed-point sum not divisible by group order\n"
