import io
import itertools
import json

import numpy as np
import pytest

from conftest import brute_orbits_on_tuples, brute_typed_group
from invlayers.combinat import (
    ColoredPartition,
    SetPartition,
    enumerate_colored_partitions,
    gen_bell,
)
from invlayers.errors import BasisFileError, BudgetError
from invlayers.permgroup import (
    PermGroupSpec,
    Permutation,
    TypedNodeSet,
    group_closure,
    orbit_count_on_tuples,
    young_generators,
)
from invlayers.tensor_basis import (
    SparseIndicatorTensor,
    apply_functional,
    apply_functional_fold,
    build_basis_element,
    build_full_basis,
    decompose,
    equivariant_basis,
    group_average,
    load_basis,
    permute_tensor,
    reconstruct,
    serialize_basis,
    verify_invariance,
    verify_orthogonality,
)

T21 = TypedNodeSet((2, 1))
T22 = TypedNodeSet((2, 2))


def test_full_basis_takes_no_axis_or_type_cap():
    # order 9 and nine types each pass one above the default caps of 8
    assert len(build_full_basis(9, TypedNodeSet((2,)))) == 21147  # bell(9)
    assert len(build_full_basis(1, TypedNodeSet((1,) * 9))) == 9


def desc(axis_types, blocks_by_type):
    gammas = tuple(SetPartition(tuple(map(tuple, b))) for b in blocks_by_type)
    return ColoredPartition(tuple(axis_types), gammas)


def test_build_basis_element_diagonal_block():
    # both axes type 0 and merged: the diagonal over the first block
    b = build_basis_element(desc((0, 0), [[[0, 1]], []]), T21)
    assert b.tensor.support == {(0, 0), (1, 1)}
    assert not b.is_empty


def test_build_basis_element_cross_block():
    b = build_basis_element(desc((0, 1), [[[0]], [[1]]]), T21)
    assert b.tensor.support == {(0, 2), (1, 2)}


def test_build_basis_element_pigeonhole_empty():
    # two distinct nodes demanded from a singleton type
    t = TypedNodeSet((1, 1))
    b = build_basis_element(desc((0, 0), [[[0], [1]], []]), t)
    assert b.is_empty
    assert b.tensor.support == frozenset()


def test_build_basis_element_repeated_axis_pattern():
    # order-3, axes 0 and 2 share a node, axis 1 distinct, all one type
    t = TypedNodeSet((3,))
    b = build_basis_element(desc((0, 0, 0), [[[0, 2], [1]]]), t)
    assert b.tensor.support == {
        (i, j, i) for i in range(3) for j in range(3) if i != j
    }


def test_full_basis_sizes_2_1():
    basis = build_full_basis(2, T21)
    assert len(basis) == 6
    nonempty = [b for b in basis if not b.is_empty]
    # the two-distinct-nodes pattern inside the singleton type dies
    assert len(nonempty) == 5
    assert verify_orthogonality(basis)
    covered = set().union(*(b.tensor.support for b in basis))
    assert len(covered) == 9
    assert len(nonempty) == orbit_count_on_tuples(young_generators(T21), 2)


def test_full_basis_supports_partition_everything():
    for sizes, k in [((2, 1), 2), ((2, 2), 2), ((3,), 3), ((2, 1, 1), 2), ((1, 1), 3)]:
        t = TypedNodeSet(sizes)
        basis = build_full_basis(k, t)
        assert len(basis) == gen_bell(t.m, k)
        assert verify_orthogonality(basis)
        union = set().union(*(b.tensor.support for b in basis)) if basis else set()
        assert len(union) == t.n**k
        nonempty = sum(1 for b in basis if not b.is_empty)
        assert nonempty == orbit_count_on_tuples(young_generators(t), k)


def test_supports_are_exactly_the_orbits():
    for sizes, k in [((2, 1), 2), ((2, 2), 2), ((3,), 2), ((1, 1), 3)]:
        t = TypedNodeSet(sizes)
        basis = build_full_basis(k, t)
        got = {b.tensor.support for b in basis if not b.is_empty}
        want = brute_orbits_on_tuples(brute_typed_group(sizes), t.n, k)
        assert got == {frozenset(o) for o in want}


def _brute_force_grouping(k, t):
    """Every index tuple, keyed by the descriptor read off it: the type of
    each axis and, per type, which of its axes share a node."""
    groups = {}
    for idx in itertools.product(range(t.n), repeat=k):
        axis_types = tuple(t.type_of(i) for i in idx)
        gammas = []
        for j in range(t.m):
            axes = tuple(s for s in range(k) if axis_types[s] == j)
            first_seen = {}
            rgs = [first_seen.setdefault(idx[s], len(first_seen)) for s in axes]
            gammas.append(SetPartition.from_rgs(axes, rgs))
        groups.setdefault(ColoredPartition(axis_types, tuple(gammas)), set()).add(idx)
    return groups


@pytest.mark.parametrize("sizes", [(1,), (2, 1), (3, 2), (2, 2, 1), (1, 1, 1)])
@pytest.mark.parametrize("k", range(5))
def test_full_basis_is_the_brute_force_grouping(k, sizes):
    t = TypedNodeSet(sizes)
    groups = _brute_force_grouping(k, t)
    basis = build_full_basis(k, t)
    assert [b.descriptor for b in basis] == enumerate_colored_partitions(k, t.m)
    for b in basis:
        public = SparseIndicatorTensor(t.n, k, groups.pop(b.descriptor, frozenset()))
        assert b.tensor == public
        assert hash(b.tensor) == hash(public)
    assert not groups
    # a type with fewer nodes than axes leaves some pigeonhole support empty
    assert any(b.is_empty for b in basis) == (min(sizes) < k)


def test_sparse_tensor_refuses_a_tuple_of_the_wrong_length():
    with pytest.raises(ValueError) as e:
        SparseIndicatorTensor(2, 3, frozenset({(0, 1)}))
    assert str(e.value) == "support tuple (0, 1) is not of length 3"


def test_sparse_tensor_keeps_a_frozenset_of_tuples():
    support = frozenset({(0, 1), (2, 2)})
    kept = SparseIndicatorTensor(3, 2, support)
    assert kept.support is support
    # any other collection is copied into a frozenset of plain tuples
    class Index(tuple):
        pass

    for other in ([[0, 1], [2, 2]], {(0, 1), (2, 2)}, frozenset({Index((0, 1)), (2, 2)})):
        copied = SparseIndicatorTensor(3, 2, other)
        assert type(copied.support) is frozenset
        assert all(type(t) is tuple for t in copied.support)
        assert copied == kept and hash(copied) == hash(kept)


@pytest.mark.parametrize("idx", [(0, 3), (-1, 0)])
def test_sparse_tensor_refuses_a_node_out_of_range(idx):
    with pytest.raises(ValueError) as e:
        SparseIndicatorTensor(3, 2, frozenset({idx}))
    assert str(e.value) == f"support tuple {idx} out of range 0..2"


def test_order_zero_basis():
    basis = build_full_basis(0, T21)
    assert len(basis) == 1
    assert basis[0].tensor.support == {()}
    assert apply_functional(basis[0], np.array(7.0)) == 7.0


def test_basis_invariance_under_young_generators():
    for sizes, k in [((2, 1), 2), ((2, 2), 2), ((3, 2), 2)]:
        t = TypedNodeSet(sizes)
        spec = young_generators(t)
        for b in build_full_basis(k, t):
            assert verify_invariance(b, spec)


def test_verify_invariance_can_fail():
    t = TypedNodeSet((3,))
    bad = build_basis_element(desc((0, 0), [[[0], [1]]]), t)
    # a single off-diagonal cell is not invariant; fake it by shrinking支持
    from invlayers.tensor_basis import BasisElement, SparseIndicatorTensor

    shrunk = BasisElement(
        bad.descriptor, SparseIndicatorTensor(3, 2, frozenset({(0, 1)})), t
    )
    assert not verify_invariance(shrunk, young_generators(t))


def test_apply_functional_identity_matrix():
    basis = build_full_basis(2, T21)
    diag_first = [
        b
        for b in basis
        if b.descriptor.axis_types == (0, 0) and b.descriptor.gammas[0].num_blocks == 1
    ][0]
    assert apply_functional(diag_first, np.eye(3)) == 2.0


def test_apply_functional_validates_shape():
    basis = build_full_basis(2, T21)
    with pytest.raises(ValueError):
        apply_functional(basis[0], np.zeros((2, 2)))


def test_apply_functional_fold_matches_dense():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3))
    for b in build_full_basis(2, T21):
        assert np.isclose(
            apply_functional(b, x), apply_functional_fold(b, lambda t: x[t]), atol=1e-12
        )


SECTION_MAPS = [
    # closed forms for the six invariant functionals on matrices with two
    # node types; K1/K2 are the two node blocks
    lambda x, K1, K2: sum(x[i, i] for i in K1),
    lambda x, K1, K2: sum(x[i, i] for i in K2),
    lambda x, K1, K2: sum(x[i, j] for i in K1 for j in K1 if i != j),
    lambda x, K1, K2: sum(x[i, j] for i in K2 for j in K2 if i != j),
    lambda x, K1, K2: sum(x[i, j] for i in K1 for j in K2),
    lambda x, K1, K2: sum(x[i, j] for i in K2 for j in K1),
]


def closed_form_descriptor_keys():
    # (axis_types, blocks of gamma_0, blocks of gamma_1) matching SECTION_MAPS order
    return [
        ((0, 0), ((0, 1),), ()),
        ((1, 1), (), ((0, 1),)),
        ((0, 0), ((0,), (1,)), ()),
        ((1, 1), (), ((0,), (1,))),
        ((0, 1), ((0,),), ((1,),)),
        ((1, 0), ((1,),), ((0,),)),
    ]


def test_six_functionals_match_closed_forms():
    rng = np.random.default_rng(123)
    for sizes in [(2, 2), (3, 2), (4, 3)]:
        t = TypedNodeSet(sizes)
        K1, K2 = list(t.block(0)), list(t.block(1))
        basis = {
            (
                b.descriptor.axis_types,
                tuple(b.descriptor.gammas[0].blocks),
                tuple(b.descriptor.gammas[1].blocks),
            ): b
            for b in build_full_basis(2, t)
        }
        for _ in range(5):
            x = rng.standard_normal((t.n, t.n))
            for fn, key in zip(SECTION_MAPS, closed_form_descriptor_keys()):
                b = basis[(key[0], tuple(key[1]), tuple(key[2]))]
                assert abs(apply_functional(b, x) - fn(x, K1, K2)) <= 1e-12


def test_decompose_reconstruct_is_group_average():
    rng = np.random.default_rng(5)
    for sizes, k in [((2, 1), 2), ((2, 2), 2), ((3,), 3)]:
        t = TypedNodeSet(sizes)
        basis = build_full_basis(k, t)
        elements = group_closure(young_generators(t))
        x = rng.standard_normal((t.n,) * k)
        coeffs = decompose(x, basis)
        rebuilt = reconstruct(coeffs, basis)
        averaged = group_average(x, elements)
        assert np.max(np.abs(rebuilt - averaged)) <= 1e-12


def test_decompose_fixes_invariant_input():
    t = TypedNodeSet((2, 2))
    basis = build_full_basis(2, t)
    elements = group_closure(young_generators(t))
    rng = np.random.default_rng(11)
    x = group_average(rng.standard_normal((4, 4)), elements)
    rebuilt = reconstruct(decompose(x, basis), basis)
    assert np.max(np.abs(rebuilt - x)) <= 1e-12


def test_permute_tensor_action_convention():
    g = Permutation((1, 2, 0))
    x = np.arange(9.0).reshape(3, 3)
    y = permute_tensor(x, g)
    for i, j in itertools.product(range(3), repeat=2):
        assert y[g(i), g(j)] == x[i, j]


def test_equivariant_basis_two_types_counts():
    basis = equivariant_basis(1, 1, T22)
    assert len(basis) == 6
    assert sum(1 for b in basis if not b.is_empty) == 6
    assert len(equivariant_basis(2, 1, TypedNodeSet((3, 3)))) == 22


def test_equivariant_basis_single_type_order_two():
    # one node type: identity pattern and all-ones-off-diagonal pattern
    basis = equivariant_basis(1, 1, TypedNodeSet((3,)))
    assert len(basis) == 2
    dense = sorted(
        (b.tensor.to_dense() for b in basis), key=lambda m: m.sum()
    )
    assert np.array_equal(dense[0], np.eye(3))
    assert np.array_equal(dense[1], np.ones((3, 3)) - np.eye(3))


def test_equivariant_matrices_commute_with_group():
    for t in [T22, TypedNodeSet((3, 2))]:
        mats = [b.tensor.to_dense() for b in equivariant_basis(1, 1, t)]
        for g in group_closure(young_generators(t)):
            P = np.zeros((t.n, t.n))
            for i in range(t.n):
                P[g(i), i] = 1.0
            for M in mats:
                assert np.array_equal(P @ M @ P.T, M)


def test_budget_errors():
    with pytest.raises(BudgetError):
        build_full_basis(4, TypedNodeSet((60,)), budget=10**6)
    # 27 index tuples fit, the gen_bell(3, 3) = 57 descriptors do not
    with pytest.raises(BudgetError, match="57 descriptors"):
        build_full_basis(3, TypedNodeSet((1, 1, 1)), budget=30)
    with pytest.raises(BudgetError):
        build_basis_element(
            desc((0, 0), [[[0], [1]]]), TypedNodeSet((2000,)), budget=10**6
        )


def test_serialize_load_round_trip():
    for sizes, k in [((2, 1), 2), ((2, 2), 2), ((1, 1), 3)]:
        t = TypedNodeSet(sizes)
        basis = build_full_basis(k, t)
        buf = io.StringIO()
        serialize_basis(basis, buf)
        loaded = load_basis(io.StringIO(buf.getvalue()))
        assert [(b.descriptor, b.tensor) for b in loaded] == [
            (b.descriptor, b.tensor) for b in basis
        ]
        # byte-identical re-serialization
        buf2 = io.StringIO()
        serialize_basis(loaded, buf2)
        assert buf.getvalue() == buf2.getvalue()


def test_serialize_load_round_trip_through_a_path(tmp_path):
    # a pathlib.Path is a path, as a str is, not a file object
    basis = build_full_basis(2, T21)
    path = tmp_path / "basis.json"
    serialize_basis(basis, path)
    buf = io.StringIO()
    serialize_basis(basis, buf)
    assert path.read_text(encoding="utf-8") == buf.getvalue()
    assert [(b.descriptor, b.tensor) for b in load_basis(path)] == [
        (b.descriptor, b.tensor) for b in basis
    ]


def test_serialize_empty_supports_written_explicitly():
    basis = build_full_basis(2, T21)
    buf = io.StringIO()
    serialize_basis(basis, buf)
    assert '"support": []' in buf.getvalue()


def test_load_rejects_malformed_json():
    with pytest.raises(BasisFileError) as err:
        load_basis(io.StringIO("{not json"))
    assert "line" in str(err.value)


def test_load_rejects_bad_structure():
    basis = build_full_basis(2, T21)
    buf = io.StringIO()
    serialize_basis(basis, buf)
    doc = json.loads(buf.getvalue())
    doc["elements"][2]["support"] = [[1, 1]]
    with pytest.raises(BasisFileError) as err:
        load_basis(io.StringIO(json.dumps(doc)))
    assert "record 2" in str(err.value)
    doc2 = json.loads(buf.getvalue())
    del doc2["count"]
    with pytest.raises(BasisFileError):
        load_basis(io.StringIO(json.dumps(doc2)))


def _serialized_doc(sizes, k):
    buf = io.StringIO()
    serialize_basis(build_full_basis(k, TypedNodeSet(sizes)), buf)
    return json.loads(buf.getvalue())


def test_load_rejects_record_with_wrong_type_count():
    doc = _serialized_doc((2, 1), 2)
    assert doc["elements"][1]["blocks_by_type"] == [[0, 1], []]
    doc["elements"][1]["blocks_by_type"] = [[0, 1]]  # lists one type, the file has two
    with pytest.raises(BasisFileError) as err:
        load_basis(io.StringIO(json.dumps(doc)))
    assert err.value.record == 1
    assert "1 types, node set has 2" in str(err.value)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "b.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(BasisFileError, match="not UTF-8"):
        load_basis(str(path))


@pytest.mark.parametrize(
    "idx,field,value",
    [
        (0, "support", [[1.0], [2.0]]),
        (0, "support", [[True], [2]]),
        (1, "axis_types", [1.0]),
        (1, "axis_types", [True]),
        (0, "blocks_by_type", [[0.0], []]),
        (0, "blocks_by_type", [[False], []]),
    ],
)
def test_load_rejects_floats_and_bools_where_the_layout_holds_ints(idx, field, value):
    doc = _serialized_doc((2, 1), 1)
    doc["elements"][idx][field] = value
    with pytest.raises(BasisFileError, match="not an int") as err:
        load_basis(io.StringIO(json.dumps(doc)))
    assert err.value.record == idx


def test_load_rejects_non_object_top_level():
    with pytest.raises(BasisFileError):
        load_basis(io.StringIO("7"))


def test_load_rejects_elements_that_are_not_a_list():
    doc = _serialized_doc((2, 1), 1)
    doc["elements"] = 5
    with pytest.raises(BasisFileError, match="'elements' is not a list"):
        load_basis(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("field,value", [("k", "x"), ("n", -1), ("count", 1.0), ("k", True)])
def test_load_rejects_header_count_that_is_not_a_nonnegative_int(field, value):
    doc = {"n": 3, "k": 1, "type_sizes": [2, 1], "count": 0, "elements": []}
    doc[field] = value
    with pytest.raises(BasisFileError, match=f"{field!r} is not a nonnegative int"):
        load_basis(io.StringIO(json.dumps(doc)))


def test_load_rejects_bool_type_size():
    doc = _serialized_doc((1, 2), 1)
    doc["type_sizes"] = [True, 2]
    with pytest.raises(BasisFileError, match="type_sizes: type sizes must be positive ints"):
        load_basis(io.StringIO(json.dumps(doc)))


def test_load_rejects_empty_type_block():
    doc = _serialized_doc((2, 1), 1)
    doc["type_sizes"] = [0, 2, 1]
    with pytest.raises(BasisFileError) as err:
        load_basis(io.StringIO(json.dumps(doc)))
    assert "type_sizes" in str(err.value)


_BASIS_21 = build_full_basis(1, TypedNodeSet((2, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: reconstruct([1.0], _BASIS_21), "coefficient count does not match basis size"),
        (lambda: reconstruct([], []), "empty basis"),
        (lambda: serialize_basis([], io.StringIO()), "refusing to serialize an empty basis"),
        (lambda: serialize_basis(_BASIS_21 + build_full_basis(2, TypedNodeSet((2, 1))),
                                 io.StringIO()),
         "basis elements disagree on node set or tensor order"),
        (lambda: equivariant_basis(-1, 0, TypedNodeSet((2,))), "tensor orders must be nonnegative"),
        (lambda: group_average(np.zeros(2), []), "empty element list"),
    ],
    ids=["reconstruct-count", "reconstruct-empty", "serialize-empty", "serialize-mixed",
         "equivariant-order", "average-empty"],
)
def test_basis_functions_refuse_bases_that_do_not_fit(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def _edited_basis_file(edit) -> io.StringIO:
    buf = io.StringIO()
    serialize_basis(_BASIS_21, buf)
    doc = json.loads(buf.getvalue())
    edit(doc)
    return io.StringIO(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(count=3), "count field says 3 but 2 records present"),
        (lambda doc: doc.update(type_sizes=[2, 2]), "type_sizes (2, 2) do not sum to n=3"),
        (lambda doc: doc["elements"][0].update(axis_types=[0, 0]),
         "record 0: axis_types length 2 != k=1"),
    ],
    ids=["count", "type-sizes-sum", "axis-types-length"],
)
def test_load_basis_refuses_a_header_or_record_that_does_not_fit(edit, message):
    with pytest.raises(BasisFileError) as info:
        load_basis(_edited_basis_file(edit))
    assert str(info.value) == message
