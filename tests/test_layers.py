import numpy as np
import pytest

from invlayers.combinat import gen_bell
from invlayers.permgroup import (
    Permutation,
    TypedNodeSet,
    group_closure,
    young_generators,
)
from invlayers.layers import (
    EquivariantMap,
    InvariantNetwork,
    InvariantPool,
    Mlp,
    MultiChannelEquivariant,
    equivariant_forward,
    finite_diff_check,
    finite_diff_jacobian,
    invariant_forward,
    jacobian,
    network_forward,
    random_network,
)
from invlayers.tensor_basis import equivariant_basis


def permute_vector(x, g):
    # standard left action: (g.x)[i] = x[g^{-1}(i)]
    return np.asarray(x)[np.array(g.inverse().image)]


def test_invariant_pool_single_type_is_total_sum():
    t = TypedNodeSet((4,))
    p = InvariantPool(t, [1.0])
    assert invariant_forward(p, np.array([1.0, 2, 3, 4])) == 10.0


def test_invariant_pool_block_weights():
    p = InvariantPool(TypedNodeSet((2, 1)), [2.0, -1.0])
    assert invariant_forward(p, np.array([1.0, 2.0, 3.0])) == 2 * 3 - 3


def test_invariant_pool_channels():
    p = InvariantPool(TypedNodeSet((2, 1)), [1.0, 1.0])
    x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    assert np.array_equal(invariant_forward(p, x), [6.0, 60.0])


def test_invariant_pool_validation():
    with pytest.raises(ValueError):
        InvariantPool(TypedNodeSet((2, 1)), [1.0])
    p = InvariantPool(TypedNodeSet((2, 1)), [1.0, 0.0])
    with pytest.raises(ValueError):
        invariant_forward(p, np.zeros(4))
    with pytest.raises(ValueError, match="vector"):
        invariant_forward(p, 3.0)


def test_equivariant_single_type_is_deepsets_form():
    # one type: a * sum(x) broadcast plus b * x
    t = TypedNodeSet((4,))
    e = EquivariantMap(t, [[3.0]], [2.0])
    x = np.array([1.0, 0.0, 1.0, 2.0])
    assert np.array_equal(equivariant_forward(e, x), 3.0 * x.sum() + 2.0 * x)


def test_equivariant_all_ones_example():
    e = EquivariantMap(TypedNodeSet((2, 1)), np.ones((2, 2)), np.zeros(2))
    assert np.array_equal(
        equivariant_forward(e, np.array([1.0, 2.0, 3.0])), [6.0, 6.0, 6.0]
    )


def test_equivariant_bias_on_zero_input():
    e = EquivariantMap(
        TypedNodeSet((2, 1)), np.zeros((2, 2)), np.zeros(2), c=[5.0, -1.0]
    )
    assert np.array_equal(equivariant_forward(e, np.zeros(3)), [5.0, 5.0, -1.0])


def test_equivariance_over_full_group_many_trials():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for sizes in [(3, 2), (2, 2, 1), (4,)]:
        t = TypedNodeSet(sizes)
        elements = group_closure(young_generators(t))
        for _ in range(20):
            e = EquivariantMap(
                t,
                rng.standard_normal((t.m, t.m)),
                rng.standard_normal(t.m),
                c=rng.standard_normal(t.m),
            )
            x = rng.standard_normal(t.n)
            for g in elements:
                lhs = equivariant_forward(e, permute_vector(x, g))
                rhs = permute_vector(equivariant_forward(e, x), g)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12


def test_pool_invariance_over_full_group():
    rng = np.random.default_rng(99)
    t = TypedNodeSet((3, 2))
    elements = group_closure(young_generators(t))
    for _ in range(20):
        p = InvariantPool(t, rng.standard_normal(2))
        x = rng.standard_normal(5)
        vals = {round(invariant_forward(p, permute_vector(x, g)), 9) for g in elements}
        assert len(vals) == 1


def test_jacobian_single_type_closed_form():
    t = TypedNodeSet((3,))
    e = EquivariantMap(t, [[2.0]], [5.0])
    assert np.array_equal(jacobian(e), 2.0 * np.ones((3, 3)) + 5.0 * np.eye(3))


def test_jacobian_block_structure():
    t = TypedNodeSet((2, 1))
    e = EquivariantMap(t, [[1.0, 2.0], [3.0, 4.0]], [10.0, 20.0])
    J = jacobian(e)
    expected = np.array(
        [
            [11.0, 1.0, 3.0],
            [1.0, 11.0, 3.0],
            [2.0, 2.0, 24.0],
        ]
    )
    assert np.array_equal(J, expected)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(3)
    for sizes in [(3,), (2, 2), (3, 2, 1)]:
        t = TypedNodeSet(sizes)
        e = EquivariantMap(
            t, rng.standard_normal((t.m, t.m)), rng.standard_normal(t.m)
        )
        x = rng.standard_normal(t.n)
        assert finite_diff_check(e, x) <= 1e-6


def test_finite_diff_jacobian_on_nonlinear_map():
    fd = finite_diff_jacobian(lambda z: z**2, np.array([1.0, 2.0]), step=1e-6)
    assert np.allclose(fd, np.diag([2.0, 4.0]), atol=1e-5)


def weights_to_basis_coeffs(W, v):
    """The unimodular change of basis from layer weights to the
    coefficients over the six two-type basis matrices (merged-diagonal,
    split-offdiagonal, and cross blocks)."""
    return {
        ((0, 0), 1): W[0][0] + v[0],  # diagonal of block 0 (merged axes)
        ((0, 0), 2): W[0][0],  # off-diagonal inside block 0
        ((1, 1), 1): W[1][1] + v[1],
        ((1, 1), 2): W[1][1],
        # key (0, 1): input axis in block 0, output axis in block 1
        ((0, 1), 1): W[0][1],
        ((1, 0), 1): W[1][0],
    }


def test_jacobian_spans_exactly_the_equivariant_basis():
    # exact integer check both ways: every Jacobian decomposes over the six
    # basis matrices, and every basis matrix is hit by some weight setting
    t = TypedNodeSet((3, 2))
    basis = equivariant_basis(1, 1, t)
    assert len(basis) == gen_bell(2, 2) == 6
    keyed = {}
    for b in basis:
        key = (b.descriptor.axis_types, b.descriptor.gammas[b.descriptor.axis_types[0]].num_blocks
               if b.descriptor.axis_types[0] == b.descriptor.axis_types[1]
               else 1)
        keyed[key] = b.tensor.to_dense()
    rng = np.random.default_rng(8)
    for _ in range(10):
        W = rng.integers(-5, 6, size=(2, 2)).tolist()
        v = rng.integers(-5, 6, size=2).tolist()
        e = EquivariantMap(t, W, v)
        coeffs = weights_to_basis_coeffs(W, v)
        # basis matrices are indexed input-axis-first; the Jacobian is
        # output-by-input, so transpose the dense pattern
        total = sum(c * keyed[k].T for k, c in coeffs.items())
        assert np.array_equal(jacobian(e), total)
    # converse: realize each basis matrix exactly
    realizations = {
        ((0, 0), 1): ([[0, 0], [0, 0]], [1, 0]),
        ((0, 0), 2): ([[1, 0], [0, 0]], [-1, 0]),
        ((1, 1), 1): ([[0, 0], [0, 0]], [0, 1]),
        ((1, 1), 2): ([[0, 0], [0, 1]], [0, -1]),
        ((0, 1), 1): ([[0, 1], [0, 0]], [0, 0]),
        ((1, 0), 1): ([[0, 0], [1, 0]], [0, 0]),
    }
    for key, (W, v) in realizations.items():
        e = EquivariantMap(t, W, v)
        assert np.array_equal(jacobian(e), keyed[key].T)


def test_multichannel_reduces_to_single_channel():
    rng = np.random.default_rng(4)
    t = TypedNodeSet((2, 2))
    W = rng.standard_normal((1, 1, 2, 2))
    v = rng.standard_normal((1, 1, 2))
    layer = MultiChannelEquivariant(t, W, v)
    e = EquivariantMap(t, W[0, 0], v[0, 0])
    x = rng.standard_normal(4)
    assert np.allclose(
        layer.forward(x[:, None])[:, 0], equivariant_forward(e, x), atol=1e-12
    )


def test_multichannel_sums_input_channels():
    rng = np.random.default_rng(6)
    t = TypedNodeSet((3, 1))
    W = rng.standard_normal((2, 3, 2, 2))
    v = rng.standard_normal((2, 3, 2))
    layer = MultiChannelEquivariant(t, W, v)
    x = rng.standard_normal((4, 2))
    got = layer.forward(x)
    want = np.zeros((4, 3))
    for o in range(3):
        for i in range(2):
            e = EquivariantMap(t, W[i, o], v[i, o])
            want[:, o] += equivariant_forward(e, x[:, i])
    assert np.allclose(got, want, atol=1e-12)


def random_sizes(rng, m):
    # block sizes 1..6, with roughly a third of the blocks of size one
    return tuple(int(s) if rng.random() > 0.3 else 1 for s in rng.integers(1, 7, m))


def test_equivariant_forward_matches_block_formula_exactly():
    # the one-channel map written out with numpy primitives: block sums
    # mixed by W.T, broadcast per node, plus v times the node's own value
    rng = np.random.default_rng(11)
    for m in range(1, 7):
        for _ in range(30):
            sizes = random_sizes(rng, m)
            t = TypedNodeSet(sizes)
            W = rng.standard_normal((m, m))
            v = rng.standard_normal(m)
            c = rng.standard_normal(m)
            x = rng.standard_normal(t.n)
            sums = np.add.reduceat(x, np.cumsum((0,) + sizes[:-1]))
            want = np.repeat(W.T @ sums, sizes) + np.repeat(v, sizes) * x
            assert np.array_equal(equivariant_forward(EquivariantMap(t, W, v), x), want)
            assert np.array_equal(
                equivariant_forward(EquivariantMap(t, W, v, c), x),
                want + np.repeat(c, sizes),
            )


def per_node_reference(layer, x):
    # broadcast the identity weights to one (c_out, c_in) matrix per node
    # and contract each node's input channels with it
    sizes = layer.types.type_sizes
    sums = np.add.reduceat(x, np.cumsum((0,) + sizes[:-1]), axis=0)
    per_block = np.einsum("ioab,ai->bo", layer.W, sums)
    v_per_node = np.repeat(np.einsum("iob->boi", layer.v), sizes, axis=0)
    want = np.repeat(per_block, sizes, axis=0) + np.einsum("noi,ni->no", v_per_node, x)
    if layer.bias is not None:
        want += np.repeat(layer.bias.T, sizes, axis=0)
    return want


def random_layer(rng, sizes, c_in, c_out):
    m = len(sizes)
    return MultiChannelEquivariant(
        TypedNodeSet(sizes),
        rng.standard_normal((c_in, c_out, m, m)),
        rng.standard_normal((c_in, c_out, m)),
        rng.standard_normal((c_out, m)),
    )


def test_multichannel_matches_per_node_weight_formula():
    rng = np.random.default_rng(12)
    for m in list(range(1, 7)) * 5:
        sizes = random_sizes(rng, m)
        c_in, c_out = (int(c) for c in rng.integers(1, 5, 2))
        layer = random_layer(rng, sizes, c_in, c_out)
        x = rng.standard_normal((layer.types.n, c_in))
        assert np.allclose(layer.forward(x), per_node_reference(layer, x), rtol=0, atol=1e-12)


def test_multichannel_input_in_any_memory_layout():
    rng = np.random.default_rng(21)
    layer = random_layer(rng, (4, 1, 3), 3, 5)
    wide = rng.standard_normal((8, 6))
    for x in (np.asfortranarray(wide[:, :3]), wide[:, ::2]):
        assert not x.flags.c_contiguous
        want = per_node_reference(layer, np.array(x))
        assert np.allclose(layer.forward(x), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "sizes, c_in, c_out",
    [((1, 1, 1), 2, 3), ((1, 4, 1, 2), 3, 2), ((3, 1, 2), 1, 1), ((1,), 1, 1)],
)
def test_multichannel_single_node_blocks_and_single_channels(sizes, c_in, c_out):
    rng = np.random.default_rng(22)
    layer = random_layer(rng, sizes, c_in, c_out)
    x = rng.standard_normal((layer.types.n, c_in))
    assert np.allclose(layer.forward(x), per_node_reference(layer, x), rtol=0, atol=1e-12)


def test_multichannel_forward_leaves_its_operands_alone():
    rng = np.random.default_rng(23)
    layer = random_layer(rng, (2, 3), 4, 4)
    x = rng.standard_normal((5, 4))
    before = [a.copy() for a in (layer.W, layer.v, layer.bias, x)]
    y = layer.forward(x)
    assert not np.shares_memory(y, x)
    for a, b in zip((layer.W, layer.v, layer.bias, x), before):
        assert np.array_equal(a, b)
    assert np.array_equal(layer.forward(x), y)


def test_invariant_pool_matches_weighted_block_sums():
    rng = np.random.default_rng(24)
    t = TypedNodeSet((3, 1, 4))
    p = InvariantPool(t, rng.standard_normal(3))
    x = rng.standard_normal((t.n, 5))
    want = sum(w * x[block.start:block.stop].sum(axis=0) for w, block in zip(p.w, t.blocks()))
    got = invariant_forward(p, x)
    assert got.shape == (5,)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    one = invariant_forward(p, x[:, 0])
    assert isinstance(one, float)
    assert one == pytest.approx(want[0], rel=0, abs=1e-12)


def test_depth_zero_network_pools_each_channel():
    rng = np.random.default_rng(13)
    t = TypedNodeSet((3, 1, 2))
    pools = [InvariantPool(t, rng.standard_normal(3)) for _ in range(4)]
    net = InvariantNetwork(t, [], pools, Mlp([], []))
    x = rng.standard_normal((t.n, 4))
    want = [invariant_forward(pool, x[:, ch]) for ch, pool in enumerate(pools)]
    assert np.allclose(network_forward(net, x), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("bias", [False, True])
def test_network_invariance(activation, bias):
    rng = np.random.default_rng(17)
    t = TypedNodeSet((3, 2))
    elements = group_closure(young_generators(t))
    net = random_network(t, (1, 4, 4), 3, rng, activation=activation, bias=bias)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(t.n)
        fx = network_forward(net, x)
        for g in elements:
            gap = np.max(np.abs(network_forward(net, permute_vector(x, g)) - fx))
            worst = max(worst, float(gap))
    assert worst <= 1e-12


def test_network_zero_weights_is_constant():
    t = TypedNodeSet((2, 1))
    layer = MultiChannelEquivariant(
        t, np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2))
    )
    net = InvariantNetwork(
        t,
        [layer],
        [InvariantPool(t, np.zeros(2))],
        Mlp([np.zeros((2, 1))], [np.array([4.0, -1.0])]),
    )
    for x in [np.zeros(3), np.ones(3), np.array([3.0, -2.0, 1.0])]:
        assert np.array_equal(network_forward(net, x), [4.0, -1.0])


def test_depth_zero_network_with_identity_head():
    t = TypedNodeSet((2, 2))
    net = InvariantNetwork(t, [], [InvariantPool(t, [1.0, -1.0])], Mlp([], []))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(
        network_forward(net, x), [invariant_forward(net.pools[0], x)]
    )


def test_network_shape_errors_name_the_stage():
    t = TypedNodeSet((2, 1))
    mk = lambda ci, co: MultiChannelEquivariant(
        t, np.zeros((ci, co, 2, 2)), np.zeros((ci, co, 2))
    )
    with pytest.raises(ValueError, match="equivariant layer 1"):
        InvariantNetwork(
            t, [mk(1, 2), mk(3, 1)], [InvariantPool(t, np.zeros(2))], Mlp([], [])
        )
    with pytest.raises(ValueError, match="pools"):
        InvariantNetwork(t, [mk(1, 2)], [InvariantPool(t, np.zeros(2))], Mlp([], []))
    net = InvariantNetwork(
        t, [mk(2, 1)], [InvariantPool(t, np.zeros(2))], Mlp([], [])
    )
    with pytest.raises(ValueError, match="expected input"):
        network_forward(net, np.zeros((3, 5)))
    bad_head = InvariantNetwork(
        t,
        [mk(1, 1)],
        [InvariantPool(t, np.zeros(2))],
        Mlp([np.zeros((2, 3))], [np.zeros(2)]),
    )
    with pytest.raises(ValueError, match="head affine 0"):
        network_forward(bad_head, np.zeros(3))


@pytest.mark.parametrize(
    "activation, hidden",
    [("relu", [0.0, 1.0]), ("identity", [-2.0, 1.0]), ("sigmoid", [0.11920292202, 0.73105857863])],
)
def test_mlp_activates_between_its_affine_maps_only(activation, hidden):
    # x = (1, 3): the first map gives (1 - 3, 2 * 1 - 1) = (-2, 1); the
    # second reads the activated pair, and its output is not activated
    head = Mlp(
        [np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([[1.0, -3.0]])],
        [np.array([0.0, -1.0]), np.array([0.5])],
        activation,
    )
    expected = hidden[0] - 3.0 * hidden[1] + 0.5
    assert np.allclose(head.forward(np.array([1.0, 3.0])), [expected], rtol=0, atol=1e-10)


def test_weight_shape_validation():
    t = TypedNodeSet((2, 1))
    with pytest.raises(ValueError):
        EquivariantMap(t, np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        EquivariantMap(t, np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        MultiChannelEquivariant(t, np.zeros((1, 1, 2, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        Mlp([np.zeros((2, 2))], [])
    with pytest.raises(ValueError):
        Mlp([], [], activation="tanh3")


_T21 = TypedNodeSet((2, 1))
_OTHER = TypedNodeSet((1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        # a length-1 bias would broadcast to all three outputs
        (lambda: Mlp([np.ones((3, 2))], [np.ones(1)]),
         "head affine 0: bias must have shape (3,), got (1,)"),
        # a 1-row final map must not emit two outputs
        (lambda: Mlp([np.ones((3, 2)), np.ones((1, 3))], [np.ones(3), np.ones(2)]),
         "head affine 1: bias must have shape (1,), got (2,)"),
        (lambda: Mlp([np.ones(3)], [np.ones(3)]),
         "head affine 0: weight must be 2-D, got shape (3,)"),
        (lambda: Mlp([np.ones((1, 2, 2))], [np.ones(1)]),
         "head affine 0: weight must be 2-D, got shape (1, 2, 2)"),
        (lambda: EquivariantMap(_T21, np.zeros((2, 2)), np.zeros(2), np.zeros(3)),
         "c must have shape (2,)"),
        (lambda: equivariant_forward(EquivariantMap(_T21, np.zeros((2, 2)), np.zeros(2)),
                                     np.zeros(4)),
         "expected shape (3,), got (4,)"),
        (lambda: MultiChannelEquivariant(_T21, np.zeros((2, 2)), np.zeros((1, 1, 2))),
         "W must have shape (c_in, c_out, 2, 2)"),
        (lambda: MultiChannelEquivariant(_T21, np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2)),
                                         np.zeros((2, 2))),
         "bias must have shape (c_out, m)"),
        (lambda: MultiChannelEquivariant(_T21, np.zeros((2, 1, 2, 2)), np.zeros((2, 1, 2)))
         .forward(np.zeros((3, 1))),
         "expected shape (3, 2), got (3, 1)"),
        (lambda: InvariantNetwork(_T21, [], [], Mlp([], []), activation="tanh3"),
         "unknown activation 'tanh3'"),
        (lambda: InvariantNetwork(
            _T21, [MultiChannelEquivariant(_OTHER, np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2)))],
            [InvariantPool(_T21, np.zeros(2))], Mlp([], [])),
         "equivariant layer 0: node set mismatch"),
        (lambda: InvariantNetwork(_T21, [], [InvariantPool(_OTHER, np.zeros(2))], Mlp([], [])),
         "pool 0: node set mismatch"),
    ],
    ids=[
        "mlp-broadcast-bias", "mlp-wide-final-bias", "mlp-vector-weight", "mlp-3d-weight",
        "map-c", "map-input", "multi-W", "multi-bias", "multi-input", "network-activation",
        "network-layer-types", "network-pool-types",
    ],
)
def test_layers_refuse_what_does_not_fit(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
