"""Learnable linear layers respecting typed node permutations.

For m node types the invariant functionals on node vectors are spanned
by the m per-block sums, and the equivariant maps by the m*m block
broadcast patterns plus the m block-diagonal identities.  The layer
classes here carry exactly those weights; stacking equivariant layers,
a per-channel invariant pool, and a dense head gives a network whose
output is unchanged under every typed permutation of its input rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .permgroup import TypedNodeSet


ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "identity": lambda z: z,
}


def _block_sums(t: TypedNodeSet, x: np.ndarray) -> np.ndarray:
    """Per-type sums; shape (m,) for vectors, (m, c) for channel stacks."""
    return np.add.reduceat(x, t._block_starts, axis=0)


def _per_node(t: TypedNodeSet, per_block: np.ndarray) -> np.ndarray:
    """Broadcast a per-block quantity to one entry per node."""
    return np.repeat(per_block, t.type_sizes, axis=0)


def _equivariant(
    t: TypedNodeSet, W: np.ndarray, v: np.ndarray, x: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """The equivariant map on a channel stack, shared by every layer.

    ``x`` is (n, c_in), ``W`` (c_in, c_out, m, m), ``v`` (c_in, c_out, m) and
    the optional ``bias`` (c_out, m); output channel o at a node of block b is
    sum_{i,a} W[i, o, a, b] * blocksum_a(x[:, i]) + sum_i v[i, o, b] * x[node, i]
    + bias[o, b].  The block sums are mixed in one matmul, and each block's
    identity term is written straight into the output before its column of
    the mix is added, so no per-node copy of the weights is built.
    """
    c_in, c_out, m, _ = W.shape
    # row a*c_in + i of the reshaped W pairs with sums[a, i]; column o*m + b is mix[o, b]
    mix = (
        _block_sums(t, x).reshape(m * c_in)
        @ W.transpose(2, 0, 1, 3).reshape(m * c_in, c_out * m)
    ).reshape(c_out, m)
    if bias is not None:
        mix += bias
    y = np.empty((x.shape[0], c_out))
    for b, block in enumerate(t.blocks()):
        rows = slice(block.start, block.stop)
        np.matmul(x[rows], v[:, :, b], out=y[rows])
        y[rows] += mix[:, b]
    return y


@dataclass
class InvariantPool:
    """Weighted sum pool: one weight per node type."""

    types: TypedNodeSet
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (self.types.m,):
            raise ValueError(f"pool weights must have shape ({self.types.m},)")


def invariant_forward(p: InvariantPool, x: np.ndarray) -> float | np.ndarray:
    """Apply the pool; a (n, c) input is pooled per channel to shape (c,)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("input must be a vector or a (n, channels) stack")
    if x.shape[0] != p.types.n:
        raise ValueError(f"expected {p.types.n} rows, got {x.shape}")
    sums = _block_sums(p.types, x)
    out = p.w @ sums
    return float(out) if x.ndim == 1 else out


@dataclass
class EquivariantMap:
    """Single-channel equivariant map on node vectors.

    ``W[i, j]`` broadcasts the block-i sum to every node of block j,
    ``v[i]`` scales the identity on block i, and the optional ``c[i]``
    adds a per-block constant.  These weights span exactly the linear
    maps commuting with all typed permutations (bias off).
    """

    types: TypedNodeSet
    W: np.ndarray
    v: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        m = self.types.m
        self.W = np.asarray(self.W, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.W.shape != (m, m):
            raise ValueError(f"W must have shape ({m}, {m})")
        if self.v.shape != (m,):
            raise ValueError(f"v must have shape ({m},)")
        if self.c is not None:
            self.c = np.asarray(self.c, dtype=float)
            if self.c.shape != (m,):
                raise ValueError(f"c must have shape ({m},)")


def equivariant_forward(e: EquivariantMap, x: np.ndarray) -> np.ndarray:
    """y[node in block j] = sum_i W[i, j] * blocksum_i(x) + v[j] * x[node] (+ c[j])."""
    x = np.asarray(x, dtype=float)
    if x.shape != (e.types.n,):
        raise ValueError(f"expected shape ({e.types.n},), got {x.shape}")
    y = _equivariant(e.types, e.W[None, None], e.v[None, None], x[:, None])[:, 0]
    if e.c is not None:
        y = y + _per_node(e.types, e.c)
    return y


def jacobian(e: EquivariantMap) -> np.ndarray:
    """Analytic Jacobian: sum_ij W[i,j] 1_{K_j} 1_{K_i}^T + sum_i v[i] I_{K_i}."""
    t = e.types
    return _per_node(t, _per_node(t, e.W).T) + np.diag(_per_node(t, e.v))


def finite_diff_jacobian(
    fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference Jacobian of a vector map, one column per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        cols.append((np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2 * step))
    return np.stack(cols, axis=-1)


def finite_diff_check(e: EquivariantMap, x: np.ndarray, step: float = 1e-5) -> float:
    """Max entrywise gap between the analytic and central-difference Jacobian."""
    fd = finite_diff_jacobian(lambda z: equivariant_forward(e, z), x, step)
    return float(np.max(np.abs(fd - jacobian(e))))


@dataclass
class MultiChannelEquivariant:
    """Equivariant layer mixing channels: one (W, v) pair per channel pair.

    ``W`` has shape (c_in, c_out, m, m) and ``v`` shape (c_in, c_out, m);
    output channel o sums the single-channel maps applied to every input
    channel.  The optional bias adds a per-(channel, block) constant,
    which keeps the layer equivariant.
    """

    types: TypedNodeSet
    W: np.ndarray
    v: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        m = self.types.m
        self.W = np.asarray(self.W, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.W.ndim != 4 or self.W.shape[2:] != (m, m):
            raise ValueError(f"W must have shape (c_in, c_out, {m}, {m})")
        if self.v.shape != self.W.shape[:2] + (m,):
            raise ValueError("v must have shape (c_in, c_out, m)")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=float)
            if self.bias.shape != (self.W.shape[1], m):
                raise ValueError("bias must have shape (c_out, m)")

    @property
    def c_in(self) -> int:
        return self.W.shape[0]

    @property
    def c_out(self) -> int:
        return self.W.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.types.n, self.c_in):
            raise ValueError(
                f"expected shape ({self.types.n}, {self.c_in}), got {x.shape}"
            )
        return _equivariant(self.types, self.W, self.v, x, self.bias)


@dataclass
class Mlp:
    """Plain dense head: affine maps with an activation between them."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("need one bias per weight matrix")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ValueError(f"head affine {i}: weight must be 2-D, got shape {w.shape}")
            if b.shape != w.shape[:1]:
                raise ValueError(
                    f"head affine {i}: bias must have shape {w.shape[:1]}, got {b.shape}"
                )

    def forward(self, x: np.ndarray) -> np.ndarray:
        act = ACTIVATIONS[self.activation]
        out = np.asarray(x, dtype=float)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if out.shape[-1] != w.shape[1]:
                raise ValueError(
                    f"head affine {i}: expected input width {w.shape[1]}, got {out.shape[-1]}"
                )
            out = out @ w.T + b
            if i + 1 < len(self.weights):
                out = act(out)
        return out


@dataclass
class InvariantNetwork:
    """Equivariant stack, per-channel invariant pools, then a dense head.

    The activation is applied between consecutive equivariant layers (not
    after the last one).  Pools are listed per channel of the final
    equivariant width; their outputs feed the head in channel order.
    """

    types: TypedNodeSet
    layers: list[MultiChannelEquivariant]
    pools: list[InvariantPool]
    head: Mlp
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        for i, layer in enumerate(self.layers):
            if layer.types != self.types:
                raise ValueError(f"equivariant layer {i}: node set mismatch")
            if i > 0 and layer.c_in != self.layers[i - 1].c_out:
                raise ValueError(
                    f"equivariant layer {i}: expects {layer.c_in} channels, "
                    f"previous layer emits {self.layers[i - 1].c_out}"
                )
        last_width = self.layers[-1].c_out if self.layers else None
        if last_width is not None and len(self.pools) != last_width:
            raise ValueError(
                f"need {last_width} pools (one per channel), got {len(self.pools)}"
            )
        for i, pool in enumerate(self.pools):
            if pool.types != self.types:
                raise ValueError(f"pool {i}: node set mismatch")

    @property
    def in_channels(self) -> int:
        return self.layers[0].c_in if self.layers else len(self.pools)


def network_forward(net: InvariantNetwork, x: np.ndarray) -> np.ndarray:
    """Full forward pass; accepts (n,) as shorthand for one channel."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != (net.types.n, net.in_channels):
        raise ValueError(
            f"expected input of shape ({net.types.n}, {net.in_channels}), got {x.shape}"
        )
    act = ACTIVATIONS[net.activation]
    out = x
    for i, layer in enumerate(net.layers):
        out = layer.forward(out)
        if i + 1 < len(net.layers):
            out = act(out)
    # (channels, m); the reshape keeps the shape when there are no pools
    weights = np.array([pool.w for pool in net.pools]).reshape(-1, net.types.m)
    pooled = np.einsum("ca,ac->c", weights, _block_sums(net.types, out))
    return net.head.forward(pooled)


def random_network(
    types: TypedNodeSet,
    widths: Sequence[int],
    head_out: int,
    rng: np.random.Generator,
    activation: str = "relu",
    bias: bool = False,
) -> InvariantNetwork:
    """A random small network, mostly for property tests and demos."""
    m = types.m
    layers = []
    for c_in, c_out in zip(widths[:-1], widths[1:]):
        layers.append(
            MultiChannelEquivariant(
                types,
                rng.standard_normal((c_in, c_out, m, m)),
                rng.standard_normal((c_in, c_out, m)),
                rng.standard_normal((c_out, m)) if bias else None,
            )
        )
    pools = [
        InvariantPool(types, rng.standard_normal(m)) for _ in range(widths[-1])
    ]
    head = Mlp(
        [rng.standard_normal((head_out, widths[-1]))],
        [rng.standard_normal(head_out)],
    )
    return InvariantNetwork(types, layers, pools, head, activation)


def selftest() -> None:
    """Fast internal consistency checks (used by the CLI --selftest flag)."""
    from .permgroup import group_closure, young_generators

    rng = np.random.default_rng(0)
    t = TypedNodeSet((3, 2))
    elements = group_closure(young_generators(t))
    e = EquivariantMap(t, rng.standard_normal((2, 2)), rng.standard_normal(2))
    net = random_network(t, (1, 3, 2), 2, rng)
    for _ in range(10):
        x = rng.standard_normal(t.n)
        for g in elements:
            px = x[np.array(g.inverse().image)]
            assert np.max(np.abs(equivariant_forward(e, px)
                                 - equivariant_forward(e, x)[np.array(g.inverse().image)])) < 1e-10
            fx = network_forward(net, x)
            fpx = network_forward(net, px)
            assert np.max(np.abs(fx - fpx)) < 1e-10
        assert finite_diff_check(e, x) < 1e-6
    # the multichannel kernel against the per-node broadcast of its weights
    t = TypedNodeSet((3, 1, 2))
    layer = MultiChannelEquivariant(
        t,
        rng.standard_normal((2, 3, 3, 3)),
        rng.standard_normal((2, 3, 3)),
        rng.standard_normal((3, 3)),
    )
    x = rng.standard_normal((t.n, 2))
    sums = np.stack([x[block.start:block.stop].sum(axis=0) for block in t.blocks()])
    per_block = np.einsum("ioab,ai->bo", layer.W, sums) + layer.bias.T
    v_per_node = _per_node(t, layer.v.transpose(2, 0, 1))
    want = _per_node(t, per_block) + np.einsum("ni,nio->no", x, v_per_node)
    assert np.max(np.abs(layer.forward(x) - want)) < 1e-12
