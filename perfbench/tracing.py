"""In-memory span tracing installed around the package's public functions.

The wrappers live here, in the benchmark, not in the package: ``install``
swaps each named function (or method) for a wrapper in every loaded
``invlayers`` module that holds a reference to it, and ``uninstall`` puts
the originals back.  A span records its name, start, end, parent span and
request id; spans stay in memory until ``write_spans`` is called at the
end of a run.  Wrappers record nothing while ``Tracer.request`` is None
(the benchmark clears it while it checks outputs) or when called from a
forked pool worker, so only the traced process's own calls are counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, REQUEST, FAILED = range(6)
# Request id of spans recorded during set-up; work counters skip them.
SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """``name`` is a string or a function of (args, kwargs) giving one;
        ``count(counts, args, kwargs, result)`` adds work counters after the
        span has closed, so counting is not timed as the layer's work, and
        only for spans of measured requests."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            stack = tracer._stack
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None and tracer.request != SETUP:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute path, span name, counter)`` target.

        A dotted attribute path such as ``"Mlp.forward"`` wraps a method on
        its class; a plain name is replaced in its home module and in every
        other ``invlayers`` module that imported it by name.
        """
        for module, path, name, count in targets:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, count)
            holders = [owner]
            if not outer:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if key.startswith("invlayers") and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._installed.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def summary(self, request_filter) -> dict[str, dict]:
        """Per span name: calls, failed calls, inclusive and self seconds,
        over the spans whose request id passes ``request_filter``.  Self
        time is a span's duration minus that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            if not request_filter(span[REQUEST]):
                continue
            entry = out.setdefault(
                span[NAME], {"calls": 0, "failed": 0, "total_s": 0.0, "busy_s": 0.0}
            )
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["failed"] += int(span[FAILED])
            entry["total_s"] += duration
            entry["busy_s"] += duration - child_time[idx]
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, request."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span[:FAILED]) + "\n")


def _generator_degrees_span(args, kwargs) -> str:
    return "invariant_ring.generator_degrees." + kwargs.get("arithmetic", "exact")


def _count_generator_degrees(counts, args, kwargs, result) -> None:
    counts["invariant_ring.generator_degrees.orbits"] += sum(result.dims)
    counts["invariant_ring.generator_degrees.generators"] += sum(
        c for _, c in result.new_by_degree
    )


def _count_support_tuples(counts, args, kwargs, result) -> None:
    counts["tensor_basis.build_full_basis.support_tuples"] += sum(
        b.tensor.size for b in result
    )


def network_cost(net, rows: int) -> tuple[int, int]:
    """Floating-point operations and bytes moved by one ``network_forward``
    call, computed from array shapes (not measured): each array an
    operation reads or writes is counted once, at 8 bytes per element."""
    m = net.types.m
    flops = 0
    elems = 0
    for i, layer in enumerate(net.layers):
        ci, co = layer.c_in, layer.c_out
        # block sums, block mixing, broadcast of per-node identity weights
        # (materialised as rows x c_out x c_in), identity contraction, add
        flops += rows * ci + 2 * ci * co * m * m + 2 * rows * co * ci + rows * co
        elems += rows * ci + ci * co * m * m + rows * co
        elems += ci * co * m + 2 * rows * co * ci + rows * ci + 3 * rows * co
        if layer.bias is not None:
            flops += rows * co
            elems += 3 * rows * co
        if i + 1 < len(net.layers):
            flops += rows * co
            elems += 2 * rows * co
    for _ in net.pools:
        flops += rows + 2 * m
        elems += rows + 2 * m
    for w in net.head.weights:
        flops += 2 * w.size
        elems += w.size + w.shape[0] + w.shape[1]
    return flops, 8 * elems


def _count_network(counts, args, kwargs, result) -> None:
    net, x = args[0], args[1]
    flops, nbytes = network_cost(net, len(x))
    counts["layers.network_forward.flops_computed"] += flops
    counts["layers.network_forward.bytes_computed"] += nbytes


def targets():
    """The public functions the benchmark times, by module."""
    from invlayers import (
        combinat,
        cyclic,
        graphs,
        invariant_ring,
        layers,
        permgroup,
        tensor_basis,
        zerosum,
    )

    plain = {
        graphs: ["enumerate_graphs", "automorphism_group", "canonical_graph6"],
        permgroup: [
            "reduce_generators",
            "group_closure",
            "orbit_count_on_tuples",
            "burnside_count",
        ],
        invariant_ring: ["check_conjectures", "sweep"],
        layers: ["network_forward", "invariant_forward", "equivariant_forward", "jacobian"],
        cyclic: ["dft2", "cyclic_basis"],
        tensor_basis: [
            "equivariant_basis",
            "decompose",
            "reconstruct",
            "serialize_basis",
            "load_basis",
        ],
        combinat: ["enumerate_colored_partitions", "gen_bell"],
        zerosum: [
            "davenport_constant",
            "decompose_invariant_monomial",
            "max_generator_degree_translation",
        ],
    }
    out = []
    for module, names in plain.items():
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in names:
            count = _count_network if attr == "network_forward" else None
            out.append((module, attr, f"{short}.{attr}", count))
    out += [
        (invariant_ring, "generator_degrees", _generator_degrees_span, _count_generator_degrees),
        (tensor_basis, "build_full_basis", "tensor_basis.build_full_basis", _count_support_tuples),
        (layers, "MultiChannelEquivariant.forward", "layers.MultiChannelEquivariant.forward", None),
        (layers, "Mlp.forward", "layers.Mlp.forward", None),
    ]
    return out
