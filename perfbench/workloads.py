"""The benchmark's four workloads: inputs from a seed, requests, checks.

Each workload is built from ``(seed, tiny)`` during set-up and then offers

* ``requests()``: the request stream, consumed by one closed-loop client;
* ``execute(request)``: the call into the package, the only timed part;
* ``check(request, output)``: True when the output is correct, run outside
  the timed region;
* ``items(request)``: the units of work a request completes (classes
  certified for ``sweep_pool``, 1 elsewhere);
* ``kind(request)``: the request's kind, under which the run reports
  shares of requests and of service time;
* ``can_stop(done)``: whether the loop may stop after ``done`` requests
  once ``--seconds`` of service time have passed (never, for the
  fixed-size runs of ``sweep`` and ``sweep_pool``);
* ``window``: the number of requests of fixed composition over which
  throughput and median latency are taken before the median across
  windows is reported (None: the whole run is one window);
* optionally ``prepare()``: untimed work after set-up and before the first
  request.

Every call that takes a budget gets an explicit ``Budgets()`` so that
``INVLAYERS_*`` environment variables cannot change a workload.
"""

from __future__ import annotations

import io
import os
import random
import time

import numpy as np

from invlayers import Budgets
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

BUDGET = Budgets()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------- sweep

# n=6 classes are stratified by automorphism-group signature (group order,
# vertex-orbit sizes): the group fixes the invariant ring, and with it
# nearly all of a class's cost.  From each of the eleven signatures whose
# classes certify in about 0.1 s the seed draws half the classes (rounded
# up), 48 in all, so every seed draws a similar mix; with the n <= 5
# classes above 50 ms they put the run's median request among some sixty
# requests of 50 to 300 ms, where per-request timing noise averages out.
# The four signatures whose classes take about 1 s are represented by their
# first four classes in graph6 order: costs within these signatures differ
# by up to a factor of two, so fixing them keeps a run's cost from swinging
# with the draw.  Those 16 fixed classes are the 16 slowest requests of the
# list, more than the 13 that ``latency_tail_ms`` needs at and beyond its
# percentile (p90 of 116 requests), so the tail is the modular path on
# these classes.  The eight heavy-tail signatures take 3 to 15 s a class
# and are left out so that a run stays within its time limit.
CHEAP, MODERATE = "n6 cheap", "n6 moderate"
SIX_STRATA = [
    (CHEAP, (1, (1, 1, 1, 1, 1, 1))),
    (CHEAP, (2, (2, 1, 1, 1, 1))),
    (CHEAP, (720, (6,))),
    (MODERATE, (2, (2, 2, 1, 1))),
    (CHEAP, (4, (2, 2, 1, 1))),
    (CHEAP, (48, (4, 2))),
    (MODERATE, (16, (4, 2))),
    (CHEAP, (120, (5, 1))),
    (CHEAP, (6, (3, 1, 1, 1))),
    (MODERATE, (4, (2, 2, 2))),
    (CHEAP, (8, (2, 2, 2))),
    (CHEAP, (36, (3, 3))),
    (MODERATE, (8, (4, 1, 1))),
    (CHEAP, (12, (3, 2, 1))),
    (CHEAP, (24, (4, 1, 1))),
]
MODERATE_PER_STRATUM = 4
TINY_STRATA = SIX_STRATA[:3]

# K6 warms the degree-by-degree monomial tables for n=6 during set-up; it
# is left out of the sample so that no timed request repeats it.
WARMUP_GRAPH6 = "E~~w"


def signature(g) -> tuple[int, tuple[int, ...]]:
    aut = graphs.automorphism_group(g)
    sizes = sorted((len(o) for o in permgroup.vertex_orbits(aut)), reverse=True)
    return len(aut.generators), tuple(sizes)


class Sweep:
    """One request is one ``check_conjectures`` call.

    ``graph_list`` is every class with n <= 5 at cap "full" in exact
    arithmetic, in seeded order, spread evenly between the n=6 sample at
    cap "2n" in modular arithmetic.  A run is this list, once, whatever
    ``--seconds`` says: the work measured does not depend on how fast the
    program is, and no class repeats.  A request also carries its
    stratum, the kind under which the run's ``info`` line reports shares of
    service time.
    """

    window = None

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        small_n = 4 if tiny else 5
        self.small = [g for n in range(1, small_n + 1) for g in graphs.enumerate_graphs(n)]
        strata: dict = {}
        warmup = None
        for g in graphs.enumerate_graphs(6):
            if graphs.write_graph6(g) == WARMUP_GRAPH6:
                warmup = g
                continue
            strata.setdefault(signature(g), []).append(g)
        chosen = TINY_STRATA if tiny else SIX_STRATA
        counts = {}
        for kind, sig in chosen:
            if kind == CHEAP:
                rng.shuffle(strata[sig])
                counts[sig] = 1 if tiny else (len(strata[sig]) + 1) // 2
            else:
                counts[sig] = MODERATE_PER_STRATUM
        # Rounds interleave group sizes.
        six = [
            (strata[sig][i], kind)
            for i in range(max(counts.values()))
            for kind, sig in chosen
            if i < counts[sig]
        ]
        order = list(self.small)
        rng.shuffle(order)
        self.graph_list = []
        for i, (g, kind) in enumerate(six):
            chunk = order[i * len(order) // len(six) : (i + 1) * len(order) // len(six)]
            self.graph_list += [(h, "full", "exact", "n<=5") for h in chunk]
            self.graph_list.append((g, "2n", "modular", kind))
        invariant_ring.check_conjectures(warmup, "2n", arithmetic="modular", budget=BUDGET)

    def requests(self):
        return iter(self.graph_list)

    def can_stop(self, done: int) -> bool:
        return False

    def kind(self, request) -> str:
        return request[3]

    def execute(self, request):
        g, cap, arithmetic, _ = request
        return invariant_ring.check_conjectures(g, cap, arithmetic=arithmetic, budget=BUDGET)

    def items(self, request) -> int:
        return 1

    def check(self, request, report) -> bool:
        return report_ok(request[0], report)


def report_ok(g, r) -> bool:
    n = g.n
    if r.graph6 != graphs.write_graph6(g) or r.n != n:
        return False
    if n <= 5:
        full = invariant_ring.full_certification_cap(n)
        return r.verified_up_to == full and r.a_verdict == r.b_verdict == "true"
    return (
        r.verified_up_to == 2 * n
        and "false" not in (r.a_verdict, r.b_verdict)
        and r.beta_proxy <= n
        and r.beta_proxy <= r.max_orbit
    )


class SweepPool:
    """One request is one ``invariant_ring.sweep(..., jobs=nproc)`` call
    over the graph list of ``Sweep`` for the same seed, one call per cap
    policy.  A run is ``CYCLES`` cycles of both calls, whatever
    ``--seconds`` says.  Each pool report must equal the serial
    ``check_conjectures`` report for the same class.  ``prepare`` computes
    those once, after set-up and before the first timed call, so every
    cycle forks its workers from the same warm parent; the serial pass's
    time is kept as the base of the parallel efficiency."""

    window = 2
    CYCLES = 2

    def __init__(self, seed: int, tiny: bool = False):
        self.jobs = nproc()
        base = Sweep(seed, tiny)
        self.calls = [
            ("full", "exact", [g for g, cap, _, _ in base.graph_list if cap == "full"]),
            ("2n", "modular", [g for g, cap, _, _ in base.graph_list if cap == "2n"]),
        ]
        self.serial: dict[str, tuple] = {}
        self.serial_ok = True
        self.serial_s = 0.0
        invariant_ring.sweep(
            6, "full", arithmetic="exact", budget=BUDGET, jobs=self.jobs, graphs=base.small[:2]
        )

    def requests(self):
        return iter(self.calls * self.CYCLES)

    def can_stop(self, done: int) -> bool:
        return False

    def kind(self, request) -> str:
        return request[0]

    def execute(self, request):
        cap, arithmetic, glist = request
        return invariant_ring.sweep(
            6, cap, arithmetic=arithmetic, budget=BUDGET, jobs=self.jobs, graphs=glist
        )

    def items(self, request) -> int:
        return len(request[2])

    def prepare(self) -> None:
        for cap, arithmetic, glist in self.calls:
            start = time.perf_counter()
            reports = [
                invariant_ring.check_conjectures(g, cap, arithmetic=arithmetic, budget=BUDGET)
                for g in glist
            ]
            self.serial_s += time.perf_counter() - start
            self.serial[cap] = tuple(sorted(reports, key=lambda r: (r.n, r.graph6)))
            self.serial_ok &= all(report_ok(g, r) for g, r in zip(glist, reports))

    def check(self, request, result) -> bool:
        if not self.serial:
            self.prepare()
        return self.serial_ok and result.reports == self.serial[request[0]]


# --------------------------------------------------------------------- serve

# Per block of 100 requests.  Network sizes: small is overhead-bound, large
# broadcasts per-node weights of 4000 x 32 x 32 doubles (about 32 MB) in
# every equivariant layer, far beyond the L2 cache.  The counts are an
# assumption, not taken from recorded traffic: most requests are networks,
# and the large network is rare enough that no kind takes half of the
# service time.  On a 2-core x86 VM with the package as first written, the
# shares of service time were about: net_large 45 %, net_medium 25 %,
# net_small 22 %, jacobian 5 %, dft2 3 %, the two single layers 1 %.  So
# throughput_rps reflects all three network sizes, latency_p50_ms the small
# network (its requests span the 50th percentile), and latency_tail_ms the
# large one.  Each run's ``info`` line prints the measured shares.
SERVE_MIX = {
    "net_small": 40,
    "net_medium": 20,
    "net_large": 1,
    "equivariant": 10,
    "invariant": 10,
    "jacobian": 9,
    "dft2": 10,
}
INPUTS_PER_KIND = 8
CHECK_SHARE = 0.125
INVARIANCE_TOL = 1e-9


class Serve:
    """A seeded stream of single-input inference requests against models
    built during set-up.  A seeded eighth of the requests are checked for
    invariance (or equivariance) under a seeded typed permutation; every
    output is checked for shape and finiteness."""

    window = sum(SERVE_MIX.values())

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])
        rng = self.rng
        large = (200, 120, 80) if tiny else (2000, 1200, 800)
        specs = {
            "net_small": ((5, 4, 3), (1, 8, 8)),
            "net_medium": ((100, 50, 25), (4, 16, 16)),
            "net_large": (large, (32, 32, 32)),
        }
        self.models = {}
        self.inputs = {}
        for kind, (sizes, widths) in specs.items():
            t = permgroup.TypedNodeSet(sizes)
            self.models[kind] = layers.random_network(t, widths, 4, rng, bias=True)
            self.inputs[kind] = [
                rng.standard_normal((t.n, widths[0])) for _ in range(INPUTS_PER_KIND)
            ]
        t_eq = permgroup.TypedNodeSet((20, 12, 8))
        self.models["equivariant"] = layers.EquivariantMap(
            t_eq, rng.standard_normal((3, 3)), rng.standard_normal(3), rng.standard_normal(3)
        )
        self.inputs["equivariant"] = [rng.standard_normal(t_eq.n) for _ in range(INPUTS_PER_KIND)]
        t_inv = permgroup.TypedNodeSet((100, 50, 25))
        self.models["invariant"] = layers.InvariantPool(t_inv, rng.standard_normal(3))
        self.inputs["invariant"] = [
            rng.standard_normal((t_inv.n, 16)) for _ in range(INPUTS_PER_KIND)
        ]
        t_jac = permgroup.TypedNodeSet((20, 12, 8))
        self.models["jacobian"] = [
            layers.EquivariantMap(t_jac, rng.standard_normal((3, 3)), rng.standard_normal(3))
            for _ in range(INPUTS_PER_KIND)
        ]
        self.inputs["jacobian"] = list(range(INPUTS_PER_KIND))
        self.inputs["dft2"] = [rng.standard_normal((32, 32)) for _ in range(INPUTS_PER_KIND)]
        self.block = [kind for kind, count in SERVE_MIX.items() for _ in range(count)]
        for kind in SERVE_MIX:
            self.execute((kind, 0, False))

    def requests(self):
        rng = self.rng
        while True:
            order = rng.permutation(len(self.block))
            picks = rng.integers(0, INPUTS_PER_KIND, len(order))
            sampled = rng.random(len(order)) < CHECK_SHARE
            for pos, idx, check in zip(order, picks, sampled):
                yield self.block[pos], int(idx), bool(check)

    def execute(self, request):
        kind, idx, _ = request
        model = self.models.get(kind)
        x = self.inputs[kind][idx]
        if kind.startswith("net_"):
            return layers.network_forward(model, x)
        if kind == "equivariant":
            return layers.equivariant_forward(model, x)
        if kind == "invariant":
            return layers.invariant_forward(model, x)
        if kind == "jacobian":
            return layers.jacobian(model[idx])
        return cyclic.dft2(x)

    def can_stop(self, done: int) -> bool:
        return done % self.window == 0

    def kind(self, request) -> str:
        return request[0]

    def items(self, request) -> int:
        return 1

    def _typed_permutation(self, types) -> np.ndarray:
        perm = np.arange(types.n)
        for block in types.blocks():
            perm[block.start : block.stop] = block.start + self.check_rng.permutation(len(block))
        return perm

    def check(self, request, out) -> bool:
        kind, idx, sampled = request
        out = np.asarray(out)
        if not np.all(np.isfinite(out)):
            return False
        model = self.models.get(kind)
        x = self.inputs[kind][idx]
        if kind.startswith("net_"):
            if out.shape != (4,):
                return False
            if sampled:
                perm = self._typed_permutation(model.types)
                return close(layers.network_forward(model, x[perm]), out)
        elif kind == "equivariant":
            if out.shape != x.shape:
                return False
            if sampled:
                perm = self._typed_permutation(model.types)
                return close(layers.equivariant_forward(model, x[perm]), out[perm])
        elif kind == "invariant":
            if out.shape != (x.shape[1],):
                return False
            if sampled:
                perm = self._typed_permutation(model.types)
                return close(layers.invariant_forward(model, x[perm]), out)
        elif kind == "jacobian":
            e = model[idx]
            if out.shape != (e.types.n, e.types.n):
                return False
            if sampled:
                perm = self._typed_permutation(e.types)
                return close(out[np.ix_(perm, perm)], out)
        else:
            if out.shape != x.shape:
                return False
            if sampled:
                d = x.shape[0]
                p, q = (int(v) for v in self.check_rng.integers(0, d, 2))
                shifted = cyclic.dft2(cyclic.translate(x, p, q))
                return close(shifted, cyclic.translation_phases(d, p, q) * out)
        return True


def close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= INVARIANCE_TOL * scale


# --------------------------------------------------------------------- exact

# Requests per block of 200, by family.  Within a family the block holds
# each parameter set in proportion to 1/rank (Zipf-like, rank = list
# order), so every block has the same mix; a family whose requests carry
# data also draws the payload index Zipf-like per request.  A key is the
# family, its parameters and the payload index: equal keys are equal
# requests.  The counts are an assumption, not taken from recorded traffic.
# On a 2-core x86 VM with the package as first written, ``davenport`` and
# ``translation_degree`` (12 % of requests) took 55 % of the service time,
# most of it in their d=4 requests (2 % of requests), which set
# latency_tail_ms (p99 falls among them); ``basis``, ``orbits``,
# ``roundtrip`` and the two other basis families took 40 %.  Each run's
# ``info`` line prints the measured shares.
EXACT_BLOCK = {
    "basis": 30,
    "equivariant_basis": 16,
    "decompose": 30,
    "roundtrip": 16,
    "orbits": 24,
    "cyclic_basis": 20,
    "gen_bell": 20,
    "davenport": 12,
    "monomial": 20,
    "translation_degree": 12,
}
BASIS_KEYS = [(2, (3, 2)), (3, (2, 2)), (3, (3, 2)), (2, (5, 4, 3)), (3, (2, 2, 1)), (4, (2, 2)), (4, (3, 2))]
EQUIVARIANT_KEYS = [(1, 1, (3, 2)), (1, 2, (2, 2)), (2, 1, (3, 2)), (2, 2, (2, 2))]
DECOMPOSE_BASES = [(2, (3, 2)), (3, (2, 2)), (3, (3, 2))]
ROUNDTRIP_KEYS = [(2, (3, 2)), (3, (2, 2)), (3, (3, 2))]
ORBIT_KEYS = [
    ("young", (3, 2), 3),
    ("cyclic", 7, 3),
    ("translation", 3, 3),
    ("young", (3, 2), 4),
    ("young", (4, 3), 3),
    ("translation", 4, 3),
]
CYCLIC_KEYS = [(5, 3), (7, 3), (4, 4), (6, 3)]
GEN_BELL_KEYS = [(2, 4), (3, 5), (4, 6), (2, 7), (5, 5), (3, 8)]
DAVENPORT_KEYS = [2, 3, 4]
MONOMIAL_DEGREES = {3: 12, 4: 20, 5: 30}
PAYLOAD_FAMILIES = ("decompose", "monomial")
PAYLOADS = 6


def zipf_weights(count: int) -> list[float]:
    return [1.0 / (rank + 1) for rank in range(count)]


def allocate(total: int, weights) -> list[int]:
    """Split ``total`` in proportion to ``weights`` (largest remainder)."""
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _spec(kind, arg):
    if kind == "young":
        return permgroup.young_generators(permgroup.TypedNodeSet(arg))
    if kind == "cyclic":
        return permgroup.cyclic_generators(arg)
    return permgroup.translation_generators(arg)


def _zero_sum_sequence(rng: random.Random, d: int, degree: int):
    elems = [(rng.randrange(d), rng.randrange(d)) for _ in range(degree - 1)]
    p = sum(a for a, _ in elems) % d
    q = sum(b for _, b in elems) % d
    elems.append(((-p) % d, (-q) % d))
    return zerosum.GroupSequence.from_elements(d, elems)


class Exact:
    """A seeded, Zipf-like mix of exact-enumeration requests in blocks of
    fixed composition; some requests repeat earlier ones, and the number
    of repeats is recorded."""

    window = sum(EXACT_BLOCK.values())

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        nprng = np.random.default_rng(seed)
        cut = (lambda keys: keys[:2]) if tiny else (lambda keys: keys)
        params = {
            "basis": cut(BASIS_KEYS),
            "equivariant_basis": cut(EQUIVARIANT_KEYS),
            "decompose": cut(DECOMPOSE_BASES),
            "roundtrip": cut(ROUNDTRIP_KEYS),
            "orbits": cut(ORBIT_KEYS),
            "cyclic_basis": cut(CYCLIC_KEYS),
            "gen_bell": cut(GEN_BELL_KEYS),
            "davenport": cut(DAVENPORT_KEYS),
            "monomial": cut(sorted(MONOMIAL_DEGREES)),
            "translation_degree": cut(DAVENPORT_KEYS),
        }
        self.block = []
        for fam, total in EXACT_BLOCK.items():
            counts = allocate(total, zipf_weights(len(params[fam])))
            for p, count in zip(params[fam], counts):
                self.block += [(fam, p)] * count
        self.bases = {
            params: tensor_basis.build_full_basis(
                params[0], permgroup.TypedNodeSet(params[1]), BUDGET.tuple_enumeration
            )
            for params in set(DECOMPOSE_BASES + ROUNDTRIP_KEYS)
        }
        self.tensors = {
            (params, j): nprng.standard_normal((sum(params[1]),) * params[0])
            for params in DECOMPOSE_BASES
            for j in range(PAYLOADS)
        }
        self.sequences = {
            (d, j): _zero_sum_sequence(self.rng, d, degree)
            for d, degree in MONOMIAL_DEGREES.items()
            for j in range(PAYLOADS)
        }
        self.specs = {key: _spec(key[0], key[1]) for key in ORBIT_KEYS}
        self.seen: set = set()
        self.repeats = 0
        self.execute(("gen_bell", (1, 1)))

    def requests(self):
        rng = self.rng
        payloads = range(PAYLOADS)
        payload_weights = zipf_weights(PAYLOADS)
        while True:
            for fam, params in rng.sample(self.block, len(self.block)):
                key = params
                if fam in PAYLOAD_FAMILIES:
                    key = (params, rng.choices(payloads, payload_weights)[0])
                if (fam, key) in self.seen:
                    self.repeats += 1
                else:
                    self.seen.add((fam, key))
                yield fam, key

    def execute(self, request):
        fam, key = request
        if fam == "basis":
            k, sizes = key
            return tensor_basis.build_full_basis(
                k, permgroup.TypedNodeSet(sizes), BUDGET.tuple_enumeration
            )
        if fam == "equivariant_basis":
            k, d, sizes = key
            return tensor_basis.equivariant_basis(
                k, d, permgroup.TypedNodeSet(sizes), BUDGET.tuple_enumeration
            )
        if fam == "decompose":
            params, _ = key
            basis = self.bases[params]
            coeffs = tensor_basis.decompose(self.tensors[key], basis)
            return coeffs, tensor_basis.reconstruct(coeffs, basis)
        if fam == "roundtrip":
            buf = io.StringIO()
            tensor_basis.serialize_basis(self.bases[key], buf)
            buf.seek(0)
            return tensor_basis.load_basis(buf)
        if fam == "orbits":
            spec = self.specs[key]
            k = key[2]
            return (
                permgroup.orbit_count_on_tuples(spec, k, BUDGET.tuple_enumeration),
                permgroup.burnside_count(spec, k, BUDGET.closure_cap),
            )
        if fam == "cyclic_basis":
            return cyclic.cyclic_basis(*key, budget=BUDGET)
        if fam == "gen_bell":
            return combinat.gen_bell(*key)
        if fam == "davenport":
            return zerosum.davenport_constant(key, BUDGET)
        if fam == "monomial":
            return zerosum.decompose_invariant_monomial(self.sequences[key], BUDGET)
        return zerosum.max_generator_degree_translation(key, BUDGET)

    def can_stop(self, done: int) -> bool:
        return done % self.window == 0

    def kind(self, request) -> str:
        return request[0]

    def items(self, request) -> int:
        return 1

    def check(self, request, out) -> bool:
        fam, key = request
        if fam == "basis":
            k, sizes = key
            return basis_ok(out, k, sizes)
        if fam == "equivariant_basis":
            k, d, sizes = key
            return basis_ok(out, k + d, sizes)
        if fam == "decompose":
            coeffs, rebuilt = out
            basis = self.bases[key[0]]
            x = self.tensors[key]
            for c, b in zip(coeffs, basis):
                if b.is_empty:
                    if c != 0.0:
                        return False
                    continue
                idx = tuple(np.array(col) for col in zip(*b.tensor.support))
                if abs(c - float(x[idx].mean())) > 1e-12 * max(1.0, float(np.abs(x).max())):
                    return False
                if not np.all(rebuilt[idx] == c):
                    return False
            return len(coeffs) == len(basis)
        if fam == "roundtrip":
            return out == self.bases[key]
        if fam == "orbits":
            return out[0] == out[1]
        if fam == "cyclic_basis":
            n, k = key
            return len(out) == n ** (k - 1) and supports_partition(out, n**k)
        if fam == "gen_bell":
            m, k = key
            bells = [combinat.bell(i) for i in range(k + 1)]
            return out == combinat.egf_power_coeffs(bells, m)[k]
        if fam == "davenport":
            return out.constant == 2 * key - 1 and out.certified
        if fam == "monomial":
            s = self.sequences[key]
            cap = 2 * s.d - 1
            total = zerosum.GroupSequence.from_elements(s.d, [])
            for f in out:
                if not zerosum.is_zero_sum(f) or not 0 < f.degree <= cap:
                    return False
                total = total.add(f)
            return total == s
        return out.degree == 2 * key - 1 and out.indecomposable_verified


def supports_partition(tensors, total: int) -> bool:
    union: set = set()
    size = 0
    for t in tensors:
        union |= t.support
        size += len(t.support)
    return size == total and len(union) == total


def basis_ok(basis, k: int, sizes) -> bool:
    n = sum(sizes)
    return len(basis) == combinat.gen_bell(len(sizes), k) and supports_partition(
        [b.tensor for b in basis], n**k
    )


WORKLOADS = {"sweep": Sweep, "sweep_pool": SweepPool, "serve": Serve, "exact": Exact}
