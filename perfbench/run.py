#!/usr/bin/env python3
"""Benchmark for the invlayers package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

One client drives the named workload closed-loop (the next request is sent
when the previous one returns) until the requests' summed service time
reaches ``--seconds`` (``serve``, ``exact``) or its fixed list of requests
ends (``sweep``, ``sweep_pool``); every output is checked outside the timed
region.
The human-readable lines name every metric with its unit, and the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, measured
untraced; ``--trace 1`` repeats the run untraced, then runs it again traced
in a fresh process and reports per-layer metrics, per-span self times and
the tracing overhead.  The exit code is 1 when any output is wrong.

End-to-end times are scaled to a reference machine speed by the probe in
``speed.py``: each request's time, less the probe's own slices, is scaled by
the speed of a fixed slice of interpreter work timed in and around it; the
pool calls of ``sweep_pool`` are the exception (see ``measure``).  The
``info`` line also gives the figures unscaled, as wall-clock times.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("sweep", "sweep_pool", "serve", "exact")
SETUP_REPEATS = 3
TAIL_LADDER = (50, 75, 85, 90, 99, 99.9, 99.99)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Span names whose self time is a per-layer metric ``<name>.busy_s``.
LAYER_SPANS = [
    "invariant_ring.generator_degrees.exact",
    "invariant_ring.generator_degrees.modular",
    "invariant_ring.check_conjectures",
    "invariant_ring.sweep",
    "graphs.enumerate_graphs",
    "graphs.automorphism_group",
    "graphs.canonical_graph6",
    "permgroup.reduce_generators",
    "permgroup.group_closure",
    "permgroup.orbit_count_on_tuples",
    "permgroup.burnside_count",
    "layers.network_forward",
    "layers.MultiChannelEquivariant.forward",
    "layers.invariant_forward",
    "layers.Mlp.forward",
    "layers.equivariant_forward",
    "layers.jacobian",
    "cyclic.dft2",
    "cyclic.cyclic_basis",
    "tensor_basis.build_full_basis",
    "tensor_basis.equivariant_basis",
    "tensor_basis.decompose",
    "tensor_basis.reconstruct",
    "tensor_basis.serialize_basis",
    "tensor_basis.load_basis",
    "combinat.enumerate_colored_partitions",
    "combinat.gen_bell",
    "zerosum.davenport_constant",
    "zerosum.decompose_invariant_monomial",
    "zerosum.max_generator_degree_translation",
]
# Functions that run only during set-up are timed over set-up; the rest
# over the measured requests.
SETUP_SPANS = {"graphs.enumerate_graphs"}

# Per-layer metrics other than busy times: (name, unit).
LAYER_EXTRAS = [
    ("invariant_ring.generator_degrees.orbits", "count"),
    ("invariant_ring.generator_degrees.orbits_per_busy_s", "1/s"),
    ("invariant_ring.generator_degrees.generators", "count"),
    ("invariant_ring.sweep.parallel_efficiency", "ratio"),
    ("invariant_ring.sweep.serial_busy_s", "s"),
    ("layers.network_forward.flops_computed", "flop"),
    ("layers.network_forward.bytes_computed", "B"),
    ("layers.network_forward.flops_per_byte_computed", "flop/B"),
    ("tensor_basis.build_full_basis.support_tuples", "count"),
    ("exact.repeat_share", "ratio"),
    ("exact.repeated_requests", "count"),
    ("trace.throughput_rps", "1/s"),
    ("trace.overhead_rps", "1/s"),
    ("trace.overhead_share", "ratio"),
]
PER_LAYER = [(f"{name}.busy_s", "s") for name in LAYER_SPANS] + LAYER_EXTRAS


def limit_blas_threads(limit: int) -> None:
    """Cap every BLAS/OpenMP thread-count variable at ``limit``; must run
    before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= limit:
            os.environ[var] = str(limit)


def import_package():
    """Import invlayers from this checkout's ``src`` and nowhere else."""
    if not (SRC / "invlayers" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'invlayers'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import invlayers

    if Path(invlayers.__file__).resolve().parent != (SRC / "invlayers").resolve():
        sys.exit(f"perfbench: imported invlayers from {invlayers.__file__}, not {SRC}")


def tail_latency(latencies):
    """(value, percentile): the latency at the highest ladder percentile
    that has at least ten samples beyond it; the maximum when no ladder
    percentile has."""
    n = len(latencies)
    ordered = sorted(latencies)
    chosen = None
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            chosen = p
    if chosen is None:
        return ordered[-1], 100.0
    pos = chosen / 100 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), float(chosen)


def closed_loop(wl, seconds, tracer=None, limit=None, outputs=None, probe=None):
    """Drive the workload until the summed service time reaches ``seconds``
    or ``limit`` requests ran, at a point where the workload may stop, or
    until its stream ends.  ``wall_latencies`` are the requests' times less
    the probe's slices taken inside them, ``latencies`` the same scaled to
    the reference speed; ``kinds`` maps each request kind to its count and
    summed wall-clock latency."""
    probe = probe or speed.Probe()
    latencies = []
    intervals = []
    items = []
    kinds = {}
    failed = 0
    service = 0.0
    probe.burst()
    for i, request in enumerate(wl.requests()):
        if tracer is not None:
            tracer.request = i
        error = None
        mark = probe.mark()
        start = time.perf_counter()
        try:
            out = wl.execute(request)
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, exc
        end = time.perf_counter()
        elapsed = end - start - probe.paused(mark, start)
        if tracer is not None:
            tracer.request = None
        intervals.append((start, end))
        latencies.append(elapsed)
        service += elapsed
        count, busy = kinds.get(wl.kind(request), (0, 0.0))
        kinds[wl.kind(request)] = (count + 1, busy + elapsed)
        items.append(wl.items(request))
        ok = False
        if error is None:
            try:
                ok = wl.check(request, out)
            except Exception as exc:
                error = exc
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
        if not ok:
            failed += 1
        if outputs is not None:
            outputs.append(out)
        if wl.can_stop(i + 1) and (service >= seconds or (limit is not None and i + 1 >= limit)):
            break
    probe.burst()
    return {
        "latencies": [lat * k for lat, k in zip(latencies, probe.scales(intervals))],
        "wall_latencies": latencies,
        "items": items,
        "kinds": kinds,
        "failed": failed,
        "service_s": service,
    }


def kind_shares(kinds, attempted, service):
    """Per request kind: [share of requests, share of service time]."""
    return {
        kind: [round(count / attempted, 4), round(busy / service, 4)]
        for kind, (count, busy) in sorted(kinds.items())
    }


def windowed_rates(latencies, items, window):
    """Median over consecutive windows of ``window`` requests (the whole
    run when None) of the window's throughput and of its median latency.
    A trailing partial window is dropped."""
    n = len(latencies)
    size = window if window and n >= window else n
    rates, medians = [], []
    for start in range(0, n - size + 1, size):
        lat = latencies[start : start + size]
        rates.append(sum(items[start : start + size]) / sum(lat))
        medians.append(statistics.median(lat))
    return statistics.median(rates), statistics.median(medians), len(rates)


def build(workload, seed, tiny, probe, tracer=None):
    """The workload and its set-up time since process start, less the
    probe's slices: (scaled to the reference speed, wall-clock)."""
    import tracing
    import workloads

    if tracer is not None:
        tracer.request = tracing.SETUP
    try:
        wl = workloads.WORKLOADS[workload](seed, tiny)
    finally:
        if tracer is not None:
            tracer.request = None
    end = time.perf_counter()
    wall = end - _PROCESS_START - probe.paused(0, _PROCESS_START)
    probe.burst()
    return wl, wall * probe.scales([(_PROCESS_START, end)])[0], wall


def peak_rss_mb(jobs: int) -> float:
    """Peak resident set of this process, plus ``jobs`` times the largest
    child's peak when pool workers ran (an upper bound on their concurrent
    total; pages forked workers share with this process count twice)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024.0


def measure(args, probe, traced: bool) -> dict:
    """Set up and run one pass in this process.

    Pool calls are timed by the wall clock, unscaled: their work runs in
    workers on every core, where a probe slice would take a core from one,
    and slices taken between calls, with the machine idle, did not follow
    the speed of the calls (scaling by them made the throughput of
    ``sweep_pool`` spread four times wider over five runs)."""
    import numpy

    import workloads
    from invlayers import budgets

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.targets())
    wl, setup_s, setup_wall_s = build(args.workload, args.seed, args.tiny, probe, tracer)
    jobs = getattr(wl, "jobs", 0)
    if jobs:
        probe.stop()
    if hasattr(wl, "prepare"):
        wl.prepare()
    loop = closed_loop(wl, args.seconds, tracer, probe=probe)
    probe.stop()
    rss = peak_rss_mb(jobs)
    lat = loop["wall_latencies"] if jobs else loop["latencies"]
    tail, tail_p = tail_latency(lat)
    rate, p50, windows = windowed_rates(lat, loop["items"], wl.window)
    wall_rate, wall_p50, _ = windowed_rates(loop["wall_latencies"], loop["items"], wl.window)
    result = {
        "attempted": len(lat),
        "failed": loop["failed"],
        "setup_s": setup_s,
        "throughput_rps": rate,
        "latency_p50_ms": p50 * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mb": rss,
        "info": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "tiny": args.tiny,
            "nproc": workloads.nproc(),
            "pool_jobs": jobs,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "budgets": dataclasses.asdict(workloads.BUDGET),
            "default_budgets": dataclasses.asdict(budgets.DEFAULT),
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "tail_percentile": tail_p,
            "latency_samples": len(lat),
            "windows": windows,
            "service_s": loop["service_s"],
            "kind_shares": kind_shares(loop["kinds"], len(lat), loop["service_s"]),
            "speed_probe": probe.summary(),
            "wall": {
                "setup_s": setup_wall_s,
                "throughput_rps": wall_rate,
                "latency_p50_ms": wall_p50 * 1000,
                "latency_tail_ms": tail_latency(loop["wall_latencies"])[0] * 1000,
            },
        },
    }
    if args.workload == "exact":
        result["repeats"] = wl.repeats
    if args.workload == "sweep_pool":
        cycles = len(lat) // len(wl.calls)
        result["parallel_efficiency"] = wl.serial_s * cycles / (jobs * loop["service_s"])
        result["serial_busy_s"] = wl.serial_s
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.summary(lambda r: isinstance(r, int))
        result["setup_spans"] = tracer.summary(lambda r: r == tracing.SETUP)
        result["counts"] = dict(tracer.counts)
        name = f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(OUT_DIR / name)
        result["info"]["spans_file"] = str(Path("perfbench") / "out" / name)
    return result


def child(args, mode: str) -> dict:
    """Run one pass (``setup`` or ``traced``) in a fresh interpreter and
    return the JSON object it prints last."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--pass", mode,
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    spans, setup_spans, counts = traced["spans"], traced["setup_spans"], traced["counts"]
    values = {}
    for name in LAYER_SPANS:
        source = setup_spans if name in SETUP_SPANS else spans
        values[f"{name}.busy_s"] = source.get(name, {}).get("busy_s", 0.0)
    gd_busy = sum(
        values[f"invariant_ring.generator_degrees.{a}.busy_s"] for a in ("exact", "modular")
    )
    orbits = counts.get("invariant_ring.generator_degrees.orbits", 0)
    flops = counts.get("layers.network_forward.flops_computed", 0)
    nbytes = counts.get("layers.network_forward.bytes_computed", 0)
    values.update(
        {
            "invariant_ring.generator_degrees.orbits": orbits,
            "invariant_ring.generator_degrees.orbits_per_busy_s": orbits / gd_busy if gd_busy else 0.0,
            "invariant_ring.generator_degrees.generators": counts.get(
                "invariant_ring.generator_degrees.generators", 0
            ),
            "invariant_ring.sweep.parallel_efficiency": traced.get("parallel_efficiency", 0.0),
            "invariant_ring.sweep.serial_busy_s": traced.get("serial_busy_s", 0.0),
            "layers.network_forward.flops_computed": flops,
            "layers.network_forward.bytes_computed": nbytes,
            "layers.network_forward.flops_per_byte_computed": flops / nbytes if nbytes else 0.0,
            "tensor_basis.build_full_basis.support_tuples": counts.get(
                "tensor_basis.build_full_basis.support_tuples", 0
            ),
            "exact.repeat_share": traced.get("repeats", 0) / traced["attempted"],
            "exact.repeated_requests": traced.get("repeats", 0),
            "trace.throughput_rps": traced["throughput_rps"],
            "trace.overhead_rps": untraced["throughput_rps"] - traced["throughput_rps"],
            "trace.overhead_share": 1 - traced["throughput_rps"] / untraced["throughput_rps"],
        }
    )
    return values


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    parser.add_argument("--pass", dest="mode", choices=("setup", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads(nproc)
    probe = speed.Probe()
    probe.burst()
    probe.start()
    try:
        import_package()
        if args.mode == "setup":
            _, setup_s, wall_s = build(args.workload, args.seed, args.tiny, probe)
            print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
            return 0
        if args.mode == "traced":
            print(json.dumps(measure(args, probe, traced=True)))
            return 0
        result = measure(args, probe, traced=False)
    finally:
        probe.stop()

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        traced = child(args, "traced")
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = per_layer_metrics(result, traced)
        units = dict(PER_LAYER)
        print("span                                      calls  failed  self_s     total_s")
        for name, entry in sorted({**traced["setup_spans"], **traced["spans"]}.items()):
            if name in traced["setup_spans"] and name not in traced["spans"]:
                name += " (set-up)"
            print(f"{name:40s} {entry['calls']:6d} {entry['failed']:6d}  "
                  f"{entry['busy_s']:.6f}  {entry['total_s']:.6f}")
        info = {**result["info"], "spans_file": traced["info"]["spans_file"]}
    else:
        setups = [{"setup_s": result["setup_s"], "wall_s": result["info"]["wall"]["setup_s"]}]
        setups += [child(args, "setup") for _ in range(SETUP_REPEATS - 1)]
        result["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        result["info"]["wall"]["setup_s"] = statistics.median(r["wall_s"] for r in setups)
        metrics = {name: result[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
        info = {**result["info"], "setup_runs_s": setups}
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {fmt(value)} {units[name]}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
