"""Command-line interface.

One executable, eight subcommands, file-based inputs and outputs:

* ``dims`` — invariant-space dimensions for typed node sets, with an
  orbit-counting oracle cross-check;
* ``basis`` — explicit indicator-tensor basis files;
* ``layer-apply`` — run a serialized equivariant layer on a vector;
* ``cyclic-dims`` — dimensions under cyclic shifts and grid translations;
* ``dft`` — 2-D Fourier transform of grid images and the translation
  diagonalization check;
* ``davenport`` — zero-sum constants and extremal witnesses;
* ``decompose`` — factor a zero-sum monomial into bounded-degree parts;
* ``conjectures`` — the generator-degree bound sweep over small graphs.

Exit codes: 0 success, 1 validation error, 2 budget exceeded, 3 a
conjecture counterexample was found (so sweep pipelines can alarm).
Every JSON report embeds the tool version and the fully resolved
configuration; fixed seeds and inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .budgets import Budgets
from .errors import BudgetError


class _UsageError(ValueError):
    """Raised for malformed command lines; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        )


def _require(args, flag: str):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise _UsageError(f"missing required parameter {flag}")
    return value


def _require_positive(args, flag: str) -> int:
    value = _require(args, flag)
    if value < 1:
        raise _UsageError(f"{flag} must be positive, got {value}")
    return value


def _require_positive_sizes(sizes: tuple[int, ...]) -> tuple[int, ...]:
    for s in sizes:
        if s < 1:
            raise _UsageError(f"--sizes must be positive ints, got {s}")
    return sizes


def _report(path: Optional[str], args, budget: Budgets, keys: Sequence[str], **fields) -> None:
    """Write a JSON report to path, or to stdout when path is None: the tool
    version, the resolved config (subcommand, the named arguments, the
    budget) and the result fields."""
    config = {"subcommand": args.cmd}
    for key in keys:
        config[key] = getattr(args, key)
    config["budget"] = dataclasses.asdict(budget)
    payload = {"version": __version__, "config": config, **fields}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("the result holds a non-finite number, which JSON cannot hold") from None
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def _formula_result(
    args, budget: Budgets, keys: Sequence[str], value: int, oracle, note: str = "", **fields
) -> int:
    """Print the formula value, or with --oracle the "formula X, oracle Y"
    line, refusing an oracle that differs (ValueError, the note appended);
    then write the --out report with the named arguments and fields."""
    if args.oracle:
        print(f"formula {value}, oracle {oracle}")
        if oracle != value:
            raise ValueError(f"orbit count {oracle} disagrees with the formula value {value}{note}")
    else:
        print(value)
    if args.out:
        _report(args.out, args, budget, keys, **fields, formula=value, oracle=oracle)
    return 0


# ------------------------------------------------------------------- dims


def _cmd_dims(args, budget: Budgets) -> int:
    from .combinat import gen_bell
    from .permgroup import TypedNodeSet, orbit_count_on_tuples, young_generators

    m = _require_positive(args, "--m")
    k = _require(args, "--k")
    for flag, value in (("--k", k), ("--d", args.d)):
        if value < 0:
            raise _UsageError(f"{flag} must be nonnegative, got {value}")
    order = k + args.d
    if order > budget.axis_cap:
        raise BudgetError(f"tensor order k+d={order} exceeds the axis cap {budget.axis_cap}")
    if m > budget.type_cap:
        raise BudgetError(f"--m {m} exceeds the type cap {budget.type_cap}")
    sizes = args.sizes
    if sizes is not None:
        if len(sizes) != m:
            raise _UsageError(f"--sizes must list exactly m={m} sizes, got {len(sizes)}")
        _require_positive_sizes(sizes)
    value = gen_bell(m, order)
    oracle, note = None, ""
    if args.oracle:
        if sizes is None:
            raise _UsageError("--oracle needs --sizes to fix concrete type sizes")
        spec = young_generators(TypedNodeSet(sizes))
        oracle = orbit_count_on_tuples(spec, order, budget.tuple_enumeration)
        if min(sizes) < order:
            note = f"; gen_bell assumes every type holds at least k+d={order} nodes"
    return _formula_result(
        args, budget, ["m", "k", "d", "sizes", "oracle"], value, oracle, note, total_order=order
    )


# ------------------------------------------------------------------ basis


def _cmd_basis(args, budget: Budgets) -> int:
    from .permgroup import TypedNodeSet
    from .tensor_basis import _basis_document, build_full_basis

    k = _require(args, "--k")
    sizes = _require(args, "--sizes")
    if k < 0:
        raise _UsageError(f"--k must be nonnegative, got {k}")
    if k > budget.axis_cap:
        raise BudgetError(f"--k {k} exceeds the axis cap {budget.axis_cap}")
    if len(sizes) > budget.type_cap:
        raise BudgetError(f"--sizes lists {len(sizes)} types, cap is {budget.type_cap}")
    types = TypedNodeSet(_require_positive_sizes(sizes))
    doc = _basis_document(build_full_basis(k, types, budget.tuple_enumeration))
    _report(args.out, args, budget, ["k", "sizes"], **doc)
    if args.out:
        print(f"wrote {doc['count']} basis records to {args.out}")
    return 0


# ------------------------------------------------------------- layer-apply


def _cmd_layer_apply(args, budget: Budgets) -> int:
    from .cyclic import _numbers, _read_json
    from .layers import EquivariantMap, equivariant_forward
    from .permgroup import TypedNodeSet

    weights_path = _require(args, "--weights")
    input_path = _require(args, "--input")
    where = f"--weights file {weights_path}"
    raw = _read_json(weights_path, where)
    for field in ("type_sizes", "W", "v"):
        if not isinstance(raw, dict) or field not in raw:
            raise ValueError(f"{where} is not a JSON object with a {field!r} field")
    sizes = raw["type_sizes"]
    # a bool or a non-int is left to TypedNodeSet, whose message names it
    if not isinstance(sizes, list) or not sizes or any(
        isinstance(s, int) and not isinstance(s, bool) and s < 1 for s in sizes
    ):
        raise ValueError(f"{where} field 'type_sizes' must be a list of positive ints")
    t = TypedNodeSet(tuple(sizes))
    m = t.m
    W = _numbers(raw["W"], f"{where} field 'W'")
    if W.size != m * m:
        raise ValueError(f"{where} field 'W' must have m*m = {m*m} entries, got {W.size}")
    vectors = {}  # v, and c unless absent or null
    for field in ["v"] if raw.get("c") is None else ["v", "c"]:
        name = f"{where} field {field!r}"
        vectors[field] = vec = _numbers(raw[field], name)
        if vec.shape != (m,):
            raise ValueError(f"{name} must hold a vector of {m} numbers, got shape {vec.shape}")
    layer = EquivariantMap(types=t, W=W.reshape(m, m), **vectors)
    where = f"--input file {input_path}"
    data = _read_json(input_path, where)
    if isinstance(data, dict):
        if "x" not in data:
            raise ValueError(f"{where} must be a JSON list or contain an 'x' field")
        data = data["x"]
    x = _numbers(data, where)
    if x.shape != (t.n,):
        raise ValueError(f"{where} must hold a vector of {t.n} numbers, got shape {x.shape}")
    y = equivariant_forward(layer, x)
    _report(args.out, args, budget, ["weights", "input"], y=[float(v) for v in y])
    if args.out:
        print(f"wrote output vector of length {len(y)} to {args.out}")
    return 0


# ------------------------------------------------------------ cyclic-dims


def _cmd_cyclic_dims(args, budget: Budgets) -> int:
    from .cyclic import cyclic_invariant_dim, translation_invariant_dim
    from .permgroup import (
        cyclic_generators,
        orbit_count_on_tuples,
        translation_generators,
    )

    k = _require_positive(args, "--k")
    if (args.n is None) == (args.d is None):
        raise _UsageError("exactly one of --n (shift group) and --d (grid side) is required")
    if args.n is not None:
        value = cyclic_invariant_dim(_require_positive(args, "--n"), k)
        spec = cyclic_generators(args.n) if args.oracle else None
    else:
        value = translation_invariant_dim(_require_positive(args, "--d"), k)
        spec = translation_generators(args.d) if args.oracle else None
    oracle = orbit_count_on_tuples(spec, k, budget.tuple_enumeration) if args.oracle else None
    return _formula_result(args, budget, ["n", "d", "k", "oracle"], value, oracle)


# -------------------------------------------------------------------- dft


def _cmd_dft(args, budget: Budgets) -> int:
    from .cyclic import GridImage, SpectralImage, verify_diagonalization

    if args.check_diag:
        d = _require_positive(args, "--d")
        # a NaN tolerance would pass any deviation
        if not 0 <= args.tol < float("inf"):
            raise _UsageError(f"--tol must be a finite nonnegative number, got {args.tol}")
        if args.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
        _require_positive(args, "--images")
        deviation = verify_diagonalization(d, trials=args.images, seed=args.seed)
        print(
            f"max diagonalization deviation {deviation:.3e} over "
            f"{args.images} images, all {d * d} translations"
        )
        if deviation > args.tol:
            raise ValueError(f"deviation {deviation:.3e} exceeds --tol {args.tol:.1e}")
        if args.out:
            _report(
                args.out, args, budget, ["d", "images", "seed", "tol"], max_deviation=deviation
            )
        return 0
    if args.infile is None:
        raise _UsageError("dft needs either --check-diag or --in FILE")
    out = args.out
    if out is None:
        raise _UsageError("--out is required when transforming files")
    loaded = (SpectralImage if args.inverse else GridImage).load(args.infile)
    d = loaded.d
    if args.d is not None and args.d != d:
        raise ValueError(f"--d {args.d} does not match the input side {d}")
    result, noun = (loaded.idft(), "image") if args.inverse else (loaded.dft(), "spectrum")
    result.save(out)
    print(f"wrote {d}x{d} {noun} to {out}")
    return 0


# --------------------------------------------------------------- davenport


def _cmd_davenport(args, budget: Budgets) -> int:
    from .zerosum import davenport_constant

    d = _require_positive(args, "--d")
    result = davenport_constant(d, budget)
    print(
        f"D={result.constant}, zero-sum-free witness length {result.witness.degree}"
    )
    print(
        "certification: exhaustive search"
        if result.certified
        else f"certification: witness only (exhaustive search budget is d <= "
        f"{budget.davenport_exhaustive_max_d})"
    )
    if args.out:
        _report(
            args.out, args, budget, ["d"],
            constant=result.constant,
            certified=result.certified,
            max_zero_sum_free_length=result.max_zero_sum_free_length,
            witness=[list(pair) for pair in result.witness.elements()],
        )
    return 0


# --------------------------------------------------------------- decompose


def _cmd_decompose(args, budget: Budgets) -> int:
    from .cyclic import _read_json
    from .zerosum import GroupSequence, decompose_invariant_monomial, is_zero_sum

    d = _require_positive(args, "--d")
    path = _require(args, "--monomial")
    where = f"--monomial file {path}"
    raw = _read_json(path, where)
    if not isinstance(raw, list) or any(
        not isinstance(p, list) or len(p) != 2 for p in raw
    ):
        raise ValueError(f"{where} must be a JSON list of [a, b] pairs")
    try:
        seq = GroupSequence.from_elements(d, [tuple(p) for p in raw])
    except ValueError as exc:  # a pair that is not two ints below --d
        raise ValueError(f"{where}: {exc}") from None
    if not is_zero_sum(seq):
        raise ValueError(f"{where} is not zero-sum: exponents sum to {seq.sum_mod()} mod {d}")
    factors = decompose_invariant_monomial(seq, budget)
    max_degree = max((f.degree for f in factors), default=0)
    print(
        f"{len(factors)} zero-sum factors, max degree {max_degree} "
        f"(bound {2 * d - 1})"
    )
    if args.out:
        _report(
            args.out, args, budget, ["d", "monomial"],
            degree=seq.degree,
            degree_bound=2 * d - 1,
            factors=[[list(pair) for pair in f.elements()] for f in factors],
        )
    return 0


# ------------------------------------------------------------- conjectures


def sweep_exit_code(reports) -> int:
    """3 when any report holds a falsified bound (a counterexample), else 0."""
    for r in reports:
        if r.a_verdict == "false" or r.b_verdict == "false":
            return 3
    return 0


def _parse_cap(text: str):
    if text in ("full", "2n"):
        return text
    try:
        cap = int(text)
    except ValueError:
        cap = -1  # refused with the negative ints
    if cap < 0:
        raise _UsageError(f"--cap must be 'full', '2n', or a nonnegative integer, got {text!r}")
    return cap


_MAX_SWEEP_N = 7


def _refuse_repeated_classes(path, numbered) -> None:
    """Refuse a graph6 file with two lines in one isomorphism class, which
    the sweep would report, and count, twice."""
    from .graphs import canonical_graph6

    first: dict[str, int] = {}
    for number, g in numbered:
        key = canonical_graph6(g)
        if first.setdefault(key, number) != number:
            raise ValueError(
                f"{path}: lines {first[key]} and {number} hold one graph class, "
                f"canonical graph6 {key}"
            )


def _cmd_conjectures(args, budget: Budgets) -> int:
    from .graphs import _numbered_graph6_lines
    from .invariant_ring import report_to_json_dict, reports_csv_text, sweep, write_reports_csv

    cap_policy = _parse_cap(args.cap)
    if args.infile is not None:
        numbered = _numbered_graph6_lines(args.infile, max_n=_MAX_SWEEP_N, min_n=1)
        _refuse_repeated_classes(args.infile, numbered)
        nmax, graphs = 0, [g for _, g in numbered]
    else:
        nmax, graphs = _require_positive(args, "--nmax"), None
        if nmax > _MAX_SWEEP_N:
            raise BudgetError(
                f"--nmax {nmax} exceeds the verification range cap {_MAX_SWEEP_N}"
            )
    if args.jobs is not None:
        _require_positive(args, "--jobs")
    result = sweep(
        nmax, cap_policy, arithmetic=args.arith, budget=budget, jobs=args.jobs, graphs=graphs
    )
    if args.out:
        write_reports_csv(result.reports, args.out)
        print(f"wrote {len(result.reports)} rows to {args.out}")
        summary_stream = sys.stdout
    else:
        sys.stdout.write(reports_csv_text(result.reports))
        summary_stream = sys.stderr
    for n, entry in sorted(result.summary.items()):
        a, b = entry["a"], entry["b"]
        print(
            f"n={n}: {entry['classes']} classes, "
            f"A true={a['true']} capped={a['capped']} false={a['false']}, "
            f"B true={b['true']} capped={b['capped']} false={b['false']}",
            file=summary_stream,
        )
    if args.json_out:
        _report(
            args.json_out, args, budget, ["nmax", "cap", "arith", "jobs", "infile"],
            summary=result.summary,
            reports=[report_to_json_dict(r) for r in result.reports],
        )
    return sweep_exit_code(result.reports)


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invlayers",
        description="Invariant/equivariant layer bases, dimension formulas, "
        "zero-sum certificates, and generator-degree conjecture sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"invlayers {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    def add(name: str, help_text: str, handler, selftests: tuple[str, ...]):
        """A subcommand parser that runs handler, or with --selftest the
        selftest() of each named module."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, selftests=selftests)
        p.add_argument(
            "--selftest",
            action="store_true",
            help="run the owning module's property checks and exit",
        )
        p.add_argument("--out", default=None, help="write a JSON/CSV report here")
        return p

    p = add("dims", "typed invariant-space dimension (colored-partition count)",
            _cmd_dims, ("combinat", "permgroup"))
    p.add_argument("--m", type=int, default=None, help="number of node types")
    p.add_argument("--k", type=int, default=None, help="input tensor order")
    p.add_argument("--d", type=int, default=0, help="output tensor order (default 0)")
    p.add_argument("--sizes", type=_sizes_arg, default=None, help="comma list of type sizes")
    p.add_argument("--oracle", action="store_true", help="cross-check by orbit counting")

    p = add("basis", "write the indicator-tensor basis for a typed node set",
            _cmd_basis, ("tensor_basis",))
    p.add_argument("--k", type=int, default=None, help="tensor order")
    p.add_argument("--sizes", type=_sizes_arg, default=None, help="comma list of type sizes")

    p = add("layer-apply", "apply a serialized equivariant layer to a vector",
            _cmd_layer_apply, ("layers",))
    p.add_argument("--weights", default=None, help="JSON file: type_sizes, W, v, optional c")
    p.add_argument("--input", default=None, help="JSON file with the input vector")

    p = add("cyclic-dims", "invariant dimensions for shift and translation groups",
            _cmd_cyclic_dims, ("cyclic",))
    p.add_argument("--n", type=int, default=None, help="cyclic shift group size")
    p.add_argument("--d", type=int, default=None, help="grid side (translation group)")
    p.add_argument("--k", type=int, default=None, help="tensor order")
    p.add_argument("--oracle", action="store_true", help="cross-check by orbit counting")

    p = add("dft", "2-D Fourier transform and the translation diagonalization check",
            _cmd_dft, ("cyclic",))
    p.add_argument("--d", type=int, default=None, help="grid side")
    p.add_argument("--check-diag", action="store_true", help="verify translations diagonalize")
    p.add_argument("--images", type=int, default=50, help="random images for the check")
    p.add_argument("--seed", type=int, default=0, help="seed for the random images")
    p.add_argument("--tol", type=float, default=1e-9, help="deviation tolerance")
    p.add_argument("--in", dest="infile", default=None, help="image/spectrum file to transform")
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform")

    p = add("davenport", "zero-sum constant and extremal witness for Z_d x Z_d",
            _cmd_davenport, ("zerosum",))
    p.add_argument("--d", type=int, default=None, help="modulus")

    p = add("decompose", "factor a zero-sum monomial into bounded-degree parts",
            _cmd_decompose, ("zerosum",))
    p.add_argument("--d", type=int, default=None, help="modulus")
    p.add_argument("--monomial", default=None, help="JSON file: list of [a, b] pairs")

    p = add("conjectures", "generator-degree bound sweep over small graphs",
            _cmd_conjectures, ("graphs", "invariant_ring"))
    source = p.add_mutually_exclusive_group()
    source.add_argument("--nmax", type=int, default=None, help="largest vertex count to sweep")
    source.add_argument("--in", dest="infile", default=None, help="graph6 file, one graph per line")
    p.add_argument("--cap", default="2n", help="degree cap policy: full, 2n, or an integer")
    p.add_argument(
        "--arith",
        choices=["auto", "exact", "modular"],
        default="auto",
        help="rank arithmetic (auto = exact through n=5, modular beyond)",
    )
    p.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    p.add_argument("--json-out", default=None, help="write per-graph JSON reports here")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        if args.selftest:
            if not __debug__:
                raise _UsageError("--selftest needs assertions, which python -O turns off")
            for name in args.selftests:
                importlib.import_module(f".{name}", __package__).selftest()
            print(f"{args.cmd} selftest ok")
            return 0
        # a result that overflows is refused, without warnings, where it is written
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args, Budgets.from_env())
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
