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


def _config(args, keys: Sequence[str], budget: Budgets) -> dict:
    cfg = {"subcommand": args.cmd}
    for key in keys:
        value = getattr(args, key)
        cfg[key] = list(value) if isinstance(value, tuple) else value
    cfg["budget"] = dataclasses.asdict(budget)
    return cfg


def _emit_json(payload: dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def _print_oracle(value: int, oracle: int, note: str = "") -> None:
    """Print the "formula X, oracle Y" line; ValueError when they differ."""
    print(f"formula {value}, oracle {oracle}")
    if oracle != value:
        raise ValueError(f"orbit count {oracle} disagrees with the formula value {value}{note}")


# ------------------------------------------------------------------- dims


def _cmd_dims(args, budget: Budgets) -> int:
    from .combinat import gen_bell
    from .permgroup import TypedNodeSet, orbit_count_on_tuples, young_generators

    m = _require(args, "--m")
    k = _require(args, "--k")
    order = k + args.d
    if order > budget.axis_cap:
        raise BudgetError(f"tensor order k+d={order} exceeds the axis cap {budget.axis_cap}")
    if m > budget.type_cap:
        raise BudgetError(f"--m {m} exceeds the type cap {budget.type_cap}")
    value = gen_bell(m, order)
    oracle = None
    if args.oracle:
        sizes = args.sizes
        if sizes is None:
            raise _UsageError("--oracle needs --sizes to fix concrete type sizes")
        if len(sizes) != m:
            raise _UsageError(f"--sizes must list exactly m={m} sizes, got {len(sizes)}")
        spec = young_generators(TypedNodeSet(sizes))
        oracle = orbit_count_on_tuples(spec, order, budget.tuple_enumeration)
        note = ""
        if min(sizes) < order:
            note = f"; gen_bell assumes every type holds at least k+d={order} nodes"
        _print_oracle(value, oracle, note)
    else:
        print(value)
    if args.out:
        payload = {
            "version": __version__,
            "config": _config(args, ["m", "k", "d", "sizes", "oracle"], budget),
            "total_order": order,
            "formula": value,
            "oracle": oracle,
        }
        _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------ basis


def _cmd_basis(args, budget: Budgets) -> int:
    from .permgroup import TypedNodeSet
    from .tensor_basis import build_full_basis

    k = _require(args, "--k")
    sizes = _require(args, "--sizes")
    if k > budget.axis_cap:
        raise BudgetError(f"--k {k} exceeds the axis cap {budget.axis_cap}")
    if len(sizes) > budget.type_cap:
        raise BudgetError(f"--sizes lists {len(sizes)} types, cap is {budget.type_cap}")
    t = TypedNodeSet(sizes)
    elements = build_full_basis(k, t, budget.tuple_enumeration)
    records = []
    for el in elements:
        records.append(
            {
                "axis_types": list(el.descriptor.axis_types),
                "blocks_by_type": [list(g.rgs()) for g in el.descriptor.gammas],
                "support": [
                    [i + 1 for i in tup] for tup in sorted(el.tensor.support)
                ],
            }
        )
    payload = {
        "version": __version__,
        "config": _config(args, ["k", "sizes"], budget),
        "n": t.n,
        "k": k,
        "type_sizes": list(t.type_sizes),
        "count": len(records),
        "elements": records,
    }
    _emit_json(payload, args.out)
    if args.out:
        print(f"wrote {len(records)} basis records to {args.out}")
    return 0


# ------------------------------------------------------------- layer-apply


def _load_json_file(path: str, flag: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} file {path} is not valid JSON: {exc}")


def _cmd_layer_apply(args, budget: Budgets) -> int:
    from .layers import EquivariantMap, equivariant_forward
    from .permgroup import TypedNodeSet

    weights_path = _require(args, "--weights")
    input_path = _require(args, "--input")
    raw = _load_json_file(weights_path, "--weights")
    for field in ("type_sizes", "W", "v"):
        if field not in raw:
            raise ValueError(f"--weights file is missing the {field!r} field")
    t = TypedNodeSet(tuple(raw["type_sizes"]))
    m = t.m
    W = np.asarray(raw["W"], dtype=float)
    if W.size != m * m:
        raise ValueError(f"--weights field W must have m*m = {m*m} entries, got {W.size}")
    W = W.reshape(m, m)
    layer = EquivariantMap(
        types=t,
        W=W,
        v=np.asarray(raw["v"], dtype=float),
        c=None if raw.get("c") is None else np.asarray(raw["c"], dtype=float),
    )
    data = _load_json_file(input_path, "--input")
    if isinstance(data, dict):
        if "x" not in data:
            raise ValueError("--input file must be a JSON list or contain an 'x' field")
        data = data["x"]
    x = np.asarray(data, dtype=float)
    y = equivariant_forward(layer, x)
    payload = {
        "version": __version__,
        "config": _config(args, ["weights", "input"], budget),
        "y": [float(v) for v in y],
    }
    _emit_json(payload, args.out)
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

    k = _require(args, "--k")
    if (args.n is None) == (args.d is None):
        raise _UsageError("exactly one of --n (shift group) and --d (grid side) is required")
    if args.n is not None:
        value = cyclic_invariant_dim(args.n, k)
        spec = cyclic_generators(args.n) if args.oracle else None
    else:
        value = translation_invariant_dim(args.d, k)
        spec = translation_generators(args.d) if args.oracle else None
    oracle = None
    if args.oracle:
        oracle = orbit_count_on_tuples(spec, k, budget.tuple_enumeration)
        _print_oracle(value, oracle)
    else:
        print(value)
    if args.out:
        payload = {
            "version": __version__,
            "config": _config(args, ["n", "d", "k", "oracle"], budget),
            "formula": value,
            "oracle": oracle,
        }
        _emit_json(payload, args.out)
    return 0


# -------------------------------------------------------------------- dft


def _cmd_dft(args, budget: Budgets) -> int:
    from .cyclic import GridImage, SpectralImage, verify_diagonalization

    if args.check_diag:
        d = _require(args, "--d")
        deviation = verify_diagonalization(d, trials=args.images, seed=args.seed)
        print(
            f"max diagonalization deviation {deviation:.3e} over "
            f"{args.images} images, all {d * d} translations"
        )
        if deviation > args.tol:
            print(
                f"error: deviation {deviation:.3e} exceeds --tol {args.tol:.1e}",
                file=sys.stderr,
            )
            return 1
        if args.out:
            payload = {
                "version": __version__,
                "config": _config(args, ["d", "images", "seed", "tol"], budget),
                "max_deviation": deviation,
            }
            _emit_json(payload, args.out)
        return 0
    if args.infile is None:
        raise _UsageError("dft needs either --check-diag or --in FILE")
    out = args.out
    if out is None:
        raise _UsageError("--out is required when transforming files")
    if args.inverse:
        spectral = SpectralImage.load(args.infile)
        if args.d is not None and args.d != spectral.d:
            raise ValueError(f"--d {args.d} does not match the input side {spectral.d}")
        spectral.idft().save(out)
        print(f"wrote {spectral.d}x{spectral.d} image to {out}")
    else:
        image = GridImage.load(args.infile)
        if args.d is not None and args.d != image.d:
            raise ValueError(f"--d {args.d} does not match the input side {image.d}")
        image.dft().save(out)
        print(f"wrote {image.d}x{image.d} spectrum to {out}")
    return 0


# --------------------------------------------------------------- davenport


def _cmd_davenport(args, budget: Budgets) -> int:
    from .zerosum import davenport_constant

    d = _require(args, "--d")
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
        payload = {
            "version": __version__,
            "config": _config(args, ["d"], budget),
            "constant": result.constant,
            "certified": result.certified,
            "max_zero_sum_free_length": result.max_zero_sum_free_length,
            "witness": [list(pair) for pair in result.witness.elements()],
        }
        _emit_json(payload, args.out)
    return 0


# --------------------------------------------------------------- decompose


def _cmd_decompose(args, budget: Budgets) -> int:
    from .zerosum import GroupSequence, decompose_invariant_monomial, is_zero_sum

    d = _require(args, "--d")
    path = _require(args, "--monomial")
    raw = _load_json_file(path, "--monomial")
    if not isinstance(raw, list) or any(
        not isinstance(p, list) or len(p) != 2 for p in raw
    ):
        raise ValueError("--monomial file must be a JSON list of [a, b] pairs")
    seq = GroupSequence.from_elements(d, [tuple(p) for p in raw])
    if not is_zero_sum(seq):
        raise ValueError(
            f"--monomial is not zero-sum: exponents sum to {seq.sum_mod()} mod {d}"
        )
    factors = decompose_invariant_monomial(seq, budget)
    max_degree = max((f.degree for f in factors), default=0)
    print(
        f"{len(factors)} zero-sum factors, max degree {max_degree} "
        f"(bound {2 * d - 1})"
    )
    payload = {
        "version": __version__,
        "config": _config(args, ["d", "monomial"], budget),
        "degree": seq.degree,
        "degree_bound": 2 * d - 1,
        "factors": [[list(pair) for pair in f.elements()] for f in factors],
    }
    if args.out:
        _emit_json(payload, args.out)
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
        return int(text)
    except ValueError:
        raise _UsageError(f"--cap must be 'full', '2n', or an integer, got {text!r}")


_MAX_SWEEP_N = 7


def _cmd_conjectures(args, budget: Budgets) -> int:
    from .graphs import read_graph6_file
    from .invariant_ring import report_to_json_dict, reports_csv_text, sweep, write_reports_csv

    cap_policy = _parse_cap(args.cap)
    if args.infile is not None:
        graphs = read_graph6_file(args.infile)
        result = sweep(
            0,
            cap_policy,
            arithmetic=args.arith,
            budget=budget,
            jobs=args.jobs,
            graphs=graphs,
        )
    else:
        nmax = _require(args, "--nmax")
        if nmax > _MAX_SWEEP_N:
            raise BudgetError(
                f"--nmax {nmax} exceeds the verification range cap {_MAX_SWEEP_N}"
            )
        result = sweep(
            nmax, cap_policy, arithmetic=args.arith, budget=budget, jobs=args.jobs
        )
    summary_lines = []
    for n in sorted(result.summary):
        entry = result.summary[n]
        a, b = entry["a"], entry["b"]
        summary_lines.append(
            f"n={n}: {entry['classes']} classes, "
            f"A true={a['true']} capped={a['capped']} false={a['false']}, "
            f"B true={b['true']} capped={b['capped']} false={b['false']}"
        )
    if args.out:
        write_reports_csv(result.reports, args.out)
        print(f"wrote {len(result.reports)} rows to {args.out}")
        for line in summary_lines:
            print(line)
    else:
        sys.stdout.write(reports_csv_text(result.reports))
        for line in summary_lines:
            print(line, file=sys.stderr)
    if args.json_out:
        payload = {
            "version": __version__,
            "config": _config(args, ["nmax", "cap", "arith", "jobs", "infile"], budget),
            "summary": result.summary,
            "reports": [report_to_json_dict(r) for r in result.reports],
        }
        _emit_json(payload, args.json_out)
    return sweep_exit_code(result.reports)


# ----------------------------------------------------------------- parser


def _module_selftests(cmd: str):
    from . import combinat, cyclic, graphs, invariant_ring, layers, permgroup
    from . import tensor_basis, zerosum

    return {
        "dims": (combinat, permgroup),
        "basis": (tensor_basis,),
        "layer-apply": (layers,),
        "cyclic-dims": (cyclic,),
        "dft": (cyclic,),
        "davenport": (zerosum,),
        "decompose": (zerosum,),
        "conjectures": (graphs, invariant_ring),
    }[cmd]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invlayers",
        description="Invariant/equivariant layer bases, dimension formulas, "
        "zero-sum certificates, and generator-degree conjecture sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"invlayers {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(cmd=name)
        p.add_argument(
            "--selftest",
            action="store_true",
            help="run the owning module's property checks and exit",
        )
        p.add_argument("--out", default=None, help="write a JSON/CSV report here")
        return p

    p = add("dims", "typed invariant-space dimension (colored-partition count)")
    p.add_argument("--m", type=int, default=None, help="number of node types")
    p.add_argument("--k", type=int, default=None, help="input tensor order")
    p.add_argument("--d", type=int, default=0, help="output tensor order (default 0)")
    p.add_argument("--sizes", type=_sizes_arg, default=None, help="comma list of type sizes")
    p.add_argument("--oracle", action="store_true", help="cross-check by orbit counting")

    p = add("basis", "write the indicator-tensor basis for a typed node set")
    p.add_argument("--k", type=int, default=None, help="tensor order")
    p.add_argument("--sizes", type=_sizes_arg, default=None, help="comma list of type sizes")

    p = add("layer-apply", "apply a serialized equivariant layer to a vector")
    p.add_argument("--weights", default=None, help="JSON file: type_sizes, W, v, optional c")
    p.add_argument("--input", default=None, help="JSON file with the input vector")

    p = add("cyclic-dims", "invariant dimensions for shift and translation groups")
    p.add_argument("--n", type=int, default=None, help="cyclic shift group size")
    p.add_argument("--d", type=int, default=None, help="grid side (translation group)")
    p.add_argument("--k", type=int, default=None, help="tensor order")
    p.add_argument("--oracle", action="store_true", help="cross-check by orbit counting")

    p = add("dft", "2-D Fourier transform and the translation diagonalization check")
    p.add_argument("--d", type=int, default=None, help="grid side")
    p.add_argument("--check-diag", action="store_true", help="verify translations diagonalize")
    p.add_argument("--images", type=int, default=50, help="random images for the check")
    p.add_argument("--seed", type=int, default=0, help="seed for the random images")
    p.add_argument("--tol", type=float, default=1e-9, help="deviation tolerance")
    p.add_argument("--in", dest="infile", default=None, help="image/spectrum file to transform")
    p.add_argument("--inverse", action="store_true", help="apply the inverse transform")

    p = add("davenport", "zero-sum constant and extremal witness for Z_d x Z_d")
    p.add_argument("--d", type=int, default=None, help="modulus")

    p = add("decompose", "factor a zero-sum monomial into bounded-degree parts")
    p.add_argument("--d", type=int, default=None, help="modulus")
    p.add_argument("--monomial", default=None, help="JSON file: list of [a, b] pairs")

    p = add("conjectures", "generator-degree bound sweep over small graphs")
    p.add_argument("--nmax", type=int, default=None, help="largest vertex count to sweep")
    p.add_argument("--in", dest="infile", default=None, help="graph6 file, one graph per line")
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


_HANDLERS = {
    "dims": _cmd_dims,
    "basis": _cmd_basis,
    "layer-apply": _cmd_layer_apply,
    "cyclic-dims": _cmd_cyclic_dims,
    "dft": _cmd_dft,
    "davenport": _cmd_davenport,
    "decompose": _cmd_decompose,
    "conjectures": _cmd_conjectures,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        if args.selftest:
            for module in _module_selftests(args.cmd):
                module.selftest()
            print(f"{args.cmd} selftest ok")
            return 0
        budget = Budgets.from_env()
        return _HANDLERS[args.cmd](args, budget)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
