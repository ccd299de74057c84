"""End-to-end tests of the command-line interface.

Each subcommand is exercised through ``main(argv)`` so stdout/stderr and
exit codes can be asserted in-process.  One subprocess test covers the
installed ``invlayers`` entry point; the others run ``python -m invlayers``
from the source tree under test, one of them with a budget set through an
``INVLAYERS_<FIELD>`` environment variable.  Expected numbers reuse the
independently frozen values from the library test files.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invlayers
from invlayers.cli import main
from invlayers.zerosum import GroupSequence, is_zero_sum


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- dims


def test_dims_prints_typed_invariant_dimension(capsys):
    code, out, _ = run(capsys, ["dims", "--m", "2", "--k", "2"])
    assert code == 0
    assert out.strip() == "6"


def test_dims_one_type_order_three(capsys):
    code, out, _ = run(capsys, ["dims", "--m", "1", "--k", "3"])
    assert code == 0
    assert out.strip() == "5"


def test_dims_three_types_order_three(capsys):
    code, out, _ = run(capsys, ["dims", "--m", "3", "--k", "3"])
    assert code == 0
    assert out.strip() == "57"


def test_dims_split_order_with_oracle(capsys):
    code, out, _ = run(
        capsys,
        ["dims", "--m", "2", "--k", "1", "--d", "1", "--sizes", "3,2", "--oracle"],
    )
    assert code == 0
    assert out.strip() == "formula 6, oracle 6"


def test_dims_oracle_matches_formula_more_cases(capsys):
    for m, k, sizes in [(1, 3, "4"), (2, 2, "2,3"), (3, 2, "2,2,2")]:
        code, out, _ = run(
            capsys, ["dims", "--m", str(m), "--k", str(k), "--sizes", sizes, "--oracle"]
        )
        assert code == 0
        head, tail = out.strip().split(", ")
        assert head.removeprefix("formula ") == tail.removeprefix("oracle ")


def test_dims_oracle_disagreement_exits_one(capsys):
    # a type block of 1 node is smaller than the tensor order 2
    code, out, err = run(capsys, ["dims", "--m", "2", "--k", "2", "--sizes", "2,1", "--oracle"])
    assert code == 1
    assert out.strip() == "formula 6, oracle 5"
    assert err.count("\n") == 1 and err.startswith("error: orbit count 5 disagrees")
    assert "gen_bell assumes every type holds at least k+d=2 nodes" in err
    assert "Traceback" not in err


def test_dims_report_includes_version_and_config(capsys, tmp_path):
    out_path = tmp_path / "dims.json"
    code, _, _ = run(capsys, ["dims", "--m", "2", "--k", "2", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["version"] == invlayers.__version__
    assert data["config"]["subcommand"] == "dims"
    assert data["config"]["m"] == 2
    assert data["config"]["k"] == 2
    assert "budget" in data["config"]
    assert data["formula"] == 6


def test_dims_missing_parameter_exits_one(capsys):
    code, _, err = run(capsys, ["dims", "--k", "2"])
    assert code == 1
    assert "--m" in err


def test_dims_oracle_without_sizes_exits_one(capsys):
    code, _, err = run(capsys, ["dims", "--m", "2", "--k", "2", "--oracle"])
    assert code == 1
    assert "--sizes" in err


def test_dims_sizes_length_mismatch_exits_one(capsys):
    code, _, err = run(
        capsys, ["dims", "--m", "2", "--k", "2", "--sizes", "3,2,2", "--oracle"]
    )
    assert code == 1
    assert "--sizes" in err


def test_dims_invalid_m_exits_one(capsys):
    code, _, err = run(capsys, ["dims", "--m", "0", "--k", "2"])
    assert code == 1
    assert err.startswith("error:")


def test_dims_order_beyond_cap_exits_two(capsys):
    code, _, err = run(capsys, ["dims", "--m", "2", "--k", "99"])
    assert code == 2
    assert "budget" in err or "cap" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, ["dims", "--m", "2", "--k", "2", "--bogus"])
    assert code == 1
    assert "bogus" in err


# ------------------------------------------------------------------ basis


def test_basis_file_has_six_records_for_pair_sizes_2_1(capsys, tmp_path):
    out_path = tmp_path / "b.json"
    code, out, _ = run(capsys, ["basis", "--k", "2", "--sizes", "2,1", "--out", str(out_path)])
    assert code == 0
    assert "6" in out
    data = json.loads(out_path.read_text())
    assert data["count"] == 6
    assert data["n"] == 3
    assert data["k"] == 2
    assert data["type_sizes"] == [2, 1]
    assert len(data["elements"]) == 6
    assert data["version"] == invlayers.__version__


def test_basis_supports_are_one_based_and_partition_index_space(capsys, tmp_path):
    out_path = tmp_path / "b.json"
    run(capsys, ["basis", "--k", "2", "--sizes", "2,1", "--out", str(out_path)])
    data = json.loads(out_path.read_text())
    seen = set()
    for rec in data["elements"]:
        for tup in rec["support"]:
            assert len(tup) == 2
            assert all(1 <= i <= 3 for i in tup)
            t = tuple(tup)
            assert t not in seen
            seen.add(t)
    assert len(seen) == 9  # supports of the nonempty records tile all of [3]^2
    assert any(rec["support"] == [] for rec in data["elements"])


def test_basis_records_carry_descriptors(capsys, tmp_path):
    out_path = tmp_path / "b.json"
    run(capsys, ["basis", "--k", "2", "--sizes", "2,1", "--out", str(out_path)])
    data = json.loads(out_path.read_text())
    for rec in data["elements"]:
        assert len(rec["axis_types"]) == 2
        assert all(t in (0, 1) for t in rec["axis_types"])
        assert len(rec["blocks_by_type"]) == 2  # one growth string per type
    # the all-equal one-type descriptors exist
    assert any(rec["axis_types"] == [0, 0] for rec in data["elements"])


def test_basis_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, ["basis", "--k", "2", "--sizes", "2,2", "--out", str(a)])
    run(capsys, ["basis", "--k", "2", "--sizes", "2,2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_basis_without_out_prints_json(capsys):
    code, out, _ = run(capsys, ["basis", "--k", "1", "--sizes", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["elements"][0]["support"] == [[1], [2]]


def test_basis_budget_exit_two(capsys):
    code, _, err = run(capsys, ["basis", "--k", "8", "--sizes", "8,8,8"])
    assert code == 2
    assert "budget" in err


# ------------------------------------------------------------- layer-apply


def _write_weights(path, W, v, c=None, sizes=(2, 1)):
    payload = {"type_sizes": list(sizes), "W": W, "v": v}
    if c is not None:
        payload["c"] = c
    path.write_text(json.dumps(payload))


def test_layer_apply_hand_computed(capsys, tmp_path):
    w = tmp_path / "w.json"
    x = tmp_path / "x.json"
    _write_weights(w, W=[1, 0, 0, 0], v=[1, 0])
    x.write_text(json.dumps([1.0, 2.0, 3.0]))
    code, out, _ = run(capsys, ["layer-apply", "--weights", str(w), "--input", str(x)])
    assert code == 0
    data = json.loads(out)
    # block sums are (3, 3); y = broadcast(W^T s) + v*x = [3+1, 3+2, 0]
    assert data["y"] == [4.0, 5.0, 0.0]


def test_layer_apply_accepts_nested_rows_and_bias(capsys, tmp_path):
    w = tmp_path / "w.json"
    x = tmp_path / "x.json"
    _write_weights(w, W=[[0, 0], [0, 0]], v=[0, 0], c=[1, 5])
    x.write_text(json.dumps({"x": [0.0, 0.0, 0.0]}))
    code, out, _ = run(capsys, ["layer-apply", "--weights", str(w), "--input", str(x)])
    assert code == 0
    assert json.loads(out)["y"] == [1.0, 1.0, 5.0]


def test_layer_apply_writes_report(capsys, tmp_path):
    w, x, y = tmp_path / "w.json", tmp_path / "x.json", tmp_path / "y.json"
    _write_weights(w, W=[1, 0, 0, 0], v=[1, 0])
    x.write_text(json.dumps([1.0, 2.0, 3.0]))
    code, _, _ = run(
        capsys,
        ["layer-apply", "--weights", str(w), "--input", str(x), "--out", str(y)],
    )
    assert code == 0
    data = json.loads(y.read_text())
    assert data["y"] == [4.0, 5.0, 0.0]
    assert data["version"] == invlayers.__version__
    assert data["config"]["subcommand"] == "layer-apply"


def test_layer_apply_wrong_input_length_exits_one(capsys, tmp_path):
    w, x = tmp_path / "w.json", tmp_path / "x.json"
    _write_weights(w, W=[1, 0, 0, 0], v=[1, 0])
    x.write_text(json.dumps([1.0, 2.0]))
    code, _, err = run(capsys, ["layer-apply", "--weights", str(w), "--input", str(x)])
    assert code == 1
    assert err.startswith("error:")


def test_layer_apply_malformed_weights_exits_one(capsys, tmp_path):
    w, x = tmp_path / "w.json", tmp_path / "x.json"
    w.write_text(json.dumps({"type_sizes": [2, 1], "W": [1, 0, 0], "v": [1, 0]}))
    x.write_text(json.dumps([1.0, 2.0, 3.0]))
    code, _, err = run(capsys, ["layer-apply", "--weights", str(w), "--input", str(x)])
    assert code == 1
    assert "W" in err


# ------------------------------------------------------------ cyclic-dims


def test_cyclic_dims_shift_group(capsys):
    code, out, _ = run(capsys, ["cyclic-dims", "--n", "4", "--k", "3"])
    assert code == 0
    assert out.strip() == "16"


def test_cyclic_dims_translation_group(capsys):
    code, out, _ = run(capsys, ["cyclic-dims", "--d", "3", "--k", "2"])
    assert code == 0
    assert out.strip() == "9"


def test_cyclic_dims_oracle_agreement(capsys):
    code, out, _ = run(capsys, ["cyclic-dims", "--n", "4", "--k", "3", "--oracle"])
    assert code == 0
    assert out.strip() == "formula 16, oracle 16"
    code, out, _ = run(capsys, ["cyclic-dims", "--d", "2", "--k", "2", "--oracle"])
    assert code == 0
    assert out.strip() == "formula 4, oracle 4"


def test_cyclic_dims_requires_exactly_one_group(capsys):
    code, _, err = run(capsys, ["cyclic-dims", "--k", "2"])
    assert code == 1
    assert "--n" in err and "--d" in err
    code, _, err = run(capsys, ["cyclic-dims", "--n", "3", "--d", "3", "--k", "2"])
    assert code == 1


# -------------------------------------------------------------------- dft


def test_dft_check_diag_reports_tiny_deviation(capsys):
    code, out, _ = run(capsys, ["dft", "--d", "4", "--check-diag"])
    assert code == 0
    assert "deviation" in out
    value = float(out.split("deviation")[1].split()[0])
    assert value <= 1e-9


def test_dft_check_diag_without_images_exits_one(capsys):
    for images in ("0", "-2"):
        code, out, err = run(capsys, ["dft", "--d", "4", "--check-diag", "--images", images])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "at least one image" in err


def test_dft_check_diag_fixed_seed_is_deterministic(capsys):
    _, out1, _ = run(capsys, ["dft", "--d", "3", "--check-diag", "--seed", "7"])
    _, out2, _ = run(capsys, ["dft", "--d", "3", "--check-diag", "--seed", "7"])
    assert out1 == out2


def test_dft_transform_round_trip(capsys, tmp_path):
    img = tmp_path / "x.csv"
    spec = tmp_path / "z.json"
    back = tmp_path / "y.csv"
    img.write_text("1.0,2.0\n3.0,4.0\n")
    code, _, _ = run(capsys, ["dft", "--in", str(img), "--out", str(spec)])
    assert code == 0
    data = json.loads(spec.read_text())
    assert data["d"] == 2
    # mean component of the transform is the plain pixel sum
    assert data["re"][0][0] == pytest.approx(10.0)
    code, _, _ = run(capsys, ["dft", "--inverse", "--in", str(spec), "--out", str(back)])
    assert code == 0
    values = [float(v) for line in back.read_text().splitlines() for v in line.split(",")]
    assert np.allclose(values, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


def test_dft_side_mismatch_exits_one(capsys, tmp_path):
    img = tmp_path / "x.csv"
    img.write_text("1.0,2.0\n3.0,4.0\n")
    code, _, err = run(capsys, ["dft", "--d", "3", "--in", str(img), "--out", "z.json"])
    assert code == 1
    assert "--d" in err


def test_dft_input_without_pixels_exits_one(capsys, tmp_path):
    img = tmp_path / "x.json"
    img.write_text('{"d": 2}')
    code, _, err = run(capsys, ["dft", "--in", str(img), "--out", str(tmp_path / "z.json")])
    assert code == 1
    assert err.startswith("error:") and "'pixels'" in err
    img.write_text("[[1.0, 2.0], [3.0, 4.0]]")
    code, _, err = run(capsys, ["dft", "--in", str(img), "--out", str(tmp_path / "z.json")])
    assert code == 1
    assert "'pixels'" in err


def test_dft_inverse_input_without_re_or_im_exits_one(capsys, tmp_path):
    spec = tmp_path / "z.json"
    out = str(tmp_path / "y.csv")
    for payload, field in [
        ('{"re": [[1.0]]}', "'im'"),
        ('{"im": [[1.0]]}', "'re'"),
        ("[[1.0]]", "'re'"),
    ]:
        spec.write_text(payload)
        code, _, err = run(capsys, ["dft", "--inverse", "--in", str(spec), "--out", out])
        assert code == 1
        assert err.startswith("error:") and field in err


def test_dft_requires_a_mode(capsys):
    code, _, err = run(capsys, ["dft", "--d", "4"])
    assert code == 1
    assert "--check-diag" in err or "--in" in err


# --------------------------------------------------------------- davenport


def test_davenport_d3_exact_line(capsys):
    code, out, _ = run(capsys, ["davenport", "--d", "3"])
    assert code == 0
    assert out.splitlines()[0] == "D=5, zero-sum-free witness length 4"


def test_davenport_d2_exact_line(capsys):
    code, out, _ = run(capsys, ["davenport", "--d", "2"])
    assert code == 0
    assert out.splitlines()[0] == "D=3, zero-sum-free witness length 2"


def test_davenport_report(capsys, tmp_path):
    out_path = tmp_path / "dav.json"
    code, _, _ = run(capsys, ["davenport", "--d", "3", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["constant"] == 5
    assert data["certified"] is True
    witness = GroupSequence.from_elements(3, [tuple(p) for p in data["witness"]])
    assert witness.degree == 4
    assert data["version"] == invlayers.__version__


def test_davenport_witness_only_beyond_exhaustive_budget(capsys, tmp_path):
    out_path = tmp_path / "dav.json"
    code, out, _ = run(capsys, ["davenport", "--d", "6", "--out", str(out_path)])
    assert code == 0
    assert out.splitlines()[0] == "D=11, zero-sum-free witness length 10"
    assert json.loads(out_path.read_text())["certified"] is False


def test_davenport_invalid_d_exits_one(capsys):
    code, _, err = run(capsys, ["davenport", "--d", "0"])
    assert code == 1
    assert err.startswith("error:")


# --------------------------------------------------------------- decompose


def test_decompose_splits_long_zero_sum_monomial(capsys, tmp_path):
    mono = tmp_path / "mono.json"
    elements = [[1, 0]] * 3 + [[0, 1]] * 3 + [[1, 1], [2, 2]]
    mono.write_text(json.dumps(elements))
    out_path = tmp_path / "factors.json"
    code, out, _ = run(
        capsys,
        ["decompose", "--d", "3", "--monomial", str(mono), "--out", str(out_path)],
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    factors = [
        GroupSequence.from_elements(3, [tuple(p) for p in f]) for f in data["factors"]
    ]
    assert len(factors) >= 2
    total = GroupSequence.from_elements(3, [])
    for f in factors:
        assert is_zero_sum(f)
        assert 1 <= f.degree <= 5
        total = total.add(f)
    original = GroupSequence.from_elements(3, [tuple(p) for p in elements])
    assert total == original
    assert "factors" in out or out == ""


def test_decompose_short_monomial_passes_through(capsys, tmp_path):
    mono = tmp_path / "mono.json"
    mono.write_text(json.dumps([[1, 0], [2, 0]]))
    out_path = tmp_path / "factors.json"
    code, _, _ = run(
        capsys,
        ["decompose", "--d", "3", "--monomial", str(mono), "--out", str(out_path)],
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["factors"]) == 1


def test_decompose_rejects_non_zero_sum(capsys, tmp_path):
    mono = tmp_path / "mono.json"
    mono.write_text(json.dumps([[1, 0]]))
    code, _, err = run(capsys, ["decompose", "--d", "3", "--monomial", str(mono)])
    assert code == 1
    assert "zero-sum" in err


def test_decompose_rejects_out_of_range_entries(capsys, tmp_path):
    mono = tmp_path / "mono.json"
    mono.write_text(json.dumps([[5, 0], [1, 0]]))
    code, _, err = run(capsys, ["decompose", "--d", "3", "--monomial", str(mono)])
    assert code == 1


# ------------------------------------------------------------- conjectures


def test_conjectures_nmax3_csv_rows(capsys):
    code, out, _ = run(capsys, ["conjectures", "--nmax", "3"])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 7
    assert all(r["A"] == "true" and r["B"] == "true" for r in rows)


def test_conjectures_nmax4_has_18_rows(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    out_json = tmp_path / "sweep.json"
    code, _, _ = run(
        capsys,
        [
            "conjectures",
            "--nmax",
            "4",
            "--out",
            str(out_csv),
            "--json-out",
            str(out_json),
        ],
    )
    assert code == 0
    with open(out_csv, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 18
    assert all(r["A"] == "true" and r["B"] == "true" for r in rows)
    data = json.loads(out_json.read_text())
    assert data["version"] == invlayers.__version__
    assert len(data["reports"]) == 18
    assert data["summary"]["4"]["classes"] == 11
    assert data["summary"]["4"]["a"]["true"] == 11


def test_conjectures_reads_graph6_file(capsys, tmp_path):
    g6 = tmp_path / "graphs.g6"
    g6.write_text("Bw\nA_\n")  # triangle and a single edge
    code, out, _ = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2
    assert {r["graph6"] for r in rows} == {"Bw", "A_"}


def test_conjectures_cap_full_matches_default_for_small_n(capsys):
    _, out_default, _ = run(capsys, ["conjectures", "--nmax", "3"])
    _, out_full, _ = run(capsys, ["conjectures", "--nmax", "3", "--cap", "full"])
    assert out_default == out_full  # 2n >= full certification cap for n <= 3


def test_conjectures_deterministic_output(capsys):
    _, out1, _ = run(capsys, ["conjectures", "--nmax", "3"])
    _, out2, _ = run(capsys, ["conjectures", "--nmax", "3"])
    assert out1 == out2


def test_conjectures_jobs_matches_serial(capsys):
    _, serial, _ = run(capsys, ["conjectures", "--nmax", "3"])
    code, parallel, _ = run(capsys, ["conjectures", "--nmax", "3", "--jobs", "2"])
    assert code == 0
    assert parallel == serial


def test_conjectures_invalid_nmax_exits_one(capsys):
    code, _, err = run(capsys, ["conjectures", "--nmax", "0"])
    assert code == 1


def test_conjectures_nmax_beyond_range_exits_two(capsys):
    code, _, err = run(capsys, ["conjectures", "--nmax", "9"])
    assert code == 2
    assert "--nmax" in err


def test_conjectures_bad_cap_exits_one(capsys):
    code, _, err = run(capsys, ["conjectures", "--nmax", "3", "--cap", "half"])
    assert code == 1
    assert "--cap" in err


def test_counterexample_exit_code_is_three():
    from invlayers.cli import sweep_exit_code
    from invlayers.invariant_ring import ConjectureReport

    def make(a, b):
        return ConjectureReport(
            graph6="Bw",
            n=3,
            aut_order=6,
            orbit_sizes=(3,),
            max_orbit=3,
            new_by_degree=((1, 1),),
            beta_proxy=1,
            cap=3,
            verified_up_to=3,
            invariant_dims=(1, 2, 3),
            a_verdict=a,
            b_verdict=b,
            arithmetic="exact",
        )

    assert sweep_exit_code([make("true", "true")]) == 0
    assert sweep_exit_code([make("capped", "true")]) == 0
    assert sweep_exit_code([make("true", "false")]) == 3
    assert sweep_exit_code([make("false", "true"), make("true", "true")]) == 3


# ------------------------------------------------------------- selftests


@pytest.mark.parametrize(
    "cmd",
    [
        "dims",
        "basis",
        "layer-apply",
        "cyclic-dims",
        "dft",
        "davenport",
        "decompose",
        "conjectures",
    ],
)
def test_every_subcommand_has_selftest(capsys, cmd):
    code, out, _ = run(capsys, [cmd, "--selftest"])
    assert code == 0
    assert "ok" in out


# ------------------------------------------------------------ entry points


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "invlayers", "dims", "--m", "2", "--k", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_console_script_installed():
    exe = shutil.which("invlayers")
    assert exe is not None
    proc = subprocess.run(
        [exe, "davenport", "--d", "2"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "D=3, zero-sum-free witness length 2"


def test_no_arguments_prints_usage_and_exits_one(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "usage" in err.lower()


def test_budget_override_via_environment(tmp_path):
    # The environment is built from scratch so that no other INVLAYERS_*
    # variable leaks in; PYTHONPATH points the child at the same invlayers
    # tree this process imported, installed or not.
    base = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(invlayers.__file__).resolve().parents[1]),
    }

    def davenport_report(env, name):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "invlayers", "davenport", "--d", "3", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text())

    data = davenport_report(base, "default.json")
    assert data["certified"] is True
    assert data["config"]["budget"]["davenport_exhaustive_max_d"] == 4

    env = {**base, "INVLAYERS_DAVENPORT_EXHAUSTIVE_MAX_D": "2"}
    data = davenport_report(env, "r.json")
    assert data["certified"] is False  # exhaustive certification gated off by env
    assert data["config"]["budget"]["davenport_exhaustive_max_d"] == 2
