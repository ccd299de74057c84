"""End-to-end tests of the command-line interface.

Each subcommand is exercised through ``main(argv)`` so stdout/stderr and
exit codes can be asserted in-process.  One subprocess test covers the
installed ``invlayers`` entry point; the others run ``python -m invlayers``
from the source tree under test, some with a budget set through an
``INVLAYERS_<FIELD>`` environment variable, well-formed or not.  Expected
numbers reuse the independently frozen values from the library test files.
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
from invlayers.budgets import Budgets
from invlayers.cli import main
from invlayers.combinat import gen_bell
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "3", "--k", "1", "--sizes", "1,2"], "--sizes must list exactly m=3 sizes, got 2"),
        (["--m", "2", "--k", "1", "--sizes", "0,2"], "--sizes must be positive ints, got 0"),
        # the length is checked before the entries
        (["--m", "3", "--k", "1", "--sizes", "0,2"], "--sizes must list exactly m=3 sizes, got 2"),
    ],
    ids=["length", "positive", "length-first"],
)
def test_dims_checks_sizes_without_oracle(capsys, tmp_path, argv, message):
    out_path = tmp_path / "dims.json"
    code, out, err = run(capsys, ["dims", *argv, "--out", str(out_path)])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_dims_valid_sizes_without_oracle_print_the_formula(capsys, tmp_path):
    out_path = tmp_path / "dims.json"
    code, out, err = run(capsys, ["dims", "--m", "2", "--k", "2", "--sizes", "1,3",
                                  "--out", str(out_path)])
    assert (code, out, err) == (0, "6\n", "")
    data = json.loads(out_path.read_text())
    assert data["config"]["sizes"] == [1, 3]
    assert data["oracle"] is None


def test_dims_invalid_m_exits_one(capsys):
    code, out, err = run(capsys, ["dims", "--m", "0", "--k", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: --m must be positive, got 0\n"


def test_dims_negative_m_names_its_flag(capsys):
    code, out, err = run(capsys, ["dims", "--m", "-1", "--k", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: --m must be positive, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--m", "2", "--k", "2", "--d", "-1"],
        ["dims", "--m", "2", "--k", "-1", "--d", "2"],
        ["dims", "--m", "2", "--k", "3", "--d", "-2", "--sizes", "2,2", "--oracle"],
    ],
)
def test_dims_negative_order_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --") and "must be nonnegative" in err


def test_dims_order_beyond_cap_exits_two(capsys):
    code, _, err = run(capsys, ["dims", "--m", "2", "--k", "99"])
    assert code == 2
    assert "budget" in err or "cap" in err


def test_dims_high_order_in_a_fresh_process():
    # a fresh process holds no cached Stirling rows, so row 600 is built whole
    proc = subprocess.run(
        [sys.executable, "-m", "invlayers", "dims", "--m", "2", "--k", "600"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**_child_env(), "INVLAYERS_AXIS_CAP": "600"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == f"{gen_bell(2, 600)}\n"


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


def test_basis_file_loads_as_the_built_basis(capsys, tmp_path):
    from invlayers.permgroup import TypedNodeSet
    from invlayers.tensor_basis import build_full_basis, load_basis

    out_path = tmp_path / "b.json"
    run(capsys, ["basis", "--k", "2", "--sizes", "2,1", "--out", str(out_path)])
    expected = [(b.descriptor, b.tensor) for b in build_full_basis(2, TypedNodeSet((2, 1)))]
    assert [(b.descriptor, b.tensor) for b in load_basis(str(out_path))] == expected
    golden = load_basis(str(Path(__file__).parent / "data" / "cli_golden" / "basis.json"))
    assert [(b.descriptor, b.tensor) for b in golden] == expected


def test_basis_negative_order_names_its_flag(capsys):
    code, out, err = run(capsys, ["basis", "--k", "-1", "--sizes", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: --k must be nonnegative, got -1\n"


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


def test_basis_descriptor_count_is_budgeted(capsys):
    # 5**8 index tuples fit the budget, gen_bell(5, 8) descriptors do not
    code, out, err = run(capsys, ["basis", "--k", "8", "--sizes", "1,1,1,1,1"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: budget exceeded:")
    assert "11202680 descriptors" in err


def test_basis_takes_its_type_cap_from_the_environment(capsys, monkeypatch):
    # nine one-node types: one cap above the default type cap of 8
    monkeypatch.setenv("INVLAYERS_TYPE_CAP", "9")
    code, out, _ = run(capsys, ["basis", "--k", "1", "--sizes", ",".join(["1"] * 9)])
    assert code == 0
    assert json.loads(out)["count"] == 9


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


def test_layer_apply_refuses_bool_type_sizes(capsys, tmp_path):
    # JSON true is a Python int, and would pass as a one-node block
    w, x = tmp_path / "w.json", tmp_path / "x.json"
    _write_weights(w, W=[1, 0, 0, 0], v=[1, 0], sizes=(True, 2))
    x.write_text(json.dumps([1.0, 2.0, 3.0]))
    code, out, err = run(capsys, ["layer-apply", "--weights", str(w), "--input", str(x)])
    assert code == 1
    assert out == ""
    assert err == "error: type sizes must be positive ints, got True\n"


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"type_sizes": 3, "W": [1], "v": [1]}, "type_sizes"),
        (3, "JSON object"),
        ([1, 2], "JSON object"),
        ({"type_sizes": [1], "W": {"a": 1}, "v": [1]}, "'W'"),
        ({"type_sizes": [1], "W": [1], "v": [1], "c": [{}]}, "'c'"),
    ],
)
def test_layer_apply_wrongly_typed_weights_exit_one(capsys, tmp_path, payload, named):
    w, x = tmp_path / "w.json", tmp_path / "x.json"
    w.write_text(json.dumps(payload))
    x.write_text(json.dumps([1.0]))
    code, _, err = run(capsys, ["layer-apply", "--weights", str(w), "--input", str(x)])
    assert code == 1
    assert err.startswith("error:")
    assert named in err


@pytest.mark.parametrize(
    "weights, x, message",
    [
        (
            {"type_sizes": [2, 1], "W": [1, 0, 0], "v": [1, 0]},
            [1.0, 2.0, 3.0],
            "--weights file w.json field 'W' must have m*m = 4 entries, got 3",
        ),
        (
            {"type_sizes": {"a": 2}, "W": [1], "v": [1]},
            [1.0],
            "--weights file w.json field 'type_sizes' must be a list of positive ints",
        ),
        (
            {"type_sizes": [2, 1], "W": [1, 0, 0, 0], "v": [1, 0]},
            {"y": [1.0, 2.0, 3.0]},
            "--input file x.json must be a JSON list or contain an 'x' field",
        ),
        (
            {"type_sizes": [2, 1], "W": [1, 0, 0, 0], "v": [1, 0]},
            [1.0, 2.0],
            "--input file x.json must hold a vector of 3 numbers, got shape (2,)",
        ),
        (
            {"type_sizes": [2, 1], "W": [1, 0, 0, 0], "v": [1, 0]},
            {"x": [[1.0, 2.0, 3.0]]},
            "--input file x.json must hold a vector of 3 numbers, got shape (1, 3)",
        ),
        (
            {"type_sizes": [2, 1], "W": [1, 0, 0, 0], "v": [1, 0, 0]},
            [1.0, 2.0, 3.0],
            "--weights file w.json field 'v' must hold a vector of 2 numbers, got shape (3,)",
        ),
        (
            {"type_sizes": [2, 1], "W": [1, 0, 0, 0], "v": [1, 0], "c": [1]},
            [1.0, 2.0, 3.0],
            "--weights file w.json field 'c' must hold a vector of 2 numbers, got shape (1,)",
        ),
        (
            {"type_sizes": [], "W": [], "v": []},
            [],
            "--weights file w.json field 'type_sizes' must be a list of positive ints",
        ),
        (
            {"type_sizes": [0, 2], "W": [1, 0, 0, 0], "v": [1, 0]},
            [1.0, 2.0],
            "--weights file w.json field 'type_sizes' must be a list of positive ints",
        ),
    ],
    ids=[
        "W-entry-count", "type_sizes-not-a-list", "no-x-field", "short-vector", "nested-vector",
        "v-length", "c-length", "type_sizes-empty", "type_sizes-zero",
    ],
)
def test_layer_apply_errors_name_their_file(capsys, tmp_path, monkeypatch, weights, x, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps(weights))
    (tmp_path / "x.json").write_text(json.dumps(x))
    code, out, err = run(capsys, ["layer-apply", "--weights", "w.json", "--input", "x.json"])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "W, x, named",
    [
        ([1, 0, 0, 0], [float("nan"), 1.0, 2.0], "--input file x.json"),
        ([1, 0, float("inf"), 0], [1.0, 2.0, 3.0], "--weights file w.json field 'W'"),
    ],
)
def test_layer_apply_refuses_non_finite_input(capsys, tmp_path, monkeypatch, W, x, named):
    monkeypatch.chdir(tmp_path)
    _write_weights(tmp_path / "w.json", W=W, v=[1, 0])
    (tmp_path / "x.json").write_text(json.dumps(x))
    code, out, err = run(capsys, ["layer-apply", "--weights", "w.json", "--input", "x.json"])
    assert code == 1
    assert out == ""
    assert err == f"error: {named} holds a non-finite number\n"


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
        assert err == f"error: --images must be positive, got {images}\n"


def test_dft_check_diag_refuses_a_non_finite_or_negative_tol(capsys):
    # a NaN tolerance compares false with any deviation, so it would pass
    for tol in ("nan", "inf", "-inf", "-1e-9"):
        code, out, err = run(capsys, ["dft", "--d", "4", "--check-diag", f"--tol={tol}"])
        assert code == 1
        assert out == ""
        assert err == f"error: --tol must be a finite nonnegative number, got {float(tol)}\n"
    # a zero tolerance is valid: one pixel translates with no rounding
    code, _, _ = run(capsys, ["dft", "--d", "1", "--check-diag", "--tol", "0"])
    assert code == 0


def test_dft_check_diag_deviation_above_tol_exits_one(capsys, tmp_path):
    # four pixels translate with rounding, so no deviation is within --tol 0
    out = tmp_path / "diag.json"
    argv = ["dft", "--d", "4", "--check-diag", "--tol", "0", "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 1
    assert stdout.startswith("max diagonalization deviation ")
    assert err.count("\n") == 1
    assert err.startswith("error: deviation ") and err.endswith(" exceeds --tol 0.0e+00\n")
    assert not out.exists()


def test_dft_check_diag_writes_its_report(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run(capsys, ["dft", "--d", "3", "--check-diag", "--out", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    assert 0 <= report["max_deviation"] <= 1e-9
    config = report["config"]
    assert {key: config[key] for key in ("d", "images", "seed", "tol")} == {
        "d": 3, "images": 50, "seed": 0, "tol": 1e-9,
    }


def test_dft_check_diag_refuses_a_negative_seed(capsys):
    code, out, err = run(capsys, ["dft", "--d", "4", "--check-diag", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


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


def test_dft_input_that_is_not_json_names_the_file(capsys, tmp_path):
    out = str(tmp_path / "z.json")
    for flags, name in [([], "x.json"), (["--inverse"], "z_in.json")]:
        bad = tmp_path / name
        bad.write_text('{"pixels": [[1.0] [2.0]]}')
        code, stdout, err = run(capsys, ["dft", *flags, "--in", str(bad), "--out", out])
        assert code == 1
        assert stdout == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {bad} is not valid JSON: ")


def _run_child(tmp_path, argv):
    return subprocess.run(
        [sys.executable, "-m", "invlayers", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
        cwd=tmp_path,
    )


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["dft", "--in", "bad.json", "--out", "z.json"], ""),
        (["decompose", "--d", "3", "--monomial", "bad.json"], "--monomial file "),
        (["layer-apply", "--weights", "bad.json", "--input", "x.json"], "--weights file "),
    ],
)
def test_json_input_that_is_not_utf8_names_the_file(tmp_path, argv, prefix):
    (tmp_path / "bad.json").write_bytes(b"\xff{}")
    (tmp_path / "x.json").write_text("[1.0, 2.0, 3.0]")
    proc = _run_child(tmp_path, argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {prefix}bad.json is not valid JSON: ")


@pytest.mark.parametrize("rows", ["1.0,abc\n3.0,4.0\n", "1.0,2.0\n3.0\n"])
def test_dft_csv_input_that_is_not_numbers_names_the_file(capsys, tmp_path, rows):
    bad = tmp_path / "x.csv"
    bad.write_text(rows)
    code, stdout, err = run(capsys, ["dft", "--in", str(bad), "--out", str(tmp_path / "z.json")])
    assert code == 1
    assert stdout == ""
    assert err == (
        f"error: {bad} is not CSV with the same number of comma-separated reals on every row\n"
    )


@pytest.mark.parametrize(
    "name, text",
    [
        ("x.csv", "nan,1.0\n2.0,3.0\n"),
        ("x.json", '{"pixels": [[1.0, Infinity], [2.0, 3.0]]}'),
    ],
)
def test_dft_refuses_non_finite_pixels(capsys, tmp_path, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    out = tmp_path / "z.json"
    code, stdout, err = run(capsys, ["dft", "--in", str(bad), "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert err == f"error: {bad} holds a non-finite number\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, shape", [("", "(0, 1)"), ("1.0,2.0,3.0\n4.0,5.0,6.0\n", "(2, 3)")]
)
def test_dft_csv_that_is_empty_or_not_square_names_the_file(tmp_path, rows, shape):
    # in a child process, so that a warning printed to stderr would show
    (tmp_path / "x.csv").write_text(rows)
    proc = _run_child(tmp_path, ["dft", "--in", "x.csv", "--out", "z.json"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: x.csv: expected a square d x d array, got shape {shape}\n"


_LAYER_APPLY = ["layer-apply", "--weights", "w.json", "--input", "x.json"]
_JSON_CANNOT_HOLD = "the result holds a non-finite number, which JSON cannot hold"


@pytest.mark.parametrize(
    "argv, message",
    [
        (_LAYER_APPLY, _JSON_CANNOT_HOLD),
        (_LAYER_APPLY + ["--out", "y.json"], _JSON_CANNOT_HOLD),
        (
            ["dft", "--in", "x.csv", "--out", "y.json"],
            "not writing y.json: the result holds a non-finite number",
        ),
    ],
)
def test_overflowing_results_are_one_error_line(tmp_path, argv, message):
    # finite inputs whose results overflow: no warning, and no file written
    (tmp_path / "w.json").write_text(
        json.dumps({"type_sizes": [2, 1], "W": [[1e308] * 2] * 2, "v": [1e308, 1.0]})
    )
    (tmp_path / "x.json").write_text(json.dumps([1e308, 1e308, 1.0]))
    (tmp_path / "x.csv").write_text("1e308,1e308\n1e308,1e308\n")
    proc = _run_child(tmp_path, argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message}\n"
    assert not (tmp_path / "y.json").exists()


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


def _good_inputs():
    """A valid file for each number-holding place in a CLI input file."""
    return {
        "w.json": {"type_sizes": [2, 1], "W": [1, 0, 0, 0], "v": [1, 0], "c": [1, 5]},
        "x.json": [1.0, 2.0, 3.0],
        "i.json": {"pixels": [[1, 2], [3, 4]]},
        "s.json": {"re": [[1, 2], [3, 4]], "im": [[0, 0], [0, 0]]},
    }


_FORWARD = ["dft", "--in", "i.json", "--out", "out.json"]
_INVERSE = ["dft", "--inverse", "--in", "s.json", "--out", "out.json"]
# place: (file, field or None for the whole file, command, name in the error)
_NUMBER_PLACES = {
    "W": ("w.json", "W", _LAYER_APPLY, "--weights file w.json field 'W'"),
    "v": ("w.json", "v", _LAYER_APPLY, "--weights file w.json field 'v'"),
    "c": ("w.json", "c", _LAYER_APPLY, "--weights file w.json field 'c'"),
    "input": ("x.json", None, _LAYER_APPLY, "--input file x.json"),
    "pixels": ("i.json", "pixels", _FORWARD, "i.json"),
    "re": ("s.json", "re", _INVERSE, "s.json"),
    "im": ("s.json", "im", _INVERSE, "s.json"),
}


def _write_inputs(tmp_path, place=None, rows=None):
    payloads = _good_inputs()
    if place is not None:
        name, field, _, _ = _NUMBER_PLACES[place]
        if field is None:
            payloads[name] = rows
        else:
            payloads[name][field] = rows
    for name, payload in payloads.items():
        (tmp_path / name).write_text(json.dumps(payload))


@pytest.mark.parametrize("place", sorted(_NUMBER_PLACES))
def test_number_places_accept_their_valid_files(capsys, tmp_path, monkeypatch, place):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    code, _, err = run(capsys, _NUMBER_PLACES[place][2])
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param([["1", 0], [0, 0]], "must hold only numbers", id="string"),
        pytest.param([[1, 0], [True, 0]], "must hold only numbers", id="bool"),
        pytest.param([[1, 0], [0, None]], "must hold only numbers", id="null"),
        pytest.param([[1, 0], [0]], "has rows of unequal length", id="ragged"),
        pytest.param([[1, 10**400], [0, 0]], "holds an int beyond float range", id="huge-int"),
    ],
)
@pytest.mark.parametrize("place", sorted(_NUMBER_PLACES))
def test_input_entries_that_are_not_numbers_are_one_error_line(
    capsys, tmp_path, monkeypatch, place, rows, message
):
    # JSON strings, bools and null are not numbers, even where float() or
    # numpy would read them as one
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, place, rows)
    code, out, err = run(capsys, _NUMBER_PLACES[place][2])
    assert (code, out) == (1, "")
    assert err == f"error: {_NUMBER_PLACES[place][3]} {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_input_int_beyond_float_range_prints_no_traceback(tmp_path):
    _write_inputs(tmp_path, "input", [1.0, 10**400, 3.0])
    proc = _run_child(tmp_path, _LAYER_APPLY)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --input file x.json holds an int beyond float range\n"


def test_dft_inverse_refuses_re_and_im_of_different_shapes(capsys, tmp_path, monkeypatch):
    # an im of one coefficient would broadcast over every re coefficient
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"re": [[1, 2], [3, 4]], "im": [[0.5]]}))
    code, out, err = run(capsys, _INVERSE)
    assert (code, out) == (1, "")
    assert err == "error: s.json: 're' has shape (2, 2) but 'im' has (1, 1)\n"
    assert not (tmp_path / "out.json").exists()


def test_dft_inverse_side_mismatch_exits_one(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    code, out, err = run(capsys, [*_INVERSE, "--d", "3"])
    assert (code, out) == (1, "")
    assert err == "error: --d 3 does not match the input side 2\n"
    assert not (tmp_path / "out.json").exists()


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


def test_davenport_witness_only_at_large_d(capsys):
    code, out, _ = run(capsys, ["davenport", "--d", "317"])
    assert code == 0
    assert out.splitlines()[0] == "D=633, zero-sum-free witness length 632"


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


def test_decompose_rejects_boolean_entries(capsys, tmp_path):
    mono = tmp_path / "mono.json"
    mono.write_text(json.dumps([[True, False], [2, 0], [0, 0]]))
    out_path = tmp_path / "factors.json"
    code, _, err = run(
        capsys,
        ["decompose", "--d", "3", "--monomial", str(mono), "--out", str(out_path)],
    )
    assert code == 1
    assert err.startswith("error:")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, monomial, message",
    [
        (["decompose", "--d", "3"], [[1, "a"], [0, 0]],
         "--monomial file m.json: element (1, 'a') is not an integer pair"),
        (["decompose", "--d", "3"], [[5, 0], [1, 0]],
         "--monomial file m.json: element (5, 0) out of range for modulus 3"),
        (["decompose", "--d", "3"], {"pairs": []},
         "--monomial file m.json must be a JSON list of [a, b] pairs"),
        (["decompose", "--d", "3"], [[1, 0]],
         "--monomial file m.json is not zero-sum: exponents sum to (1, 0) mod 3"),
        # --d is checked before the file is read
        (["decompose", "--d", "0"], None, "--d must be positive, got 0"),
        (["davenport", "--d", "0"], None, "--d must be positive, got 0"),
        (["cyclic-dims", "--n", "0", "--k", "2"], None, "--n must be positive, got 0"),
        (["cyclic-dims", "--n", "3", "--k", "0"], None, "--k must be positive, got 0"),
        (["cyclic-dims", "--d", "-2", "--k", "2"], None, "--d must be positive, got -2"),
        (["dft", "--d", "0", "--check-diag"], None, "--d must be positive, got 0"),
        (["dft", "--d", "3", "--check-diag", "--images", "0"], None,
         "--images must be positive, got 0"),
        (["conjectures", "--nmax", "0"], None, "--nmax must be positive, got 0"),
        (["conjectures", "--nmax", "2", "--jobs", "0"], None, "--jobs must be positive, got 0"),
        (["dims", "--m", "2", "--k", "1", "--sizes", "0,2", "--oracle"], None,
         "--sizes must be positive ints, got 0"),
        (["basis", "--k", "1", "--sizes", "0,1"], None, "--sizes must be positive ints, got 0"),
    ],
    ids=[
        "not-an-int", "out-of-range", "not-a-list", "not-zero-sum", "decompose-d",
        "davenport-d", "cyclic-n", "cyclic-k", "cyclic-d", "dft-d", "dft-images",
        "conjectures-nmax", "conjectures-jobs", "dims-sizes", "basis-sizes",
    ],
)
def test_errors_name_their_flag_or_file(capsys, tmp_path, monkeypatch, argv, monomial, message):
    monkeypatch.chdir(tmp_path)
    if monomial is not None:
        (tmp_path / "m.json").write_text(json.dumps(monomial))
    if argv[0] == "decompose":
        argv = argv + ["--monomial", "m.json"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["dims", "--m", "9", "--k", "1"], 2, "budget exceeded: --m 9 exceeds the type cap 8"),
        (["basis", "--k", "9", "--sizes", "2"], 2,
         "budget exceeded: --k 9 exceeds the axis cap 8"),
        (["basis", "--k", "1", "--sizes", ",".join(["1"] * 9)], 2,
         "budget exceeded: --sizes lists 9 types, cap is 8"),
        (["dims", "--m", "2", "--k", "1", "--sizes", "1,x"], 1,
         "argument --sizes: expected a comma-separated integer list, got '1,x'"),
        (["dft", "--in", "z.json"], 1, "--out is required when transforming files"),
    ],
    ids=["dims-type-cap", "basis-axis-cap", "basis-type-cap", "sizes-not-ints", "dft-no-out"],
)
def test_cli_refusals(capsys, monkeypatch, argv, exit_code, message):
    for name in Budgets.__dataclass_fields__:
        monkeypatch.delenv("INVLAYERS_" + name.upper(), raising=False)
    code, out, err = run(capsys, argv)
    assert code == exit_code
    assert out == ""
    assert err == f"error: {message}\n"


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


NMAX3_SUMMARY = (
    "n=1: 1 classes, A true=1 capped=0 false=0, B true=1 capped=0 false=0\n"
    "n=2: 2 classes, A true=2 capped=0 false=0, B true=2 capped=0 false=0\n"
    "n=3: 4 classes, A true=4 capped=0 false=0, B true=4 capped=0 false=0\n"
)


def test_conjectures_console_streams(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["conjectures", "--nmax", "3"])
    assert code == 0
    assert out.startswith("graph6,n,aut_order,max_orbit,generator_degrees,verified_up_to,A,B\n")
    assert len(out.splitlines()) == 8
    assert err == NMAX3_SUMMARY
    csv_text = out
    code, out, err = run(capsys, ["conjectures", "--nmax", "3", "--out", "f.csv"])
    assert code == 0
    assert out == "wrote 7 rows to f.csv\n" + NMAX3_SUMMARY
    assert err == ""
    assert Path("f.csv").read_text() == csv_text


def test_conjectures_pooled_graph6_file_matches_serial(capsys, tmp_path):
    # seeded relabelings, most not in canonical form, so pooled workers get
    # parsed non-canonical graphs
    from invlayers.graphs import enumerate_graphs, write_graph6, write_graph6_file
    from invlayers.permgroup import Permutation

    rng = np.random.default_rng(29)
    classes = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    moved = [g.relabel(Permutation(tuple(map(int, rng.permutation(g.n))))) for g in classes]
    assert sum(write_graph6(h) != write_graph6(g) for h, g in zip(moved, classes)) > 20
    g6 = tmp_path / "moved.g6"
    write_graph6_file(g6, moved)
    code, serial, err = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 0
    code, pooled, pooled_err = run(capsys, ["conjectures", "--in", str(g6), "--jobs", "2"])
    assert code == 0
    assert pooled == serial and pooled_err == err
    assert len(serial.splitlines()) == 1 + len(moved)


def test_conjectures_reads_graph6_file(capsys, tmp_path):
    g6 = tmp_path / "graphs.g6"
    g6.write_text("Bw\nA_\n")  # triangle and a single edge
    code, out, _ = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2
    assert {r["graph6"] for r in rows} == {"Bw", "A_"}


def test_conjectures_refuses_one_class_on_two_lines(capsys, tmp_path):
    # a repeated class would write two identical rows and count twice
    g6 = tmp_path / "graphs.g6"
    cases = [
        ("Bw\nA_\n\nBw\n", "1 and 4", "Bw"),  # the triangle twice, a blank line between
        ("A_\nBg\nBo\n", "2 and 3", "BW"),  # two labelings of the 3-vertex path
    ]
    for text, lines, canonical in cases:
        g6.write_text(text)
        code, out, err = run(capsys, ["conjectures", "--in", str(g6)])
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {g6}: lines {lines} hold one graph class, canonical graph6 {canonical}\n"
        )


def test_conjectures_refuses_in_with_nmax(capsys, tmp_path):
    # the file sets the graphs, so a --nmax beside it would go unread
    g6 = tmp_path / "graphs.g6"
    g6.write_text("Bw\nC~\n")
    report = tmp_path / "report.json"
    for flags, message in [
        (["--in", str(g6), "--nmax", "1"], "argument --nmax: not allowed with argument --in"),
        (["--nmax", "1", "--in", str(g6)], "argument --in: not allowed with argument --nmax"),
    ]:
        code, out, err = run(capsys, ["conjectures", *flags, "--json-out", str(report)])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not report.exists()


def test_conjectures_names_the_line_of_a_bad_graph6_entry(capsys, tmp_path):
    g6 = tmp_path / "graphs.g6"
    g6.write_text("Bw\nzz!\n")
    code, out, err = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 1
    assert out == ""
    assert err == f"error: {g6}: line 2: byte 3: need 286 data bytes for n=59, found 2\n"


def test_conjectures_names_the_line_of_a_non_ascii_byte(capsys, tmp_path):
    g6 = tmp_path / "graphs.g6"
    g6.write_bytes(b"Bw\n\xff\xfe\n")
    code, out, err = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 1
    assert out == ""
    assert err == f"error: {g6}: line 2: byte 0: invalid header byte 255\n"
    g6.write_bytes(b"Bw\nC~\xa0\n")  # a non-ASCII space is data, not padding
    code, out, err = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 1
    assert err == f"error: {g6}: line 2: byte 2: trailing bytes after 1 data bytes for n=4\n"


def test_conjectures_names_the_line_of_a_graph_with_no_vertices(capsys, tmp_path):
    # refused as the file is read, before the sweep checks the graph on line 1
    g6 = tmp_path / "graphs.g6"
    g6.write_text("Bw\n\n?\n")
    code, out, err = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 1
    assert out == ""
    assert err == f"error: {g6}: line 3: 0 vertices, fewer than 1\n"


def test_conjectures_holds_graph6_file_to_the_vertex_cap(capsys, tmp_path):
    # an edgeless 8-vertex graph: its automorphism search alone keeps 8! orders
    g6 = tmp_path / "graphs.g6"
    g6.write_text("Bw\nG?????\n")
    code, out, err = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 2
    assert out == ""
    assert err == (
        f"error: budget exceeded: {g6}: line 2: 8 vertices exceed the verification range cap 7\n"
    )
    g6.write_text("F????\n")  # seven vertices still run
    code, out, _ = run(capsys, ["conjectures", "--in", str(g6)])
    assert code == 0
    assert [r["n"] for r in csv.DictReader(out.splitlines())] == ["7"]


def test_conjectures_cap_full_matches_default_for_small_n(capsys):
    _, out_default, _ = run(capsys, ["conjectures", "--nmax", "3"])
    _, out_full, _ = run(capsys, ["conjectures", "--nmax", "3", "--cap", "full"])
    assert out_default == out_full  # 2n >= full certification cap for n <= 3


def test_conjectures_integer_cap_certifies_up_to_its_degree(capsys):
    code, out, _ = run(capsys, ["conjectures", "--nmax", "4", "--cap", "3"])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 18
    for row in rows:
        small = int(row["n"]) <= 3
        assert row["verified_up_to"] == (row["n"] if small else "3")
        assert row["A"] == row["B"] == ("true" if small else "capped")


def test_conjectures_deterministic_output(capsys):
    _, out1, _ = run(capsys, ["conjectures", "--nmax", "3"])
    _, out2, _ = run(capsys, ["conjectures", "--nmax", "3"])
    assert out1 == out2


def test_conjectures_jobs_matches_serial(capsys):
    _, serial, _ = run(capsys, ["conjectures", "--nmax", "3"])
    code, parallel, _ = run(capsys, ["conjectures", "--nmax", "3", "--jobs", "2"])
    assert code == 0
    assert parallel == serial


def test_conjectures_jobs_below_one_exits_one(capsys):
    code, out, err = run(capsys, ["conjectures", "--nmax", "3", "--jobs", "0"])
    assert code == 1
    assert out == ""
    assert err == "error: --jobs must be positive, got 0\n"


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


def test_conjectures_negative_cap_exits_one(capsys):
    code, out, err = run(capsys, ["conjectures", "--nmax", "3", "--cap", "-3"])
    assert code == 1
    assert out == ""
    assert err == "error: --cap must be 'full', '2n', or a nonnegative integer, got '-3'\n"


def test_conjectures_refuses_a_negative_cap_before_reading_the_file(capsys, tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    for path in (empty, tmp_path / "missing.g6"):
        code, out, err = run(capsys, ["conjectures", "--in", str(path), "--cap", "-1"])
        assert code == 1
        assert out == ""
        assert err == "error: --cap must be 'full', '2n', or a nonnegative integer, got '-1'\n"


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


# ---------------------------------------------------------- golden reports

GOLDEN = Path(__file__).parent / "data" / "cli_golden"


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--m", "2", "--k", "1", "--d", "1", "--sizes", "3,2", "--oracle",
         "--out", "dims.json"],
        ["basis", "--k", "2", "--sizes", "2,1", "--out", "basis.json"],
        ["layer-apply", "--weights", "w.json", "--input", "x.json", "--out", "layer_apply.json"],
        ["cyclic-dims", "--n", "4", "--k", "3", "--oracle", "--out", "cyclic_dims.json"],
        ["davenport", "--d", "3", "--out", "davenport.json"],
        ["decompose", "--d", "3", "--monomial", "m.json", "--out", "decompose.json"],
        ["conjectures", "--nmax", "4", "--cap", "full", "--out", "conjectures.csv",
         "--json-out", "conjectures.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_reports_match_golden_bytes(capsys, tmp_path, monkeypatch, argv):
    # Relative paths, since the config echoes them; default budgets, since it
    # echoes those too.
    for name in Budgets.__dataclass_fields__:
        monkeypatch.delenv("INVLAYERS_" + name.upper(), raising=False)
    monkeypatch.chdir(tmp_path)
    _write_weights(tmp_path / "w.json", W=[1, 0, 0, 0], v=[1, 0])
    (tmp_path / "x.json").write_text(json.dumps([1.0, 2.0, 3.0]))
    elements = [[1, 0]] * 3 + [[0, 1]] * 3 + [[1, 1], [2, 2]]
    (tmp_path / "m.json").write_text(json.dumps(elements))
    code, _, _ = run(capsys, argv)
    assert code == 0
    for flag, name in zip(argv, argv[1:]):
        if flag in ("--out", "--json-out"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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


def test_selftest_refuses_to_run_without_assertions():
    # python -O strips every assert a selftest makes, so a pass would mean nothing
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "invlayers", "dims", "--selftest"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: --selftest needs assertions, which python -O turns off\n"


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


def _child_env():
    # The environment is built from scratch so that no other INVLAYERS_*
    # variable leaks in; PYTHONPATH points the child at the same invlayers
    # tree this process imported, installed or not.
    return {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(invlayers.__file__).resolve().parents[1]),
    }


def test_budget_override_via_environment(tmp_path):
    base = _child_env()

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


@pytest.mark.parametrize(
    "name, value",
    [("INVLAYERS_TUPLE_ENUMERATION", "abc"), ("INVLAYERS_MONOMIALS_PER_DEGREE", "-1")],
)
def test_malformed_budget_in_environment_is_one_error_line(name, value):
    proc = subprocess.run(
        [sys.executable, "-m", "invlayers", "conjectures", "--nmax", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**_child_env(), name: value},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {name} must be a non-negative integer, got {value!r}\n"
