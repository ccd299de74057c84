"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in expected.items():
        assert f"\n{name} " in proc.stdout and proc.stdout.count(f" {unit}\n") >= 1


def test_traced_run_emits_every_per_layer_metric():
    proc = bench("--workload", "serve", "--seed", "3", "--seconds", "0.2", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["layers.network_forward.busy_s"]["value"] > 0
    assert result["metrics"]["layers.network_forward.flops_per_byte_computed"]["value"] > 0
    assert "layers.MultiChannelEquivariant.forward" in proc.stdout


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert SPEC["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_identical(workload):
    limit = 6 if workload == "sweep_pool" else 60
    outputs = []
    for traced in (False, True):
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install(tracing.targets())
        try:
            wl = workloads.WORKLOADS[workload](5, True)
            out: list = []
            loop = run.closed_loop(wl, float("inf"), tracer, limit=limit, outputs=out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert loop["failed"] == 0
        outputs.append(out)
    assert len(outputs[0]) == len(outputs[1]) > 0
    assert all(map(same, *outputs))
    assert tracer.spans and all(span[tracing.REQUEST] is not None for span in tracer.spans)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.request = 0
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary(lambda r: r == 0)
    assert summary["inner"]["calls"] == 3
    children = summary["inner"]["total_s"]
    assert summary["outer"]["busy_s"] == pytest.approx(summary["outer"]["total_s"] - children)


def test_speed_probe_leaves_out_its_slices_and_scales():
    probe = speed.Probe()
    probe.slices = [(0.0, 0.001), (1.0, 0.001), (1.5, 0.003), (3.0, 0.002)]
    # Inside (0.5, 2.0): the slices at 1.0 and 1.5; beside it: 0.0 and 3.0.
    assert probe.scales([(0.5, 2.0)]) == pytest.approx([speed.NOMINAL_S / 0.00175])
    assert probe.scales([(3.5, 4.0)]) == pytest.approx([speed.NOMINAL_S / 0.002])
    assert probe.paused(1, 0.5) == pytest.approx(0.006)


def test_speed_probe_ticks_until_stopped():
    probe = speed.Probe()
    probe.start()
    try:
        end = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.stop()
    count = len(probe.slices)
    assert count >= 3 and not probe.ticking
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    time.sleep(3 * speed.PERIOD_S)
    assert len(probe.slices) == count


def test_wrong_output_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads.Exact, "check", lambda self, request, out: False)
    code = run.main(["--workload", "exact", "--seed", "1", "--seconds", "0.05", "--trace", "0", "--tiny"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_latency_has_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    tail, pct = run.tail_latency(values)
    assert pct == 99.0 and sum(v > tail for v in values) >= 10
    assert run.tail_latency([1.0, 2.0, 3.0]) == (3.0, 100.0)
