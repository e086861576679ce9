"""One operation of every workload, untraced and traced, through run.py."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "result.json"
    done = subprocess.run(
        RUN + ["--all", "--traced", "--runs", "1", "--ops", "1", "--seed", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_every_workload_reports_every_end_to_end_metric(result):
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload in result["workloads"].values():
        assert workload["correct"] and workload["failed_ops_share"] == 0
        assert list(workload["end_to_end"]) == names
        assert all(m["value"] > 0 for m in workload["end_to_end"].values())


def test_every_per_layer_metric_is_measured_somewhere(result):
    for metric in SPEC["per_layer"]:
        values = [w["per_layer"][metric["name"]] for w in result["workloads"].values()]
        assert any(v is not None for v in values), metric["name"]
    for workload in result["workloads"].values():
        assert workload["missing_patch_points"] == []
        assert (ROOT / workload["trace_file"]).exists()


def test_bypass_predictions(result):
    layers = {name: w["per_layer"] for name, w in result["workloads"].items()}
    assert layers["train_ring_raw"]["core.stream_compress.calls_per_op"] == 0
    assert layers["train_ring_inc"]["core.stream_compress.calls_per_op"] > 0
    for idle in ("wire_datapath", "exchange_flow"):
        assert layers[idle]["network.kernel.self_s_per_op"] < 0.02
    for name, w in result["workloads"].items():
        assert w["per_layer"]["perfbench.self_time_coverage"] > 0.95, name
    assert layers["train_wa_switch_hc"]["network.switch_reductions_per_iter"] > 0


def test_manifest_carries_the_fingerprint(result):
    manifest = result["manifest"]
    for key in ("python", "numpy", "blas", "nproc", "thread_env", "git_rev",
                "seed", "ops", "harness_version"):  # fmt: skip
        assert key in manifest
    assert manifest["thread_env"]["OMP_NUM_THREADS"] == "1"


def test_driver_line_has_exactly_the_contract_keys():
    done = subprocess.run(
        RUN + ["--workload", "wire_datapath", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_fails_without_the_program_under_test(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))  # fmt: skip
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire_datapath",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert done.returncode != 0
    assert "metrics" not in done.stdout
