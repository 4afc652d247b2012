"""The benchmark's own tests, at the smallest sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import service_workload  # noqa: E402
import simulate_workload  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the layers each workload runs: the ones its traced run reports nonzero
LAYERS = {
    "embed": {"trees", "core", "oracle"},
    "simulate.bsp": {"simulate", "oracle"},
    "simulate.congested": {"simulate"},
    "simulate.pipelined": {"simulate"},
    "simulate.faulted": {"simulate"},
    "service": {"runtime", "service"},
}


def names(kind: str) -> set[str]:
    return {m["name"] for m in MANIFEST[kind]}


def test_manifest_names_the_workloads_run_py_runs():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS) == list(LAYERS)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(LAYERS))
def test_smallest_size_runs_without_failures(workload):
    out = result_of(run_bench("--workload", workload, "--seed", "0", "--seconds", "2",
                              "--trace", "0", "--small"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", list(LAYERS))
def test_traced_run_reports_every_layer(workload):
    out = result_of(run_bench("--workload", workload, "--seed", "1", "--seconds", "2",
                              "--trace", "1", "--small"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == names("per_layer")
    ran = {name.split(".")[0] for name, m in out["metrics"].items() if m["value"]}
    assert LAYERS[workload] <= ran
    assert list((ROOT / ".perfbench").glob(f"{workload}-seed1.*.json"))


def test_a_metric_outside_the_manifest_is_refused():
    wanted = MANIFEST["end_to_end"]
    with pytest.raises(RuntimeError, match="unknown"):
        run.complete({"latency_ms": (1.0, "ms")}, wanted, fill_zero=False)
    with pytest.raises(RuntimeError, match="wrong unit"):
        run.complete({"setup_s": (1.0, "ms")}, wanted, fill_zero=False)
    with pytest.raises(RuntimeError, match="missing"):
        run.complete({"setup_s": (1.0, "s")}, wanted, fill_zero=False)


def run_in_process(module, workdir: Path, seconds: float, **part) -> harness.Ledger:
    ledger = harness.Ledger()
    state = module.setup(0, True, workdir, ROOT, **part)
    try:
        module.measure(state, seconds, ledger, harness.Tracer(), harness.Calibration())
        module.finish(state, ledger)
    finally:
        module.teardown(state)
    return ledger


@pytest.mark.parametrize("part", simulate_workload.PARTS)
def test_tampered_digest_counts_as_a_failed_operation(tmp_path, monkeypatch, part):
    assert simulate_workload.expected_digest(part, "small", 0) is not None
    monkeypatch.setattr(simulate_workload, "expected_digest",
                        lambda part, size, seed: "0" * 64)
    ledger = run_in_process(simulate_workload, tmp_path, 0.1, part=part)
    assert ledger.failed == 1 and "digest" in ledger.reasons[0]


def test_tampered_service_result_counts_as_a_failed_operation(tmp_path, monkeypatch):
    original = ServiceClient.result
    tampered = []

    def result(self, job_id):
        doc = original(self, job_id)
        if not tampered:
            tampered.append(job_id)
            doc["result"]["makespan"] += 1
        return doc

    monkeypatch.setattr(ServiceClient, "result", result)
    ledger = run_in_process(service_workload, tmp_path, 1.0)
    assert ledger.attempted > 1
    assert ledger.failed == 1 and tampered[0] in ledger.reasons[0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "embed", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
