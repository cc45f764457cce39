"""Self-tests of the benchmark, at tiny scale.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int, cwd: str = ROOT) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def assert_metrics(result: dict, stdout: str, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        line = next(line for line in stdout.splitlines()
                    if line.startswith(metric["name"] + " "))
        assert f" {metric['unit']} " in line
    assert "failed_share" in stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, stdout = tiny(workload, 0)
    assert_metrics(result, stdout, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 8
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(workload):
    result, stdout = tiny(workload, 1)
    assert_metrics(result, stdout, BENCHMARK["per_layer"])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert "trace.overhead" in metrics
    assert 0.0 <= metrics["trace.unaccounted_share"] < 0.5
    assert metrics["window.comparisons"] > 0
    assert metrics["similarity.phi_calls"] > 0
    assert metrics["window.self_s"] >= 0.0
    assert (metrics["spill.runs"] > 0) == (workload == "freedb-stream")
    assert (metrics["index.commits"] > 0) == (workload == "movies-grow")


def test_speedometer_ticks_during_a_block_and_scales_its_time():
    meter = calibrate.Speedometer()
    with calibrate.measured(meter) as figures:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert figures["ticks"] >= 5
    assert 0 < figures["ticks_s"] < figures["seconds"]
    assert figures["tick_s"] > 0
    reference = calibrate.REFERENCE_TICK_S
    assert calibrate.normalized(2.5, 0.5, reference) == 2.0
    assert calibrate.normalized(2.5, 0.5, 2 * reference) == 1.0


def test_tampered_reference_raises_failed_share(tmp_path):
    # A copy of the benchmark, so recording and tampering leave the
    # repository's references alone.
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    copy = str(tmp_path)
    proc = bench("--workload", "movies-grow", "--seed", "3", "--seconds", "1",
                 "--size", "tiny", "--record", cwd=copy)
    assert proc.returncode == 0, proc.stderr
    result, _ = tiny("movies-grow", 0, cwd=copy)
    assert result["correct"] and result["failed"] == 0

    references = tmp_path / "perfbench" / "references.json"
    recorded = json.loads(references.read_text())
    first = recorded["movies-grow"]["tiny"]["3"][0]
    first["detect"]["movie"] = "0" * 16
    first["ingest"]["movie.pairs"] = "0" * 16
    references.write_text(json.dumps(recorded))
    result, stdout = tiny("movies-grow", 0, cwd=copy)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "detect on corpus 0: output digest differs for ['movie']" \
        in stdout
    assert "ingest on corpus 0: output digest differs for ['movie.pairs']" \
        in stdout


def _corpus(workload: str, tmp_path) -> dict:
    plan = workloads.prepare(workload, 5, str(tmp_path / "inputs"), 1, "tiny")
    return plan["corpora"][0]


def test_streamed_pairs_equal_in_memory_pairs(tmp_path):
    ops = _corpus("freedb-stream", tmp_path)["ops"]
    clusters = {}
    for stream in (True, False):
        scratch = tmp_path / f"stream-{stream}"
        scratch.mkdir()
        spec = dict(ops["detect"], stream=stream, scratch=str(scratch))
        clusters[stream], _ = worker.setup_detect(spec)(0)
    assert any(clusters[True].values())
    assert worker.digests(clusters[True]) == worker.digests(clusters[False])


def test_restored_session_equals_uninterrupted_session(tmp_path):
    spec = _corpus("movies-grow", tmp_path)["ops"]["ingest"]
    batches = spec["batches"]

    def ingest(session, paths):
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                session.add_batch(handle.read())

    whole = worker.open_session(spec)
    ingest(whole, batches)
    index_dir, phi_dir = str(tmp_path / "index"), str(tmp_path / "phi")
    first = worker.open_session(spec, index_dir, phi_dir)
    ingest(first, batches[:1])
    restarted = worker.open_session(spec, index_dir, phi_dir)
    assert restarted.restored
    ingest(restarted, batches[1:])
    assert worker.session_digests(restarted) == worker.session_digests(whole)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "movies-many", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_the_runners_workloads_and_bounds():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
