"""Self-tests of the benchmark, run at tiny sizes.

    python3 -m pytest perfbench -q

They check the output format, that the oracles reject wrong mining
artefacts and an injected wrong answer fails the run, and that a second
seed changes the inputs but not the verdict.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from oracles import mining_mismatch  # noqa: E402
from repro.api import (  # noqa: E402
    CryptoConfig,
    EncryptedMiningService,
    MiningConfig,
    ServiceConfig,
    webshop_profile,
)
from repro.mining.incremental import IncrementalDistanceMatrix  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = workloads.Sizes(
    setup_repeats=1,
    min_units=1,
    log_size=80,
    stream_size=100,
    stream_batch=10,
    stream_templates=8,
)


def run_tiny(capsys, workload: str, *, seed: int = 1, trace: int = 0) -> tuple[int, dict, dict]:
    """Run one tiny workload in-process; returns (exit code, result, record)."""
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        sizes=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("record ")
    return code, json.loads(lines[-1]), json.loads(lines[-2][len("record "):])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(capsys, workload):
    import repro.api.service as service_module
    from repro.mining.dbscan import dbscan

    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        code, result, record = run_tiny(capsys, workload, trace=trace)
        assert code == 0, record["problems"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared
        }
        for key in ("seed", "nproc", "python", "numpy", "calibration_s"):
            assert key in record
    # The traced run leaves no wrapper behind.
    assert service_module.dbscan is dbscan


@pytest.mark.parametrize(
    ("workload", "busy"),
    [
        (
            "log_mining",
            (
                "core.encrypt_log.self_s",
                "core.distance_matrix.self_s",
                "mining.knn.self_s",
                "mining.dbscan.self_s",
                "core.pairs",
            ),
        ),
        (
            "stream_mining",
            (
                "cryptdb.rewrite.self_ms.p50",
                "mining.incremental.append.self_ms.p50",
                "crypto.integrity.tag.self_s",
                "mining.approx.index.self_s",
                "mining.approx.certified_complete",
            ),
        ),
    ],
)
def test_traced_run_reports_self_time_of_each_layer(capsys, workload, busy):
    _, result, _ = run_tiny(capsys, workload, trace=1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for name in (*busy, "trace.spans"):
        assert metrics[name] > 0, name
    assert metrics["error_rate"] == 0


def test_second_seed_changes_inputs_not_verdict(capsys):
    for workload in workloads.WORKLOADS:
        first = run_tiny(capsys, workload, seed=1)
        second = run_tiny(capsys, workload, seed=2)
        assert first[2]["input_digest"] != second[2]["input_digest"], workload
        assert first[0] == second[0] == 0, workload
        assert first[1]["correct"] is second[1]["correct"] is True, workload


def test_oracle_rejects_a_perturbed_knn_list_and_distance():
    profile = webshop_profile()
    log = workloads.QueryLogGenerator(profile, workloads.WorkloadMix(), seed="selftest").generate(60)
    service = EncryptedMiningService(
        ServiceConfig(
            crypto=CryptoConfig(passphrase="selftest", paillier_bits=256),
            mining=MiningConfig(**workloads.MINING),
        )
    )
    plain = service.mine(log)
    encrypted = service.mine(workloads.TokenDpeScheme(service.keychain).encrypt_log(log))
    assert mining_mismatch(plain, encrypted) is None
    knn = list(encrypted.knn)
    knn[7] = tuple(reversed(knn[7]))
    perturbed = dataclasses.replace(encrypted, knn=tuple(knn))
    assert "kNN" in mining_mismatch(plain, perturbed)
    condensed = encrypted.matrix.condensed().copy()
    condensed[3] += 1e-12
    moved = dataclasses.replace(encrypted, matrix=SimpleNamespace(condensed=lambda: condensed))
    assert "Definition 1" in mining_mismatch(plain, moved)


def test_injected_wrong_answer_exits_nonzero(capsys, monkeypatch):
    original = IncrementalDistanceMatrix.knn_all

    def wrong(self, *args, **kwargs):
        knn = list(original(self, *args, **kwargs))
        knn[0] = tuple(reversed(knn[0]))
        return knn

    monkeypatch.setattr(IncrementalDistanceMatrix, "knn_all", wrong)
    code, result, record = run_tiny(capsys, "stream_mining")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert any("kNN" in problem for problem in record["problems"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "log_mining", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
    assert not Path(tmp_path / ".bench_runs").exists()
