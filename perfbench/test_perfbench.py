"""The benchmark's own tests, at the ``tiny`` size.

Every workload runs end to end through ``run.py`` in both modes, every
metric ``BENCHMARK.json`` names is printed with its unit, and the
reference gate catches a single changed field.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, run_full_replay  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def run_benchmark(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", *args],
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "reference.json"
    completed = run_benchmark("--record-reference", "--seed", str(SEED),
                              "--reference", str(path))
    assert completed.returncode == 0, completed.stderr
    return path


def test_benchmark_json_matches_the_metrics_run_py_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_end_to_end_and_prints_every_metric(
        workload, trace, tiny_reference):
    completed = run_benchmark(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
        "--trace", str(trace), "--reference", str(tiny_reference))
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("  ") and len(line.split()) == 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert any("failed_frac" in line for line in lines)
    elif workload == "full-replay":
        assert result["metrics"]["sampling.restores"]["value"] == 0


def test_reference_gate_catches_one_changed_field(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
    records = run_full_replay(1, "tiny", tmp_path).records
    expected = reference.digests(records)
    assert reference.mismatches(records, expected) == []

    key, record = records[1]
    changed = dict(record, offchip_demand_blocks=record[
        "offchip_demand_blocks"] + 1)
    tampered = records[:1] + [(key, changed)] + records[2:]
    assert reference.mismatches(tampered, expected) == [key]
    assert reference.mismatches(records[:-1], expected) == [records[-1][0]]


def test_a_mismatch_fails_the_run(tiny_reference, tmp_path):
    data = json.loads(tiny_reference.read_text())
    digests = data["workloads"]["full-replay"][
        str(reference.workload_seed(SEED))]
    digests["alloy"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(data))
    completed = run_benchmark(
        "--workload", "full-replay", "--seed", str(SEED), "--seconds", "0.1",
        "--trace", "0", "--reference", str(corrupted))
    assert completed.returncode != 0
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "differs from reference: alloy" in completed.stdout


def test_speed_correction_scales_by_the_sampled_slowness():
    speed = hostspeed.SpeedSampler()
    assert speed.nominal_seconds(2.0, speed.mark()) == 2.0
    nominal = hostspeed.NOMINAL_KERNEL_S
    # Half the span at nominal speed, half at half speed.
    speed.samples += [nominal, 2 * nominal]
    corrected = speed.nominal_seconds(2.0, 0)
    assert corrected == pytest.approx((2.0 - 3 * nominal) * 0.75)


def test_speed_sampler_samples_while_started_and_not_after():
    speed = hostspeed.SpeedSampler()
    speed.start()
    try:
        deadline = time.perf_counter() + 10 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        speed.stop()
    taken = speed.mark()
    assert taken >= 2
    time.sleep(3 * hostspeed.INTERVAL_S)
    assert speed.mark() == taken
