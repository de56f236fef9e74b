"""Scalar-versus-batch functional-warming throughput.

The batch engine must warm Unison and Alloy at least ``SPEEDUP_FLOOR``
times faster than the scalar engine, with bit-identical post-warming
state.  Both engines drive the same DRAM timing model, so the speedup
comes from fusing the tag, predictor and fetch logic; on a 1M-access
trace it measured 4.5-6x on a 2-vCPU VM.  This benchmark measures both engines over the
same in-memory trace (best-of-``REPRO_BENCH_WARM_REPS`` interleaved
repetitions, so machine noise hits both sides equally) and writes the
throughput table ``batch_warming.txt`` plus the ``BENCH_batch_warming.json``
record to the untracked ``benchmarks/results/timing/``.

Fidelity knobs:

* ``REPRO_BENCH_WARM_ACCESSES`` -- warm-stream length (default 1_000_000).
* ``REPRO_BENCH_WARM_REPS``     -- repetitions per engine (default 2).
"""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

from conftest import format_table, write_report
from repro.engine import (
    numpy_available,
    records_to_array,
    set_batch_enabled,
    warm_design,
)
from repro.sim.factory import make_design
from repro.workloads import workload_by_name
from repro.workloads.generator import SyntheticWorkload

WARM_ACCESSES = int(os.environ.get("REPRO_BENCH_WARM_ACCESSES", "1000000"))
WARM_REPS = int(os.environ.get("REPRO_BENCH_WARM_REPS", "2"))

#: Validated measurement recipe: Web Search at scale 512, 256MB designs.
CAPACITY = "256MB"
SCALE = 512
DESIGNS = ("unison", "alloy")

#: Minimum batch/scalar warming speedup for every design.
SPEEDUP_FLOOR = 3.0


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_batch_warming_throughput(timing_dir):
    profile = workload_by_name("Web Search")
    profile = profile.scaled(
        max(profile.region_size * 64, profile.working_set_bytes // SCALE)
    )
    trace = SyntheticWorkload(profile, num_cores=4,
                              seed=7).generate(WARM_ACCESSES)
    array = records_to_array(trace)

    rows = []
    payload = {"accesses": WARM_ACCESSES, "reps": WARM_REPS,
               "capacity": CAPACITY, "scale": SCALE, "designs": {}}
    try:
        set_batch_enabled(True)
        for name in DESIGNS:
            t_scalar = t_batch = float("inf")
            scalar = batch = None
            for _ in range(WARM_REPS):
                scalar = make_design(name, CAPACITY, scale=SCALE)
                started = time.perf_counter()
                scalar.warm_up(trace)
                t_scalar = min(t_scalar, time.perf_counter() - started)

                batch = make_design(name, CAPACITY, scale=SCALE)
                started = time.perf_counter()
                engine = warm_design(batch, array)
                t_batch = min(t_batch, time.perf_counter() - started)
                assert engine == "batch"

            assert (pickle.dumps(scalar.snapshot_state().state)
                    == pickle.dumps(batch.snapshot_state().state)), (
                f"batch warming diverged from scalar for {name}"
            )
            scalar_aps = WARM_ACCESSES / t_scalar
            batch_aps = WARM_ACCESSES / t_batch
            speedup = t_scalar / t_batch
            assert speedup >= SPEEDUP_FLOOR, (
                f"batch warming of {name} only {speedup:.2f}x scalar "
                f"(floor {SPEEDUP_FLOOR}x)"
            )
            rows.append([name, f"{scalar_aps:,.0f}", f"{batch_aps:,.0f}",
                         f"{speedup:.2f}x"])
            payload["designs"][name] = {
                "scalar_accesses_per_sec": round(scalar_aps, 1),
                "batch_accesses_per_sec": round(batch_aps, 1),
                "speedup": round(speedup, 3),
                "bit_identical": True,
            }
    finally:
        set_batch_enabled(None)

    lines = [f"Functional-warming throughput, {WARM_ACCESSES:,} accesses "
             f"(Web Search, {CAPACITY} @ scale {SCALE}, "
             f"best of {WARM_REPS} interleaved reps)", ""]
    lines += format_table(
        ["design", "scalar acc/s", "batch acc/s", "speedup"], rows
    )
    write_report(timing_dir, "batch_warming", lines)
    (timing_dir / "BENCH_batch_warming.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
