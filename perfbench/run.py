"""Host-time benchmark of the simulator: one workload per run.

    python3 perfbench/run.py --workload tune --seed 0 --seconds 25 --trace 0

Each run starts fresh worker processes (``worker.py``) with their own
trace store, checkpoint, queue and cache directories under
``.perfbench-runs/``, and with no ``REPRO_*`` setting inherited, so no run
reads ``~/.cache/repro`` or writes a tracked file.  Set-up (importing
repro and generating the traces into the empty store) is timed in
``SETUP_SAMPLES`` extra processes plus the measuring one; the measuring
process then repeats the workload for ``--seconds`` seconds.

Times are host seconds corrected for the speed of the core they ran on
(``hostspeed.py``), so a slow phase of a shared host does not read as a
regression; the raw seconds are printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with every layer
wrapped, and prints the per-layer metrics, including the difference
between the two (``trace_overhead_s``).

Every repetition's simulated records must equal the recorded reference
(``reference.py``); a mismatch fails the run with a non-zero exit status.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full run record
(environment, every repetition) and the traced spans are written to
``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-runs"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Extra processes that time set-up alone (the measuring one adds one more).
SETUP_SAMPLES = 3
#: Seconds a set-up process may take, and a measuring process beyond the
#: measured time; together they keep a run under three minutes.
SETUP_TIMEOUT_S = 30.0
WORKER_GRACE_S = 60.0

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Counters of the traced run: name -> unit.
COUNTS = (
    "trace.accesses_loaded", "dramcache.builds",
    "dramcache.measure_accesses", "mem.offchip_calls", "mem.stacked_calls",
    "engine.warm_accesses", "engine.batch_calls", "engine.scalar_calls",
    "sampling.restores", "sampling.checkpoint_hits",
    "sampling.checkpoint_misses", "sampling.windows",
    "sim.baseline_accesses", "sim.trials", "queue.jobs", "queue.jobs_failed",
    "search.rungs", "search.candidates", "search.pruned",
)


def per_layer_units() -> dict:
    """Per-layer metrics (traced run): name -> unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({
        "dramcache.measure_us_per_access": "us",
        "engine.batch_share": "frac",
        "sim.baseline_share": "frac",
        "unattributed_s": "s",
        "traced_wall_s": "s",
        "trace_overhead_s": "s",
    })
    return units


# --------------------------------------------------------------------- #
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(result: dict, setup_samples) -> dict:
    reps = result["repetitions"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "accesses_per_s": statistics.median(
            rep["accesses_measured"] / rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - _ratio(failed, attempted),
    }


def per_layer_metrics(result: dict) -> dict:
    layers = result["layers"]
    times, counts = layers["times"], layers["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = times[f"{name}_s"]
        metrics[f"{name}_self_s"] = times[f"{name}_self_s"]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    measured = counts.get("dramcache.measure_accesses", 0)
    warm_calls = (counts.get("engine.batch_calls", 0)
                  + counts.get("engine.scalar_calls", 0))
    untraced = statistics.median(
        rep["wall_s"] for rep in result["repetitions"])
    traced = statistics.median(
        rep["wall_s"] for rep in result["traced_repetitions"])
    metrics.update({
        "dramcache.measure_us_per_access":
            1e6 * _ratio(times["dramcache.measure_s"], measured),
        "engine.batch_share":
            _ratio(counts.get("engine.batch_calls", 0), warm_calls),
        "sim.baseline_share":
            _ratio(counts.get("sim.baseline_accesses", 0), measured),
        "unattributed_s": layers["unattributed_s"],
        "traced_wall_s": traced,
        "trace_overhead_s": traced - untraced,
    })
    return metrics


# --------------------------------------------------------------------- #
def environment() -> dict:
    """What identifies the code and the host of a run."""
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if top and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode("utf-8"))
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


def child_env(workdir: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "REPRO_TRACE_STORE": str(workdir / "store"),
        "REPRO_QUEUE_DIR": str(workdir / "queue"),
        "XDG_CACHE_HOME": str(workdir / "cache"),
    })
    return env


def run_worker(mode: str, workdir: Path, args, extra,
               timeout: float) -> dict:
    """Run ``worker.py`` in a fresh process; its JSON result, or raise."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    command = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", args.workload, "--size", args.size,
               "--reference", str(args.reference),
               "--workdir", str(workdir), "--out", str(out), *extra]
    # The worker's own output goes to stderr: stdout ends with the result.
    completed = subprocess.run(command, env=child_env(workdir),
                               stdout=sys.stderr, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {completed.returncode}")
    return json.loads(out.read_text())


def measure(args, rundir: Path, spans: Path) -> dict:
    seed = ["--workload-seed", str(reference.workload_seed(args.seed))]
    setup_samples = []
    if not args.trace:
        for index in range(SETUP_SAMPLES):
            sample = run_worker("setup", rundir / f"setup{index}", args,
                                seed, SETUP_TIMEOUT_S)
            setup_samples.append(sample["setup_s"])
    result = run_worker(
        "measure", rundir / "measure", args,
        [*seed, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans", str(spans)],
        timeout=args.seconds + WORKER_GRACE_S,
    )
    result["setup_samples"] = setup_samples + [result["setup_s"]]
    return result


def record_reference(args) -> int:
    """Record the reference digests of every workload."""
    path = Path(args.reference)
    data = (json.loads(path.read_text()) if path.is_file()
            else {"workloads": {}})
    data["size"] = args.size
    extra = ["--record-seeds"]
    if args.seed is not None:
        extra.append(str(reference.workload_seed(args.seed)))
    for name in WORKLOADS:
        args.workload = name
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            recorded = run_worker("record", Path(workdir), args, extra,
                                  timeout=3600.0)
        data["workloads"].setdefault(name, {}).update(recorded["digests"])
        print(f"recorded {name}: seeds {sorted(recorded['digests'], key=int)}",
              file=sys.stderr)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


# --------------------------------------------------------------------- #
def print_report(workload: str, env: dict, result: dict, checked: list,
                 metrics: dict, units: dict) -> None:
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for series in ("repetitions", "traced_repetitions"):
        for key in ("wall_s", "raw_wall_s"):
            walls = " ".join(f"{rep[key]:.3f}"
                             for rep in result.get(series, ()))
            if walls:
                print(f"workload {workload}: {series.replace('_', ' ')} "
                      f"({key} each): {walls}")
    attempted = sum(rep["attempted"] for rep in checked)
    failed = sum(rep["failed"] for rep in checked)
    print(f"  {'failed_frac':<36} {_ratio(failed, attempted):>14.6g} frac"
          f"  ({failed} of {attempted} trials)")
    for rep in checked:
        if rep["mismatched"]:
            print(f"  differs from reference: {', '.join(rep['mismatched'])}")
    if "layers" in result:
        print("  per-layer values are one set-up plus the mean traced "
              "repetition")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator (see module doc).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny: the benchmark's own tests")
    parser.add_argument("--reference", default=str(reference.REFERENCE_PATH))
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference digests instead of measuring")
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so a running worker is killed and
    # waited for instead of being left behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(args)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    env = environment()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{label}-"))
    spans = OUT_DIR / f"{label}-{os.getpid()}.spans.tsv.gz"
    try:
        result = measure(args, rundir, spans)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    env["numpy"] = result["numpy"]
    env["loadavg_after"] = list(os.getloadavg())

    if args.trace:
        metrics, units = per_layer_metrics(result), per_layer_units()
    else:
        metrics = end_to_end_metrics(result, result["setup_samples"])
        units = END_TO_END
    checked = result["repetitions"] + result.get("traced_repetitions", [])
    print_report(args.workload, env, result, checked, metrics, units)
    attempted = sum(rep["attempted"] for rep in checked)
    failed = sum(rep["failed"] for rep in checked)
    (OUT_DIR / f"{label}-{os.getpid()}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "size": args.size,
         "environment": env, "metrics": metrics, "result": result},
        indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
