"""One benchmark process: set up, measure repetitions, check every result.

``run.py`` starts this script in a fresh process per workload, with its own
trace store, checkpoint and queue directories (see ``run.py``).  Modes:

* ``setup``   -- import repro and generate the workload's traces into the
  empty store; report the seconds taken.
* ``measure`` -- the same set-up, then repetitions of the workload until
  ``--seconds`` have passed, each checked against the reference.  With
  ``--trace 1`` the first half of the time goes to untraced repetitions
  and the second half to traced ones, and the per-layer times are
  reported.
* ``record``  -- one repetition per workload seed; report the digests.

Every time reported is corrected for the speed of the core it ran on
(``hostspeed.py``); the raw host seconds are kept beside it as ``raw_*``.
The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
from hostspeed import SpeedSampler
from tracer import Tracer
from workloads import WORKLOADS, generate_traces

ROOT = Path(__file__).resolve().parent.parent


def import_repro() -> None:
    """Import the simulator, and make sure it is this checkout's copy."""
    import repro

    expected = (ROOT / "src" / "repro").resolve()
    if Path(repro.__file__).resolve().parent != expected:
        raise SystemExit(
            f"repro was imported from {repro.__file__}, not from {expected}"
        )


def set_up(workload, seed: int, size: str, speed: SpeedSampler) -> dict:
    """Seconds to import repro and fill the empty trace store."""
    first = speed.mark()
    start = perf_counter()
    import_repro()
    generate_traces(workload, seed, size)
    raw = perf_counter() - start
    return {"setup_s": speed.nominal_seconds(raw, first), "raw_setup_s": raw}


def run_repetitions(workload, seed: int, size: str, seconds: float,
                    expected, workdir: Path, speed: SpeedSampler,
                    tracer=None) -> list:
    """Repeat the workload until ``seconds`` pass; check each repetition."""
    from repro.sampling.checkpoints import default_root
    from repro.sim.executor import clear_caches

    repetitions = []
    deadline = perf_counter() + seconds
    while not repetitions or perf_counter() < deadline:
        # Every repetition starts like a fresh process on a filled trace
        # store: no in-memory traces or baselines, no checkpoints, no queue.
        clear_caches()
        checkpoints = default_root()
        if checkpoints is not None:
            shutil.rmtree(checkpoints, ignore_errors=True)
        first = tracer.mark() if tracer else 0
        first_sample = speed.mark()
        start = perf_counter()
        try:
            outcome = workload.run(seed, size, workdir)
        except Exception:
            outcome = None
            error = traceback.format_exc()
        wall = perf_counter() - start
        if outcome is None:
            print(error, file=sys.stderr)
            bad, produced, measured = sorted(expected), set(), 0
        else:
            bad = reference.mismatches(outcome.records, expected)
            produced = {key for key, _ in outcome.records}
            measured = outcome.accesses_measured
        repetitions.append({
            "wall_s": speed.nominal_seconds(wall, first_sample),
            "raw_wall_s": wall,
            "accesses_measured": measured,
            "attempted": len(produced | set(expected)),
            "failed": len(bad),
            "mismatched": bad,
            "spans": [first, tracer.mark() if tracer else 0],
        })
    return repetitions


def layer_report(tracer: Tracer, setup_spans, setup_scale: float,
                 setup_counts: Counter, repetitions) -> dict:
    """Per-layer times and counts: one set-up plus the mean repetition.

    Span times are raw host seconds; each phase's are scaled by the same
    speed correction as its wall time (corrected over raw seconds).
    """
    n = len(repetitions)
    times = {key: value * setup_scale
             for key, value in tracer.layer_times(*setup_spans).items()}
    uncovered = 0.0
    for repetition in repetitions:
        scale = repetition["wall_s"] / repetition["raw_wall_s"]
        rep_times = tracer.layer_times(*repetition["spans"])
        uncovered += scale * (repetition["raw_wall_s"]
                              - rep_times["covered_s"]) / n
        for key, value in rep_times.items():
            times[key] += scale * value / n
    counts = Counter(setup_counts)
    for key, value in (tracer.counts - setup_counts).items():
        counts[key] += value / n
    return {"times": times, "counts": dict(counts),
            "unattributed_s": uncovered}


def measure(args, workload, speed: SpeedSampler) -> dict:
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    first_sample = speed.mark()
    start = perf_counter()
    import_repro()
    if tracer is not None:
        tracer.install()
    setup_first = tracer.mark() if tracer else 0
    generate_traces(workload, args.workload_seed, args.size)
    raw_setup_s = perf_counter() - start
    result = {"setup_s": speed.nominal_seconds(raw_setup_s, first_sample),
              "raw_setup_s": raw_setup_s}
    expected = reference.load(args.reference, workload.name,
                              args.workload_seed)
    if tracer is not None:
        setup_spans = (setup_first, tracer.mark())
        setup_counts = Counter(tracer.counts)
        tracer.uninstall()
    # A traced run splits its time between an untraced and a traced series,
    # so it takes as long as an untraced run.
    seconds = args.seconds / 2 if tracer is not None else args.seconds
    result["repetitions"] = run_repetitions(
        workload, args.workload_seed, args.size, seconds, expected, workdir,
        speed)
    if tracer is not None:
        tracer.install()
        traced = run_repetitions(workload, args.workload_seed, args.size,
                                 seconds, expected, workdir, speed, tracer)
        tracer.uninstall()
        result["traced_repetitions"] = traced
        result["layers"] = layer_report(
            tracer, setup_spans, result["setup_s"] / raw_setup_s,
            setup_counts, traced)
        labels = {setup_spans[0]: "setup"}
        for index, repetition in enumerate(traced):
            labels[repetition["spans"][0]] = f"rep{index}"
        result["spans_written"] = tracer.write(args.spans, labels)
    import numpy

    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def record(args, workload) -> dict:
    import_repro()
    seeds = args.record_seeds or range(1, reference.REFERENCE_SEEDS + 1)
    recorded = {}
    for seed in seeds:
        generate_traces(workload, seed, args.size)
        outcome = workload.run(seed, args.size, Path(args.workdir))
        recorded[str(seed)] = reference.digests(outcome.records)
    return {"digests": recorded}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "record"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--workload-seed", type=int, default=1)
    parser.add_argument("--record-seeds", type=int, nargs="*")
    parser.add_argument("--size", default="bench")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(reference.REFERENCE_PATH))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "record":
        result = record(args, workload)
    else:
        speed = SpeedSampler()
        speed.start()
        try:
            if args.mode == "setup":
                result = set_up(workload, args.workload_seed, args.size,
                                speed)
            else:
                result = measure(args, workload, speed)
        finally:
            speed.stop()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
