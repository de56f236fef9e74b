"""The benchmark's three workloads, driven through the public API only.

Each workload is one repetition of work a researcher waits for:

* ``full-replay`` -- a Figure 6/7 style ``run_sweep`` of four designs on
  Web Search (12% writes).  The measure loop and the DRAM timing models do
  most of the work; warming is batch, the baseline replays once per trace,
  and nothing is restored or queued.
* ``sampled`` -- the same four designs on Data Serving (32% writes) with
  checkpointed window sampling.  Adds the checkpoint prologue, a
  ``restore_state`` per design per window and a fresh no-cache baseline per
  design per window; the higher write share pushes dirty writebacks
  through the same measure loop.
* ``tune`` -- a seeded two-rung ``TuneSearch`` through a ``SweepService``
  (SQLite job store and result archive).  Random and RRIP candidates warm
  on the scalar engine.

The window counts are fixed (``min_windows == max_windows``) and the
search space is small enough that every seed measures the same amount of
work, so host time compares across seeds.  The seed reaches the trace
generator (``ExperimentConfig.seed``) and, for ``tune``, the search.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: The four designs of the paper's comparison.
DESIGNS = ("unison", "alloy", "footprint", "loh_hill")

#: Lengths per size.  ``bench`` is what the benchmark measures; ``tiny``
#: runs every path in a few seconds, for the benchmark's own tests.
SIZES = {
    "bench": {"full_accesses": 30_000, "sampled_accesses": 60_000,
              "sampled_windows": 3, "tune_accesses": 16_000},
    "tiny": {"full_accesses": 3_000, "sampled_accesses": 9_000,
             "sampled_windows": 1, "tune_accesses": 4_000},
}


@dataclass
class Repetition:
    """What one repetition produced, for the reference gate and metrics."""

    #: (trial key, full simulated record) pairs.
    records: List[Tuple[str, dict]]
    #: Sum of ``accesses_measured`` over the result records.
    accesses_measured: int


def _sweep_records(results, prefix: str = "") -> List[Tuple[str, dict]]:
    return [(f"{prefix}{result.design}", asdict(result)) for result in results]


def _repetition(records) -> Repetition:
    measured = sum(record.get("accesses_measured", 0)
                   for _, record in records)
    return Repetition(records=records, accesses_measured=measured)


# --------------------------------------------------------------------- #
def _full_spec(seed: int, size: str):
    from repro import ExperimentConfig, SweepSpec

    return SweepSpec(
        designs=DESIGNS, workloads=("Web Search",), capacities=("256MB",),
        config=ExperimentConfig(scale=512,
                                num_accesses=SIZES[size]["full_accesses"],
                                seed=seed),
    )


def _sampled_spec(seed: int, size: str):
    from repro import ExperimentConfig, SamplingConfig, SweepSpec

    windows = SIZES[size]["sampled_windows"]
    return SweepSpec(
        designs=DESIGNS, workloads=("Data Serving",), capacities=("256MB",),
        config=ExperimentConfig(scale=512,
                                num_accesses=SIZES[size]["sampled_accesses"],
                                seed=seed),
        sampling=SamplingConfig(min_windows=windows, max_windows=windows),
    )


def _tune_config(seed: int, size: str):
    from repro.search.driver import TuneConfig

    return TuneConfig(
        workload="Web Search", capacity="1GB", seed=seed,
        num_candidates=3, rungs=2, eta=2, scale=4096,
        num_accesses=SIZES[size]["tune_accesses"],
        window_accesses=1000, warmup_accesses=1000, checkpoint_accesses=4000,
        min_windows=2, base_windows=2,
    )


def _tune_space():
    """Way-predicted footprint pages under LRU, random and RRIP victims.

    The three candidates differ only in replacement, so their confidence
    intervals overlap and every seed promotes all three: the work of a
    search does not depend on the seed.
    """
    from repro.dramcache.spec import ComponentSpec
    from repro.search.space import SearchSpace

    return SearchSpace(
        tags=(ComponentSpec("dram-page"),),
        hit_predictors=(ComponentSpec("way"),),
        fetches=(ComponentSpec("footprint"),),
        writebacks=(ComponentSpec("dirty"),),
        replacements=(ComponentSpec("lru"), ComponentSpec("random"),
                      ComponentSpec("rrip")),
    )


# --------------------------------------------------------------------- #
def run_full_replay(seed: int, size: str, workdir: Path) -> Repetition:
    from repro import run_sweep

    return _repetition(_sweep_records(run_sweep(_full_spec(seed, size),
                                                workers=1)))


def run_sampled(seed: int, size: str, workdir: Path) -> Repetition:
    from repro import run_sweep

    return _repetition(_sweep_records(run_sweep(_sampled_spec(seed, size),
                                                workers=1)))


def run_tune(seed: int, size: str, workdir: Path) -> Repetition:
    from repro import SweepService
    from repro.search.driver import TuneSearch

    class RecordingService(SweepService):
        """Keeps each rung's ResultSet, so no archive read is needed."""

        def __init__(self, queue_dir) -> None:
            super().__init__(queue_dir)
            self.rung_results = []

        def run(self, *args, **kwargs):
            results = super().run(*args, **kwargs)
            self.rung_results.append(results)
            return results

    queue_dir = workdir / "queue"
    service = RecordingService(queue_dir)
    try:
        state = TuneSearch(_tune_config(seed, size), space=_tune_space(),
                           service=service).run(workers=1)
    finally:
        shutil.rmtree(queue_dir, ignore_errors=True)
    records = []
    for rung, results in enumerate(service.rung_results):
        records += _sweep_records(results, prefix=f"rung{rung}/")
    records.append(("frontier", state.frontier))
    return _repetition(records)


# --------------------------------------------------------------------- #
def _sweep_traces(spec) -> List[tuple]:
    trial = spec.trials()[0]
    return [(trial.workload, trial.config)]


def _tune_traces(seed: int, size: str) -> List[tuple]:
    from repro import workload_by_name

    config = _tune_config(seed, size)
    return [(workload_by_name(config.workload), config.experiment_config())]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, str, Path], Repetition]
    #: ``(seed, size) -> [(workload profile, ExperimentConfig)]``: every
    #: trace a repetition replays, generated during set-up.
    traces: Callable[[int, str], List[tuple]]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "full-replay",
            "full-replay sweep of 4 designs: measure loop and DRAM timing "
            "dominate; no restore, queue or search work",
            run_full_replay,
            lambda seed, size: _sweep_traces(_full_spec(seed, size)),
        ),
        Workload(
            "sampled",
            "checkpointed window sampling of 4 designs at 32% writes: adds "
            "prologue warming, per-window restores and baselines",
            run_sampled,
            lambda seed, size: _sweep_traces(_sampled_spec(seed, size)),
        ),
        Workload(
            "tune",
            "2-rung design search through the SQLite job store and archive; "
            "random and RRIP candidates warm on the scalar engine",
            run_tune,
            _tune_traces,
        ),
    )
}


def generate_traces(workload: Workload, seed: int, size: str) -> int:
    """Generate every trace ``workload`` needs into the trace store.

    Returns the number of accesses generated.  Drops the in-memory copies
    afterwards, so repetitions load from the store like a fresh process.
    """
    from repro.sim.executor import cached_trace, clear_caches
    from repro.sim.experiment import ExperimentRunner

    generated = 0
    for profile, config in workload.traces(seed, size):
        generated += len(cached_trace(ExperimentRunner(config), profile))
    clear_caches()
    return generated
