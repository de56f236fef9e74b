"""The process-wide matched-pair baseline cache of sampled windows."""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.baselines.no_cache import NoDramCache
from repro.sampling import SamplingConfig, WindowedSampler
from repro.sim import executor
from repro.sim.executor import (
    cached_window_baseline,
    clear_caches,
    run_sweep,
    run_trial,
)
from repro.sim.experiment import ExperimentConfig, ExperimentRunner
from repro.sim.resultset import ResultSet
from repro.sim.spec import SweepSpec

DESIGNS = ("unison", "alloy", "footprint", "loh_hill")


@pytest.fixture
def config():
    return ExperimentConfig(scale=4096, num_accesses=16_000, num_cores=4,
                            seed=5)


@pytest.fixture
def sampling():
    return SamplingConfig(window_accesses=800, warmup_accesses=400,
                          checkpoint_accesses=3_000, min_windows=2,
                          max_windows=4)


@pytest.fixture
def spec(tiny_profile, config, sampling):
    return SweepSpec(designs=DESIGNS, workloads=(tiny_profile,),
                     capacities=("256MB",), config=config, sampling=sampling)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def baseline_runs(monkeypatch):
    """Counts every NoDramCache replay (the tracer's ``sim.baseline``)."""
    calls = []
    original = NoDramCache.run

    def counting_run(self, requests):
        calls.append(len(requests))
        return original(self, requests)

    monkeypatch.setattr(NoDramCache, "run", counting_run)
    return calls


def _windows_measured(results: ResultSet) -> int:
    # Every trial walks the same plan order, so the distinct windows are
    # the longest trial's.
    return max(int(result.extra["sampling_windows"]) for result in results)


class TestSharedBaselines:
    def test_one_replay_per_measured_window(self, spec, baseline_runs):
        results = run_sweep(spec)
        assert len(baseline_runs) == _windows_measured(results)
        assert len(executor._WINDOW_BASELINE_CACHE) == len(baseline_runs)

    def test_results_equal_runs_with_cleared_caches(self, spec):
        shared = run_sweep(spec)
        isolated = []
        for trial in spec.trials():
            clear_caches()
            isolated.append(run_trial(trial))
        assert shared.to_json() == ResultSet(isolated).to_json()

    def test_clear_caches_empties_the_memo(self, spec):
        run_sweep(spec)
        assert executor._WINDOW_BASELINE_CACHE
        clear_caches()
        assert not executor._WINDOW_BASELINE_CACHE

    def test_shared_stats_are_not_mutated(self, spec, config, tiny_profile):
        run_sweep(spec)
        trace = ExperimentRunner(config).build_trace(tiny_profile)
        assert executor._WINDOW_BASELINE_CACHE
        for (_, start, stop), stats in executor._WINDOW_BASELINE_CACHE.items():
            fresh = NoDramCache().run(trace[start:stop])
            assert pickle.dumps(stats) == pickle.dumps(fresh)

    def test_queue_window_batches_share_the_memo(self, spec, tmp_path,
                                                 monkeypatch, baseline_runs):
        from repro.queue.service import SweepService

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        queued = SweepService().run(spec)
        # Jobs may measure windows past the stopping point, but each
        # window still replays once across all designs' jobs.
        assert len(baseline_runs) == len(executor._WINDOW_BASELINE_CACHE)
        assert len(baseline_runs) < len(spec.trials()) * _windows_measured(
            queued)
        clear_caches()
        assert queued.to_json() == run_sweep(spec).to_json()

    def test_workers_one_and_two_byte_identical(self, spec):
        serial = run_sweep(spec, workers=1)
        clear_caches()
        parallel = run_sweep(spec, workers=2)
        assert serial.to_json() == parallel.to_json()


class TestKeying:
    @pytest.mark.parametrize("change", ["seed", "plan"])
    def test_other_stream_or_plan_never_hits(self, spec, change,
                                             baseline_runs):
        run_sweep(spec)  # populate the memo with the base stream's windows
        if change == "seed":
            other = replace(spec, config=replace(spec.config, seed=6))
        else:
            other = replace(spec, sampling=replace(spec.sampling,
                                                   window_accesses=700))
        del baseline_runs[:]
        warm = run_sweep(other)
        assert len(baseline_runs) == _windows_measured(warm)
        clear_caches()
        assert warm.to_json() == run_sweep(other).to_json()

    def test_identity_separates_streams(self, config, tiny_profile):
        trace = ExperimentRunner(config).build_trace(tiny_profile)
        other = ExperimentRunner(replace(config, seed=6)).build_trace(
            tiny_profile)
        first = cached_window_baseline("a", 100, 900, trace[100:900])
        second = cached_window_baseline("b", 100, 900, other[100:900])
        assert second is not first
        assert pickle.dumps(second) == pickle.dumps(
            NoDramCache().run(other[100:900]))
        assert cached_window_baseline("a", 100, 900, ()) is first

    def test_unnamed_injected_trace_is_not_memoized(self, config, sampling,
                                                    tiny_profile,
                                                    baseline_runs):
        trace = ExperimentRunner(config).build_trace(tiny_profile)
        sampler = WindowedSampler(sampling, config=config,
                                  use_checkpoints=False)
        injected = sampler.compare(["unison", "alloy"], tiny_profile,
                                   "256MB", trace=list(trace))
        assert not executor._WINDOW_BASELINE_CACHE
        # Still one replay per window, shared by both designs of the call.
        assert len(baseline_runs) == injected.windows_measured
        named = sampler.compare(["unison", "alloy"], tiny_profile, "256MB")
        assert injected == named


class TestObservability:
    def test_measure_span_counts_replays_and_reuses(self, spec, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "obs"))
        results = run_sweep(spec)
        replays = reused = 0
        for manifest in (tmp_path / "obs" / "manifests").glob("*.jsonl"):
            for line in manifest.read_text().splitlines():
                record = json.loads(line)
                if (record.get("event") == "phase"
                        and record.get("name") == "measure"):
                    counters = record.get("counters") or {}
                    replays += counters.get("baseline_replays", 0)
                    reused += counters.get("baseline_reused", 0)
        windows = sum(int(result.extra["sampling_windows"])
                      for result in results)
        assert replays == _windows_measured(results)
        assert replays + reused == windows

    def test_counters_are_a_no_op_when_disabled(self, spec, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "on"))
        enabled = run_sweep(spec)
        clear_caches()
        monkeypatch.delenv("REPRO_TELEMETRY")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "off"))
        disabled = run_sweep(spec)
        assert not (tmp_path / "off").exists()
        assert disabled.to_json() == enabled.to_json()
