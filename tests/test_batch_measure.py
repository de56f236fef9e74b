"""Measurement through the fused kernels equals measurement on the scalar engine.

``DramCacheModel.run`` dispatches through :func:`repro.engine.replay`, so a
covered composition *measures* through its kernel too.  The contract is
the same as for warming, extended to statistics: with the batch engine on
or off, a warm-then-measure replay leaves equal ``DramCacheStats``,
``extra_metrics()``, flattened ``stats()``, DRAM controller state and
memo-free pickles of every ``_STATE_ATTRS`` value.  The differential test
draws the trace, the warm/measure split and the chunking of the measure
stream with hypothesis, for every candidate of
``search.space.default_space()`` and every registered design.

Every one of those compositions has a kernel, so the differential test
also pins that each replay ran on the batch engine.  Also here: a
subclassed component still measures on the scalar engine, any replacement
policy object replays through the kernels bit-identically, a core id the
MAP-I tables do not cover fails the same way on both engines, a one-shot
iterable is replayed once (not consumed and dropped), and the measure
spans name the engine that ran.
"""

from __future__ import annotations

import io
import json
import pickle
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement import NruPolicy
from repro.config.cache_configs import scaled_capacity
from repro.dramcache.components import (
    DemandBlockFetch,
    MissPredictionPolicy,
    ReplacementComponent,
)
from repro.engine import (
    numpy_available,
    records_to_array,
    replay,
    select_kernel,
    set_batch_enabled,
)
from repro.search.space import default_space
from repro.sim.registry import DESIGNS, DesignBuildContext
from repro.utils.units import parse_size
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile

SCALE = 4096
NUM_CORES = 4

CANDIDATES = {spec.name: spec for spec in default_space().candidates()}
REGISTERED = DESIGNS.names()


@pytest.fixture(autouse=True)
def _reset_batch_override(monkeypatch):
    """Leave the process-wide batch switch untouched by each test."""
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    yield
    set_batch_enabled(None)


def _builder(name, capacity="1GB"):
    if name in CANDIDATES:
        paper = parse_size(capacity)
        context = DesignBuildContext(
            paper_capacity_bytes=paper,
            scaled_capacity_bytes=scaled_capacity(paper, SCALE),
            scale=SCALE,
            num_cores=NUM_CORES,
        )
        return lambda: CANDIDATES[name].build_composed(context)
    return lambda: DESIGNS.build(name, capacity, scale=SCALE,
                                 num_cores=NUM_CORES)


def _trace(seed: int, working_set: str, write_fraction: float, length: int):
    profile = WorkloadProfile(
        name="measure-tiny", working_set=working_set, num_code_regions=32,
        footprint_density=0.5, footprint_noise=0.05, singleton_fraction=0.1,
        temporal_reuse=0.2, region_zipf_alpha=0.6, pc_locality_run=3,
        write_fraction=write_fraction, l2_mpki=20.0,
    )
    return SyntheticWorkload(profile, num_cores=NUM_CORES,
                             seed=seed).generate(length)


def _state_bytes(value) -> bytes:
    """``pickle.dumps`` with the memo off (restored strings are not
    interned; see ``tests/test_restore_equivalence.py``)."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(value)
    return buffer.getvalue()


def _fingerprint(design):
    return {
        "cache_stats": asdict(design.cache_stats),
        "extra_metrics": design.extra_metrics(),
        "stats": design.stats().as_dict(),
        "controllers": (design.memory.controller.__getstate__(),
                        design.stacked.controller.__getstate__()),
        "state": {name: _state_bytes(getattr(design, name))
                  for name in design._snapshot_attrs()},
    }


def _warm_and_measure(build, warm, chunks, batch: bool):
    set_batch_enabled(batch)
    design = build()
    design.warm_up_array(warm)
    engines = [replay(design, chunk) for chunk in chunks]
    return _fingerprint(design), engines


@st.composite
def _replays(draw):
    """A short trace, a warm/measure split, and 1-3 measure chunks."""
    length = draw(st.integers(50, 500))
    trace = _trace(seed=draw(st.integers(0, 2 ** 16)),
                   working_set=draw(st.sampled_from(["512KB", "2MB"])),
                   write_fraction=draw(st.sampled_from([0.0, 0.3, 0.6])),
                   length=length)
    split = draw(st.integers(0, length - 2))
    cuts = sorted(draw(st.sets(st.integers(split + 1, length - 1),
                               max_size=2)))
    bounds = [split] + cuts + [length]
    chunks = [trace[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if numpy_available() and draw(st.booleans()):
        chunks = [records_to_array(chunk) for chunk in chunks]
    return trace[:split], chunks


@pytest.mark.parametrize("name", sorted(CANDIDATES) + list(REGISTERED))
@settings(max_examples=4, deadline=None)
@given(replays=_replays())
def test_batch_measure_equals_scalar_measure(name, replays):
    warm, chunks = replays
    build = _builder(name)
    batch, engines = _warm_and_measure(build, warm, chunks, batch=True)
    scalar, scalar_engines = _warm_and_measure(build, warm, chunks,
                                               batch=False)

    assert scalar_engines == ["scalar"] * len(chunks)
    assert engines == ["batch"] * len(chunks)
    for key in batch:
        assert batch[key] == scalar[key], key


def test_every_composition_has_a_kernel():
    """All 66 design-space candidates and all 11 registered designs."""
    assert len(CANDIDATES) == 66
    assert len(REGISTERED) == 11
    uncovered = [name for name in sorted(CANDIDATES) + list(REGISTERED)
                 if select_kernel(_builder(name)()) is None]
    assert uncovered == []


class _RecordingSpan:
    """A stand-in span that keeps what it was told."""

    def __init__(self):
        self.counters = {}

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount


class _SubclassedFetch(DemandBlockFetch):
    """Behaves exactly like demand fetch, but is not the exact type."""


class _SubclassedMissPrediction(MissPredictionPolicy):
    """Behaves exactly like MAP-I, but is not the exact type."""


def _with_subclassed(role):
    """Build ``alloy`` with ``role`` swapped for an equivalent subclass."""
    def build():
        design = _builder("alloy")()
        if role == "fetch":
            design.fetch = _SubclassedFetch()
        else:
            hp = design.hit_predictor
            design.hit_predictor = _SubclassedMissPrediction(
                hp.predictor, latency_cycles=hp.latency_cycles)
        return design
    return build


@pytest.mark.parametrize("role", ["fetch", "hit_predictor"])
def test_uncovered_composition_measures_on_scalar(role):
    build = _with_subclassed(role)
    assert select_kernel(build()) is None
    trace = _trace(seed=1, working_set="2MB", write_fraction=0.3,
                   length=600)

    set_batch_enabled(True)
    design = build()
    span = _RecordingSpan()
    design.run(trace, span=span)
    assert span.counters == {"engine_scalar": 1}

    reference = build()
    for request in trace:
        reference.access(request)
    assert _fingerprint(design) == _fingerprint(reference)


class _NruReplacement(ReplacementComponent):
    """A replacement component no kernel knows: not-recently-used."""

    kind = "nru"

    def make_set_policy(self, associativity, set_index):
        return NruPolicy(associativity)


def _with_nru(name):
    def build():
        # A small cache (64KB scaled), so the trace evicts in every set.
        design = _builder(name, "256MB")()
        design.replacement = _NruReplacement()
        design.tags.apply_replacement(design.replacement)
        return design
    return build


@pytest.mark.parametrize("tags", ["dram-page", "sram-page", "missmap"])
def test_any_replacement_policy_replays_through_the_kernel(tags):
    """The kernels drive an unknown per-set policy through its methods."""
    name = next(name for name, spec in sorted(CANDIDATES.items())
                if spec.tags.kind == tags
                and spec.replacement.kind == "lru")
    build = _with_nru(name)
    assert select_kernel(build()) is not None
    trace = _trace(seed=6, working_set="2MB", write_fraction=0.3,
                   length=3_000)
    chunks = [trace[1000:2000], trace[2000:]]
    batch, engines = _warm_and_measure(build, trace[:1000], chunks,
                                       batch=True)
    scalar, _ = _warm_and_measure(build, trace[:1000], chunks,
                                  batch=False)
    assert engines == ["batch", "batch"]
    for key in batch:
        assert batch[key] == scalar[key], key
    assert batch["cache_stats"]["pages_evicted"] > 0


@pytest.mark.parametrize("tags", ["direct-mapped", "dram-page", "missmap"])
@pytest.mark.parametrize("as_array", [False, True])
def test_out_of_range_core_fails_like_scalar(tags, as_array):
    """A core id past the MAP-I tables raises ValueError on both engines,
    after the same valid prefix, leaving the same partial state."""
    if as_array and not numpy_available():
        pytest.skip("numpy not installed")
    name = next(name for name, spec in sorted(CANDIDATES.items())
                if spec.tags.kind == tags
                and spec.hit_predictor.kind == "map-i")
    build = _builder(name)
    trace = _trace(seed=7, working_set="2MB", write_fraction=0.3, length=50)
    trace.append(trace[-1]._replace(core_id=7))  # NUM_CORES is 4
    stream = records_to_array(trace) if as_array else trace

    fingerprints = []
    for batch in (True, False):
        set_batch_enabled(batch)
        design = build()
        with pytest.raises(ValueError, match="core_id 7 out of range"):
            replay(design, stream)
        assert design.cache_stats.accesses == 50
        assert design._now > 0
        fingerprints.append(_fingerprint(design))
    assert fingerprints[0] == fingerprints[1]


class _DuckRecord:
    """An access record that is not a ``MemoryAccess`` (no batch columns)."""

    __slots__ = ("address", "pc", "core_id", "timestamp", "is_write")

    def __init__(self, access):
        self.address = access.address
        self.pc = access.pc
        self.core_id = access.core_id
        self.timestamp = access.timestamp
        self.is_write = access.is_write

    @property
    def block_address(self):
        return self.address // 64


class TestOneShotIterables:
    """A generator is replayed once, not consumed by a failed batch probe."""

    @pytest.fixture
    def records(self):
        trace = _trace(seed=2, working_set="2MB", write_fraction=0.3,
                       length=400)
        return [_DuckRecord(access) for access in trace]

    @pytest.mark.parametrize("batch", [True, False])
    def test_warm_up_array_replays_a_generator(self, records, batch):
        set_batch_enabled(batch)
        from_list = DESIGNS.build("unison", "1GB", scale=SCALE)
        from_generator = DESIGNS.build("unison", "1GB", scale=SCALE)

        assert from_list.warm_up_array(records) == "scalar"
        assert (from_generator.warm_up_array(r for r in records)
                == "scalar")
        assert from_list._now > 0
        assert _fingerprint(from_generator) == _fingerprint(from_list)

    @pytest.mark.parametrize("batch", [True, False])
    def test_run_replays_a_generator(self, records, batch):
        set_batch_enabled(batch)
        from_list = DESIGNS.build("alloy", "1GB", scale=SCALE)
        from_generator = DESIGNS.build("alloy", "1GB", scale=SCALE)

        from_list.run(records)
        from_generator.run(r for r in records)
        assert from_list.cache_stats.accesses == len(records)
        assert _fingerprint(from_generator) == _fingerprint(from_list)

    def test_run_batches_a_generator_of_memory_accesses(self):
        trace = _trace(seed=2, working_set="2MB", write_fraction=0.3,
                       length=400)
        set_batch_enabled(True)
        design = DESIGNS.build("unison", "1GB", scale=SCALE)
        span = _RecordingSpan()
        design.run((access for access in trace), span=span)
        assert span.counters == {"engine_batch": 1,
                                 "batch_accesses": len(trace)}
        assert design.cache_stats.accesses == len(trace)


def _phase_counters(telemetry_dir, phase):
    """Counters of every ``phase`` span in the run manifests, summed."""
    summed = {}
    for manifest in (telemetry_dir / "manifests").glob("*.jsonl"):
        for line in manifest.read_text().splitlines():
            record = json.loads(line)
            if record.get("event") == "phase" and record["name"] == phase:
                for key, value in (record.get("counters") or {}).items():
                    summed[key] = summed.get(key, 0) + value
    return summed


class TestMeasureSpans:
    """The measure phase names the engine that measured, like warmup."""

    @pytest.fixture
    def telemetry_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "obs"))
        return tmp_path / "obs"

    @pytest.mark.parametrize("batch", [True, False])
    def test_trial_measure_span(self, telemetry_dir, tiny_profile, batch):
        from repro.obs.core import start_run
        from repro.sim.experiment import ExperimentConfig, ExperimentRunner

        set_batch_enabled(batch)
        runner = ExperimentRunner(ExperimentConfig(
            scale=SCALE, num_accesses=2_000, num_cores=NUM_CORES, seed=3))
        with start_run("trial"):
            result = runner.run_design("unison", tiny_profile, "1GB")

        counters = _phase_counters(telemetry_dir, "measure")
        if batch:
            assert counters == {"engine_batch": 1,
                                "batch_accesses": result.accesses_measured}
        else:
            assert counters == {"engine_scalar": 1}

    def test_sampled_window_measure_span(self, telemetry_dir, tiny_profile):
        from repro.obs.core import start_run
        from repro.sampling import SamplingConfig, WindowedSampler
        from repro.sim.experiment import ExperimentConfig

        set_batch_enabled(True)
        sampler = WindowedSampler(
            SamplingConfig(window_accesses=500, warmup_accesses=200,
                           checkpoint_accesses=1_000, min_windows=2,
                           max_windows=2),
            config=ExperimentConfig(scale=SCALE, num_accesses=8_000,
                                    num_cores=NUM_CORES, seed=4))
        with start_run("trial"):
            run = sampler.compare(["unison", "alloy"], tiny_profile, "1GB")

        # Per design per window: a re-warm (unless the window's warm-up
        # slice is empty) and the measurement replay.
        replays = accesses = 0
        for index in run.measured:
            window = run.plan.windows[index]
            warm = window.start - window.warmup_start
            replays += 2 if warm else 1
            accesses += warm + window.stop - window.start
        counters = _phase_counters(telemetry_dir, "measure")
        assert counters["engine_batch"] == 2 * replays
        assert counters["batch_accesses"] == 2 * accesses
        assert "engine_scalar" not in counters

    def test_runs_show_prints_phase_counters(self, telemetry_dir,
                                             tiny_profile, capsys):
        from repro.cli import main
        from repro.obs.core import start_run
        from repro.sim.experiment import ExperimentConfig, ExperimentRunner

        runner = ExperimentRunner(ExperimentConfig(
            scale=SCALE, num_accesses=2_000, num_cores=NUM_CORES, seed=3))
        with start_run("trial") as run:
            runner.run_design("alloy", tiny_profile, "1GB")

        assert main(["runs", "show", run.run_id]) == 0
        lines = capsys.readouterr().out.splitlines()
        measure = next(line for line in lines
                       if line.strip().startswith("measure"))
        assert "engine_batch=1" in measure
        assert "batch_accesses=" in measure
