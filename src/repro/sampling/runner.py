"""The windowed sampler: checkpointed, confidence-terminated measurement.

One sampled run of N designs over one trace proceeds as:

1. **Plan** -- :func:`repro.sampling.windows.plan_windows` places up to
   ``max_windows`` windows over the measurement region and fixes a
   deterministic shuffled measurement order.
2. **Checkpoint** -- each design replays the functional-warming prologue
   once and freezes its warm state via the
   :class:`~repro.dramcache.base.StateSnapshot` protocol.  This is the only
   long replay; every window afterwards starts from the checkpoint.
3. **Measure** -- windows are taken in plan order.  Per window, per design:
   restore the checkpoint, replay the window's short warm-up slice, measure
   the window.  A no-DRAM-cache baseline replays the *same* window, so
   per-window speedups are matched pairs.  The baseline replays once per
   window of a stream per process
   (:func:`repro.sim.executor.cached_window_baseline`), shared by every
   design and every sweep trial measured on that window.
4. **Terminate** -- after each window the
   :class:`~repro.stats.sampling.AdaptiveStopper` checks every tracked
   series (miss ratio and speedup of every design); measurement stops as
   soon as all 95% CIs meet the target relative error, or at the window
   budget.

Everything derives from ``(SamplingConfig, ExperimentConfig, trace)``; the
only process-wide state is that baseline cache, whose entries are
deterministic in their key, so sampled sweeps are bit-identical between the
serial and process-parallel executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config.system import SystemConfig
from repro.dramcache.base import DramCacheModel
from repro.obs.core import NULL_SPAN, current as obs_current
from repro.sampling.seekable import FileWindows, InMemoryWindows
from repro.sampling.windows import (
    MeasurementWindow,
    SamplingConfig,
    WindowPlan,
    plan_windows,
)
from repro.sim.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    Workload,
)
from repro.sim.factory import make_design
from repro.sim.performance import PerformanceModel
from repro.sim.resultset import ResultSet
from repro.stats.confidence import ConfidenceInterval
from repro.stats.sampling import AdaptiveStopper, WindowSeries, matched_pair_deltas
from repro.trace.binfmt import is_binary_trace
from repro.trace.record import MemoryAccess
from repro.utils.units import format_size, parse_size, SizeLike
from repro.workloads.tracefile import TraceFileWorkload

#: Metrics whose per-window series drive adaptive termination, mapped to
#: the absolute CI half-width floor of their stopper (a speedup is O(1), so
#: its floor only matters for pathological near-zero means; a miss ratio
#: can legitimately be 0, where zero variance alone decides).
TRACKED_METRICS = {
    "miss_ratio": 0.0,
    "speedup_vs_no_cache": 1e-6,
}


@dataclass(frozen=True)
class WindowMeasurement:
    """Everything measured in one window for one design."""

    window: MeasurementWindow
    miss_ratio: float
    hit_ratio: float
    average_hit_latency: float
    average_miss_latency: float
    average_access_latency: float
    offchip_blocks_per_access: float
    offchip_demand_blocks: int
    offchip_prefetch_blocks: int
    offchip_writeback_blocks: int
    offchip_row_activations: int
    stacked_row_activations: int
    speedup_vs_no_cache: float
    user_ipc: float
    extra_metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class SampledDesignResult:
    """One design's windows, series, and aggregate result."""

    design: str
    windows: List[WindowMeasurement] = field(default_factory=list)
    series: Dict[str, WindowSeries] = field(default_factory=dict)

    @property
    def windows_measured(self) -> int:
        return len(self.windows)

    def interval(self, metric: str = "miss_ratio") -> ConfidenceInterval:
        """95% CI of one tracked metric over the measured windows."""
        return self.series[metric].interval()


@dataclass
class SampledRun:
    """The full outcome of one sampled measurement (all designs)."""

    plan: WindowPlan
    sampling: SamplingConfig
    workload: str
    capacity: str
    scale: int
    designs: "Dict[str, SampledDesignResult]"
    #: Window indices measured, in measurement order.
    measured: List[int]
    #: True when every tracked CI met its target (sampling may also have
    #: spent the whole window budget and *still* converged on the last
    #: window, so this is the stopper's verdict, not a count comparison).
    converged: bool

    @property
    def windows_measured(self) -> int:
        return len(self.measured)

    @property
    def simulated_accesses(self) -> int:
        """Accesses one design simulated (checkpoint + warm-ups + windows)."""
        return self.plan.simulated_accesses(self.windows_measured)

    @property
    def sampled_fraction(self) -> float:
        """Fraction of the trace one design simulated."""
        return self.plan.sampled_fraction(self.windows_measured)

    def delta(self, metric: str, design_a: str,
              design_b: str) -> WindowSeries:
        """Matched-pair per-window ``design_a - design_b`` differences."""
        return matched_pair_deltas(
            self.designs[design_a].series[metric],
            self.designs[design_b].series[metric],
            name=f"{metric}[{design_a}-{design_b}]",
        )

    def results(self) -> List[ExperimentResult]:
        """Aggregate one :class:`ExperimentResult` per design."""
        return [self._aggregate(label, sampled)
                for label, sampled in self.designs.items()]

    def to_resultset(self) -> ResultSet:
        return ResultSet(self.results())

    # ------------------------------------------------------------------ #
    def _aggregate(self, label: str,
                   sampled: SampledDesignResult) -> ExperimentResult:
        windows = sampled.windows
        n = len(windows)
        if n == 0:
            raise ValueError(f"design {label!r} measured no windows")

        def mean(metric: str) -> float:
            return sum(getattr(w, metric) for w in windows) / n

        def total(metric: str) -> int:
            return sum(getattr(w, metric) for w in windows)

        miss_interval = sampled.interval("miss_ratio")
        speedup_interval = sampled.interval("speedup_vs_no_cache")
        result = ExperimentResult(
            design=label,
            workload=self.workload,
            capacity=self.capacity,
            scale=self.scale,
            accesses_measured=sum(w.window.measure_accesses for w in windows),
            miss_ratio=miss_interval.mean,
            hit_ratio=mean("hit_ratio"),
            average_hit_latency=mean("average_hit_latency"),
            average_miss_latency=mean("average_miss_latency"),
            average_access_latency=mean("average_access_latency"),
            offchip_blocks_per_access=mean("offchip_blocks_per_access"),
            offchip_demand_blocks=total("offchip_demand_blocks"),
            offchip_prefetch_blocks=total("offchip_prefetch_blocks"),
            offchip_writeback_blocks=total("offchip_writeback_blocks"),
            offchip_row_activations=total("offchip_row_activations"),
            stacked_row_activations=total("stacked_row_activations"),
            speedup_vs_no_cache=speedup_interval.mean,
            user_ipc=mean("user_ipc"),
        )
        extra_keys = sorted({k for w in windows for k in w.extra_metrics})
        for key in extra_keys:
            value = sum(w.extra_metrics.get(key, 0.0) for w in windows) / n
            if key in ExperimentResult.METRIC_FIELDS:
                setattr(result, key, value)
            else:
                result.extra[key] = value
        result.extra.update({
            "sampling_windows": float(n),
            "sampling_windows_planned": float(len(self.plan.windows)),
            "sampling_fraction": self.sampled_fraction,
            "sampling_miss_ratio_half_width": miss_interval.half_width,
            "sampling_miss_ratio_rel_err": miss_interval.relative_error,
            "sampling_speedup_half_width": speedup_interval.half_width,
            "sampling_speedup_rel_err": speedup_interval.relative_error,
        })
        return result


class WindowedSampler:
    """Runs checkpointed, window-scheduled, adaptively-terminated trials.

    ``use_checkpoints`` controls the on-disk warm-state store
    (:mod:`repro.sampling.checkpoints`): ``None`` (default) enables it
    whenever the trace store is enabled, ``False`` forces prologue replay,
    ``True`` requires the configured store.  Checkpoints are keyed on the
    trace identity, the design's registry token (its component spec), the
    build parameters, and the prologue extent -- a hit skips the one long
    replay entirely, bit-identically.
    """

    def __init__(self, sampling: Optional[SamplingConfig] = None,
                 config: Optional[ExperimentConfig] = None,
                 system: Optional[SystemConfig] = None,
                 use_checkpoints: Optional[bool] = None) -> None:
        self.sampling = sampling or SamplingConfig()
        self.config = config or ExperimentConfig()
        self.system = system or SystemConfig()
        self.performance = PerformanceModel(self.system)
        self.use_checkpoints = use_checkpoints

    def _checkpoint_store(self):
        from repro.sampling.checkpoints import CheckpointStore

        if self.use_checkpoints is False:
            return None
        store = CheckpointStore.default()
        if store is None and self.use_checkpoints is True:
            raise ValueError(
                "on-disk checkpoints requested but the checkpoint store is "
                "disabled (REPRO_TRACE_STORE / REPRO_CHECKPOINTS)"
            )
        return store

    # ------------------------------------------------------------------ #
    def _provider(self, workload: Workload,
                  trace: Optional[Sequence[MemoryAccess]]):
        """The window source for a workload (seekable file when possible)."""
        if trace is not None:
            return InMemoryWindows(trace)
        if (isinstance(workload, TraceFileWorkload)
                and is_binary_trace(workload.path)):
            # The payoff case: windows open in O(window) straight from disk,
            # so the trace is never fully decoded, let alone materialized.
            return FileWindows(workload.path, limit=self.config.num_accesses)
        runner = ExperimentRunner(self.config, system=self.system)
        return InMemoryWindows(runner.build_trace(workload))

    def _read_warm(self, provider, start: int, stop: int):
        """Read a warm-stream slice, packed for the batch engine if it may run.

        When batch warming is enabled and numpy is present, a provider with
        a bulk ``read_array`` yields a structured record array (one
        ``np.frombuffer`` per window instead of per-record decode); in every
        other case this is a plain :meth:`read`.  Either return type feeds
        :meth:`~repro.dramcache.base.DramCacheModel.warm_up_array`, whose
        post-warming state is bit-identical across engines.
        """
        from repro.engine import batch_enabled, numpy_available

        if batch_enabled() and numpy_available():
            read_array = getattr(provider, "read_array", None)
            if read_array is not None:
                return read_array(start, stop)
        return provider.read(start, stop)

    def _measure_window(self, design: DramCacheModel,
                        window: MeasurementWindow,
                        warmup: Sequence[MemoryAccess],
                        measure: Sequence[MemoryAccess],
                        baseline_stats, profile,
                        span=NULL_SPAN) -> WindowMeasurement:
        if len(warmup):
            design.warm_up_array(warmup, span=span)
        else:
            design.reset_stats()
        activations_before = (design.memory.row_activations,
                              design.stacked.row_activations)
        design.run(measure, span=span)
        stats = design.cache_stats
        speedup = self.performance.speedup(stats, baseline_stats, profile)
        estimate = self.performance.estimate(stats, profile)
        return WindowMeasurement(
            window=window,
            miss_ratio=stats.miss_ratio,
            hit_ratio=stats.hit_ratio,
            average_hit_latency=stats.average_hit_latency,
            average_miss_latency=stats.average_miss_latency,
            average_access_latency=stats.average_access_latency,
            offchip_blocks_per_access=stats.offchip_blocks_per_access,
            offchip_demand_blocks=stats.offchip_demand_blocks,
            offchip_prefetch_blocks=stats.offchip_prefetch_blocks,
            offchip_writeback_blocks=stats.offchip_writeback_blocks,
            offchip_row_activations=(design.memory.row_activations
                                     - activations_before[0]),
            stacked_row_activations=(design.stacked.row_activations
                                     - activations_before[1]),
            speedup_vs_no_cache=speedup,
            user_ipc=estimate.user_ipc,
            extra_metrics=dict(design.extra_metrics()),
        )

    # ------------------------------------------------------------------ #
    def compare(self, design_names: Sequence[str], workload: Workload,
                capacity: SizeLike,
                trace: Optional[Sequence[MemoryAccess]] = None,
                associativity: Optional[int] = None,
                labels: Optional[Sequence[str]] = None,
                trace_identity: Optional[str] = None) -> SampledRun:
        """Sample every design over the *same* windows (matched pairs).

        ``trace`` injects a pre-materialized access sequence (the sweep
        executor's cached traces); otherwise the workload decides -- binary
        trace files are windowed seekably, synthetic profiles are generated.
        ``trace_identity`` names the injected sequence for checkpoint
        keying when the caller knows its authoritative identity (the
        executor passes the generator-versioned trace token); without it an
        injected sequence is identified by a full content hash.
        """
        if not design_names:
            raise ValueError("need at least one design to sample")
        from repro.sim.registry import DESIGNS

        for name in design_names:
            DESIGNS.resolve(name)  # fail on typos before any trace work
        labels = list(labels) if labels is not None else list(design_names)
        if len(labels) != len(design_names):
            raise ValueError("labels must match design_names one-to-one")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate sampled design labels: {labels}")

        with obs_current().span("trace_load"):
            provider = self._provider(workload, trace)
        try:
            return self._compare(provider, design_names, labels, workload,
                                 capacity, associativity, trace,
                                 trace_identity)
        finally:
            provider.close()

    def _stream_identity(self, workload, trace,
                         trace_identity) -> Optional[str]:
        """The authoritative identity of the measured stream, if known.

        An injected sequence need not be the canonical trace of the
        (workload, config) pair, so only the caller can name it; a stream
        the sampler opens itself is named by its trace token.
        """
        from repro.sampling.checkpoints import trace_token

        if trace is not None:
            return trace_identity
        return trace_token(workload, self.config)

    @staticmethod
    def _stream_token(identity, trace, store) -> str:
        """The checkpoint-keying identity of the measured access stream."""
        from repro.sampling.checkpoints import sequence_token

        if store is None:
            return ""
        # An unnamed injected sequence keys on its full content.
        return identity if identity is not None else sequence_token(trace)

    def _stoppers(self, plan: WindowPlan) -> Dict[str, AdaptiveStopper]:
        """One adaptive stopper per tracked metric, sized to the plan."""
        return {
            metric: AdaptiveStopper(
                target_relative_error=self.sampling.target_relative_error,
                min_windows=min(self.sampling.min_windows, len(plan.windows)),
                max_windows=len(plan.windows),
                absolute_floor=floor,
            )
            for metric, floor in TRACKED_METRICS.items()
        }

    @staticmethod
    def _trace_convergence(obs_run, window_index, measured, designs) -> None:
        """Emit one manifest event per measured window (enabled path only).

        Records the worst relative CI error across designs for every
        tracked metric -- the stopper-convergence trace that lets
        ``repro runs show`` explain *why* a sampled trial stopped where it
        did (or spent its whole window budget).
        """
        fields = {}
        for metric in TRACKED_METRICS:
            worst = 0.0
            for _, _, _, series in designs:
                try:
                    error = series[metric].interval().relative_error
                except (ValueError, ZeroDivisionError):
                    continue
                if error != error:  # NaN (undefined near-zero mean)
                    continue
                worst = max(worst, error)
            fields[f"rel_err_{metric}"] = round(worst, 6)
        obs_run.event("window", index=window_index, measured=len(measured),
                      **fields)

    def _checkpoint_designs(self, provider, design_names, labels, capacity,
                            associativity, plan, store, stream_token,
                            span=NULL_SPAN):
        """Build every design warm: restore its checkpoint or replay once.

        Returns ``[(label, design, checkpoint, series)]`` -- the shared
        setup of live measurement (:meth:`_compare`) and distributed
        window-batch jobs (:meth:`measure_windows`), so both start every
        window from bit-identical warm state.  ``span`` (the enclosing
        warmup span) is tagged with which warming engine ran per design.
        """
        from repro.sampling.checkpoints import design_token

        prologue = None

        designs = []
        for name, label in zip(design_names, labels):
            design = make_design(
                name, capacity, scale=self.config.scale,
                num_cores=self.config.num_cores, associativity=associativity,
            )
            checkpoint = None
            key = None
            if store is not None:
                key = store.key(
                    trace=stream_token,
                    design=design_token(name),
                    capacity=format_size(parse_size(capacity)),
                    scale=self.config.scale,
                    num_cores=self.config.num_cores,
                    associativity=associativity,
                    checkpoint_start=plan.checkpoint_start,
                    checkpoint_stop=plan.checkpoint_stop,
                )
                checkpoint = store.load(key)
                if checkpoint is not None:
                    try:
                        design.restore_state(checkpoint)
                    except ValueError:
                        # Stale shape (e.g. a design redefined in-process
                        # under the same token): fall back to warming.
                        checkpoint = None
            if checkpoint is None:
                # The one long replay: functional warming up to the
                # measurement region, frozen once, restored before every
                # window -- and persisted so later processes skip it too.
                if prologue is None:
                    prologue = self._read_warm(provider,
                                               plan.checkpoint_start,
                                               plan.checkpoint_stop)
                design.warm_up_array(prologue, span=span)
                checkpoint = design.snapshot_state()
                if store is not None and key is not None:
                    store.save(key, checkpoint)
            series = {metric: WindowSeries(f"{metric}[{label}]")
                      for metric in TRACKED_METRICS}
            designs.append((label, design, checkpoint, series))
        return designs

    def _compare(self, provider, design_names, labels, workload, capacity,
                 associativity, trace=None,
                 trace_identity=None) -> SampledRun:
        from repro.sim.executor import cached_window_baseline

        obs_run = obs_current()
        plan = plan_windows(provider.total, self.config.warmup_fraction,
                            self.sampling)
        store = self._checkpoint_store()
        identity = self._stream_identity(workload, trace, trace_identity)
        stream_token = self._stream_token(identity, trace, store)
        # The checkpoint prologue is the sampled path's functional warming:
        # it shows up in the ledger under the same "warmup" phase a full
        # replay's warm-up does.
        with obs_run.span("warmup") as warm_span:
            designs = self._checkpoint_designs(provider, design_names,
                                               labels, capacity,
                                               associativity, plan, store,
                                               stream_token, span=warm_span)
        stoppers = self._stoppers(plan)

        def all_converged() -> bool:
            return all(
                stoppers[metric].converged(series[metric])
                for _, _, _, series in designs
                for metric in TRACKED_METRICS
            )

        results = {label: SampledDesignResult(design=label, series=series)
                   for label, _, _, series in designs}
        measured: List[int] = []
        with obs_run.span("measure") as measure_span:
            for window_index in plan.order:
                window = plan.windows[window_index]
                warmup = self._read_warm(provider, window.warmup_start,
                                         window.start)
                measure = provider.read(window.start, window.stop)

                # Matched-pair baseline: the same window through a
                # no-DRAM-cache system, shared by every design here (and,
                # for a named stream, by later trials on this window).
                baseline_stats = cached_window_baseline(
                    identity, window.start, window.stop, measure,
                    span=measure_span,
                )

                for label, design, checkpoint, series in designs:
                    design.restore_state(checkpoint)
                    outcome = self._measure_window(
                        design, window, warmup, measure, baseline_stats,
                        workload, span=measure_span,
                    )
                    results[label].windows.append(outcome)
                    for metric in TRACKED_METRICS:
                        series[metric].add(window_index,
                                           getattr(outcome, metric))
                measured.append(window_index)
                measure_span.add("windows", 1)
                if obs_run.enabled:
                    obs_run.counter("accesses",
                                    len(measure) * len(designs))
                    obs_run.counter("warmup_accesses",
                                    len(warmup) * len(designs))
                    self._trace_convergence(obs_run, window_index, measured,
                                            designs)

                if all(stopper.should_stop([s[metric]
                                            for _, _, _, s in designs])
                       for metric, stopper in stoppers.items()):
                    break

        return SampledRun(
            plan=plan,
            sampling=self.sampling,
            workload=workload.name,
            capacity=format_size(parse_size(capacity)),
            scale=self.config.scale,
            designs=results,
            measured=measured,
            converged=all_converged(),
        )

    def measure_windows(self, design_name: str, workload: Workload,
                        capacity: SizeLike,
                        window_indices: Sequence[int],
                        trace: Optional[Sequence[MemoryAccess]] = None,
                        associativity: Optional[int] = None,
                        label: Optional[str] = None,
                        trace_identity: Optional[str] = None,
                        ) -> Dict[int, WindowMeasurement]:
        """Measure an explicit subset of the planned windows for one design.

        This is the distributed-execution primitive: the work queue splits a
        sampled trial's window plan into independent batches, and each batch
        job calls this with its indices.  Every window starts from the same
        warm checkpoint (loaded from the on-disk store, or rebuilt by one
        prologue replay) and pairs with the window's no-cache baseline (from
        the process-wide window-baseline cache, so jobs of other designs
        share it), so a window measured here is bit-identical to the same
        window measured by the serial :meth:`compare` loop -- regardless of
        which process, batch, or ordering produced it.
        """
        from repro.sim.executor import cached_window_baseline
        from repro.sim.registry import DESIGNS

        DESIGNS.resolve(design_name)
        obs_run = obs_current()
        with obs_run.span("trace_load"):
            provider = self._provider(workload, trace)
        try:
            plan = plan_windows(provider.total, self.config.warmup_fraction,
                                self.sampling)
            store = self._checkpoint_store()
            identity = self._stream_identity(workload, trace, trace_identity)
            stream_token = self._stream_token(identity, trace, store)
            with obs_run.span("warmup") as warm_span:
                designs = self._checkpoint_designs(
                    provider, [design_name], [label or design_name],
                    capacity, associativity, plan, store, stream_token,
                    span=warm_span,
                )
            _, design, checkpoint, _ = designs[0]
            measurements: Dict[int, WindowMeasurement] = {}
            with obs_run.span("measure") as measure_span:
                for index in window_indices:
                    if not 0 <= index < len(plan.windows):
                        raise ValueError(
                            f"window index {index} outside the plan "
                            f"({len(plan.windows)} windows); was the trace "
                            f"modified after the sweep was planned?"
                        )
                    window = plan.windows[index]
                    warmup = self._read_warm(provider, window.warmup_start,
                                             window.start)
                    measure = provider.read(window.start, window.stop)
                    baseline_stats = cached_window_baseline(
                        identity, window.start, window.stop, measure,
                        span=measure_span,
                    )
                    design.restore_state(checkpoint)
                    measurements[index] = self._measure_window(
                        design, window, warmup, measure, baseline_stats,
                        workload, span=measure_span,
                    )
                    measure_span.add("windows", 1)
                    if obs_run.enabled:
                        obs_run.counter("accesses", len(measure))
                        obs_run.counter("warmup_accesses", len(warmup))
            return measurements
        finally:
            provider.close()

    def assemble_run(self, label: str,
                     measurements: "Dict[int, WindowMeasurement]",
                     workload_name: str, capacity: SizeLike,
                     plan: WindowPlan) -> SampledRun:
        """Reconstruct a :class:`SampledRun` from pre-measured windows.

        Walks the plan's measurement order feeding the same adaptive
        stoppers the live loop uses, so it terminates at exactly the window
        the serial run would have stopped at -- measurements past that point
        (speculative windows a distributed execution measured eagerly) are
        discarded, and the aggregate result is bit-identical to the serial
        path's.
        """
        series = {metric: WindowSeries(f"{metric}[{label}]")
                  for metric in TRACKED_METRICS}
        stoppers = self._stoppers(plan)
        sampled = SampledDesignResult(design=label, series=series)
        measured: List[int] = []
        for window_index in plan.order:
            outcome = measurements.get(window_index)
            if outcome is None:
                raise ValueError(
                    f"window {window_index} has no measurement; the sweep's "
                    f"window-batch jobs are incomplete"
                )
            sampled.windows.append(outcome)
            for metric in TRACKED_METRICS:
                series[metric].add(window_index, getattr(outcome, metric))
            measured.append(window_index)
            if all(stopper.should_stop([series[metric]])
                   for metric, stopper in stoppers.items()):
                break
        converged = all(stoppers[metric].converged(series[metric])
                        for metric in TRACKED_METRICS)
        return SampledRun(
            plan=plan,
            sampling=self.sampling,
            workload=workload_name,
            capacity=format_size(parse_size(capacity)),
            scale=self.config.scale,
            designs={label: sampled},
            measured=measured,
            converged=converged,
        )

    def run_design(self, design_name: str, workload: Workload,
                   capacity: SizeLike,
                   trace: Optional[Sequence[MemoryAccess]] = None,
                   associativity: Optional[int] = None,
                   label: Optional[str] = None,
                   trace_identity: Optional[str] = None) -> ExperimentResult:
        """Sample one design and aggregate into an :class:`ExperimentResult`.

        The sampled counterpart of
        :meth:`repro.sim.experiment.ExperimentRunner.run_design`, and the
        entry point the sweep executor uses for trials with a ``sampling=``
        axis.
        """
        run = self.compare(
            [design_name], workload, capacity, trace=trace,
            associativity=associativity,
            labels=[label] if label is not None else None,
            trace_identity=trace_identity,
        )
        with obs_current().span("assemble"):
            return run.results()[0]


__all__ = [
    "SampledDesignResult",
    "SampledRun",
    "TRACKED_METRICS",
    "WindowMeasurement",
    "WindowedSampler",
]
