"""Span recorder for the benchmark's traced run.

The simulator itself carries no benchmark spans.  Instead, :class:`Tracer`
wraps the public functions of each layer from the outside (``install``)
and records one span per call: name, start, end and the span that was open
when the call began.  Spans live in flat arrays in memory -- the measure
loop makes hundreds of thousands of DRAM calls per repetition -- and are
written out once, when the run ends.

:meth:`Tracer.install` holds the layer map: which function stands for
which layer.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Span names, in report order.  Each is one layer of the simulator.
SPAN_NAMES = (
    "workloads.generate",
    "trace.store_put",
    "trace.store_load",
    "dramcache.build",
    "dramcache.measure",
    "mem.offchip",
    "mem.stacked",
    "engine.warm",
    "sampling.restore",
    "sampling.snapshot",
    "sampling.checkpoint_load",
    "sampling.checkpoint_save",
    "sim.baseline",
    "sim.assemble",
    "queue.lease",
    "queue.complete",
    "queue.archive",
    "search.rung",
)


def _length(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


class Tracer:
    """Records spans and counters around wrapped functions."""

    def __init__(self) -> None:
        self.names: List[str] = list(SPAN_NAMES)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def mark(self) -> int:
        """The index the next recorded span will get."""
        return len(self.start)

    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def span(self, owner, attr: str, name,
             count: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` so each call records one span.

        ``name`` is a span name, or a function of the call's arguments that
        returns one.  ``count(counts, args, result)`` updates counters after
        the call returns.
        """
        tracer = self
        fixed = None if callable(name) else self._ids[name]

        def wrapper(original):
            def traced(*args, **kwargs):
                name_id = (fixed if fixed is not None
                           else tracer._ids[name(args)])
                index = tracer._open(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if count is not None:
                    count(tracer.counts, args, result)
                return result
            return traced

        self._patch(owner, attr, wrapper)

    def generator_span(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function: each ``next()`` records one span."""
        tracer = self
        name_id = self._ids[name]

        def wrapper(original):
            def traced(*args, **kwargs):
                items = original(*args, **kwargs)
                while True:
                    index = tracer._open(name_id)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item
            return traced

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, count: Callable) -> None:
        """Wrap ``owner.attr`` to update counters only (no span)."""
        tracer = self

        def wrapper(original):
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                count(tracer.counts, args, result)
                return result
            return counted

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap the functions that stand for each layer (imports repro)."""
        import repro.sampling.runner as sampling_runner
        import repro.search.driver as search_driver
        import repro.sim.experiment as experiment
        from repro.baselines.no_cache import NoDramCache
        from repro.dramcache.base import DramCacheModel
        from repro.mem.main_memory import MainMemory
        from repro.mem.stacked import StackedDram
        from repro.queue.archive import ResultArchive
        from repro.queue.jobstore import JobStore
        from repro.sampling.checkpoints import CheckpointStore
        from repro.sampling.runner import SampledRun, WindowedSampler
        from repro.trace.store import TraceStore
        from repro.workloads.generator import SyntheticWorkload

        def add(key, amount=lambda args, result: 1):
            def count(counts, args, result):
                counts[key] += amount(args, result)
            return count

        # Three boundaries have no public function of their own: one
        # window's measurement, one trial's result assembly and one rung
        # of a search.  Their private methods stand in for them.

        self.generator_span(SyntheticWorkload, "iter_chunks",
                            "workloads.generate")
        self.span(TraceStore, "put_chunks", "trace.store_put")
        self.span(TraceStore, "load", "trace.store_load",
                  add("trace.accesses_loaded",
                      lambda args, result: _length(result or ())))
        for module in (experiment, sampling_runner):
            self.span(module, "make_design", "dramcache.build",
                      add("dramcache.builds"))

        def run_name(args):
            return ("sim.baseline" if isinstance(args[0], NoDramCache)
                    else "dramcache.measure")

        def run_count(counts, args, result):
            key = ("sim.baseline_accesses" if isinstance(args[0], NoDramCache)
                   else "dramcache.measure_accesses")
            counts[key] += _length(args[1])

        self.span(DramCacheModel, "run", run_name, run_count)
        for attr in ("read_block", "write_block", "fetch_blocks",
                     "write_blocks"):
            self.span(MainMemory, attr, "mem.offchip",
                      add("mem.offchip_calls"))
        # StackedDram.read_block and fill_blocks go through read/write.
        for attr in ("read", "write"):
            self.span(StackedDram, attr, "mem.stacked",
                      add("mem.stacked_calls"))

        def warm_count(counts, args, result):
            counts["engine.warm_accesses"] += _length(args[1])
            counts[f"engine.{result}_calls"] += 1

        self.span(DramCacheModel, "warm_up_array", "engine.warm", warm_count)
        self.span(DramCacheModel, "restore_state", "sampling.restore",
                  add("sampling.restores"))
        self.span(DramCacheModel, "snapshot_state", "sampling.snapshot")

        def load_count(counts, args, result):
            counts["sampling.checkpoint_hits" if result is not None
                   else "sampling.checkpoint_misses"] += 1

        self.span(CheckpointStore, "load", "sampling.checkpoint_load",
                  load_count)
        self.span(CheckpointStore, "save", "sampling.checkpoint_save")
        self.counter(WindowedSampler, "_measure_window",
                     add("sampling.windows"))
        self.span(experiment.ExperimentRunner, "_result_from", "sim.assemble",
                  add("sim.trials"))
        self.span(SampledRun, "results", "sim.assemble",
                  add("sim.trials", lambda args, result: len(result)))
        self.span(WindowedSampler, "assemble_run", "sim.assemble")
        self.span(JobStore, "lease", "queue.lease")
        self.span(JobStore, "complete", "queue.complete", add("queue.jobs"))
        self.counter(JobStore, "fail", add("queue.jobs_failed"))
        for attr in ("register", "put", "mark_complete", "get"):
            self.span(ResultArchive, attr, "queue.archive")
        self.span(search_driver.TuneSearch, "_run_rung", "search.rung",
                  add("search.rungs"))
        self.counter(search_driver.TuneSearch, "select_candidates",
                     add("search.candidates",
                         lambda args, result: len(result)))
        self.counter(search_driver, "prune_by_interval",
                     add("search.pruned",
                         lambda args, result: len(result[1])))

    # ------------------------------------------------------------------ #
    def layer_times(self, first: int, stop: int) -> Dict[str, float]:
        """Inclusive and self seconds per span name over spans [first, stop).

        Also returns ``covered_s``: the time covered by spans with no
        parent, i.e. the part of the interval some layer accounts for.
        """
        total: Dict[str, float] = {name: 0.0 for name in self.names}
        own: Dict[str, float] = dict(total)
        child_time: Dict[int, float] = {}
        covered = 0.0
        names, name_id, parent = self.names, self.name_id, self.parent
        start, end = self.start, self.end
        for index in range(stop - 1, first - 1, -1):
            duration = end[index] - start[index]
            name = names[name_id[index]]
            total[name] += duration
            own[name] += duration - child_time.pop(index, 0.0)
            up = parent[index]
            if up >= first:
                child_time[up] = child_time.get(up, 0.0) + duration
            else:
                covered += duration
        times = {f"{name}_s": value for name, value in total.items()}
        times.update({f"{name}_self_s": value for name, value in own.items()})
        times["covered_s"] = covered
        return times

    def write(self, path, run_labels: Dict[int, str]) -> int:
        """Write every span as gzip TSV; returns the number written.

        ``run_labels`` maps the first span index of each phase to its run
        id (``setup``, ``rep0``, ...); a span belongs to the latest phase
        that starts at or before it.
        """
        starts = sorted(run_labels)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("run\tspan\tname\tparent\tstart\tend\n")
            phase = 0
            for index in range(len(self.start)):
                while phase + 1 < len(starts) and starts[phase + 1] <= index:
                    phase += 1
                label = run_labels[starts[phase]] if starts else ""
                handle.write(
                    f"{label}\t{index}\t{self.names[self.name_id[index]]}\t"
                    f"{self.parent[index]}\t{self.start[index]:.9f}\t"
                    f"{self.end[index]:.9f}\n"
                )
        return len(self.start)
