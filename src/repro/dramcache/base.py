"""Abstract interface of a die-stacked DRAM cache design.

Every design (Unison, Alloy, Footprint, Ideal, NoCache) consumes the same
request stream -- :class:`repro.trace.record.MemoryAccess` records, i.e. the
L2-miss stream -- and reports per-access outcomes through the same
:class:`DramCacheAccessResult`, so the experiment harness, the performance
model and the benchmark suite treat all designs uniformly.
"""

from __future__ import annotations

import abc
import pickle
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.dramcache.stats import DramCacheStats
from repro.mem.main_memory import MainMemory
from repro.mem.stacked import StackedDram
from repro.obs.core import NULL_SPAN
from repro.stats.counters import StatGroup
from repro.trace.record import MemoryAccess

#: Version of the model layer's *simulated behaviour* (designs, components,
#: device timing).  Bump this whenever a change alters what any design
#: computes for a given trace -- the on-disk warm-state checkpoint store
#: (:mod:`repro.sampling.checkpoints`) folds it into every key, so stale
#: checkpoints pickled by older model code are invalidated instead of
#: silently reused.  The design/component *composition* is keyed separately
#: (the registry entry token); this constant covers implementation changes
#: the composition cannot see, playing the role ``GENERATOR_VERSION`` plays
#: for the trace store.
MODEL_BEHAVIOR_VERSION = 1


@dataclass(frozen=True)
class StateSnapshot:
    """A design's warm state, frozen at one point of a replay.

    Produced by :meth:`DramCacheModel.snapshot_state` and consumed by
    :meth:`DramCacheModel.restore_state`.  The payload maps attribute names
    to one pickle blob each of the design's mutable components -- tag/frame
    arrays, replacement state, predictor tables (footprint, way, singleton,
    miss), statistics, and the DRAM device models with their timing state --
    so one warm checkpoint can seed arbitrarily many downstream measurement
    windows (the checkpointed-sampling workflow of :mod:`repro.sampling`).
    Restoring unpickles each blob into fresh objects; the blobs are
    immutable bytes, so the snapshot stays reusable and isolated from the
    live model, and pickling the snapshot itself (the on-disk checkpoint
    store) writes bytes rather than object graphs.  Each attribute is its
    own blob, so no object is shared across attributes after a restore.
    """

    design_name: str
    state: Dict[str, bytes]


@dataclass(frozen=True)
class DramCacheAccessResult:
    """Outcome of one DRAM-cache access."""

    hit: bool
    #: Latency of the access in CPU cycles, measured at the DRAM cache
    #: controller (excludes the L1/L2/interconnect portion, which the
    #: performance model adds uniformly for all designs).
    latency_cycles: int
    #: 64-byte blocks fetched from off-chip memory as a consequence of this
    #: access (demand block + any speculatively fetched footprint blocks).
    offchip_blocks_fetched: int = 0
    #: Dirty blocks written back off-chip as a consequence of this access.
    offchip_blocks_written: int = 0


class DramCacheModel(abc.ABC):
    """Base class for all DRAM cache designs.

    Subclasses implement :meth:`_service_request`; the public :meth:`access`
    wrapper advances the model's clock in a *closed-loop* fashion -- the next
    request is issued one inter-arrival gap after the previous one completes.
    This keeps the DRAM timing model in its unloaded-latency regime (the
    regime the paper's latency arguments are about) instead of accumulating
    unbounded queueing backlog when a trace is replayed back-to-back.
    """

    #: Short machine-readable design name, overridden by subclasses.
    design_name: str = "base"

    #: Mutable attributes captured by :meth:`snapshot_state`.  Subclasses
    #: declare *their own additions* (tag arrays, predictor tables, ...);
    #: declarations accumulate across the class hierarchy, so this base list
    #: of the universally-shared state is inherited by every design.
    _STATE_ATTRS: "tuple[str, ...]" = ("_now", "cache_stats", "memory",
                                       "stacked")

    def __init__(self, capacity_bytes: int, stacked: StackedDram = None,
                 memory: MainMemory = None,
                 interarrival_cycles: int = 6) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.stacked = stacked if stacked is not None else StackedDram()
        self.memory = memory if memory is not None else MainMemory()
        self.cache_stats = DramCacheStats(name=self.design_name)
        self._interarrival = max(1, interarrival_cycles)
        self._now = 0

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _service_request(self, request: MemoryAccess) -> DramCacheAccessResult:
        """Service one request at time ``self._now`` and return its outcome."""

    def access(self, request: MemoryAccess) -> DramCacheAccessResult:
        """Service one request, advancing the closed-loop clock."""
        self._now += self._interarrival
        result = self._service_request(request)
        self._now += max(0, result.latency_cycles)
        return result

    def run(self, requests: Iterable[MemoryAccess],
            span=NULL_SPAN) -> DramCacheStats:
        """Service a whole request stream and return the statistics record.

        Dispatches through :func:`repro.engine.replay`: a composition the
        fused kernels cover replays through its kernel unless the batch
        engine is disabled (``REPRO_BATCH`` / ``--batch-warming``), and
        everything else replays through :meth:`access`.  State and
        statistics are bit-identical either way.  ``span`` counts which
        engine ran (``engine_batch``/``engine_scalar``, ``batch_accesses``).
        """
        from repro.engine import replay

        replay(self, requests, span)
        return self.cache_stats

    def warm_up(self, requests: Iterable[MemoryAccess]) -> None:
        """Service requests on the scalar engine, then discard the statistics.

        Always the per-access :meth:`access` loop, whatever the batch
        switch says: the reference the fused kernels are checked and timed
        against.  :meth:`warm_up_array` is the dispatching warm-up.
        """
        for request in requests:
            self.access(request)
        self.reset_stats()

    def warm_up_array(self, accesses, span=NULL_SPAN) -> str:
        """Warm with a record array (or records) via the batch engine.

        Replays like :meth:`run`, then calls :meth:`reset_stats`
        (:func:`repro.engine.warm_design`); returns ``"batch"`` or
        ``"scalar"`` naming the engine that ran, and counts it on ``span``
        the way :meth:`run` does.
        """
        from repro.engine import warm_design

        return warm_design(self, accesses, span)

    def reset_stats(self) -> None:
        """Reset statistics without touching cache contents (warm-up boundary)."""
        self.cache_stats.reset()

    # ------------------------------------------------------------------ #
    # Snapshot/restore of warm state (checkpointed sampling)
    # ------------------------------------------------------------------ #
    @classmethod
    def _snapshot_attrs(cls) -> "tuple[str, ...]":
        """Every ``_STATE_ATTRS`` declaration along the class hierarchy."""
        attrs = []
        for klass in reversed(cls.__mro__):
            for name in vars(klass).get("_STATE_ATTRS", ()):
                if name not in attrs:
                    attrs.append(name)
        return tuple(attrs)

    def snapshot_state(self) -> StateSnapshot:
        """Freeze the design's warm state (contents, predictors, timing).

        The snapshot is independent of the live model: continuing to replay
        accesses never disturbs it, and it can seed any number of
        :meth:`restore_state` calls.
        """
        return StateSnapshot(
            design_name=self.design_name,
            state={name: pickle.dumps(getattr(self, name),
                                      pickle.HIGHEST_PROTOCOL)
                   for name in self._snapshot_attrs()},
        )

    def restore_state(self, snapshot: StateSnapshot) -> None:
        """Rewind the design to a previously captured snapshot."""
        if snapshot.design_name != self.design_name:
            raise ValueError(
                f"snapshot of design {snapshot.design_name!r} cannot "
                f"restore a {self.design_name!r} model"
            )
        expected = set(self._snapshot_attrs())
        if set(snapshot.state) != expected:
            raise ValueError(
                f"snapshot state keys {sorted(snapshot.state)} do not match "
                f"this design's state attributes {sorted(expected)}"
            )
        for name, blob in snapshot.state.items():
            setattr(self, name, pickle.loads(blob))

    # ------------------------------------------------------------------ #
    @property
    def miss_ratio(self) -> float:
        """Convenience accessor for the measured miss ratio."""
        return self.cache_stats.miss_ratio

    def extra_metrics(self) -> Dict[str, float]:
        """Design-specific metrics beyond the uniform cache statistics.

        Keys that match an :class:`repro.sim.experiment.ExperimentResult`
        metric field (e.g. ``footprint_accuracy``) populate that field; any
        other key lands in ``ExperimentResult.extra``.  The base design has
        none; predictor-equipped designs override this.
        """
        return {}

    def stats(self) -> StatGroup:
        """Design statistics plus the underlying device statistics."""
        group = StatGroup(self.design_name)
        group.merge_child(self.cache_stats.stats())
        group.merge_child(self.memory.stats())
        group.merge_child(self.stacked.stats())
        return group

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable one-line description."""
        from repro.utils.units import format_size

        return f"{self.design_name}({format_size(self.capacity_bytes)})"
