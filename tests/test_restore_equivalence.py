"""Snapshot -> checkpoint round trip -> restore -> replay equals straight replay.

Covers every valid composition of ``search.space.default_space()`` plus
every registered design, each on a short seeded trace.  The snapshot is
taken mid-stream and sent through ``pickle`` the way the on-disk checkpoint
store sends it; it is then restored twice -- once into the model that took
it (after that model replayed further) and once into a freshly built model
-- and each time the rest of the trace is replayed.  Both replays must
equal a straight replay in statistics, DRAM counters and the pickled bytes
of every ``_STATE_ATTRS`` value.

The state bytes are pickled without the memo.  Unpickling interns only
attribute names, so a restored string value is a new object where the
straight replay holds the interned literal; with the memo on, that identity
difference alone changes the bytes (a back-reference instead of a repeated
string) although no value differs.
"""

from __future__ import annotations

import io
import pickle

import pytest

from repro.config.cache_configs import scaled_capacity
from repro.search.space import default_space
from repro.sim.registry import DESIGNS, DesignBuildContext
from repro.utils.units import parse_size
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profile import WorkloadProfile

SCALE = 4096
NUM_CORES = 4
TRACE_ACCESSES = 1_200
SNAPSHOT_AT = 600

CANDIDATES = {spec.name: spec for spec in default_space().candidates()}
REGISTERED = DESIGNS.names()


@pytest.fixture(scope="module")
def trace():
    profile = WorkloadProfile(
        name="restore-tiny", working_set="2MB", num_code_regions=32,
        footprint_density=0.5, footprint_noise=0.05, singleton_fraction=0.1,
        temporal_reuse=0.2, region_zipf_alpha=0.6, pc_locality_run=3,
        write_fraction=0.3, l2_mpki=20.0,
    )
    return SyntheticWorkload(profile, num_cores=NUM_CORES,
                             seed=11).generate(TRACE_ACCESSES)


def _candidate_builder(name):
    paper = parse_size("1GB")
    context = DesignBuildContext(
        paper_capacity_bytes=paper,
        scaled_capacity_bytes=scaled_capacity(paper, SCALE),
        scale=SCALE,
        num_cores=NUM_CORES,
    )
    return lambda: CANDIDATES[name].build_composed(context)


def _registered_builder(name):
    return lambda: DESIGNS.build(name, "1GB", scale=SCALE,
                                 num_cores=NUM_CORES)


def _state_bytes(value) -> bytes:
    """``pickle.dumps`` of ``value`` with the memo off (see module doc)."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(value)
    return buffer.getvalue()


def _fingerprint(design):
    """Statistics, DRAM counters and the pickled bytes of all warm state."""
    stats = design.cache_stats
    counters = (stats.hits, stats.misses, stats.total_hit_latency,
                stats.total_miss_latency, stats.offchip_demand_blocks,
                stats.offchip_prefetch_blocks, stats.offchip_writeback_blocks)
    devices = tuple(
        (device.row_activations, device.stats().as_dict())
        for device in (design.memory, design.stacked)
    )
    state = {name: _state_bytes(getattr(design, name))
             for name in design._snapshot_attrs()}
    return counters, devices, state


def _assert_restore_equivalent(build, trace):
    straight = build()
    straight.run(trace)
    expected = _fingerprint(straight)

    design = build()
    design.run(trace[:SNAPSHOT_AT])
    checkpoint = pickle.loads(pickle.dumps(design.snapshot_state(),
                                           pickle.HIGHEST_PROTOCOL))
    design.run(trace[SNAPSHOT_AT:])  # advance past the snapshot first

    for target in (design, build()):
        target.restore_state(checkpoint)
        target.run(trace[SNAPSHOT_AT:])
        assert _fingerprint(target) == expected


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_candidate_restore_equals_straight_replay(name, trace):
    _assert_restore_equivalent(_candidate_builder(name), trace)


@pytest.mark.parametrize("name", REGISTERED)
def test_registered_restore_equals_straight_replay(name, trace):
    _assert_restore_equivalent(_registered_builder(name), trace)
