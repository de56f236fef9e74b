"""Tests for the DRAM timing model: timings, bank and channel timing, controller."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import DramChannelConfig, SystemConfig
from repro.dram.address_mapping import AddressMapping, DramCoordinates
from repro.dram.controller import DramController
from repro.dram.timing import DramTimings


@pytest.fixture
def timings():
    return DramTimings()


def _unit_controller(num_banks=8):
    """A one-channel controller whose CPU and DRAM clocks match, so latencies
    are in DRAM bus cycles: ``now + latency`` is the cycle the last beat
    ends."""
    config = DramChannelConfig(
        name="unit", frequency_mhz=1000.0, num_channels=1,
        banks_per_rank=num_banks, row_buffer_bytes=8192, bus_width_bits=128,
    )
    return DramController(config, cpu_frequency_ghz=1.0)


def _address(controller, bank, row):
    return controller.mapping.row_base_address(
        DramCoordinates(channel=0, bank=bank, row=row, column_byte=0))


def _data_start(controller, now, latency, num_bytes):
    """Cycle the first data beat of an access appeared on the bus."""
    return now + latency - controller.timings.data_cycles(num_bytes)


class TestDramTimings:
    def test_defaults_match_table_iii(self, timings):
        assert timings.t_cas == 11
        assert timings.t_rcd == 11
        assert timings.t_rp == 11
        assert timings.t_ras == 28
        assert timings.t_rc == 39
        assert timings.t_faw == 24

    def test_from_channel_config(self):
        stacked = SystemConfig().stacked_dram
        timings = DramTimings.from_channel_config(stacked)
        assert timings.bus_width_bits == 128
        assert timings.frequency_mhz == 1600.0

    def test_data_cycles(self, timings):
        # 128-bit DDR bus: 32 bytes per bus cycle.
        assert timings.data_cycles(64) == 2
        assert timings.data_cycles(32) == 1
        assert timings.data_cycles(1) == 1
        assert timings.data_cycles(0) == 0

    def test_burst_bytes(self, timings):
        assert timings.burst_bytes == 128

    def test_cpu_cycle_conversion(self, timings):
        # 3 GHz CPU over 1.6 GHz DRAM: 1.875 CPU cycles per DRAM cycle.
        assert timings.cpu_cycles(16, cpu_frequency_ghz=3.0) == 30

    def test_invalid_trc(self):
        with pytest.raises(ValueError):
            DramTimings(t_rc=10, t_ras=28)

    def test_invalid_bus_width(self):
        with pytest.raises(ValueError):
            DramTimings(bus_width_bits=12)


class TestBank:
    def test_first_access_is_row_miss(self, timings):
        dram = _unit_controller()
        latency = dram.access(_address(dram, 0, 5), 64, 0)
        assert dram.row_misses[0] == 1
        assert dram.row_hits[0] == 0
        assert dram.row_conflicts[0] == 0
        assert dram.open_row[0] == 5
        # Activate + CAS before data appears.
        assert (_data_start(dram, 0, latency, 64)
                >= timings.t_rcd + timings.t_cas)

    def test_second_access_same_row_hits(self, timings):
        dram = _unit_controller()
        first = dram.access(_address(dram, 0, 5), 64, 0)
        now = _data_start(dram, 0, first, 64) + 4
        second = dram.access(_address(dram, 0, 5) + 64, 64, now)
        assert dram.row_hits[0] == 1
        assert (_data_start(dram, now, second, 64)
                < now + timings.t_rcd + timings.t_cas)

    def test_conflict_requires_precharge(self, timings):
        dram = _unit_controller()
        dram.access(_address(dram, 0, 5), 64, 0)
        later = 200
        conflict = dram.access(_address(dram, 0, 9), 64, later)
        assert dram.row_conflicts[0] == 1
        assert (_data_start(dram, later, conflict, 64)
                >= later + timings.t_rp + timings.t_rcd + timings.t_cas)

    def test_activation_counting(self, timings):
        dram = _unit_controller()
        dram.access(_address(dram, 0, 1), 64, 0)
        dram.access(_address(dram, 0, 1), 64, 100)
        dram.access(_address(dram, 0, 2), 64, 400)
        assert dram.activations[0] == 2
        assert dram.row_hits[0] == 1
        assert dram.row_conflicts[0] == 1

    def test_trc_enforced_between_activations(self, timings):
        dram = _unit_controller()
        dram.access(_address(dram, 0, 1), 64, 0)
        conflict = dram.access(_address(dram, 0, 2), 64, 1)
        # The second activation cannot complete before tRC from the first.
        assert _data_start(dram, 1, conflict, 64) >= timings.t_rc

    def test_negative_row_rejected(self, timings):
        with pytest.raises(ValueError):
            _unit_controller().access(-8192, 64, 0)

    def test_is_row_open(self, timings):
        dram = _unit_controller()
        assert dram.open_row[0] != 3
        dram.access(_address(dram, 0, 3), 64, 0)
        assert dram.open_row[0] == 3
        assert dram.open_row[0] != 4


class TestChannel:
    def test_parallel_banks_independent_rows(self, timings):
        dram = _unit_controller(num_banks=8)
        a = dram.access(_address(dram, 0, 1), 64, 0)
        b = dram.access(_address(dram, 1, 1), 64, 0)
        # Bank 1's activate is delayed only by tRRD, not by a full access.
        assert b - a <= timings.t_rrd + timings.data_cycles(64)

    def test_faw_limits_burst_of_activates(self, timings):
        dram = _unit_controller(num_banks=8)
        latencies = [dram.access(_address(dram, i, 1), 64, 0)
                     for i in range(5)]
        # The fifth activate must wait for the tFAW window of the first four.
        assert _data_start(dram, 0, latencies[4], 64) >= timings.t_faw

    def test_data_bus_serializes_transfers(self, timings):
        dram = _unit_controller(num_banks=2)
        first = dram.access(_address(dram, 0, 1), 4096, 0)
        second = dram.access(_address(dram, 1, 1), 64, 0)
        assert _data_start(dram, 0, second, 64) >= first

    def test_row_buffer_hit_tracked(self, timings):
        dram = _unit_controller(num_banks=1)
        dram.access(_address(dram, 0, 7), 64, 0)
        dram.access(_address(dram, 0, 7), 64, 500)
        assert dram.row_hits[0] == 1
        assert dram.total_activations == 1

    def test_statistics(self, timings):
        dram = _unit_controller(num_banks=2)
        dram.access(_address(dram, 0, 1), 64, 0)
        dram.access(_address(dram, 1, 1), 32, 0, is_write=True)
        assert dram.reads == [1]
        assert dram.writes == [1]
        assert dram.bytes_transferred == [96]

    def test_invalid_bank_count(self, timings):
        with pytest.raises(ValueError):
            _unit_controller(num_banks=0)


class TestAddressMapping:
    def test_decompose_fields_in_range(self):
        mapping = AddressMapping(num_channels=4, banks_per_channel=8, row_bytes=8192)
        coords = mapping.decompose(123456789)
        assert 0 <= coords.channel < 4
        assert 0 <= coords.bank < 8
        assert 0 <= coords.column_byte < 8192

    def test_consecutive_rows_interleave_channels(self):
        mapping = AddressMapping(num_channels=4, banks_per_channel=8, row_bytes=8192)
        channels = [mapping.decompose(i * 8192).channel for i in range(8)]
        assert channels[:4] == [0, 1, 2, 3]

    def test_row_base_address_inverse(self):
        mapping = AddressMapping(num_channels=4, banks_per_channel=8, row_bytes=8192)
        for address in (0, 8192, 5 * 8192, 1234 * 8192):
            coords = mapping.decompose(address)
            assert mapping.row_base_address(coords) == address

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AddressMapping(num_channels=0, banks_per_channel=8, row_bytes=8192)

    @given(st.integers(0, 2 ** 45))
    @settings(max_examples=50)
    def test_property_round_trip(self, address):
        mapping = AddressMapping(num_channels=4, banks_per_channel=8, row_bytes=8192)
        coords = mapping.decompose(address)
        assert mapping.row_base_address(coords) + coords.column_byte == address


class TestDramController:
    def test_latency_reasonable_for_stacked_dram(self):
        controller = DramController(SystemConfig().stacked_dram)
        latency = controller.access(address=0, num_bytes=64, now_cpu=0)
        # Row activation + CAS + transfer at 1.875 CPU cycles per DRAM cycle:
        # roughly (11 + 11 + 2) * 1.875 = 45 CPU cycles.
        assert 30 <= latency <= 70
        assert controller.total_activations == 1

    def test_row_hit_is_faster(self):
        controller = DramController(SystemConfig().stacked_dram)
        miss = controller.access(address=0, num_bytes=64, now_cpu=0)
        hit = controller.access(address=64, num_bytes=64, now_cpu=1000)
        assert sum(controller.row_hits) == 1
        assert hit < miss

    def test_offchip_slower_than_stacked(self):
        system = SystemConfig()
        stacked = DramController(system.stacked_dram)
        offchip = DramController(system.offchip_dram)
        assert offchip.access(0, 64, 0) > stacked.access(0, 64, 0)

    def test_statistics_accumulate(self):
        controller = DramController(SystemConfig().stacked_dram)
        controller.access(0, 64, 0)
        controller.access(8192, 64, 0, is_write=True)
        stats = controller.stats()
        assert stats.get("requests") == 2
        assert stats.get("reads") == 1
        assert stats.get("writes") == 1
        assert stats.get("bytes_transferred") == 128

    def test_row_of_distinguishes_rows(self):
        controller = DramController(SystemConfig().stacked_dram)
        assert controller.row_of(0) == controller.row_of(4096)
        assert controller.row_of(0) != controller.row_of(8192)

    def test_invalid_bytes(self):
        controller = DramController(SystemConfig().stacked_dram)
        with pytest.raises(ValueError):
            controller.access(0, 0, 0)
        with pytest.raises(ValueError):
            controller.access(0, -64, 0)

    def test_burst_matches_one_access_per_bit(self):
        system = SystemConfig()
        fused = DramController(system.offchip_dram)
        single = DramController(system.offchip_dram)
        # 64-byte blocks from the tail of one 8 KB row into the next.
        base, mask = 120 * 64, 0b1011_0000_1111
        first = fused.burst(base, 64, mask, 64, 300, False)
        latencies = [single.access(base + bit * 64, 64, 300, False)
                     for bit in range(mask.bit_length()) if mask >> bit & 1]
        assert first == latencies[0]
        assert pickle.dumps(fused) == pickle.dumps(single)
        assert fused.total_requests == bin(mask).count("1")

    def test_read_pair_matches_two_reads(self):
        system = SystemConfig()
        for serialized in (False, True):
            fused = DramController(system.stacked_dram)
            single = DramController(system.stacked_dram)
            latency = fused.read_pair(32, 32, 4096, 64, 50, serialized)
            a = single.access(32, 32, 50, False)
            b = single.access(4096, 64, 50, False)
            assert latency == (a + b if serialized else max(a, b))
            assert pickle.dumps(fused) == pickle.dumps(single)


# --------------------------------------------------------------------- #
# A seeded stream of mixed operations through the stacked and off-chip
# controllers: 32 B, 64 B and page-sized reads and writes, footprint-style
# bursts (some crossing rows) and tag+data read pairs.  The digest was
# recorded with an independent per-bank/per-channel object model of the
# same timing rules (bursts and pairs as their per-access equivalents),
# so any change to DRAM timing fails here.
# --------------------------------------------------------------------- #
GOLDEN_SEED = 20141213
GOLDEN_OPS = 20_000
GOLDEN_DIGEST = (
    "69ce35073589d219b822ff39caa3b46755bfb4d905a65514a8e2dbf547e471f6")


def golden_stream(seed=GOLDEN_SEED, num_ops=GOLDEN_OPS):
    """Yield ``(target, op, *args)`` tuples; ``op`` is a controller method."""
    rng = random.Random(seed)
    row_bytes = 8192
    hot = [rng.randrange(0, 256) * row_bytes for _ in range(24)]
    now = {"stacked": 0, "offchip": 0}
    for _ in range(num_ops):
        target = "stacked" if rng.random() < 0.6 else "offchip"
        now[target] += rng.choice((0, 0, 1, 7, 40, 150, 600))
        t = now[target]
        if rng.random() < 0.7:
            base = rng.choice(hot)
        else:
            base = rng.randrange(0, 4096) * row_bytes
            if rng.random() < 0.2:
                hot[rng.randrange(len(hot))] = base
        kind = rng.random()
        if kind < 0.55:
            size = rng.choice((32, 64, 64, 2048))
            offset = rng.randrange(0, row_bytes // 64) * 64
            yield (target, "access", base + offset, size, t,
                   rng.random() < 0.35)
        elif kind < 0.8:
            stride = rng.choice((64, 64, 64, 8192))
            start = rng.randrange(0, row_bytes // 64)
            mask = rng.getrandbits(32) | (1 << rng.randrange(32))
            size = 64 if rng.random() < 0.9 else 32
            yield (target, "burst", base + start * 64, stride, mask, size, t,
                   rng.random() < 0.4)
        else:
            tag = base + rng.randrange(0, 8) * 32
            if rng.random() < 0.8:
                data = base + rng.randrange(8, row_bytes // 64) * 64
            else:
                data = rng.randrange(0, 4096) * row_bytes + 64
            yield (target, "read_pair", tag, 32, data, 64, t,
                   rng.random() < 0.5)


def _fresh_controllers():
    system = SystemConfig()
    return {"stacked": DramController(system.stacked_dram),
            "offchip": DramController(system.offchip_dram)}


def _replay(controllers, ops):
    return [getattr(controllers[op[0]], op[1])(*op[2:]) for op in ops]


def _golden_digest(latencies, controllers):
    counters = [
        (name, c.total_requests, c.activations, c.row_hits, c.row_misses,
         c.row_conflicts, c.reads, c.writes, c.bytes_transferred)
        for name, c in ((n, controllers[n]) for n in ("stacked", "offchip"))
    ]
    digest = hashlib.sha256()
    digest.update(repr(latencies).encode())
    digest.update(repr(counters).encode())
    return digest.hexdigest()


class TestGoldenStream:
    def test_stream_digest_unchanged(self):
        controllers = _fresh_controllers()
        latencies = _replay(controllers, golden_stream())
        assert _golden_digest(latencies, controllers) == GOLDEN_DIGEST

    def test_stream_exercises_every_outcome(self):
        controllers = _fresh_controllers()
        _replay(controllers, golden_stream(num_ops=2000))
        for controller in controllers.values():
            assert sum(controller.row_hits) > 0
            assert sum(controller.row_misses) > 0
            assert sum(controller.row_conflicts) > 0
            assert sum(controller.writes) > 0


class TestControllerRestore:
    """Copies taken mid-stream replay the rest exactly like the original."""

    SPLIT = 3000

    def _ops(self):
        return list(golden_stream(num_ops=6000))

    def _straight(self, ops):
        controllers = _fresh_controllers()
        latencies = _replay(controllers, ops)
        return latencies, {n: pickle.dumps(c) for n, c in controllers.items()}

    @pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
    def test_restore_then_replay_equals_straight_replay(self, clone):
        ops = self._ops()
        expected_latencies, expected_state = self._straight(ops)

        controllers = _fresh_controllers()
        head = _replay(controllers, ops[:self.SPLIT])
        if clone == "deepcopy":
            copies = copy.deepcopy(controllers)
        else:
            copies = pickle.loads(pickle.dumps(controllers))
        # Keep driving the original after the copy: a copy whose closures
        # still pointed at the original's lists would see these accesses.
        _replay(controllers, ops[:self.SPLIT])
        tail = _replay(copies, ops[self.SPLIT:])

        assert head + tail == expected_latencies
        assert {n: pickle.dumps(c) for n, c in copies.items()} \
            == expected_state

    def test_copies_do_not_share_state(self):
        original = DramController(SystemConfig().stacked_dram)
        original.access(0, 64, 0)
        twin = copy.deepcopy(original)
        unpickled = pickle.loads(pickle.dumps(original))
        twin.access(8192, 64, 10, True)
        unpickled.burst(0, 64, 0b111, 64, 20, False)
        assert original.total_requests == 1
        assert original.writes == [0, 0, 0, 0]
        assert original.row_hits == [0] * len(original.row_hits)
        assert twin.total_requests == 2
        assert unpickled.total_requests == 4
        for name in ("open_row", "next_column", "faw_window", "requests"):
            assert getattr(twin, name) is not getattr(original, name)
            assert getattr(unpickled, name) is not getattr(original, name)

    def test_pickle_holds_only_config_and_lists(self):
        controller = DramController(SystemConfig().offchip_dram)
        controller.access(0, 64, 0)
        state = controller.__getstate__()
        assert "access" not in state and "mapping" not in state
        for name, value in state.items():
            if name not in ("config", "cpu_frequency_ghz"):
                assert isinstance(value, list), name
