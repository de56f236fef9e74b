"""DRAM controller: the simulator's one DRAM timing model.

:class:`DramController` is the interface the DRAM cache models and the main
memory use: it maps addresses to channels/banks/rows, performs accesses
against the timing model, and reports latencies in **CPU cycles** so callers
never handle DRAM-bus cycles directly.

The device state lives in plain lists of ints, indexed by global bank
``channel * banks_per_rank + bank`` or by channel:

* per bank -- the open row (-1 when precharged), the earliest cycles of
  the next activate, column command and precharge (tRC, tRAS, tRCD, tRP,
  tWR, tWTR, tRTP), and the activation / row-hit / row-miss /
  row-conflict counts;
* per channel -- the cycle the shared data bus frees, the last activate
  (tRRD), the activates of the tFAW window, and the read / write / byte
  counts.

``access``, ``burst`` and ``read_pair`` are closures over those lists,
built by ``_compile``: a call costs no attribute lookups and builds no
objects, which matters because the measure loop and batch warming issue
every stacked- and off-chip DRAM operation through them.  A pickle or
``copy.deepcopy`` carries only the config and the lists; ``__setstate__``
rebuilds the closures over the copied lists, so two copies never share
state.
"""

from __future__ import annotations

from repro.config.system import DramChannelConfig
from repro.dram.address_mapping import AddressMapping
from repro.dram.timing import DramTimings
from repro.stats.counters import StatGroup

#: Activates allowed inside one tFAW window.
_FAW_ACTIVATES = 4

#: Attributes rebuilt by ``_compile`` and therefore never pickled.
_DERIVED = ("timings", "mapping", "access", "burst", "read_pair")


class DramController:
    """Open-page controller over one or more channels.

    The controller keeps a coarse notion of time: callers pass the CPU cycle
    at which a request arrives, and receive its latency.  Internally the
    per-bank and per-bus constraints are tracked in DRAM bus cycles.

    Parameters
    ----------
    config:
        Channel organization and timing parameters.
    cpu_frequency_ghz:
        CPU frequency used to convert latencies to CPU cycles.

    Operations (instance attributes, rebuilt on unpickling):

    ``access(address, num_bytes, now_cpu=0, is_write=False) -> int``
        One column access of ``num_bytes`` at ``address`` arriving at CPU
        cycle ``now_cpu``; returns the latency in CPU cycles from arrival to
        the last data beat.  The transfer is assumed to stay within one
        DRAM row (the DRAM cache models guarantee this by construction).
    ``burst(base, stride, mask, num_bytes, now_cpu, is_write) -> int``
        One access per set bit of ``mask``, ascending, at
        ``base + bit_index * stride``; returns the first access's latency.
    ``read_pair(addr_a, bytes_a, addr_b, bytes_b, now_cpu, serialized)``
        Two reads issued at the same instant; returns the sum of their
        latencies when ``serialized`` and the larger one otherwise.
    """

    def __init__(self, config: DramChannelConfig, cpu_frequency_ghz: float = 3.0) -> None:
        config.validate()
        self.config = config
        self.cpu_frequency_ghz = cpu_frequency_ghz
        channels = config.num_channels
        banks = channels * config.banks_per_rank
        # Per bank.
        self.open_row = [-1] * banks
        self.next_activate = [0] * banks
        self.next_column = [0] * banks
        self.next_precharge = [0] * banks
        self.activations = [0] * banks
        self.row_hits = [0] * banks
        self.row_misses = [0] * banks
        self.row_conflicts = [0] * banks
        # Per channel.
        self.bus_free = [0] * channels
        self.last_activate = [-(10 ** 9)] * channels
        self.faw_window = [[] for _ in range(channels)]
        self.reads = [0] * channels
        self.writes = [0] * channels
        self.bytes_transferred = [0] * channels
        # A one-element list so the closures can count in place.
        self.requests = [0]
        self._compile()

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items()
                if name not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compile()

    def _compile(self) -> None:
        """Build the timing closures over the current state lists."""
        config = self.config
        self.timings = timings = DramTimings.from_channel_config(config)
        self.mapping = AddressMapping(
            num_channels=config.num_channels,
            banks_per_channel=config.banks_per_rank,
            row_bytes=config.row_buffer_bytes,
        )
        cpu_per_dram = (self.cpu_frequency_ghz * 1000.0) / config.frequency_mhz
        num_channels = config.num_channels
        banks_per_channel = config.banks_per_rank
        row_bytes = config.row_buffer_bytes
        bus_bytes = timings.bytes_per_burst_cycle

        t_cas = timings.t_cas
        t_rcd = timings.t_rcd
        t_rp = timings.t_rp
        t_ras = timings.t_ras
        t_rc = timings.t_rc
        t_wr = timings.t_wr
        t_wtr = timings.t_wtr
        t_rtp = timings.t_rtp
        t_rrd = timings.t_rrd
        t_faw = timings.t_faw

        b_open = self.open_row
        b_act = self.next_activate
        b_col = self.next_column
        b_pre = self.next_precharge
        b_acts = self.activations
        b_hits = self.row_hits
        b_miss = self.row_misses
        b_conf = self.row_conflicts
        c_bus = self.bus_free
        c_last = self.last_activate
        c_faw = self.faw_window
        c_reads = self.reads
        c_writes = self.writes
        c_bytes = self.bytes_transferred
        requests = self.requests

        def access(address: int, num_bytes: int, now_cpu: int = 0,
                   is_write: bool = False) -> int:
            if num_bytes <= 0:
                raise ValueError("num_bytes must be positive")
            if address < 0:
                raise ValueError("address must be non-negative")
            # AddressMapping.decompose, inlined.
            stripe = address // row_bytes
            ch = stripe % num_channels
            stripe //= num_channels
            row = stripe // banks_per_channel
            g = ch * banks_per_channel + stripe % banks_per_channel

            now = int(now_cpu / cpu_per_dram)

            if b_open[g] == row:
                b_hits[g] += 1
                column_issue = b_col[g]
                if now > column_issue:
                    column_issue = now
                next_column = column_issue
            else:
                # The activate waits for tRRD and the tFAW window.
                issue_time = c_last[ch] + t_rrd
                if now > issue_time:
                    issue_time = now
                window = c_faw[ch]
                if len(window) == _FAW_ACTIVATES:
                    faw_ready = window[0] + t_faw
                    if faw_ready > issue_time:
                        issue_time = faw_ready
                    del window[0]
                window.append(issue_time)
                c_last[ch] = issue_time

                next_activate = b_act[g]
                if b_open[g] >= 0:
                    # Row conflict: precharge the open row first.
                    b_conf[g] += 1
                    precharge_issue = b_pre[g]
                    if issue_time > precharge_issue:
                        precharge_issue = issue_time
                    ready = precharge_issue + t_rp
                    if ready > next_activate:
                        next_activate = ready
                else:
                    b_miss[g] += 1
                    ready = issue_time
                    if next_activate > ready:
                        ready = next_activate
                if next_activate > ready:
                    activate_issue = next_activate
                else:
                    activate_issue = ready
                b_open[g] = row
                b_acts[g] += 1
                b_act[g] = activate_issue + t_rc
                b_pre[g] = activate_issue + t_ras
                column_ready = activate_issue + t_rcd
                next_column = b_col[g]
                if column_ready > next_column:
                    next_column = column_ready
                column_issue = next_column
                if now > column_issue:
                    column_issue = now

            if is_write:
                # Write recovery constrains the next precharge and column.
                data_start = column_issue
                horizon = column_issue + t_wr
                if horizon > b_pre[g]:
                    b_pre[g] = horizon
                horizon = column_issue + t_wtr
                if horizon > next_column:
                    next_column = horizon
                c_writes[ch] += 1
            else:
                data_start = column_issue + t_cas
                horizon = column_issue + t_rtp
                if horizon > b_pre[g]:
                    b_pre[g] = horizon
                horizon = column_issue + 1
                if horizon > next_column:
                    next_column = horizon
                c_reads[ch] += 1
            b_col[g] = next_column

            # The shared data bus serializes transfers on a channel.
            if c_bus[ch] > data_start:
                data_start = c_bus[ch]
            data_end = data_start - (-num_bytes // bus_bytes)
            c_bus[ch] = data_end
            c_bytes[ch] += num_bytes
            requests[0] += 1
            # DRAM to CPU cycles, rounded up.
            return int(-(-(data_end - now) * cpu_per_dram // 1))

        def burst(base: int, stride: int, mask: int, num_bytes: int,
                  now_cpu: int, is_write: bool) -> int:
            # Same arithmetic as ``access`` per bit; the bank and channel
            # state stays in locals while consecutive accesses share a DRAM
            # row (a page's blocks live in one row) and is flushed when the
            # run leaves the row and at the end.
            now = int(now_cpu / cpu_per_dram)
            transfer = -(-num_bytes // bus_bytes)
            first_latency = -1
            cur_stripe = -1
            ch = g = row = 0
            open_row = col = act = pre = hits = miss = conf = acts = 0
            bus = last = reads = writes = nbytes = 0
            count = 0
            while mask:
                low = mask & -mask
                mask ^= low
                address = base + (low.bit_length() - 1) * stride
                stripe = address // row_bytes
                if stripe != cur_stripe:
                    if cur_stripe >= 0:
                        b_open[g] = open_row
                        b_col[g] = col
                        b_act[g] = act
                        b_pre[g] = pre
                        b_hits[g] = hits
                        b_miss[g] = miss
                        b_conf[g] = conf
                        b_acts[g] = acts
                        c_bus[ch] = bus
                        c_last[ch] = last
                        c_reads[ch] = reads
                        c_writes[ch] = writes
                        c_bytes[ch] = nbytes
                    cur_stripe = stripe
                    ch = stripe % num_channels
                    rest = stripe // num_channels
                    row = rest // banks_per_channel
                    g = ch * banks_per_channel + rest % banks_per_channel
                    open_row = b_open[g]
                    col = b_col[g]
                    act = b_act[g]
                    pre = b_pre[g]
                    hits = b_hits[g]
                    miss = b_miss[g]
                    conf = b_conf[g]
                    acts = b_acts[g]
                    bus = c_bus[ch]
                    last = c_last[ch]
                    reads = c_reads[ch]
                    writes = c_writes[ch]
                    nbytes = c_bytes[ch]

                if open_row == row:
                    hits += 1
                    column_issue = col
                    if now > column_issue:
                        column_issue = now
                    next_column = column_issue
                else:
                    issue_time = last + t_rrd
                    if now > issue_time:
                        issue_time = now
                    window = c_faw[ch]
                    if len(window) == _FAW_ACTIVATES:
                        faw_ready = window[0] + t_faw
                        if faw_ready > issue_time:
                            issue_time = faw_ready
                        del window[0]
                    window.append(issue_time)
                    last = issue_time

                    next_activate = act
                    if open_row >= 0:
                        conf += 1
                        precharge_issue = pre
                        if issue_time > precharge_issue:
                            precharge_issue = issue_time
                        ready = precharge_issue + t_rp
                        if ready > next_activate:
                            next_activate = ready
                    else:
                        miss += 1
                        ready = issue_time
                        if next_activate > ready:
                            ready = next_activate
                    if next_activate > ready:
                        activate_issue = next_activate
                    else:
                        activate_issue = ready
                    open_row = row
                    acts += 1
                    act = activate_issue + t_rc
                    pre = activate_issue + t_ras
                    column_ready = activate_issue + t_rcd
                    next_column = col
                    if column_ready > next_column:
                        next_column = column_ready
                    column_issue = next_column
                    if now > column_issue:
                        column_issue = now

                if is_write:
                    data_start = column_issue
                    horizon = column_issue + t_wr
                    if horizon > pre:
                        pre = horizon
                    horizon = column_issue + t_wtr
                    if horizon > next_column:
                        next_column = horizon
                    writes += 1
                else:
                    data_start = column_issue + t_cas
                    horizon = column_issue + t_rtp
                    if horizon > pre:
                        pre = horizon
                    horizon = column_issue + 1
                    if horizon > next_column:
                        next_column = horizon
                    reads += 1
                col = next_column

                if bus > data_start:
                    data_start = bus
                data_end = data_start + transfer
                bus = data_end
                nbytes += num_bytes
                count += 1
                if first_latency < 0:
                    first_latency = int(-(-(data_end - now) * cpu_per_dram
                                          // 1))
            if cur_stripe >= 0:
                b_open[g] = open_row
                b_col[g] = col
                b_act[g] = act
                b_pre[g] = pre
                b_hits[g] = hits
                b_miss[g] = miss
                b_conf[g] = conf
                b_acts[g] = acts
                c_bus[ch] = bus
                c_last[ch] = last
                c_reads[ch] = reads
                c_writes[ch] = writes
                c_bytes[ch] = nbytes
            requests[0] += count
            return first_latency

        def read_pair(addr_a: int, bytes_a: int, addr_b: int, bytes_b: int,
                      now_cpu: int, serialized: bool) -> int:
            latency_a = access(addr_a, bytes_a, now_cpu, False)
            latency_b = access(addr_b, bytes_b, now_cpu, False)
            if serialized:
                return latency_a + latency_b
            return latency_a if latency_a > latency_b else latency_b

        self.access = access
        self.burst = burst
        self.read_pair = read_pair

    # ------------------------------------------------------------------ #
    def row_of(self, address: int) -> int:
        """Global row identifier for ``address`` (used to detect same-row accesses)."""
        coords = self.mapping.decompose(address)
        return ((coords.row * self.mapping.banks_per_channel) + coords.bank) \
            * self.mapping.num_channels + coords.channel

    @property
    def total_requests(self) -> int:
        """Accesses served (a burst counts one per block)."""
        return self.requests[0]

    @property
    def total_activations(self) -> int:
        """Row activations across all channels (energy proxy, Section V-D)."""
        return sum(self.activations)

    @property
    def total_bytes_transferred(self) -> int:
        """Bytes moved over all data buses."""
        return sum(self.bytes_transferred)

    def stats(self) -> StatGroup:
        """Controller-level statistics."""
        group = StatGroup(self.config.name)
        group.set("requests", self.total_requests)
        group.set("activations", self.total_activations)
        group.set("bytes_transferred", self.total_bytes_transferred)
        group.set("reads", sum(self.reads))
        group.set("writes", sum(self.writes))
        return group
