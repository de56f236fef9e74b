"""Fused service loops, one per tag organization, bit-identical to scalar.

A design replays a trace for two reasons: functional warming, which keeps
only the *state* the replay leaves behind (tag arrays, replacement state,
predictor tables, DRAM bank/channel timing horizons), and measurement,
which also reads the statistics.  The scalar engine walks five policy-role
objects per access and builds ``Lookup``/``HitPrediction``/
``FetchDecision``/``DramCacheAccessResult`` instances along the way.

Each kernel below fuses one tag organization's entire service loop
(composed engine + tag organization + predictors + DRAM timing) into a
single Python loop over flat locals, and serves warming and measurement
alike (:func:`repro.engine.replay`).  The rules that make the result
*bit-identical* to the scalar engine's ``access`` loop:

* every persistent state mutation happens in the same order, with the
  same values, as the scalar engine (including dict/OrderedDict insertion
  order, which pickles);
* every DRAM device operation is issued in the same order with the same
  (address, num_bytes, now, is_write) arguments, straight to the
  controllers' ``access``/``burst``/``read_pair`` (the one timing model
  the scalar engine uses too), so the timing state and the device
  request/byte counters come out identical;
* every statistic the scalar engine records -- ``DramCacheStats``, the way
  and miss predictors' accuracy counters, the footprint predictor's
  lookup/update/outcome counters, the off-chip traffic counters -- is kept
  in locals and added to the live objects when the loop ends, so a kernel
  and the scalar engine agree on every field, before and after
  ``reset_stats()``.

Replacement is the one role the kernels do not transliterate in general:
exact LRU keeps an inlined clock/recency arm (the paper's policy, and the
hot path of every figure), and any other per-set policy object is driven
through its own ``on_access``/``victim``/``on_fill`` methods, at the same
three points and with the same arguments as the scalar tag organization.
Random victims therefore draw from the very generators the scalar engine
would draw from, and RRIP ages the very RRPVs.

:func:`select_kernel` gates dispatch on *exact* component types for the
tags, hit predictor, fetch and writeback roles: a subclass anywhere there
falls back to the scalar engine rather than risk a silently-diverging
shortcut.  Every composition of ``search.space.default_space()`` and every
registered design has a kernel.
"""

from __future__ import annotations

from itertools import repeat

from repro.dramcache.base import DramCacheModel
from repro.dramcache.composed import ComposedDramCache
from repro.dramcache.components import (
    AlwaysHitTags,
    DemandBlockFetch,
    DirectMappedBlockTags,
    DisabledMissPrediction,
    DramPageTags,
    DropDirtyPolicy,
    FootprintFetch,
    FullPageFetch,
    LruReplacement,
    MissMapBlockTags,
    MissPredictionPolicy,
    NoCacheTags,
    NoHitPrediction,
    OracleWayPrediction,
    SramPageTags,
    WayPredictionPolicy,
    WritebackDirtyPolicy,
)
from repro.predictors.singleton import SingletonEntry
from repro.trace.record import BLOCK_SIZE
from repro.utils.bitvector import BitVector
from repro.utils.hashing import mix64

# Exact types only: subclasses may override behaviour the kernels inline.
_NO_PREDICTION_TYPES = (NoHitPrediction, OracleWayPrediction,
                        DisabledMissPrediction)
# Hit predictors of the block-level kernels (no prediction, or MAP-I), and
# of the page kernel, which adds way prediction.
_MAPI_TYPES = _NO_PREDICTION_TYPES + (MissPredictionPolicy,)
_PAGE_PREDICTION_TYPES = _MAPI_TYPES + (WayPredictionPolicy,)
_WRITEBACK_TYPES = (WritebackDirtyPolicy, DropDirtyPolicy)
_STATELESS_FETCH_TYPES = (DemandBlockFetch, FullPageFetch)
_FETCH_TYPES = (DemandBlockFetch, FullPageFetch, FootprintFetch)


def select_kernel(design):
    """Return the fused kernel covering ``design``, or None (scalar path).

    Coverage is decided by identity: the design must be a
    :class:`ComposedDramCache` running the stock ``access``/
    ``_service_request`` drivers, and the tags, hit predictor, fetch and
    writeback roles must be exact instances of the component classes the
    kernels transliterate.  The replacement role never decides coverage:
    the set-associative kernels inline exact :class:`LruReplacement` and
    call any other component's per-set policy objects, so random, RRIP
    or a user-defined victim choice replays through the kernel as well.

    A returned kernel may still decline one replay (it returns False
    before touching any state, and :func:`repro.engine.replay` runs the
    scalar engine instead): the MAP-I arm does so when a core id falls
    outside the predictor's per-core tables, so the scalar engine raises
    its ``ValueError`` at the same access with the same partial state.
    """
    if not isinstance(design, ComposedDramCache):
        return None
    cls = type(design)
    if cls._service_request is not ComposedDramCache._service_request:
        return None
    if cls.access is not DramCacheModel.access:
        return None
    hp_type = type(design.hit_predictor)
    fetch_type = type(design.fetch)
    if type(design.writeback) not in _WRITEBACK_TYPES:
        return None

    tags_type = type(design.tags)
    if tags_type in (DramPageTags, SramPageTags):
        if hp_type not in _PAGE_PREDICTION_TYPES:
            return None
        if fetch_type not in _FETCH_TYPES:
            return None
        return _replay_page_set_assoc
    if tags_type is DirectMappedBlockTags:
        if hp_type not in _MAPI_TYPES or fetch_type not in _FETCH_TYPES:
            return None
        return _replay_direct_mapped
    if tags_type is MissMapBlockTags:
        if (hp_type not in _MAPI_TYPES
                or fetch_type not in _STATELESS_FETCH_TYPES):
            return None
        return _replay_missmap
    hp_none = hp_type in _NO_PREDICTION_TYPES
    if tags_type is AlwaysHitTags:
        if not hp_none:
            return None
        return _replay_always_hit
    if tags_type is NoCacheTags:
        if not hp_none or fetch_type not in _STATELESS_FETCH_TYPES:
            return None
        return _replay_no_cache
    return None


def design_engine(name: str) -> str:
    """The engine registered design ``name`` replays on: the name of its
    kernel (``page_set_assoc``, ``direct_mapped``, ...), or ``scalar``.

    Asks :func:`select_kernel` of the design built at a small scale (1GB
    at 1/4096), so the report cannot drift from the dispatch; coverage
    depends on component types only, never on capacity.  ``repro
    designs`` and ``/api/designs`` report it per design.
    """
    from repro.sim.registry import DESIGNS

    kernel = select_kernel(DESIGNS.build(name, "1GB", scale=4096))
    if kernel is None:
        return "scalar"
    return kernel.__name__[len("_replay_"):]


class _FootprintState:
    """Flat view of a FootprintFetch (history table + singleton table).

    Methods transliterate ``FootprintFetch.plan`` / ``on_bypass`` /
    ``learn_eviction`` and ``FootprintPredictor.predict`` / ``update`` /
    ``record_outcome``, mutating the *real* dicts in place (their insertion
    order pickles) and keeping the clock and every counter in slots until
    :meth:`flush`.
    """

    __slots__ = ("fp", "st", "sets", "recency", "clock", "num_sets",
                 "assoc", "default_ones", "width", "st_width", "entries",
                 "cap", "ins", "pro", "evi", "lookups", "trained", "updates",
                 "correct", "actual", "fetched", "t_correct", "t_actual",
                 "t_fetched")

    def __init__(self, fetch: FootprintFetch) -> None:
        fp = fetch.predictor
        st = fetch.singleton_table
        self.fp = fp
        self.st = st
        self.sets = fp._sets
        self.recency = fp._recency
        self.clock = fp._clock
        self.num_sets = fp.num_sets
        self.assoc = fp.associativity
        self.default_ones = fp.default_all_blocks
        self.width = fp.blocks_per_page
        self.st_width = st.blocks_per_page
        self.entries = st._entries
        self.cap = st.num_entries
        self.ins = st.insertions
        self.pro = st.promotions
        self.evi = st.evictions
        # Predictor statistics gathered by this replay, added at flush():
        # lookups / trained hits / updates, and the record_outcome sums of
        # correctly predicted, actual and fetched blocks, over all outcomes
        # and over trained ones (t_*).
        self.lookups = self.trained = self.updates = 0
        self.correct = self.actual = self.fetched = 0
        self.t_correct = self.t_actual = self.t_fetched = 0

    def update(self, pc: int, offset: int, value: int) -> None:
        """FootprintPredictor.update with the footprint as a plain int."""
        self.updates += 1
        set_index = mix64(pc * 1000003 + offset) % self.num_sets
        key = (pc, offset)
        entries = self.sets.setdefault(set_index, {})
        if key not in entries and len(entries) >= self.assoc:
            recency = self.recency.get(set_index)
            if recency:
                victim = min(entries, key=lambda k: recency.get(k, 0))
                recency.pop(victim, None)
            else:
                # No recency info: min() over all-equal keys picks the
                # first in iteration order, exactly like the scalar path.
                victim = next(iter(entries))
            del entries[victim]
        entries[key] = BitVector(self.width, value)
        self.clock += 1
        recency = self.recency.get(set_index)
        if recency is None:
            recency = {}
            self.recency[set_index] = recency
        recency[key] = self.clock

    def plan(self, page: int, pc: int, offset: int):
        """FootprintFetch.plan -> (footprint_value, from_history, bypass,
        note_singleton)."""
        bit = 1 << offset
        entries = self.entries
        entry = entries.get(page)
        corrected = False
        if entry is not None:
            entries.move_to_end(page)
            observed = entry.observed
            value = observed._value | bit
            observed._value = value
            if value & (value - 1):
                # A second block was demanded: not a singleton after all.
                del entries[page]
                self.pro += 1
                self.update(entry.trigger_pc, entry.trigger_offset, value)
                corrected = True
        self.lookups += 1
        set_index = mix64(pc * 1000003 + offset) % self.num_sets
        history = self.sets.get(set_index)
        trained = history.get((pc, offset)) if history is not None else None
        if trained is not None:
            self.trained += 1
            self.clock += 1
            recency = self.recency.get(set_index)
            if recency is None:
                recency = {}
                self.recency[set_index] = recency
            recency[(pc, offset)] = self.clock
            footprint = trained._value | bit
            if footprint == bit:
                return bit, True, True, not corrected
            return footprint, True, False, False
        if self.default_ones:
            return (1 << self.width) - 1, False, False, False
        return bit, False, False, False

    def insert_singleton(self, page: int, pc: int, offset: int) -> None:
        """SingletonTable.insert (the on_bypass path)."""
        entries = self.entries
        if page in entries:
            entries.pop(page)
        elif len(entries) >= self.cap:
            entries.popitem(last=False)
            self.evi += 1
        entries[page] = SingletonEntry(
            page_number=page,
            trigger_pc=pc,
            trigger_offset=offset,
            observed=BitVector(self.st_width, 1 << offset),
        )
        self.ins += 1

    def learn_eviction(self, trigger_pc: int, trigger_offset: int,
                       demanded_value: int, predicted_value: int,
                       from_history: bool) -> None:
        """FootprintFetch.learn_eviction: train, then score the prediction.

        The actual footprint is never empty (the trigger block stands in
        for an untouched page), so ``record_outcome``'s floor of one
        actual block never applies.
        """
        if demanded_value == 0:
            demanded_value = 1 << trigger_offset
        self.update(trigger_pc, trigger_offset, demanded_value)
        correct = bin(predicted_value & demanded_value).count("1")
        actual = bin(demanded_value).count("1")
        fetched = bin(predicted_value).count("1")
        self.correct += correct
        self.actual += actual
        self.fetched += fetched
        if from_history:
            self.t_correct += correct
            self.t_actual += actual
            self.t_fetched += fetched

    def flush(self) -> None:
        fp = self.fp
        fp._clock = self.clock
        fp.lookups += self.lookups
        fp.trained_hits += self.trained
        fp.updates += self.updates
        fp.accuracy.add(self.correct, self.actual)
        fp.fetched_blocks += self.fetched
        fp.useful_blocks += self.correct
        fp.overfetched_blocks += self.fetched - self.correct
        fp.underpredicted_blocks += self.actual - self.correct
        fp.trained_accuracy.add(self.t_correct, self.t_actual)
        fp.trained_fetched_blocks += self.t_fetched
        fp.trained_overfetched_blocks += self.t_fetched - self.t_correct
        self.st.insertions = self.ins
        self.st.promotions = self.pro
        self.st.evictions = self.evi


def _record(design, cols, hits: int, hit_latency: int, miss_latency: int,
            m_read: int, m_written: int, m_req: int):
    """Add a replay's access outcomes and off-chip traffic to ``design``.

    Returns the design's ``cache_stats`` for the kernel's own fields.
    """
    memory = design.memory
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req
    stats = design.cache_stats
    writes = cols.wr.count(True)
    stats.hits += hits
    stats.misses += cols.n - hits
    stats.read_accesses += cols.n - writes
    stats.write_accesses += writes
    stats.total_hit_latency += hit_latency
    stats.total_miss_latency += miss_latency
    return stats


def _mapi(hp: MissPredictionPolicy, cols):
    """The MAP-I arm every MAP-I-capable kernel shares.

    Returns None when a core id of the replay falls outside the
    predictor's per-core tables: ``MissPredictor.predict_miss`` raises
    ``ValueError`` there, so the kernel declines before touching any state
    and the scalar engine raises it at the same access.  Otherwise returns
    ``(latency_cycles, keys, record, flush)``:

    * ``keys`` yields each access's ``(core, counter index)``;
    * ``record(key, hit)`` is ``MissPredictor.record`` for one access
      (``was_miss = not hit``): it trains the counter and returns the
      prediction, counting false misses and false hits;
    * ``flush(n, misses)`` adds the replay's accuracy, miss-identification,
      false-miss/false-hit and prediction counts to the predictor.
    """
    predictor = hp.predictor
    cores = cols.core
    if min(cores) < 0 or max(cores) >= predictor.num_cores:
        return None
    tables = predictor._tables
    threshold = predictor._threshold
    # MissPredictor.update as lookups: steps[hit][counter] is the trained
    # counter (a miss saturates up at the maximum, a hit down at zero).
    counters = range(predictor._max_value + 1)
    steps = (tuple(min(c + 1, counters[-1]) for c in counters),
             tuple(max(c - 1, 0) for c in counters))
    false_misses = false_hits = 0

    def record(key, hit: bool) -> bool:
        nonlocal false_misses, false_hits
        core, index = key
        table = tables[core]
        counter = table[index]
        table[index] = steps[hit][counter]
        if counter >= threshold:
            false_misses += hit
            return True
        false_hits += not hit
        return False

    def flush(n: int, misses: int) -> None:
        predictor.predictions += n
        predictor.accuracy.add(n - false_misses - false_hits, n)
        predictor.miss_identification.add(misses - false_hits, misses)
        predictor.false_misses += false_misses
        predictor.false_hits += false_hits

    indices = cols.mapi_indices(predictor._index_bits,
                                predictor.entries_per_core)
    return hp.latency_cycles, zip(cores, indices), record, flush


# --------------------------------------------------------------------- #
# Kernel A: set-associative page organizations (Unison / Footprint Cache)
# --------------------------------------------------------------------- #
def _replay_page_set_assoc(design, cols) -> bool:
    tags = design.tags
    is_dram = type(tags) is DramPageTags
    cfg = tags.config
    num_sets = tags.num_sets
    assoc = tags.associativity
    bpp = tags.blocks_per_page
    frames = tags.frames
    lru = tags.lru

    s_access = design.stacked.controller.access
    s_burst = design.stacked.controller.burst
    s_pair = design.stacked.controller.read_pair
    m_access = design.memory.controller.access
    m_burst = design.memory.controller.burst
    srow_bytes = design.stacked.row_bytes
    m_read = m_written = m_req = 0

    if is_dram:
        layout = tags.layout
        ppr = layout.pages_per_row
        pres_pp = layout.presence_bytes_per_page
        pres_set = layout.presence_bytes_per_set
        other_base = layout.presence_bytes_per_row
        meta_bytes = layout.pc_offset_bytes_per_page
        data_base = layout.data_base_offset
        page_bytes = layout.page_data_bytes
        block_bytes = cfg.block_size
        overhead = cfg.tag_read_overhead_cycles
        serialized = tags.hit_path == "serialized"
    else:
        ppr = tags.pages_per_row
        page_bytes = cfg.page_size
        block_bytes = cfg.block_size
        tag_latency = tags.tag_latency_cycles

    # The hit predictor's per-access column: the way predictor's page
    # hash, or MAP-I's (core, PC hash) key (the two roles are exclusive).
    hp = design.hit_predictor
    way_pred = type(hp) is WayPredictionPolicy
    mapi = type(hp) is MissPredictionPolicy
    pred_lat = 0
    if way_pred:
        predictor = hp.predictor
        wp_table = predictor._table
        wp_assoc = predictor.associativity
        penalty = hp.mispredict_penalty_cycles
        pred_idx = cols.way_indices(bpp, predictor.index_bits)
    elif mapi:
        arm = _mapi(hp, cols)
        if arm is None:
            return False
        pred_lat, pred_idx, mapi_record, mapi_flush = arm
    else:
        pred_idx = repeat(0)
    lru_inline = type(design.replacement) is LruReplacement

    fetch = design.fetch
    fp = _FootprintState(fetch) if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    # Per-set views, built when the replay first touches a set, so a short
    # replay into a large cache costs O(sets touched), not O(capacity).
    # A view holds the set's resident page -> way map (a page resides in
    # at most one frame; allocations happen only on page misses and
    # evictions delete, so it stays a bijection), its frames, its
    # replacement policy, and its frames' device addresses, which are
    # pure functions of the frame index: ``bases[w]`` is the data address
    # of way ``w``'s first block and, for the in-DRAM layout, ``pres[w]``
    # / ``meta[w]`` locate its presence and PC/offset metadata
    # (``pres[0]`` is also the set's tag read).
    views = {}

    def view_of(set_index):
        set_frames = frames[set_index]
        ways = {frame.page_number: way
                for way, frame in enumerate(set_frames) if frame.valid}
        bases = []
        pres = []
        meta = []
        for f in range(set_index * assoc, (set_index + 1) * assoc):
            row = f // ppr
            slot = f - row * ppr
            base = row * srow_bytes
            if is_dram:
                bases.append(base + data_base + slot * page_bytes)
                pres.append(base + slot * pres_pp)
                meta.append(base + other_base + slot * meta_bytes)
            else:
                bases.append(base + slot * page_bytes)
        view = views[set_index] = (ways, set_frames, lru[set_index], bases,
                                   pres, meta)
        return view

    now = design._now
    gap = design._interarrival
    hits = hit_lat = miss_lat = 0
    under = bypasses = evicts = wp_right = 0

    for block, pc, is_write, pidx in zip(cols.blk, cols.pc, cols.wr,
                                         pred_idx):
        now += gap
        page = block // bpp
        offset = block - page * bpp
        set_index = page % num_sets
        ways, set_frames, policy, bases, pres, meta = (
            views.get(set_index) or view_of(set_index))
        way = ways.get(page, -1)
        if way >= 0:
            frame = set_frames[way]
            block_hit = (frame.vbits._value >> offset) & 1
            # Way-predictor training (observe) happens on every page hit.
            if way_pred:
                predicted = wp_table[pidx]
                wp_table[pidx] = way
                correct = predicted == way
                wp_right += correct
            else:
                correct = True
                if mapi:
                    predicted_miss = mapi_record(pidx, block_hit)
            # tags.touch
            frame.demanded._value |= 1 << offset
            if is_write:
                frame.dbits._value |= 1 << offset
            if lru_inline:
                clock = policy._clock + 1
                policy._clock = clock
                policy._recency[way] = clock
            else:
                policy.on_access(way)

            if block_hit:
                if is_dram:
                    read_way = way if correct else (way + 1) % wp_assoc
                    latency = s_pair(
                        pres[0], pres_set,
                        bases[read_way] + offset * block_bytes,
                        BLOCK_SIZE, now, serialized) + overhead
                    if not correct:
                        latency += penalty
                    if is_write:
                        # on_hit_write targets the *actual* way.
                        s_access(bases[way] + offset * block_bytes,
                                 block_bytes, now, True)
                else:
                    address = bases[way] + offset * block_bytes
                    latency = tag_latency + s_access(address, block_bytes,
                                                     now, False)
                    if is_write:
                        s_access(address, block_bytes, now, True)
                if mapi:
                    latency += pred_lat
                    if predicted_miss:
                        # The (wrongly) issued parallel off-chip read.
                        m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
                        m_read += 1
                        m_req += 1
                hits += 1
                hit_lat += latency
                now += latency
                continue

            # Page hit, block miss (footprint underprediction).
            if is_dram:
                lookup_lat = s_access(pres[0], pres_set, now,
                                      False) + overhead
            else:
                lookup_lat = tag_latency
            offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
            m_read += 1
            m_req += 1
            # tags.fill_block
            frame.vbits._value |= 1 << offset
            s_access(bases[way] + offset * block_bytes, block_bytes, now,
                     True)
            under += 1
            latency = pred_lat + lookup_lat + offchip
            miss_lat += latency
            now += latency
            continue

        # Trigger miss.
        if mapi:
            mapi_record(pidx, False)
        if is_dram:
            lookup_lat = s_access(pres[0], pres_set, now, False) + overhead
        else:
            lookup_lat = tag_latency

        if fp is not None:
            footprint, from_history, bypass, note = fp.plan(page, pc, offset)
            if bypass:
                offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                   False)
                m_read += 1
                m_req += 1
                if note:
                    fp.insert_singleton(page, pc, offset)
                bypasses += 1
                latency = pred_lat + lookup_lat + offchip
                miss_lat += latency
                now += latency
                continue
            footprint |= 1 << offset
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        # allocate: victim, evict, fetch, install, device fill.
        if lru_inline:
            victim = -1
            for way, frame in enumerate(set_frames):
                if not frame.valid:
                    victim = way
                    break
            if victim < 0:
                recency = policy._recency
                victim = 0
                best = recency[0]
                for way in range(1, assoc):
                    if recency[way] < best:
                        best = recency[way]
                        victim = way
        else:
            victim = policy.victim([frame.valid for frame in set_frames])
        frame = set_frames[victim]
        if frame.valid:
            evicts += 1
            if is_dram:
                s_access(meta[victim], meta_bytes, now, False)
            if fp is not None:
                fp.learn_eviction(frame.trigger_pc, frame.trigger_offset,
                                  frame.demanded._value,
                                  frame.predicted._value,
                                  frame.predicted_from_history)
            dirty = frame.dbits._value & frame.vbits._value
            if dirty and wb_dirty:
                m_burst(frame.page_number * bpp * BLOCK_SIZE, BLOCK_SIZE,
                        dirty, BLOCK_SIZE, now, True)
                m_written += bin(dirty).count("1")
                m_req += 1
            del ways[frame.page_number]

        # Fetch the footprint's blocks; the trigger (lowest) read is the
        # critical one whose latency the request observes.
        offchip = m_burst(page * bpp * BLOCK_SIZE, BLOCK_SIZE, footprint,
                          BLOCK_SIZE, now, False)
        m_read += bin(footprint).count("1")
        m_req += 1

        frame.valid = True
        frame.page_number = page
        frame.vbits = BitVector(bpp, footprint)
        frame.dbits = BitVector(bpp, (1 << offset) if is_write else 0)
        frame.demanded = BitVector(bpp, 1 << offset)
        frame.predicted = BitVector(bpp, footprint)
        frame.predicted_from_history = from_history
        frame.trigger_pc = pc
        frame.trigger_offset = offset
        if lru_inline:
            clock = policy._clock + 1
            policy._clock = clock
            policy._recency[victim] = clock
        else:
            policy.on_fill(victim)
        ways[page] = victim

        s_burst(bases[victim], block_bytes, footprint, BLOCK_SIZE, now, True)
        if is_dram:
            s_access(pres[victim], pres_pp, now, True)
        latency = pred_lat + lookup_lat + offchip
        miss_lat += latency
        now += latency

    design._now = now
    stats = _record(design, cols, hits, hit_lat, miss_lat, m_read, m_written,
                    m_req)
    misses = cols.n - hits
    allocs = misses - under - bypasses
    # Each miss demands one block; every other block read is a prefetch
    # (a footprint block beyond an allocation's trigger, or a falsely
    # predicted miss).
    stats.offchip_demand_blocks += misses
    stats.offchip_prefetch_blocks += m_read - misses
    stats.offchip_writeback_blocks += m_written
    stats.pages_allocated += allocs
    stats.pages_evicted += evicts
    if is_dram:
        stats.conflict_evictions += evicts
    stats.singleton_bypasses += bypasses
    stats.underprediction_misses += under
    if way_pred:
        # The way predictor observes every access to a resident page.
        predictor.accuracy.add(wp_right, hits + under)
    if mapi:
        mapi_flush(cols.n, misses)
    if fp is not None:
        fp.flush()
    return True


# --------------------------------------------------------------------- #
# Kernel B: direct-mapped TAD organization (Alloy, alloy+footprint)
# --------------------------------------------------------------------- #
def _replay_direct_mapped(design, cols) -> bool:
    tags = design.tags
    cfg = tags.config
    num_blocks = tags.num_blocks
    bpp = tags.blocks_per_page
    tag_array = tags.tag_array
    dirty = tags.dirty
    blocks_per_row = cfg.blocks_per_row
    tad_bytes = cfg.tad_bytes
    regions = tags._regions
    region_cap = tags.region_observer_entries

    s_access = design.stacked.controller.access
    m_access = design.memory.controller.access
    srow_bytes = design.stacked.row_bytes
    m_read = m_written = m_req = 0

    hp = design.hit_predictor
    mapi = type(hp) is MissPredictionPolicy
    if mapi:
        arm = _mapi(hp, cols)
        if arm is None:
            return False
        pred_lat, mp_keys, mapi_record, mapi_flush = arm
    else:
        pred_lat = 0
        mp_keys = repeat(None)

    fetch = design.fetch
    fp = _FootprintState(fetch) if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    now = design._now
    gap = design._interarrival
    hits = hit_lat = miss_lat = 0
    bypasses = allocs = evicts = 0

    for block, pc, is_write, key in zip(cols.blk, cols.pc, cols.wr,
                                        mp_keys):
        now += gap
        frame = block % num_blocks
        hit = tag_array[frame] == block // num_blocks
        predicted_miss = mapi and mapi_record(key, hit)

        if hit:
            # tags.touch -> region observer demand (multi-block pages only).
            if bpp > 1:
                page = block // bpp
                entry = regions.pop(page, None)
                if entry is not None:
                    entry[2]._value |= 1 << (block - page * bpp)
                    regions[page] = entry
            row = frame // blocks_per_row
            tad_address = (row * srow_bytes
                           + (frame - row * blocks_per_row) * tad_bytes)
            latency = pred_lat + s_access(tad_address, tad_bytes, now, False)
            if predicted_miss:
                # The (wrongly) issued parallel off-chip read completes too.
                m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
                m_read += 1
                m_req += 1
            if is_write:
                s_access(tad_address, tad_bytes, now, True)
                dirty[frame] = True
            hits += 1
            hit_lat += latency
            now += latency
            continue

        # Miss path.
        if predicted_miss:
            lookup_lat = 0
        else:
            row = frame // blocks_per_row
            lookup_lat = s_access(
                row * srow_bytes
                + (frame - row * blocks_per_row) * tad_bytes,
                tad_bytes, now, False)
        page = block // bpp
        offset = block - page * bpp

        if fp is not None:
            footprint, from_history, bypass, note = fp.plan(page, pc, offset)
            if bypass:
                offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                   False)
                m_read += 1
                m_req += 1
                if note:
                    fp.insert_singleton(page, pc, offset)
                bypasses += 1
                latency = pred_lat + lookup_lat + offchip
                miss_lat += latency
                now += latency
                continue
            footprint |= 1 << offset
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        if footprint == 1 << offset:
            # Single-block allocation (the Alloy fast path).
            offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
            m_read += 1
            m_req += 1
            old_tag = tag_array[frame]
            if old_tag >= 0:
                evicts += 1
                if dirty[frame] and wb_dirty:
                    m_access((old_tag * num_blocks + frame) * BLOCK_SIZE,
                             BLOCK_SIZE, now, True)
                    m_written += 1
                    m_req += 1
            tag_array[frame] = block // num_blocks
            dirty[frame] = is_write
            allocs += 1
            row = frame // blocks_per_row
            s_access(row * srow_bytes
                     + (frame - row * blocks_per_row) * tad_bytes,
                     tad_bytes, now, True)
            latency = pred_lat + lookup_lat + offchip
            miss_lat += latency
            now += latency
            continue

        # Multi-block footprint (hybrid): fetch the region, install each
        # block into its own direct-mapped frame.
        base_block = page * bpp
        value = footprint
        low = value & -value
        offchip = m_access((base_block + low.bit_length() - 1) * BLOCK_SIZE,
                           BLOCK_SIZE, now, False)
        m_read += 1
        value ^= low
        while value:
            low = value & -value
            m_access((base_block + low.bit_length() - 1) * BLOCK_SIZE,
                     BLOCK_SIZE, now, False)
            m_read += 1
            value ^= low
        m_req += 1

        value = footprint
        while value:
            low = value & -value
            fetched = base_block + low.bit_length() - 1
            value ^= low
            install_frame = fetched % num_blocks
            old_tag = tag_array[install_frame]
            if old_tag >= 0:
                evicts += 1
                if dirty[install_frame] and wb_dirty:
                    m_access((old_tag * num_blocks + install_frame)
                             * BLOCK_SIZE, BLOCK_SIZE, now, True)
                    m_written += 1
                    m_req += 1
            tag_array[install_frame] = fetched // num_blocks
            dirty[install_frame] = is_write and fetched == block
            allocs += 1
            row = install_frame // blocks_per_row
            s_access(row * srow_bytes
                     + (install_frame - row * blocks_per_row) * tad_bytes,
                     tad_bytes, now, True)

        # _observe_allocation (bpp > 1 whenever the footprint is multi-bit).
        stale = regions.pop(page, None)
        if stale is None and len(regions) >= region_cap:
            stale = regions.pop(next(iter(regions)))
        if stale is not None and fp is not None:
            fp.learn_eviction(stale[0], stale[1], stale[2]._value,
                              stale[3]._value, stale[4])
        regions[page] = (pc, offset, BitVector(bpp, 1 << offset),
                        BitVector(bpp, footprint), from_history)
        latency = pred_lat + lookup_lat + offchip
        miss_lat += latency
        now += latency

    design._now = now
    stats = _record(design, cols, hits, hit_lat, miss_lat, m_read, m_written,
                    m_req)
    n = cols.n
    misses = n - hits
    # Each miss demands one block; every other block read is a prefetch
    # (a region fetch beyond its trigger, or a falsely predicted miss).
    stats.offchip_demand_blocks += misses
    stats.offchip_prefetch_blocks += m_read - misses
    stats.offchip_writeback_blocks += m_written
    stats.pages_allocated += allocs
    stats.pages_evicted += evicts
    stats.singleton_bypasses += bypasses
    if mapi:
        mapi_flush(n, misses)
    if fp is not None:
        fp.flush()
    return True


# --------------------------------------------------------------------- #
# Kernel C: MissMap-fronted set-per-row organization (Loh-Hill)
# --------------------------------------------------------------------- #
def _replay_missmap(design, cols) -> bool:
    tags = design.tags
    num_sets = tags.num_sets
    assoc = tags.associativity
    tag_blocks = tags.tag_blocks_per_row
    block_bytes = tags.block_size
    mm_latency = tags.missmap_latency_cycles
    tag_array = tags.tag_array
    dirty = tags.dirty
    lru = tags.lru
    missmap = tags.missmap

    s_access = design.stacked.controller.access
    m_access = design.memory.controller.access
    srow_bytes = design.stacked.row_bytes
    m_read = m_written = m_req = 0
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy
    lru_inline = type(design.replacement) is LruReplacement

    hp = design.hit_predictor
    mapi = type(hp) is MissPredictionPolicy
    if mapi:
        arm = _mapi(hp, cols)
        if arm is None:
            return False
        pred_lat, mp_keys, mapi_record, mapi_flush = arm
    else:
        pred_lat = 0
        mp_keys = repeat(None)

    # Present block -> way per set, maintained alongside the real missmap
    # dict; built when the replay first touches the set, so a short replay
    # into a large cache costs O(sets touched), not O(capacity).
    set_ways = {}

    now = design._now
    gap = design._interarrival
    tag_read_bytes = tag_blocks * block_bytes
    hits = hit_lat = miss_lat = evicts = 0

    for block, is_write, key in zip(cols.blk, cols.wr, mp_keys):
        now += gap
        set_index = block % num_sets
        ways = set_ways.get(set_index)
        if ways is None:
            ways = set_ways[set_index] = {
                tag * num_sets + set_index: way
                for way, tag in enumerate(tag_array[set_index])
                if tag >= 0 and missmap.get(tag * num_sets + set_index,
                                            False)
            }
        way = ways.get(block, -1)
        predicted_miss = mapi and mapi_record(key, way >= 0)
        if way >= 0:
            policy = lru[set_index]
            if lru_inline:
                policy._clock += 1
                policy._recency[way] = policy._clock
            else:
                policy.on_access(way)
            tag_lat = s_access(set_index * srow_bytes, tag_read_bytes, now,
                               False)
            data_lat = s_access(set_index * srow_bytes
                                + (tag_blocks + way) * block_bytes,
                                block_bytes, now, False)
            if predicted_miss:
                # The (wrongly) issued parallel off-chip read.
                m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
                m_read += 1
                m_req += 1
            if is_write:
                dirty[set_index][way] = True
            latency = pred_lat + mm_latency + tag_lat + data_lat
            hits += 1
            hit_lat += latency
            now += latency
            continue

        # Miss: MissMap answers without a DRAM tag read; allocate.
        offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
        m_read += 1
        m_req += 1
        row_tags = tag_array[set_index]
        policy = lru[set_index]
        if lru_inline:
            try:
                victim = row_tags.index(-1)
            except ValueError:
                recency = policy._recency
                victim = 0
                best = recency[0]
                for way in range(1, assoc):
                    if recency[way] < best:
                        best = recency[way]
                        victim = way
        else:
            victim = policy.victim([tag >= 0 for tag in row_tags])
        victim_tag = row_tags[victim]
        if victim_tag >= 0:
            evicts += 1
            victim_block = victim_tag * num_sets + set_index
            missmap.pop(victim_block, None)
            ways.pop(victim_block, None)
            if dirty[set_index][victim] and wb_dirty:
                m_access(victim_block * BLOCK_SIZE, BLOCK_SIZE, now, True)
                m_written += 1
                m_req += 1
        row_tags[victim] = block // num_sets
        dirty[set_index][victim] = is_write
        if lru_inline:
            policy._clock += 1
            policy._recency[victim] = policy._clock
        else:
            policy.on_fill(victim)
        missmap[block] = True
        ways[block] = victim
        s_access(set_index * srow_bytes, block_bytes, now, True)
        s_access(set_index * srow_bytes
                 + (tag_blocks + victim) * block_bytes,
                 block_bytes, now, True)
        latency = pred_lat + mm_latency + offchip
        miss_lat += latency
        now += latency

    design._now = now
    stats = _record(design, cols, hits, hit_lat, miss_lat, m_read, m_written,
                    m_req)
    misses = cols.n - hits
    # Every miss allocates its demand block; every other block read is a
    # falsely predicted miss.
    stats.offchip_demand_blocks += misses
    stats.offchip_prefetch_blocks += m_read - misses
    stats.offchip_writeback_blocks += m_written
    stats.pages_allocated += misses
    stats.pages_evicted += evicts
    if mapi:
        mapi_flush(cols.n, misses)
    return True


# --------------------------------------------------------------------- #
# Kernel D: the ideal always-hit reference
# --------------------------------------------------------------------- #
def _replay_always_hit(design, cols) -> bool:
    tags = design.tags
    row_bytes = tags.row_buffer_size
    block_bytes = tags.block_size
    s_access = design.stacked.controller.access
    srow_bytes = design.stacked.row_bytes

    now = design._now
    gap = design._interarrival
    hit_lat = 0
    for address in cols.addr:
        now += gap
        row = address // row_bytes
        offset = address % row_bytes // block_bytes * block_bytes
        latency = s_access(row * srow_bytes + offset, block_bytes, now, False)
        hit_lat += latency
        now += latency

    design._now = now
    _record(design, cols, cols.n, hit_lat, 0, 0, 0, 0)
    return True


# --------------------------------------------------------------------- #
# Kernel E: no stacked cache, everything off chip
# --------------------------------------------------------------------- #
def _replay_no_cache(design, cols) -> bool:
    m_access = design.memory.controller.access

    now = design._now
    gap = design._interarrival
    miss_lat = 0
    for block, is_write in zip(cols.blk, cols.wr):
        now += gap
        latency = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, is_write)
        miss_lat += latency
        now += latency

    design._now = now
    # Writes go straight off chip, reads are demand fetches.
    m_written = cols.wr.count(True)
    m_read = cols.n - m_written
    stats = _record(design, cols, 0, 0, miss_lat, m_read, m_written, cols.n)
    stats.offchip_demand_blocks += m_read
    stats.offchip_writeback_blocks += m_written
    return True


__all__ = ["design_engine", "select_kernel"]
