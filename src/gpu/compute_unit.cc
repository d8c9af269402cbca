#include "gpu/compute_unit.hh"

#include <algorithm>
#include <atomic>
#include <functional>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::gpu
{

void
ComputeUnit::init(std::uint32_t id, std::uint32_t slot_count,
                  std::uint32_t num_simds, Freq freq)
{
    cuId = id;
    slots.assign(slot_count, Wavefront{});
    wgs.clear();
    wstate_.assign(slot_count, WaveState::Idle);
    readyAt_.assign(slot_count, 0);
    seq_.assign(slot_count, 0);
    readyMask_.resize(slot_count);
    pendMask_.resize(slot_count);
    memMask_.resize(slot_count);
    occMask_.resize(slot_count);
    const std::uint32_t simds = std::max(num_simds, 1u);
    simdMask_.assign(simds, BitMask{});
    for (std::uint32_t s = 0; s < simds; ++s) {
        simdMask_[s].resize(slot_count);
        for (std::uint32_t i = s; i < slot_count; i += simds)
            simdMask_[s].set(i);
    }
    freeSlots = slot_count;
    numReady = 0;
    wakeScanAt = 0;
    memWakeAt_ = tickInf;
    freq_ = freq;
    period_ = clockPeriod(freq);
    nextEventAt = 0;
}

void
ComputeUnit::setFrequency(Freq freq, Tick now, Tick trans)
{
    if (freq == freq_)
        return;
    freq_ = freq;
    period_ = clockPeriod(freq);
    freqStallUntil = now + trans;
    if (nextEventAt != tickInf)
        nextEventAt = std::max(nextEventAt, freqStallUntil);
}

void
ComputeUnit::drainLoadCompletions(Tick now)
{
    while (!loadCompletions.empty() && loadCompletions.front() <= now) {
        const Tick done = loadCompletions.front();
        std::pop_heap(loadCompletions.begin(), loadCompletions.end(),
                      std::greater<>());
        loadCompletions.pop_back();
        panicIf(outstandingLoads == 0, "load completion underflow");
        --outstandingLoads;
        --outstandingTotal;
        if (outstandingLoads == 0 && memActive) {
            epMemInterval += done - memStart;
            memActive = false;
        }
    }
    while (!storeCompletions.empty() && storeCompletions.front() <= now) {
        std::pop_heap(storeCompletions.begin(), storeCompletions.end(),
                      std::greater<>());
        storeCompletions.pop_back();
        panicIf(outstandingTotal == 0, "store completion underflow");
        --outstandingTotal;
    }
    if (leadActive && leadUntil <= now) {
        epLeadLoad += leadUntil - leadStart;
        leadActive = false;
    }
}

void
ComputeUnit::wakeWaves(Tick now)
{
    // wakeScanAt is a lower bound on the earliest pending wake, so
    // nothing can be due yet and the slot scan would be a no-op.
    if (now < wakeScanAt)
        return;
    // WaitMem wakes sit minutes (of CU cycles) in the future, while
    // Busy wakes land a cycle or two out and re-arm wakeScanAt almost
    // every step. Scanning the whole pending set each cycle therefore
    // wastes most of its time re-checking memory waiters that cannot
    // possibly be due; skip them while now < memWakeAt_. The wake
    // updates per due wave are independent (per-slot accrual plus one
    // state transition), so processing near and far waves in separate
    // passes is observationally identical to the old ascending scan.
    //
    // Each pass computes the due set and the next wake branchlessly
    // first (data-dependent branches on readyAt mispredict badly),
    // then processes the few due waves.
    Tick next_wake = tickInf;
    const bool scan_mem = now >= memWakeAt_;
    if (scan_mem)
        memWakeAt_ = tickInf;
    for (std::size_t wi = 0; wi < pendMask_.wordCount(); ++wi) {
        const std::uint64_t mem_w = memMask_.word(wi);
        std::uint64_t w = pendMask_.word(wi);
        if (!scan_mem)
            w &= ~mem_w;
        std::uint64_t due = 0;
        while (w != 0) {
            const std::uint64_t bit = w & (~w + 1);
            const std::size_t i =
                (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(w));
            w &= w - 1;
            const Tick at = readyAt_[i];
            const bool is_due = at <= now;
            due |= is_due ? bit : 0;
            const Tick pend_at = is_due ? tickInf : at;
            next_wake = std::min(next_wake, pend_at);
            if (scan_mem && (mem_w & bit) != 0)
                memWakeAt_ = std::min(memWakeAt_, pend_at);
        }
        while (due != 0) {
            const std::size_t i =
                (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(due));
            due &= due - 1;
            const Tick at = readyAt_[i];
            if (wstate_[i] == WaveState::WaitMem) {
                // The stall semantically ended at the wake tick, even
                // if this CU only got around to processing it now.
                Wavefront &w2 = slots[i];
                w2.epMemStall += at - w2.stallEnter;
                w2.retireCompleted(at);
            }
            setWaveState(static_cast<std::uint32_t>(i),
                         WaveState::Ready);
        }
    }
    wakeScanAt = std::min(next_wake, memWakeAt_);
}

void
ComputeUnit::closeSleep(Tick now)
{
    if (!sleeping)
        return;
    const Tick end = std::min(now, sleepUntil);
    if (end > sleepStart) {
        if (sleepGate == SleepGate::Load)
            epLoadStall += end - sleepStart;
        else if (sleepGate == SleepGate::Store)
            epStoreStall += end - sleepStart;
    }
    sleeping = false;
    sleepGate = SleepGate::None;
}

int
ComputeUnit::pickReadyWave(std::uint32_t simd) const
{
    const BitMask &mine = simdMask_[simd];
    // Oldest-first pick. Packing (seq << 16 | slot) into one key keeps
    // the min-reduction branchless (seqs are unique, so the slot bits
    // never decide the comparison; they just ride along).
    std::uint64_t best_key = ~std::uint64_t{0};
    for (std::size_t wi = 0; wi < readyMask_.wordCount(); ++wi) {
        std::uint64_t w = readyMask_.word(wi) & mine.word(wi);
        while (w != 0) {
            const std::size_t i =
                (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(w));
            w &= w - 1;
            best_key = std::min(best_key, (seq_[i] << 16) | i);
        }
    }
    if (best_key == ~std::uint64_t{0})
        return -1;
    return static_cast<int>(best_key & 0xffff);
}

void
ComputeUnit::ageRanks(std::vector<std::uint32_t> &rank) const
{
    // Seqs are unique per CU, so a wave's rank (the number of older
    // resident waves) is its position in seq order. Packing (seq << 16
    // | slot) sorts by seq and carries the slot along.
    static thread_local std::vector<std::uint64_t> keys;
    keys.clear();
    occMask_.forEachSet([&](std::size_t i) {
        keys.push_back((seq_[i] << 16) | i);
    });
    std::sort(keys.begin(), keys.end());
    rank.resize(slots.size());
    for (std::size_t r = 0; r < keys.size(); ++r)
        rank[keys[r] & 0xffff] = static_cast<std::uint32_t>(r);
}

std::uint64_t
ComputeUnit::genAddress(const isa::Kernel &kernel, const Wavefront &wave,
                        const isa::Instruction &ins) const
{
    const isa::MemRegion &region = kernel.regions[ins.mem.regionId];
    const std::uint64_t line = 64;
    switch (ins.mem.pattern) {
      case isa::AccessPattern::Streaming:
      case isa::AccessPattern::Strided: {
        // Each wave walks its own page-sized window, advancing by the
        // instruction stride per issue; streaming strides (< line) get
        // spatial reuse, larger strides touch a new line every access.
        const std::uint64_t window = 4096;
        const std::uint64_t start =
            (wave.globalId * window) % region.sizeBytes;
        const std::uint64_t span =
            ins.mem.pattern == isa::AccessPattern::Streaming
            ? window : region.sizeBytes;
        const std::uint64_t off =
            (wave.memSeq * ins.mem.strideBytes) % span;
        return region.base + (start + off) % region.sizeBytes;
      }
      case isa::AccessPattern::Random: {
        const std::uint64_t num_lines = std::max<std::uint64_t>(
            region.sizeBytes / line, 1);
        const std::uint64_t h = hashCombine(
            kernel.seed ^ (wave.globalId * 0x9e3779b97f4a7c15ULL),
            wave.memSeq);
        return region.base + (h % num_lines) * line;
      }
      case isa::AccessPattern::SharedHot: {
        // All waves share a small hot footprint (lookup tables).
        const std::uint64_t hot = std::min<std::uint64_t>(
            region.sizeBytes, 32 * 1024);
        const std::uint64_t num_lines = std::max<std::uint64_t>(
            hot / line, 1);
        const std::uint64_t h = hashCombine(kernel.seed, wave.memSeq);
        return region.base + (h % num_lines) * line;
      }
    }
    panic("unknown access pattern");
}

bool
ComputeUnit::tryDispatch(CuContext &ctx, Tick now)
{
    bool dispatched = false;
    // Scratch reused across calls: dispatch runs once per CU
    // activation on the hottest loop of the simulator, and the oracle
    // runs many chips per epoch, so a fresh vector here would be a
    // per-event allocation. thread_local keeps in-cell parallel
    // sweeps race-free.
    static thread_local std::vector<std::uint32_t> free_slots;
    while (ctx.dispatch.curLaunch < ctx.app.launches.size() &&
           ctx.dispatch.wgUndispatched > 0) {
        const isa::Kernel &kernel =
            ctx.app.launches[ctx.dispatch.curLaunch];

        // Collect free slots (ascending, same order as the old
        // full-array scan).
        free_slots.clear();
        occMask_.forEachClear([&](std::size_t i) {
            free_slots.push_back(static_cast<std::uint32_t>(i));
        });
        if (free_slots.size() < kernel.wavesPerWorkgroup)
            break;

        // Allocate a resident-workgroup record.
        std::uint32_t wg_index = 0;
        for (wg_index = 0; wg_index < wgs.size(); ++wg_index)
            if (!wgs[wg_index].valid)
                break;
        if (wg_index == wgs.size())
            wgs.emplace_back();
        ResidentWg &wg = wgs[wg_index];
        wg.valid = true;
        wg.launchIndex = ctx.dispatch.curLaunch;
        wg.waveCount = kernel.wavesPerWorkgroup;
        wg.arrived = 0;
        wg.done = 0;

        for (std::uint32_t i = 0; i < kernel.wavesPerWorkgroup; ++i) {
            const std::uint32_t slot = free_slots[i];
            Wavefront &w = slots[slot];
            w.resetKeepCapacity();
            setWaveState(slot, WaveState::Ready);
            readyAt_[slot] = 0;
            seq_[slot] = seqCounter++;
            w.pc = 0;
            w.globalId = ctx.dispatch.nextGlobalWaveId++;
            w.wgIndex = wg_index;
            w.launchIndex = ctx.dispatch.curLaunch;
            w.epStartPc = 0;
            w.epActive = true;
            w.loopTripsInit.resize(kernel.loops.size());
            for (std::size_t l = 0; l < kernel.loops.size(); ++l) {
                const isa::LoopSpec &spec = kernel.loops[l];
                std::uint32_t trips = spec.baseTrips;
                if (spec.tripVariation > 0) {
                    const std::uint64_t h = hashCombine(
                        kernel.seed ^ ctx.cfg.seed,
                        hashCombine(w.globalId, l));
                    trips = spec.baseTrips - spec.tripVariation +
                        static_cast<std::uint32_t>(
                            h % (2 * spec.tripVariation + 1));
                }
                w.loopTripsInit[l] = std::max<std::uint32_t>(trips, 1);
            }
            w.loopTrips = w.loopTripsInit;
            // Keep the wave's arrival time: it was not stalled before
            // existing; stats markers start clean.
            w.stallEnter = now;
            w.barrierEnter = now;
        }
        // Only this thread writes the count; others may read it.
        std::atomic_ref<std::uint32_t> left(ctx.dispatch.wgUndispatched);
        left.store(left.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
        dispatched = true;
    }
    return dispatched;
}

bool
ComputeUnit::dispatchWouldStart(const CuContext &ctx) const
{
    return ctx.dispatch.curLaunch < ctx.app.launches.size() &&
        undispatched(ctx.dispatch) > 0 &&
        freeSlots >=
        ctx.app.launches[ctx.dispatch.curLaunch].wavesPerWorkgroup;
}

void
ComputeUnit::releaseBarrier(std::uint32_t wg_index, Tick now)
{
    // WaitBarrier slots are exactly the occupied ones with no ready
    // bit and no pending wake.
    for (std::size_t wi = 0; wi < occMask_.wordCount(); ++wi) {
        std::uint64_t w = occMask_.word(wi) & ~readyMask_.word(wi) &
            ~pendMask_.word(wi);
        while (w != 0) {
            const std::uint32_t i = static_cast<std::uint32_t>(
                (wi << 6) + std::countr_zero(w));
            w &= w - 1;
            Wavefront &wave = slots[i];
            if (wstate_[i] != WaveState::WaitBarrier ||
                wave.wgIndex != wg_index) {
                continue;
            }
            wave.epBarrierStall += now - wave.barrierEnter;
            setWaveState(i, WaveState::Ready);
            ++wave.pc;
            ++wave.epCommitted;
            ++epCommitted;
            ++lifeCommitted_;
            lastCommit_ = now;
        }
    }
    wgs[wg_index].arrived = 0;
}

template <bool Private>
bool
ComputeUnit::issue(CuContext &ctx, std::uint32_t slot, Tick now,
                   bool &completed_wg)
{
    Wavefront &wave = slots[slot];
    const isa::Kernel &kernel = ctx.app.launches[wave.launchIndex];
    const isa::Instruction &ins = kernel.code[wave.pc];

    auto commit = [&]() {
        ++wave.epCommitted;
        ++epCommitted;
        ++lifeCommitted_;
        lastCommit_ = now;
    };
    auto busy_for = [&](Cycles cycles) {
        setWaveState(slot, WaveState::Busy);
        readyAt_[slot] = now + cycles * period_;
        wakeScanAt = std::min(wakeScanAt, readyAt_[slot]);
    };

    switch (ins.op) {
      case isa::OpType::VAlu:
      case isa::OpType::SAlu:
      case isa::OpType::Lds:
        commit();
        ++wave.pc;
        busy_for(ins.latency);
        break;

      case isa::OpType::VMemLoad:
      case isa::OpType::VMemStore: {
        const bool is_store = ins.op == isa::OpType::VMemStore;
        if (outstandingTotal >= ctx.cfg.mem.maxOutstandingPerCu) {
            // MSHRs full: a memory-capacity stall until something
            // drains. Booked as WaitMem so the wavefront estimators
            // see bandwidth saturation as asynchronous time.
            Tick wake = now + period_;
            if (!loadCompletions.empty())
                wake = std::max(wake, loadCompletions.front());
            if (!storeCompletions.empty() &&
                (loadCompletions.empty() ||
                 storeCompletions.front() < loadCompletions.front())) {
                wake = std::max(now + period_, storeCompletions.front());
            }
            setWaveState(slot, WaveState::WaitMem);
            readyAt_[slot] = wake;
            wakeScanAt = std::min(wakeScanAt, wake);
            memWakeAt_ = std::min(memWakeAt_, wake);
            wave.stallEnter = now;
            wave.stallGateStore = is_store;
            break;
        }
        const std::uint64_t addr = genAddress(kernel, wave, ins);
        if (Private && !ctx.mem.staysInCu(cuId, addr, is_store))
            return false;
        const memory::MemResult res =
            ctx.mem.access(cuId, addr, is_store, now, period_);
        PendingMem pm{res.completion, is_store};
        wave.pending.insert(
            std::upper_bound(wave.pending.begin(), wave.pending.end(), pm),
            pm);
        ++wave.memSeq;
        ++outstandingTotal;
        if (is_store) {
            ++epStores;
            storeCompletions.push_back(res.completion);
            std::push_heap(storeCompletions.begin(),
                           storeCompletions.end(), std::greater<>());
        } else {
            ++epLoads;
            if (outstandingLoads == 0) {
                memActive = true;
                memStart = now;
                if (!leadActive) {
                    leadActive = true;
                    leadStart = now;
                    leadUntil = res.completion;
                }
            }
            ++outstandingLoads;
            loadCompletions.push_back(res.completion);
            std::push_heap(loadCompletions.begin(), loadCompletions.end(),
                           std::greater<>());
        }
        commit();
        ++wave.pc;
        busy_for(ins.latency);
        break;
      }

      case isa::OpType::Waitcnt: {
        wave.retireCompleted(now);
        if (wave.pending.size() <= ins.maxOutstanding) {
            commit();
            ++wave.pc;
            busy_for(ins.latency);
        } else {
            const std::size_t gate_idx =
                wave.pending.size() - ins.maxOutstanding - 1;
            setWaveState(slot, WaveState::WaitMem);
            readyAt_[slot] = wave.pending[gate_idx].completion;
            wakeScanAt = std::min(wakeScanAt, readyAt_[slot]);
            memWakeAt_ = std::min(memWakeAt_, readyAt_[slot]);
            wave.stallEnter = now;
            wave.stallGateStore = wave.pending[gate_idx].isStore;
        }
        break;
      }

      case isa::OpType::Barrier: {
        ResidentWg &wg = wgs[wave.wgIndex];
        setWaveState(slot, WaveState::WaitBarrier);
        wave.barrierEnter = now;
        ++wg.arrived;
        if (wg.arrived + wg.done >= wg.waveCount)
            releaseBarrier(wave.wgIndex, now);
        break;
      }

      case isa::OpType::Branch: {
        std::uint32_t &trips = wave.loopTrips[ins.loopId];
        panicIf(trips == 0, "loop trip counter underflow");
        --trips;
        if (trips > 0) {
            wave.pc = static_cast<std::uint32_t>(ins.target);
        } else {
            trips = wave.loopTripsInit[ins.loopId];
            ++wave.pc;
        }
        commit();
        busy_for(ins.latency);
        break;
      }

      case isa::OpType::EndPgm: {
        ResidentWg &wg = wgs[wave.wgIndex];
        if (Private && wg.done + 1 == wg.waveCount)
            return false;
        commit();
        setWaveState(slot, WaveState::Idle);
        ++wg.done;
        if (wg.done == wg.waveCount) {
            wg.valid = false;
            ++ctx.dispatch.wgCompleted;
            completed_wg = true;
        }
        break;
      }
    }
    return true;
}

StepResult
ComputeUnit::step(CuContext &ctx, Tick now)
{
    StepCursor cursor;
    return step(ctx, now, cursor);
}

StepResult
ComputeUnit::step(CuContext &ctx, Tick now, StepCursor &cursor)
{
    StepResult result;
    advance<false>(ctx, now, cursor, result);
    return result;
}

bool
ComputeUnit::stepPrivate(CuContext &ctx, Tick now, StepCursor &cursor,
                         StepResult &out)
{
    out = StepResult{};
    return advance<true>(ctx, now, cursor, out);
}

template <bool Private>
bool
ComputeUnit::advance(CuContext &ctx, Tick now, StepCursor &cur,
                     StepResult &result)
{
    using Stage = StepCursor::Stage;
    // The cursor's fields live in locals while the step runs and are
    // stored back only when the step parks.
    Stage stage = cur.stage;
    std::uint32_t simd = cur.simd;
    bool issued_any = cur.issuedAny;
    // A parked step resumes where it stopped: its prologue already ran
    // at this tick and nothing of this CU changed since.
    if (stage == Stage::Fresh) {
        drainLoadCompletions(now);
        closeSleep(now);
        wakeWaves(now);

        if (now < freqStallUntil) {
            result.next = freqStallUntil;
            return true;
        }
        stage = Stage::Dispatch;
    }

    // Refill free slots from the dispatcher before issuing. A private
    // step only parks when a dispatch would start: with fewer free
    // slots than a workgroup needs, tryDispatch() changes nothing.
    if (stage == Stage::Dispatch) {
        if (freeSlots > 0 && undispatched(ctx.dispatch) > 0) {
            if (!Private) {
                tryDispatch(ctx, now);
            } else if (dispatchWouldStart(ctx)) {
                cur.stage = Stage::Dispatch;
                return false;
            }
        }
        simd = 0;
        issued_any = false;
    }

    // Each SIMD issues at most one instruction this cycle,
    // oldest-ready-first among its resident waves. The cached ready
    // count skips the per-SIMD scans entirely on wake-only steps.
    const std::uint32_t num_simds = std::max(ctx.cfg.simdsPerCu, 1u);
    bool completed_wg = false;
    if (numReady > 0) {
        for (; simd < num_simds; ++simd) {
            const int ready = pickReadyWave(simd);
            if (ready < 0)
                continue;
            if (!issue<Private>(ctx, static_cast<std::uint32_t>(ready),
                                now, completed_wg)) {
                cur = StepCursor{Stage::Issue, simd, issued_any};
                return false;
            }
            issued_any = true;
            epBusy += period_;
        }
    }
    cur.stage = Stage::Fresh;

    if (issued_any) {
        if (outstandingLoads > 0)
            epOverlap += period_;
        result.next = now + period_;
        // Completing the last workgroup of a launch advances the
        // dispatcher to the next kernel; every CU must be woken.
        if (completed_wg &&
            ctx.dispatch.curLaunch < ctx.app.launches.size()) {
            const isa::Kernel &kcur =
                ctx.app.launches[ctx.dispatch.curLaunch];
            if (ctx.dispatch.wgCompleted == kcur.numWorkgroups) {
                ++ctx.dispatch.curLaunch;
                ctx.dispatch.wgCompleted = 0;
                if (ctx.dispatch.curLaunch < ctx.app.launches.size()) {
                    ctx.dispatch.wgUndispatched =
                        ctx.app.launches[ctx.dispatch.curLaunch]
                        .numWorkgroups;
                    result.launchFinished = true;
                }
            }
        }
        return true;
    }

    // No ready wave: sleep until the earliest wake, classifying the
    // gate for STALL/CRISP accounting. Only Busy/WaitMem slots (the
    // pending mask) have a wake time; scan ascending like the old
    // full-array loop so ties resolve identically.
    // Packed (readyAt << 16 | slot) min: lowest wake, ties to the
    // lowest slot — the same winner the old ascending strict-< scan
    // produced — without a data-dependent branch per wave.
    std::uint64_t wake_key = ~std::uint64_t{0};
    for (std::size_t wi = 0; wi < pendMask_.wordCount(); ++wi) {
        std::uint64_t w = pendMask_.word(wi);
        while (w != 0) {
            const std::size_t i =
                (wi << 6) +
                static_cast<std::size_t>(std::countr_zero(w));
            w &= w - 1;
            wake_key = std::min(
                wake_key,
                (static_cast<std::uint64_t>(readyAt_[i]) << 16) | i);
        }
    }
    Tick wake = tickInf;
    bool wake_is_mem = false;
    bool wake_is_store = false;
    if (wake_key != ~std::uint64_t{0}) {
        const std::size_t i = wake_key & 0xffff;
        wake = readyAt_[i];
        wake_is_mem = wstate_[i] == WaveState::WaitMem;
        wake_is_store = wake_is_mem && slots[i].stallGateStore;
    }

    if (wake == tickInf) {
        // Fully drained (or only barrier waiters, which would be a
        // deadlock and cannot happen with well-formed kernels). With
        // no ready and no pending slots, anything still occupied is
        // blocked at a barrier.
        panicIf(occMask_.any(),
                "barrier deadlock: all remaining waves at s_barrier");
        result.next = tickInf;
        return true;
    }

    sleeping = true;
    sleepStart = now;
    sleepUntil = wake;
    sleepGate = !wake_is_mem ? SleepGate::None
        : (wake_is_store ? SleepGate::Store : SleepGate::Load);
    result.next = wake;
    return true;
}

void
ComputeUnit::harvest(CuContext &ctx, Tick boundary, CuEpochRecord &cu_out,
                     std::vector<WaveEpochRecord> &waves_out)
{
    drainLoadCompletions(boundary);
    wakeWaves(boundary);

    // Close open accrual intervals at the boundary and restart them.
    if (sleeping) {
        const Tick end = std::min(boundary, sleepUntil);
        if (end > sleepStart) {
            if (sleepGate == SleepGate::Load)
                epLoadStall += end - sleepStart;
            else if (sleepGate == SleepGate::Store)
                epStoreStall += end - sleepStart;
        }
        sleepStart = std::max(sleepStart, end);
    }
    if (memActive) {
        epMemInterval += boundary - memStart;
        memStart = boundary;
    }
    if (leadActive) {
        const Tick end = std::min(leadUntil, boundary);
        if (end > leadStart)
            epLeadLoad += end - leadStart;
        if (leadUntil <= boundary)
            leadActive = false;
        else
            leadStart = boundary;
    }

    cu_out.committed = epCommitted;
    cu_out.vmemLoads = epLoads;
    cu_out.vmemStores = epStores;
    cu_out.busy = epBusy;
    cu_out.loadStall = epLoadStall;
    cu_out.storeStall = epStoreStall;
    cu_out.leadLoad = epLeadLoad;
    cu_out.memInterval = epMemInterval;
    cu_out.overlap = epOverlap;
    cu_out.mem = ctx.mem.activity(cuId);
    cu_out.freq = freq_;

    static thread_local std::vector<std::uint32_t> rank;
    ageRanks(rank);
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        Wavefront &w = slots[i];
        const WaveState state = wstate_[i];
        if (!w.epActive && state == WaveState::Idle)
            continue;
        // Clip in-progress waits at the boundary.
        if (state == WaveState::WaitMem) {
            const Tick end = std::min(boundary, readyAt_[i]);
            if (end > w.stallEnter)
                w.epMemStall += end - w.stallEnter;
            w.stallEnter = std::max(w.stallEnter, end);
        } else if (state == WaveState::WaitBarrier) {
            if (boundary > w.barrierEnter)
                w.epBarrierStall += boundary - w.barrierEnter;
            w.barrierEnter = boundary;
        }

        WaveEpochRecord rec;
        rec.cu = cuId;
        rec.slot = i;
        rec.startPc = w.epStartPc;
        rec.startPcAddr =
            ctx.app.launches[w.launchIndex].pcAddr(w.epStartPc);
        rec.committed = w.epCommitted;
        rec.memStall = w.epMemStall;
        rec.barrierStall = w.epBarrierStall;
        rec.ageRank = state == WaveState::Idle ? 0 : rank[i];
        rec.active = true;
        waves_out.push_back(rec);

        // Reset per-epoch wave accounting.
        w.epCommitted = 0;
        w.epMemStall = 0;
        w.epBarrierStall = 0;
        w.epStartPc = w.pc;
        w.epActive = state != WaveState::Idle;
    }

    epCommitted = 0;
    epLoads = 0;
    epStores = 0;
    epBusy = 0;
    epOverlap = 0;
    epLoadStall = 0;
    epStoreStall = 0;
    epLeadLoad = 0;
    epMemInterval = 0;
}

void
ComputeUnit::fingerprint(std::uint64_t &h) const
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(cuId);
    mix(freq_);
    mix(static_cast<std::uint64_t>(period_));
    mix(static_cast<std::uint64_t>(freqStallUntil));
    mix(static_cast<std::uint64_t>(nextEventAt));
    mix(freeSlots);
    mix(seqCounter);
    mix(lifeCommitted_);
    mix(static_cast<std::uint64_t>(lastCommit_));

    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Wavefront &w = slots[i];
        mix(static_cast<std::uint64_t>(wstate_[i]));
        mix(w.pc);
        mix(static_cast<std::uint64_t>(readyAt_[i]));
        mix(w.pending.size());
        for (const PendingMem &p : w.pending) {
            mix(static_cast<std::uint64_t>(p.completion));
            mix(p.isStore ? 1 : 0);
        }
        mix(w.loopTrips.size());
        for (std::uint32_t t : w.loopTrips)
            mix(t);
        for (std::uint32_t t : w.loopTripsInit)
            mix(t);
        mix(w.globalId);
        mix(seq_[i]);
        mix(w.wgIndex);
        mix(w.launchIndex);
        mix(w.memSeq);
        mix(w.epCommitted);
        mix(static_cast<std::uint64_t>(w.epMemStall));
        mix(static_cast<std::uint64_t>(w.epBarrierStall));
        mix(w.epStartPc);
        mix(w.epActive ? 1 : 0);
        mix(static_cast<std::uint64_t>(w.stallEnter));
        mix(static_cast<std::uint64_t>(w.barrierEnter));
        mix(w.stallGateStore ? 1 : 0);
    }

    mix(wgs.size());
    for (const ResidentWg &wg : wgs) {
        mix(wg.valid ? 1 : 0);
        mix(wg.launchIndex);
        mix(wg.waveCount);
        mix(wg.arrived);
        mix(wg.done);
    }

    mix(loadCompletions.size());
    for (Tick t : loadCompletions)
        mix(static_cast<std::uint64_t>(t));
    mix(storeCompletions.size());
    for (Tick t : storeCompletions)
        mix(static_cast<std::uint64_t>(t));
    mix(outstandingLoads);
    mix(outstandingTotal);

    mix(sleeping ? 1 : 0);
    mix(static_cast<std::uint64_t>(sleepStart));
    mix(static_cast<std::uint64_t>(sleepUntil));
    mix(static_cast<std::uint64_t>(sleepGate));
    mix(memActive ? 1 : 0);
    mix(static_cast<std::uint64_t>(memStart));
    mix(leadActive ? 1 : 0);
    mix(static_cast<std::uint64_t>(leadStart));
    mix(static_cast<std::uint64_t>(leadUntil));

    mix(epCommitted);
    mix(epLoads);
    mix(epStores);
    mix(static_cast<std::uint64_t>(epBusy));
    mix(static_cast<std::uint64_t>(epOverlap));
    mix(static_cast<std::uint64_t>(epLoadStall));
    mix(static_cast<std::uint64_t>(epStoreStall));
    mix(static_cast<std::uint64_t>(epLeadLoad));
    mix(static_cast<std::uint64_t>(epMemInterval));
}

void
ComputeUnit::appendSnapshots(const isa::Application &app,
                             std::vector<WaveSnapshot> &out) const
{
    static thread_local std::vector<std::uint32_t> rank;
    ageRanks(rank);
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (wstate_[i] == WaveState::Idle)
            continue;
        const Wavefront &w = slots[i];
        WaveSnapshot snap;
        snap.cu = cuId;
        snap.slot = i;
        snap.pc = w.pc;
        snap.pcAddr = app.launches[w.launchIndex].pcAddr(w.pc);
        snap.ageRank = rank[i];
        out.push_back(snap);
    }
}

std::uint64_t
ComputeUnit::issuesToEnd(const isa::Application &app,
                         std::uint32_t slot) const
{
    if (wstate_[slot] == WaveState::Idle)
        return 0;
    const Wavefront &w = slots[slot];
    const std::vector<isa::Instruction> &code =
        app.launches[w.launchIndex].code;
    const std::size_t end = code.size() - 1;
    // Branches only jump backwards and s_endpgm is the last
    // instruction, so the wave issues every instruction in [pc, end]
    // at least once. The first back-edge at or after pc that jumps to
    // or before it closes a loop around pc, and only that branch
    // changes its trip counter (Kernel::validate), so the wave also
    // repeats the loop body trips - 1 more times.
    std::uint64_t n = end - w.pc + 1;
    for (std::size_t b = w.pc; b < end; ++b) {
        const isa::Instruction &ins = code[b];
        if (ins.op == isa::OpType::Branch &&
            static_cast<std::size_t>(ins.target) <= w.pc) {
            n += static_cast<std::uint64_t>(w.loopTrips[ins.loopId] - 1) *
                (b - static_cast<std::size_t>(ins.target) + 1);
            break;
        }
    }
    // A wave waiting at s_barrier has already issued it.
    if (wstate_[slot] == WaveState::WaitBarrier)
        --n;
    return n;
}

} // namespace pcstall::gpu
