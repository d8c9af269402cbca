/**
 * @file
 * One GCN3-like compute unit: up to maxWaveSlotsPerCu (64) resident
 * wavefronts scheduled oldest-first, one issue slot per CU cycle, workgroup barriers, and
 * the per-epoch instrumentation every estimation model consumes
 * (stall time, leading loads, in-flight-load interval union, overlap).
 *
 * A ComputeUnit is pure data plus methods that receive an explicit
 * context (memory system, application, dispatcher); it contains no
 * pointers, so GpuChip snapshots are plain copies.
 *
 * Layout: the scheduling-hot per-wave fields are stored SoA
 * (wstate_/readyAt_) next to one 64-bit word per wave-state set
 * (a CU has at most maxWaveSlotsPerCu slots), so the per-tick scans
 * (wake, sleep classification) walk one word and a few contiguous
 * arrays instead of striding through the cold Wavefront records.
 * Resident waves are also kept in age (dispatch) order, with the
 * Ready set and each SIMD's membership stored as bits over that
 * order: the oldest ready wave of a SIMD is one countr_zero, and a
 * wave's age rank is its position.
 */

#ifndef PCSTALL_GPU_COMPUTE_UNIT_HH
#define PCSTALL_GPU_COMPUTE_UNIT_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "gpu/epoch_stats.hh"
#include "gpu/gpu_config.hh"
#include "gpu/wavefront.hh"
#include "isa/kernel.hh"
#include "memory/memory_system.hh"

namespace pcstall::gpu
{

/** GPU-wide workgroup dispatch state (lives in GpuChip). */
struct DispatchState
{
    /** Index of the kernel launch currently being dispatched. */
    std::uint32_t curLaunch = 0;
    /** Workgroups of the current launch not yet handed to a CU. */
    std::uint32_t wgUndispatched = 0;
    /** Workgroups of the current launch fully completed. */
    std::uint32_t wgCompleted = 0;
    /** Monotone wavefront id source. */
    std::uint64_t nextGlobalWaveId = 0;
};

/**
 * DispatchState::wgUndispatched, read atomically: a CU team member may
 * step its CUs privately while another member dispatches
 * (GpuChip::runUntil). Within a launch the count only falls, so a
 * stale read can only be too high, which a private step treats as
 * "may dispatch" and parks on.
 */
inline std::uint32_t
undispatched(DispatchState &d)
{
    return std::atomic_ref<std::uint32_t>(d.wgUndispatched)
        .load(std::memory_order_relaxed);
}

/** Shared references a ComputeUnit needs while executing. */
struct CuContext
{
    memory::MemorySystem &mem;
    const isa::Application &app;
    DispatchState &dispatch;
    const GpuConfig &cfg;
};

/** Why a CU-wide sleep is gated (for STALL/CRISP accounting). */
enum class SleepGate : std::uint8_t { None, Load, Store };

/** Outcome of one CU activation. */
struct StepResult
{
    /** When this CU next wants to run (tickInf = parked). */
    Tick next = tickInf;
    /** True when the current kernel launch completed: wake all CUs. */
    bool launchFinished = false;
};

/**
 * Where a CU step stands. Fresh between steps; a step run by
 * ComputeUnit::stepPrivate() that stops before its first shared action
 * stays parked here with the rest of its locals, and a later step()
 * at the same tick finishes it.
 */
struct StepCursor
{
    enum class Stage : std::uint8_t
    {
        /** No step in progress. */
        Fresh,
        /** Prologue done; next: pull workgroups from the dispatcher. */
        Dispatch,
        /** Dispatch done; next: issue on SIMD `simd` onwards. */
        Issue,
    };

    Stage stage = Stage::Fresh;
    /** Next SIMD to issue on (Issue stage). */
    std::uint32_t simd = 0;
    /** An earlier SIMD of this step already issued (Issue stage). */
    bool issuedAny = false;

    bool parked() const { return stage != Stage::Fresh; }
};

/** A workgroup resident on a CU (barrier bookkeeping). */
struct ResidentWg
{
    bool valid = false;
    std::uint32_t launchIndex = 0;
    std::uint32_t waveCount = 0;
    std::uint32_t arrived = 0;
    std::uint32_t done = 0;
};

/**
 * One compute unit. Cache-line aligned: a CU team steps neighbouring
 * CUs on different threads.
 */
class alignas(64) ComputeUnit
{
  public:
    /**
     * Prepare @p slot_count empty wave slots for CU @p id with
     * @p num_simds issue pipes (slot i belongs to SIMD i % num_simds).
     */
    void init(std::uint32_t id, std::uint32_t slot_count,
              std::uint32_t num_simds, Freq freq);

    /**
     * Process one activation at global time @p now: wake waves, issue
     * at most one instruction, or compute the next wake time.
     */
    StepResult step(CuContext &ctx, Tick now);

    /**
     * step(), finishing first the step @p cursor holds parked at
     * @p now, if any. @p cursor is Fresh on return.
     */
    StepResult step(CuContext &ctx, Tick now, StepCursor &cursor);

    /**
     * Run step() but stop right before its first action on state that
     * other CUs share: an access that reaches the L2 or DRAM
     * (MemorySystem::staysInCu), a workgroup dispatch, or the
     * s_endpgm that completes a workgroup. Returns true with @p out
     * set when the step finished; false when it parked in @p cursor
     * (nothing shared was touched, ctx.dispatch was only read). CUs
     * may run this concurrently, each on its own CU.
     */
    bool stepPrivate(CuContext &ctx, Tick now, StepCursor &cursor,
                     StepResult &out);

    /**
     * A lower bound on the instructions the wave in @p slot must still
     * issue itself before (and including) its s_endpgm; 0 for an empty
     * slot. Each issue takes one CU step: a wave issues at most once
     * per step, and a barrier release only completes a barrier the
     * wave already issued.
     */
    std::uint64_t issuesToEnd(const isa::Application &app,
                              std::uint32_t slot) const;

    /** Number of wave slots. */
    std::uint32_t slotCount() const
    {
        return static_cast<std::uint32_t>(slots.size());
    }

    /**
     * Close all accrual intervals at @p boundary, emit this CU's and
     * its waves' epoch records into @p out, and reset epoch state.
     */
    void harvest(CuContext &ctx, Tick boundary, CuEpochRecord &cu_out,
                 std::vector<WaveEpochRecord> &waves_out);

    /** Change the operating frequency (stalls issue for @p trans). */
    void setFrequency(Freq freq, Tick now, Tick trans);

    Freq frequency() const { return freq_; }
    Tick period() const { return period_; }

    /** When this CU next wants to be activated (tickInf = parked). */
    Tick nextEventAt = 0;

    /** True when no wavefronts are resident. */
    bool idle() const { return occMask_ == 0; }

    /** Resident-wave snapshots with age ranks (predictor lookups). */
    void appendSnapshots(const isa::Application &app,
                         std::vector<WaveSnapshot> &out) const;

    /** Lifetime committed-instruction count. */
    std::uint64_t lifeCommitted() const { return lifeCommitted_; }

    /** Tick of the most recent commit on this CU. */
    Tick lastCommitTick() const { return lastCommit_; }

    std::uint32_t id() const { return cuId; }

    /**
     * Mix this CU's complete simulation state (scheduling, accrual
     * markers, per-epoch counters and every resident wavefront) into
     * the FNV-style digest @p h. Used by GpuChip::stateFingerprint()
     * to verify snapshot restores and sweep const-ness, so a new
     * simulation-state member must be mixed in here too.
     */
    void fingerprint(std::uint64_t &h) const;

  private:
    /** Retire CU-level load completions up to @p now. */
    void drainLoadCompletions(Tick now);
    /** Move waves whose wake time has passed back to Ready. */
    void wakeWaves(Tick now);
    /** Close an in-progress CU sleep interval. */
    void closeSleep(Tick now);
    /**
     * The body of step()/stepPrivate(). With @p Private, returns false
     * (parked in @p cur) before the first shared action.
     */
    template <bool Private>
    bool advance(CuContext &ctx, Tick now, StepCursor &cur,
                 StepResult &result);
    /**
     * Issue slot @p slot's next instruction; sets @p completed_wg when
     * it completes its workgroup. With @p Private, returns false and
     * changes nothing when the instruction would touch shared state.
     */
    template <bool Private>
    bool issue(CuContext &ctx, std::uint32_t slot, Tick now,
               bool &completed_wg);
    /** Try to pull new workgroups from the dispatcher. */
    bool tryDispatch(CuContext &ctx, Tick now);
    /** True when tryDispatch() would hand this CU a workgroup. */
    bool dispatchWouldStart(const CuContext &ctx) const;
    /** Release every wave of workgroup @p wg_index blocked at barrier. */
    void releaseBarrier(std::uint32_t wg_index, Tick now);
    /** Compute the address of a vector memory access. */
    std::uint64_t genAddress(const isa::Kernel &kernel,
                             const Wavefront &wave,
                             const isa::Instruction &ins) const;
    /** Oldest ready wave on SIMD @p simd (-1 when none). */
    int
    pickReadyWave(std::uint32_t simd) const
    {
        const std::uint64_t w = readyAge_ & simdAge_[simd];
        return w == 0 ? -1 : byAge_[std::countr_zero(w)];
    }

    /** Bit of slot @p i's age position (resident slots only). */
    std::uint64_t ageBit(std::uint32_t i) const
    {
        return std::uint64_t{1} << agePos_[i];
    }

    /** Number of Idle slots (dispatch gating). */
    std::uint32_t
    freeSlots() const
    {
        return slotCount() -
            static_cast<std::uint32_t>(std::popcount(occMask_));
    }

    /** Append slot @p i to the age order as the youngest wave. */
    void enterAgeOrder(std::uint32_t i);
    /** Drop slot @p i from the age order; younger waves move up. */
    void leaveAgeOrder(std::uint32_t i);

    /**
     * Move slot @p i from Ready to Busy or WaitMem (@p ns) until
     * @p at: the issue path's transition.
     */
    void
    leaveReady(std::uint32_t i, WaveState ns, Tick at)
    {
        const std::uint64_t bit = std::uint64_t{1} << i;
        readyAge_ &= ~ageBit(i);
        pendMask_ |= bit;
        readyAt_[i] = at;
        wakeScanAt = std::min(wakeScanAt, at);
        if (ns == WaveState::WaitMem) {
            memMask_ |= bit;
            memWakeAt_ = std::min(memWakeAt_, at);
        }
        wstate_[i] = ns;
    }

    /**
     * Move slot @p i to state @p ns, maintaining the pending/memory/
     * occupied masks and the age order. The chokepoint for the rarer
     * transitions (dispatch, barriers, s_endpgm); issue and wake use
     * leaveReady() and wakeWaves()' batched update.
     */
    void
    setWaveState(std::uint32_t i, WaveState ns)
    {
        const std::uint64_t bit = std::uint64_t{1} << i;
        const WaveState os = wstate_[i];
        if (os == WaveState::Idle)
            enterAgeOrder(i);
        else if (os == WaveState::Ready)
            readyAge_ &= ~ageBit(i);
        if (ns == WaveState::Idle)
            leaveAgeOrder(i);
        else if (ns == WaveState::Ready)
            readyAge_ |= ageBit(i);
        const bool pend = ns == WaveState::Busy || ns == WaveState::WaitMem;
        pendMask_ = (pendMask_ & ~bit) | (pend ? bit : 0);
        memMask_ = (memMask_ & ~bit) | (ns == WaveState::WaitMem ? bit : 0);
        wstate_[i] = ns;
    }

    std::uint32_t cuId = 0;
    Freq freq_ = 0;
    Tick period_ = 0;
    /** Issue blocked until this tick after a V/f transition. */
    Tick freqStallUntil = 0;

    /** Cold per-wave records (hot fields live in the SoA arrays). */
    std::vector<Wavefront> slots;
    std::vector<ResidentWg> wgs;

    // --- SoA scheduling state (one entry or bit per slot) ---
    std::vector<WaveState> wstate_;
    /** For Busy: when the wave can issue again. For WaitMem: wake. */
    std::vector<Tick> readyAt_;
    /** Slots in Busy or WaitMem (have a pending wake in readyAt_). */
    std::uint64_t pendMask_ = 0;
    /** Slots in WaitMem only (far wakes). The per-cycle wake scan
     *  skips these while now < memWakeAt_, so it only walks the
     *  short-latency Busy set. */
    std::uint64_t memMask_ = 0;
    /** Slots not Idle. */
    std::uint64_t occMask_ = 0;

    // --- Age order of the resident waves. Derived state: it is the
    // occupied slots sorted by Wavefront::seq, so fingerprint() skips
    // it. ---
    /** byAge_[p]: slot of the wave with age rank p (0 = oldest). */
    std::array<std::uint8_t, maxWaveSlotsPerCu> byAge_{};
    /** agePos_[slot]: the resident wave's age rank. */
    std::array<std::uint8_t, maxWaveSlotsPerCu> agePos_{};
    /** Age positions of the Ready waves. */
    std::uint64_t readyAge_ = 0;
    /** Per SIMD: age positions of its resident waves (slot i belongs
     *  to SIMD i % simdAge_.size()). */
    std::vector<std::uint64_t> simdAge_;

    /** Lower bound on the earliest Busy/WaitMem wake time; wakeWaves()
     *  skips its slot scan while now is below it. Derived state. */
    Tick wakeScanAt = 0;
    /** Lower bound on the earliest WaitMem wake; wakeWaves() skips the
     *  memMask_ slots while now is below it. Derived state. */
    Tick memWakeAt_ = tickInf;
    std::uint64_t seqCounter = 0;
    std::uint64_t lifeCommitted_ = 0;
    Tick lastCommit_ = 0;

    /** Min-heap (via std::*_heap with std::greater) of in-flight load
     *  completion ticks, CU-wide. */
    std::vector<Tick> loadCompletions;
    /** Min-heap of in-flight store completion ticks (MSHR release). */
    std::vector<Tick> storeCompletions;
    std::uint32_t outstandingLoads = 0;
    std::uint32_t outstandingTotal = 0;

    // --- accrual markers ---
    bool sleeping = false;
    Tick sleepStart = 0;
    Tick sleepUntil = 0;
    SleepGate sleepGate = SleepGate::None;

    bool memActive = false;
    Tick memStart = 0;

    bool leadActive = false;
    Tick leadStart = 0;
    Tick leadUntil = 0;

    // --- per-epoch counters ---
    std::uint64_t epCommitted = 0;
    std::uint64_t epLoads = 0;
    std::uint64_t epStores = 0;
    Tick epBusy = 0;
    Tick epOverlap = 0;
    Tick epLoadStall = 0;
    Tick epStoreStall = 0;
    Tick epLeadLoad = 0;
    Tick epMemInterval = 0;
};

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_COMPUTE_UNIT_HH
