/**
 * @file
 * Wavefront execution state. A wavefront is an in-order instruction
 * stream with a private PC, explicit outstanding-memory counters
 * (s_waitcnt semantics), and per-loop trip counters. All state is
 * value-semantic for oracle snapshotting.
 */

#ifndef PCSTALL_GPU_WAVEFRONT_HH
#define PCSTALL_GPU_WAVEFRONT_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"

namespace pcstall::gpu
{

/** Sentinel "never" tick. */
inline constexpr Tick tickInf = std::numeric_limits<Tick>::max();

/** Wavefront scheduling states. */
enum class WaveState : std::uint8_t
{
    /** Slot is empty. */
    Idle,
    /** Can issue its next instruction. */
    Ready,
    /** Pipeline-busy until readyAt (ALU/LDS dependency latency). */
    Busy,
    /** Blocked at s_waitcnt until enough memory ops complete. */
    WaitMem,
    /** Blocked at s_barrier until the workgroup arrives. */
    WaitBarrier,
};

/** One outstanding vector memory operation. */
struct PendingMem
{
    Tick completion = 0;
    bool isStore = false;

    bool operator<(const PendingMem &other) const
    {
        return completion < other.completion;
    }
};

/**
 * Cold per-wavefront state. The scheduling-hot fields every per-tick
 * scan reads - state, wake tick and age order - live in SoA arrays
 * inside ComputeUnit (wstate_/readyAt_ plus one-word wave-state
 * masks over slots and age positions), so scans touch a few cache lines
 * instead of striding through these ~200-byte records. A Wavefront
 * is only loaded when its wave actually issues, wakes or harvests.
 */
struct Wavefront
{
    std::uint32_t pc = 0;

    /** Outstanding vector memory ops, sorted by completion tick. */
    std::vector<PendingMem> pending;

    /** Remaining trips per kernel loop (reloaded on loop exit). */
    std::vector<std::uint32_t> loopTrips;
    /** Initial trip counts for this wave (per-wave divergence applied). */
    std::vector<std::uint32_t> loopTripsInit;

    /** Unique id across the whole run (address-stream seed). */
    std::uint64_t globalId = 0;
    /** Dispatch order within the CU. ComputeUnit keeps its resident
     *  waves in this order, so scheduling never reads it. */
    std::uint64_t seq = 0;
    /** Index of the wave's resident workgroup within its CU. */
    std::uint32_t wgIndex = 0;
    /** Which application launch this wave belongs to. */
    std::uint32_t launchIndex = 0;

    /** Monotone vector-memory issue counter (address generation). */
    std::uint64_t memSeq = 0;

    // --- Per-epoch accounting (reset at every harvest) ---
    std::uint64_t epCommitted = 0;
    Tick epMemStall = 0;
    Tick epBarrierStall = 0;
    /** PC at the start of the current epoch (or at dispatch). */
    std::uint32_t epStartPc = 0;
    /** True if the wave existed at any point during this epoch. */
    bool epActive = false;
    /** Marker: when the current WaitMem stall started (accrual). */
    Tick stallEnter = 0;
    /** Marker: when the current WaitBarrier wait started (accrual). */
    Tick barrierEnter = 0;
    /** True when the op gating the current WaitMem stall is a store. */
    bool stallGateStore = false;

    /**
     * Reset to the default-constructed state while keeping the
     * vectors' allocated capacity. Dispatch recycles slots many times
     * per run (and the oracle's snapshot pool restores chips by
     * assignment), so the hot path must not reallocate per dispatch
     * the way `*this = Wavefront{}` would.
     */
    void
    resetKeepCapacity()
    {
        pc = 0;
        pending.clear();
        loopTrips.clear();
        loopTripsInit.clear();
        globalId = 0;
        seq = 0;
        wgIndex = 0;
        launchIndex = 0;
        memSeq = 0;
        epCommitted = 0;
        epMemStall = 0;
        epBarrierStall = 0;
        epStartPc = 0;
        epActive = false;
        stallEnter = 0;
        barrierEnter = 0;
        stallGateStore = false;
    }

    /** Drop ops completed by @p now (pending is kept sorted). */
    void
    retireCompleted(Tick now)
    {
        std::size_t keep = 0;
        while (keep < pending.size() && pending[keep].completion <= now)
            ++keep;
        if (keep > 0)
            pending.erase(pending.begin(),
                          pending.begin() + static_cast<std::ptrdiff_t>(keep));
    }
};

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_WAVEFRONT_HH
