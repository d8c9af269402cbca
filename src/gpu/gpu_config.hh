/**
 * @file
 * Top-level GPU configuration (paper Section 5: 64 CUs, 40 wavefront
 * slots per CU, 16 L2 banks at a fixed 1.6 GHz memory clock).
 */

#ifndef PCSTALL_GPU_GPU_CONFIG_HH
#define PCSTALL_GPU_GPU_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "memory/memory_system.hh"

namespace pcstall::gpu
{

/**
 * Most wave slots a CU may have: each per-CU wave-state set is one
 * 64-bit word (ComputeUnit).
 */
inline constexpr std::uint32_t maxWaveSlotsPerCu = 64;

/** Static hardware parameters of the simulated GPU. */
struct GpuConfig
{
    /** Number of compute units. */
    std::uint32_t numCus = 64;

    /** Wavefront slots per CU (the paper assumes ~40 waves; at most
     *  maxWaveSlotsPerCu). */
    std::uint32_t waveSlotsPerCu = 40;

    /**
     * SIMD units per CU (GCN: 4). A wavefront resides on the SIMD
     * given by slot % simdsPerCu; each SIMD issues at most one
     * instruction per CU cycle, oldest-ready-first.
     */
    std::uint32_t simdsPerCu = 4;

    /** Initial operating frequency of every CU domain. */
    Freq defaultFreq = 1'700 * freqMHz;

    /** Memory hierarchy parameters (numCus is synced automatically). */
    memory::MemConfig mem;

    /** Master seed mixed into all per-run randomness. */
    std::uint64_t seed = 42;
};

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_GPU_CONFIG_HH
