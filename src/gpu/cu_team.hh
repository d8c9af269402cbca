/**
 * @file
 * A persistent team of threads that steps one chip's compute units in
 * parallel inside each epoch (GpuChip::runUntil with a team).
 *
 * The team owns threads, not simulation state: GpuChip stays a plain
 * value and a team is passed into runUntil per call. forEachMember()
 * runs one function per member, the calling thread being member 0.
 * Between jobs the workers wait on a spin-then-block barrier: the spin
 * covers the short serial stretches inside an epoch, a futex wait
 * covers epoch boundaries (harvest, controller decisions).
 */

#ifndef PCSTALL_GPU_CU_TEAM_HH
#define PCSTALL_GPU_CU_TEAM_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace pcstall::gpu
{

/**
 * Work counters of the windows a team ran, a window being a stretch of
 * one runUntil() call. They depend on the thread count (a run without
 * a team has none), so callers export them as Timing-kind metrics.
 */
struct TeamStats
{
    /** Windows the team stepped in parallel. */
    std::uint64_t windowsParallel = 0;
    /** Windows run on the serial loop because a kernel launch could
     *  end in them. */
    std::uint64_t windowsSerial = 0;
    /** CU steps that parked before a shared action. */
    std::uint64_t parkedSteps = 0;
    /** CU steps finished without touching shared state. */
    std::uint64_t privateSteps = 0;
    /** Wall time the calling thread waited for the rest of the team
     *  at the end of parallel windows. */
    std::uint64_t barrierWaitNs = 0;
};

/** Tell the core this thread is spinning on another one. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** A fixed-size team of threads. */
class CuTeam
{
  public:
    /**
     * Fewest CUs per team thread. Smaller chips keep the serial loop:
     * 8-CU chips (oracle sweeps and their cells) already run their
     * samples on parallel threads. See docs/performance.md.
     */
    static constexpr std::uint32_t minCusPerThread = 16;

    /**
     * Team size for a chip of @p num_cus CUs when @p requested threads
     * are available: capped at one thread per minCusPerThread CUs.
     * A result <= 1 means "use the serial loop, no team".
     */
    static unsigned sizeFor(unsigned requested, std::uint32_t num_cus);

    /** Start @p threads - 1 workers (the caller is member 0). */
    explicit CuTeam(unsigned threads);
    ~CuTeam();

    CuTeam(const CuTeam &) = delete;
    CuTeam &operator=(const CuTeam &) = delete;

    /** Threads in the team, the caller included. */
    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run fn(m) once on every member m in [0, size()), all at the same
     * time, and return when every call has returned. If calls throw,
     * the exception of the lowest member is rethrown here.
     */
    template <class Fn>
    void
    forEachMember(Fn &fn)
    {
        run([](void *f, unsigned m) { (*static_cast<Fn *>(f))(m); }, &fn);
    }

    /** Counters GpuChip::runUntil adds to; read and reset freely. */
    TeamStats stats;

  private:
    using Body = void (*)(void *, unsigned);

    void run(Body body, void *ctx);
    /** Run the job as member @p m, keeping its failure. */
    void work(unsigned m);
    void workerMain(unsigned m);

    std::vector<std::thread> workers_;

    // The current job; written by the caller before it bumps
    // generation_ (release), read by workers after they see the bump.
    Body body_ = nullptr;
    void *ctx_ = nullptr;
    bool stop_ = false;
    /** Each member's failure in the current job (its own slot). */
    std::vector<std::exception_ptr> errors_;

    std::atomic<std::uint32_t> generation_{0};
    /** Workers still inside the current job. */
    std::atomic<std::uint32_t> running_{0};
};

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_CU_TEAM_HH
