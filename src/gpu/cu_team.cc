#include "gpu/cu_team.hh"

#include <algorithm>
#include <chrono>

namespace pcstall::gpu
{

namespace
{

/**
 * How long a waiting thread spins before it blocks in the kernel. The
 * serial stretches inside an epoch last microseconds, so the spin
 * keeps workers hot across them; epoch boundaries (harvest, controller
 * decisions) last longer and put them to sleep.
 */
constexpr std::chrono::nanoseconds spinBudget{50'000};

/** Wait until @p a no longer holds @p old: spin, then block. */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t> &a, std::uint32_t old)
{
    const auto deadline = std::chrono::steady_clock::now() + spinBudget;
    for (unsigned spins = 1;; ++spins) {
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        cpuRelax();
        if (spins % 64 == 0 && std::chrono::steady_clock::now() > deadline)
            break;
    }
    for (;;) {
        a.wait(old, std::memory_order_acquire);
        const std::uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
}

} // namespace

unsigned
CuTeam::sizeFor(unsigned requested, std::uint32_t num_cus)
{
    return std::min<unsigned>(requested, num_cus / minCusPerThread);
}

CuTeam::CuTeam(unsigned threads) : errors_(std::max(threads, 1u))
{
    workers_.reserve(errors_.size() - 1);
    for (unsigned m = 1; m < errors_.size(); ++m)
        workers_.emplace_back([this, m] { workerMain(m); });
}

CuTeam::~CuTeam()
{
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
CuTeam::run(Body body, void *ctx)
{
    body_ = body;
    ctx_ = ctx;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    running_.store(static_cast<std::uint32_t>(workers_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();

    work(0);

    // Two clock reads per job: noise next to a job's work.
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t left = running_.load(std::memory_order_acquire);
         left != 0;) {
        left = awaitChange(running_, left);
    }
    stats.barrierWaitNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0).count());
    for (const std::exception_ptr &e : errors_) {
        if (e)
            std::rethrow_exception(e);
    }
}

void
CuTeam::work(unsigned m)
{
    try {
        body_(ctx_, m);
    } catch (...) {
        errors_[m] = std::current_exception();
    }
}

void
CuTeam::workerMain(unsigned m)
{
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitChange(generation_, seen);
        if (stop_)
            return;
        work(m);
        if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            running_.notify_one();
    }
}

} // namespace pcstall::gpu
