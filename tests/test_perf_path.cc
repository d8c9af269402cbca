/**
 * @file
 * Regression tests for the hot-path performance work
 * (docs/performance.md): the pooled snapshot oracle and the in-cell
 * parallel sweep must be byte-identical to a sweep over fresh
 * per-sample copies, must leave the input chip untouched, must reuse
 * pool storage across epochs, and must not allocate per-sample in
 * steady state.
 *
 * The binary overrides global operator new/delete with a counting
 * shim so the allocation guard can measure the sweep hot path
 * directly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "gpu/gpu_chip.hh"
#include "harness.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "sim/experiment.hh"
#include "sim/parallel_executor.hh"

using namespace pcstall;

// --- counting allocator shim (whole binary) -------------------------

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
}

// GCC pairs the replaced operator delete with the *default* operator
// new at some inlined call sites and warns about free(); the shim's
// operator new really does malloc, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

// --- fixtures -------------------------------------------------------

namespace
{

bench::BenchOptions
smallOpts()
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.125;
    opts.collectTrace = true;
    return opts;
}

/** Exact field-by-field RunResult comparison (no tolerances). */
void
expectIdenticalResults(const sim::RunResult &a, const sim::RunResult &b,
                       const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.transitionEnergy, b.transitionEnergy);
    EXPECT_EQ(a.freqTimeShare, b.freqTimeShare);
    EXPECT_EQ(a.finalTemperature, b.finalTemperature);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].start, b.trace[i].start);
        EXPECT_EQ(a.trace[i].domainState, b.trace[i].domainState);
        EXPECT_EQ(a.trace[i].domainCommitted,
                  b.trace[i].domainCommitted);
    }
}

sim::RunResult
runCell(const std::string &workload, const std::string &controller,
        unsigned oracle_threads)
{
    const bench::BenchOptions opts = smallOpts();
    const auto app = bench::makeApp(workload, opts);
    EXPECT_TRUE(app);
    sim::RunConfig cfg = opts.runConfig();
    cfg.oracleThreads = oracle_threads;
    sim::ExperimentDriver driver(cfg);
    const auto ctrl = bench::makeController(controller, cfg);
    return driver.run(app, *ctrl);
}

/** Exact AccurateEstimates comparison. */
void
expectIdenticalEstimates(const dvfs::AccurateEstimates &a,
                         const dvfs::AccurateEstimates &b)
{
    EXPECT_EQ(a.domainInstr, b.domainInstr);
    ASSERT_EQ(a.waves.size(), b.waves.size());
    for (std::size_t i = 0; i < a.waves.size(); ++i) {
        EXPECT_EQ(a.waves[i].cu, b.waves[i].cu);
        EXPECT_EQ(a.waves[i].slot, b.waves[i].slot);
        EXPECT_EQ(a.waves[i].startPcAddr, b.waves[i].startPcAddr);
        EXPECT_EQ(a.waves[i].sensitivity, b.waves[i].sensitivity);
        EXPECT_EQ(a.waves[i].level, b.waves[i].level);
        EXPECT_EQ(a.waves[i].ageRank, b.waves[i].ageRank);
    }
}

/** A chip two epochs into @p workload (live waves at the boundary). */
std::unique_ptr<gpu::GpuChip>
warmChip(const std::string &workload, const bench::BenchOptions &opts)
{
    const auto app = bench::makeApp(workload, opts);
    EXPECT_TRUE(app);
    gpu::GpuConfig gcfg = opts.runConfig().gpu;
    auto chip = std::make_unique<gpu::GpuChip>(gcfg, app);
    gpu::EpochRecord scratch;
    for (int e = 0; e < 2; ++e) {
        chip->runUntil((e + 1) * opts.epochLen);
        chip->harvestEpoch(e * opts.epochLen, scratch);
    }
    return chip;
}

} // namespace

// --- thread-count identity -----------------------------------------

TEST(PerfPath, OracleThreadCountDoesNotChangeResults)
{
    const auto serial = runCell("comd", "ACCPC", 1);
    const auto threaded = runCell("comd", "ACCPC", 4);
    expectIdenticalResults(serial, threaded, "threads 1 vs 4");
}

TEST(PerfPath, ParallelSweepMatchesSerialSweep)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("lulesh", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool serial_pool;
    oracle::SweepOptions serial_opts;
    serial_opts.pool = &serial_pool;
    const auto serial = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, serial_opts);

    oracle::SnapshotPool mt_pool;
    sim::ParallelExecutor exec(4);
    oracle::SweepOptions mt_opts;
    mt_opts.pool = &mt_pool;
    mt_opts.executor = &exec;
    const auto parallel = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, mt_opts);

    expectIdenticalEstimates(serial, parallel);
}

// --- pool reuse across epochs ---------------------------------------

TEST(PerfPath, PoolIsReusedAcrossEpochsAndStaysIdenticalToCopies)
{
    const bench::BenchOptions opts = smallOpts();
    const auto app = bench::makeApp("comd", opts);
    ASSERT_TRUE(app);
    gpu::GpuConfig gcfg = opts.runConfig().gpu;
    gpu::GpuChip chip(gcfg, app);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool pool;
    oracle::SweepOptions pooled;
    pooled.pool = &pool;

    gpu::EpochRecord scratch;
    Tick t = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        chip.runUntil(t + opts.epochLen);
        chip.harvestEpoch(t, scratch);
        t += opts.epochLen;

        const auto from_pool = oracle::forkPreExecuteSweep(
            chip, domains, table, opts.epochLen, pooled);
        const auto from_copies = oracle::forkPreExecuteSweep(
            chip, domains, table, opts.epochLen, oracle::SweepOptions{});
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        expectIdenticalEstimates(from_pool, from_copies);
        // The pool holds exactly one scratch chip per V/f state and
        // never grows past that across epochs.
        EXPECT_EQ(pool.slotCount(), table.numStates());
    }
}

TEST(PerfPath, ClearKeepsCapacityAndNextSweepStaysIdentical)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("comd", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool pool;
    oracle::SweepOptions pooled;
    pooled.pool = &pool;
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, pooled);
    ASSERT_EQ(pool.slotCount(), table.numStates());
    const std::uint64_t full_before = pool.fullRestores();

    // clear() empties the per-slot buffers but keeps every allocated
    // slot chip, so a driver switching applications does not re-pay
    // the pool's construction cost.
    pool.clear();
    EXPECT_EQ(pool.slotCount(), table.numStates());

    const auto after_clear = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, pooled);
    const auto reference = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, oracle::SweepOptions{});
    expectIdenticalEstimates(after_clear, reference);
    // The post-clear sweep restores every slot once.
    EXPECT_EQ(pool.fullRestores(), full_before + table.numStates());
}

// --- const-ness of the input chip (restore verification) ------------

TEST(PerfPath, SweepLeavesInputChipUntouchedUnderVerification)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("minife", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();
    const std::uint64_t before = chip->stateFingerprint();

    oracle::SnapshotPool pool;
    oracle::SweepOptions verified;
    verified.pool = &pool;
    // Forces the per-restore and end-of-sweep fingerprint checks even
    // in NDEBUG builds; a mutation of the input chip would fatal()
    // inside the sweep.
    verified.verifyRestore = true;
    const auto est = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, verified);
    EXPECT_FALSE(est.empty());
    EXPECT_EQ(chip->stateFingerprint(), before);

    // Same property on the fresh-copy path.
    oracle::SweepOptions copy_verified;
    copy_verified.verifyRestore = true;
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, copy_verified);
    EXPECT_EQ(chip->stateFingerprint(), before);
}

// --- allocation guard -----------------------------------------------

TEST(PerfPath, SteadyStatePooledSweepBarelyAllocates)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("comd", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool pool;
    oracle::SweepOptions pooled;
    pooled.pool = &pool;

    // First pooled sweep pays the pool's one-time chip copies and
    // buffer high-water marks; it is not the steady state.
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, pooled);
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, pooled);

    const std::uint64_t pool_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto est = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, pooled);
    const std::uint64_t pool_allocs =
        g_allocs.load(std::memory_order_relaxed) - pool_before;

    const std::uint64_t copy_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto est_copy = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, oracle::SweepOptions{});
    const std::uint64_t copy_allocs =
        g_allocs.load(std::memory_order_relaxed) - copy_before;

    expectIdenticalEstimates(est, est_copy);

    // Running the sampled epochs allocates either way (cache / MSHR
    // bookkeeping inside the simulation), but the pooled sweep must
    // at least save the per-sample chip copies the fresh-copy path
    // makes.
    EXPECT_LT(pool_allocs, copy_allocs)
        << "pooled sweep should allocate strictly less than the "
        << "copy path (copy: " << copy_allocs
        << ", pool: " << pool_allocs << ")";
}

TEST(PerfPath, SteadyStateRestoreBarelyAllocates)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("comd", opts);

    oracle::SnapshotPool pool;
    pool.ensureSlots(1);
    // First restore copy-constructs the scratch chip; the second
    // settles container high-water marks. Steady state starts at the
    // third.
    pool.restore(0, *chip);
    pool.restore(0, *chip);

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    gpu::GpuChip &restored = pool.restore(0, *chip);
    const std::uint64_t restore_allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(restored.now(), chip->now());

    const std::uint64_t copy_before =
        g_allocs.load(std::memory_order_relaxed);
    const gpu::GpuChip copy = *chip;
    const std::uint64_t copy_allocs =
        g_allocs.load(std::memory_order_relaxed) - copy_before;
    EXPECT_EQ(copy.now(), chip->now());

    // A steady-state restore reuses the scratch chip's buffers; a
    // fresh deep copy allocates every container again.
    EXPECT_LE(restore_allocs, 16)
        << "pool restore should be (nearly) allocation-free";
    EXPECT_LT(restore_allocs * 4, copy_allocs)
        << "restore should allocate <<25% of a deep copy (copy: "
        << copy_allocs << ", restore: " << restore_allocs << ")";
}
