/**
 * @file
 * Restore-exactness grid for the oracle's pooled snapshots
 * (docs/performance.md). A slot chip restored by the SnapshotPool's
 * copy-assign must be byte-identical (same stateFingerprint(), same
 * epoch records) to a fresh deep copy of the base chip - at every
 * epoch boundary, before and after pre-executing the sampled epoch at
 * perturbed frequencies, across workloads - and a fault-injected run
 * with parity-scrubbed predictor tables must not depend on how many
 * threads run the oracle's samples.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "epoch_recorder.hh"
#include "gpu/gpu_chip.hh"
#include "harness.hh"
#include "oracle/snapshot_pool.hh"
#include "power/vf_table.hh"
#include "sim/experiment.hh"

using namespace pcstall;

namespace
{

bench::BenchOptions
smallOpts()
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.125;
    return opts;
}

/** A run's result and its per-epoch record. */
struct RecordedRun
{
    sim::RunResult result;
    std::vector<test::AppliedEpoch> epochs;
};

/** Exact field-by-field and epoch-by-epoch comparison (no
 *  tolerances). */
void
expectIdenticalRuns(const RecordedRun &ra, const RecordedRun &rb,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    const sim::RunResult &a = ra.result;
    const sim::RunResult &b = rb.result;
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
    EXPECT_EQ(a.faults.tableBitFlips, b.faults.tableBitFlips);
    EXPECT_EQ(a.faults.tableScrubs, b.faults.tableScrubs);
    EXPECT_EQ(a.faults.transitionFailures, b.faults.transitionFailures);
    test::expectSameEpochs(ra.epochs, rb.epochs);
}

/** An ACCPC cell on comd under @p faults with parity-protected PC
 *  tables, its oracle samples spread over @p oracle_threads. */
RecordedRun
runEccCell(const faults::FaultConfig &faults, unsigned oracle_threads)
{
    const bench::BenchOptions opts = smallOpts();
    const auto app = bench::makeApp("comd", opts);
    EXPECT_TRUE(app);
    sim::RunConfig cfg = opts.runConfig();
    cfg.faults = faults;
    cfg.eccProtectTables = true;
    cfg.oracleThreads = oracle_threads;
    sim::ExperimentDriver driver(cfg);
    const auto ctrl = bench::makeController("ACCPC", cfg);
    test::EpochRecorder recorder(driver);
    sim::RunResult result = driver.run(app, *ctrl, &recorder);
    return {std::move(result), std::move(recorder.epochs)};
}

} // namespace

// --- per-epoch fingerprint grid -------------------------------------

/**
 * Drive a base chip epoch by epoch; at every boundary restore each
 * V/f sample slot from the pool and as a fresh deep copy, pin per-CU
 * frequencies to a perturbed pattern, pre-execute the upcoming epoch
 * on both chips, and demand fingerprint equality before and after.
 * The pool's slots are reused across epochs, so every restore after
 * the first sweep copy-assigns over a chip that ran a foreign epoch.
 */
TEST(SnapshotRestore, PooledRestoreMatchesFreshCopyEveryEpoch)
{
    const power::VfTable table = power::VfTable::paperTable();
    const std::size_t num_states = table.numStates();

    for (const char *workload : {"comd", "lulesh", "minife"}) {
        SCOPED_TRACE(workload);
        const bench::BenchOptions opts = smallOpts();
        const auto app = bench::makeApp(workload, opts);
        ASSERT_TRUE(app);
        gpu::GpuConfig gcfg = opts.runConfig().gpu;
        gpu::GpuChip chip(gcfg, app);

        oracle::SnapshotPool pool;
        gpu::EpochRecord scratch;
        gpu::EpochRecord pool_rec, copy_rec;
        Tick t = 0;
        const int epochs = 4;
        for (int e = 0; e < epochs; ++e) {
            SCOPED_TRACE("epoch " + std::to_string(e));
            chip.runUntil(t + opts.epochLen);
            chip.harvestEpoch(t, scratch);
            t += opts.epochLen;

            const std::uint64_t base_fp = chip.stateFingerprint();
            pool.ensureSlots(num_states);

            for (std::size_t k = 0; k < num_states; ++k) {
                SCOPED_TRACE("state " + std::to_string(k));
                gpu::GpuChip &p = pool.restore(k, chip);
                gpu::GpuChip c = chip;

                // Both restores reproduce the base exactly.
                ASSERT_EQ(p.stateFingerprint(), base_fp);
                ASSERT_EQ(c.stateFingerprint(), base_fp);

                // Perturb per-CU frequencies (shuffled per CU, like
                // the sweep's per-domain shuffle) and pre-execute the
                // upcoming epoch on each chip independently.
                for (std::uint32_t cu = 0; cu < gcfg.numCus; ++cu) {
                    const Freq freq =
                        table.state((k + cu) % num_states).freq;
                    p.setCuFrequency(cu, freq, 0);
                    c.setCuFrequency(cu, freq, 0);
                }
                p.runUntil(t + opts.epochLen);
                p.harvestEpoch(t, pool_rec);
                c.runUntil(t + opts.epochLen);
                c.harvestEpoch(t, copy_rec);

                // ... and still agree after diverging from the base.
                ASSERT_EQ(p.stateFingerprint(), c.stateFingerprint());
                ASSERT_EQ(pool_rec.cus.size(), copy_rec.cus.size());
                for (std::size_t cu = 0; cu < copy_rec.cus.size();
                     ++cu) {
                    EXPECT_EQ(pool_rec.cus[cu].committed,
                              copy_rec.cus[cu].committed);
                }
            }

            // Restoring never touches the base chip.
            ASSERT_EQ(chip.stateFingerprint(), base_fp);
        }

        // One restore per slot per epoch, all on the reused slots.
        EXPECT_EQ(pool.slotCount(), num_states);
        EXPECT_EQ(pool.fullRestores(),
                  static_cast<std::uint64_t>(epochs) * num_states);
    }
}

// --- fault injection ------------------------------------------------

/**
 * Parity-scrubbed (ECC) predictor tables under storage fault
 * injection: bit upsets land in the PC table, lookups scrub the
 * corrupted entries, and the oracle's thread count still must not
 * leak into any observable - the injector's random streams are driven
 * by the epoch sequence, not by which thread pre-executes which
 * sample. ACCPC both trains its tables from pooled oracle sweeps and
 * takes the storage upsets, so this run crosses the two subsystems.
 */
TEST(SnapshotRestore, EccScrubbedFaultRunsAreOracleThreadInvariant)
{
    faults::FaultConfig faults;
    faults.storage.enabled = true;
    faults.storage.upsetsPerEpoch = 64.0;

    const auto serial = runEccCell(faults, 1);
    const auto parallel = runEccCell(faults, 4);

    // The fault campaign really ran: bits flipped, and parity caught
    // at least one corrupted entry before it could mispredict.
    EXPECT_GT(serial.result.faults.tableBitFlips, 0u);
    EXPECT_GT(serial.result.faults.tableScrubs, 0u);

    expectIdenticalRuns(serial, parallel, "ecc/oracle-threads 4");
}
