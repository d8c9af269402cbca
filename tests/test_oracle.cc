/** @file Unit tests for src/oracle: fork-pre-execute + controllers. */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "gpu/gpu_chip.hh"
#include "isa/kernel_builder.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/oracle_controllers.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace pcstall;
using namespace pcstall::oracle;

namespace
{

std::shared_ptr<const isa::Application>
mixedApp()
{
    isa::KernelBuilder b("mixed");
    const auto r = b.region("data", 32 << 20);
    b.grid(16, 4);
    b.loop(500);
    b.load(r, isa::AccessPattern::Streaming, 16);
    b.waitcnt(0);
    b.valu(4, 8);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "mixed";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

std::shared_ptr<const isa::Application>
computeApp()
{
    isa::KernelBuilder b("comp");
    b.grid(16, 4);
    b.loop(2000);
    b.valu(4, 8);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "comp";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

gpu::GpuConfig
smallGpu()
{
    gpu::GpuConfig cfg;
    cfg.numCus = 2;
    cfg.waveSlotsPerCu = 8;
    return cfg;
}

} // namespace

TEST(ForkPreExecute, FillsEveryDomainStateCell)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);

    ASSERT_EQ(est.domainInstr.size(), 2u);
    for (const auto &row : est.domainInstr) {
        ASSERT_EQ(row.size(), table.numStates());
        for (double v : row)
            EXPECT_GT(v, 0.0);
    }
}

TEST(ForkPreExecute, LeavesOriginalUntouched)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const auto committed_before = chip.totalCommitted();
    const Tick now_before = chip.now();

    const dvfs::DomainMap domains(2, 1);
    forkPreExecuteSweep(chip, domains, power::VfTable::paperTable(),
                        tickUs);
    EXPECT_EQ(chip.totalCommitted(), committed_before);
    EXPECT_EQ(chip.now(), now_before);
}

TEST(ForkPreExecute, ComputeBoundInstrGrowsWithFrequency)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    const auto fit = domainSensitivity(est, table, 0);
    EXPECT_GT(fit.sensitivity, 0.0);
    EXPECT_GT(fit.r2, 0.9); // near-linear for pure compute
    // 1 instr per cycle upper bound: sensitivity approx cycles/GHz.
    EXPECT_GT(est.domainInstr[0][9], est.domainInstr[0][0]);
}

TEST(ForkPreExecute, WaveLevelSensitivitiesRegressed)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    ASSERT_FALSE(est.waves.empty());
    double positive = 0;
    for (const auto &w : est.waves) {
        EXPECT_LT(w.cu, 2u);
        if (w.sensitivity > 0.0)
            ++positive;
    }
    // Most waves of a compute kernel are frequency sensitive.
    EXPECT_GT(positive / static_cast<double>(est.waves.size()), 0.6);
}

TEST(ForkPreExecute, WaveLevelCanBeDisabled)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    SweepOptions opts;
    opts.waveLevel = false;
    const auto est = forkPreExecuteSweep(
        chip, domains, power::VfTable::paperTable(), tickUs, opts);
    EXPECT_TRUE(est.waves.empty());
    EXPECT_FALSE(est.empty());
}

TEST(ForkPreExecute, ShuffleOffStillFillsMatrix)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    SweepOptions opts;
    opts.shuffle = false;
    const auto est = forkPreExecuteSweep(
        chip, domains, power::VfTable::paperTable(), tickUs, opts);
    for (const auto &row : est.domainInstr)
        for (double v : row)
            EXPECT_GT(v, 0.0);
}

TEST(ForkPreExecute, SamplingAccuracyIsHigh)
{
    // The paper reports 97.6% agreement between sampled and
    // re-executed performance. Validate the same way: predict the
    // epoch's instructions at the current frequency from the sweep,
    // then actually run the epoch and compare.
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);

    const int nominal = table.indexOf(1'700 * freqMHz);
    ASSERT_GE(nominal, 0);

    gpu::GpuChip real = chip;
    real.runUntil(chip.now() + tickUs);
    const auto rec = real.harvestEpoch(chip.now());

    for (std::uint32_t d = 0; d < 2; ++d) {
        const double predicted =
            est.domainInstr[d][static_cast<std::size_t>(nominal)];
        const double actual =
            static_cast<double>(rec.cus[d].committed);
        ASSERT_GT(actual, 0.0);
        EXPECT_NEAR(predicted / actual, 1.0, 0.10);
    }
}

TEST(OracleControllers, RequireTheirEstimates)
{
    OracleController oracle;
    EXPECT_EQ(oracle.sweepNeed(), dvfs::SweepNeed::Upcoming);
    AccurateReactiveController accreac;
    EXPECT_EQ(accreac.sweepNeed(), dvfs::SweepNeed::Elapsed);
    EXPECT_EQ(oracle.name(), "ORACLE");
    EXPECT_EQ(accreac.name(), "ACCREAC");
}

TEST(OracleControllers, DecideFromAccuratePicksSensibleStates)
{
    const power::VfTable table = power::VfTable::paperTable();
    gpu::GpuConfig scaled_gpu;
    power::PowerParams scaled_power;
    sim::scaleToCus(scaled_gpu, scaled_power, 2);
    const power::PowerModel pm(scaled_power);
    const dvfs::DomainMap domains(2, 1);

    gpu::EpochRecord record;
    record.cus.resize(2);
    record.cus[0].committed = 1000;
    record.cus[0].freq = 1'700 * freqMHz;
    record.cus[1].committed = 1000;
    record.cus[1].freq = 1'700 * freqMHz;
    std::vector<gpu::WaveSnapshot> snaps;

    dvfs::AccurateEstimates est;
    est.domainInstr.resize(2);
    for (std::size_t s = 0; s < table.numStates(); ++s) {
        // Domain 0 compute-bound, domain 1 memory-bound.
        est.domainInstr[0].push_back(
            1000.0 * freqGHzD(table.state(s).freq) / 1.7);
        est.domainInstr[1].push_back(600.0 + s);
    }

    dvfs::EpochContext ctx{record, snaps, domains, table, pm, tickUs,
                           45.0, dvfs::Objective::Ed2p, 0.05, 4,
                           &est, &est};
    const auto decisions = decideFromAccurate(ctx, est);
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_GT(decisions[0].state, decisions[1].state);
    EXPECT_LE(decisions[1].state, 2u);
}

TEST(ForkPreExecute, WaveLevelIncludesLevelIntercept)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    ASSERT_FALSE(est.waves.empty());
    // Level = regression intercept, clamped non-negative; for a
    // mixed workload some waves must carry a positive floor.
    bool any_positive_level = false;
    for (const auto &w : est.waves) {
        EXPECT_GE(w.level, 0.0);
        any_positive_level |= w.level > 0.0;
    }
    EXPECT_TRUE(any_positive_level);
}

TEST(ForkPreExecute, DomainSensitivityFitExposesIntercept)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    const auto fit = domainSensitivity(est, table, 0);
    // Pure compute: the I(f) line passes near the origin, so the
    // predicted value at 1.7 GHz is close to slope * 1.7.
    const double at_nominal = fit.intercept + fit.sensitivity * 1.7;
    EXPECT_NEAR(at_nominal, est.domainInstr[0][4],
                0.1 * est.domainInstr[0][4]);
}

namespace
{

/**
 * Run @p workload on an 8-CU chip (40 wave slots, scale 0.25, seed
 * 42) for @p epochs 1 us epochs and digest, at each epoch boundary,
 * the bit patterns of forkPreExecuteSweep's domainInstr matrix and of
 * every wave fit. Between sweeps each CU runs at a different V/f
 * state from a fixed pattern, so the CUs fall out of lockstep.
 */
std::vector<std::uint64_t>
sweepDigests(const char *workload, std::size_t epochs)
{
    workloads::WorkloadParams params;
    params.numCus = 8;
    params.scale = 0.25;
    params.seed = 42;
    auto app = std::make_shared<const isa::Application>(
        workloads::makeWorkload(workload, params));
    gpu::GpuConfig cfg;
    power::PowerParams power;
    sim::scaleToCus(cfg, power, 8);
    cfg.waveSlotsPerCu = 40;
    gpu::GpuChip chip(cfg, app);

    const dvfs::DomainMap domains(8, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const Tick latency = gpu::transitionLatencyFor(tickUs);
    std::vector<std::uint64_t> digests;
    for (std::size_t e = 0; e < epochs; ++e) {
        const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
        std::uint64_t h = 0xCBF29CE484222325ULL;
        auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
        auto mix_double = [&mix](double v) {
            mix(std::bit_cast<std::uint64_t>(v));
        };
        for (const auto &row : est.domainInstr)
            for (double v : row)
                mix_double(v);
        mix(est.waves.size());
        for (const auto &w : est.waves) {
            mix(w.cu);
            mix(w.slot);
            mix(w.startPcAddr);
            mix_double(w.sensitivity);
            mix_double(w.level);
            mix(w.ageRank);
        }
        digests.push_back(h);

        for (std::uint32_t cu = 0; cu < cfg.numCus; ++cu) {
            const std::size_t s = (cu * 5 + e * 3) % table.numStates();
            chip.setCuFrequency(cu, table.state(s).freq, latency);
        }
        const Tick start = chip.now();
        chip.runUntil(start + tickUs);
        chip.harvestEpoch(start);
    }
    return digests;
}

} // namespace

TEST(ForkPreExecute, EstimatesArePinnedAt8Cus)
{
    // The oracle path at 8 CUs: any change to the CU step, wave
    // scheduling order, age ranks or snapshot restore shows up in the
    // sampled I(f) matrix or the wave fits. comd crosses a kernel
    // launch boundary within these epochs; xsbench runs to completion
    // (its last digests are those of the drained chip).
    const std::vector<std::uint64_t> comd{
        0x2eba25c69b8c61b1ULL, 0x0ab534a7ac2621eaULL, 0x402bb2d2db2eb497ULL,
        0x7745f9966fcb2535ULL, 0x60b40aa11a55d1d9ULL, 0x091c94d0b172a47aULL,
        0x0e681a8b681889c7ULL, 0x5a848862b57385a8ULL, 0x24d1e779b3d76734ULL,
        0xd7a22f645e5766c4ULL, 0x5ecb9c48061d04f0ULL, 0x8f83fc4a889622d0ULL,
        0xc93bc6242173587eULL, 0x6dac2b933609c731ULL, 0x9ba9dbe6456cce4fULL,
        0xd8b91f74fa94f037ULL};
    const std::vector<std::uint64_t> xsbench{
        0xdcfe0b9c5c6a75e3ULL, 0xdf69981e8422c543ULL, 0x153226233ed3bfa5ULL,
        0x4b10ba7155ea230fULL, 0xdb7764d924f97bdcULL, 0x20cb8b9ee172deb6ULL,
        0x80c0288214654e27ULL, 0xe05680f20b1e0531ULL, 0x91cd785dcba6131eULL,
        0x9a57bc5b05c66bfaULL, 0x2218c82610ebb19bULL, 0x53debb2989ca8631ULL,
        0xf8a54225d13b1b3cULL, 0xf8a54225d13b1b3cULL, 0xf8a54225d13b1b3cULL,
        0xf8a54225d13b1b3cULL};
    EXPECT_EQ(sweepDigests("comd", comd.size()), comd);
    EXPECT_EQ(sweepDigests("xsbench", xsbench.size()), xsbench);
}
