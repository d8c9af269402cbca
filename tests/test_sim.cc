/** @file Unit tests for src/sim: experiment driver & profiler. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>

#include "core/pcstall_controller.hh"
#include "epoch_recorder.hh"
#include "isa/kernel_builder.hh"
#include "models/reactive_controller.hh"
#include "sim/experiment.hh"
#include "sim/profiler.hh"
#include "dvfs/hierarchical.hh"
#include "trace/epoch_csv.hh"

#include <algorithm>
#include <sstream>

using namespace pcstall;
using namespace pcstall::sim;

namespace
{

std::shared_ptr<const isa::Application>
loopApp(bool memory_bound, std::uint32_t trips = 400)
{
    isa::KernelBuilder b(memory_bound ? "mem" : "comp");
    const auto r = b.region("data", 32 << 20);
    b.grid(16, 4);
    b.loop(trips);
    if (memory_bound) {
        b.load(r, isa::AccessPattern::Random);
        b.load(r, isa::AccessPattern::Random);
        b.waitcnt(0);
        b.valu(2, 2);
    } else {
        b.valu(4, 8);
    }
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = memory_bound ? "mem_app" : "comp_app";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.waveSlotsPerCu = 8;
    cfg.maxSimTime = 5 * tickMs;
    cfg.scaled();
    return cfg;
}

} // namespace

TEST(ExperimentDriver, StaticRunCompletes)
{
    ExperimentDriver driver(smallConfig());
    dvfs::StaticController c(driver.nominalState());
    const RunResult r = driver.run(loopApp(false), c);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.execTime, 0);
    EXPECT_GT(r.energy, 0.0);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.epochs, 1u);
    // Static controller never claims predictions.
    EXPECT_DOUBLE_EQ(r.predictionAccuracy, 0.0);
}

TEST(ExperimentDriver, FreqTimeShareSumsToOne)
{
    ExperimentDriver driver(smallConfig());
    dvfs::StaticController c(driver.nominalState());
    const RunResult r = driver.run(loopApp(false), c);
    double sum = 0.0;
    for (double share : r.freqTimeShare)
        sum += share;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_NEAR(r.freqTimeShare[driver.nominalState()], 1.0, 1e-9);
}

TEST(ExperimentDriver, StaticFastBeatsSlowOnComputeTime)
{
    ExperimentDriver driver(smallConfig());
    dvfs::StaticController low(0);
    dvfs::StaticController high(9);
    const RunResult slow = driver.run(loopApp(false), low);
    const RunResult fast = driver.run(loopApp(false), high);
    EXPECT_LT(fast.execTime, slow.execTime);
    // Same total work.
    EXPECT_EQ(fast.instructions, slow.instructions);
}

TEST(ExperimentDriver, MemoryBoundLowFreqSavesEnergy)
{
    ExperimentDriver driver(smallConfig());
    dvfs::StaticController low(0);
    dvfs::StaticController high(9);
    const RunResult le = driver.run(loopApp(true), low);
    const RunResult he = driver.run(loopApp(true), high);
    EXPECT_LT(le.energy, he.energy);
}

TEST(ExperimentDriver, ReactiveControllerRunsAndPredicts)
{
    ExperimentDriver driver(smallConfig());
    models::ReactiveController c(models::EstimationKind::Crisp);
    const RunResult r = driver.run(loopApp(false), c);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.predictionAccuracy, 0.0);
    EXPECT_LE(r.predictionAccuracy, 1.0);
}

TEST(ExperimentDriver, PcstallRunsAndPredictsWell)
{
    ExperimentDriver driver(smallConfig());
    core::PcstallController c(
        core::PcstallConfig::forEpoch(tickUs, 8), 2);
    const RunResult r = driver.run(loopApp(false), c);
    EXPECT_TRUE(r.completed);
    // Steady loop: PCSTALL predictions should be quite accurate.
    EXPECT_GT(r.predictionAccuracy, 0.6);
}

TEST(ExperimentDriver, TraceCollectsPerEpochStates)
{
    ExperimentDriver driver(smallConfig());
    dvfs::StaticController c(3);
    test::EpochRecorder recorder(driver);
    const RunResult r = driver.run(loopApp(false), c, &recorder);
    const auto &epochs = recorder.epochs;
    ASSERT_EQ(epochs.size(), r.epochs);
    // The first epoch runs at the nominal state (decisions apply from
    // the second epoch on).
    EXPECT_EQ(epochs.front().state[0], driver.nominalState());
    for (std::size_t i = 1; i < epochs.size(); ++i) {
        ASSERT_EQ(epochs[i].state.size(), 2u);
        EXPECT_EQ(epochs[i].state[0], 3u);
    }
}

TEST(ExperimentDriver, WallStopsRunawayRuns)
{
    RunConfig cfg = smallConfig();
    cfg.maxSimTime = 5 * tickUs;
    ExperimentDriver driver(cfg);
    dvfs::StaticController c(driver.nominalState());
    const RunResult r = driver.run(loopApp(false, 100000), c);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.execTime, cfg.maxSimTime);
}

TEST(ExperimentDriver, DomainGranularityWorks)
{
    RunConfig cfg = smallConfig();
    cfg.cusPerDomain = 2;
    ExperimentDriver driver(cfg);
    core::PcstallController c(
        core::PcstallConfig::forEpoch(tickUs, 8), 2);
    const RunResult r = driver.run(loopApp(false), c);
    EXPECT_TRUE(r.completed);
}

TEST(ExperimentDriver, DerivedMetricsConsistent)
{
    ExperimentDriver driver(smallConfig());
    dvfs::StaticController c(driver.nominalState());
    const RunResult r = driver.run(loopApp(false), c);
    EXPECT_NEAR(r.edp(), r.energy * r.seconds(), 1e-12);
    EXPECT_NEAR(r.ed2p(), r.edp() * r.seconds(), 1e-12);
    EXPECT_GT(r.avgPower(), 0.0);
}

TEST(Profiler, CollectsEpochProfiles)
{
    ProfileConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.waveSlotsPerCu = 8;
    cfg.maxEpochs = 5;
    SensitivityProfiler profiler(cfg);
    const ProfileResult result = profiler.profile(loopApp(false));
    ASSERT_LE(result.epochs.size(), 5u);
    ASSERT_GE(result.epochs.size(), 1u);
    for (const auto &ep : result.epochs) {
        ASSERT_EQ(ep.domains.size(), 2u);
        EXPECT_GT(ep.domains[0].sensitivity, 0.0);
        ASSERT_EQ(ep.domainInstr.size(), 2u);
    }
    const auto series = result.domainSeries(0);
    EXPECT_EQ(series.size(), result.epochs.size());
}

TEST(Profiler, MemoryBoundHasLowerSensitivity)
{
    ProfileConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.waveSlotsPerCu = 8;
    cfg.maxEpochs = 4;
    SensitivityProfiler profiler(cfg);
    const auto comp = profiler.profile(loopApp(false));
    const auto mem = profiler.profile(loopApp(true));
    ASSERT_FALSE(comp.epochs.empty());
    ASSERT_FALSE(mem.epochs.empty());
    double comp_s = 0, mem_s = 0;
    for (const auto &ep : comp.epochs)
        comp_s += ep.domains[0].sensitivity;
    for (const auto &ep : mem.epochs)
        mem_s += ep.domains[0].sensitivity;
    EXPECT_GT(comp_s / comp.epochs.size(), mem_s / mem.epochs.size());
}

TEST(Profiler, SamplingSkipsEpochs)
{
    ProfileConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.waveSlotsPerCu = 8;
    cfg.maxEpochs = 3;
    cfg.sampleEvery = 2;
    SensitivityProfiler profiler(cfg);
    const auto result = profiler.profile(loopApp(false, 2000));
    ASSERT_GE(result.epochs.size(), 2u);
    EXPECT_EQ(result.epochs[1].start - result.epochs[0].start,
              2 * tickUs);
}

TEST(ExperimentDriver, TransitionsAreCountedAndCharged)
{
    ExperimentDriver driver(smallConfig());
    // Static controllers never transition.
    dvfs::StaticController st(driver.nominalState());
    const RunResult rs = driver.run(loopApp(false), st);
    EXPECT_EQ(rs.transitions, 0u);
    EXPECT_DOUBLE_EQ(rs.transitionEnergy, 0.0);

    // A reactive controller moving away from nominal transitions at
    // least once, and the energy shows up in the breakdown.
    models::ReactiveController c(models::EstimationKind::Stall);
    const RunResult rr = driver.run(loopApp(true), c);
    EXPECT_GT(rr.transitions, 0u);
    EXPECT_GT(rr.transitionEnergy, 0.0);
    EXPECT_LT(rr.transitionEnergy, rr.energy);
}

TEST(TraceExport, RunTraceCsvRoundTrips)
{
    const RunConfig cfg = smallConfig();
    ExperimentDriver driver(cfg);
    dvfs::StaticController c(3);
    const std::string path = ::testing::TempDir() + "pcstall_sim_" +
        std::to_string(static_cast<long>(::getpid())) + ".pctrace";
    trace::TraceWriter writer(
        path, trace::makeTraceMeta(cfg, driver.table(), "comp", c));
    trace::TraceCapture capture(writer);
    const RunResult r = driver.run(loopApp(false), c, &capture);
    const trace::TraceReadResult read = trace::readTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(read.ok()) << read.error;

    std::ostringstream os;
    trace::writeEpochCsv(os, *read.trace);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("epoch_us,domain,state,freq_ghz,committed"),
              std::string::npos);
    EXPECT_EQ(csv.rfind("# pcstall-run-trace-csv v", 0), 0u);
    // Schema comment + header + epochs * domains rows.
    const std::size_t lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(),
                                            '\n'));
    EXPECT_EQ(lines, 2 + r.epochs * 2);
    EXPECT_NE(csv.find(",1.6,"), std::string::npos); // state 3
}

TEST(ScaleToCus, ProportionalMemorySystem)
{
    gpu::GpuConfig g;
    power::PowerParams p;
    scaleToCus(g, p, 64);
    EXPECT_EQ(g.mem.l2Banks, 16u);
    EXPECT_EQ(g.mem.dramChannels, 8u);
    EXPECT_EQ(g.mem.l2SizeBytes, 4ull << 20);
    EXPECT_NEAR(p.memStatic, 56.0, 1e-9);

    scaleToCus(g, p, 8);
    EXPECT_EQ(g.mem.l2Banks, 2u);
    EXPECT_EQ(g.mem.dramChannels, 1u);
    EXPECT_EQ(g.mem.l2SizeBytes, 512ull * 1024);
    EXPECT_NEAR(p.memStatic, 7.0, 1e-9);

    // Floors for tiny configurations.
    scaleToCus(g, p, 1);
    EXPECT_GE(g.mem.l2Banks, 2u);
    EXPECT_GE(g.mem.dramChannels, 1u);
    EXPECT_GT(p.memStatic, 0.0);
}

TEST(Hierarchical, CapReducesAveragePowerEndToEnd)
{
    RunConfig cfg = smallConfig();
    ExperimentDriver driver(cfg);
    const auto app = loopApp(false, 3000);

    core::PcstallController free_inner(
        core::PcstallConfig::forEpoch(tickUs, 8), 2);
    const RunResult free_run = driver.run(app, free_inner);
    ASSERT_TRUE(free_run.completed);

    core::PcstallController capped_inner(
        core::PcstallConfig::forEpoch(tickUs, 8), 2);
    dvfs::HierarchicalConfig hcfg;
    hcfg.powerCap = free_run.avgPower() * 0.75;
    hcfg.reviewEpochs = 5;
    dvfs::HierarchicalPowerManager mgr(capped_inner, hcfg);
    const RunResult capped = driver.run(app, mgr);
    ASSERT_TRUE(capped.completed);

    EXPECT_LT(capped.avgPower(), free_run.avgPower());
    EXPECT_GE(capped.execTime, free_run.execTime);
    EXPECT_LT(mgr.ceilingState(), 9u);
}
