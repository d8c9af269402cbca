/** @file Unit tests for src/gpu: wavefronts, CUs, chip event loop. */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "gpu/cu_team.hh"
#include "gpu/gpu_chip.hh"
#include "isa/kernel_builder.hh"
#include "power/vf_table.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace pcstall;
using namespace pcstall::gpu;

namespace
{

std::shared_ptr<const isa::Application>
computeApp(std::uint32_t workgroups = 4, std::uint32_t trips = 50)
{
    isa::KernelBuilder b("compute");
    b.grid(workgroups, 4);
    b.loop(trips);
    b.valu(4, 8);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "compute_app";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

std::shared_ptr<const isa::Application>
memoryApp(std::uint32_t workgroups = 4, std::uint32_t trips = 30)
{
    isa::KernelBuilder b("memory");
    const auto r = b.region("data", 64 << 20);
    b.grid(workgroups, 4);
    b.loop(trips);
    b.load(r, isa::AccessPattern::Random);
    b.load(r, isa::AccessPattern::Random);
    b.waitcnt(0);
    b.valu(2, 2);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "memory_app";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

GpuConfig
smallGpu(std::uint32_t cus = 2)
{
    GpuConfig cfg;
    cfg.numCus = cus;
    cfg.waveSlotsPerCu = 8;
    return cfg;
}

} // namespace

TEST(GpuChip, RunsComputeKernelToCompletion)
{
    GpuChip chip(smallGpu(), computeApp());
    bool done = false;
    for (int epoch = 1; epoch <= 200 && !done; ++epoch)
        done = chip.runUntil(epoch * tickUs);
    EXPECT_TRUE(done);
    // 4 wgs x 4 waves x (50 trips x 9 body + 1 endpgm) committed.
    EXPECT_EQ(chip.totalCommitted(), 4u * 4u * (50u * 9u + 1u));
}

TEST(GpuChip, CommitCountIndependentOfEpochLength)
{
    GpuChip a(smallGpu(), computeApp());
    GpuChip b(smallGpu(), computeApp());
    bool done_a = false, done_b = false;
    for (int i = 1; i <= 400 && !done_a; ++i)
        done_a = a.runUntil(i * (tickUs / 2));
    for (int i = 1; i <= 100 && !done_b; ++i)
        done_b = b.runUntil(i * (2 * tickUs));
    ASSERT_TRUE(done_a);
    ASSERT_TRUE(done_b);
    EXPECT_EQ(a.totalCommitted(), b.totalCommitted());
}

TEST(GpuChip, HigherFrequencyFinishesComputeSooner)
{
    auto run_at = [](Freq freq) {
        GpuConfig cfg = smallGpu();
        cfg.defaultFreq = freq;
        GpuChip chip(cfg, computeApp(4, 200));
        for (int epoch = 1; epoch <= 2000; ++epoch)
            if (chip.runUntil(epoch * tickUs))
                break;
        return chip.lastCommitTick();
    };
    const Tick fast = run_at(2'200 * freqMHz);
    const Tick slow = run_at(1'300 * freqMHz);
    ASSERT_GT(fast, 0);
    ASSERT_GT(slow, 0);
    // Compute-bound: runtime close to inversely proportional.
    const double ratio = static_cast<double>(slow) /
        static_cast<double>(fast);
    EXPECT_NEAR(ratio, 2200.0 / 1300.0, 0.25);
}

TEST(GpuChip, MemoryBoundIsFrequencyInsensitive)
{
    auto run_at = [](Freq freq) {
        GpuConfig cfg = smallGpu();
        cfg.defaultFreq = freq;
        GpuChip chip(cfg, memoryApp(4, 60));
        for (int epoch = 1; epoch <= 4000; ++epoch)
            if (chip.runUntil(epoch * tickUs))
                break;
        return chip.lastCommitTick();
    };
    const Tick fast = run_at(2'200 * freqMHz);
    const Tick slow = run_at(1'300 * freqMHz);
    const double ratio = static_cast<double>(slow) /
        static_cast<double>(fast);
    // Much less speedup than the 1.69x clock ratio.
    EXPECT_LT(ratio, 1.35);
}

TEST(GpuChip, EpochStatsSumToLifetime)
{
    GpuChip chip(smallGpu(), computeApp());
    std::uint64_t harvested = 0;
    Tick start = 0;
    bool done = false;
    while (!done && start < 400 * tickUs) {
        done = chip.runUntil(start + tickUs);
        const EpochRecord rec = chip.harvestEpoch(start);
        harvested += rec.totalCommitted();
        start += tickUs;
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(harvested, chip.totalCommitted());
}

TEST(GpuChip, WaveStallAccountingForMemoryApp)
{
    GpuChip chip(smallGpu(1), memoryApp(2, 20));
    chip.runUntil(20 * tickUs);
    const EpochRecord rec = chip.harvestEpoch(0);
    // Memory-bound waves must report substantial stall time.
    Tick total_stall = 0;
    std::uint64_t committed = 0;
    for (const auto &w : rec.waves) {
        total_stall += w.memStall;
        committed += w.committed;
    }
    EXPECT_GT(committed, 0u);
    EXPECT_GT(total_stall, 0);
    // CU-level async counters populated too.
    EXPECT_GT(rec.cus[0].memInterval, 0);
    EXPECT_GT(rec.cus[0].loadStall, 0);
    EXPECT_GT(rec.cus[0].leadLoad, 0);
}

TEST(GpuChip, ComputeAppHasLowStall)
{
    GpuChip chip(smallGpu(1), computeApp(2, 100));
    chip.runUntil(10 * tickUs);
    const EpochRecord rec = chip.harvestEpoch(0);
    EXPECT_EQ(rec.cus[0].loadStall, 0);
    EXPECT_EQ(rec.cus[0].memInterval, 0);
    EXPECT_GT(rec.cus[0].busy, 0);
}

TEST(GpuChip, SnapshotCopyDivergesDeterministically)
{
    GpuChip chip(smallGpu(), memoryApp(8, 40));
    chip.runUntil(5 * tickUs);
    chip.harvestEpoch(0);

    GpuChip copy1 = chip;
    GpuChip copy2 = chip;
    copy1.runUntil(chip.now() + 5 * tickUs);
    copy2.runUntil(chip.now() + 5 * tickUs);
    // Identical copies evolve identically.
    EXPECT_EQ(copy1.totalCommitted(), copy2.totalCommitted());
    // And the original is untouched.
    EXPECT_LT(chip.totalCommitted(), copy1.totalCommitted());
}

TEST(GpuChip, FrequencyChangeAffectsCopyOnly)
{
    GpuChip chip(smallGpu(), computeApp(8, 400));
    chip.runUntil(2 * tickUs);
    chip.harvestEpoch(0);

    GpuChip fast = chip;
    for (std::uint32_t cu = 0; cu < 2; ++cu)
        fast.setCuFrequency(cu, 2'200 * freqMHz, 0);
    fast.runUntil(chip.now() + 10 * tickUs);
    chip.runUntil(chip.now() + 10 * tickUs);
    EXPECT_GT(fast.totalCommitted(), chip.totalCommitted());
}

TEST(GpuChip, TransitionLatencyStallsIssue)
{
    GpuChip a(smallGpu(1), computeApp(2, 300));
    GpuChip b(smallGpu(1), computeApp(2, 300));
    a.runUntil(tickUs);
    b.runUntil(tickUs);
    a.harvestEpoch(0);
    b.harvestEpoch(0);
    // Same target frequency; a pays a long transition stall.
    a.setCuFrequency(0, 2'000 * freqMHz, 100 * tickNs);
    b.setCuFrequency(0, 2'000 * freqMHz, 0);
    a.runUntil(2 * tickUs);
    b.runUntil(2 * tickUs);
    const EpochRecord ra = a.harvestEpoch(tickUs);
    const EpochRecord rb = b.harvestEpoch(tickUs);
    EXPECT_LT(ra.cus[0].committed, rb.cus[0].committed);
}

TEST(GpuChip, MultiKernelLaunchesRunSequentially)
{
    isa::KernelBuilder k1("first");
    k1.grid(2, 4);
    k1.valu(4, 10);
    isa::KernelBuilder k2("second");
    k2.grid(2, 4);
    k2.valu(4, 10);
    auto app = std::make_shared<isa::Application>();
    app->name = "two_kernels";
    app->launches.push_back(k1.build());
    app->launches.push_back(k2.build());
    app->assignCodeBases();

    GpuChip chip(smallGpu(), app);
    bool done = false;
    for (int i = 1; i <= 100 && !done; ++i)
        done = chip.runUntil(i * tickUs);
    EXPECT_TRUE(done);
    EXPECT_EQ(chip.totalCommitted(), 2u * (2u * 4u * 11u));
}

TEST(GpuChip, BarrierSynchronizesWorkgroup)
{
    isa::KernelBuilder b("bar");
    b.grid(1, 4);
    b.valu(4, 4);
    b.barrier();
    b.valu(4, 4);
    auto app = std::make_shared<isa::Application>();
    app->name = "barrier_app";
    app->launches.push_back(b.build());
    app->assignCodeBases();

    GpuChip chip(smallGpu(1), app);
    bool done = false;
    for (int i = 1; i <= 50 && !done; ++i)
        done = chip.runUntil(i * tickUs);
    EXPECT_TRUE(done);
    // 4 waves x (4 + barrier + 4 + endpgm) instructions.
    EXPECT_EQ(chip.totalCommitted(), 4u * 10u);
}

TEST(GpuChip, WaveSnapshotsExposeResidentWaves)
{
    GpuChip chip(smallGpu(), computeApp(8, 400));
    chip.runUntil(tickUs);
    const auto snaps = chip.waveSnapshots();
    EXPECT_FALSE(snaps.empty());
    for (const auto &s : snaps) {
        EXPECT_LT(s.cu, 2u);
        EXPECT_LT(s.slot, 8u);
        EXPECT_GE(s.pcAddr, 0x4000'0000ULL); // code base applied
    }
    // Age ranks within a CU are unique.
    std::vector<std::uint32_t> ranks;
    for (const auto &s : snaps)
        if (s.cu == 0)
            ranks.push_back(s.ageRank);
    std::sort(ranks.begin(), ranks.end());
    for (std::size_t i = 0; i < ranks.size(); ++i)
        EXPECT_EQ(ranks[i], i);
}

TEST(GpuChip, DivergentTripCountsVaryPerWave)
{
    isa::KernelBuilder b("diverge");
    b.grid(4, 4).seed(7);
    b.loop(50, 40);
    b.valu(4, 4);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "divergent";
    app->launches.push_back(b.build());
    app->assignCodeBases();

    GpuChip chip(smallGpu(1), app);
    chip.runUntil(2 * tickUs);
    const EpochRecord rec = chip.harvestEpoch(0);
    // Some waves finish far earlier than others -> committed spread.
    std::uint64_t min_c = ~0ULL, max_c = 0;
    for (const auto &w : rec.waves) {
        min_c = std::min(min_c, w.committed);
        max_c = std::max(max_c, w.committed);
    }
    EXPECT_GT(max_c, min_c);
}

TEST(GpuChip, RefilledLowSlotLosesToOlderWaves)
{
    // One SIMD, four slots, two-wave workgroups and one-cycle
    // latencies: the oldest ready wave issues every cycle, so waves
    // run one after another in age order, interleaving only at the
    // barrier. When workgroup 0 (slots 0-1) completes, workgroup 2
    // refills slots 0-1 while workgroup 1's older waves still sit in
    // slots 2-3 at pc 0: the refill must wait until they are done,
    // also after their barrier releases them.
    isa::KernelBuilder b("refill");
    b.grid(3, 2);
    b.valu(1, 2);
    b.barrier();
    b.valu(1, 2);
    auto app = std::make_shared<isa::Application>();
    app->name = "refill_app";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    const std::uint32_t after_barrier = 3;

    GpuConfig cfg = smallGpu(1);
    cfg.waveSlotsPerCu = 4;
    cfg.simdsPerCu = 1;
    GpuChip chip(cfg, app);
    bool refilled = false;
    bool released_first = false;
    bool done = false;
    for (int i = 1; i <= 10'000 && !done; ++i) {
        done = chip.runUntil(i * 100);
        const auto snaps = chip.waveSnapshots();
        const WaveSnapshot *low = nullptr;
        const WaveSnapshot *high = nullptr;
        for (const WaveSnapshot &s : snaps) {
            if (s.slot == 0)
                low = &s;
            if (s.slot == 2)
                high = &s;
        }
        if (low == nullptr || low->ageRank == 0)
            continue;
        // Slot 0 holds a wave younger than some resident wave.
        refilled = true;
        EXPECT_EQ(low->pc, 0u) << "at " << i * 100 << " ps";
        if (high != nullptr && high->pc >= after_barrier) {
            EXPECT_LT(high->ageRank, low->ageRank);
            released_first = true;
        }
    }
    EXPECT_TRUE(done);
    EXPECT_TRUE(refilled);
    EXPECT_TRUE(released_first);
    EXPECT_EQ(chip.totalCommitted(), 6u * 6u);
}

TEST(TransitionLatency, MatchesPaperPoints)
{
    EXPECT_EQ(transitionLatencyFor(1 * tickUs), 4 * tickNs);
    EXPECT_EQ(transitionLatencyFor(10 * tickUs), 40 * tickNs);
    EXPECT_EQ(transitionLatencyFor(50 * tickUs), 200 * tickNs);
    EXPECT_EQ(transitionLatencyFor(100 * tickUs), 400 * tickNs);
    // Clamped outside and monotone inside.
    EXPECT_EQ(transitionLatencyFor(tickUs / 2), 4 * tickNs);
    EXPECT_EQ(transitionLatencyFor(200 * tickUs), 400 * tickNs);
    EXPECT_GT(transitionLatencyFor(30 * tickUs),
              transitionLatencyFor(10 * tickUs));
}

TEST(GpuChip, WaveCommittedSumsMatchCuCommitted)
{
    GpuChip chip(smallGpu(), memoryApp(8, 40));
    Tick t = 0;
    for (int e = 0; e < 6; ++e) {
        const bool done = chip.runUntil(t + tickUs);
        const EpochRecord rec = chip.harvestEpoch(t);
        t += tickUs;
        std::vector<std::uint64_t> per_cu(2, 0);
        for (const auto &w : rec.waves)
            per_cu[w.cu] += w.committed;
        for (std::uint32_t cu = 0; cu < 2; ++cu)
            EXPECT_EQ(per_cu[cu], rec.cus[cu].committed) << "epoch " << e;
        if (done)
            break;
    }
}

TEST(GpuChip, StallClippedAtEpochBoundary)
{
    // No wave can report more stall time than the epoch contains.
    GpuChip chip(smallGpu(), memoryApp(8, 40));
    Tick t = 0;
    for (int e = 0; e < 8; ++e) {
        const bool done = chip.runUntil(t + tickUs);
        const EpochRecord rec = chip.harvestEpoch(t);
        t += tickUs;
        for (const auto &w : rec.waves) {
            EXPECT_LE(w.memStall, tickUs);
            EXPECT_LE(w.barrierStall, tickUs);
        }
        for (const auto &cu : rec.cus) {
            EXPECT_LE(cu.loadStall, tickUs);
            EXPECT_LE(cu.storeStall, tickUs);
            EXPECT_LE(cu.memInterval, tickUs);
        }
        if (done)
            break;
    }
}

TEST(GpuChip, WaitcntAllowsOutstandingRequests)
{
    // With s_waitcnt(1), one load may remain in flight: the wave
    // commits more per unit time than with a full join.
    auto make_app = [](std::uint16_t max_outstanding) {
        isa::KernelBuilder b("w");
        const auto r = b.region("data", 64 << 20);
        b.grid(2, 4);
        b.loop(60);
        b.load(r, isa::AccessPattern::Random);
        b.load(r, isa::AccessPattern::Random);
        b.waitcnt(max_outstanding);
        b.valu(2, 2);
        b.endLoop();
        auto app = std::make_shared<isa::Application>();
        app->name = "w";
        app->launches.push_back(b.build());
        app->assignCodeBases();
        return app;
    };
    auto run = [&](std::uint16_t n) {
        GpuChip chip(smallGpu(1), make_app(n));
        for (int e = 1; e <= 1000; ++e)
            if (chip.runUntil(e * tickUs))
                break;
        return chip.lastCommitTick();
    };
    EXPECT_LT(run(1), run(0));
}

TEST(GpuChip, BarrierStallIsAccounted)
{
    // Eight waves per workgroup compete for four SIMDs, plus memory
    // latency jitter: arrivals at the barrier stagger, so the early
    // waves must report barrier wait time.
    isa::KernelBuilder b("bar");
    const auto r = b.region("data", 64 << 20);
    b.grid(1, 8).seed(3);
    b.loop(20);
    b.load(r, isa::AccessPattern::Random);
    b.waitcnt(0);
    b.valu(4, 4);
    b.endLoop();
    b.barrier();
    auto app = std::make_shared<isa::Application>();
    app->name = "bar";
    app->launches.push_back(b.build());
    app->assignCodeBases();

    GpuChip chip(smallGpu(1), app);
    Tick total_barrier = 0;
    Tick t = 0;
    bool done = false;
    while (!done && t < 1000 * tickUs) {
        done = chip.runUntil(t + tickUs);
        const EpochRecord rec = chip.harvestEpoch(t);
        t += tickUs;
        for (const auto &w : rec.waves)
            total_barrier += w.barrierStall;
    }
    ASSERT_TRUE(done);
    EXPECT_GT(total_barrier, 0);
}

TEST(GpuChip, MoreSimdsRaiseThroughput)
{
    auto run_with = [](std::uint32_t simds) {
        GpuConfig cfg = smallGpu(1);
        cfg.simdsPerCu = simds;
        cfg.waveSlotsPerCu = 16;
        GpuChip chip(cfg, computeApp(4, 400));
        chip.runUntil(4 * tickUs);
        return chip.totalCommitted();
    };
    EXPECT_GT(run_with(4), run_with(1));
    EXPECT_GE(run_with(2), run_with(1));
}

TEST(GpuChip, SnapshotsIncludeLaunchCodeBase)
{
    // Waves from the second kernel must expose that kernel's PC base.
    isa::KernelBuilder k1("alpha");
    k1.grid(2, 4);
    k1.valu(4, 4);
    isa::KernelBuilder k2("beta");
    k2.grid(2, 4);
    k2.loop(4000);
    k2.valu(4, 4);
    k2.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "two";
    app->launches.push_back(k1.build());
    app->launches.push_back(k2.build());
    app->assignCodeBases();
    const std::uint64_t beta_base = app->launches[1].codeBase;

    GpuChip chip(smallGpu(1), app);
    chip.runUntil(20 * tickUs); // well into kernel beta
    bool saw_beta = false;
    for (const auto &s : chip.waveSnapshots())
        if (s.pcAddr >= beta_base)
            saw_beta = true;
    EXPECT_TRUE(saw_beta);
}

namespace
{

/** Order-sensitive digest of every field of an epoch record. */
std::uint64_t
recordDigest(const EpochRecord &r)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    auto tick = [&mix](Tick t) { mix(static_cast<std::uint64_t>(t)); };
    tick(r.start);
    tick(r.end);
    for (const CuEpochRecord &c : r.cus) {
        mix(c.committed);
        mix(c.vmemLoads);
        mix(c.vmemStores);
        tick(c.busy);
        tick(c.loadStall);
        tick(c.storeStall);
        tick(c.leadLoad);
        tick(c.memInterval);
        tick(c.overlap);
        mix(c.mem.l1Hits);
        mix(c.mem.l1Misses);
        mix(c.mem.l2Hits);
        mix(c.mem.l2Misses);
        mix(c.mem.stores);
        mix(c.mem.storesCombined);
        mix(static_cast<std::uint64_t>(c.freq));
    }
    for (const WaveEpochRecord &w : r.waves) {
        mix(w.cu);
        mix(w.slot);
        mix(w.startPc);
        mix(w.startPcAddr);
        mix(w.committed);
        tick(w.memStall);
        tick(w.barrierStall);
        mix(w.ageRank);
        mix(w.active ? 1 : 0);
    }
    return h;
}

/** Per-epoch digests of one 64-CU run. */
struct GoldenRun
{
    const char *workload;
    std::vector<std::uint64_t> fingerprints;
    std::vector<std::uint64_t> records;
};

/**
 * Run @p workload on the paper's 64-CU chip (scale 0.25, seed 42) for
 * @p epochs 1 us epochs, on @p team when non-null, giving every
 * CU a different V/f state each epoch from a fixed pattern so the CUs
 * fall out of lockstep and tie at shared ticks. Returns each epoch's
 * state fingerprint and record digest; @p launch_out receives the
 * launch being dispatched at the end.
 */
GoldenRun
runDigests(const char *workload, std::size_t epochs, CuTeam *team,
           std::uint32_t *launch_out = nullptr)
{
    workloads::WorkloadParams params;
    params.numCus = 64;
    params.scale = 0.25;
    params.seed = 42;
    auto app = std::make_shared<const isa::Application>(
        workloads::makeWorkload(workload, params));
    GpuConfig cfg;
    power::PowerParams power;
    sim::scaleToCus(cfg, power, 64);
    GpuChip chip(cfg, app);

    const power::VfTable table = power::VfTable::paperTable();
    const Tick latency = transitionLatencyFor(tickUs);
    GoldenRun run{workload, {}, {}};
    EpochRecord record;
    for (std::size_t e = 0; e < epochs; ++e) {
        for (std::uint32_t cu = 0; cu < cfg.numCus; ++cu) {
            const std::size_t s = (cu * 5 + e * 3) % table.numStates();
            chip.setCuFrequency(cu, table.state(s).freq, latency);
        }
        const Tick start = chip.now();
        chip.runUntil(start + tickUs, team);
        chip.harvestEpoch(start, record);
        run.fingerprints.push_back(chip.stateFingerprint());
        run.records.push_back(recordDigest(record));
    }
    if (launch_out != nullptr)
        *launch_out = chip.launchIndex();
    return run;
}

/**
 * Compare each epoch's state fingerprint and record digest against
 * @p golden, on the serial loop and on @p team. Returns the launch
 * being dispatched at the end.
 */
std::uint32_t
checkGoldenRun(const GoldenRun &golden, CuTeam *team)
{
    std::uint32_t launch = 0;
    const GoldenRun run = runDigests(
        golden.workload, golden.fingerprints.size(), team, &launch);
    EXPECT_EQ(run.fingerprints, golden.fingerprints) << golden.workload;
    EXPECT_EQ(run.records, golden.records) << golden.workload;
    return launch;
}

} // namespace

TEST(GpuChip, EventOrderIsPinnedAt64Cus)
{
    // Constants recorded with the bucketed event queue that preceded
    // the tournament tree; any change to the (tick, id) pop order, the
    // launch-finished broadcast or the CU step shows up here. Each
    // run crosses at least one kernel-launch boundary.
    const GoldenRun comd{"comd",
        {
          0xebca0adf34d8e029ULL, 0x13e3cff4daea0321ULL, 0xf9bf58d513767120ULL,
          0x629bb211fac0bd97ULL, 0xbaa90b8954f28829ULL, 0x67870682d91b99fcULL,
          0x5ddceead9926407eULL, 0xb6e62bed8345c14eULL, 0x266adde5b272d597ULL,
          0xf4b10255b13d06ccULL, 0x0be7fe3facb70808ULL, 0x275849543295f065ULL,
          0x81629525dc48eb0bULL, 0xde41e0dc02d0aaaaULL, 0xd492bb8e95d78cadULL,
          0xc477a877042a7c48ULL, 0xafa55aafbf418937ULL, 0xb78684030e72a3d5ULL,
          0xee67398f0d7dd590ULL, 0x2e94aabc0f679a23ULL, 0x62b9179d912a0c44ULL,
          0x248224ffc0eecdc7ULL, 0x65213e28d5d6ebebULL, 0x85130325c05b566dULL,
          0xa0efbb96c3e9682eULL, 0x7f64629b086da3c1ULL, 0xb2ffc200a82f2106ULL,
          0x08ed76edc3638c1dULL, 0x455c1616a8f29542ULL, 0xc8e58cc4efb1b8d0ULL,
          0x58c435993debbe79ULL, 0x71f63e0cde01dc9dULL, 0x58ac01e6e726d454ULL,
          0x46fbaa14360b9243ULL, 0x9ef3b78152cb7c3fULL, 0x44637f0be74e9b24ULL,
          0xe74e88d43e692686ULL, 0x0f666c3453f0fc07ULL, 0x289eb79e9bb59de3ULL,
          0x3c776eba8cf48a1bULL, 0x2f1e541db8a9c894ULL, 0x069db674b1706617ULL,
          0xb6f89d5bb5a8f952ULL, 0x27be1deaa66e2115ULL, 0x9f9b5b054362d8b1ULL,
          0x24d42299b8d971a0ULL, 0xf84c78e239251e11ULL, 0x1729b5d82465da64ULL,
          0x1a13c352f885ac77ULL, 0x5b5926b8405d5b86ULL, 0x76db9715cd3b560fULL,
          0x7fc208a8c5ad6742ULL},
        {
          0xbbc65edd917b4051ULL, 0x54e74b2cb55deb18ULL, 0x2a6712e67a521ab2ULL,
          0x3c63023a35f58751ULL, 0x9a678e4e62dcdca2ULL, 0x9116ddd9ea0cdb80ULL,
          0x5aca95b093180ee4ULL, 0xd70add2c7a7d6f7eULL, 0x56dd7d9716395749ULL,
          0x2029a278d37b1da2ULL, 0xce2a42fdba0d5846ULL, 0x16f4469e4eda3356ULL,
          0x5a70f218cb0a5d59ULL, 0xd3674eeeec54692cULL, 0xaf6d2b45c3f1a5adULL,
          0x74d31cb2c6e3c7ccULL, 0x0d89b581483f3045ULL, 0x363f85eabdc6261cULL,
          0x47bfec96eff45a71ULL, 0x9287ea88a198825bULL, 0xf4021ab61108eb51ULL,
          0x2b9976ad306ed3bdULL, 0x38ada357d63ecd83ULL, 0xf6f840040aa25490ULL,
          0x698459d787a33160ULL, 0x4048fe585063e6d5ULL, 0x4a85eaefbf2b0361ULL,
          0xb0a51fb16aa24ecdULL, 0xcf303f89242ab150ULL, 0x3d749bc45afec291ULL,
          0x99832e688f0f1b95ULL, 0x586423020c3cba24ULL, 0xc5e262a768d3f66aULL,
          0xcb892037dea36706ULL, 0x10ab27a02b6488eeULL, 0x2dc314c82eba935aULL,
          0x855d4d7695559376ULL, 0x04449f03c9491cc4ULL, 0x3d6d51167ea359e1ULL,
          0x6d4ff4c3f41c8d0eULL, 0xce5cefd3959d9921ULL, 0x7e6f5d2f85f3519fULL,
          0xf2edbe8e585d4bdbULL, 0x05eedaaf66f0475dULL, 0xa57882f43c947357ULL,
          0x4643a7883c56205eULL, 0x197ae719c9a8906cULL, 0xfebc880663b6d6c9ULL,
          0xaf05a658d52f8476ULL, 0x5343bca9c76ee6b6ULL, 0x64c77866beb32cbcULL,
          0x0ffa42e07da8aa89ULL}};
    const GoldenRun xsbench{"xsbench",
        {
          0xc73e50cc2fa8da08ULL, 0x7778ade84a7ad989ULL, 0x695c8f348d2c54b6ULL,
          0x4867996dc26723c9ULL, 0xb455e6eb78ac9622ULL, 0x34b8e2536f12bf22ULL,
          0x1a2a0445f68651d9ULL, 0x18930ca6c91c427dULL, 0x4761592356eefc1aULL,
          0x5d75275909e8b724ULL, 0x3d345f90c6bc5843ULL, 0x0ab913960c572aa6ULL,
          0xe4c89f4e1859aef8ULL, 0xf4217205bfbad88cULL, 0x4a84bcbc7ff89b45ULL,
          0xd7fa62d54c45ab06ULL, 0x2a8d5317ff2ecf2fULL, 0x85d65eadee6bdd58ULL,
          0x05c7f2cd5a3574e6ULL, 0x2b18b6056d11e074ULL},
        {
          0x9ffd6076e4173db8ULL, 0xba1df24fb5002179ULL, 0x05ee75030097e356ULL,
          0xca2481fe427d6a0dULL, 0xd8e68f1669c5224aULL, 0x0f86ed695a17ebebULL,
          0xab05dbad765b46e5ULL, 0xfc0671b19c1aa416ULL, 0x3599c2dcdc291117ULL,
          0xd7723d3ec766c1d9ULL, 0x32211fa8b6462083ULL, 0xd97198976a8baf4bULL,
          0x1927cf287dd5e7c1ULL, 0x91ea43fd4e4d2b86ULL, 0xe3e2a1af3454e67cULL,
          0x907346f43e7b6aecULL, 0xf11703997c2b83daULL, 0xfc7ad2560d480accULL,
          0xf9f352fb66c8d1a4ULL, 0xa6faca6cf4d6778eULL}};
    EXPECT_GE(checkGoldenRun(comd, nullptr), 1u);
    EXPECT_GE(checkGoldenRun(xsbench, nullptr), 1u);
    // The same order when four threads step the CUs.
    CuTeam team(4);
    EXPECT_GE(checkGoldenRun(comd, &team), 1u);
    EXPECT_GE(checkGoldenRun(xsbench, &team), 1u);
    EXPECT_GT(team.stats.parkedSteps, 0u);
    EXPECT_GT(team.stats.privateSteps, team.stats.parkedSteps);
}

namespace
{

/** A kernel whose launch holds @p workgroups of 4 waves. */
std::shared_ptr<const isa::Application>
shortKernelApp(std::uint32_t workgroups, std::uint32_t launches,
               std::uint32_t trips)
{
    isa::KernelBuilder b("short");
    const auto r = b.region("data", 1 << 20);
    b.grid(workgroups, 4);
    b.loop(trips);
    b.load(r, isa::AccessPattern::Streaming, 16);
    b.valu(2, 2);
    b.waitcnt(0);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "short_app";
    const isa::Kernel k = b.build();
    for (std::uint32_t i = 0; i < launches; ++i)
        app->launches.push_back(k);
    app->assignCodeBases();
    return app;
}

/**
 * Run @p app to completion in 1 us epochs with the golden test's V/f
 * pattern, on @p team when non-null; return per-epoch digests.
 */
GoldenRun
runAppDigests(const std::shared_ptr<const isa::Application> &app,
              const GpuConfig &cfg, CuTeam *team)
{
    GpuChip chip(cfg, app);
    const power::VfTable table = power::VfTable::paperTable();
    GoldenRun run{"synthetic", {}, {}};
    EpochRecord record;
    for (std::size_t e = 0; e < 2000; ++e) {
        for (std::uint32_t cu = 0; cu < cfg.numCus; ++cu) {
            const std::size_t s = (cu * 5 + e * 3) % table.numStates();
            chip.setCuFrequency(cu, table.state(s).freq,
                                transitionLatencyFor(tickUs));
        }
        const Tick start = chip.now();
        const bool done = chip.runUntil(start + tickUs, team);
        chip.harvestEpoch(start, record);
        run.fingerprints.push_back(chip.stateFingerprint());
        run.records.push_back(recordDigest(record));
        if (done)
            break;
    }
    return run;
}

/**
 * A 64-CU workload and a team size. The name is a std::string so that
 * gtest prints the parameter as ("comd", 1), not as a load address,
 * and the test names stay the same from one build to the next.
 */
using TeamCase = std::tuple<std::string, unsigned>;

class TeamDeterminism : public ::testing::TestWithParam<TeamCase>
{
};

} // namespace

TEST_P(TeamDeterminism, MatchesTheSerialLoopEveryEpoch)
{
    // 60 us covers several launch boundaries of every workload here:
    // lulesh's 27 launches, BwdPool's uniform waves (many workgroups
    // finish together) and hacc's 8-wave workgroups.
    const auto [workload, threads] = GetParam();
    const GoldenRun serial = runDigests(workload.c_str(), 60, nullptr);
    CuTeam team(threads);
    const GoldenRun parallel = runDigests(workload.c_str(), 60, &team);
    EXPECT_EQ(parallel.fingerprints, serial.fingerprints);
    EXPECT_EQ(parallel.records, serial.records);
    EXPECT_GT(team.stats.windowsParallel, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TeamDeterminism,
    ::testing::Combine(::testing::Values("comd", "xsbench", "lulesh",
                                         "BwdPool", "hacc"),
                       ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<TeamCase> &info) {
        return std::get<0>(info.param) + "_" +
            std::to_string(std::get<1>(info.param)) + "threads";
    });

TEST(GpuTeam, DispatchParksWhenWorkgroupsOutnumberSlots)
{
    // 8 CUs x 8 slots hold 16 four-wave workgroups; 300 queue up, so
    // CUs keep pulling workgroups (a shared action) mid-window.
    GpuConfig cfg = smallGpu(8);
    const auto app = shortKernelApp(300, 1, 6);
    CuTeam team(2);
    const GoldenRun serial = runAppDigests(app, cfg, nullptr);
    const GoldenRun parallel = runAppDigests(app, cfg, &team);
    EXPECT_EQ(parallel.fingerprints, serial.fingerprints);
    EXPECT_EQ(parallel.records, serial.records);
    EXPECT_GT(team.stats.windowsParallel, 0u);
    EXPECT_GT(team.stats.parkedSteps, 0u);
}

TEST(GpuTeam, LaunchEndsFallBackToTheSerialLoop)
{
    // Two-trip workgroups finish within one team window, so no wave
    // ever proves the launch cannot end: every window is serial, and
    // launch ends wake every CU exactly as on the serial loop.
    GpuConfig cfg = smallGpu(8);
    const auto app = shortKernelApp(16, 12, 2);
    CuTeam team(4);
    const GoldenRun serial = runAppDigests(app, cfg, nullptr);
    const GoldenRun parallel = runAppDigests(app, cfg, &team);
    EXPECT_EQ(parallel.fingerprints, serial.fingerprints);
    EXPECT_EQ(parallel.records, serial.records);
    EXPECT_GT(team.stats.windowsSerial, 0u);
}

TEST(GpuTeam, WorkerFailureSurfacesOnTheCallerLowestMemberFirst)
{
    // GpuChip::runUntil rethrows a failed step's FatalError the same
    // way, choosing the lowest failing CU id.
    CuTeam team(4);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    auto fail_some = [&](unsigned m) {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
        }
        if (m == 1 || m == 3)
            fatal("member " + std::to_string(m) + " failed");
    };
    EXPECT_FATAL(team.forEachMember(fail_some), "member 1 failed");
    EXPECT_EQ(threads.size(), 4u);
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
    // The team stays usable after a failure.
    std::atomic<unsigned> ran{0};
    auto count = [&](unsigned) { ran.fetch_add(1); };
    team.forEachMember(count);
    EXPECT_EQ(ran.load(), 4u);
}

TEST(GpuTeam, SizeKeepsSmallChipsSerial)
{
    EXPECT_EQ(CuTeam::sizeFor(4, 64), 4u);
    EXPECT_EQ(CuTeam::sizeFor(8, 64), 4u);
    EXPECT_EQ(CuTeam::sizeFor(4, 32), 2u);
    EXPECT_LE(CuTeam::sizeFor(4, 8), 1u);
}

using GpuDeath = ::testing::Test;

TEST(GpuDeath, RejectsEmptyApplication)
{
    auto app = std::make_shared<isa::Application>();
    app->name = "empty";
    EXPECT_FATAL(GpuChip(smallGpu(), app), "no kernel launches");
}

TEST(GpuDeath, RejectsOversizedWorkgroup)
{
    isa::KernelBuilder b("big_wg");
    b.grid(1, 64); // 64 waves > 8 slots
    b.valu(1, 1);
    auto app = std::make_shared<isa::Application>();
    app->name = "big";
    app->launches.push_back(b.build());
    EXPECT_FATAL(GpuChip(smallGpu(), app), "does not fit");
}

TEST(GpuDeath, RejectsMoreThan64WaveSlots)
{
    GpuConfig cfg = smallGpu();
    cfg.waveSlotsPerCu = maxWaveSlotsPerCu;
    EXPECT_NO_THROW(GpuChip(cfg, computeApp()));
    cfg.waveSlotsPerCu = maxWaveSlotsPerCu + 1;
    EXPECT_FATAL(GpuChip(cfg, computeApp()), "at most 64 wave slots");
}
