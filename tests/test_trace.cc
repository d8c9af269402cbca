/**
 * @file
 * Tests of the epoch-trace subsystem (src/trace): binary wire format
 * round-trips, strict rejection of truncated/corrupt files, PC-table
 * snapshot/restore across quantization boundaries, and the headline
 * property - capture-then-replay reproduces the live run's decisions
 * and metrics bit-for-bit across workloads and controller kinds.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/pcstall_controller.hh"
#include "dvfs/hierarchical.hh"
#include "models/reactive_controller.hh"
#include "oracle/oracle_controllers.hh"
#include "sim/experiment.hh"
#include "sim/trace_export.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/snapshot.hh"
#include "workloads/workloads.hh"

using namespace pcstall;

namespace
{

sim::RunConfig
testConfig(std::uint32_t cus = 2)
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = cus;
    cfg.maxSimTime = 2 * tickMs;
    cfg.scaled();
    return cfg;
}

std::shared_ptr<const isa::Application>
app(const std::string &name, std::uint32_t cus = 2, double scale = 0.2)
{
    workloads::WorkloadParams p;
    p.numCus = cus;
    p.scale = scale;
    return std::make_shared<const isa::Application>(
        workloads::makeWorkload(name, p));
}

/** Fresh unique path under gtest's per-run temp directory. */
std::string
tempTracePath(const std::string &stem)
{
    // The pid keeps concurrent test processes (ctest -j) from
    // colliding on the same temp file names.
    static int counter = 0;
    return ::testing::TempDir() + "pcstall_" + stem + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(counter++) + ".pctrace";
}

core::PcstallController
makePcstall(const sim::RunConfig &cfg)
{
    return core::PcstallController(
        core::PcstallConfig::forEpoch(cfg.epochLen,
                                      cfg.gpu.waveSlotsPerCu),
        cfg.gpu.numCus);
}

struct Captured
{
    sim::RunResult live;
    std::string path;
};

/** Run @p controller live while streaming the trace to a temp file. */
Captured
capture(const sim::RunConfig &cfg, const std::string &workload,
        dvfs::DvfsController &controller,
        const trace::HierarchicalMeta &hier = {},
        trace::TraceCapture::SnapshotProvider provider = nullptr)
{
    sim::ExperimentDriver driver(cfg);
    const auto a = app(workload, cfg.gpu.numCus);
    Captured out;
    out.path = tempTracePath(workload);
    trace::TraceWriter writer(
        out.path, trace::makeTraceMeta(cfg, driver.table(), workload,
                                       controller, hier));
    EXPECT_TRUE(writer.ok());
    trace::TraceCapture cap(writer);
    if (provider)
        cap.setSnapshotProvider(std::move(provider));
    out.live = driver.run(a, controller, &cap);
    EXPECT_TRUE(cap.finished());
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Wire-format round trips.
// ---------------------------------------------------------------------

TEST(TraceFormat, CaptureRoundTripsThroughFile)
{
    const auto cfg = testConfig();
    models::ReactiveController stall(models::EstimationKind::Stall);
    const Captured cap = capture(cfg, "comd", stall);
    ASSERT_TRUE(cap.live.completed);

    const trace::TraceReadResult read =
        trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;
    const trace::TraceData &data = *read.trace;

    EXPECT_EQ(data.meta.workload, "comd");
    EXPECT_EQ(data.meta.controller, stall.name());
    EXPECT_EQ(data.meta.numCus, cfg.gpu.numCus);
    EXPECT_EQ(data.meta.epochLen, cfg.epochLen);
    EXPECT_EQ(data.meta.nominalFreq, cfg.nominalFreq);
    EXPECT_FALSE(data.meta.vfStates.empty());
    EXPECT_FALSE(data.frames.empty());
    EXPECT_EQ(data.trailer.frameCount, data.frames.size());
    EXPECT_TRUE(data.trailer.completed);
    EXPECT_EQ(data.trailer.totalCommitted, cap.live.instructions);
    EXPECT_EQ(data.trailer.lastCommitTick, cap.live.execTime);

    // Frames are in time order with per-domain decisions (except the
    // final application-finished frame).
    Tick prev_end = 0;
    for (const trace::EpochFrame &f : data.frames) {
        EXPECT_LE(prev_end, f.end);
        prev_end = f.end;
        if (!f.done) {
            EXPECT_EQ(f.decisions.size(), data.meta.numDomains());
        }
        EXPECT_EQ(f.record.cus.size(), cfg.gpu.numCus);
    }
    std::remove(cap.path.c_str());
}

TEST(TraceFormat, SweepWaveListMayExceedSlotCapacity)
{
    // Sweep sensitivities are keyed on (cu, slot, startPcAddr), so
    // wave turnover inside one epoch can legitimately produce more
    // entries than there are wave slots; the decoder must not reject
    // such frames as corrupt (it used to cap at cus x slots).
    const auto cfg = testConfig();
    models::ReactiveController stall(models::EstimationKind::Stall);
    const std::string path = tempTracePath("sweepwaves");
    const trace::TraceMeta meta = trace::makeTraceMeta(
        cfg, power::VfTable::paperTable(), "comd", stall);
    trace::TraceWriter writer(path, meta);
    ASSERT_TRUE(writer.ok());

    trace::EpochFrame f;
    f.start = 0;
    f.end = cfg.epochLen;
    f.accountedEnd = cfg.epochLen;
    f.record.cus.resize(meta.numCus);
    f.decisions.resize(meta.numDomains());
    f.hasSweep = true;
    f.sweep.domainInstr.assign(
        meta.numDomains(),
        std::vector<double>(meta.vfStates.size(), 1.0));
    const std::size_t capacity =
        std::size_t{meta.numCus} * meta.waveSlotsPerCu;
    for (std::size_t i = 0; i < capacity + 7; ++i) {
        dvfs::AccurateEstimates::WaveSens w;
        w.cu = static_cast<std::uint32_t>(i % meta.numCus);
        w.slot = 0;
        w.startPcAddr = 16 * i;
        f.sweep.waves.push_back(w);
    }
    writer.writeFrame(f);
    trace::TraceTrailer trailer;
    trailer.frameCount = 1;
    trailer.completed = true;
    writer.finish(trailer);

    const trace::TraceReadResult read = trace::readTraceFile(path);
    ASSERT_TRUE(read.ok()) << read.error;
    ASSERT_EQ(read.trace->frames.size(), 1u);
    EXPECT_EQ(read.trace->frames[0].sweep.waves.size(), capacity + 7);
    std::remove(path.c_str());
}

TEST(TraceFormat, RunConfigImageSurvivesRoundTrip)
{
    auto cfg = testConfig();
    cfg.faults.telemetry.enabled = true;
    cfg.faults.telemetry.sigma = 0.01;
    cfg.faults.seed = 1234567;
    cfg.watchdogFallback = true;
    models::ReactiveController stall(models::EstimationKind::Stall);
    const Captured cap = capture(cfg, "hacc", stall);

    const auto read = trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;

    const sim::RunConfig restored =
        trace::runConfigFromMeta(read.trace->meta);
    EXPECT_EQ(restored.gpu.numCus, cfg.gpu.numCus);
    EXPECT_EQ(restored.epochLen, cfg.epochLen);
    EXPECT_EQ(restored.maxSimTime, cfg.maxSimTime);
    EXPECT_EQ(restored.faults.seed, cfg.faults.seed);
    EXPECT_TRUE(restored.faults.telemetry.enabled);
    EXPECT_DOUBLE_EQ(restored.faults.telemetry.sigma,
                     cfg.faults.telemetry.sigma);
    EXPECT_EQ(restored.watchdogFallback, cfg.watchdogFallback);

    const power::VfTable table =
        trace::vfTableFromMeta(read.trace->meta);
    const power::VfTable live_table =
        sim::ExperimentDriver(cfg).table();
    ASSERT_EQ(table.numStates(), live_table.numStates());
    for (std::size_t s = 0; s < table.numStates(); ++s) {
        EXPECT_EQ(table.state(s).freq, live_table.state(s).freq);
        EXPECT_DOUBLE_EQ(table.state(s).voltage,
                         live_table.state(s).voltage);
    }
    std::remove(cap.path.c_str());
}

// ---------------------------------------------------------------------
// Strict validation: truncated / corrupt / garbage files.
// ---------------------------------------------------------------------

class TraceValidation : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto cfg = testConfig();
        models::ReactiveController stall(
            models::EstimationKind::Stall);
        path = capture(cfg, "comd", stall).path;
        std::ifstream is(path, std::ios::binary);
        ASSERT_TRUE(is);
        std::ostringstream buf;
        buf << is.rdbuf();
        bytes = buf.str();
        ASSERT_GT(bytes.size(), 128u);
    }

    void TearDown() override { std::remove(path.c_str()); }

    void rewrite(const std::string &contents)
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << contents;
    }

    std::string path;
    std::string bytes;
};

TEST_F(TraceValidation, TruncatedFileRejected)
{
    for (const std::size_t keep :
         {bytes.size() / 2, bytes.size() - 1, std::size_t{16},
          std::size_t{3}}) {
        rewrite(bytes.substr(0, keep));
        const auto read = trace::readTraceFile(path);
        EXPECT_FALSE(read.ok()) << "kept " << keep << " bytes";
        EXPECT_FALSE(read.error.empty());
    }
}

TEST_F(TraceValidation, TruncatedFileKeepsItsDiagnostic)
{
    // The sized read hands a truncated file to the same strict decoder:
    // its one-line diagnostic is unchanged.
    rewrite(bytes.substr(0, bytes.size() - 1));
    EXPECT_EQ(trace::readTraceFile(path).error,
              "truncated trace section (tag 4)");
    rewrite(bytes.substr(0, 3));
    EXPECT_EQ(trace::readTraceFile(path).error,
              "'" + path + "' is not an epoch trace file");
}

namespace
{

/** Trace-read hook that halves the file after readTraceFile sized it. */
void
shrinkToHalf(const std::string &path)
{
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) / 2);
}

} // namespace

TEST_F(TraceValidation, FileShrunkDuringReadRejected)
{
    trace::setTraceReadHook(shrinkToHalf);
    const auto read = trace::readTraceFile(path);
    trace::setTraceReadHook(nullptr);
    EXPECT_FALSE(read.ok());
    EXPECT_EQ(read.error, "truncated trace file (read " +
                              std::to_string(bytes.size() / 2) + " of " +
                              std::to_string(bytes.size()) + " bytes)");
}

TEST_F(TraceValidation, FlippedByteRejected)
{
    // Flip one byte at several positions: structural validation or the
    // whole-file checksum must catch every single one.
    for (const std::size_t at :
         {std::size_t{10}, bytes.size() / 4, bytes.size() / 2,
          bytes.size() - 20}) {
        std::string corrupt = bytes;
        corrupt[at] = static_cast<char>(corrupt[at] ^ 0x5a);
        rewrite(corrupt);
        const auto read = trace::readTraceFile(path);
        EXPECT_FALSE(read.ok()) << "flipped byte " << at;
    }
}

TEST_F(TraceValidation, WrongMagicAndVersionRejected)
{
    std::string wrong = bytes;
    wrong[0] = 'X';
    rewrite(wrong);
    EXPECT_FALSE(trace::readTraceFile(path).ok());

    wrong = bytes;
    wrong[4] = static_cast<char>(0xff); // version little-endian lo
    rewrite(wrong);
    EXPECT_FALSE(trace::readTraceFile(path).ok());
}

TEST_F(TraceValidation, TrailingGarbageRejected)
{
    rewrite(bytes + "extra");
    EXPECT_FALSE(trace::readTraceFile(path).ok());
}

TEST(TraceFormat, MissingFileRejected)
{
    const auto read =
        trace::readTraceFile(::testing::TempDir() + "no_such.pctrace");
    EXPECT_FALSE(read.ok());
    EXPECT_FALSE(read.error.empty());
}

TEST(TraceFormat, DirectoryRejected)
{
    // A directory opens but has no size to read: rejected with the
    // not-a-trace diagnostic, not an allocation of its seek offset.
    const std::string dir = ::testing::TempDir();
    EXPECT_EQ(trace::readTraceFile(dir).error,
              "'" + dir + "' is not an epoch trace file");
}

// ---------------------------------------------------------------------
// PC-table snapshot / restore.
// ---------------------------------------------------------------------

TEST(PcSnapshot, RoundTripsAcrossQuantizationBoundaries)
{
    predict::PcTableConfig cfg;
    std::vector<predict::PcSensitivityTable> tables;
    tables.emplace_back(cfg);
    tables.emplace_back(cfg);

    // Exercise the quantization grid edges: zero, one step, mid-range,
    // the max representable value, and values clamped from above.
    const double step = cfg.maxSensitivity / 255.0;
    tables[0].update(0x00, 0.0, 0.0);
    tables[0].update(0x10, step, cfg.maxLevel / 255.0);
    tables[0].update(0x20, cfg.maxSensitivity / 2.0, 17.0);
    tables[0].update(0x30, cfg.maxSensitivity, cfg.maxLevel);
    tables[0].update(0x40, cfg.maxSensitivity * 3.0,
                     cfg.maxLevel * 2.0);
    tables[1].update(0x50, 1.25, 3.5);

    const trace::PcTableSnapshot snap =
        trace::snapshotPcTables(tables);
    ASSERT_EQ(snap.tables.size(), 2u);

    // Encode -> decode preserves the image exactly.
    trace::PcTableSnapshot decoded;
    const std::string err =
        trace::decodePcSnapshot(trace::encodePcSnapshot(snap),
                                decoded);
    ASSERT_TRUE(err.empty()) << err;

    // Restore into identically-configured fresh tables: the stored
    // values are already on the quantization grid, so re-quantizing
    // them must be the identity.
    std::vector<predict::PcSensitivityTable> fresh;
    fresh.emplace_back(cfg);
    fresh.emplace_back(cfg);
    const std::string restore_err =
        trace::restorePcTables(decoded, fresh);
    ASSERT_TRUE(restore_err.empty()) << restore_err;

    for (std::size_t t = 0; t < tables.size(); ++t) {
        const auto want = tables[t].exportEntries();
        const auto got = fresh[t].exportEntries();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].valid, got[i].valid);
            EXPECT_DOUBLE_EQ(want[i].sensitivity,
                             got[i].sensitivity);
            EXPECT_DOUBLE_EQ(want[i].level, got[i].level);
        }
    }
}

TEST(PcSnapshot, GeometryMismatchRefusesRestore)
{
    predict::PcTableConfig cfg;
    std::vector<predict::PcSensitivityTable> one;
    one.emplace_back(cfg);
    one[0].update(0x10, 2.0, 4.0);
    const auto snap = trace::snapshotPcTables(one);

    // Wrong instance count.
    std::vector<predict::PcSensitivityTable> two;
    two.emplace_back(cfg);
    two.emplace_back(cfg);
    EXPECT_FALSE(trace::restorePcTables(snap, two).empty());

    // Wrong quantization parameters.
    predict::PcTableConfig other = cfg;
    other.maxSensitivity = cfg.maxSensitivity * 2.0;
    std::vector<predict::PcSensitivityTable> mis;
    mis.emplace_back(other);
    EXPECT_FALSE(trace::restorePcTables(snap, mis).empty());
}

TEST(PcSnapshot, StandaloneFileRoundTripsAndRejectsCorruption)
{
    predict::PcTableConfig cfg;
    std::vector<predict::PcSensitivityTable> tables;
    tables.emplace_back(cfg);
    tables[0].update(0x80, 5.0, 9.0);
    const auto snap = trace::snapshotPcTables(tables);

    const std::string path =
        ::testing::TempDir() + "pcstall_snapshot_test.pcsnap";
    ASSERT_TRUE(trace::writePcSnapshotFile(path, snap));

    const auto read = trace::readPcSnapshotFile(path);
    ASSERT_TRUE(read.ok()) << read.error;
    EXPECT_EQ(read.snapshot->tables.size(), 1u);

    // Corrupt one byte: checksum must reject it.
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    is.close();
    std::string bytes = buf.str();
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    os.close();
    EXPECT_FALSE(trace::readPcSnapshotFile(path).ok());
    std::remove(path.c_str());
}

TEST(PcSnapshot, EmbeddedInTraceAndWarmStartsController)
{
    const auto cfg = testConfig();
    auto pc = makePcstall(cfg);
    const Captured cap =
        capture(cfg, "comd", pc, {}, [&pc] {
            return trace::snapshotPcTables(pc.pcTables());
        });

    const auto read = trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;
    ASSERT_FALSE(read.trace->pcSnapshot.empty());

    auto fresh = makePcstall(cfg);
    const std::string err =
        trace::restorePcTables(read.trace->pcSnapshot,
                               fresh.pcTables());
    EXPECT_TRUE(err.empty()) << err;

    // The warm-started tables match the trained ones entry for entry.
    for (std::size_t t = 0; t < pc.pcTables().size(); ++t) {
        const auto want = pc.pcTables()[t].exportEntries();
        const auto got = fresh.pcTables()[t].exportEntries();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].valid, got[i].valid);
            EXPECT_DOUBLE_EQ(want[i].sensitivity,
                             got[i].sensitivity);
        }
    }
    std::remove(cap.path.c_str());
}

// ---------------------------------------------------------------------
// Capture-vs-replay determinism (the subsystem's headline property).
// ---------------------------------------------------------------------

const char *const kGridWorkloads[] = {"comd", "hacc", "xsbench"};
const char *const kGridKinds[] = {"STALL", "PCSTALL", "PCSTALL+CAP"};

/**
 * workload x controller-kind grid per the acceptance criteria. The
 * parameter is a pair of indices into the tables above, not the
 * strings: gtest lists a parameter beside the test name, and a
 * const char * parameter prints as its load address, which would make
 * the listed names differ from one build to the next.
 */
class ReplayDeterminism
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(ReplayDeterminism, ReplayReproducesLiveRunExactly)
{
    const std::string workload = kGridWorkloads[std::get<0>(GetParam())];
    const std::string kind = kGridKinds[std::get<1>(GetParam())];
    const auto cfg = testConfig();

    // Build the live controller (and its replay twin, cold).
    struct Built
    {
        std::unique_ptr<core::PcstallController> inner;
        std::unique_ptr<dvfs::DvfsController> controller;
        trace::HierarchicalMeta hier;
        dvfs::DvfsController &use()
        {
            return controller ? *controller : *inner;
        }
    };
    auto build = [&] {
        Built b;
        if (kind == "STALL") {
            b.controller =
                std::make_unique<models::ReactiveController>(
                    models::EstimationKind::Stall);
            return b;
        }
        b.inner = std::make_unique<core::PcstallController>(
            makePcstall(cfg));
        if (kind == "PCSTALL")
            return b;
        // PCSTALL under the hierarchical power cap.
        dvfs::HierarchicalConfig hcfg;
        hcfg.powerCap = 40.0;
        hcfg.reviewEpochs = 10;
        b.hier.enabled = true;
        b.hier.powerCap = hcfg.powerCap;
        b.hier.reviewEpochs = hcfg.reviewEpochs;
        b.hier.widenBelow = hcfg.widenBelow;
        b.controller =
            std::make_unique<dvfs::HierarchicalPowerManager>(
                *b.inner, hcfg);
        return b;
    };

    Built live = build();
    const Captured cap = capture(cfg, workload, live.use(), live.hier);

    const auto read = trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;

    Built twin = build();
    trace::ReplayDriver replay(*read.trace);
    const trace::ReplayOutcome outcome = replay.run(twin.use());

    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_TRUE(outcome.deterministic())
        << outcome.decisionMismatches << " mismatches; first: "
        << outcome.firstMismatch;

    // Metric reproduction is bit-for-bit, not approximate.
    EXPECT_EQ(outcome.result.execTime, cap.live.execTime);
    EXPECT_EQ(outcome.result.instructions, cap.live.instructions);
    EXPECT_DOUBLE_EQ(outcome.result.energy, cap.live.energy);
    EXPECT_DOUBLE_EQ(outcome.result.ed2p(), cap.live.ed2p());
    EXPECT_EQ(outcome.result.completed, cap.live.completed);
    EXPECT_EQ(outcome.result.transitions, cap.live.transitions);
    std::remove(cap.path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReplayDeterminism,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3)),
    [](const auto &info) {
        std::string n =
            std::string(kGridWorkloads[std::get<0>(info.param)]) + "_" +
            kGridKinds[std::get<1>(info.param)];
        for (char &c : n)
            if (c == '+')
                c = 'x';
        return n;
    });

TEST(Replay, FaultInjectedRunReplaysDeterministically)
{
    auto cfg = testConfig();
    cfg.faults.telemetry.enabled = true;
    cfg.faults.telemetry.sigma = 0.02;
    cfg.faults.dvfs.enabled = true;
    cfg.faults.dvfs.transitionFailProb = 0.05;
    cfg.faults.seed = 99;
    auto pc = makePcstall(cfg);
    const Captured cap = capture(cfg, "comd", pc);

    const auto read = trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;

    auto fresh = makePcstall(cfg);
    trace::ReplayDriver replay(*read.trace);
    const auto outcome = replay.run(fresh);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_TRUE(outcome.deterministic()) << outcome.firstMismatch;
    EXPECT_EQ(outcome.result.execTime, cap.live.execTime);
    EXPECT_DOUBLE_EQ(outcome.result.energy, cap.live.energy);
    std::remove(cap.path.c_str());
}

TEST(Replay, CrossControllerReplayAnswersWhatIf)
{
    // Capture under STALL, replay PCSTALL on the same epochs: not a
    // verification run (different policy), but it must complete and
    // produce sane metrics.
    const auto cfg = testConfig();
    models::ReactiveController stall(models::EstimationKind::Stall);
    const Captured cap = capture(cfg, "hacc", stall);

    const auto read = trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;

    auto pc = makePcstall(cfg);
    trace::ReplayDriver replay(*read.trace);
    trace::ReplayOptions opts;
    opts.verifyDecisions = false;
    const auto outcome = replay.run(pc, opts);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_GT(outcome.result.instructions, 0u);
    EXPECT_GT(outcome.result.energy, 0.0);
    std::remove(cap.path.c_str());
}

TEST(Replay, SweepControllerOnSweeplessTraceFailsCleanly)
{
    const auto cfg = testConfig();
    models::ReactiveController stall(models::EstimationKind::Stall);
    const Captured cap = capture(cfg, "comd", stall);

    const auto read = trace::readTraceFile(cap.path);
    ASSERT_TRUE(read.ok()) << read.error;

    oracle::OracleController oracle_c; // needs Upcoming sweeps
    trace::ReplayDriver replay(*read.trace);
    const auto outcome = replay.run(oracle_c);
    EXPECT_FALSE(outcome.ok());
    EXPECT_FALSE(outcome.error.empty());
    std::remove(cap.path.c_str());
}

// ---------------------------------------------------------------------
// CSV export hygiene (schema comment + separator escaping).
// ---------------------------------------------------------------------

TEST(TraceCsv, RunTraceCsvCarriesSchemaComment)
{
    auto cfg = testConfig();
    cfg.collectTrace = true;
    sim::ExperimentDriver driver(cfg);
    const auto a = app("comd");
    models::ReactiveController stall(models::EstimationKind::Stall);
    const sim::RunResult r = driver.run(a, stall);
    ASSERT_FALSE(r.trace.empty());

    std::ostringstream os;
    sim::writeRunTraceCsv(os, r, driver.table());
    std::istringstream is(os.str());
    std::string first, second;
    std::getline(is, first);
    std::getline(is, second);
    EXPECT_EQ(first, "# pcstall-run-trace-csv v" +
                         std::to_string(sim::traceCsvSchemaVersion));
    EXPECT_EQ(second, "epoch_us,domain,state,freq_ghz,committed");
}

TEST(TraceCsv, EscapeQuotesSeparatorsAndQuotes)
{
    EXPECT_EQ(sim::csvEscape("plain"), "plain");
    EXPECT_EQ(sim::csvEscape("12.5"), "12.5");
    EXPECT_EQ(sim::csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(sim::csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(sim::csvEscape("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(sim::csvEscape(""), "");
}
