/**
 * @file
 * Tests of the crash-resumable sweep layer (docs/sweep_farm.md): the
 * atomic-file helpers, the content-addressed results store, the cell
 * payload codec, and the SweepRunner robustness behaviors - kill-and-
 * resume equivalence, shard-union-equals-full-enumeration, corruption
 * quarantine, the cell watchdog, and the transient-retry policy.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "store/atomic_file.hh"
#include "store/cell_codec.hh"
#include "store/result_store.hh"
#include "sweep_runner.hh"

using namespace pcstall;

namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("pcstall_store_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------- //
// atomic_file                                                       //
// ---------------------------------------------------------------- //

TEST(AtomicFile, WriteFileAtomicPublishesExactBytesAndNoTemp)
{
    const std::string dir = scratchDir("atomic");
    const std::string path = dir + "/artifact.bin";
    const std::string bytes("hello\0world\n\xff", 13);
    EXPECT_EQ(store::writeFileAtomic(path, bytes), "");
    EXPECT_EQ(readFile(path), bytes);
    // The staging temp must be gone and unregistered.
    EXPECT_FALSE(fs::exists(store::tempPathFor(path)));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);

    // Overwrite is atomic too: the new content fully replaces the old.
    EXPECT_EQ(store::writeFileAtomic(path, "v2"), "");
    EXPECT_EQ(readFile(path), "v2");
}

TEST(AtomicFile, WriteToUnwritableDirectoryFailsWithoutArtifact)
{
    const std::string path =
        "/nonexistent-root-dir/sub/never/artifact.json";
    const std::string err = store::writeFileAtomic(path, "data");
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);
}

TEST(AtomicFile, CommitTempFileRenamesStreamedBytes)
{
    const std::string dir = scratchDir("commit");
    const std::string path = dir + "/streamed.trace";
    const std::string temp = store::tempPathFor(path);
    {
        std::ofstream os(temp, std::ios::binary);
        store::registerTempFile(temp);
        os << "streamed-payload";
    }
    EXPECT_EQ(store::registeredTempFileCount(), 1u);
    EXPECT_EQ(store::commitTempFile(temp, path), "");
    EXPECT_EQ(readFile(path), "streamed-payload");
    EXPECT_FALSE(fs::exists(temp));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);
}

TEST(AtomicFile, CleanupRemovesRegisteredTemps)
{
    const std::string dir = scratchDir("cleanup");
    const std::string temp = dir + "/orphan.tmp.123";
    {
        std::ofstream os(temp);
        os << "half-written";
    }
    store::registerTempFile(temp);
    EXPECT_GE(store::registeredTempFileCount(), 1u);
    EXPECT_GE(store::cleanupTempFiles(), 1u);
    EXPECT_FALSE(fs::exists(temp));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);
}

// ---------------------------------------------------------------- //
// result_store                                                      //
// ---------------------------------------------------------------- //

store::CellKey
sampleKey(std::uint64_t run_index = 0)
{
    store::CellKey key;
    key.harness = "test_harness";
    key.workload = "comd";
    key.design = "PCSTALL";
    key.fingerprint = "4|0.25|1000|1|42";
    key.runIndex = run_index;
    return key;
}

TEST(ResultStore, KeyDigestIsStableAndCollisionResistant)
{
    const std::string a = store::keyDigest(sampleKey(0));
    EXPECT_EQ(a.size(), 32u);
    EXPECT_EQ(a, store::keyDigest(sampleKey(0)));
    EXPECT_NE(a, store::keyDigest(sampleKey(1)));
    store::CellKey other = sampleKey(0);
    other.design = "STALL";
    EXPECT_NE(a, store::keyDigest(other));
}

TEST(ResultStore, PutGetRoundTrip)
{
    store::ResultStore rs(scratchDir("roundtrip"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    EXPECT_EQ(rs.entryCount(), 0u);

    const std::string payload("\x01payload\x00with-nul", 18);
    EXPECT_EQ(rs.put(sampleKey(), payload), "");
    EXPECT_EQ(rs.entryCount(), 1u);

    const auto got = rs.get(sampleKey());
    ASSERT_EQ(got.status, store::ResultStore::GetStatus::Hit);
    EXPECT_EQ(got.payload, payload);

    EXPECT_EQ(rs.get(sampleKey(7)).status,
              store::ResultStore::GetStatus::Miss);
}

TEST(ResultStore, TruncatedEntryIsQuarantinedAndRecomputable)
{
    store::ResultStore rs(scratchDir("trunc"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.put(sampleKey(), "full payload bytes"), "");

    fs::resize_file(rs.entryPath(sampleKey()), 6);
    const auto got = rs.get(sampleKey());
    EXPECT_EQ(got.status, store::ResultStore::GetStatus::Corrupt);
    EXPECT_FALSE(got.error.empty());
    // Quarantined: entry gone from the store, preserved in .corrupt/.
    EXPECT_FALSE(fs::exists(rs.entryPath(sampleKey())));
    EXPECT_EQ(rs.quarantinedCount(), 1u);
    // The caller recomputes: next lookup is a clean Miss, and a fresh
    // put restores the entry.
    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Miss);
    EXPECT_EQ(rs.put(sampleKey(), "full payload bytes"), "");
    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Hit);
}

TEST(ResultStore, FlippedPayloadByteFailsChecksum)
{
    store::ResultStore rs(scratchDir("corrupt"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.put(sampleKey(), "checksummed payload"), "");

    const std::string path = rs.entryPath(sampleKey());
    std::string bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream(path, std::ios::binary).write(bytes.data(),
        static_cast<std::streamsize>(bytes.size()));

    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Corrupt);
    EXPECT_EQ(rs.quarantinedCount(), 1u);
}

TEST(ResultStore, DigestCollisionReadsAsMissNotWrongPayload)
{
    store::ResultStore rs(scratchDir("collide"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.put(sampleKey(), "payload of the real key"), "");
    // Simulate a digest collision: copy the valid entry to the path
    // another key would hash to. The stored key text must reject it.
    store::CellKey other = sampleKey();
    other.workload = "hacc";
    fs::copy_file(rs.entryPath(sampleKey()), rs.entryPath(other));
    EXPECT_EQ(rs.get(other).status,
              store::ResultStore::GetStatus::Miss);
}

TEST(ResultStore, UnusableRootIsRecoverable)
{
    // A regular file where a directory component must go defeats
    // create_directories even when running as root.
    const std::string dir = scratchDir("badroot");
    { std::ofstream(dir + "/blocker") << "not a directory"; }
    store::ResultStore rs(dir + "/blocker/store");
    EXPECT_FALSE(rs.ok());
    EXPECT_FALSE(rs.error().empty());
    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Miss);
    EXPECT_FALSE(rs.put(sampleKey(), "x").empty());
}

// ---------------------------------------------------------------- //
// cell_codec                                                        //
// ---------------------------------------------------------------- //

store::StoredCell
sampleCell()
{
    store::StoredCell cell;
    sim::RunResult &r = cell.run.result;
    r.controller = "PCSTALL";
    r.workload = "comd";
    r.completed = true;
    r.epochs = 321;
    r.execTime = 123456789;
    r.energy = 0.1 + 0.2; // deliberately non-representable exactly
    r.instructions = 987654321123ULL;
    r.predictionAccuracy = 0.87654321;
    r.transitions = 4242;
    r.transitionEnergy = 1e-7;
    r.freqTimeShare = {0.25, 0.5, 0.125, 0.125};
    r.finalTemperature = 341.15;
    r.faults.telemetryPerturbations = 3;
    r.faults.transitionExtraLatency = 777;
    r.faults.fallbackEpochs = 2;
    sim::EpochTraceEntry e;
    e.start = 1000;
    e.domainState = {0, 3, 2, 1};
    e.domainCommitted = {12.5, 0.0, 99.75, 3.25};
    e.faults.tableBitFlips = 1;
    e.faults.fallbackActive = true;
    r.trace.push_back(e);
    e.start = 2000;
    e.faults.fallbackActive = false;
    r.trace.push_back(e);
    cell.run.ok = true;

    obs::Registry reg;
    reg.counter("run.epochs").add(321);
    reg.gauge("run.final_temp_k").set(341.15);
    reg.histogram("run.exec_us").record(14.25);
    reg.histogram("run.exec_us").record(26.6);
    cell.metrics = reg.snapshot();
    return cell;
}

TEST(CellCodec, RoundTripIsExact)
{
    const store::StoredCell cell = sampleCell();
    const std::string payload = store::encodeStoredCell(cell);

    store::StoredCell out;
    std::string err;
    ASSERT_TRUE(store::decodeStoredCell(payload, out, err)) << err;
    EXPECT_TRUE(out.run.ok);
    const sim::RunResult &a = cell.run.result;
    const sim::RunResult &b = out.run.result;
    EXPECT_EQ(a.controller, b.controller);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.execTime, b.execTime);
    // Doubles travel as raw bits: bit-exact, not approximately equal.
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.transitionEnergy, b.transitionEnergy);
    EXPECT_EQ(a.freqTimeShare, b.freqTimeShare);
    EXPECT_EQ(a.finalTemperature, b.finalTemperature);
    EXPECT_EQ(a.faults.telemetryPerturbations,
              b.faults.telemetryPerturbations);
    EXPECT_EQ(a.faults.transitionExtraLatency,
              b.faults.transitionExtraLatency);
    EXPECT_EQ(a.faults.fallbackEpochs, b.faults.fallbackEpochs);
    ASSERT_EQ(b.trace.size(), 2u);
    EXPECT_EQ(a.trace[0].start, b.trace[0].start);
    EXPECT_EQ(a.trace[0].domainState, b.trace[0].domainState);
    EXPECT_EQ(a.trace[0].domainCommitted, b.trace[0].domainCommitted);
    EXPECT_EQ(a.trace[0].faults.tableBitFlips,
              b.trace[0].faults.tableBitFlips);
    EXPECT_EQ(a.trace[0].faults.fallbackActive,
              b.trace[0].faults.fallbackActive);
    EXPECT_EQ(a.trace[1].faults.fallbackActive,
              b.trace[1].faults.fallbackActive);
    // The metrics shard re-encodes to identical bytes (canonical
    // ordered maps), which is what byte-identical resume rests on.
    store::StoredCell again = out;
    EXPECT_EQ(store::encodeStoredCell(again), payload);
}

TEST(CellCodec, EveryTruncationFailsCleanly)
{
    const std::string payload =
        store::encodeStoredCell(sampleCell());
    for (std::size_t len = 0; len < payload.size(); ++len) {
        store::StoredCell out;
        std::string err;
        EXPECT_FALSE(store::decodeStoredCell(
            payload.substr(0, len), out, err))
            << "prefix of " << len << " bytes decoded";
        EXPECT_FALSE(err.empty());
    }
    // Trailing garbage is rejected too (strict framing).
    store::StoredCell out;
    std::string err;
    EXPECT_FALSE(store::decodeStoredCell(payload + "x", out, err));
}

TEST(CellCodec, TimingMetricsAreDroppedFromTheShard)
{
    store::StoredCell cell;
    cell.run.ok = true;
    obs::Registry reg;
    reg.counter("run.epochs").add(10);
    reg.counter("profile.oracle_ns", obs::MetricKind::Timing)
        .add(123456);
    cell.metrics = reg.snapshot();

    store::StoredCell out;
    std::string err;
    ASSERT_TRUE(store::decodeStoredCell(
        store::encodeStoredCell(cell), out, err)) << err;
    EXPECT_EQ(out.metrics.counters.count("run.epochs"), 1u);
    EXPECT_EQ(out.metrics.counters.count("profile.oracle_ns"), 0u);
}

// ---------------------------------------------------------------- //
// SweepRunner robustness                                            //
// ---------------------------------------------------------------- //

bench::BenchOptions
smallOptions(unsigned threads)
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.25;
    opts.threads = threads;
    return opts;
}

std::vector<bench::SweepCell>
smallGrid(bench::SweepRunner &runner)
{
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL", true));
    cells.push_back(runner.cell("comd", "PCSTALL"));
    cells.push_back(runner.cell("dgemm", "STALL"));
    cells.push_back(runner.cell("dgemm", "PCSTALL"));
    return cells;
}

void
expectSameResult(const bench::RunOutcome &a, const bench::RunOutcome &b,
                 const std::string &what)
{
    ASSERT_TRUE(a.ok) << what << ": " << a.error;
    ASSERT_TRUE(b.ok) << what << ": " << b.error;
    EXPECT_EQ(a.result.execTime, b.result.execTime) << what;
    EXPECT_EQ(a.result.energy, b.result.energy) << what;
    EXPECT_EQ(a.result.instructions, b.result.instructions) << what;
    EXPECT_EQ(a.result.predictionAccuracy,
              b.result.predictionAccuracy) << what;
    EXPECT_EQ(a.result.transitions, b.result.transitions) << what;
    EXPECT_EQ(a.result.freqTimeShare, b.result.freqTimeShare) << what;
}

TEST(SweepStore, ResumeFromStoreReproducesFreshRunExactly)
{
    // Reference: no store, everything computed live.
    bench::SweepRunner fresh(smallOptions(2));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("resume");
    bench::BenchOptions with_store = smallOptions(2);
    with_store.storeDir = dir;

    // First pass populates the store...
    {
        bench::SweepRunner writer(with_store);
        const auto out = writer.run(smallGrid(writer));
        ASSERT_NE(writer.store(), nullptr);
        EXPECT_GE(writer.store()->entryCount(), 5u); // 4 cells + base
        for (std::size_t i = 0; i < want.size(); ++i) {
            expectSameResult(want[i].run, out[i].run,
                             "first pass cell " +
                                 std::to_string(i));
        }
    }
    // ...second pass replays it, bit-exact (including the baseline).
    bench::SweepRunner reader(with_store);
    const auto out = reader.run(smallGrid(reader));
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "resumed cell " + std::to_string(i));
    }
    expectSameResult(want[0].baseline, out[0].baseline,
                     "resumed baseline");
}

TEST(SweepStore, ShardUnionEqualsFullEnumeration)
{
    bench::SweepRunner fresh(smallOptions(2));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("shards");
    // Two shard workers, each computing its half of the grid.
    for (unsigned shard = 0; shard < 2; ++shard) {
        bench::BenchOptions opts = smallOptions(2);
        opts.storeDir = dir;
        opts.shardIndex = shard;
        opts.shardCount = 2;
        bench::SweepRunner worker(opts);
        const auto out = worker.run(smallGrid(worker));
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (i % 2 == shard) {
                EXPECT_TRUE(out[i].run.ok) << out[i].run.error;
                EXPECT_FALSE(out[i].run.skipped);
            } else {
                EXPECT_TRUE(out[i].run.skipped);
                EXPECT_FALSE(out[i].run.ok);
            }
        }
    }
    // The unsharded merge pass over the same store reproduces the
    // full enumeration exactly.
    bench::BenchOptions merge_opts = smallOptions(2);
    merge_opts.storeDir = dir;
    bench::SweepRunner merge(merge_opts);
    const auto out = merge.run(smallGrid(merge));
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "merged cell " + std::to_string(i));
        EXPECT_FALSE(out[i].run.skipped);
    }
    expectSameResult(want[0].baseline, out[0].baseline,
                     "merged baseline");
}

TEST(SweepStore, KillMidSweepThenResumeMatchesFreshRun)
{
    bench::SweepRunner fresh(smallOptions(2));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("kill");
    bench::BenchOptions with_store = smallOptions(2);
    with_store.storeDir = dir;

    // Child: same sweep, but the store's test hook SIGKILLs the
    // process right after the second successful put - a mid-sweep
    // crash with the store half-populated.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("PCSTALL_TEST_CRASH_AFTER_PUTS", "2", 1);
        bench::SweepRunner victim(with_store);
        victim.run(smallGrid(victim));
        ::_exit(0); // not reached: the put hook kills us first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child should have been SIGKILLed mid-sweep";

    store::ResultStore peek(dir);
    EXPECT_EQ(peek.entryCount(), 2u) << "crash left a partial store";

    // Resume: only the missing cells are recomputed, and the merged
    // outcome matches the uninterrupted run exactly.
    bench::SweepRunner resumed(with_store);
    const auto out = resumed.run(smallGrid(resumed));
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "post-crash cell " + std::to_string(i));
    }
    expectSameResult(want[0].baseline, out[0].baseline,
                     "post-crash baseline");
}

TEST(SweepStore, CorruptStoreEntryIsQuarantinedAndRecomputed)
{
    bench::SweepRunner fresh(smallOptions(1));
    std::vector<bench::SweepCell> ref;
    ref.push_back(fresh.cell("comd", "STALL"));
    const auto want = fresh.run(std::move(ref));

    const std::string dir = scratchDir("sweepcorrupt");
    bench::BenchOptions with_store = smallOptions(1);
    with_store.storeDir = dir;
    {
        bench::SweepRunner writer(with_store);
        std::vector<bench::SweepCell> cells;
        cells.push_back(writer.cell("comd", "STALL"));
        writer.run(std::move(cells));
    }
    // Corrupt the one entry on disk.
    store::ResultStore peek(dir);
    ASSERT_EQ(peek.entryCount(), 1u);
    std::string entry;
    for (const auto &f : fs::directory_iterator(dir)) {
        if (f.path().extension() == ".pcres")
            entry = f.path().string();
    }
    ASSERT_FALSE(entry.empty());
    fs::resize_file(entry, fs::file_size(entry) / 2);

    bench::SweepRunner reader(with_store);
    std::vector<bench::SweepCell> cells;
    cells.push_back(reader.cell("comd", "STALL"));
    const auto out = reader.run(std::move(cells));
    expectSameResult(want[0].run, out[0].run, "recomputed cell");
    EXPECT_EQ(peek.quarantinedCount(), 1u);
    // The recompute re-published a valid entry.
    EXPECT_EQ(peek.entryCount(), 1u);
}

TEST(SweepStore, InspectCellsBypassTheStore)
{
    const std::string dir = scratchDir("bypass");
    bench::BenchOptions opts = smallOptions(1);
    opts.storeDir = dir;
    bench::SweepRunner runner(opts);
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().inspect = [](const dvfs::DvfsController &) {};
    const auto out = runner.run(std::move(cells));
    EXPECT_TRUE(out[0].run.ok) << out[0].run.error;
    // The inspected cell has side effects the store cannot replay, so
    // nothing was checkpointed for it.
    ASSERT_NE(runner.store(), nullptr);
    EXPECT_EQ(runner.store()->entryCount(), 0u);
}

TEST(SweepWatchdog, CellTimeoutCancelsAndIsNeverRetried)
{
    bench::BenchOptions opts = smallOptions(2);
    opts.cellTimeoutSec = 1e-4; // far below any real cell's wall time
    bench::SweepRunner runner(opts);
    std::atomic<int> factory_calls{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &rc) {
        ++factory_calls;
        return bench::makeController("STALL", rc);
    };
    const auto out = runner.run(std::move(cells));
    ASSERT_FALSE(out[0].run.ok);
    EXPECT_NE(out[0].run.error.find("cell wall-time budget"),
              std::string::npos)
        << out[0].run.error;
    // Timeouts are deterministic budget exhaustion: one attempt only.
    EXPECT_EQ(factory_calls.load(), 1);
}

TEST(SweepRetry, TransientFailureIsRetriedThenSucceeds)
{
    const std::uint64_t failures_before = bench::sweepFailureCount();
    bench::BenchOptions opts = smallOptions(1);
    opts.cellRetries = 2;
    bench::SweepRunner runner(opts);
    std::atomic<int> attempts{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &rc)
        -> std::unique_ptr<dvfs::DvfsController> {
        if (attempts.fetch_add(1) == 0)
            throw std::runtime_error("transient I/O hiccup");
        return bench::makeController("STALL", rc);
    };
    const auto out = runner.run(std::move(cells));
    EXPECT_TRUE(out[0].run.ok) << out[0].run.error;
    EXPECT_EQ(attempts.load(), 2);
    // A retried-then-recovered cell is not a sweep failure.
    EXPECT_EQ(bench::sweepFailureCount(), failures_before);
}

TEST(SweepRetry, DeterministicFatalErrorIsNotRetried)
{
    bench::BenchOptions opts = smallOptions(1);
    opts.cellRetries = 3;
    bench::SweepRunner runner(opts);
    std::atomic<int> attempts{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &)
        -> std::unique_ptr<dvfs::DvfsController> {
        ++attempts;
        fatal("deterministically broken cell");
    };
    const auto out = runner.run(std::move(cells));
    EXPECT_FALSE(out[0].run.ok);
    EXPECT_EQ(attempts.load(), 1)
        << "FatalError cells must not burn retries";
}

TEST(SweepRetry, TransientFailureExhaustsBoundedRetries)
{
    bench::BenchOptions opts = smallOptions(1);
    opts.cellRetries = 2;
    bench::SweepRunner runner(opts);
    std::atomic<int> attempts{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &)
        -> std::unique_ptr<dvfs::DvfsController> {
        ++attempts;
        throw std::runtime_error("always transient");
    };
    const auto out = runner.run(std::move(cells));
    EXPECT_FALSE(out[0].run.ok);
    EXPECT_EQ(attempts.load(), 3) << "1 attempt + 2 retries";
}

// ---------------------------------------------------------------- //
// CLI validation                                                    //
// ---------------------------------------------------------------- //

bench::BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    args.insert(args.begin(), "test_store");
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::BenchOptions::parse(static_cast<int>(argv.size()),
                                      argv.data());
}

TEST(FarmCli, ValidShardAndFarmFlagsParse)
{
    const auto opts = parseArgs({"--shard", "1/4", "--store", "/tmp/s",
                                 "--resume", "--cell-timeout", "2.5",
                                 "--cell-retries", "5"});
    EXPECT_EQ(opts.shardIndex, 1u);
    EXPECT_EQ(opts.shardCount, 4u);
    EXPECT_EQ(opts.storeDir, "/tmp/s");
    EXPECT_TRUE(opts.resume);
    EXPECT_DOUBLE_EQ(opts.cellTimeoutSec, 2.5);
    EXPECT_EQ(opts.cellRetries, 5u);
}

TEST(FarmCli, MalformedShardFallsBackToDefaults)
{
    // Index out of range.
    EXPECT_EQ(parseArgs({"--shard", "3/2"}).shardCount, 0u);
    // Not i/N shaped.
    EXPECT_EQ(parseArgs({"--shard", "banana"}).shardCount, 0u);
    EXPECT_EQ(parseArgs({"--shard", "1/2/3"}).shardCount, 0u);
    // Zero shards.
    EXPECT_EQ(parseArgs({"--shard", "0/0"}).shardCount, 0u);
}

TEST(FarmCli, NegativeTimeoutAndResumeWithoutStoreAreRecoverable)
{
    EXPECT_DOUBLE_EQ(
        parseArgs({"--cell-timeout", "-1"}).cellTimeoutSec, 0.0);
    // --resume without --store is diagnosed; the flag stays off.
    EXPECT_FALSE(parseArgs({"--resume"}).resume);
}

TEST(FarmCli, RetiredFlagsAreRejectedAsUnknown)
{
    for (const char *flag : {"--provenance-out", "--oracle-mode"}) {
        ::testing::internal::CaptureStderr();
        EXPECT_THROW(parseArgs({flag, "x"}), FatalError) << flag;
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(std::string("unknown option ") + flag),
                  std::string::npos)
            << err;
    }
}

} // namespace
