/**
 * @file
 * Tests of the decision-provenance subsystem (src/obs/provenance,
 * docs/provenance.md): the golden JSON document of a small synthetic
 * run, identity of the provenance re-derived from sweep traces across
 * --threads values, live-capture vs trace-replay record identity
 * (including the hierarchical power cap), the oracle-regret sign
 * invariant, and preservation of the regret rollup across a
 * store-backed resume.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pcstall_controller.hh"
#include "dvfs/hierarchical.hh"
#include "models/reactive_controller.hh"
#include "obs/provenance.hh"
#include "sim/experiment.hh"
#include "sweep_runner.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"
#include "zoo/registry.hh"

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
tempPath(const std::string &stem, const std::string &ext)
{
    static int counter = 0;
    return ::testing::TempDir() + "pcstall_" + stem + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(counter++) + ext;
}

/** Fresh unique directory under gtest's per-run temp directory. */
std::string
tempDir(const std::string &stem)
{
    const std::string dir = tempPath(stem, "");
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

/**
 * Run PCSTALL (from the registry) on a few epochs of @p workload with
 * a provenance sink attached, returning the populated log. Capping
 * maxSimTime at @p epochs leaves the final decision unrealized, so
 * the dangling-record path is part of every consumer test.
 */
obs::ProvenanceLog
smallAuditedRun(const std::string &workload, std::uint64_t epochs = 3)
{
    auto cfg = testConfig();
    cfg.maxSimTime = static_cast<Tick>(epochs) * cfg.epochLen;
    const auto made =
        dvfs::ControllerRegistry::instance().make("PCSTALL", cfg);
    EXPECT_TRUE(made.ok()) << made.error;
    obs::ProvenanceLog log;
    sim::ExperimentDriver driver(cfg);
    driver.setProvenance(&log);
    driver.run(app(workload), *made.controller);
    return log;
}

} // namespace

// ---------------------------------------------------------------------
// Golden JSON: the pcstall-provenance-v1 document of a pinned
// synthetic run must never drift silently. Regenerate (and call out
// the schema change in docs/provenance.md) with PCSTALL_REGEN_GOLDEN=1.
// ---------------------------------------------------------------------

TEST(Provenance, GoldenJsonIsStable)
{
    const obs::ProvenanceLog log = smallAuditedRun("comd");
    ASSERT_FALSE(log.records.empty());
    const std::string got = obs::provenanceJson(log);

    const std::string path = std::string(PCSTALL_TEST_DATA_DIR) +
        "/provenance_golden.json";
    if (std::getenv("PCSTALL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << path << " missing; regenerate with PCSTALL_REGEN_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "provenance JSON drifted; if intentional, regenerate with "
           "PCSTALL_REGEN_GOLDEN=1 and update docs/provenance.md";
}

// ---------------------------------------------------------------------
// Thread-count independence: the traces a --trace-out sweep captures
// at --threads 1 and 4 re-derive identical provenance. (The raw trace
// bytes differ: each trailer records its capture wall time.)
// ---------------------------------------------------------------------

TEST(Provenance, ReplayedProvenanceIsIdenticalAcrossThreadCounts)
{
    const std::vector<std::string> workloads = {"comd", "hacc",
                                                "xsbench"};
    const std::vector<std::string> designs = {"STALL", "PCSTALL"};

    // Distinct directories per thread count: output paths are claimed
    // process-wide, so reusing one pattern would add -rN suffixes to
    // the second sweep's files.
    auto sweep = [&](unsigned threads, const std::string &dir) {
        bench::BenchOptions opts;
        opts.cus = 4;
        opts.scale = 0.25;
        opts.threads = threads;
        bench::SweepRunner runner(opts);
        std::vector<bench::SweepCell> cells;
        for (const std::string &w : workloads) {
            for (const std::string &d : designs) {
                bench::SweepCell c = runner.cell(w, d);
                c.opts.traceOut = dir + "/{w}-{c}.pctrace";
                cells.push_back(c);
            }
        }
        const auto outcomes = runner.run(cells);
        for (const auto &o : outcomes)
            EXPECT_TRUE(o.run.ok) << o.run.error;
    };
    // Replay one captured trace through a cold twin of its controller
    // with a provenance sink armed.
    auto derive = [](const std::string &path) {
        obs::ProvenanceLog log;
        const auto read = trace::readTraceFile(path);
        EXPECT_TRUE(read.ok()) << read.error;
        if (!read.ok())
            return log;
        const auto made = dvfs::ControllerRegistry::instance().make(
            read.trace->meta.controller,
            trace::runConfigFromMeta(read.trace->meta));
        EXPECT_TRUE(made.ok()) << made.error;
        if (!made.ok())
            return log;
        trace::ReplayDriver replay(*read.trace);
        trace::ReplayOptions ropts;
        ropts.auditRegret = true;
        ropts.provenance = &log;
        const trace::ReplayOutcome outcome =
            replay.run(*made.controller, ropts);
        EXPECT_TRUE(outcome.ok()) << outcome.error;
        EXPECT_TRUE(outcome.deterministic()) << outcome.firstMismatch;
        return log;
    };

    const std::string dir1 = tempDir("prov_t1");
    const std::string dir4 = tempDir("prov_t4");
    sweep(1, dir1);
    sweep(4, dir4);

    for (const std::string &w : workloads) {
        for (const std::string &d : designs) {
            const std::string name = "/" + w + "-" + d + ".pctrace";
            SCOPED_TRACE(name);
            const obs::ProvenanceLog a = derive(dir1 + name);
            const obs::ProvenanceLog b = derive(dir4 + name);
            EXPECT_FALSE(a.records.empty());
            EXPECT_TRUE(a == b)
                << "provenance differs between --threads 1 and 4";
            std::remove((dir1 + name).c_str());
            std::remove((dir4 + name).c_str());
        }
    }
    ::rmdir(dir1.c_str());
    ::rmdir(dir4.c_str());
}

// ---------------------------------------------------------------------
// Capture-then-replay: a trace replay re-derives the live run's
// provenance exactly, including under the hierarchical cap (which is
// not registry-constructible and exercises the wrapper path
// `trace_inspect explain` rebuilds from trace meta).
// ---------------------------------------------------------------------

class ProvenanceReplay : public ::testing::TestWithParam<const char *>
{};

TEST_P(ProvenanceReplay, ReplayRederivesLiveProvenanceExactly)
{
    const std::string kind = GetParam();
    const auto cfg = testConfig();

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
            core::PcstallConfig::forEpoch(cfg.epochLen,
                                          cfg.gpu.waveSlotsPerCu),
            cfg.gpu.numCus);
        if (kind == "PCSTALL")
            return b;
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

    // Live run: capture the trace and the provenance together.
    Built live = build();
    obs::ProvenanceLog live_log;
    const std::string trace_path = tempPath("prov_replay", ".pctrace");
    sim::ExperimentDriver driver(cfg);
    driver.setProvenance(&live_log);
    trace::TraceWriter writer(
        trace_path, trace::makeTraceMeta(cfg, driver.table(), "comd",
                                         live.use(), live.hier));
    ASSERT_TRUE(writer.ok());
    trace::TraceCapture capture(writer);
    const sim::RunResult result =
        driver.run(app("comd"), live.use(), &capture);
    ASSERT_TRUE(capture.finished());
    ASSERT_FALSE(live_log.records.empty());

    // Replay twin: same controller built cold, provenance re-derived.
    const auto read = trace::readTraceFile(trace_path);
    ASSERT_TRUE(read.ok()) << read.error;
    Built twin = build();
    obs::ProvenanceLog replay_log;
    trace::ReplayDriver replay(*read.trace);
    trace::ReplayOptions ropts;
    ropts.auditRegret = true;
    ropts.provenance = &replay_log;
    const trace::ReplayOutcome outcome = replay.run(twin.use(), ropts);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_TRUE(outcome.deterministic()) << outcome.firstMismatch;

    EXPECT_TRUE(replay_log == live_log);
    EXPECT_EQ(replay_log.regret.count, result.regret.count);
    std::remove(trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Grid, ProvenanceReplay,
                         ::testing::Values("STALL", "PCSTALL",
                                           "PCSTALL+CAP"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '+')
                                     c = 'x';
                             return n;
                         });

// ---------------------------------------------------------------------
// Regret semantics: hindsight regret vs the oracle is non-negative
// for every realized record, and the rollup counts exactly the
// realized records.
// ---------------------------------------------------------------------

TEST(Provenance, OracleRegretIsNonNegativeAndRollupMatches)
{
    const obs::ProvenanceLog log = smallAuditedRun("xsbench", 6);
    ASSERT_FALSE(log.records.empty());
    std::uint64_t realized = 0;
    for (const obs::DecisionRecord &rec : log.records) {
        if (!rec.realized) {
            // Only a run-final dangling decision can be unrealized
            // (its epoch never completed).
            EXPECT_EQ(&rec, &log.records.back());
            EXPECT_TRUE(rec.stateScores.empty());
            continue;
        }
        ++realized;
        ASSERT_EQ(rec.stateScores.size(), log.meta.numStates);
        EXPECT_GE(rec.oracleRegret(), 0.0);
        EXPECT_GE(rec.oracleRegretRel(), 0.0);
        EXPECT_GE(rec.chosenScoreSum(), rec.bestScoreSum());
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            EXPECT_LT(dom.chosenState, log.meta.numStates);
            EXPECT_LT(dom.appliedState, log.meta.numStates);
            EXPECT_LT(dom.bestState, log.meta.numStates);
        }
    }
    EXPECT_GT(realized, 0u);
    EXPECT_EQ(log.regret.count, realized);

    // The wall-capped golden run pins the dangling-record case: its
    // final decision's epoch never completes.
    const obs::ProvenanceLog capped = smallAuditedRun("comd");
    ASSERT_FALSE(capped.records.empty());
    EXPECT_FALSE(capped.records.back().realized);
}

// ---------------------------------------------------------------------
// Store resume: a regret rollup checkpointed with a cell result is
// reproduced field-for-field when a second sweep resumes from the
// store instead of recomputing.
// ---------------------------------------------------------------------

TEST(Provenance, RegretSummarySurvivesStoreResume)
{
    const std::string store = tempDir("prov_store");
    auto sweep = [&] {
        bench::BenchOptions opts;
        opts.cus = 4;
        opts.scale = 0.25;
        opts.threads = 2;
        opts.storeDir = store;
        bench::SweepRunner runner(opts);
        std::vector<bench::SweepCell> cells;
        for (const char *w : {"comd", "dgemm"}) {
            bench::SweepCell c = runner.cell(w, "PCSTALL");
            c.opts.auditRegret = true;
            cells.push_back(c);
        }
        return runner.run(cells);
    };

    const auto first = sweep();
    const auto resumed = sweep();
    ASSERT_EQ(first.size(), resumed.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(first[i].run.ok) << first[i].run.error;
        ASSERT_TRUE(resumed[i].run.ok) << resumed[i].run.error;
        const obs::RegretSummary &a = first[i].run.result.regret;
        const obs::RegretSummary &b = resumed[i].run.result.regret;
        EXPECT_GT(a.count, 0u);
        EXPECT_TRUE(a == b);
    }
}
