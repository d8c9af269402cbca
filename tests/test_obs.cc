/**
 * @file
 * Tests of the observability subsystem: counter / gauge / histogram /
 * timer semantics, the disabled-path no-op guarantee, run-context
 * sharding and submission-order merging, the JSON / Prometheus /
 * Chrome-trace writers (with a golden-file check on a synthetic
 * 3-epoch run), the headline determinism property - a sweep's merged
 * metrics and timeline are byte-identical for every --threads value -
 * and the log-level / rate-limited-warn controls.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/context.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/timeline_recorder.hh"
#include "sweep_runner.hh"

using namespace pcstall;

namespace
{

/** Every test starts and ends with pristine observability state. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::resetAll(); }
    void TearDown() override { obs::resetAll(); }
};

// ---------------------------------------------------------------- //
// Counters, gauges, histograms, timers                              //
// ---------------------------------------------------------------- //

TEST_F(ObsTest, DisabledRecordingIsANoop)
{
    ASSERT_FALSE(obs::metricsEnabled());
    obs::Registry &registry = obs::reg();
    registry.counter("noop.counter").add(5);
    registry.gauge("noop.gauge").set(3.5);
    registry.histogram("noop.hist").record(1.0);
    EXPECT_EQ(obs::nowNsIfEnabled(), -1);
    {
        const obs::ScopedTimer t(&registry.histogram("noop.hist"));
    }
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("noop.counter"), 0u);
    EXPECT_EQ(snap.gauges.at("noop.gauge"), 0.0);
    EXPECT_EQ(snap.histograms.at("noop.hist").count, 0u);
}

TEST_F(ObsTest, CounterAndGaugeRecordWhenEnabled)
{
    obs::setMetricsEnabled(true);
    obs::Registry &registry = obs::reg();
    registry.counter("c").add(2);
    registry.counter("c").add(3);
    registry.gauge("g").set(1.5);
    registry.gauge("g").set(2.5); // last write wins
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("c"), 5u);
    EXPECT_EQ(snap.gauges.at("g"), 2.5);
}

TEST_F(ObsTest, RegistryHandlesAreStable)
{
    obs::Registry &registry = obs::reg();
    obs::Counter &a = registry.counter("stable");
    obs::Counter &b = registry.counter("stable");
    EXPECT_EQ(&a, &b);
}

TEST_F(ObsTest, HistogramStatsAndPercentiles)
{
    obs::setMetricsEnabled(true);
    obs::Histogram hist;
    double sum = 0.0;
    for (int v = 1; v <= 100; ++v) {
        hist.record(static_cast<double>(v));
        sum += static_cast<double>(v);
    }
    const obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.sum, sum);
    EXPECT_EQ(snap.min, 1.0);
    EXPECT_EQ(snap.max, 100.0);
    // Log-scale buckets have <= 19% relative error; percentiles must
    // land near the exact answers and be ordered and clamped.
    EXPECT_NEAR(snap.percentile(0.50), 50.0, 50.0 * 0.2);
    EXPECT_LE(snap.percentile(0.50), snap.percentile(0.95));
    EXPECT_LE(snap.percentile(0.95), snap.percentile(0.99));
    EXPECT_GE(snap.percentile(0.0), snap.min);
    EXPECT_LE(snap.percentile(1.0), snap.max);
}

TEST_F(ObsTest, HistogramUnderflowAndOverflow)
{
    obs::setMetricsEnabled(true);
    obs::Histogram hist;
    hist.record(0.0);                 // underflow bucket
    hist.record(-3.0);                // negative: underflow bucket
    hist.record(std::ldexp(1.0, 60)); // beyond 2^48: overflow tail
    const obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.overflow, 1u);
    EXPECT_EQ(snap.max, std::ldexp(1.0, 60));
    // The overflow tail reports the observed max, clamped.
    EXPECT_EQ(snap.percentile(0.999), snap.max);
}

TEST_F(ObsTest, HistogramSnapshotMergeAdds)
{
    obs::setMetricsEnabled(true);
    obs::Histogram a;
    obs::Histogram b;
    a.record(1.0);
    a.record(4.0);
    b.record(16.0);
    obs::HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count, 3u);
    EXPECT_EQ(merged.sum, 21.0);
    EXPECT_EQ(merged.min, 1.0);
    EXPECT_EQ(merged.max, 16.0);
}

TEST_F(ObsTest, ScopedTimerRecordsWallTime)
{
    obs::setMetricsEnabled(true);
    obs::Registry &registry = obs::reg();
    obs::Histogram &hist =
        registry.histogram("t.hist", obs::MetricKind::Timing);
    obs::Counter &total =
        registry.counter("t.total_ns", obs::MetricKind::Timing);
    {
        const obs::ScopedTimer t(&hist, &total);
    }
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.histograms.at("t.hist").count, 1u);
    EXPECT_GE(snap.histograms.at("t.hist").min, 0.0);
    EXPECT_EQ(snap.kindOf("t.hist"), obs::MetricKind::Timing);
    EXPECT_EQ(snap.kindOf("t.total_ns"), obs::MetricKind::Timing);
}

// ---------------------------------------------------------------- //
// Run contexts and deterministic merging                            //
// ---------------------------------------------------------------- //

TEST_F(ObsTest, ScopedContextRoutesRecording)
{
    obs::setMetricsEnabled(true);
    obs::RunContext shard("shard");
    {
        const obs::ScopedContext scope(shard);
        EXPECT_EQ(&obs::currentContext(), &shard);
        obs::reg().counter("routed").add(7);
    }
    // Restored: the default context never saw the recording.
    EXPECT_NE(&obs::currentContext(), &shard);
    EXPECT_EQ(shard.registry.snapshot().counters.at("routed"), 7u);
    const obs::MetricsSnapshot def = obs::reg().snapshot();
    EXPECT_EQ(def.counters.count("routed"), 0u);
}

TEST_F(ObsTest, CollectedSnapshotMergesShardsAndDefault)
{
    obs::setMetricsEnabled(true);
    obs::RunContext a("a");
    obs::RunContext b("b");
    {
        const obs::ScopedContext scope(a);
        obs::reg().counter("x").add(1);
        obs::reg().histogram("h").record(2.0);
    }
    {
        const obs::ScopedContext scope(b);
        obs::reg().counter("x").add(2);
        obs::reg().histogram("h").record(8.0);
    }
    obs::reg().counter("x").add(4); // default context
    obs::collectContext(a);
    obs::collectContext(b);
    const obs::MetricsSnapshot merged = obs::collectedSnapshot();
    EXPECT_EQ(merged.counters.at("x"), 7u);
    EXPECT_EQ(merged.histograms.at("h").count, 2u);
    EXPECT_EQ(merged.histograms.at("h").sum, 10.0);
}

// ---------------------------------------------------------------- //
// Exporters                                                         //
// ---------------------------------------------------------------- //

obs::MetricsSnapshot
writerFixture()
{
    obs::setMetricsEnabled(true);
    obs::Registry &registry = obs::reg();
    registry.counter("pc_table.hits").add(42);
    registry.gauge("run.accuracy").set(0.875);
    registry.histogram("predict.error_pct").record(3.0);
    registry.histogram("predict.error_pct").record(12.0);
    registry
        .counter("profile.simulate_ns", obs::MetricKind::Timing)
        .add(1'000'000);
    return registry.snapshot();
}

TEST_F(ObsTest, MetricsJsonSeparatesTimingSection)
{
    const obs::MetricsSnapshot snap = writerFixture();
    std::ostringstream os;
    obs::writeMetricsJson(os, snap, /*include_timing=*/true);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\":\"pcstall-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pc_table.hits\":42"), std::string::npos);
    EXPECT_NE(json.find("\"timing\""), std::string::npos);
    EXPECT_NE(json.find("\"profile.simulate_ns\":1000000"),
              std::string::npos);
    // The timing metric appears only after the "timing" key.
    EXPECT_GT(json.find("profile.simulate_ns"), json.find("\"timing\""));

    std::ostringstream os2;
    obs::writeMetricsJson(os2, snap, /*include_timing=*/false);
    EXPECT_EQ(os2.str().find("profile.simulate_ns"), std::string::npos);
    EXPECT_NE(os2.str().find("\"pc_table.hits\":42"),
              std::string::npos);
}

TEST_F(ObsTest, PrometheusExpositionFormat)
{
    const obs::MetricsSnapshot snap = writerFixture();
    std::ostringstream os;
    obs::writeMetricsPrometheus(os, snap);
    const std::string text = os.str();
    EXPECT_NE(text.find("# TYPE pcstall_pc_table_hits counter"),
              std::string::npos);
    EXPECT_NE(text.find("pcstall_pc_table_hits 42"), std::string::npos);
    EXPECT_NE(text.find("# TYPE pcstall_run_accuracy gauge"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE pcstall_predict_error_pct histogram"),
        std::string::npos);
    EXPECT_NE(text.find("pcstall_predict_error_pct_count 2"),
              std::string::npos);
    EXPECT_NE(text.find("pcstall_predict_error_pct_sum 15"),
              std::string::npos);
    EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 2"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Timeline: golden file on a synthetic 3-epoch run                  //
// ---------------------------------------------------------------- //

/** Drive a TimelineRecorder through a hand-built 3-epoch, 2-domain
 *  run and return the Chrome-trace JSON document. */
std::string
syntheticTimelineJson()
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.cusPerDomain = 1;

    std::vector<obs::TimelineEvent> events;
    sim::TimelineRecorder recorder(cfg, events);

    const std::vector<gpu::WaveSnapshot> no_snapshots;
    const std::vector<dvfs::DomainDecision> no_decisions;
    const std::vector<std::size_t> no_applied;

    const auto epoch = [&](Tick start, Freq d0_mhz, Freq d1_mhz,
                           std::uint64_t committed,
                           const dvfs::AccurateEstimates *sweep,
                           const gpu::FaultEpochCounters *faults) {
        gpu::EpochRecord record;
        record.start = start;
        record.end = start + tickUs;
        record.cus.resize(2);
        record.cus[0].freq = d0_mhz * freqMHz;
        record.cus[0].committed = committed;
        record.cus[1].freq = d1_mhz * freqMHz;
        record.cus[1].committed = committed / 2;
        const sim::EpochCapture capture{start,
                                        start + tickUs,
                                        start + tickUs,
                                        false,
                                        record,
                                        no_snapshots,
                                        sweep,
                                        no_decisions,
                                        no_applied,
                                        faults};
        recorder.onEpoch(capture);
    };

    dvfs::AccurateEstimates sweep;
    sweep.domainInstr = {{100.0, 120.0, 140.0}, {50.0, 60.0, 70.0}};
    gpu::FaultEpochCounters faults;
    faults.telemetryPerturbations = 2;
    faults.fallbackActive = true;

    epoch(0, 1700, 1700, 1000, nullptr, nullptr);
    epoch(tickUs, 1400, 1700, 900, &sweep, nullptr);
    epoch(2 * tickUs, 1400, 1000, 800, nullptr, &faults);

    sim::RunResult result;
    result.completed = true;
    result.epochs = 3;
    result.execTime = 3 * tickUs;
    result.energy = 0.00125;
    recorder.onRunEnd(result);

    std::ostringstream os;
    obs::writeChromeTrace(os, {{"synthetic", std::move(events)}});
    return os.str();
}

TEST_F(ObsTest, TimelineMatchesGoldenFile)
{
    const std::string got = syntheticTimelineJson();
    const std::string path =
        std::string(PCSTALL_TEST_DATA_DIR) + "/timeline_golden.json";
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
        << "timeline schema drifted; if intentional, regenerate the "
           "golden file with PCSTALL_REGEN_GOLDEN=1 and document the "
           "change in docs/observability.md";
}

TEST_F(ObsTest, TimelineCarriesExpectedEventMix)
{
    const std::string json = syntheticTimelineJson();
    EXPECT_NE(json.find("\"pcstall-timeline-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"1.70 GHz\""), std::string::npos);
    EXPECT_NE(json.find("\"1.40 GHz\""), std::string::npos);
    EXPECT_NE(json.find("\"V/f transition\""), std::string::npos);
    EXPECT_NE(json.find("\"fork-pre-execute\""), std::string::npos);
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_NE(json.find("\"run end\""), std::string::npos);
    EXPECT_NE(json.find("\"domain 1\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST_F(ObsTest, JsonNumberRendersNonFiniteAsNull)
{
    // JSON has no NaN or infinity literal.
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(obs::jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(obs::jsonNumber(-HUGE_VAL), "null");
    EXPECT_EQ(obs::jsonNumber(0.25), "0.25");
}

// ---------------------------------------------------------------- //
// The headline property: byte-identical merges across threads       //
// ---------------------------------------------------------------- //

bench::BenchOptions
sweepOptions(unsigned threads)
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.25;
    opts.threads = threads;
    return opts;
}

/** Run a small two-workload sweep and serialize the deterministic
 *  metrics section plus the full timeline document. */
std::pair<std::string, std::string>
sweepObservabilityDocs(unsigned threads)
{
    obs::resetAll();
    obs::setMetricsEnabled(true);
    obs::setTimelineEnabled(true);

    bench::SweepRunner runner(sweepOptions(threads));
    std::vector<bench::SweepCell> cells;
    for (const char *w : {"comd", "dgemm"}) {
        cells.push_back(runner.cell(w, "STALL", true));
        cells.push_back(runner.cell(w, "PCSTALL"));
    }
    const auto outcomes = runner.run(std::move(cells));
    for (const bench::CellOutcome &o : outcomes)
        EXPECT_TRUE(o.run.ok) << o.run.error;

    std::ostringstream metrics;
    obs::writeMetricsJson(metrics, obs::collectedSnapshot(),
                          /*include_timing=*/false);
    std::ostringstream timeline;
    obs::writeChromeTrace(timeline, obs::collectedTimelines());
    return {metrics.str(), timeline.str()};
}

TEST_F(ObsTest, SweepMetricsAndTimelineByteIdenticalAcrossThreads)
{
    const auto [metrics1, timeline1] = sweepObservabilityDocs(1);
    const auto [metrics4, timeline4] = sweepObservabilityDocs(4);
    // The whole point of run-context sharding and submission-order
    // collection: not just equal numbers - identical bytes.
    EXPECT_EQ(metrics1, metrics4);
    EXPECT_EQ(timeline1, timeline4);
    // And the documents are non-trivial.
    EXPECT_NE(metrics1.find("\"sim.epochs\""), std::string::npos);
    EXPECT_NE(metrics1.find("\"pc_table.lookups\""), std::string::npos);
    EXPECT_NE(metrics1.find("\"predict.error_pct\""),
              std::string::npos);
    EXPECT_NE(timeline1.find("GHz"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Logging controls                                                  //
// ---------------------------------------------------------------- //

TEST(Logging, LogLevelByName)
{
    const LogLevel before = logLevel();
    EXPECT_TRUE(setLogLevelByName("debug"));
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    EXPECT_TRUE(setLogLevelByName("warn"));
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    EXPECT_TRUE(setLogLevelByName("error"));
    EXPECT_TRUE(setLogLevelByName("info"));
    EXPECT_EQ(logLevel(), LogLevel::Info);
    EXPECT_FALSE(setLogLevelByName("chatty"));
    EXPECT_EQ(logLevel(), LogLevel::Info); // unchanged on bad name
    setLogLevel(before);
}

TEST(Logging, WarnLimitedSuppressesAfterLimit)
{
    resetWarnLimits();
    for (int i = 0; i < 5; ++i)
        warnLimited("test-key", "repeated warning", 2);
    EXPECT_EQ(suppressedWarnCount("test-key"), 3u);
    EXPECT_EQ(suppressedWarnCount("other-key"), 0u);
    resetWarnLimits();
    EXPECT_EQ(suppressedWarnCount("test-key"), 0u);
}

// Rate limits are per-(site, run), not per process lifetime: a new
// warn scope (pushed by every obs::ScopedContext run boundary) gets
// its own tally, and the outer scope's tally is intact afterwards.
TEST(Logging, WarnLimitedScopesResetPerRun)
{
    resetWarnLimits();
    for (int i = 0; i < 5; ++i)
        warnLimited("scoped-key", "outer warning", 2);
    EXPECT_EQ(suppressedWarnCount("scoped-key"), 3u);

    {
        obs::RunContext cell("cell");
        obs::ScopedContext scope(cell);
        // Fresh scope: nothing suppressed yet, limits start over.
        EXPECT_EQ(suppressedWarnCount("scoped-key"), 0u);
        for (int i = 0; i < 3; ++i)
            warnLimited("scoped-key", "cell warning", 2);
        EXPECT_EQ(suppressedWarnCount("scoped-key"), 1u);
    }
    {
        // A second run re-reports from zero rather than inheriting
        // the first cell's tally.
        obs::RunContext cell("cell2");
        obs::ScopedContext scope(cell);
        EXPECT_EQ(suppressedWarnCount("scoped-key"), 0u);
        warnLimited("scoped-key", "cell2 warning", 2);
        EXPECT_EQ(suppressedWarnCount("scoped-key"), 0u);
    }
    // Back in the process-default scope, the outer tally survives.
    EXPECT_EQ(suppressedWarnCount("scoped-key"), 3u);
    resetWarnLimits();
}

} // namespace
