/**
 * @file
 * Shared pieces of the repository benchmark (see README.md): options,
 * the metric report, deterministic model counts, RunResult
 * fingerprints and the two timing decorators the traced runs wrap
 * around controllers and trace observers.
 */

#ifndef PCSTALL_PERFBENCH_PERFBENCH_HH
#define PCSTALL_PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/controller.hh"
#include "harness.hh"
#include "sim/experiment.hh"
#include "span.hh"

namespace perfbench
{

using namespace pcstall;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 25.0;
    bool trace = false;
    /** Scratch directory for captures, libraries and span files. */
    std::string outDir;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    /** Metrics by name (end-to-end and per-layer alike). */
    std::map<std::string, Metric> metrics;
    /** Cells attempted (every pass and check) and cells that failed
     *  or failed an output check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check (empty when everything passed). */
    std::vector<std::string> failures;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a whole-run check: a failure line unless @p ok. */
    void check(bool ok, const std::string &what);
};

/**
 * Deterministic model counts of a traced pass. Every field is a pure
 * function of the simulated inputs: any difference between repeated
 * passes, or against the untraced run, is a failure.
 */
struct ModelCounts
{
    std::uint64_t cuCycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t busyTicks = 0;
    std::uint64_t loadStallTicks = 0;
    std::uint64_t barrierStallTicks = 0;
    std::uint64_t runUntilCalls = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t storesCombined = 0;
    std::uint64_t oracleSweeps = 0;
    std::uint64_t oracleSamples = 0;
    std::uint64_t decisions = 0;
    std::uint64_t epochs = 0;
    std::uint64_t pcLookups = 0;
    std::uint64_t pcHits = 0;

    bool operator==(const ModelCounts &) const = default;

    /** (name, value) pairs in report order. */
    std::vector<std::pair<std::string, std::uint64_t>> named() const;
};

/** Host-side counters of a traced pass (not deterministic-gated). */
struct HostCounts
{
    std::uint64_t restoresFull = 0;
    std::uint64_t restoresDelta = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t libraryHits = 0;
    std::uint64_t libraryMisses = 0;
};

/** 64-bit digest of every field of @p result (the results-store
 *  encoding), for exact run-to-run comparison. */
std::uint64_t resultFingerprint(const sim::RunResult &result);

/** Simulated CU-cycles of one epoch of @p epoch_len at @p freq. */
std::uint64_t cyclesPerEpoch(Tick epoch_len, Freq freq);

/**
 * Simulated CU-cycles of a finished run: the sum over CUs and epochs
 * of epoch length times CU frequency, recovered exactly from the
 * run's frequency residency.
 */
std::uint64_t cuCyclesOf(const sim::RunResult &result,
                         const sim::RunConfig &cfg);

/** The sweep cells' RNG seed (same derivation as bench::SweepRunner);
 *  design "STATIC" is the static-nominal baseline. */
std::uint64_t cellSeed(std::uint64_t seed, const std::string &workload,
                       const std::string &design);

/** Span name of a design's decide() calls, by the source layer that
 *  implements it ("core.decide", "models.decide", ...). */
const char *decideSpanFor(const std::string &design);

/** Peak resident set of this process and its waited-for children. */
double peakRssMb();

/** Linear-interpolated quantile of @p values (q in [0, 1]). */
double quantile(std::vector<double> values, double q);

/** Median of @p values. */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Times a phase of @p budget_s seconds made of whole passes: passes
 *  start until the budget is spent, so a run overshoots by at most
 *  one pass. */
class PassBudget
{
  public:
    explicit PassBudget(double budget_s)
        : budget_(budget_s), start_(nowNs())
    {
    }

    /** Call after each pass; true when another pass should start. */
    bool another() const
    {
        return 1e-9 * static_cast<double>(nowNs() - start_) < budget_;
    }

  private:
    double budget_;
    std::int64_t start_;
};

/** Controller decorator that records one span per decide() call. */
class TimedController final : public dvfs::DvfsController
{
  public:
    TimedController(dvfs::DvfsController &inner, Tracer *tracer,
                    const char *span)
        : inner_(inner), tracer_(tracer), span_(span)
    {
    }

    std::string name() const override { return inner_.name(); }
    dvfs::SweepNeed sweepNeed() const override
    {
        return inner_.sweepNeed();
    }
    bool needsWaveLevel() const override
    {
        return inner_.needsWaveLevel();
    }
    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override
    {
        const ScopedSpan span(tracer_, span_);
        ++decisions_;
        return inner_.decide(ctx);
    }
    void applyStorageFaults(faults::FaultInjector &injector) override
    {
        inner_.applyStorageFaults(injector);
    }
    std::uint64_t watchdogTrips() const override
    {
        return inner_.watchdogTrips();
    }
    std::uint64_t fallbackEpochs() const override
    {
        return inner_.fallbackEpochs();
    }
    std::uint64_t storageBitFlips() const override
    {
        return inner_.storageBitFlips();
    }
    std::uint64_t storageScrubs() const override
    {
        return inner_.storageScrubs();
    }

    std::uint64_t decisions() const { return decisions_; }

  private:
    dvfs::DvfsController &inner_;
    Tracer *tracer_;
    const char *span_;
    std::uint64_t decisions_ = 0;
};

/** Epoch-observer decorator timing the trace writer. */
class TimedObserver final : public sim::EpochObserver
{
  public:
    TimedObserver(sim::EpochObserver &inner, Tracer *tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void onEpoch(const sim::EpochCapture &epoch) override
    {
        const ScopedSpan span(tracer_, "trace.encode");
        inner_.onEpoch(epoch);
    }
    void onRunEnd(const sim::RunResult &result) override
    {
        const ScopedSpan span(tracer_, "trace.encode");
        inner_.onRunEnd(result);
    }

  private:
    sim::EpochObserver &inner_;
    Tracer *tracer_;
};

/** Add the PC-table lookup telemetry of @p controller (when it is a
 *  PCSTALL-family controller) to @p counts. */
void addPcTableCounts(const dvfs::DvfsController &controller,
                      ModelCounts &counts);

/** Record per-layer span totals, coverage and self-time shares. */
void reportLayers(const SpanSummary &summary, double passes,
                  const std::vector<std::string> &cell_names,
                  Report &report);

/** Record the model counts and host counts as per-layer metrics. */
void reportCounts(const ModelCounts &counts, const HostCounts &host,
                  double passes, Report &report);

/** Print @p counts one per line, exactly. */
void printCounts(const char *title, const ModelCounts &counts);

// Workload entry points (cells.cc and replay_study.cc).
Report runLiveStudy(const Options &opts);
Report runReplayStudy(const Options &opts);

} // namespace perfbench

#endif // PCSTALL_PERFBENCH_PERFBENCH_HH
