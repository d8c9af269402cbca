/**
 * @file
 * Shared plumbing for the figure/table harnesses: a common option
 * vocabulary (--cus, --epoch-us, --scale, --workloads, --threads,
 * --csv), the standard experiment configuration, and cached
 * static-baseline runs.
 *
 * Defaults (8 CUs, scale 1.0) are sized so every harness finishes in
 * minutes while preserving the paper's trends; pass --cus 64 --scale 1
 * for the paper-scale configuration (see EXPERIMENTS.md).
 *
 * Sweeps run through bench::SweepRunner (sweep_runner.hh), which
 * executes independent (workload, controller, config) cells on a
 * fixed-size thread pool. Everything here is safe to call from
 * concurrent sweep cells.
 */

#ifndef PCSTALL_BENCH_HARNESS_HH
#define PCSTALL_BENCH_HARNESS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table_writer.hh"
#include "dvfs/controller.hh"
#include "faults/fault_config.hh"
#include "isa/kernel.hh"
#include "sim/experiment.hh"
#include "sim/profiler.hh"
#include "trace/library.hh"
#include "workloads/workloads.hh"

namespace pcstall::core
{
class PcstallController;
}

namespace pcstall::bench
{

/** Parsed common options. */
struct BenchOptions
{
    std::uint32_t cus = 8;
    double scale = 1.0;
    Tick epochLen = tickUs;
    std::uint32_t cusPerDomain = 1;
    std::uint64_t seed = 42;
    bool csv = false;
    /**
     * Worker threads for sweep execution (--threads; 0 = one per
     * hardware thread). Results are bit-identical for every thread
     * count: each sweep cell derives its RNG stream from
     * (seed, workload, controller) alone.
     */
    unsigned threads = 0;
    /** Subset of workloads to run (all when empty). Entries may be
     *  Table II names or kernel-script paths. */
    std::vector<std::string> workloads;
    /**
     * Subset of controller designs to run (--controllers a,b; empty =
     * the harness's default set). Entries are registry design strings
     * ("REGR", "STATIC:7", "REGR:hist=4"); names whose base is not
     * registered are warned about and dropped — fatal only when
     * nothing known remains, so a typo'd list cannot silently run the
     * full default grid. Harnesses consume this via designList().
     */
    std::vector<std::string> controllers;
    /** Fault injection (see src/faults; disabled by default). */
    faults::FaultConfig faults;
    /** Enable the PCSTALL divergence watchdog (STALL fallback). */
    bool watchdog = false;
    /** Parity-protect PC tables (scrub corrupted entries). */
    bool ecc = false;
    /** Threads for in-cell oracle sample parallelism
     *  (--oracle-threads; 1 = serial, thread-count independent). */
    unsigned oracleThreads = 1;
    /**
     * Threads stepping each run's CUs inside an epoch (--cu-threads;
     * 0 = hardware threads / sweep threads, at least 1). Only chips
     * with 16 or more CUs per thread use them; output is independent
     * of the value. See cuThreadCount().
     */
    unsigned cuThreads = 0;
    /** Optimization objective for the runs (harness-set, no flag). */
    dvfs::Objective objective = dvfs::Objective::Ed2p;
    /** For the EnergyUnderPerfBound objective. */
    double perfDegradationLimit = 0.05;
    /** Collect the per-epoch trace in RunResult (harness-set). */
    bool collectTrace = false;
    /**
     * Capture every run routed through runTraced() to a binary epoch
     * trace (--trace-out). "{w}"/"{c}" expand to the workload and
     * controller name; without placeholders a "-workload-controller"
     * suffix is inserted before the extension so a sweep's captures
     * do not overwrite each other. When the same (workload,
     * controller) pair runs more than once in a sweep, repeats gain a
     * "-rN" run-index suffix, so captures never silently overwrite.
     */
    std::string traceOut;
    /**
     * Re-drive controllers from a previously captured trace instead
     * of simulating (--replay). Metrics then describe the recorded
     * epochs, so this is exact for the captured controller and a fast
     * what-if for the others.
     */
    std::string replayTrace;
    /** Write the learned PC table after each PCSTALL run
     *  (--pc-snapshot-out; same placeholder rules as traceOut). */
    std::string pcSnapshotOut;
    /**
     * Score per-decision hindsight regret into RunResult::regret
     * without retaining records (harness-set, no flag; the tournament
     * turns it on for its regret leaderboard columns). The records
     * themselves are re-derived from a --trace-out capture with
     * `trace_inspect explain` (docs/provenance.md).
     */
    bool auditRegret = false;
    /**
     * Live sweep progress on stderr (--progress): a rate-limited
     * "cells done/total, cells/s, ETA" line driven by SweepRunner
     * completion counts. Auto-disabled when stderr is not a TTY.
     */
    bool progress = false;
    /** Warm-start PCSTALL tables from a snapshot (--pc-snapshot-in). */
    std::string pcSnapshotIn;
    /**
     * Trace library directory (--trace-cache DIR): sweeps resolve
     * replay-eligible cells against a content-addressed library of
     * PCTR captures with capture-on-miss — the first run of a cell
     * simulates once and publishes its epoch trace; later runs with
     * the same cache key replay it at 20-600x live speed, with
     * byte-identical stdout and canonical metrics
     * (docs/replay_studies.md). Empty = no caching.
     */
    std::string traceCacheDir;
    /**
     * Opt into the shared-stream (what-if) cache tier
     * (--trace-what-if; requires --trace-cache, incompatible with
     * --shard): the design/run-index slots of the cache key are
     * blanked, so every controller in the sweep replays the one epoch
     * stream its workload's first cell recorded — open-loop
     * evaluation in the paper's style, trading the closed-loop
     * feedback (and the byte-identity contract) for a sweep that
     * simulates each workload once.
     */
    bool traceWhatIf = false;
    /**
     * Write a merged metrics snapshot at process end (--metrics-out).
     * ".prom"/".txt" extensions select Prometheus text exposition,
     * anything else the pcstall-metrics-v1 JSON document
     * (docs/observability.md). Enables metric recording.
     */
    std::string metricsOut;
    /** Write a Chrome trace-event / Perfetto timeline of every run at
     *  process end (--timeline-out). Enables timeline recording. */
    std::string timelineOut;
    /** Print the self-profile report (time in simulate / predict /
     *  oracle / encode) at process end (--verbose). */
    bool verbose = false;
    /**
     * Results-store directory (--store DIR): completed sweep cells are
     * checkpointed there (crash-safe, content-addressed; see
     * docs/sweep_farm.md) and looked up before computing, so a killed
     * sweep restarted with the same flags recomputes only the missing
     * cells. Empty = no checkpointing.
     */
    std::string storeDir;
    /** --resume: assert store-backed resume semantics (requires
     *  --store; informs how many cells were reused). */
    bool resume = false;
    /** Shard this worker owns (--shard i/N): only cells with
     *  index % shardCount == shardIndex run; the rest are marked
     *  skipped. shardCount <= 1 = unsharded. */
    unsigned shardIndex = 0;
    unsigned shardCount = 0;
    /** Per-cell wall-clock budget in seconds (--cell-timeout; 0 = no
     *  watchdog). Overrunning cells are cancelled at the next epoch
     *  boundary and marked failed-with-timeout. */
    double cellTimeoutSec = 0.0;
    /** Max extra attempts for transient cell failures (--cell-retries;
     *  deterministic FatalErrors and timeouts are never retried). */
    unsigned cellRetries = 2;
    /**
     * Also write every emitted table, in CSV form, to this file at
     * process end (--csv-out). Buffered in memory and published with
     * one atomic rename, so a crashed run never leaves a truncated
     * CSV for a plotting script to half-parse.
     */
    std::string csvOut;
    /** Harness identity for store keys (argv[0] basename; tools that
     *  build options programmatically may override). */
    std::string harnessId = "harness";

    /**
     * The common option vocabulary: every flag parse() reads, plus
     * @p extra, a front end's own flags. Each flag and its meaning is
     * documented on the field it sets; --list-controllers prints the
     * registry and throws CleanExit; --log-level debug|info|warn|error
     * overrides env PCSTALL_LOG.
     */
    static std::vector<CliFlag> flags(std::vector<CliFlag> extra = {});

    /** Parse argv against flags() alone (see parse(const CliOptions&)). */
    static BenchOptions parse(int argc, char **argv);

    /**
     * Read the options from @p cli, which must declare flags().
     * Malformed values and unknown workloads are warned about and
     * dropped, never fatal. Calls configureObservability().
     */
    static BenchOptions parse(const CliOptions &cli);

    workloads::WorkloadParams workloadParams() const;
    sim::RunConfig runConfig() const;

    /** --cu-threads with its automatic default resolved. */
    unsigned cuThreadCount() const;

    /** Profiler configuration matching runConfig()'s scaling. */
    sim::ProfileConfig profileConfig() const;

    /** Workload names selected (defaults to the full Table II). */
    std::vector<std::string> workloadNames() const;

    /**
     * Workloads for the expensive epoch/granularity sweeps: a
     * representative 8-app subset by default (half HPC, half MI,
     * covering compute/memory/divergent/multi-kernel characters);
     * --workloads overrides with any list, including the full suite.
     */
    std::vector<std::string> sweepWorkloadNames() const;

    /**
     * The harness's controller axis: the validated --controllers
     * selection when one was given, @p fallback (the harness's
     * default design list) otherwise.
     */
    std::vector<std::string>
    designList(std::vector<std::string> fallback) const;

    /** First selected workload, or @p def when none was given. */
    std::string firstWorkload(const std::string &def) const
    {
        return workloads.empty() ? def : workloads.front();
    }

    /**
     * A copy resized for an epoch length: longer epochs get
     * proportionally more work so runs still span many epochs.
     */
    BenchOptions sizedForEpoch(double epoch_us) const
    {
        BenchOptions sized = *this;
        sized.epochLen = static_cast<Tick>(
            epoch_us * static_cast<double>(tickUs));
        if (epoch_us > 2.0)
            sized.scale = scale * std::min(epoch_us / 2.0, 6.0);
        return sized;
    }
};

/**
 * Build a workload application as a shared immutable object. @p name
 * may be a Table II name or a kernel-script path. Returns null (after
 * a warn) when the workload cannot be built, so one bad workload
 * fails one run instead of the whole harness - callers skip null apps.
 */
std::shared_ptr<const isa::Application>
makeApp(const std::string &name, const BenchOptions &opts);

/**
 * Factory for every registered controller design: the Table III
 * names, "STATIC[n]"/"STATIC:n" fixed-state baselines, and the
 * related-work zoo (REGR, DSO, WANGCHU), each accepting a
 * ":k=v,k=v" config suffix (see --list-controllers or
 * docs/controllers.md). Resolution goes through
 * dvfs::ControllerRegistry, so plug-in controllers registered by the
 * linking binary are constructible here too. @p app provides static
 * program knowledge to controllers that analyse code ahead of time
 * (DSO); passing null degrades them to dynamic-only. Unknown names
 * are fatal (FatalError) listing the registered designs.
 */
std::unique_ptr<dvfs::DvfsController>
makeController(const std::string &name, const sim::RunConfig &cfg,
               const isa::Application *app = nullptr);

/** All Table III design names in presentation order. */
const std::vector<std::string> &designNames();

/**
 * Per-cell trace-cache routing for runTraced(), assembled by
 * SweepRunner for replay-eligible cells of a --trace-cache sweep
 * (docs/replay_studies.md). The full flow:
 *
 *  - library hit: the cached trace replays the cell's controller with
 *    live metric accounting; exact-tier hits also verify every
 *    decision against the recording, so a stale entry (key schema
 *    drift, truncated file, foreign simulator build) is detected, not
 *    trusted;
 *  - stale/corrupt hit: the entry is quarantined, the (half-driven)
 *    controller is rebuilt cold via freshController, and the cell
 *    recaptures live;
 *  - miss: the cell simulates live, streaming its capture straight to
 *    the library entry path when captureOnMiss is set.
 */
struct TraceCacheContext
{
    /** Open library (not owned). The context is ignored - the run is
     *  a plain live run - when this is null, !ok(), or
     *  freshController is unset. */
    trace::TraceLibrary *library = nullptr;
    /** The cell's fully formed cache key (exact or shared tier). */
    trace::LibraryKey key;
    /**
     * Capture a missing entry from this cell's live run. What-if
     * waiter cells whose stream owner failed clear this: they run
     * live without capturing, so a shared-tier entry only ever holds
     * the owner's stream.
     */
    bool captureOnMiss = true;
    /**
     * Rebuild this cell's controller from cold state, exactly as the
     * original was built (same design string, config and application).
     * Used when a stale cached entry is quarantined mid-replay: the
     * half-driven controller must not be reused for the live
     * recapture. Required - a context without it is ignored.
     */
    std::function<std::unique_ptr<dvfs::DvfsController>()>
        freshController;
    /**
     * Out: set when self-healing rebuilt the controller. The caller's
     * owning pointer must be replaced by this one - it is the object
     * runTraced() actually drove (and the one post-run inspection
     * must read).
     */
    std::unique_ptr<dvfs::DvfsController> rebuilt;
    /** Out: what the cache actually did for this run. */
    enum class Outcome
    {
        /** Cache not consulted (flag precedence or unusable context). */
        Untouched,
        /** Replayed from a published entry. */
        Hit,
        /** Simulated live and published the capture. */
        MissCaptured,
        /** Simulated live without capturing (captureOnMiss off, an
         *  unwritable entry, or a replay-ineligible cached stream). */
        MissLive,
    };
    Outcome outcome = Outcome::Untouched;
};

/**
 * Run one (workload, controller) pair honouring the trace flags:
 * plain `driver.run()` when none are set; epoch-trace capture when
 * --trace-out is given (embedding the learned PC table of PCSTALL
 * controllers); trace replay instead of simulation when --replay is
 * given; PC-table warm start / snapshot export when the snapshot
 * flags are given. Falls back to an untraced live run (with a warn)
 * when a trace file cannot be written or read.
 *
 * @p run_index disambiguates repeated (workload, controller) runs in
 * one sweep: repeats > 0 gain a "-rN" suffix on every auto-expanded
 * output path. Independent of that, output paths are claimed in a
 * process-wide registry and re-claims are suffixed too, so no two
 * runs of one process ever overwrite each other's captures.
 *
 * @p cache routes the run through the trace library (may be null; see
 * TraceCacheContext). The explicit --replay / --trace-out flags take
 * precedence over the cache, and a heal can leave cache->rebuilt set
 * - callers that touch the controller after the run must adopt it.
 */
sim::RunResult runTraced(sim::ExperimentDriver &driver,
                         std::shared_ptr<const isa::Application> app,
                         dvfs::DvfsController &controller,
                         const BenchOptions &opts,
                         const std::string &workload,
                         std::size_t run_index = 0,
                         TraceCacheContext *cache = nullptr);

/**
 * The core --trace-cache resolution, shared by runTraced() and
 * SweepRunner's static-baseline path: a library hit replays
 * @p controller (verified, with live metric accounting); a stale or
 * corrupt hit is quarantined, the controller rebuilt cold (swapping
 * @p controller to cache.rebuilt), and the run recaptured live; a
 * plain miss runs live, capturing into the library when
 * cache.captureOnMiss. Returns true when @p result was produced;
 * false tells the caller to run live itself.
 */
bool resolveTraceCache(sim::ExperimentDriver &driver,
                       std::shared_ptr<const isa::Application> app,
                       dvfs::DvfsController *&controller,
                       const BenchOptions &opts,
                       const std::string &workload,
                       TraceCacheContext &cache,
                       sim::RunResult &result);

/** Print @p table as text or CSV per @p opts. */
void emit(const BenchOptions &opts, const TableWriter &table);

/** Print a harness banner naming the figure being regenerated. */
void banner(const std::string &figure, const std::string &what,
            const BenchOptions &opts);

/**
 * Arm the observability subsystem from parsed options: enables metric
 * and/or timeline recording and remembers the output paths and the
 * verbose flag for writeObservabilityOutputs(). BenchOptions::parse()
 * calls this; tools that build options programmatically call it
 * directly.
 */
void configureObservability(const BenchOptions &opts);

/**
 * Flush the configured observability outputs: the merged metrics
 * snapshot (--metrics-out), the Chrome-trace timeline
 * (--timeline-out) and the --verbose self-profile report. Merging
 * walks the collected run contexts in submission order, so the files
 * are byte-identical for every --threads value (wall-clock metrics
 * live in the segregated "timing" section). guardedMain() calls this
 * once on every exit path; extra calls are no-ops.
 */
void writeObservabilityOutputs();

/**
 * Flush every durable artifact on process exit: the observability
 * outputs above, the buffered --csv-out table, and any in-flight
 * `.tmp` staging files left by an unwinding FatalError (unlinked so
 * retries never accumulate stale partial files). guardedMain() calls
 * this once on every exit path; extra calls are no-ops.
 */
void flushHarnessArtifacts();

/**
 * Flush the PC tables' plain-member telemetry (lookups, hits,
 * updates, evictions, alias hits, scrubs) into the current run
 * context's registry as pc_table.* counters. runTraced() calls this
 * after every live or replayed run of a PCSTALL controller; tools
 * that drive a controller directly call it themselves.
 */
void publishPcTableMetrics(const core::PcstallController &pcstall);

/**
 * Record one failed sweep cell/baseline/task in the process-wide
 * tally. SweepRunner calls this wherever it contains a FatalError so
 * the sweep can keep going; guardedMain reads the tally to decide the
 * exit code. Thread-safe.
 */
void noteSweepFailure();

/** Sweep failures recorded so far in this process. */
std::uint64_t sweepFailureCount();

/**
 * Run a harness/tool main body under the library error contract:
 * FatalError (already logged by fatal()) becomes exit code 1, any
 * other stray exception is reported and also exits 1. A sweep whose
 * cells failed still completes and prints every other cell, but the
 * process exits 1 so scripts never mistake a degraded sweep for a
 * clean one. Library code never calls std::exit, so this is the only
 * process-exit decision point.
 */
template <typename Fn>
int
guardedMain(Fn &&body)
{
    try {
        const std::uint64_t before = sweepFailureCount();
        const int rc = body();
        // (CleanExit from an informational flag lands in the handler
        // below before any sweep work starts.)
        // Flush even when rc != 0: partial metrics from a degraded
        // sweep are exactly what one debugs the degradation with.
        flushHarnessArtifacts();
        const std::uint64_t failed = sweepFailureCount() - before;
        if (rc == 0 && failed != 0) {
            warn(std::to_string(failed) +
                 " sweep cell(s) failed; see diagnostics above");
            return 1;
        }
        return rc;
    } catch (const CleanExit &) {
        // An informational flag already printed what was asked for.
        flushHarnessArtifacts();
        return 0;
    } catch (const FatalError &) {
        // fatal() printed the diagnostic when it threw.
        flushHarnessArtifacts();
        return 1;
    } catch (const std::exception &e) {
        warn(std::string("unexpected error: ") + e.what());
        flushHarnessArtifacts();
        return 1;
    }
}

} // namespace pcstall::bench

#endif // PCSTALL_BENCH_HARNESS_HH
