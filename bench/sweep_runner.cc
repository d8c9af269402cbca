#include "sweep_runner.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <utility>

#include "common/rng.hh"
#include "obs/context.hh"
#include "store/cell_codec.hh"
#include "store/result_store.hh"
#include "zoo/registry.hh"

namespace pcstall::bench
{

std::string
simConfigFingerprint(const BenchOptions &opts)
{
    std::ostringstream key;
    key << opts.cus << '|' << opts.scale << '|' << opts.epochLen << '|'
        << opts.cusPerDomain << '|' << opts.seed << '|'
        << static_cast<int>(opts.objective) << '|'
        << opts.perfDegradationLimit << '|' << opts.collectTrace << '|'
        << opts.watchdog << '|' << opts.ecc << '|' << opts.faults.seed
        << '|' << opts.faults.telemetry.enabled << '|'
        << opts.faults.telemetry.sigma << '|'
        << opts.faults.telemetry.dropoutProb << '|'
        << opts.faults.dvfs.enabled << '|'
        << opts.faults.dvfs.transitionFailProb << '|'
        << opts.faults.dvfs.extraSwitchLatency << '|'
        << opts.faults.dvfs.granularity << '|'
        << opts.faults.storage.enabled << '|'
        << opts.faults.storage.upsetsPerEpoch;
    return key.str();
}

namespace
{

/** Cells agreeing on the fingerprint plus (workload, design) are true
 *  repeats and get distinct run indices; the same key also identifies
 *  shareable application builds and baseline runs. */
std::string
configKey(const BenchOptions &opts)
{
    return simConfigFingerprint(opts);
}

/** Application builds depend on this subset of the options only. */
std::string
appKey(const std::string &workload, const BenchOptions &opts)
{
    std::ostringstream key;
    key << workload << '|' << opts.cus << '|' << opts.scale << '|'
        << opts.seed;
    return key.str();
}

std::string
cellLabel(const std::string &workload, const std::string &design)
{
    return workload + " x " + design;
}

/** Pseudo-design the shared static-nominal baselines are stored as. */
constexpr const char *baselineDesign = "__static_baseline__";

/** Steady-clock now in ns (the watchdog's clock; independent of the
 *  metrics-enabled gating of obs::nowNsIfEnabled). */
std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The store identity of one run. The fingerprint extends configKey()
 * with the inputs it deliberately leaves out of repeat-keying but
 * which do change results or stored content: a PC-table warm-start
 * file and whether metrics were recorded (entries written without
 * metrics carry an empty shard and must not satisfy a metrics run).
 */
store::CellKey
storeKeyFor(const std::string &harness, const std::string &workload,
            const std::string &design, const BenchOptions &opts,
            std::size_t run_index)
{
    store::CellKey key;
    key.harness = harness;
    key.workload = workload;
    key.design = design;
    // The config suffix also gets its own key slot (and with it the
    // digest), so "REGR:hist=4" and "REGR:hist=8" cells can never
    // collide even if a future harness normalizes design labels.
    key.controllerConfig = dvfs::splitDesign(design).config;
    key.fingerprint = configKey(opts);
    key.fingerprint += '\x1f';
    key.fingerprint += obs::metricsEnabled() ? "m1" : "m0";
    key.fingerprint += '\x1f';
    // Entries written without regret auditing carry an empty
    // RunResult::regret and must not satisfy an audited run.
    key.fingerprint += opts.auditRegret ? "a1" : "a0";
    key.fingerprint += '\x1f';
    key.fingerprint += opts.pcSnapshotIn;
    key.runIndex = run_index;
    return key;
}

/** True when a cell's run cannot be satisfied from the store: it has
 *  side effects (inspect callbacks, trace/snapshot captures) or an
 *  input (replay) the checkpoint does not model. */
bool
storeBypassed(const SweepCell &cell)
{
    return cell.inspect != nullptr || !cell.opts.traceOut.empty() ||
           !cell.opts.pcSnapshotOut.empty() ||
           !cell.opts.replayTrace.empty();
}

/**
 * True when a cell must not route through the trace library: explicit
 * trace I/O flags own the trace lifecycle themselves. Everything else
 * is replay-eligible - a cached replay drives the real controller
 * through the real epochs, so inspect callbacks, PC-snapshot exports
 * and regret rollups all come out byte-identical to a live run
 * (docs/replay_studies.md).
 */
bool
cacheBypassed(const SweepCell &cell)
{
    return !cell.opts.traceOut.empty() ||
           !cell.opts.replayTrace.empty();
}

std::uint64_t
fnv1aBytes(const std::string &text, std::uint64_t basis)
{
    std::uint64_t h = basis;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::string
baselineMemoKey(const std::string &workload, const BenchOptions &opts)
{
    return workload + '|' + configKey(opts);
}

} // namespace

/** One cell's watchdog slot. Workers publish a deadline at attempt
 *  start and clear it at attempt end; the monitor thread flips
 *  `cancel` when the deadline passes, and the experiment loop notices
 *  at its next epoch boundary. */
struct SweepRunner::CellWatch
{
    std::atomic<bool> cancel{false};
    /** Absolute steady-clock deadline in ns; 0 = no attempt active. */
    std::atomic<std::int64_t> deadline{0};
};

SweepRunner::SweepRunner(const BenchOptions &opts)
    : defaults(opts), pool(opts.threads)
{
    // A sweep whose *shared* configuration is invalid would fail in
    // every cell; fail fast here instead so the user gets one
    // "fatal: run config: ..." line (and exit 1 via guardedMain)
    // before any simulation time is spent. Cell-local overrides are
    // still validated - and contained - per cell.
    const std::string err =
        sim::validateRunConfig(defaults.runConfig());
    fatalIf(!err.empty(), err);

    if (!defaults.storeDir.empty()) {
        auto rs = std::make_unique<store::ResultStore>(
            defaults.storeDir);
        if (rs->ok()) {
            resultStore = std::move(rs);
            debug("results store at '" + defaults.storeDir + "' (" +
                  std::to_string(resultStore->entryCount()) +
                  " entries)");
        } else {
            // Recoverable by design: a bad store means recomputing
            // everything, not losing the sweep.
            warn(rs->error() + " (continuing without checkpointing)");
        }
    }

    if (!defaults.traceCacheDir.empty()) {
        auto lib = std::make_unique<trace::TraceLibrary>(
            defaults.traceCacheDir);
        if (lib->ok()) {
            traceLibrary = std::move(lib);
            debug("trace library at '" + defaults.traceCacheDir +
                  "' (" + std::to_string(traceLibrary->entryCount()) +
                  " entries)");
        } else {
            // Recoverable like the store: a bad library means
            // simulating everything live, not losing the sweep.
            warn(lib->error() + " (continuing without replay caching)");
        }
    }
}

SweepRunner::~SweepRunner() = default;

SweepRunner::AppPtr
SweepRunner::appFor(const std::string &workload,
                    const BenchOptions &opts)
{
    const std::string key = appKey(workload, opts);
    std::shared_future<AppPtr> fut;
    std::shared_ptr<std::promise<AppPtr>> mine;
    {
        const std::lock_guard<std::mutex> lock(appMutex);
        const auto it = apps.find(key);
        if (it != apps.end()) {
            fut = it->second;
        } else {
            mine = std::make_shared<std::promise<AppPtr>>();
            fut = mine->get_future().share();
            apps.emplace(key, fut);
        }
    }
    if (mine != nullptr) {
        // We won the race: build on this thread; waiters block on the
        // future. Failures become a null app (makeApp already warned)
        // so the future never carries an exception.
        AppPtr app;
        try {
            app = makeApp(workload, opts);
        } catch (const FatalError &e) {
            warn("workload '" + workload + "': " +
                 std::string(e.what()));
        }
        mine->set_value(std::move(app));
    }
    return fut.get();
}

std::string
SweepRunner::workloadDigestFor(const std::string &workload)
{
    // Named Table II workloads are immutable generator programs: the
    // name (plus the config fingerprint's cus/scale/seed) is their
    // whole identity. Kernel-script paths can be re-edited in place,
    // so their bytes join the key.
    const bool is_path = workload.find('/') != std::string::npos ||
        workload.find('.') != std::string::npos;
    if (!is_path)
        return "";
    const std::lock_guard<std::mutex> lock(digestMutex);
    const auto it = workloadDigests.find(workload);
    if (it != workloadDigests.end())
        return it->second;
    std::string digest;
    std::ifstream is(workload, std::ios::binary);
    if (is) {
        const std::string bytes(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(fnv1aBytes(
                          bytes, 0xCBF29CE484222325ULL)));
        digest = buf;
    } else {
        // Unreadable now => never a hit (and the cell itself will
        // fail to build, with its own diagnostic).
        digest = "unreadable";
    }
    workloadDigests.emplace(workload, digest);
    return digest;
}

trace::LibraryKey
SweepRunner::libraryKeyFor(const std::string &workload,
                           const std::string &design,
                           const BenchOptions &opts,
                           std::size_t run_index, bool shared)
{
    trace::LibraryKey key;
    key.harness = defaults.harnessId;
    key.workload = workload;
    key.workloadDigest = workloadDigestFor(workload);
    key.design = design;
    key.runIndex = run_index;
    key.fingerprint = simConfigFingerprint(opts);
    key.pcSnapshotIn = opts.pcSnapshotIn;
    key.shared = shared;
    return key;
}

bool
SweepRunner::storeProbablyHas(const SweepCell &cell) const
{
    if (resultStore == nullptr || storeBypassed(cell))
        return false;
    std::error_code ec;
    const bool cell_present = std::filesystem::exists(
        resultStore->entryPath(storeKeyFor(
            defaults.harnessId, cell.workload, cell.design, cell.opts,
            cell.runIndex)),
        ec);
    if (!cell_present)
        return false;
    if (!cell.wantBaseline)
        return true;
    return std::filesystem::exists(
        resultStore->entryPath(storeKeyFor(
            defaults.harnessId, cell.workload, baselineDesign,
            cell.opts, 0)),
        ec);
}

RunOutcome
SweepRunner::computeBaseline(const std::string &workload,
                             const BenchOptions &opts,
                             ShardArtifact &art)
{
    RunOutcome out;
    store::ResultStore *rs = resultStore.get();
    store::CellKey key;
    if (rs != nullptr) {
        key = storeKeyFor(defaults.harnessId, workload, baselineDesign,
                          opts, 0);
        store::ResultStore::GetResult got = rs->get(key);
        if (got.status == store::ResultStore::GetStatus::Corrupt) {
            obs::reg()
                .counter("farm.cells.quarantined",
                         obs::MetricKind::Timing)
                .add(1);
            warn(got.error + " (quarantined; recomputing)");
        }
        if (got.status == store::ResultStore::GetStatus::Hit) {
            store::StoredCell stored;
            std::string derr;
            if (store::decodeStoredCell(got.payload, stored, derr)) {
                obs::reg()
                    .counter("farm.cells.hit", obs::MetricKind::Timing)
                    .add(1);
                debug("store hit: baseline " + workload);
                out.result = std::move(stored.run.result);
                out.ok = stored.run.ok;
                out.error = std::move(stored.run.error);
                art.snap = std::move(stored.metrics);
                art.valid = true;
                return out;
            }
            warn("store entry for baseline " + workload + ": " + derr +
                 " (recomputing)");
        }
        obs::reg()
            .counter("farm.cells.miss", obs::MetricKind::Timing)
            .add(1);
    }

    // Live compute in a private context so the baseline's metrics
    // shard is exactly this run's recording - cleanly snapshottable
    // for the store and for submission-order collection.
    obs::RunContext attempt_ctx("baseline: " + workload);
    {
        const obs::ScopedContext scope(attempt_ctx);
        try {
            sim::RunConfig cfg = opts.runConfig();
            const std::string err = sim::validateRunConfig(cfg);
            if (!err.empty()) {
                out.error = err;
            } else if (AppPtr app = appFor(workload, opts)) {
                // The baseline's stream derives from the same pure
                // key scheme as cells, with the design slot pinned,
                // so it is identical however many cells share it.
                cfg.gpu.seed =
                    Rng::split(opts.seed, workload, "STATIC").next();
                sim::ExperimentDriver driver(cfg);
                dvfs::StaticController nominal(driver.nominalState());
                bool produced = false;
                if (traceLibrary != nullptr && traceLibrary->ok()) {
                    // Baselines always key exact (the shared what-if
                    // tier addresses cell streams; a baseline's
                    // STATIC-seeded stream is its own). PC warm-start
                    // paths are irrelevant to a static controller, so
                    // the slot stays blank for maximal reuse.
                    TraceCacheContext cctx;
                    cctx.library = traceLibrary.get();
                    cctx.key = libraryKeyFor(workload, baselineDesign,
                                             opts, 0, false);
                    cctx.key.pcSnapshotIn.clear();
                    cctx.freshController = [&driver]()
                        -> std::unique_ptr<dvfs::DvfsController> {
                        return std::make_unique<dvfs::StaticController>(
                            driver.nominalState());
                    };
                    dvfs::DvfsController *ctrl = &nominal;
                    produced = resolveTraceCache(driver, app, ctrl,
                                                 opts, workload, cctx,
                                                 out.result);
                }
                if (!produced)
                    out.result = driver.run(app, nominal);
                out.result.workload = workload;
                out.ok = true;
            } else {
                out.error =
                    "workload '" + workload + "' failed to build";
            }
        } catch (const FatalError &e) {
            out.error = e.what();
        } catch (const std::exception &e) {
            out.error = e.what();
        }
    }
    art.snap = attempt_ctx.registry.snapshot();
    art.timeline = std::move(attempt_ctx.timeline);
    art.valid = true;

    if (!out.ok) {
        noteSweepFailure();
        warn("static baseline for " + workload +
             " failed: " + out.error);
    } else if (rs != nullptr) {
        store::StoredCell stored;
        stored.run.result = out.result;
        stored.run.ok = true;
        stored.metrics = art.snap;
        const std::string perr =
            rs->put(key, store::encodeStoredCell(stored));
        if (!perr.empty())
            debug("store put (baseline " + workload + "): " + perr);
    }
    return out;
}

RunOutcome
SweepRunner::staticBaseline(const std::string &workload,
                            const BenchOptions &opts)
{
    const std::string key = baselineMemoKey(workload, opts);
    std::shared_future<RunOutcome> fut;
    std::shared_ptr<std::promise<RunOutcome>> mine;
    {
        const std::lock_guard<std::mutex> lock(baselineMutex);
        const auto it = baselines.find(key);
        if (it != baselines.end()) {
            fut = it->second;
        } else {
            mine = std::make_shared<std::promise<RunOutcome>>();
            fut = mine->get_future().share();
            baselines.emplace(key, fut);
        }
    }
    if (mine != nullptr) {
        ShardArtifact art;
        RunOutcome out = computeBaseline(workload, opts, art);
        {
            const std::lock_guard<std::mutex> lock(artifactMutex);
            baselineArtifacts[key] = std::move(art);
        }
        mine->set_value(std::move(out));
    }
    return fut.get();
}

SweepRunner::FailureKind
SweepRunner::attemptCell(const SweepCell &cell,
                         const std::atomic<bool> *cancel,
                         RunOutcome &run, const CacheRouting &routing)
{
    try {
        sim::RunConfig cfg = cell.opts.runConfig();
        const std::string err = sim::validateRunConfig(cfg);
        if (!err.empty()) {
            run.error = err;
            return FailureKind::Config;
        }
        AppPtr app = appFor(cell.workload, cell.opts);
        if (app == nullptr) {
            run.error =
                "workload '" + cell.workload + "' failed to build";
            return FailureKind::Config;
        }
        // The determinism keystone: the cell's RNG stream is a pure
        // function of its identity, never of which thread runs it or
        // in what order.
        cfg.gpu.seed = Rng::split(cell.opts.seed, cell.workload,
                                  cell.design, cell.runIndex).next();
        cfg.cancel = cancel;
        sim::ExperimentDriver driver(cfg);
        std::unique_ptr<dvfs::DvfsController> controller =
            cell.factory != nullptr
                ? cell.factory(cfg)
                : makeController(cell.design, cfg, app.get());
        fatalIf(controller == nullptr,
                "cell factory returned no controller");
        TraceCacheContext cacheCtx;
        if (routing.enabled && traceLibrary != nullptr &&
            traceLibrary->ok()) {
            cacheCtx.library = traceLibrary.get();
            cacheCtx.key =
                libraryKeyFor(cell.workload, cell.design, cell.opts,
                              cell.runIndex, defaults.traceWhatIf);
            cacheCtx.captureOnMiss = routing.captureOnMiss;
            cacheCtx.freshController = [&cell, &cfg, &app]()
                -> std::unique_ptr<dvfs::DvfsController> {
                return cell.factory != nullptr
                    ? cell.factory(cfg)
                    : makeController(cell.design, cfg, app.get());
            };
        }
        run.result = runTraced(driver, app, *controller, cell.opts,
                               cell.workload, cell.runIndex, &cacheCtx);
        run.result.workload = cell.workload;
        // A stale-entry heal swaps in a fresh controller mid-run; the
        // rebuilt one carries the live run's final state, so inspect
        // callbacks must see it instead of the abandoned original.
        if (cacheCtx.rebuilt != nullptr)
            controller = std::move(cacheCtx.rebuilt);
        if (cell.inspect != nullptr)
            cell.inspect(*controller);
        run.ok = true;
        return FailureKind::None;
    } catch (const FatalError &e) {
        run.error = e.what();
        // A FatalError after the watchdog flipped the flag is the
        // cancellation surfacing, not an independent defect.
        if (cancel != nullptr &&
            cancel->load(std::memory_order_relaxed)) {
            return FailureKind::Timeout;
        }
        return FailureKind::Fatal;
    } catch (const std::exception &e) {
        run.error = e.what();
        return FailureKind::Transient;
    }
}

CellOutcome
SweepRunner::executeCell(const SweepCell &cell, CellWatch *watch,
                         obs::Registry &farm, ShardArtifact &art,
                         const CacheRouting &routing)
{
    CellOutcome out;
    if (cell.wantBaseline)
        out.baseline = staticBaseline(cell.workload, cell.opts);

    const std::string label = cellLabel(cell.workload, cell.design);
    store::ResultStore *rs =
        storeBypassed(cell) ? nullptr : resultStore.get();
    store::CellKey key;
    if (rs != nullptr) {
        key = storeKeyFor(defaults.harnessId, cell.workload,
                          cell.design, cell.opts, cell.runIndex);
        store::ResultStore::GetResult got = rs->get(key);
        if (got.status == store::ResultStore::GetStatus::Corrupt) {
            farm.counter("farm.cells.quarantined",
                         obs::MetricKind::Timing)
                .add(1);
            warn(got.error + " (quarantined; recomputing)");
        }
        if (got.status == store::ResultStore::GetStatus::Hit) {
            store::StoredCell stored;
            std::string derr;
            if (store::decodeStoredCell(got.payload, stored, derr)) {
                farm.counter("farm.cells.hit", obs::MetricKind::Timing)
                    .add(1);
                debug("store hit: " + label);
                out.run.result = std::move(stored.run.result);
                out.run.ok = stored.run.ok;
                out.run.error = std::move(stored.run.error);
                art.snap = std::move(stored.metrics);
                art.valid = true;
                return out;
            }
            warn("store entry for " + label + ": " + derr +
                 " (recomputing)");
        }
        farm.counter("farm.cells.miss", obs::MetricKind::Timing)
            .add(1);
    }

    const std::int64_t budget_ns = static_cast<std::int64_t>(
        defaults.cellTimeoutSec * 1e9);
    const unsigned max_attempts = 1 + defaults.cellRetries;
    std::string ctx_label = label;
    if (cell.runIndex > 0)
        ctx_label += " r" + std::to_string(cell.runIndex);
    for (unsigned attempt = 0;; ++attempt) {
        if (watch != nullptr && budget_ns > 0) {
            watch->cancel.store(false, std::memory_order_relaxed);
            watch->deadline.store(steadyNowNs() + budget_ns,
                                  std::memory_order_release);
        }
        obs::RunContext attempt_ctx(ctx_label);
        FailureKind kind;
        {
            const obs::ScopedContext scope(attempt_ctx);
            out.run = RunOutcome{};
            kind = attemptCell(
                cell, watch != nullptr ? &watch->cancel : nullptr,
                out.run, routing);
        }
        if (watch != nullptr)
            watch->deadline.store(0, std::memory_order_release);
        // Per-attempt contexts keep abandoned attempts' metrics out of
        // the merge: only the final attempt's shard is collected.
        art.snap = attempt_ctx.registry.snapshot();
        art.timeline = std::move(attempt_ctx.timeline);
        art.valid = true;
        if (out.run.ok)
            break;
        if (kind == FailureKind::Timeout) {
            farm.counter("farm.cells.timeout", obs::MetricKind::Timing)
                .add(1);
            break;
        }
        if (kind == FailureKind::Transient &&
            attempt + 1 < max_attempts) {
            farm.counter("farm.cells.retried", obs::MetricKind::Timing)
                .add(1);
            warn("sweep cell " + label + " attempt " +
                 std::to_string(attempt + 1) + " failed: " +
                 out.run.error + " (retrying)");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20 * (attempt + 1)));
            continue;
        }
        break;
    }

    if (out.run.ok) {
        if (rs != nullptr) {
            store::StoredCell stored;
            stored.run.result = out.run.result;
            stored.run.ok = true;
            stored.metrics = art.snap;
            const std::string perr =
                rs->put(key, store::encodeStoredCell(stored));
            if (!perr.empty())
                debug("store put (" + label + "): " + perr);
        }
    } else {
        // The one-line diagnostic; the rest of the sweep completes
        // and guardedMain turns the tally into a non-zero exit.
        noteSweepFailure();
        warn("sweep cell " + label + " failed: " + out.run.error);
    }
    return out;
}

std::vector<CellOutcome>
SweepRunner::run(std::vector<SweepCell> cells)
{
    // Repeat indices are assigned here, in submission order, on the
    // FULL list before any shard filtering - the only place cell
    // identity is decided, and deliberately independent of the shard
    // layout so every worker and the merge pass agree on RNG streams
    // and store keys.
    std::map<std::string, std::size_t> repeats;
    for (SweepCell &cell : cells) {
        const std::string key = cell.workload + '\x1f' + cell.design +
            '\x1f' + configKey(cell.opts);
        cell.runIndex = repeats[key]++;
    }

    const unsigned shard_n =
        defaults.shardCount > 1 ? defaults.shardCount : 1;
    const unsigned shard_i =
        shard_n > 1 ? defaults.shardIndex % shard_n : 0;
    const auto owned = [&](std::size_t i) {
        return shard_n <= 1 || i % shard_n == shard_i;
    };

    // Replay-cache routing (see docs/replay_studies.md). Cells that
    // already drive trace I/O themselves (--trace-out / --replay)
    // bypass the library; everything else is replay-eligible. In
    // shared what-if mode, cells collapsing onto one shared key form a
    // group: the first submission index is the owner (it captures on
    // miss), later ones are waiters (they block on the owner's future,
    // then replay its entry; never capture, so an owner's published
    // trace is never clobbered). ParallelExecutor claims indices in
    // increasing order, so an owner is always scheduled no later than
    // its waiters and the waits cannot deadlock.
    const bool cache_on = traceLibrary != nullptr && traceLibrary->ok();
    std::vector<CacheRouting> routing(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        routing[i].enabled = cache_on && !cacheBypassed(cells[i]);
    std::vector<std::shared_future<void>> cellWaits(cells.size());
    std::vector<std::shared_ptr<std::promise<void>>> cellSignals(
        cells.size());
    if (cache_on && defaults.traceWhatIf) {
        std::map<std::string, std::shared_future<void>> groupFuture;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!owned(i) || !routing[i].enabled)
                continue;
            const std::string digest =
                libraryKeyFor(cells[i].workload, cells[i].design,
                              cells[i].opts, cells[i].runIndex, true)
                    .digest();
            const auto it = groupFuture.find(digest);
            if (it == groupFuture.end()) {
                auto signal = std::make_shared<std::promise<void>>();
                groupFuture.emplace(digest,
                                    signal->get_future().share());
                cellSignals[i] = std::move(signal);
            } else {
                routing[i].captureOnMiss = false;
                cellWaits[i] = it->second;
            }
        }
    }

    const bool observing =
        obs::metricsEnabled() || obs::timelineEnabled();

    // Warm the shared inputs with their own parallel prepasses so the
    // cell phase never serializes behind a popular app or baseline.
    // Cells another shard owns - or whose results (and baselines) are
    // already checkpointed - need no inputs here; a racing corrupt
    // entry just falls back to the memoized appFor() in the cell.
    std::set<std::string> seen;
    std::vector<const SweepCell *> appWork;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!owned(i) || storeProbablyHas(cells[i]))
            continue;
        if (seen.insert(appKey(cells[i].workload, cells[i].opts))
                .second) {
            appWork.push_back(&cells[i]);
        }
    }
    pool.forEach(appWork.size(), [&](std::size_t i) {
        appFor(appWork[i]->workload, appWork[i]->opts);
    });

    seen.clear();
    std::vector<const SweepCell *> baselineWork;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        if (owned(i) && cell.wantBaseline &&
            seen.insert(baselineMemoKey(cell.workload, cell.opts))
                .second) {
            baselineWork.push_back(&cell);
        }
    }
    // Metric sharding (see src/obs/context.hh): every baseline and
    // every cell records into a private run context; the shards are
    // collected below in submission order - baselines first, then
    // cells - so the merged snapshot and timeline are byte-identical
    // for every --threads value. The baseline prepass is a barrier:
    // by the cell phase every shared baseline is memoized, so no
    // baseline work can leak into (and nondeterministically inflate)
    // a cell's shard.
    std::vector<std::unique_ptr<obs::RunContext>> baselineCtx;
    for (const SweepCell *cell : baselineWork) {
        baselineCtx.push_back(std::make_unique<obs::RunContext>(
            "baseline: " + cell->workload));
    }
    pool.forEach(baselineWork.size(), [&](std::size_t i) {
        const obs::ScopedContext scope(*baselineCtx[i]);
        staticBaseline(baselineWork[i]->workload,
                       baselineWork[i]->opts);
    });

    std::vector<std::unique_ptr<obs::RunContext>> cellCtx;
    for (const SweepCell &cell : cells) {
        std::string label = cellLabel(cell.workload, cell.design);
        if (cell.runIndex > 0)
            label += " r" + std::to_string(cell.runIndex);
        cellCtx.push_back(
            std::make_unique<obs::RunContext>(std::move(label)));
    }
    std::vector<ShardArtifact> cellArt(cells.size());

    // The cell watchdog: workers publish per-attempt deadlines; the
    // monitor flips the cancel flag when one passes, and the run stops
    // cooperatively at its next epoch boundary. The monitor never
    // touches threads or results - enforcement is entirely in-band.
    const bool watchdog_on = defaults.cellTimeoutSec > 0.0;
    std::vector<std::unique_ptr<CellWatch>> watches;
    std::atomic<bool> monitor_stop{false};
    std::thread monitor;
    if (watchdog_on) {
        watches.resize(cells.size());
        for (auto &watch : watches)
            watch = std::make_unique<CellWatch>();
        monitor = std::thread([&] {
            while (!monitor_stop.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                const std::int64_t now = steadyNowNs();
                for (auto &watch : watches) {
                    const std::int64_t deadline =
                        watch->deadline.load(std::memory_order_acquire);
                    if (deadline != 0 && now > deadline) {
                        watch->cancel.store(
                            true, std::memory_order_relaxed);
                    }
                }
            }
        });
    }

    // --progress: a rate-limited status line on stderr, fed by the
    // completion counter below. The display is wall-clock cosmetics
    // only - results, metrics and store contents are untouched - and
    // it disables itself when stderr is not a TTY (logs, CI).
    std::size_t owned_total = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (owned(i))
            ++owned_total;
    }
    std::atomic<std::size_t> cells_done{0};
    const bool progress_on = defaults.progress && owned_total > 0 &&
        isatty(fileno(stderr)) != 0;
    std::atomic<bool> progress_stop{false};
    std::thread progress_thread;
    if (progress_on) {
        progress_thread = std::thread([&, owned_total] {
            const std::int64_t start = steadyNowNs();
            std::size_t last_done = static_cast<std::size_t>(-1);
            std::int64_t last_print = 0;
            for (;;) {
                const bool stopping =
                    progress_stop.load(std::memory_order_acquire);
                const std::size_t done =
                    cells_done.load(std::memory_order_relaxed);
                const std::int64_t now = steadyNowNs();
                // Redraw at most ~4x/s, and once more when stopping.
                if (stopping ||
                    (done != last_done &&
                     now - last_print > 250'000'000)) {
                    const double secs =
                        static_cast<double>(now - start) / 1e9;
                    const double rate =
                        secs > 0.0 ? static_cast<double>(done) / secs
                                   : 0.0;
                    const double eta = rate > 0.0
                        ? static_cast<double>(owned_total - done) / rate
                        : 0.0;
                    std::fprintf(stderr,
                                 "\r[sweep] %zu/%zu cells "
                                 "(%.1f cells/s, ETA %.0fs)   ",
                                 done, owned_total, rate, eta);
                    std::fflush(stderr);
                    last_done = done;
                    last_print = now;
                }
                if (stopping) {
                    std::fputc('\n', stderr);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
            }
        });
    }

    const std::int64_t queued_ns = obs::nowNsIfEnabled();
    std::vector<CellOutcome> out(cells.size());
    pool.forEach(cells.size(), [&](std::size_t i) {
        if (!owned(i)) {
            out[i].run.skipped = true;
            out[i].run.error = "skipped: shard " +
                std::to_string(shard_i) + "/" +
                std::to_string(shard_n) + " does not own cell " +
                std::to_string(i);
            out[i].baseline.skipped = cells[i].wantBaseline;
            return;
        }
        if (cellWaits[i].valid())
            cellWaits[i].wait();
        const obs::ScopedContext scope(*cellCtx[i]);
        obs::Registry &registry = cellCtx[i]->registry;
        obs::recordSinceNs(
            registry.histogram("sweep.queue_wait_ns",
                               obs::MetricKind::Timing),
            queued_ns);
        const obs::ScopedTimer wall(&registry.histogram(
            "sweep.cell_wall_ns", obs::MetricKind::Timing));
        out[i] = executeCell(
            cells[i], watchdog_on ? watches[i].get() : nullptr,
            registry, cellArt[i], routing[i]);
        if (cellSignals[i] != nullptr)
            cellSignals[i]->set_value();
        cells_done.fetch_add(1, std::memory_order_relaxed);
    });

    if (progress_on) {
        progress_stop.store(true, std::memory_order_release);
        progress_thread.join();
    }
    if (watchdog_on) {
        monitor_stop.store(true, std::memory_order_release);
        monitor.join();
    }

    if (observing) {
        // Submission-order collection. Each run slot contributes its
        // run shard (live snapshot, or the shard replayed from the
        // store) followed by its farm-level context; the sources have
        // disjoint deterministic names, so resumed and uninterrupted
        // sweeps merge byte-identically.
        for (std::size_t i = 0; i < baselineWork.size(); ++i) {
            ShardArtifact art;
            {
                const std::lock_guard<std::mutex> lock(artifactMutex);
                const auto it = baselineArtifacts.find(baselineMemoKey(
                    baselineWork[i]->workload, baselineWork[i]->opts));
                if (it != baselineArtifacts.end()) {
                    art = std::move(it->second);
                    baselineArtifacts.erase(it);
                }
            }
            if (art.valid) {
                obs::collectShard(
                    "baseline: " + baselineWork[i]->workload,
                    std::move(art.snap), std::move(art.timeline));
            }
            obs::collectContext(*baselineCtx[i]);
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cellArt[i].valid) {
                obs::collectShard(cellCtx[i]->label,
                                  std::move(cellArt[i].snap),
                                  std::move(cellArt[i].timeline));
            }
            obs::collectContext(*cellCtx[i]);
        }
        obs::reg()
            .gauge("sweep.threads", obs::MetricKind::Timing)
            .set(static_cast<double>(pool.threadCount()));
    }
    return out;
}

} // namespace pcstall::bench
