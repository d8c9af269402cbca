/**
 * @file
 * The replay_study workload: the tournament grid (nine sweep-free
 * controllers x the eight default sweep workloads x three objectives,
 * plus their static baselines) served from a trace library that
 * set-up captures fresh.
 *
 * Each untraced pass runs the grid through bench::SweepRunner with
 * --trace-cache semantics and four sweep threads, in a forked child
 * process: like one `tournament --trace-cache` invocation, every pass
 * starts with empty in-process caches and decodes each trace once.
 * The traced run re-drives the same cells in this process through
 * trace::TraceLibrary, trace::readTraceFile and
 * trace::ReplayDriver::run on a four-worker sim::ParallelExecutor.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "perfbench.hh"
#include "sim/parallel_executor.hh"
#include "sweep_runner.hh"
#include "tournament_lib.hh"
#include "trace/format.hh"
#include "trace/library.hh"
#include "trace/replay.hh"

namespace perfbench
{

namespace
{

using AppPtr = std::shared_ptr<const isa::Application>;

constexpr int setupRepeats = 3;
constexpr unsigned sweepThreads = 4;
/** SweepRunner's library design label for static baselines. */
constexpr const char *baselineDesign = "__static_baseline__";

const std::vector<std::string> designs = {
    "STALL", "LEAD", "CRIT", "CRISP", "PCSTALL",
    "GPHT",  "REGR", "DSO",  "WANGCHU",
};

struct GridCell
{
    std::string workload;
    std::string design;
    bench::BenchOptions opts;
    /** Index of the cell's static baseline in Grid::baselines. */
    std::size_t baseline = 0;
};

struct Grid
{
    bench::BenchOptions base;
    std::vector<std::string> workloads;
    std::vector<GridCell> cells;
    /** (workload, options) of each distinct baseline. */
    std::vector<std::pair<std::string, bench::BenchOptions>> baselines;
};

Grid
makeGrid(const Options &o)
{
    Grid g;
    g.base.seed = o.seed;
    g.base.cus = 8;
    g.base.scale = 0.25;
    g.base.threads = sweepThreads;
    g.base.harnessId = "perfbench";
    g.base.traceCacheDir = o.outDir + "/replay-library";
    g.workloads = g.base.sweepWorkloadNames();
    // Objective-major, as bench::runTournament submits its grid.
    for (const bench::TournamentObjective &obj :
         bench::tournamentObjectives("")) {
        bench::BenchOptions opts = g.base;
        opts.objective = obj.objective;
        opts.auditRegret = true;
        for (const std::string &w : g.workloads) {
            g.baselines.emplace_back(w, opts);
            for (const std::string &d : designs)
                g.cells.push_back({w, d, opts, g.baselines.size() - 1});
        }
    }
    return g;
}

/** What a pass keeps of one run. */
struct RunSummary
{
    bool ok = false;
    std::uint64_t fingerprint = 0;
    std::uint64_t epochs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cuCycles = 0;
};

RunSummary
summarizeRun(const sim::RunResult &result, bool ok,
             const bench::BenchOptions &opts)
{
    RunSummary s;
    s.ok = ok;
    s.fingerprint = resultFingerprint(result);
    s.epochs = result.epochs;
    s.instructions = result.instructions;
    s.cuCycles = cuCyclesOf(result, opts.runConfig());
    return s;
}

struct PassOutcome
{
    double wallS = 0.0;
    std::vector<double> cellWallMs;
    std::vector<RunSummary> cells;
    std::vector<RunSummary> baselines;
    std::string error;
};

std::map<std::string, AppPtr>
buildApps(const Grid &g)
{
    std::map<std::string, AppPtr> apps;
    for (const std::string &w : g.workloads) {
        AppPtr app = bench::makeApp(w, g.base);
        fatalIf(app == nullptr, "workload '" + w + "' failed to build");
        apps[w] = std::move(app);
    }
    return apps;
}

/**
 * One pass through the program's own path. Per-cell wall time runs
 * from the cell's controller construction (factory hook) to its
 * post-run inspection (inspect hook); @p apps only feeds the factory,
 * the runner builds its own.
 */
PassOutcome
sweepPass(const Grid &g, const std::map<std::string, AppPtr> &apps)
{
    const std::size_t n = g.cells.size();
    std::vector<std::int64_t> starts(n, 0);
    std::vector<std::int64_t> ends(n, 0);
    std::vector<bench::SweepCell> cells;
    cells.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const GridCell &gc = g.cells[i];
        bench::SweepCell c;
        c.workload = gc.workload;
        c.design = gc.design;
        c.opts = gc.opts;
        c.wantBaseline = true;
        c.factory = [app = apps.at(gc.workload), design = gc.design,
                     &starts, i](const sim::RunConfig &cfg) {
            starts[i] = nowNs();
            return bench::makeController(design, cfg, app.get());
        };
        c.inspect = [&ends, i](const dvfs::DvfsController &) {
            ends[i] = nowNs();
        };
        cells.push_back(std::move(c));
    }

    PassOutcome out;
    const std::int64_t t0 = nowNs();
    std::vector<bench::CellOutcome> outcomes;
    {
        bench::SweepRunner runner(g.base);
        outcomes = runner.run(std::move(cells));
    }
    out.wallS = 1e-9 * static_cast<double>(nowNs() - t0);

    out.baselines.resize(g.baselines.size());
    std::vector<bool> seen(g.baselines.size(), false);
    for (std::size_t i = 0; i < n; ++i) {
        const GridCell &gc = g.cells[i];
        out.cells.push_back(summarizeRun(outcomes[i].run.result,
                                         outcomes[i].run.ok, gc.opts));
        out.cellWallMs.push_back(
            1e-6 * static_cast<double>(ends[i] - starts[i]));
        if (!seen[gc.baseline]) {
            seen[gc.baseline] = true;
            out.baselines[gc.baseline] =
                summarizeRun(outcomes[i].baseline.result,
                             outcomes[i].baseline.ok, gc.opts);
        }
    }
    return out;
}

std::string
encodePass(const PassOutcome &p)
{
    std::ostringstream os;
    os.precision(17);
    os << p.wallS << ' ' << p.cells.size() << ' ' << p.baselines.size()
       << '\n';
    const auto put = [&os](const RunSummary &s) {
        os << s.ok << ' ' << s.fingerprint << ' ' << s.epochs << ' '
           << s.instructions << ' ' << s.cuCycles << '\n';
    };
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
        os << p.cellWallMs[i] << ' ';
        put(p.cells[i]);
    }
    for (const RunSummary &s : p.baselines)
        put(s);
    return os.str();
}

bool
decodePass(const std::string &text, PassOutcome &p)
{
    std::istringstream is(text);
    std::size_t cells = 0;
    std::size_t baselines = 0;
    if (!(is >> p.wallS >> cells >> baselines))
        return false;
    const auto get = [&is](RunSummary &s) {
        return static_cast<bool>(is >> s.ok >> s.fingerprint >>
                                 s.epochs >> s.instructions >>
                                 s.cuCycles);
    };
    p.cells.resize(cells);
    p.cellWallMs.resize(cells);
    p.baselines.resize(baselines);
    for (std::size_t i = 0; i < cells; ++i) {
        if (!(is >> p.cellWallMs[i]) || !get(p.cells[i]))
            return false;
    }
    for (RunSummary &s : p.baselines) {
        if (!get(s))
            return false;
    }
    return true;
}

/**
 * Run @p body in a forked child and return what it produced, so the
 * work starts with empty in-process caches (a fresh process, as one
 * harness invocation would be). Waits for the child before returning;
 * false (with @p error set) when the child failed.
 */
bool
runInChild(const std::function<std::string()> &body, std::string &out,
           std::string &error)
{
    int fds[2];
    if (pipe(fds) != 0) {
        error = "pipe failed";
        return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        error = "fork failed";
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        int rc = 0;
        std::string text;
        try {
            text = body();
        } catch (...) {
            rc = 1;
        }
        std::size_t off = 0;
        while (off < text.size()) {
            const ssize_t w =
                write(fds[1], text.data() + off, text.size() - off);
            if (w < 0 && errno == EINTR)
                continue;
            if (w <= 0) {
                rc = 1;
                break;
            }
            off += static_cast<std::size_t>(w);
        }
        close(fds[1]);
        _exit(rc);
    }
    close(fds[1]);
    out.clear();
    char buf[65536];
    for (;;) {
        const ssize_t r = read(fds[0], buf, sizeof buf);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(r));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        error = "pass process failed";
        return false;
    }
    return true;
}

/** Section separator of a traced child's output. */
const std::string sectionMark = "%%\n";

/** sweepPass() in a forked child. */
PassOutcome
forkedPass(const Grid &g, const std::map<std::string, AppPtr> &apps)
{
    PassOutcome out;
    std::string text;
    if (!runInChild([&] { return encodePass(sweepPass(g, apps)); }, text,
                    out.error))
        return out;
    if (!decodePass(text, out))
        out.error = "pass result unreadable";
    return out;
}

/** Time split of the traced pass's executor batches. */
struct SweepStats
{
    double queueWaitS = 0.0;
    double busyS = 0.0;
    double batchWallS = 0.0;
};

/** Run @p fn over [0, n) on @p exec, accounting waits and busy time. */
template <typename Fn>
void
timedBatch(sim::ParallelExecutor &exec, std::size_t n, SweepStats &st,
           Fn &&fn)
{
    std::mutex m;
    const std::int64_t t0 = nowNs();
    exec.forEach(n, [&](std::size_t i) {
        const std::int64_t start = nowNs();
        fn(i);
        const std::int64_t end = nowNs();
        const std::lock_guard<std::mutex> lock(m);
        st.queueWaitS += 1e-9 * static_cast<double>(start - t0);
        st.busyS += 1e-9 * static_cast<double>(end - start);
    });
    st.batchWallS += 1e-9 * static_cast<double>(nowNs() - t0);
}

trace::LibraryKey
libraryKey(const Grid &g, const std::string &workload,
           const std::string &design, const bench::BenchOptions &opts)
{
    trace::LibraryKey key;
    key.harness = g.base.harnessId;
    key.workload = workload;
    key.design = design;
    key.fingerprint = bench::simConfigFingerprint(opts);
    return key;
}

/** Counters one traced replay adds (merged under a lock). */
struct ReplayCounts
{
    ModelCounts model;
    HostCounts host;

    void add(const ReplayCounts &other)
    {
        model.decisions += other.model.decisions;
        model.epochs += other.model.epochs;
        model.pcLookups += other.model.pcLookups;
        model.pcHits += other.model.pcHits;
        host.bytesRead += other.host.bytesRead;
        host.libraryHits += other.host.libraryHits;
        host.libraryMisses += other.host.libraryMisses;
    }
};

/**
 * Mirror of the process-wide decode memo behind bench::runTraced: one
 * lock held across each trace read and decode, and every decoded trace
 * kept until the process ends. Concurrent cells wait for one another
 * and grow the heap exactly as they do in SweepRunner.
 */
struct DecodeMemo
{
    std::mutex mutex;
    std::vector<std::shared_ptr<const trace::TraceData>> entries;
};

/** One cell (or baseline) re-driven from the library with spans. */
RunSummary
replayCell(const trace::TraceLibrary &lib, const trace::LibraryKey &key,
           dvfs::DvfsController &controller, const char *decide_span,
           const bench::BenchOptions &opts, DecodeMemo &memo,
           Tracer &tracer, ReplayCounts &counts)
{
    trace::TraceLibrary::GetResult got;
    {
        const ScopedSpan span(&tracer, "trace.library_lookup");
        got = lib.get(key);
    }
    if (got.status != trace::TraceLibrary::GetStatus::Hit) {
        ++counts.host.libraryMisses;
        return {};
    }
    ++counts.host.libraryHits;
    std::shared_ptr<const trace::TraceData> data;
    {
        std::unique_lock<std::mutex> lock(memo.mutex, std::defer_lock);
        {
            const ScopedSpan span(&tracer, "sweep.memo_lock_wait");
            lock.lock();
        }
        const ScopedSpan span(&tracer, "trace.decode");
        trace::TraceReadResult read = trace::readTraceFile(got.tracePath);
        if (read.ok()) {
            data = std::make_shared<const trace::TraceData>(
                std::move(*read.trace));
            memo.entries.push_back(data);
        }
    }
    std::error_code ec;
    const std::uintmax_t bytes =
        std::filesystem::file_size(got.tracePath, ec);
    if (!ec)
        counts.host.bytesRead += bytes;
    if (data == nullptr)
        return {};

    TimedController timed(controller, &tracer, decide_span);
    trace::ReplayDriver replayer(*data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = true;
    ropts.auditRegret = opts.auditRegret;
    ropts.liveMetricProfile = true;
    trace::ReplayOutcome outcome;
    {
        const ScopedSpan span(&tracer, "trace.replay");
        outcome = replayer.run(timed, ropts);
    }
    outcome.result.workload = key.workload;
    counts.model.decisions += timed.decisions();
    counts.model.epochs += outcome.result.epochs;
    addPcTableCounts(controller, counts.model);
    return summarizeRun(outcome.result,
                        outcome.deterministic(), opts);
}

/** The traced pass: the grid re-driven in this process with spans. */
PassOutcome
tracedPass(const Grid &g, Tracer &tracer, std::int64_t &cell_id,
           ReplayCounts &counts, SweepStats &st)
{
    PassOutcome out;
    std::mutex merge;
    DecodeMemo memo;
    const std::int64_t t0 = nowNs();
    {
        const ScopedSpan root(&tracer, "bench.pass");
        const std::int64_t pass_id = root.id();
        sim::ParallelExecutor exec(sweepThreads);
        const trace::TraceLibrary lib(g.base.traceCacheDir);

        std::vector<AppPtr> apps(g.workloads.size());
        timedBatch(exec, apps.size(), st, [&](std::size_t i) {
            const ScopedSpan span(&tracer, "workloads.build", pass_id);
            apps[i] = bench::makeApp(g.workloads[i], g.base);
        });
        std::map<std::string, AppPtr> app_of;
        for (std::size_t i = 0; i < apps.size(); ++i)
            app_of[g.workloads[i]] = apps[i];

        const std::int64_t first_id = cell_id;
        out.baselines.resize(g.baselines.size());
        timedBatch(exec, g.baselines.size(), st, [&](std::size_t i) {
            const ScopedCell cell(first_id + static_cast<std::int64_t>(i));
            const ScopedSpan span(&tracer, "sweep.cell", pass_id);
            const auto &[workload, opts] = g.baselines[i];
            const sim::RunConfig cfg = opts.runConfig();
            dvfs::StaticController nominal(static_cast<std::size_t>(
                power::VfTable::paperTable().indexOf(cfg.nominalFreq)));
            ReplayCounts mine;
            out.baselines[i] = replayCell(
                lib, libraryKey(g, workload, baselineDesign, opts),
                nominal, "dvfs.decide", opts, memo, tracer, mine);
            const std::lock_guard<std::mutex> lock(merge);
            counts.add(mine);
        });
        cell_id += static_cast<std::int64_t>(g.baselines.size());

        const std::int64_t cells_id = cell_id;
        out.cells.resize(g.cells.size());
        out.cellWallMs.resize(g.cells.size());
        timedBatch(exec, g.cells.size(), st, [&](std::size_t i) {
            const std::int64_t c0 = nowNs();
            const ScopedCell cell(cells_id + static_cast<std::int64_t>(i));
            const ScopedSpan span(&tracer, "sweep.cell", pass_id);
            const GridCell &gc = g.cells[i];
            sim::RunConfig cfg = gc.opts.runConfig();
            cfg.gpu.seed = cellSeed(gc.opts.seed, gc.workload, gc.design);
            std::unique_ptr<dvfs::DvfsController> ctrl;
            {
                const ScopedSpan make(&tracer, "zoo.make_controller");
                ctrl = bench::makeController(
                    gc.design, cfg, app_of.at(gc.workload).get());
            }
            ReplayCounts mine;
            out.cells[i] = replayCell(
                lib, libraryKey(g, gc.workload, gc.design, gc.opts), *ctrl,
                decideSpanFor(gc.design), gc.opts, memo, tracer, mine);
            out.cellWallMs[i] = 1e-6 * static_cast<double>(nowNs() - c0);
            const std::lock_guard<std::mutex> lock(merge);
            counts.add(mine);
        });
        cell_id += static_cast<std::int64_t>(g.cells.size());
    }
    out.wallS = 1e-9 * static_cast<double>(nowNs() - t0);
    return out;
}

/** What one traced pass reports back from its child process. */
struct TracedPass
{
    PassOutcome pass;
    SweepStats stats;
    ReplayCounts counts;
    SpanSummary summary;
    std::size_t spans = 0;
};

/**
 * tracedPass() in a forked child (so it starts as cold as an untraced
 * pass does), writing its spans to @p span_path there.
 */
TracedPass
forkedTracedPass(const Grid &g, const std::string &span_path)
{
    TracedPass out;
    const auto body = [&] {
        Tracer tracer;
        std::int64_t cell_id = 0;
        ReplayCounts counts;
        SweepStats st;
        const PassOutcome pass = tracedPass(g, tracer, cell_id, counts, st);
        const std::vector<Span> spans = tracer.spans();
        writeSpans(span_path, spans);
        std::ostringstream os;
        os.precision(17);
        os << st.queueWaitS << ' ' << st.busyS << ' ' << st.batchWallS
           << ' ' << counts.model.decisions << ' ' << counts.model.epochs
           << ' ' << counts.model.pcLookups << ' ' << counts.model.pcHits
           << ' ' << counts.host.bytesRead << ' '
           << counts.host.libraryHits << ' ' << counts.host.libraryMisses
           << ' ' << spans.size() << '\n'
           << sectionMark << encodePass(pass) << sectionMark
           << summarize(spans, {"sweep.cell"}).encode();
        return os.str();
    };
    std::string text;
    if (!runInChild(body, text, out.pass.error))
        return out;
    const std::size_t a = text.find(sectionMark);
    const std::size_t b = text.find(sectionMark, a + sectionMark.size());
    std::istringstream head(text.substr(0, a));
    const bool ok = a != std::string::npos && b != std::string::npos &&
        static_cast<bool>(
            head >> out.stats.queueWaitS >> out.stats.busyS >>
            out.stats.batchWallS >> out.counts.model.decisions >>
            out.counts.model.epochs >> out.counts.model.pcLookups >>
            out.counts.model.pcHits >> out.counts.host.bytesRead >>
            out.counts.host.libraryHits >> out.counts.host.libraryMisses >>
            out.spans) &&
        decodePass(text.substr(a + sectionMark.size(),
                               b - a - sectionMark.size()),
                   out.pass) &&
        out.summary.decode(text.substr(b + sectionMark.size()));
    if (!ok)
        out.pass.error = "traced pass result unreadable";
    return out;
}

/** Compare a pass with the live results captured during set-up. */
void
checkAgainstLive(const Grid &g, const PassOutcome &p,
                 const PassOutcome &live, const char *what,
                 Report &report)
{
    if (!p.error.empty()) {
        report.attempted += g.cells.size();
        report.failed += g.cells.size();
        report.failures.push_back(std::string(what) + ": " + p.error);
        return;
    }
    for (std::size_t i = 0; i < g.cells.size(); ++i) {
        ++report.attempted;
        const GridCell &gc = g.cells[i];
        const RunSummary &run = p.cells[i];
        const RunSummary &base = p.baselines[gc.baseline];
        std::string why;
        if (!run.ok || !base.ok)
            why = "cell or its baseline failed";
        else if (run.fingerprint != live.cells[i].fingerprint)
            why = "RunResult differs from the live capture";
        else if (base.fingerprint !=
                 live.baselines[gc.baseline].fingerprint)
            why = "baseline differs from the live capture";
        if (!why.empty()) {
            ++report.failed;
            report.failures.push_back(std::string(what) + " " +
                                      gc.workload + " x " + gc.design +
                                      ": " + why);
        }
    }
}

/** Replayed epochs, instructions and CU-cycles of one pass. */
struct PassWork
{
    double epochs = 0.0;
    double instructions = 0.0;
    double cuCycles = 0.0;
};

PassWork
workOf(const PassOutcome &p)
{
    PassWork w;
    const auto add = [&w](const RunSummary &s) {
        w.epochs += static_cast<double>(s.epochs);
        w.instructions += static_cast<double>(s.instructions);
        w.cuCycles += static_cast<double>(s.cuCycles);
    };
    for (const RunSummary &s : p.cells)
        add(s);
    for (const RunSummary &s : p.baselines)
        add(s);
    return w;
}

} // namespace

Report
runReplayStudy(const Options &o)
{
    const Grid g = makeGrid(o);
    Report report;
    std::printf("config: %u CUs, 1 us epochs, scale %.2f, %zu designs x "
                "%zu workloads x 3 objectives = %zu cells + %zu "
                "baselines per pass, SweepRunner --trace-cache with %u "
                "threads\n",
                g.base.cus, g.base.scale, designs.size(),
                g.workloads.size(), g.cells.size(), g.baselines.size(),
                sweepThreads);
    std::printf("validity: the library is captured fresh during set-up "
                "from cells that start with empty caches; the memory "
                "system is scaled to %u CUs by sim::scaleToCus; the "
                "model is not validated against hardware\n",
                g.base.cus);

    // --- set-up: app generation and a fresh library capture.
    std::map<std::string, AppPtr> apps;
    std::vector<double> setup_s;
    std::vector<double> build_s;
    PassOutcome live;
    for (int r = 0; r < setupRepeats; ++r) {
        const std::int64_t t0 = nowNs();
        std::filesystem::remove_all(g.base.traceCacheDir);
        apps = buildApps(g);
        build_s.push_back(1e-9 * static_cast<double>(nowNs() - t0));
        PassOutcome capture = sweepPass(g, apps);
        setup_s.push_back(1e-9 * static_cast<double>(nowNs() - t0));
        if (r > 0)
            checkAgainstLive(g, capture, live, "set-up repeat", report);
        live = std::move(capture);
    }
    const std::size_t entries =
        trace::TraceLibrary(g.base.traceCacheDir).entryCount();
    report.check(entries == g.cells.size() + g.baselines.size(),
                 "library holds " + std::to_string(entries) +
                     " entries after set-up");
    std::printf("setup: %d repeats, median %.4f s; library entries %zu\n",
                setupRepeats, median(setup_s), entries);

    // --- untraced passes, one child process each.
    const double budget = o.trace ? o.seconds / 2.0 : o.seconds;
    std::vector<PassOutcome> passes;
    bool library_unchanged = true;
    PassBudget timer(budget);
    do {
        PassOutcome p = forkedPass(g, apps);
        checkAgainstLive(g, p, live, "warm replay", report);
        library_unchanged = library_unchanged &&
            trace::TraceLibrary(g.base.traceCacheDir).entryCount() ==
                entries;
        if (p.error.empty())
            passes.push_back(std::move(p));
    } while (timer.another());
    if (passes.empty())
        fatal("no replay pass completed");
    report.check(library_unchanged,
                 "a timed pass simulated live (the library grew)");

    // The host is shared and its interference comes in bursts, so
    // each figure is the best of the run's passes (min-of-N); every
    // pass replays the same work.
    const PassWork work = workOf(passes.front());
    double best_wall = passes[0].wallS;
    double best_p50 = 0.0, best_p90 = 0.0;
    std::vector<double> pass_walls;
    for (const PassOutcome &p : passes) {
        best_wall = std::min(best_wall, p.wallS);
        pass_walls.push_back(p.wallS);
        const double p50 = quantile(p.cellWallMs, 0.5);
        const double p90 = quantile(p.cellWallMs, 0.9);
        best_p50 = &p == &passes[0] ? p50 : std::min(best_p50, p50);
        best_p90 = &p == &passes[0] ? p90 : std::min(best_p90, p90);
    }
    std::printf("timed: %zu passes, fastest %.4f s, median %.4f s; "
                "%zu cells per pass; replayed per pass: %.0f epochs, "
                "%.0f instructions, %.0f CU-cycles; library unchanged "
                "by the timed phase (no live simulation): %s\n",
                passes.size(), best_wall, median(pass_walls),
                g.cells.size(), work.epochs, work.instructions,
                work.cuCycles, library_unchanged ? "yes" : "no");
    report.set("sim_cu_cycles_per_s", work.cuCycles / best_wall,
               "CU-cycles/s");
    report.set("sim_instr_per_s", work.instructions / best_wall,
               "instr/s");
    report.set("epochs_per_s", work.epochs / best_wall, "1/s");
    report.set("cell_wall_ms_p50", best_p50, "ms");
    report.set("cell_wall_ms_p90", best_p90, "ms");
    report.set("setup_s", median(setup_s), "s");
    report.set("workloads.build_s", median(build_s), "s");
    if (!o.trace)
        return report;

    // --- traced passes, one child process each like the untraced ones.
    const std::string span_path =
        o.outDir + "/spans-" + o.workload + ".tsv";
    std::vector<TracedPass> traced;
    PassBudget ttimer(budget);
    do {
        TracedPass t = forkedTracedPass(g, span_path);
        checkAgainstLive(g, t.pass, live, "traced replay", report);
        if (t.pass.error.empty())
            traced.push_back(std::move(t));
    } while (ttimer.another());
    if (traced.empty())
        fatal("no traced replay pass completed");

    SpanSummary summary;
    ReplayCounts counts;
    SweepStats st;
    std::vector<double> traced_walls;
    for (const TracedPass &t : traced) {
        report.check(t.counts.model == traced.front().counts.model,
                     "model counts differ between traced passes");
        summary.merge(t.summary);
        counts.add(t.counts);
        st.queueWaitS += t.stats.queueWaitS;
        st.busyS += t.stats.busyS;
        st.batchWallS += t.stats.batchWallS;
        traced_walls.push_back(t.pass.wallS);
    }
    const ModelCounts &per_pass = traced.front().counts.model;
    report.check(static_cast<double>(per_pass.epochs) == work.epochs,
                 "traced replayed epochs differ from the untraced run");

    const double np = static_cast<double>(traced.size());
    reportLayers(summary, np, {"sweep.cell"}, report);
    reportCounts(per_pass, counts.host, np, report);
    const double lock_wait = summary.totalS.count("sweep.memo_lock_wait")
        ? summary.totalS.at("sweep.memo_lock_wait") : 0.0;
    report.set("sweep.queue_wait_s", st.queueWaitS / np, "s");
    report.set("sweep.cell_busy_s", st.busyS / np, "s");
    // Time a worker spends blocked on the decode memo lock is not
    // useful work.
    report.set("sweep.worker_utilization",
               st.batchWallS > 0.0
                   ? (st.busyS - lock_wait) /
                       (sweepThreads * st.batchWallS)
                   : 0.0,
               "ratio");
    report.set("bench.trace_overhead_pct",
               100.0 * (*std::min_element(traced_walls.begin(),
                                          traced_walls.end()) /
                            best_wall -
                        1.0),
               "%");
    printCounts("model counts per traced pass (exact)", per_pass);
    std::printf("spans: %zu of the last traced pass written to %s\n",
                traced.back().spans, span_path.c_str());
    return report;
}

} // namespace perfbench
