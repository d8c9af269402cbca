/**
 * @file
 * The live workloads, live_64cu and oracle_8cu: closed-loop batches
 * of live simulation cells run one at a time.
 *
 * The untraced run drives every cell through the program's own path
 * (sim::ExperimentDriver::run, with a trace::TraceCapture observer on
 * PCSTALL cells). The traced run re-drives the same cells through the
 * layers' public entry points in the order ExperimentDriver::run
 * calls them, recording a span around each call; its RunResults must
 * equal the untraced ones bit for bit.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "core/pcstall_controller.hh"
#include "faults/fault_injector.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "perfbench.hh"
#include "power/power_model.hh"
#include "sim/epoch_ledger.hh"
#include "sim/parallel_executor.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/snapshot.hh"

namespace perfbench
{

namespace
{

using AppPtr = std::shared_ptr<const isa::Application>;

/** Set-up is repeated this many times; setup_s is the median. */
constexpr int setupRepeats = 25;

struct CellSpec
{
    std::string workload;
    /** Registry design, or "STATIC" for the static-nominal baseline. */
    std::string design;
    /** Capture the cell's epoch trace (replay-first usage). */
    bool capture = false;
};

struct Study
{
    bench::BenchOptions opts;
    std::vector<std::string> workloads;
    std::vector<CellSpec> cells;
};

Study
makeStudy(const Options &o)
{
    Study s;
    s.opts.seed = o.seed;
    s.opts.scale = 0.25;
    s.opts.threads = 1;
    s.workloads = {"comd", "xsbench"};
    if (o.workload == "live_64cu") {
        s.opts.cus = 64;
        for (const std::string &w : s.workloads) {
            s.cells.push_back({w, "PCSTALL", true});
            s.cells.push_back({w, "STALL", false});
            s.cells.push_back({w, "STATIC", false});
        }
    } else {
        s.opts.cus = 8;
        s.opts.oracleThreads = 2;
        for (const std::string &w : s.workloads)
            s.cells.push_back({w, "ACCPC", false});
    }
    return s;
}

struct CellRun
{
    sim::RunResult result;
    std::uint64_t fingerprint = 0;
    std::uint64_t cuCycles = 0;
    double wallS = 0.0;
    /** Wall time of each epoch boundary-to-boundary segment (untraced
     *  runs only): the same simulated work in every pass. */
    std::vector<double> segmentS;
    std::string error;
};

struct Pass
{
    double wallS = 0.0;
    std::vector<CellRun> cells;
    ModelCounts counts;
    HostCounts host;
};

sim::RunConfig
cellConfig(const bench::BenchOptions &opts, const CellSpec &cell)
{
    sim::RunConfig cfg = opts.runConfig();
    cfg.gpu.seed = cellSeed(opts.seed, cell.workload, cell.design);
    return cfg;
}

std::unique_ptr<dvfs::DvfsController>
makeCellController(const CellSpec &cell, const sim::RunConfig &cfg,
                   const AppPtr &app, std::size_t nominal)
{
    if (cell.design == "STATIC")
        return std::make_unique<dvfs::StaticController>(nominal);
    return bench::makeController(cell.design, cfg, app.get());
}

std::string
capturePath(const Options &o, const CellSpec &cell)
{
    return o.outDir + "/" + o.workload + "-" + cell.workload + "-" +
        cell.design + ".pctrace";
}

/** Attach the PC-table snapshot provider a --trace-out capture uses. */
void
embedPcTables(trace::TraceCapture &capture,
              const dvfs::DvfsController &controller)
{
    const auto *pc =
        dynamic_cast<const core::PcstallController *>(&controller);
    if (pc != nullptr) {
        capture.setSnapshotProvider(
            [pc] { return trace::snapshotPcTables(pc->pcTables()); });
    }
}

/** Timestamps each epoch boundary of an untraced run. */
class EpochClock final : public sim::EpochObserver
{
  public:
    void onEpoch(const sim::EpochCapture &) override
    {
        stamps.push_back(nowNs());
    }

    std::vector<std::int64_t> stamps;
};

/** One cell through the program's own path. */
CellRun
runCell(const Options &o, const bench::BenchOptions &opts,
        const CellSpec &cell, const AppPtr &app)
{
    CellRun out;
    EpochClock clock;
    const std::int64_t t0 = nowNs();
    try {
        const sim::RunConfig cfg = cellConfig(opts, cell);
        sim::ExperimentDriver driver(cfg);
        std::unique_ptr<dvfs::DvfsController> ctrl =
            makeCellController(cell, cfg, app, driver.nominalState());
        if (cell.capture) {
            trace::TraceWriter writer(
                capturePath(o, cell),
                trace::makeTraceMeta(driver.config(), driver.table(),
                                     cell.workload, *ctrl));
            trace::TraceCapture capture(writer);
            embedPcTables(capture, *ctrl);
            sim::MultiObserver observers;
            observers.add(&capture);
            observers.add(&clock);
            out.result = driver.run(app, *ctrl, &observers);
            if (!writer.ok() || !capture.finished())
                out.error = "trace capture failed";
        } else {
            out.result = driver.run(app, *ctrl, &clock);
        }
        out.cuCycles = cuCyclesOf(out.result, cfg);
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    const std::int64_t t1 = nowNs();
    out.wallS = 1e-9 * static_cast<double>(t1 - t0);
    std::int64_t prev = t0;
    clock.stamps.push_back(t1);
    for (const std::int64_t t : clock.stamps) {
        out.segmentS.push_back(1e-9 * static_cast<double>(t - prev));
        prev = t;
    }
    out.fingerprint = resultFingerprint(out.result);
    return out;
}

/**
 * ExperimentDriver::run, re-driven call for call through the layers'
 * public entry points with a span around each call and the model
 * counts read at each epoch boundary.
 */
sim::RunResult
mirroredRun(const sim::RunConfig &cfg, const AppPtr &app,
            dvfs::DvfsController &controller,
            sim::EpochObserver *observer, Tracer &tracer,
            ModelCounts &counts, HostCounts &host)
{
    const std::string err = sim::validateRunConfig(cfg);
    fatalIf(!err.empty(), err);
    const power::VfTable vf_table = power::VfTable::paperTable();
    const power::PowerModel power_model(cfg.power);
    const std::size_t nominal_idx =
        static_cast<std::size_t>(vf_table.indexOf(cfg.nominalFreq));

    gpu::GpuConfig gpu_cfg = cfg.gpu;
    gpu_cfg.defaultFreq = cfg.nominalFreq;
    std::optional<gpu::GpuChip> chip_storage;
    {
        const ScopedSpan span(&tracer, "gpu.construct");
        chip_storage.emplace(gpu_cfg, app);
    }
    gpu::GpuChip &chip = *chip_storage;

    const dvfs::DomainMap domains(gpu_cfg.numCus, cfg.cusPerDomain);
    const Tick trans = cfg.transitionLatency >= 0
        ? cfg.transitionLatency
        : gpu::transitionLatencyFor(cfg.epochLen);
    const dvfs::SweepNeed need = controller.sweepNeed();

    oracle::SnapshotPool sweep_pool;
    std::unique_ptr<sim::ParallelExecutor> sweep_exec;
    oracle::SweepOptions sweep_opts;
    sweep_opts.shuffle = true;
    sweep_opts.waveLevel = controller.needsWaveLevel();
    sweep_opts.pool = &sweep_pool;
    if (cfg.oracleThreads > 1 && need != dvfs::SweepNeed::None)
        sweep_exec =
            std::make_unique<sim::ParallelExecutor>(cfg.oracleThreads);
    sweep_opts.executor = sweep_exec.get();

    faults::FaultInjector injector(cfg.faults);
    sim::EpochLedger ledger(cfg, vf_table, power_model, domains,
                            nominal_idx);

    sim::RunResult result;
    result.controller = controller.name();
    result.workload = app->name;

    dvfs::AccurateEstimates prev_sweep;
    static const std::vector<gpu::WaveSnapshot> no_snapshots;
    static const std::vector<dvfs::DomainDecision> no_decisions;
    static const std::vector<std::size_t> no_applied;

    Tick epoch_start = 0;
    bool done = false;
    gpu::EpochRecord record;
    gpu::EpochRecord observed_storage;
    while (!done && epoch_start < cfg.maxSimTime) {
        const Tick epoch_end = epoch_start + cfg.epochLen;
        {
            const ScopedSpan span(&tracer, "gpu.run_until");
            done = chip.runUntil(epoch_end);
        }
        ++counts.runUntilCalls;
        for (std::uint32_t cu = 0; cu < gpu_cfg.numCus; ++cu) {
            const memory::MemActivity &a = chip.memory().activity(cu);
            counts.l1Hits += a.l1Hits;
            counts.l1Misses += a.l1Misses;
            counts.l2Hits += a.l2Hits;
            counts.l2Misses += a.l2Misses;
            counts.storesCombined += a.storesCombined;
        }
        {
            const ScopedSpan span(&tracer, "gpu.harvest");
            chip.harvestEpoch(epoch_start, record);
        }
        ++result.epochs;
        for (const gpu::CuEpochRecord &cu : record.cus) {
            counts.cuCycles += cyclesPerEpoch(cfg.epochLen, cu.freq);
            counts.instructions += cu.committed;
            counts.busyTicks += static_cast<std::uint64_t>(cu.busy);
            counts.loadStallTicks +=
                static_cast<std::uint64_t>(cu.loadStall);
        }
        for (const gpu::WaveEpochRecord &wave : record.waves) {
            counts.barrierStallTicks +=
                static_cast<std::uint64_t>(wave.barrierStall);
        }

        const faults::FaultInjector::Totals epoch_base =
            injector.totals();
        const std::uint64_t fallback_base = controller.fallbackEpochs();
        const gpu::EpochRecord *observed = &record;
        if (cfg.faults.telemetry.enabled) {
            observed_storage = record;
            injector.perturbRecord(observed_storage, cfg.epochLen);
            observed = &observed_storage;
        }

        const Tick accounted_end =
            done ? std::min(epoch_end, chip.lastCommitTick()) : epoch_end;
        {
            const ScopedSpan span(&tracer, "sim.ledger");
            ledger.observeEpoch(record, *observed, epoch_start,
                                accounted_end);
        }

        if (done) {
            if (observer) {
                observer->onEpoch(sim::EpochCapture{
                    epoch_start, epoch_end, accounted_end, true,
                    record, no_snapshots, nullptr, no_decisions,
                    no_applied});
            }
            break;
        }

        dvfs::AccurateEstimates cur_sweep;
        if (need != dvfs::SweepNeed::None) {
            const ScopedSpan span(&tracer, "oracle.sweep");
            cur_sweep = oracle::forkPreExecuteSweep(
                chip, domains, vf_table, cfg.epochLen, sweep_opts);
            ++counts.oracleSweeps;
            counts.oracleSamples += vf_table.numStates();
        }

        std::optional<std::vector<gpu::WaveSnapshot>> snaps_storage;
        {
            const ScopedSpan span(&tracer, "gpu.harvest");
            snaps_storage.emplace(chip.waveSnapshots());
        }
        const std::vector<gpu::WaveSnapshot> &snaps = *snaps_storage;
        std::optional<dvfs::EpochContext> ctx;
        {
            const ScopedSpan span(&tracer, "sim.ledger");
            ctx.emplace(ledger.makeContext(
                *observed, snaps,
                prev_sweep.empty() ? nullptr : &prev_sweep,
                cur_sweep.empty() ? nullptr : &cur_sweep));
        }

        controller.applyStorageFaults(injector);

        std::vector<dvfs::DomainDecision> decisions;
        {
            const ScopedSpan span(&tracer, "sim.decide_epoch");
            decisions = sim::decideEpoch(
                controller, *ctx, need, !prev_sweep.empty(),
                domains.numDomains(), nominal_idx);
        }

        std::vector<sim::EpochLedger::AppliedTransition> applied;
        {
            const ScopedSpan span(&tracer, "sim.ledger");
            applied = ledger.applyDecisions(decisions, injector);
        }
        {
            const ScopedSpan span(&tracer, "gpu.set_frequency");
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
                const Freq freq = vf_table.state(applied[d].state).freq;
                const std::uint32_t first = domains.firstCu(d);
                for (std::uint32_t cu = first;
                     cu < first + domains.cusPerDomain(); ++cu) {
                    chip.setCuFrequency(
                        cu, freq, trans + applied[d].extraLatency);
                }
            }
        }
        {
            const ScopedSpan span(&tracer, "sim.ledger");
            ledger.traceEpochFaults(
                epoch_base, injector,
                controller.fallbackEpochs() > fallback_base);
        }

        if (observer) {
            std::vector<std::size_t> applied_states(
                domains.numDomains());
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d)
                applied_states[d] = applied[d].state;
            observer->onEpoch(sim::EpochCapture{
                epoch_start, epoch_end, accounted_end, false, record,
                snaps, cur_sweep.empty() ? nullptr : &cur_sweep,
                decisions, applied_states, &ledger.lastEpochFaults()});
        }

        prev_sweep = std::move(cur_sweep);
        epoch_start = epoch_end;
    }

    if (!done) {
        warn("run of '" + app->name + "' under " + controller.name() +
             " hit the simulation wall");
    }
    {
        const ScopedSpan span(&tracer, "sim.ledger");
        ledger.finalize(result, done, chip.lastCommitTick(),
                        chip.totalCommitted(), injector, controller);
    }
    if (observer)
        observer->onRunEnd(result);
    counts.epochs += result.epochs;
    host.restoresFull += sweep_pool.fullRestores();
    // The delta-restore counter exists only while the pool has a
    // dirty-region restore path; without one every restore is full.
    if constexpr (requires(const oracle::SnapshotPool &p) {
                      p.deltaRestores();
                  }) {
        host.restoresDelta += sweep_pool.deltaRestores();
    }
    return result;
}

/** One cell re-driven through mirroredRun() with spans. */
CellRun
runMirroredCell(const Options &o, const bench::BenchOptions &opts,
                const CellSpec &cell, const AppPtr &app,
                std::int64_t cell_id, Tracer &tracer, Pass &pass)
{
    CellRun out;
    const ScopedCell scope(cell_id);
    const std::int64_t t0 = nowNs();
    try {
        const ScopedSpan root(&tracer, "sim.cell");
        const sim::RunConfig cfg = cellConfig(opts, cell);
        std::unique_ptr<dvfs::DvfsController> ctrl;
        {
            const ScopedSpan span(&tracer, "zoo.make_controller");
            const std::size_t nominal = static_cast<std::size_t>(
                power::VfTable::paperTable().indexOf(cfg.nominalFreq));
            ctrl = makeCellController(cell, cfg, app, nominal);
        }
        TimedController timed(*ctrl, &tracer,
                              decideSpanFor(cell.design));
        if (cell.capture) {
            const std::string path = capturePath(o, cell);
            {
                trace::TraceWriter writer(
                    path, trace::makeTraceMeta(
                              cfg, power::VfTable::paperTable(),
                              cell.workload, *ctrl));
                trace::TraceCapture capture(writer);
                embedPcTables(capture, *ctrl);
                TimedObserver observer(capture, &tracer);
                out.result = mirroredRun(cfg, app, timed, &observer,
                                         tracer, pass.counts, pass.host);
                if (!writer.ok() || !capture.finished())
                    out.error = "trace capture failed";
            }
            std::error_code ec;
            const std::uintmax_t bytes =
                std::filesystem::file_size(path, ec);
            if (!ec)
                pass.host.bytesWritten += bytes;
        } else {
            out.result = mirroredRun(cfg, app, timed, nullptr, tracer,
                                     pass.counts, pass.host);
        }
        pass.counts.decisions += timed.decisions();
        addPcTableCounts(*ctrl, pass.counts);
        out.cuCycles = cuCyclesOf(out.result, cfg);
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    out.wallS = 1e-9 * static_cast<double>(nowNs() - t0);
    out.fingerprint = resultFingerprint(out.result);
    return out;
}

/** Replay a PCSTALL capture; true when it reproduces @p live. */
bool
replayMatches(const Options &o, const bench::BenchOptions &opts,
              const CellSpec &cell, const AppPtr &app,
              const CellRun &live, std::string &why)
{
    trace::TraceReadResult read = trace::readTraceFile(capturePath(o, cell));
    if (!read.ok()) {
        why = read.error;
        return false;
    }
    const sim::RunConfig cfg = cellConfig(opts, cell);
    std::unique_ptr<dvfs::DvfsController> ctrl =
        bench::makeController(cell.design, cfg, app.get());
    trace::ReplayDriver replayer(*read.trace);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = true;
    const trace::ReplayOutcome outcome = replayer.run(*ctrl, ropts);
    if (!outcome.ok()) {
        why = outcome.error;
        return false;
    }
    if (outcome.decisionMismatches != 0) {
        why = std::to_string(outcome.decisionMismatches) +
            " decision mismatch(es); first: " + outcome.firstMismatch;
        return false;
    }
    if (resultFingerprint(outcome.result) != live.fingerprint) {
        why = "replayed RunResult differs from the live run";
        return false;
    }
    return true;
}

std::string
cellName(const CellSpec &cell)
{
    return cell.workload + " x " + cell.design;
}

/** Output checks on one untraced pass, outside its timed region. */
void
checkPass(const Options &o, const Study &s,
          const std::map<std::string, AppPtr> &apps, const Pass &pass,
          const Pass *reference, Report &report)
{
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        const CellSpec &cell = s.cells[i];
        const CellRun &run = pass.cells[i];
        ++report.attempted;
        std::string why;
        if (!run.error.empty())
            why = run.error;
        else if (!run.result.completed)
            why = "did not complete";
        else if (reference != nullptr &&
                 run.fingerprint != reference->cells[i].fingerprint)
            why = "RunResult differs from the first pass";
        else if (cell.capture &&
                 !replayMatches(o, s.opts, cell, apps.at(cell.workload),
                                run, why)) {
            why = "capture replay: " + why;
        }
        if (!why.empty()) {
            ++report.failed;
            report.failures.push_back(cellName(cell) + ": " + why);
        }
    }
}

const CellRun *
findCell(const Study &s, const Pass &pass, const std::string &workload,
         const std::string &design)
{
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        if (s.cells[i].workload == workload &&
            s.cells[i].design == design)
            return &pass.cells[i];
    }
    return nullptr;
}

/** Print a model metric with the paper's reference beside it. */
void
printModel(const char *name, double value, const char *unit,
           double paper, const char *source)
{
    std::printf("  %-26s %.17g %s  (paper %s: %g; difference %+.4g)\n",
                name, value, unit, source, paper, value - paper);
}

/** The model metrics (deterministic) of one untraced pass. */
void
reportModel(const Options &o, const Study &s, const Pass &pass)
{
    std::printf("model metrics (deterministic; printed bit-exact):\n");
    if (o.workload == "live_64cu") {
        double pc_acc = 0.0;
        double gap = 0.0;
        double log_ratio = 0.0;
        for (const std::string &w : s.workloads) {
            const sim::RunResult &pc =
                findCell(s, pass, w, "PCSTALL")->result;
            const sim::RunResult &stall =
                findCell(s, pass, w, "STALL")->result;
            const sim::RunResult &base =
                findCell(s, pass, w, "STATIC")->result;
            pc_acc += 100.0 * pc.predictionAccuracy;
            gap += 100.0 *
                (pc.predictionAccuracy - stall.predictionAccuracy);
            log_ratio += std::log(pc.ed2p() / base.ed2p());
        }
        const double n = static_cast<double>(s.workloads.size());
        printModel("pcstall_accuracy_pct", pc_acc / n, "%", 81.0,
                   "Fig 14 PCSTALL");
        printModel("pcstall_gap_vs_stall_pts", gap / n, "pts", 0.0,
                   "Fig 14 expects > 0; deviation D3");
        printModel("pcstall_ed2p_vs_static", std::exp(log_ratio / n),
                   "ratio", 0.52, "Fig 15 PCSTALL ED2P");
    } else {
        double acc = 0.0;
        for (const std::string &w : s.workloads)
            acc += 100.0 * findCell(s, pass, w, "ACCPC")->result
                               .predictionAccuracy;
        printModel("accpc_accuracy_pct",
                   acc / static_cast<double>(s.workloads.size()), "%",
                   90.0, "Fig 14 ACCPC ~");
    }
}

} // namespace

Report
runLiveStudy(const Options &o)
{
    const Study s = makeStudy(o);
    Report report;
    std::printf("config: %u CUs, 1 us epochs, scale %.2f, workloads "
                "comd (compute-bound) and xsbench (memory-bound), %zu "
                "cells per pass run one at a time%s\n",
                s.opts.cus, s.opts.scale, s.cells.size(),
                s.opts.oracleThreads > 1 ? ", --oracle-threads 2" : "");
    std::printf("validity: every cell starts with empty caches; the "
                "memory system is scaled to %u CUs by sim::scaleToCus; "
                "the model is not validated against hardware\n",
                s.opts.cus);

    // --- set-up: app generation, chip and snapshot-pool construction.
    std::map<std::string, AppPtr> apps;
    std::vector<double> setup_s;
    std::vector<double> build_s;
    for (int r = 0; r < setupRepeats; ++r) {
        const std::int64_t t0 = nowNs();
        apps.clear();
        for (const std::string &w : s.workloads) {
            AppPtr app = bench::makeApp(w, s.opts);
            fatalIf(app == nullptr, "workload '" + w + "' failed to build");
            apps[w] = std::move(app);
        }
        build_s.push_back(1e-9 * static_cast<double>(nowNs() - t0));
        const sim::RunConfig cfg = s.opts.runConfig();
        gpu::GpuConfig gpu_cfg = cfg.gpu;
        gpu_cfg.defaultFreq = cfg.nominalFreq;
        for (const std::string &w : s.workloads) {
            const gpu::GpuChip chip(gpu_cfg, apps[w]);
            if (s.opts.oracleThreads > 1) {
                oracle::SnapshotPool pool;
                pool.ensureSlots(power::VfTable::paperTable().numStates(),
                                 chip);
            }
        }
        setup_s.push_back(1e-9 * static_cast<double>(nowNs() - t0));
    }
    std::printf("setup: %d repeats, median %.4f s\n", setupRepeats,
                median(setup_s));

    // --- untraced passes (end-to-end metrics come only from these).
    const double budget = o.trace ? o.seconds / 2.0 : o.seconds;
    std::vector<Pass> passes;
    PassBudget timer(budget);
    do {
        Pass pass;
        const std::int64_t t0 = nowNs();
        for (const CellSpec &cell : s.cells)
            pass.cells.push_back(
                runCell(o, s.opts, cell, apps.at(cell.workload)));
        pass.wallS = 1e-9 * static_cast<double>(nowNs() - t0);
        checkPass(o, s, apps, pass, passes.empty() ? nullptr : &passes[0],
                  report);
        passes.push_back(std::move(pass));
    } while (timer.another());

    // The host is shared and its interference comes in bursts, so each
    // epoch of each cell is timed by its fastest pass (min-of-N): the
    // simulated work of an epoch is identical in every pass.
    std::vector<double> best_ms;
    double cycles = 0.0, instr = 0.0, epochs = 0.0, best_s = 0.0;
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        std::vector<double> seg = passes[0].cells[i].segmentS;
        for (const Pass &p : passes) {
            const std::vector<double> &other = p.cells[i].segmentS;
            for (std::size_t j = 0; j < seg.size() && j < other.size();
                 ++j)
                seg[j] = std::min(seg[j], other[j]);
        }
        double best = 0.0;
        for (const double x : seg)
            best += x;
        const CellRun &c = passes[0].cells[i];
        cycles += static_cast<double>(c.cuCycles);
        instr += static_cast<double>(c.result.instructions);
        epochs += static_cast<double>(c.result.epochs);
        best_s += best;
        best_ms.push_back(1e3 * best);
    }
    std::printf("timed: %zu passes x %zu cells; each epoch timed by its "
                "fastest pass (%zu cell samples)\n",
                passes.size(), s.cells.size(), best_ms.size());
    report.set("sim_cu_cycles_per_s", cycles / best_s, "CU-cycles/s");
    report.set("sim_instr_per_s", instr / best_s, "instr/s");
    report.set("epochs_per_s", epochs / best_s, "1/s");
    report.set("cell_wall_ms_p50", quantile(best_ms, 0.5), "ms");
    report.set("cell_wall_ms_p90", quantile(best_ms, 0.9), "ms");
    report.set("setup_s", median(setup_s), "s");
    report.set("workloads.build_s", median(build_s), "s");
    reportModel(o, s, passes.front());

    // Counts the untraced run can see, for the untraced/traced gate.
    std::uint64_t live_epochs = 0, live_instr = 0, live_cycles = 0;
    for (const CellRun &c : passes.front().cells) {
        live_epochs += c.result.epochs;
        live_instr += c.result.instructions;
        live_cycles += c.cuCycles;
    }
    std::printf("model counts per pass (exact): sim.epochs %llu, "
                "gpu.instructions %llu, gpu.cu_cycles %llu\n",
                static_cast<unsigned long long>(live_epochs),
                static_cast<unsigned long long>(live_instr),
                static_cast<unsigned long long>(live_cycles));
    if (!o.trace)
        return report;

    // --- traced passes: the same cells through the mirrored loop.
    Tracer tracer;
    std::vector<Pass> traced;
    std::vector<double> traced_walls;
    PassBudget ttimer(budget);
    std::int64_t cell_id = 0;
    do {
        Pass pass;
        const std::int64_t t0 = nowNs();
        {
            const ScopedSpan root(&tracer, "bench.pass");
            for (const CellSpec &cell : s.cells) {
                pass.cells.push_back(runMirroredCell(
                    o, s.opts, cell, apps.at(cell.workload), cell_id++,
                    tracer, pass));
            }
        }
        pass.wallS = 1e-9 * static_cast<double>(nowNs() - t0);
        traced_walls.push_back(pass.wallS);
        traced.push_back(std::move(pass));
    } while (ttimer.another());

    for (const Pass &p : traced) {
        for (std::size_t i = 0; i < s.cells.size(); ++i) {
            ++report.attempted;
            const CellRun &run = p.cells[i];
            std::string why;
            if (!run.error.empty())
                why = run.error;
            else if (run.fingerprint != passes[0].cells[i].fingerprint)
                why = "traced RunResult differs from the untraced run";
            if (!why.empty()) {
                ++report.failed;
                report.failures.push_back(cellName(s.cells[i]) +
                                          " (traced): " + why);
            }
        }
        report.check(p.counts == traced.front().counts,
                     "model counts differ between traced passes");
    }
    const ModelCounts &counts = traced.front().counts;
    report.check(counts.epochs == live_epochs &&
                     counts.instructions == live_instr &&
                     counts.cuCycles == live_cycles,
                 "traced epochs/instructions/CU-cycles differ from the "
                 "untraced run");

    if (s.opts.oracleThreads > 1) {
        // The in-cell oracle parallelism must not change any result.
        bench::BenchOptions serial = s.opts;
        serial.oracleThreads = 1;
        for (std::size_t i = 0; i < s.cells.size(); ++i) {
            ++report.attempted;
            const CellRun run =
                runCell(o, serial, s.cells[i],
                        apps.at(s.cells[i].workload));
            if (!run.error.empty() ||
                run.fingerprint != passes[0].cells[i].fingerprint) {
                ++report.failed;
                report.failures.push_back(
                    cellName(s.cells[i]) +
                    ": --oracle-threads 1 differs from 2");
            }
        }
    }

    std::vector<double> untraced_walls;
    for (const Pass &p : passes)
        untraced_walls.push_back(p.wallS);
    const double np = static_cast<double>(traced.size());
    const std::vector<std::string> cell_names = {"sim.cell"};
    const std::vector<Span> spans = tracer.spans();
    const SpanSummary summary = summarize(spans, cell_names);
    reportLayers(summary, np, cell_names, report);
    HostCounts host;
    for (const Pass &p : traced) {
        host.restoresFull += p.host.restoresFull;
        host.restoresDelta += p.host.restoresDelta;
        host.bytesWritten += p.host.bytesWritten;
    }
    reportCounts(counts, host, np, report);
    // Closed loop, one cell at a time: no queueing, one worker.
    const double busy = summary.totalS.count("sim.cell")
        ? summary.totalS.at("sim.cell") : 0.0;
    double traced_total = 0.0;
    for (const double w : traced_walls)
        traced_total += w;
    report.set("sweep.queue_wait_s", 0.0, "s");
    report.set("sweep.cell_busy_s", busy / np, "s");
    report.set("sweep.worker_utilization", busy / traced_total, "ratio");
    report.set("bench.trace_overhead_pct",
               100.0 * (*std::min_element(traced_walls.begin(),
                                          traced_walls.end()) /
                            *std::min_element(untraced_walls.begin(),
                                              untraced_walls.end()) -
                        1.0),
               "%");
    printCounts("model counts per traced pass (exact)", counts);
    const std::string span_path =
        o.outDir + "/spans-" + o.workload + ".tsv";
    if (writeSpans(span_path, spans))
        std::printf("spans: %zu written to %s\n", spans.size(),
                    span_path.c_str());
    return report;
}

} // namespace perfbench
