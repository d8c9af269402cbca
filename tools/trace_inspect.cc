/**
 * @file
 * trace_inspect: the epoch-trace Swiss-army knife.
 *
 *   trace_inspect header  <trace>            dump meta + trailer
 *   trace_inspect stats   <trace>            per-epoch statistics
 *   trace_inspect csv     <trace>            export run-trace CSV
 *   trace_inspect diff    <a> <b>            compare two traces
 *   trace_inspect capture --workload W --controller C --out T [...]
 *                                            run live and record
 *   trace_inspect replay  <trace> [--controller C]
 *                                            re-drive a controller
 *   trace_inspect metrics <trace> [--controller C] [--out F]
 *                                            replay under the metrics
 *                                            registry and report
 *   trace_inspect library <dir> [list|verify|gc]
 *                                            inspect a --trace-cache
 *                                            replay library
 *   trace_inspect explain <trace> [decisions|summary|cdf|csv|json]
 *                                            explain every DVFS
 *                                            decision of the run
 *
 * `capture` accepts every bench-harness option (--cus, --scale,
 * --epoch-us, --domain-cus, --seed, fault flags, ...). `replay`
 * rebuilds the captured controller from the trace meta (or any other
 * design via --controller), verifies its decisions against the
 * recorded ones when the names match, and reports the wall-clock
 * speedup over the captured live run. With --threads N (N > 1) the
 * replay is additionally re-driven N times concurrently on fresh
 * controllers and every outcome is checked for bit-identity - a
 * thread-safety/determinism self-test of the replay path. `explain`
 * replays the trace with a provenance sink armed and renders the
 * re-derived decision records (docs/provenance.md): the records are
 * a pure function of the trace and the controller, so the trace is
 * the only per-epoch record the harness stores. Exit status: 0 on
 * success / traces equal / replay deterministic, 1 otherwise.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/pcstall_controller.hh"
#include "obs/context.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "dvfs/hierarchical.hh"
#include "dvfs/objective.hh"
#include "harness.hh"
#include "sim/parallel_executor.hh"
#include "store/atomic_file.hh"
#include "trace/epoch_csv.hh"
#include "trace/format.hh"
#include "trace/library.hh"
#include "trace/replay.hh"
#include "trace/snapshot.hh"

using namespace pcstall;

namespace
{

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: trace_inspect <command> [arguments]\n"
        "  header  <trace>                     dump meta + trailer\n"
        "  stats   <trace>                     per-epoch statistics\n"
        "  csv     <trace>                     export run-trace CSV\n"
        "  diff    <a> <b>                     compare two traces\n"
        "  capture --workload W --controller C --out T [bench opts]\n"
        "  replay  <trace> [--controller C] [--pc-snapshot-out F]\n"
        "          [--no-verify] [--quiet]\n"
        "          [--threads N]   N concurrent re-drives, all\n"
        "                          verified bit-identical\n"
        "  metrics <trace> [--controller C] [--out F]\n"
        "          replay with the metrics registry armed and print\n"
        "          the merged snapshot; --out writes it as JSON (or\n"
        "          Prometheus text with a .prom/.txt extension)\n"
        "  library <dir> [list|verify|gc]\n"
        "          inspect a --trace-cache library: `list` (default)\n"
        "          tabulates entries without decoding, `verify`\n"
        "          decodes every entry and quarantines corrupt ones\n"
        "          (exit 1 when any fail), `gc` removes orphan traces,\n"
        "          dangling sidecars and stale staging temps\n"
        "  explain <trace> [decisions|summary|cdf|csv|json]\n"
        "          [--controller C] [--epoch N] [--limit N]\n"
        "          [--worst N] [--out F]\n"
        "          replay with a provenance sink and explain every\n"
        "          decision: `decisions` (default; first 20, --worst N\n"
        "          ranks by oracle regret, --epoch N picks one),\n"
        "          `summary` (regret rollup, hit rates, residency,\n"
        "          per-PC errors), `cdf` (relative oracle regret),\n"
        "          `csv` / `json` (per-(epoch, domain) export; --out\n"
        "          writes a file); --controller C explains a what-if\n"
        "Every command accepts --help.\n");
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

trace::TraceData
loadOrDie(const std::string &path)
{
    trace::TraceReadResult read = trace::readTraceFile(path);
    if (!read.ok())
        fatal(read.error);
    return std::move(*read.trace);
}

/**
 * A controller reconstructed from a trace meta (or overridden by
 * name), together with the inner controller a hierarchical wrapper
 * delegates to. `use` points at the controller to drive.
 */
struct ReplayController
{
    std::unique_ptr<dvfs::DvfsController> inner;
    std::unique_ptr<dvfs::HierarchicalPowerManager> wrapper;
    dvfs::DvfsController *use = nullptr;
};

ReplayController
makeReplayController(const trace::TraceMeta &meta, std::string name)
{
    ReplayController out;
    bool capped = meta.hierarchical.enabled;
    // A recorded "NAME+CAP" controller replays as NAME wrapped in the
    // recorded power-cap manager.
    if (name.size() > 4 && name.substr(name.size() - 4) == "+CAP")
        name = name.substr(0, name.size() - 4);
    else if (name != meta.controller)
        capped = false; // explicit uncapped override

    const sim::RunConfig cfg = trace::runConfigFromMeta(meta);
    // makeController understands STATIC[n] too.
    out.inner = bench::makeController(name, cfg);
    out.use = out.inner.get();
    if (capped) {
        dvfs::HierarchicalConfig hier;
        hier.powerCap = meta.hierarchical.powerCap;
        hier.reviewEpochs = meta.hierarchical.reviewEpochs;
        hier.widenBelow = meta.hierarchical.widenBelow;
        out.wrapper = std::make_unique<dvfs::HierarchicalPowerManager>(
            *out.inner, hier);
        out.use = out.wrapper.get();
    }
    return out;
}

void
printMeta(const trace::TraceData &data)
{
    const trace::TraceMeta &m = data.meta;
    std::printf("workload:        %s\n", m.workload.c_str());
    std::printf("controller:      %s%s\n", m.controller.c_str(),
                m.hierarchical.enabled ? " (power-capped)" : "");
    std::printf("geometry:        %u CUs, %u wave slots/CU, "
                "%u CU(s)/domain (%u domains)\n",
                m.numCus, m.waveSlotsPerCu, m.cusPerDomain,
                m.numDomains());
    std::printf("epoch length:    %.3f us\n",
                static_cast<double>(m.epochLen) /
                    static_cast<double>(tickUs));
    std::printf("objective:       %s\n",
                dvfs::objectiveName(
                    static_cast<dvfs::Objective>(m.objective)));
    std::printf("nominal freq:    %.2f GHz (state %d of %zu)\n",
                freqGHzD(m.nominalFreq), m.stateOf(m.nominalFreq),
                m.vfStates.size());
    std::printf("V/f table:       ");
    for (const power::VfState &s : m.vfStates)
        std::printf("%.1f@%.2fV ", freqGHzD(s.freq), s.voltage);
    std::printf("\n");
    std::printf("faults:          telemetry=%s dvfs=%s storage=%s "
                "(seed %" PRIu64 ")\n",
                m.faults.telemetry.enabled ? "on" : "off",
                m.faults.dvfs.enabled ? "on" : "off",
                m.faults.storage.enabled ? "on" : "off",
                m.faults.seed);
    std::printf("sweeps recorded: %s\n",
                m.sweepNeed != 0 ? "yes" : "no");
    std::printf("pc snapshot:     %s\n",
                data.pcSnapshot.empty()
                    ? "absent"
                    : (std::to_string(data.pcSnapshot.tables.size()) +
                       " table(s) x " +
                       std::to_string(data.pcSnapshot.config.entries) +
                       " entries")
                          .c_str());
    std::printf("epochs:          %" PRIu64 " (%s)\n",
                data.trailer.frameCount,
                data.trailer.completed ? "run completed"
                                       : "hit the simulation wall");
    std::printf("instructions:    %" PRIu64 "\n",
                data.trailer.totalCommitted);
    std::printf("exec time:       %.3f us\n",
                static_cast<double>(data.trailer.lastCommitTick) /
                    static_cast<double>(tickUs));
    std::printf("capture wall:    %.1f ms\n",
                data.trailer.captureWallMs);
}

int
cmdHeader(const std::string &path)
{
    const trace::TraceData data = loadOrDie(path);
    printMeta(data);
    return 0;
}

int
cmdStats(const std::string &path)
{
    const trace::TraceData data = loadOrDie(path);
    printMeta(data);
    std::printf("\n%-8s %-12s %-10s %-10s %-8s %s\n", "epoch",
                "t_us", "instr", "waves", "changes", "mean_state");
    std::vector<std::uint64_t> residency(data.meta.vfStates.size(), 0);
    std::uint64_t transitions = 0;
    std::vector<std::size_t> prev_state(data.meta.numDomains(), 0);
    bool have_prev = false;
    for (std::size_t i = 0; i < data.frames.size(); ++i) {
        const trace::EpochFrame &f = data.frames[i];
        std::uint64_t active_waves = 0;
        for (const gpu::WaveEpochRecord &w : f.record.waves)
            active_waves += w.active ? 1 : 0;
        std::uint64_t changes = 0;
        double state_sum = 0.0;
        for (std::size_t d = 0; d < f.decisions.size(); ++d) {
            const std::size_t applied = f.decisions[d].applied;
            residency[applied] += 1;
            state_sum += static_cast<double>(applied);
            if (have_prev && applied != prev_state[d])
                ++changes;
            prev_state[d] = applied;
        }
        if (!f.decisions.empty())
            have_prev = true;
        transitions += changes;
        std::printf("%-8zu %-12.3f %-10" PRIu64 " %-10" PRIu64
                    " %-8" PRIu64 " %.2f\n",
                    i,
                    static_cast<double>(f.start) /
                        static_cast<double>(tickUs),
                    f.record.totalCommitted(), active_waves, changes,
                    f.decisions.empty()
                        ? 0.0
                        : state_sum /
                            static_cast<double>(f.decisions.size()));
    }
    std::printf("\ndomain-epoch V/f residency:\n");
    std::uint64_t total = 0;
    for (std::uint64_t r : residency)
        total += r;
    for (std::size_t s = 0; s < residency.size(); ++s) {
        if (residency[s] == 0)
            continue;
        std::printf("  %.1f GHz: %5.1f%%\n",
                    freqGHzD(data.meta.vfStates[s].freq),
                    total > 0 ? 100.0 * static_cast<double>(
                                            residency[s]) /
                            static_cast<double>(total)
                              : 0.0);
    }
    std::printf("domain state changes: %" PRIu64 "\n", transitions);
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    const trace::TraceData a = loadOrDie(path_a);
    const trace::TraceData b = loadOrDie(path_b);
    std::uint64_t diffs = 0;
    auto report = [&](const std::string &what) {
        if (diffs < 20)
            std::printf("  %s\n", what.c_str());
        ++diffs;
    };
    if (a.meta.workload != b.meta.workload) {
        report("workload: " + a.meta.workload + " vs " +
               b.meta.workload);
    }
    if (a.meta.controller != b.meta.controller) {
        report("controller: " + a.meta.controller + " vs " +
               b.meta.controller);
    }
    if (a.meta.numCus != b.meta.numCus ||
        a.meta.cusPerDomain != b.meta.cusPerDomain ||
        a.meta.epochLen != b.meta.epochLen) {
        report("geometry/epoch configuration differs");
    }
    if (a.frames.size() != b.frames.size()) {
        report("epoch count: " + std::to_string(a.frames.size()) +
               " vs " + std::to_string(b.frames.size()));
    }
    const std::size_t frames =
        std::min(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < frames; ++i) {
        const trace::EpochFrame &fa = a.frames[i];
        const trace::EpochFrame &fb = b.frames[i];
        if (fa.record.totalCommitted() != fb.record.totalCommitted()) {
            report("epoch " + std::to_string(i) + ": committed " +
                   std::to_string(fa.record.totalCommitted()) +
                   " vs " +
                   std::to_string(fb.record.totalCommitted()));
        }
        const std::size_t nd =
            std::min(fa.decisions.size(), fb.decisions.size());
        if (fa.decisions.size() != fb.decisions.size()) {
            report("epoch " + std::to_string(i) +
                   ": decision counts differ");
        }
        for (std::size_t d = 0; d < nd; ++d) {
            if (fa.decisions[d].decided != fb.decisions[d].decided ||
                fa.decisions[d].applied != fb.decisions[d].applied) {
                report("epoch " + std::to_string(i) + " domain " +
                       std::to_string(d) + ": state " +
                       std::to_string(fa.decisions[d].decided) + "/" +
                       std::to_string(fa.decisions[d].applied) +
                       " vs " +
                       std::to_string(fb.decisions[d].decided) + "/" +
                       std::to_string(fb.decisions[d].applied));
            }
        }
    }
    if (a.trailer.totalCommitted != b.trailer.totalCommitted ||
        a.trailer.lastCommitTick != b.trailer.lastCommitTick) {
        report("trailer totals differ");
    }
    if (diffs == 0) {
        std::printf("traces match (%zu epochs)\n", a.frames.size());
        return 0;
    }
    if (diffs > 20)
        std::printf("  ... and %" PRIu64 " more\n", diffs - 20);
    std::printf("traces differ (%" PRIu64 " difference(s))\n", diffs);
    return 1;
}

int
cmdCapture(const CliOptions &cli)
{
    const std::string out = cli.get("out", "");
    const std::string design =
        cli.get("controller", cli.get("design", "PCSTALL"));
    if (out.empty()) {
        std::fprintf(stderr, "capture: --out <trace file> required\n");
        return 2;
    }
    bench::BenchOptions opts = bench::BenchOptions::parse(cli);
    opts.traceOut = out;
    opts.replayTrace.clear();
    const std::string workload =
        cli.get("workload", opts.firstWorkload("comd"));

    const auto app = bench::makeApp(workload, opts);
    if (!app)
        return 1;
    const sim::RunConfig cfg = opts.runConfig();
    sim::ExperimentDriver driver(cfg);
    std::unique_ptr<dvfs::DvfsController> controller =
        bench::makeController(design, cfg);
    // Single run: the --out path is used verbatim (unlike the bench
    // harness's sweep captures, which suffix per run).
    const trace::TraceMeta meta = trace::makeTraceMeta(
        cfg, driver.table(), workload, *controller);
    trace::TraceWriter writer(out, meta);
    if (!writer.ok()) {
        std::fprintf(stderr, "capture: cannot write '%s'\n",
                     out.c_str());
        return 1;
    }
    trace::TraceCapture capture(writer);
    if (auto *pcstall = dynamic_cast<core::PcstallController *>(
            controller.get())) {
        capture.setSnapshotProvider([pcstall] {
            return trace::snapshotPcTables(pcstall->pcTables());
        });
    }
    const sim::RunResult r = driver.run(app, *controller, &capture);
    if (!writer.ok()) {
        std::fprintf(stderr, "capture: I/O error writing '%s'\n",
                     out.c_str());
        return 1;
    }
    std::printf("captured %zu epochs of %s under %s -> %s\n",
                r.epochs, workload.c_str(), controller->name().c_str(),
                out.c_str());
    return 0;
}

int
cmdReplay(const std::string &path, const CliOptions &cli)
{
    const trace::TraceData data = loadOrDie(path);
    const std::string design =
        cli.get("controller", data.meta.controller);
    const bool verify =
        !cli.has("no-verify") && design == data.meta.controller;
    const bool quiet = cli.has("quiet");

    ReplayController rc = makeReplayController(data.meta, design);
    trace::ReplayDriver replayer(data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = verify;
    const trace::ReplayOutcome outcome = replayer.run(*rc.use, ropts);
    if (!outcome.ok())
        fatal(outcome.error);

    const sim::RunResult &r = outcome.result;
    if (!quiet) {
        std::printf("replayed %zu epochs of %s under %s\n", r.epochs,
                    r.workload.c_str(), r.controller.c_str());
        std::printf("  energy:        %.6f J\n", r.energy);
        std::printf("  exec time:     %.3f us\n", r.seconds() * 1e6);
        std::printf("  instructions:  %" PRIu64 "\n", r.instructions);
        std::printf("  accuracy:      %.4f\n", r.predictionAccuracy);
        std::printf("  transitions:   %" PRIu64 "\n", r.transitions);
        std::printf("  ed2p:          %.6e\n", r.ed2p());
        if (outcome.captureWallMs > 0.0) {
            std::printf("  wall clock:    %.2f ms replay vs %.2f ms "
                        "live (%.1fx speedup)\n",
                        outcome.replayWallMs, outcome.captureWallMs,
                        outcome.speedup());
        }
    }

    const std::string snap_out = cli.get("pc-snapshot-out", "");
    if (!snap_out.empty()) {
        auto *pcstall = dynamic_cast<core::PcstallController *>(
            rc.inner.get());
        if (pcstall == nullptr) {
            warn("--pc-snapshot-out: " + design +
                 " has no PC table; nothing written");
        } else if (!trace::writePcSnapshotFile(
                       snap_out, trace::snapshotPcTables(
                                     pcstall->pcTables()))) {
            fatal("cannot write '" + snap_out + "'");
        }
    }

    if (verify) {
        if (outcome.decisionMismatches == 0) {
            std::printf("replay deterministic: every decision matches "
                        "the captured run\n");
        } else {
            std::printf("replay NOT deterministic: %" PRIu64
                        " mismatch(es); first: %s\n",
                        outcome.decisionMismatches,
                        outcome.firstMismatch.c_str());
            return 1;
        }
    }

    // --threads N: re-drive the trace N times concurrently on fresh
    // controllers and require every outcome to be bit-identical to
    // the serial replay above - a thread-safety/determinism self-test
    // of the replay path.
    const auto threads = static_cast<unsigned>(
        std::max<std::int64_t>(1, cli.getInt("threads", 1)));
    if (threads > 1) {
        sim::ParallelExecutor pool(threads);
        std::vector<trace::ReplayOutcome> outs(threads);
        pool.forEach(threads, [&](std::size_t i) {
            ReplayController c = makeReplayController(data.meta, design);
            trace::ReplayDriver rd(data);
            outs[i] = rd.run(*c.use, ropts);
        });
        unsigned diverged = 0;
        for (const trace::ReplayOutcome &o : outs) {
            const sim::RunResult &s = o.result;
            if (!o.ok() || s.epochs != r.epochs ||
                s.execTime != r.execTime || s.energy != r.energy ||
                s.instructions != r.instructions ||
                s.predictionAccuracy != r.predictionAccuracy ||
                s.transitions != r.transitions ||
                o.decisionMismatches != outcome.decisionMismatches)
                ++diverged;
        }
        if (diverged != 0) {
            std::printf("parallel replay NOT deterministic: %u of %u "
                        "concurrent replays diverged from the serial "
                        "outcome\n",
                        diverged, threads);
            return 1;
        }
        if (!quiet) {
            std::printf("parallel replay deterministic: %u concurrent "
                        "replays bit-identical to the serial run\n",
                        threads);
        }
    }
    return 0;
}

/**
 * Replay a trace with the metrics registry armed and print the merged
 * snapshot - the quickest way to read a captured run's PC-table hit
 * rate, replay statistics and quantization-error distribution without
 * re-simulating. --out additionally writes the snapshot through the
 * standard exporters (JSON, or Prometheus text for .prom/.txt).
 */
int
cmdMetrics(const std::string &path, const CliOptions &cli)
{
    const trace::TraceData data = loadOrDie(path);
    const std::string design =
        cli.get("controller", data.meta.controller);

    // Arm the registry; the --out file (when given) is flushed by
    // guardedMain through writeObservabilityOutputs.
    bench::BenchOptions obs_opts;
    obs_opts.metricsOut = cli.get("out", "");
    bench::configureObservability(obs_opts);
    obs::setMetricsEnabled(true);

    ReplayController rc = makeReplayController(data.meta, design);
    trace::ReplayDriver replayer(data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = design == data.meta.controller;
    const trace::ReplayOutcome outcome = replayer.run(*rc.use, ropts);
    if (!outcome.ok())
        fatal(outcome.error);
    if (auto *pcstall = dynamic_cast<core::PcstallController *>(
            rc.inner.get())) {
        bench::publishPcTableMetrics(*pcstall);
    }

    const obs::MetricsSnapshot snap = obs::collectedSnapshot();
    std::printf("replayed %zu epochs of %s under %s\n",
                outcome.result.epochs, data.meta.workload.c_str(),
                outcome.result.controller.c_str());

    std::printf("\ncounters:\n");
    for (const auto &[name, value] : snap.counters)
        std::printf("  %-28s %" PRIu64 "\n", name.c_str(), value);
    if (!snap.gauges.empty()) {
        std::printf("\ngauges:\n");
        for (const auto &[name, value] : snap.gauges)
            std::printf("  %-28s %g\n", name.c_str(), value);
    }
    if (!snap.histograms.empty()) {
        std::printf("\nhistograms:\n");
        for (const auto &[name, hist] : snap.histograms) {
            std::printf("  %-28s n=%" PRIu64
                        " p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
                        name.c_str(), hist.count,
                        hist.percentile(0.50), hist.percentile(0.95),
                        hist.percentile(0.99), hist.max);
        }
    }

    const auto counter = [&](const char *name) -> std::uint64_t {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    const std::uint64_t lookups = counter("pc_table.lookups");
    if (lookups > 0) {
        std::printf("\npc-table hit rate: %.2f%% (%" PRIu64 " of %"
                    PRIu64 " lookups)\n",
                    100.0 * static_cast<double>(
                                counter("pc_table.hits")) /
                        static_cast<double>(lookups),
                    counter("pc_table.hits"), lookups);
    }
    return 0;
}

std::string
freqStr(const obs::ProvenanceMeta &meta, std::size_t state)
{
    if (state >= meta.stateFreqMhz.size())
        return "state " + std::to_string(state);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f GHz",
                  static_cast<double>(meta.stateFreqMhz[state]) /
                      1000.0);
    return buf;
}

void
printRecord(const obs::ProvenanceMeta &meta,
            const obs::DecisionRecord &rec)
{
    const double t_us = static_cast<double>(rec.start) /
        static_cast<double>(tickUs);
    std::printf("epoch %" PRIu64 " @ %.3fus%s:", rec.epoch, t_us,
                rec.fallbackActive ? " [fallback]" : "");
    if (rec.realized) {
        std::printf(" regret %+.2f%% vs oracle, %+.2f%% vs static\n",
                    100.0 * rec.oracleRegretRel(),
                    100.0 * rec.staticRegretRel());
    } else {
        std::printf(" (unrealized: the decided epoch never"
                    " completed)\n");
    }
    for (std::size_t d = 0; d < rec.domains.size(); ++d) {
        const obs::DomainDecisionProv &dom = rec.domains[d];
        std::printf("  domain %zu: ", d);
        if (dom.pcKey != 0 || dom.lookups > 0) {
            std::printf("PC 0x%" PRIx64 " %s %u/%u", dom.pcKey,
                        dom.hits == dom.lookups && dom.lookups > 0
                            ? "hit" : "hits",
                        dom.hits, dom.lookups);
            if (dom.sameRegion > 0)
                std::printf(" (+%u same-region)", dom.sameRegion);
            if (dom.reactive > 0)
                std::printf(" (%u reactive)", dom.reactive);
            std::printf(", sens %.3f", dom.predictedSens);
        } else {
            std::printf("no table lookup (stall %" PRIu64
                        " ticks, %" PRIu64 " mem acc)",
                        dom.loadStallTicks, dom.memAccesses);
        }
        std::printf(", chose %s",
                    freqStr(meta, dom.chosenState).c_str());
        if (dom.appliedState != dom.chosenState) {
            std::printf(" (applied %s)",
                        freqStr(meta, dom.appliedState).c_str());
        }
        if (rec.realized) {
            std::printf(", best %s",
                        freqStr(meta, dom.bestState).c_str());
            if (dom.predictedInstr >= 0.0) {
                std::printf(", predicted %.0f instr got %" PRIu64,
                            dom.predictedInstr, dom.realizedInstr);
            } else {
                std::printf(", got %" PRIu64 " instr",
                            dom.realizedInstr);
            }
        }
        std::printf("\n");
    }
}

int
explainDecisions(const obs::ProvenanceLog &log, const CliOptions &cli)
{
    if (cli.has("epoch")) {
        const std::uint64_t want = static_cast<std::uint64_t>(
            cli.getInt("epoch", 0));
        for (const obs::DecisionRecord &rec : log.records) {
            if (rec.epoch == want) {
                printRecord(log.meta, rec);
                return 0;
            }
        }
        std::fprintf(stderr,
                     "epoch %" PRIu64 " has no decision record "
                     "(%zu recorded)\n",
                     want, log.records.size());
        return 1;
    }
    if (cli.has("worst")) {
        const std::size_t n = static_cast<std::size_t>(
            std::max<std::int64_t>(1, cli.getInt("worst", 10)));
        // Rank realized decisions by relative oracle regret; ties
        // break on epoch so the listing is deterministic.
        std::vector<const obs::DecisionRecord *> ranked;
        for (const obs::DecisionRecord &rec : log.records) {
            if (rec.realized)
                ranked.push_back(&rec);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const obs::DecisionRecord *a,
                     const obs::DecisionRecord *b) {
                      const double ra = a->oracleRegretRel();
                      const double rb = b->oracleRegretRel();
                      if (ra != rb)
                          return ra > rb;
                      return a->epoch < b->epoch;
                  });
        if (ranked.size() > n)
            ranked.resize(n);
        std::printf("%zu highest-regret decisions of %s under %s:\n",
                    ranked.size(), log.meta.workload.c_str(),
                    log.meta.controller.c_str());
        for (const obs::DecisionRecord *rec : ranked)
            printRecord(log.meta, *rec);
        return 0;
    }
    const std::size_t limit = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.getInt("limit", 20)));
    for (std::size_t i = 0; i < log.records.size() && i < limit; ++i)
        printRecord(log.meta, log.records[i]);
    if (log.records.size() > limit) {
        std::printf("... and %zu more (use --limit, --worst or "
                    "--epoch)\n",
                    log.records.size() - limit);
    }
    return 0;
}

int
explainSummary(const obs::ProvenanceLog &log)
{
    const obs::ProvenanceMeta &meta = log.meta;
    std::printf("workload:    %s\n", meta.workload.c_str());
    std::printf("controller:  %s\n", meta.controller.c_str());
    std::printf("objective:   %s\n", meta.objective.c_str());
    std::printf("geometry:    %u domain(s), %u V/f states, nominal "
                "%s\n",
                meta.numDomains, meta.numStates,
                freqStr(meta, meta.nominalState).c_str());
    std::printf("epoch len:   %.3f us\n",
                static_cast<double>(meta.epochLen) /
                    static_cast<double>(tickUs));

    std::size_t realized = 0;
    std::size_t fallback = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t same_region = 0;
    std::uint64_t reactive = 0;
    for (const obs::DecisionRecord &rec : log.records) {
        realized += rec.realized ? 1 : 0;
        fallback += rec.fallbackActive ? 1 : 0;
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            lookups += dom.lookups;
            hits += dom.hits;
            same_region += dom.sameRegion;
            reactive += dom.reactive;
        }
    }
    std::printf("decisions:   %zu recorded, %zu realized, %zu under "
                "fallback\n",
                log.records.size(), realized, fallback);
    if (lookups > 0) {
        std::printf("pc table:    %" PRIu64 " lookups, %.1f%% hit "
                    "(%" PRIu64 " same-region, %" PRIu64
                    " reactive)\n",
                    lookups,
                    100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups),
                    same_region, reactive);
    }
    const obs::RegretSummary &reg = log.regret;
    if (!reg.empty()) {
        std::printf("regret:      mean %+.3f%% / p95 %.3f%% / max "
                    "%.3f%% vs oracle; mean %+.3f%% vs static "
                    "(%" PRIu64 " decisions)\n",
                    100.0 * reg.meanOracle(),
                    100.0 * reg.percentile(0.95),
                    100.0 * reg.oracleMax, 100.0 * reg.meanStatic(),
                    reg.count);
    }

    // Per-state residency attribution over realized domain-epochs:
    // how often each state was chosen, how often it was the oracle's
    // pick, and the mean regret borne while running there.
    struct StateRow
    {
        std::uint64_t chosen = 0;
        std::uint64_t applied = 0;
        std::uint64_t best = 0;
        double regretSum = 0.0;
    };
    std::vector<StateRow> states(meta.numStates);
    std::uint64_t domain_epochs = 0;
    for (const obs::DecisionRecord &rec : log.records) {
        if (!rec.realized)
            continue;
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            if (dom.chosenState >= states.size() ||
                dom.appliedState >= states.size() ||
                dom.bestState >= states.size())
                continue;
            ++domain_epochs;
            ++states[dom.chosenState].chosen;
            ++states[dom.appliedState].applied;
            ++states[dom.bestState].best;
            states[dom.appliedState].regretSum +=
                rec.oracleRegretRel();
        }
    }
    if (domain_epochs > 0) {
        std::printf("\nper-state residency attribution "
                    "(%% of realized domain-epochs):\n");
        std::printf("  %-10s %8s %8s %8s %12s\n", "state", "chosen",
                    "applied", "oracle", "mean_regret");
        for (std::size_t s = 0; s < states.size(); ++s) {
            const StateRow &row = states[s];
            if (row.chosen == 0 && row.applied == 0 && row.best == 0)
                continue;
            const double denom =
                static_cast<double>(domain_epochs);
            std::printf("  %-10s %7.1f%% %7.1f%% %7.1f%% %11.3f%%\n",
                        freqStr(meta, s).c_str(),
                        100.0 * static_cast<double>(row.chosen) /
                            denom,
                        100.0 * static_cast<double>(row.applied) /
                            denom,
                        100.0 * static_cast<double>(row.best) /
                            denom,
                        row.applied > 0
                            ? 100.0 * row.regretSum /
                                static_cast<double>(row.applied)
                            : 0.0);
        }
    }

    // Per-PC prediction-error breakdown: which table keys mispredict.
    struct PcRow
    {
        std::uint64_t decisions = 0;
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t predicted = 0;
        double errSum = 0.0;
        double regretSum = 0.0;
    };
    std::map<std::uint64_t, PcRow> by_pc;
    for (const obs::DecisionRecord &rec : log.records) {
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            if (dom.pcKey == 0)
                continue;
            PcRow &row = by_pc[dom.pcKey];
            ++row.decisions;
            row.lookups += dom.lookups;
            row.hits += dom.hits;
            if (rec.realized) {
                row.regretSum += rec.oracleRegretRel();
                if (dom.predictedInstr >= 0.0 &&
                    dom.realizedInstr > 0) {
                    ++row.predicted;
                    row.errSum +=
                        std::fabs(dom.predictedInstr -
                                  static_cast<double>(
                                      dom.realizedInstr)) /
                        static_cast<double>(dom.realizedInstr);
                }
            }
        }
    }
    if (!by_pc.empty()) {
        std::vector<std::pair<std::uint64_t, PcRow>> ranked(
            by_pc.begin(), by_pc.end());
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second.decisions != b.second.decisions)
                          return a.second.decisions >
                              b.second.decisions;
                      return a.first < b.first;
                  });
        const std::size_t show = std::min<std::size_t>(
            ranked.size(), 10);
        std::printf("\nper-PC prediction error (top %zu of %zu "
                    "keys):\n",
                    show, ranked.size());
        std::printf("  %-18s %8s %8s %12s %12s\n", "pc", "epochs",
                    "hit%", "mean_err", "mean_regret");
        for (std::size_t i = 0; i < show; ++i) {
            const PcRow &row = ranked[i].second;
            char pc[24];
            std::snprintf(pc, sizeof(pc), "0x%" PRIx64,
                          ranked[i].first);
            std::printf(
                "  %-18s %8" PRIu64 " %7.1f%% %11.2f%% %11.3f%%\n",
                pc, row.decisions,
                row.lookups > 0
                    ? 100.0 * static_cast<double>(row.hits) /
                        static_cast<double>(row.lookups)
                    : 0.0,
                row.predicted > 0
                    ? 100.0 * row.errSum /
                        static_cast<double>(row.predicted)
                    : 0.0,
                row.decisions > 0
                    ? 100.0 * row.regretSum /
                        static_cast<double>(row.decisions)
                    : 0.0);
        }
    }
    return 0;
}

int
explainCdf(const obs::ProvenanceLog &log)
{
    std::vector<double> regrets;
    for (const obs::DecisionRecord &rec : log.records) {
        if (rec.realized)
            regrets.push_back(rec.oracleRegretRel());
    }
    if (regrets.empty()) {
        std::printf("no realized decisions\n");
        return 0;
    }
    std::sort(regrets.begin(), regrets.end());
    std::printf("relative oracle regret CDF (%zu decisions):\n",
                regrets.size());
    std::printf("  %-6s %12s\n", "pct", "regret");
    for (const int pct : {5,  10, 25, 50, 75, 90, 95, 99, 100}) {
        const std::size_t idx = std::min(
            regrets.size() - 1,
            static_cast<std::size_t>(
                static_cast<double>(pct) / 100.0 *
                static_cast<double>(regrets.size())));
        std::printf("  p%-5d %11.4f%%\n", pct, 100.0 * regrets[idx]);
    }
    return 0;
}

/** Print to stdout or atomically publish to --out. */
int
emitDocument(const std::string &doc, const CliOptions &cli)
{
    const std::string out = cli.get("out", "");
    if (out.empty()) {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return 0;
    }
    const std::string err = store::writeFileAtomic(out, doc);
    if (!err.empty())
        fatal("--out: " + err);
    return 0;
}

int
explainCsv(const obs::ProvenanceLog &log, const CliOptions &cli)
{
    std::string doc = "# pcstall-provenance-csv v1\n"
        "epoch,t_us,domain,fallback,realized,pc_key,lookups,hits,"
        "same_region,reactive,pred_sens,pred_level,pred_instr,"
        "elapsed_instr,load_stall_ticks,mem_accesses,chosen_state,"
        "applied_state,realized_instr,chosen_score,best_score,"
        "best_state,nominal_score,oracle_regret_rel,"
        "static_regret_rel\n";
    char buf[512];
    for (const obs::DecisionRecord &rec : log.records) {
        // The regret columns are record-level (chip sums), repeated
        // on every domain row of the epoch.
        const double oracle =
            rec.realized ? rec.oracleRegretRel() : 0.0;
        const double stat =
            rec.realized ? rec.staticRegretRel() : 0.0;
        for (std::size_t d = 0; d < rec.domains.size(); ++d) {
            const obs::DomainDecisionProv &dom = rec.domains[d];
            std::snprintf(
                buf, sizeof(buf),
                "%" PRIu64 ",%.3f,%zu,%d,%d,0x%" PRIx64
                ",%u,%u,%u,%u,%.6f,%.6f,%.6f,%" PRIu64 ",%" PRIu64
                ",%" PRIu64 ",%u,%u,%" PRIu64
                ",%.9g,%.9g,%u,%.9g,%.9g,%.9g\n",
                rec.epoch,
                static_cast<double>(rec.start) /
                    static_cast<double>(tickUs),
                d, rec.fallbackActive ? 1 : 0, rec.realized ? 1 : 0,
                dom.pcKey, dom.lookups, dom.hits, dom.sameRegion,
                dom.reactive, dom.predictedSens, dom.predictedLevel,
                dom.predictedInstr, dom.elapsedInstr,
                dom.loadStallTicks, dom.memAccesses,
                static_cast<unsigned>(dom.chosenState),
                static_cast<unsigned>(dom.appliedState),
                dom.realizedInstr, dom.chosenScore, dom.bestScore,
                static_cast<unsigned>(dom.bestState),
                dom.nominalScore, oracle, stat);
            doc += buf;
        }
    }
    return emitDocument(doc, cli);
}

/**
 * Explain a trace's DVFS decisions (docs/provenance.md): replay it
 * with a provenance sink armed - through the captured controller, or
 * any other design via --controller for a what-if - and render the
 * re-derived records in the requested view.
 */
int
cmdExplain(const CliOptions &cli)
{
    const std::string &path = cli.positional()[0];
    const std::string view = cli.positional().size() < 2
        ? "decisions" : cli.positional()[1];
    if (view != "decisions" && view != "summary" && view != "cdf" &&
        view != "csv" && view != "json") {
        std::fprintf(stderr,
                     "explain: unknown view '%s' (expected decisions, "
                     "summary, cdf, csv or json)\n",
                     view.c_str());
        return 2;
    }
    const trace::TraceData data = loadOrDie(path);
    ReplayController rc = makeReplayController(
        data.meta, cli.get("controller", data.meta.controller));
    obs::ProvenanceLog log;
    trace::ReplayDriver replayer(data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = false;
    ropts.auditRegret = true;
    ropts.provenance = &log;
    const trace::ReplayOutcome outcome = replayer.run(*rc.use, ropts);
    if (!outcome.ok())
        fatal(outcome.error);

    if (view == "decisions")
        return explainDecisions(log, cli);
    if (view == "summary")
        return explainSummary(log);
    if (view == "cdf")
        return explainCdf(log);
    if (view == "csv")
        return explainCsv(log, cli);
    return emitDocument(obs::provenanceJson(log), cli);
}

/** Split a sidecar key text on the library's unit separator. */
std::vector<std::string>
splitKeyText(const std::string &text)
{
    std::vector<std::string> fields;
    std::string cur;
    for (const char c : text) {
        if (c == '\x1f') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(cur);
    return fields;
}

/**
 * Inspect a --trace-cache replay library (docs/replay_studies.md).
 *
 * `list` prints one row per published entry straight from the sidecar
 * texts - no trace is decoded, so it is safe and fast on any library.
 * `verify` additionally decodes every trace and quarantines the ones
 * that fail, mirroring what a sweep's capture-on-miss self-heal would
 * do lazily. `gc` collects the unusable leftovers a crash can leave
 * behind (orphan traces, dangling sidecars, staging temps).
 */
int
cmdLibrary(const std::string &dir, const std::string &sub)
{
    namespace fs = std::filesystem;
    trace::TraceLibrary lib(dir);
    if (!lib.ok())
        fatal(lib.error());

    if (sub == "gc") {
        const std::size_t removed = lib.gcOrphans();
        std::printf("library %s: removed %zu orphan file(s), %zu "
                    "entr%s remain\n",
                    lib.dir().c_str(), removed, lib.entryCount(),
                    lib.entryCount() == 1 ? "y" : "ies");
        return 0;
    }

    const std::vector<trace::TraceLibrary::Entry> entries =
        lib.entries();
    if (sub == "list") {
        std::printf("%-32s %10s %-12s %-24s %-4s %s\n", "digest",
                    "bytes", "workload", "design", "run",
                    "fingerprint");
        for (const trace::TraceLibrary::Entry &e : entries) {
            // Key text layout (library.cc): version, harness,
            // workload, workload digest, design, run index,
            // fingerprint, PC snapshot path.
            const std::vector<std::string> f =
                splitKeyText(e.keyText);
            const bool parsed = f.size() == 8;
            std::printf("%-32s %10ju %-12s %-24s %-4s %s\n",
                        e.digest.c_str(), e.bytes,
                        parsed ? f[2].c_str() : "(orphan)",
                        parsed ? f[4].c_str() : "-",
                        parsed ? f[5].c_str() : "-",
                        parsed ? f[6].c_str() : "-");
        }
        std::printf("%zu entr%s, %zu quarantined\n", entries.size(),
                    entries.size() == 1 ? "y" : "ies",
                    lib.quarantinedCount());
        return 0;
    }

    if (sub == "verify") {
        std::size_t bad = 0;
        for (const trace::TraceLibrary::Entry &e : entries) {
            const fs::path trace_path =
                fs::path(lib.dir()) / (e.digest + ".pctrace");
            const trace::TraceReadResult read =
                trace::readTraceFile(trace_path.string());
            if (read.ok()) {
                std::printf("ok      %s (%" PRIu64 " epochs)\n",
                            e.digest.c_str(),
                            read.trace->trailer.frameCount);
                continue;
            }
            ++bad;
            std::printf("CORRUPT %s: %s\n", e.digest.c_str(),
                        read.error.c_str());
            // Same quarantine discipline as the sweep path: move both
            // files aside (pid-suffixed) so the next sweep recaptures.
            const fs::path pen = fs::path(lib.dir()) / ".corrupt";
            std::error_code ec;
            fs::create_directories(pen, ec);
            const std::string pid = std::to_string(::getpid());
            for (const char *ext : {".pctrace", ".pckey"}) {
                const fs::path from =
                    fs::path(lib.dir()) / (e.digest + ext);
                fs::rename(from,
                           pen / (e.digest + ext + "." + pid), ec);
                if (ec)
                    fs::remove(from, ec);
            }
        }
        std::printf("%zu entr%s verified, %zu quarantined now\n",
                    entries.size(), entries.size() == 1 ? "y" : "ies",
                    bad);
        return bad == 0 ? 0 : 1;
    }

    std::fprintf(stderr,
                 "library: unknown subcommand '%s' "
                 "(expected list, verify or gc)\n",
                 sub.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&]() -> int {
        if (argc < 2)
            return usage();
        const std::string cmd = argv[1];
        if (cmd == "--help" || cmd == "-h") {
            printUsage(stdout);
            return 0;
        }
        // Each command parses its own arguments against its own flags,
        // its name standing in for argv[0].
        struct Command
        {
            const char *name;
            const char *args;
            std::size_t positionals;
            std::vector<CliFlag> flags;
        };
        const Command commands[] = {
            {"header", "<trace>", 1, {}},
            {"stats", "<trace>", 1, {}},
            {"csv", "<trace>", 1, {}},
            {"diff", "<a> <b>", 2, {}},
            {"capture", "--out T [options]", 0,
             bench::BenchOptions::flags({{"out", "T"}, {"workload", "W"},
                                         {"controller", "C"},
                                         {"design", "C"}})},
            {"replay", "<trace> [options]", 1,
             {{"controller", "C"}, {"pc-snapshot-out", "F"},
              {"no-verify", ""}, {"quiet", ""}, {"threads", "N"}}},
            {"metrics", "<trace> [options]", 1,
             {{"controller", "C"}, {"out", "F"}}},
            {"library", "<dir> [list|verify|gc]", 1, {}},
            {"explain",
             "<trace> [decisions|summary|cdf|csv|json] [options]", 1,
             {{"controller", "C"}, {"epoch", "N"}, {"limit", "N"},
              {"worst", "N"}, {"out", "F"}}},
        };
        const Command *command = std::find_if(
            std::begin(commands), std::end(commands),
            [&](const Command &c) { return cmd == c.name; });
        if (command == std::end(commands))
            return usage();
        const CliOptions cli(argc - 1, argv + 1, command->flags,
                             "trace_inspect " + cmd + " " + command->args);
        const std::vector<std::string> &pos = cli.positional();
        if (pos.size() < command->positionals)
            return usage();
        if (cmd == "header")
            return cmdHeader(pos[0]);
        if (cmd == "stats")
            return cmdStats(pos[0]);
        if (cmd == "csv") {
            trace::writeEpochCsv(std::cout, loadOrDie(pos[0]));
            return 0;
        }
        if (cmd == "diff")
            return cmdDiff(pos[0], pos[1]);
        if (cmd == "capture")
            return cmdCapture(cli);
        if (cmd == "replay")
            return cmdReplay(pos[0], cli);
        if (cmd == "metrics")
            return cmdMetrics(pos[0], cli);
        if (cmd == "library")
            return cmdLibrary(pos[0], pos.size() > 1 ? pos[1] : "list");
        return cmdExplain(cli);
    });
}
