/**
 * @file
 * pcbench: the repository benchmark program (see README.md).
 *
 *   pcbench --workload live_64cu|oracle_8cu|replay_study
 *           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
 *
 * Prints every metric by name with its unit, runs the output checks,
 * and ends with one JSON line: the end-to-end metrics with --trace 0,
 * the per-layer metrics of a separate traced run with --trace 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/pcstall_controller.hh"
#include "perfbench.hh"
#include "store/cell_codec.hh"

namespace perfbench
{

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

std::vector<std::pair<std::string, std::uint64_t>>
ModelCounts::named() const
{
    return {
        {"gpu.cu_cycles", cuCycles},
        {"gpu.instructions", instructions},
        {"gpu.busy_ticks", busyTicks},
        {"gpu.load_stall_ticks", loadStallTicks},
        {"gpu.barrier_stall_ticks", barrierStallTicks},
        {"gpu.run_until_calls", runUntilCalls},
        {"memory.l1_hits", l1Hits},
        {"memory.l1_misses", l1Misses},
        {"memory.l2_hits", l2Hits},
        {"memory.l2_misses", l2Misses},
        {"memory.stores_combined", storesCombined},
        {"oracle.sweeps", oracleSweeps},
        {"oracle.samples", oracleSamples},
        {"dvfs.decisions", decisions},
        {"sim.epochs", epochs},
        {"predict.lookups", pcLookups},
        {"predict.lookup_hits", pcHits},
    };
}

std::uint64_t
resultFingerprint(const sim::RunResult &result)
{
    store::StoredCell cell;
    cell.run.result = result;
    cell.run.ok = true;
    const std::string bytes = store::encodeStoredCell(cell);
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
cyclesPerEpoch(Tick epoch_len, Freq freq)
{
    const unsigned __int128 cycles =
        static_cast<unsigned __int128>(epoch_len) * freq /
        static_cast<unsigned __int128>(ticksPerSecond);
    return static_cast<std::uint64_t>(cycles);
}

std::uint64_t
cuCyclesOf(const sim::RunResult &result, const sim::RunConfig &cfg)
{
    const power::VfTable table = power::VfTable::paperTable();
    const double domain_epochs = static_cast<double>(result.epochs) *
        static_cast<double>(cfg.gpu.numCus / cfg.cusPerDomain);
    std::uint64_t cycles = 0;
    for (std::size_t s = 0; s < result.freqTimeShare.size(); ++s) {
        const auto count = static_cast<std::uint64_t>(
            std::llround(result.freqTimeShare[s] * domain_epochs));
        cycles += count * cfg.cusPerDomain *
            cyclesPerEpoch(cfg.epochLen, table.state(s).freq);
    }
    return cycles;
}

std::uint64_t
cellSeed(std::uint64_t seed, const std::string &workload,
         const std::string &design)
{
    return design == "STATIC"
        ? Rng::split(seed, workload, "STATIC").next()
        : Rng::split(seed, workload, design, 0).next();
}

const char *
decideSpanFor(const std::string &design)
{
    const std::string base = design.substr(0, design.find(':'));
    if (base == "PCSTALL" || base == "ACCPC")
        return "core.decide";
    if (base == "STALL" || base == "LEAD" || base == "CRIT" ||
        base == "CRISP" || base == "GPHT")
        return "models.decide";
    if (base == "REGR" || base == "DSO" || base == "WANGCHU")
        return "zoo.decide";
    if (base == "ACCREAC" || base == "ORACLE")
        return "oracle.decide";
    return "dvfs.decide";
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(
               std::max(self.ru_maxrss, children.ru_maxrss)) /
        1024.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
        (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void
addPcTableCounts(const dvfs::DvfsController &controller,
                 ModelCounts &counts)
{
    const auto *pc =
        dynamic_cast<const core::PcstallController *>(&controller);
    if (pc == nullptr)
        return;
    for (const predict::PcSensitivityTable &table : pc->pcTables()) {
        const predict::PcSensitivityTable::Telemetry t =
            table.telemetry();
        counts.pcLookups += t.lookups;
        counts.pcHits += t.hits;
    }
}

namespace
{

double
get(const std::map<std::string, double> &m, const char *key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

} // namespace

void
reportLayers(const SpanSummary &summary, double passes,
             const std::vector<std::string> &cell_names, Report &report)
{
    const auto per_pass = [&](const char *span) {
        return get(summary.totalS, span) / passes;
    };
    report.set("gpu.run_until_s", per_pass("gpu.run_until"), "s");
    report.set("gpu.harvest_s", per_pass("gpu.harvest"), "s");
    report.set("oracle.sweep_s", per_pass("oracle.sweep"), "s");
    report.set("oracle.decide_s", per_pass("oracle.decide"), "s");
    report.set("core.decide_s", per_pass("core.decide"), "s");
    report.set("models.decide_s", per_pass("models.decide"), "s");
    report.set("zoo.decide_s", per_pass("zoo.decide"), "s");
    report.set("sim.ledger_s", per_pass("sim.ledger"), "s");
    report.set("trace.encode_s", per_pass("trace.encode"), "s");
    report.set("trace.library_lookup_s",
               per_pass("trace.library_lookup"), "s");
    report.set("trace.decode_s", per_pass("trace.decode"), "s");
    report.set("sweep.memo_lock_wait_s", per_pass("sweep.memo_lock_wait"),
               "s");
    // Replay self time: the replay engine and the ledger inside it,
    // without the controller decisions it calls.
    report.set("trace.replay_s",
               get(summary.selfS, "trace.replay") / passes, "s");
    double cell_self = 0.0;
    for (const std::string &name : cell_names)
        cell_self += get(summary.selfS, name.c_str());
    report.set("sim.cell_self_s", cell_self / passes, "s");
    report.set("bench.span_coverage_pct", summary.cellCoveragePct(),
               "%");

    double all_self = 0.0;
    for (const auto &[name, self] : summary.selfS) {
        if (name != "bench.pass")
            all_self += self;
    }
    const auto share = [&](const char *span) {
        return all_self > 0.0
            ? 100.0 * get(summary.selfS, span) / all_self : 0.0;
    };
    report.set("gpu.run_until_self_pct", share("gpu.run_until"), "%");
    report.set("oracle.sweep_self_pct", share("oracle.sweep"), "%");

    std::vector<std::pair<double, std::string>> order;
    for (const auto &[name, self] : summary.selfS) {
        if (name != "bench.pass")
            order.emplace_back(self, name);
    }
    std::sort(order.rbegin(), order.rend());
    std::printf("layer self time per traced pass (span minus child "
                "spans; %.0f pass(es)):\n", passes);
    std::printf("  %-22s %10s %12s %12s %8s\n", "span", "calls",
                "total_s", "self_s", "self_%");
    for (const auto &[self, name] : order) {
        std::printf("  %-22s %10.0f %12.6f %12.6f %7.2f%%\n",
                    name.c_str(),
                    static_cast<double>(summary.calls.at(name)) / passes,
                    summary.totalS.at(name) / passes, self / passes,
                    all_self > 0.0 ? 100.0 * self / all_self : 0.0);
    }
    std::printf("  span coverage of cell time: %.2f%%\n",
                summary.cellCoveragePct());
}

void
reportCounts(const ModelCounts &counts, const HostCounts &host,
             double passes, Report &report)
{
    for (const auto &[name, value] : counts.named()) {
        const bool ticks = name.find("_ticks") != std::string::npos;
        report.set(name, static_cast<double>(value),
                   ticks ? "ps" : "count");
    }
    report.set("oracle.restores_full",
               static_cast<double>(host.restoresFull) / passes, "count");
    report.set("oracle.restores_delta",
               static_cast<double>(host.restoresDelta) / passes, "count");
    report.set("trace.bytes_written",
               static_cast<double>(host.bytesWritten) / passes, "B");
    report.set("trace.bytes_read",
               static_cast<double>(host.bytesRead) / passes, "B");
    report.set("trace.library_hits",
               static_cast<double>(host.libraryHits) / passes, "count");
    report.set("trace.library_misses",
               static_cast<double>(host.libraryMisses) / passes,
               "count");

    const double run_until = report.metrics["gpu.run_until_s"].value;
    report.set("gpu.ns_per_cu_cycle",
               counts.cuCycles > 0
                   ? 1e9 * run_until / static_cast<double>(counts.cuCycles)
                   : 0.0,
               "ns");
    const double sweep = report.metrics["oracle.sweep_s"].value;
    report.set("oracle.ms_per_sample",
               counts.oracleSamples > 0
                   ? 1e3 * sweep /
                       static_cast<double>(counts.oracleSamples)
                   : 0.0,
               "ms");
    double decide = 0.0;
    for (const char *m : {"core.decide_s", "models.decide_s",
                          "zoo.decide_s", "oracle.decide_s"})
        decide += report.metrics[m].value;
    report.set("dvfs.us_per_decision",
               counts.decisions > 0
                   ? 1e6 * decide / static_cast<double>(counts.decisions)
                   : 0.0,
               "us");
    report.set("predict.hit_ratio",
               counts.pcLookups > 0
                   ? static_cast<double>(counts.pcHits) /
                       static_cast<double>(counts.pcLookups)
                   : 0.0,
               "ratio");
}

void
printCounts(const char *title, const ModelCounts &counts)
{
    std::printf("%s:\n", title);
    for (const auto &[name, value] : counts.named())
        std::printf("  %-26s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
}

namespace
{

/** End-to-end metrics (JSON with --trace 0). */
const std::vector<std::string> endToEnd = {
    "sim_cu_cycles_per_s", "sim_instr_per_s", "epochs_per_s",
    "cell_wall_ms_p50",    "cell_wall_ms_p90", "setup_s",
    "peak_rss_mb",
};

/** Per-layer metrics (JSON with --trace 1). */
const std::vector<std::string> perLayer = {
    "gpu.run_until_s",        "gpu.harvest_s",
    "gpu.ns_per_cu_cycle",    "gpu.run_until_self_pct",
    "gpu.run_until_calls",    "gpu.cu_cycles",
    "gpu.instructions",       "gpu.busy_ticks",
    "gpu.load_stall_ticks",   "gpu.barrier_stall_ticks",
    "memory.l1_hits",         "memory.l1_misses",
    "memory.l2_hits",         "memory.l2_misses",
    "memory.stores_combined", "oracle.sweep_s",
    "oracle.sweep_self_pct",  "oracle.sweeps",
    "oracle.samples",         "oracle.ms_per_sample",
    "oracle.restores_full",   "oracle.restores_delta",
    "oracle.decide_s",        "core.decide_s",
    "models.decide_s",        "zoo.decide_s",
    "dvfs.decisions",         "dvfs.us_per_decision",
    "predict.lookups",        "predict.lookup_hits",
    "predict.hit_ratio",      "sim.ledger_s",
    "sim.epochs",             "sim.cell_self_s",
    "trace.encode_s",         "trace.bytes_written",
    "trace.library_lookup_s", "trace.decode_s",
    "trace.replay_s",         "trace.bytes_read",
    "trace.library_hits",     "trace.library_misses",
    "sweep.queue_wait_s",     "sweep.memo_lock_wait_s",
    "sweep.cell_busy_s",
    "sweep.worker_utilization", "workloads.build_s",
    "bench.span_coverage_pct", "bench.trace_overhead_pct",
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pcbench: %s\nusage: pcbench --workload "
                 "live_64cu|oracle_8cu|replay_study [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.outDir = ".bench_build/perfbench-out";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--out")
                o.outDir = value;
            else
                usage("unknown option " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (o.workload != "live_64cu" && o.workload != "oracle_8cu" &&
        o.workload != "replay_study")
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

int
run(const Options &o)
{
    std::filesystem::create_directories(o.outDir);
    std::printf("=== perfbench %s (seed %llu, %.0f s, %s run) ===\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? "traced" : "untraced");
    Report report = o.workload == "replay_study" ? runReplayStudy(o)
                                                 : runLiveStudy(o);
    report.set("peak_rss_mb", peakRssMb(), "MB");

    const double ratio = report.attempted > 0
        ? static_cast<double>(report.failed) /
            static_cast<double>(report.attempted)
        : 1.0;
    std::printf("metrics:\n");
    for (const std::string &name : o.trace ? perLayer : endToEnd) {
        report.check(report.metrics.count(name) != 0,
                     "metric " + name + " was not measured");
        const Metric &m = report.metrics[name];
        report.check(std::isfinite(m.value),
                     "metric " + name + " is not finite");
        std::printf("  %-28s %.10g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("  %-28s %.10g ratio (%llu of %llu cells)\n",
                "failed_cell_ratio", ratio,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const std::string &f : report.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    const bool correct = report.failures.empty() && report.failed == 0 &&
        report.attempted > 0;
    std::printf("checks: %s\n", correct ? "all passed" : "FAILED");

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : o.trace ? perLayer : endToEnd) {
        const Metric &m = report.metrics[name];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opts = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(opts);
    } catch (const pcstall::FatalError &) {
        // fatal() already printed the diagnostic.
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pcbench: %s\n", e.what());
        return 1;
    }
}
