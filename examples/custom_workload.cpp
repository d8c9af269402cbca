/**
 * @file
 * Bring-your-own-workload: author a kernel in the text format, run it
 * under PCSTALL, and export its per-epoch trace as CSV for plotting.
 * The run is captured as an epoch trace (trace::TraceCapture,
 * docs/trace_format.md) and exported with trace::writeEpochCsv, the
 * same CSV `trace_inspect csv` writes for a recorded trace.
 *
 * Usage:
 *   custom_workload                          # built-in demo kernel
 *   custom_workload --file my.kernel         # your own description
 *   custom_workload --trace-csv /tmp/run.csv # export the trace
 *   custom_workload --export comd            # dump a Table II app as
 *                                            # editable text and exit
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"
#include "common/cli.hh"
#include "core/pcstall_controller.hh"
#include "sim/experiment.hh"
#include "trace/epoch_csv.hh"
#include "trace/format.hh"
#include "workloads/kernel_parser.hh"
#include "workloads/kernel_writer.hh"
#include "workloads/workloads.hh"

using namespace pcstall;

namespace
{

/** A two-phase demo kernel in the text format. */
const char *demo_kernel = R"(
# Demo: an iterative stencil with a gather phase and a compute phase,
# launched four times (each launch is a timestep).
kernel stencil
  grid 80 4
  seed 11
  region grid_in 24M
  region table 2M
  loop 12
    load grid_in stream 16
    load table sharedhot
    waitcnt 0
    valu 2 2
  endloop
  loop 60
    valu 4 4
    lds 8 1
  endloop
  loop 8
    store grid_in stream 16
  endloop
endkernel

app demo = stencil stencil stencil stencil
)";

} // namespace

int
main(int argc, char **argv)
try {
    const CliOptions cli(argc, argv,
                         {{"cus", "N"}, {"file", "PATH"},
                          {"trace-csv", "PATH"}, {"export", "NAME"}});

    const std::string export_name = cli.get("export", "");
    if (!export_name.empty()) {
        if (!workloads::isWorkload(export_name)) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         export_name.c_str());
            return 1;
        }
        workloads::WorkloadParams wp;
        wp.numCus =
            static_cast<std::uint32_t>(cli.getInt("cus", 8));
        std::printf("%s", workloads::applicationToText(
                              workloads::makeWorkload(export_name,
                                                      wp)).c_str());
        return 0;
    }

    workloads::ParseResult parsed;
    const std::string file = cli.get("file", "");
    if (!file.empty()) {
        parsed = workloads::parseApplicationFile(file);
    } else {
        parsed = workloads::parseApplication(std::string(demo_kernel));
    }
    if (!parsed.ok()) {
        std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
        return 1;
    }
    auto app = std::make_shared<const isa::Application>(
        std::move(*parsed.app));

    sim::RunConfig cfg;
    cfg.gpu.numCus = static_cast<std::uint32_t>(cli.getInt("cus", 8));
    cfg.scaled();
    sim::ExperimentDriver driver(cfg);

    std::printf("Running '%s' (%zu launches) under PCSTALL on %u "
                "CUs...\n",
                app->name.c_str(), app->launches.size(), cfg.gpu.numCus);

    dvfs::StaticController nominal(driver.nominalState());
    const sim::RunResult base = driver.run(app, nominal);

    core::PcstallController pcstall(
        core::PcstallConfig::forEpoch(cfg.epochLen), cfg.gpu.numCus);
    // Capture the PCSTALL run to a scratch trace file and read it back.
    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         ("custom_workload-" + std::to_string(::getpid()) + ".pctrace"))
            .string();
    trace::TraceWriter writer(
        trace_path,
        trace::makeTraceMeta(cfg, driver.table(), app->name, pcstall));
    trace::TraceCapture capture(writer);
    const sim::RunResult r = driver.run(app, pcstall, &capture);
    const trace::TraceReadResult read = trace::readTraceFile(trace_path);
    std::filesystem::remove(trace_path);
    if (!read.ok()) {
        std::fprintf(stderr, "cannot capture the run: %s\n",
                     read.error.c_str());
        return 1;
    }

    std::printf("  static 1.7 GHz: %7.1f us, %8.4f mJ (ED2P %.3e)\n",
                base.seconds() * 1e6, base.energy * 1e3, base.ed2p());
    std::printf("  PCSTALL:        %7.1f us, %8.4f mJ (ED2P %.3e, "
                "%llu transitions)\n",
                r.seconds() * 1e6, r.energy * 1e3, r.ed2p(),
                static_cast<unsigned long long>(r.transitions));
    std::printf("  ED2P improvement: %.1f%%\n",
                (1.0 - r.ed2p() / base.ed2p()) * 100.0);

    const std::string csv = cli.get("trace-csv", "");
    if (!csv.empty()) {
        std::ofstream os(csv);
        trace::writeEpochCsv(os, *read.trace);
        if (os.flush())
            std::printf("  trace written to %s\n", csv.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", csv.c_str());
    } else {
        // Show the first few trace rows inline.
        std::ostringstream os;
        trace::writeEpochCsv(os, *read.trace);
        std::istringstream is(os.str());
        std::string line;
        std::printf("\ntrace preview (--trace-csv FILE for all):\n");
        for (int i = 0; i < 6 && std::getline(is, line); ++i)
            std::printf("  %s\n", line.c_str());
    }
    return 0;
}
catch (const CleanExit &)
{
    return 0; // --help printed the usage
}
catch (const FatalError &)
{
    return 1; // fatal() already printed the diagnostic
}
catch (const std::exception &e)
{
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
