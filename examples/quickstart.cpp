/**
 * @file
 * Quickstart: build a small GPU, run one workload under the PCSTALL
 * DVFS controller, and compare its energy efficiency against a static
 * nominal-frequency run.
 *
 * Usage: quickstart [--cus N] [--epoch-us E] [--workload name]
 */

#include <cstdio>
#include <memory>

#include "common/logging.hh"
#include "common/cli.hh"
#include "core/pcstall_controller.hh"
#include "dvfs/controller.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace pcstall;

int
main(int argc, char **argv)
try {
    const CliOptions cli(
        argc, argv, {{"cus", "N"}, {"epoch-us", "US"}, {"workload", "NAME"}});

    // 1. Configure the experiment: GPU size, DVFS epoch, objective.
    sim::RunConfig cfg;
    cfg.gpu.numCus = static_cast<std::uint32_t>(cli.getInt("cus", 8));
    cfg.epochLen = static_cast<Tick>(
        cli.getDouble("epoch-us", 1.0) * static_cast<double>(tickUs));
    cfg.cusPerDomain = 1;
    cfg.objective = dvfs::Objective::Ed2p;
    cfg.scaled(); // size the memory system to the CU count

    // 2. Pick a workload from the Table II suite.
    workloads::WorkloadParams wparams;
    wparams.numCus = cfg.gpu.numCus;
    const std::string name = cli.get("workload", "BwdBN");
    auto app = std::make_shared<const isa::Application>(
        workloads::makeWorkload(name, wparams));

    std::printf("PCSTALL quickstart: workload '%s' on a %u-CU GPU, "
                "%.1f us DVFS epochs, objective %s\n\n",
                name.c_str(), cfg.gpu.numCus,
                static_cast<double>(cfg.epochLen) /
                    static_cast<double>(tickUs),
                dvfs::objectiveName(cfg.objective));

    sim::ExperimentDriver driver(cfg);

    // 3. Static baseline at the nominal 1.7 GHz.
    dvfs::StaticController static_nominal(driver.nominalState());
    const sim::RunResult base = driver.run(app, static_nominal);

    // 4. The same run under PCSTALL.
    core::PcstallController pcstall(
        core::PcstallConfig::forEpoch(cfg.epochLen,
                                      cfg.gpu.waveSlotsPerCu),
        cfg.gpu.numCus);
    const sim::RunResult dvfs_run = driver.run(app, pcstall);

    auto report = [](const char *label, const sim::RunResult &r) {
        std::printf("%-22s time %8.1f us  energy %8.3f mJ  "
                    "avg power %6.1f W  ED2P %.3e\n",
                    label, r.seconds() * 1e6, r.energy * 1e3,
                    r.avgPower(), r.ed2p());
    };
    report("static 1.7 GHz:", base);
    report("PCSTALL DVFS:", dvfs_run);

    std::printf("\nPCSTALL ED2P improvement: %.1f%%  "
                "(prediction accuracy %.1f%%, PC-table hit ratio "
                "%.1f%%)\n",
                (1.0 - dvfs_run.ed2p() / base.ed2p()) * 100.0,
                dvfs_run.predictionAccuracy * 100.0,
                pcstall.tableHitRatio() * 100.0);
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
