/**
 * @file
 * HPC scenario: an operator wants to run ECP-style simulation codes
 * under an energy budget without giving up more than a fixed amount
 * of performance (the paper's Section 6.4 use case).
 *
 * This example runs three HPC workloads under PCSTALL with the
 * EnergyUnderPerfBound objective at 5% and 10% degradation limits and
 * reports the achieved energy savings and actual slowdown versus the
 * static nominal clock, comparing against the CRISP reactive
 * baseline.
 *
 * Usage: hpc_energy_tuning [--cus N] [--epoch-us E]
 */

#include <cstdio>
#include <memory>

#include "common/logging.hh"
#include "common/cli.hh"
#include "core/pcstall_controller.hh"
#include "models/reactive_controller.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace pcstall;

namespace
{

struct Outcome
{
    double savings;
    double slowdown;
};

Outcome
measure(sim::ExperimentDriver &driver,
        std::shared_ptr<const isa::Application> app,
        dvfs::DvfsController &controller)
{
    dvfs::StaticController nominal(driver.nominalState());
    const sim::RunResult base = driver.run(app, nominal);
    const sim::RunResult r = driver.run(app, controller);
    return {1.0 - r.energy / base.energy,
            r.seconds() / base.seconds() - 1.0};
}

} // namespace

int
main(int argc, char **argv)
try {
    const CliOptions cli(argc, argv,
                         {{"cus", "N"}, {"epoch-us", "US"}});
    const auto cus = static_cast<std::uint32_t>(cli.getInt("cus", 8));

    std::printf("HPC energy tuning under performance bounds "
                "(%u CUs)\n\n", cus);
    std::printf("%-10s %-6s %-9s %10s %10s %10s %10s\n", "workload",
                "limit", "", "PCSTALL", "", "CRISP", "");
    std::printf("%-10s %-6s %-9s %10s %10s %10s %10s\n", "", "", "",
                "saved", "slowdown", "saved", "slowdown");

    for (const char *name : {"comd", "xsbench", "hacc"}) {
        for (const double limit : {0.05, 0.10}) {
            sim::RunConfig cfg;
            cfg.gpu.numCus = cus;
            cfg.epochLen = static_cast<Tick>(
                cli.getDouble("epoch-us", 1.0) *
                static_cast<double>(tickUs));
            cfg.objective = dvfs::Objective::EnergyUnderPerfBound;
            cfg.perfDegradationLimit = limit;
            cfg.scaled();
            sim::ExperimentDriver driver(cfg);

            workloads::WorkloadParams wp;
            wp.numCus = cus;
            auto app = std::make_shared<const isa::Application>(
                workloads::makeWorkload(name, wp));

            core::PcstallController pcstall(
                core::PcstallConfig::forEpoch(cfg.epochLen), cus);
            const Outcome pc = measure(driver, app, pcstall);

            models::ReactiveController crisp(
                models::EstimationKind::Crisp);
            const Outcome cr = measure(driver, app, crisp);

            std::printf("%-10s %-6.0f%% %-9s %9.1f%% %9.1f%% "
                        "%9.1f%% %9.1f%%\n",
                        name, limit * 100.0, "",
                        pc.savings * 100.0, pc.slowdown * 100.0,
                        cr.savings * 100.0, cr.slowdown * 100.0);
        }
    }
    std::printf("\nPCSTALL converts the slack allowed by the bound "
                "into energy savings; the reactive baseline wastes "
                "part of it on mispredicted epochs (paper Fig 18a).\n");
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
