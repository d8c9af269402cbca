/**
 * @file
 * Machine-learning scenario: a training step is a sequence of layer
 * kernels with very different frequency sensitivities (GEMMs are
 * compute bound; normalization/pooling layers are bandwidth bound).
 * A single static clock is wrong for most of the step.
 *
 * This example builds a composite "training step" from the MI suite
 * (dgemm + BwdBN + BwdPool + BwdSoft), runs it under per-CU PCSTALL
 * DVFS optimizing EDP, and reports per-design energy/time plus the
 * frequency residency that shows PCSTALL shifting clocks per layer.
 *
 * Usage: ml_training_power [--cus N] [--epoch-us E]
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

int
main(int argc, char **argv)
try {
    const CliOptions cli(argc, argv,
                         {{"cus", "N"}, {"epoch-us", "US"}});
    const auto cus = static_cast<std::uint32_t>(cli.getInt("cus", 8));

    // Compose one training step from MI layer kernels.
    workloads::WorkloadParams wp;
    wp.numCus = cus;
    wp.scale = 0.5;
    isa::Application step;
    step.name = "training_step";
    for (const char *layer : {"dgemm", "BwdBN", "BwdPool", "BwdSoft"}) {
        isa::Application layer_app = workloads::makeWorkload(layer, wp);
        for (auto &k : layer_app.launches)
            step.launches.push_back(std::move(k));
    }
    step.assignCodeBases();
    auto app = std::make_shared<const isa::Application>(std::move(step));

    sim::RunConfig cfg;
    cfg.gpu.numCus = cus;
    cfg.epochLen = static_cast<Tick>(
        cli.getDouble("epoch-us", 1.0) * static_cast<double>(tickUs));
    cfg.objective = dvfs::Objective::Edp;
    cfg.scaled();
    sim::ExperimentDriver driver(cfg);

    std::printf("ML training step (%zu kernel launches) on %u CUs, "
                "EDP objective\n\n", app->launches.size(), cus);
    std::printf("%-14s %10s %12s %12s %10s\n", "design", "time us",
                "energy mJ", "EDP", "accuracy");

    auto report = [&](dvfs::DvfsController &c) {
        const sim::RunResult r = driver.run(app, c);
        std::printf("%-14s %10.1f %12.4f %12.4e %9.1f%%\n",
                    r.controller.c_str(), r.seconds() * 1e6,
                    r.energy * 1e3, r.edp(),
                    r.predictionAccuracy * 100.0);
        return r;
    };

    dvfs::StaticController nominal(driver.nominalState());
    report(nominal);
    models::ReactiveController crisp(models::EstimationKind::Crisp);
    report(crisp);
    core::PcstallController pcstall(
        core::PcstallConfig::forEpoch(cfg.epochLen), cus);
    const sim::RunResult pc = report(pcstall);

    std::printf("\nPCSTALL frequency residency across the step:\n ");
    for (std::size_t s = 0; s < pc.freqTimeShare.size(); ++s) {
        std::printf(" %.1fGHz:%4.1f%%",
                    freqGHzD(driver.table().state(s).freq),
                    pc.freqTimeShare[s] * 100.0);
    }
    std::printf("\n\nThe residency spread shows the controller "
                "re-clocking per layer: GEMM phases ride the upper "
                "states while normalization/pooling layers drop to "
                "the bottom of the V/f range.\n");
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
