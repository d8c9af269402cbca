/**
 * @file
 * Extending the library: implement a custom DVFS controller against
 * the public dvfs::DvfsController interface and evaluate it with the
 * stock driver. The example controller is a "hysteresis band"
 * policy: it uses PCSTALL's PC-table prediction but only moves the
 * frequency when the predicted optimum differs from the current state
 * by more than one step, trading a little efficiency for far fewer
 * V/f transitions (an IVR-wear / guard-band concern the paper's
 * Section 5.4 hierarchy would care about).
 *
 * Usage: custom_policy [--cus N] [--workload name]
 */

#include <cstdio>
#include <memory>

#include "common/logging.hh"
#include "common/cli.hh"
#include "core/pcstall_controller.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace pcstall;

namespace
{

/** PCSTALL with a one-step hysteresis band on frequency moves. */
class HysteresisPcstall : public dvfs::DvfsController
{
  public:
    HysteresisPcstall(const core::PcstallConfig &cfg,
                      std::uint32_t num_cus, std::size_t initial_state)
        : inner(cfg, num_cus)
    {
        last.assign(num_cus, initial_state);
        transitions_ = 0;
    }

    std::string name() const override { return "PCSTALL+HYST"; }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override
    {
        auto decisions = inner.decide(ctx);
        if (last.size() != decisions.size())
            last.assign(decisions.size(), ctx.nominalState);
        for (std::size_t d = 0; d < decisions.size(); ++d) {
            const std::size_t want = decisions[d].state;
            const std::size_t cur = last[d];
            const std::size_t dist = want > cur ? want - cur
                                                : cur - want;
            if (dist <= 1) {
                decisions[d].state = cur; // inside the band: hold
            } else {
                // Move one step toward the predicted optimum.
                decisions[d].state = want > cur ? cur + 1 : cur - 1;
            }
            if (decisions[d].state != last[d])
                ++transitions_;
            last[d] = decisions[d].state;
        }
        return decisions;
    }

    std::uint64_t transitions() const { return transitions_; }

  private:
    core::PcstallController inner;
    std::vector<std::size_t> last;
    std::uint64_t transitions_ = 0;
};

/** Count transitions a plain controller makes (for comparison). */
class TransitionCounter : public dvfs::DvfsController
{
  public:
    explicit TransitionCounter(dvfs::DvfsController &inner)
        : inner(inner)
    {}

    std::string name() const override { return inner.name(); }
    dvfs::SweepNeed sweepNeed() const override
    {
        return inner.sweepNeed();
    }
    bool needsWaveLevel() const override
    {
        return inner.needsWaveLevel();
    }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override
    {
        auto decisions = inner.decide(ctx);
        if (last.size() != decisions.size())
            last.assign(decisions.size(), ctx.nominalState);
        for (std::size_t d = 0; d < decisions.size(); ++d) {
            if (decisions[d].state != last[d])
                ++transitions_;
            last[d] = decisions[d].state;
        }
        return decisions;
    }

    std::uint64_t transitions() const { return transitions_; }

  private:
    dvfs::DvfsController &inner;
    std::vector<std::size_t> last;
    std::uint64_t transitions_ = 0;
};

} // namespace

int
main(int argc, char **argv)
try {
    const CliOptions cli(argc, argv,
                         {{"cus", "N"}, {"workload", "NAME"}});
    const auto cus = static_cast<std::uint32_t>(cli.getInt("cus", 8));
    const std::string workload = cli.get("workload", "BwdBN");

    sim::RunConfig cfg;
    cfg.gpu.numCus = cus;
    cfg.scaled();
    sim::ExperimentDriver driver(cfg);

    workloads::WorkloadParams wp;
    wp.numCus = cus;
    auto app = std::make_shared<const isa::Application>(
        workloads::makeWorkload(workload, wp));

    std::printf("Custom controller demo on '%s' (%u CUs)\n\n",
                workload.c_str(), cus);

    core::PcstallController plain(
        core::PcstallConfig::forEpoch(cfg.epochLen), cus);
    TransitionCounter counted(plain);
    const sim::RunResult base = driver.run(app, counted);

    HysteresisPcstall hyst(core::PcstallConfig::forEpoch(cfg.epochLen),
                           cus, driver.nominalState());
    const sim::RunResult hr = driver.run(app, hyst);

    std::printf("%-14s ED2P %.4e  energy %.4f mJ  transitions %llu\n",
                base.controller.c_str(), base.ed2p(),
                base.energy * 1e3,
                static_cast<unsigned long long>(counted.transitions()));
    std::printf("%-14s ED2P %.4e  energy %.4f mJ  transitions %llu\n",
                hr.controller.c_str(), hr.ed2p(), hr.energy * 1e3,
                static_cast<unsigned long long>(hyst.transitions()));

    std::printf("\nThe hysteresis band cuts V/f transitions by %.0f%% "
                "at an ED2P cost of %.1f%% - the kind of trade a "
                "product team can explore by subclassing "
                "dvfs::DvfsController.\n",
                100.0 * (1.0 - static_cast<double>(hyst.transitions()) /
                         static_cast<double>(
                             std::max<std::uint64_t>(
                                 counted.transitions(), 1))),
                (hr.ed2p() / base.ed2p() - 1.0) * 100.0);
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
