/**
 * @file
 * Fault-resilience study: how gracefully does each controller degrade
 * when the idealized stack turns hostile?
 *
 *  (1) telemetry noise sweep - relative Gaussian noise on every epoch
 *      counter, sigma 0 -> 20%, for reactive STALL, plain PCSTALL and
 *      PCSTALL with the divergence watchdog. Reports EDP degradation
 *      against each controller's own fault-free run, the fraction of
 *      epochs the watchdog spent in its STALL fallback, and a legality
 *      check over every V/f state the run emitted.
 *  (2) predictor-storage upsets - bit flips in the PC tables with and
 *      without the parity scrub.
 *  (3) DVFS transition faults - transient failures, extra settle
 *      latency and frequency-grid quantization.
 *
 * All injections are deterministic in --fault-seed, so every row is
 * reproducible; every (workload, variant, fault config) cell runs
 * through the parallel SweepRunner.
 */

#include <cstdio>
#include <memory>

#include "common/stats_util.hh"
#include "harness.hh"
#include "sweep_runner.hh"

using namespace pcstall;

namespace
{

struct Variant
{
    const char *label;
    const char *design;
    bool watchdog;
};

constexpr Variant kVariants[] = {
    {"STALL", "STALL", false},
    {"PCSTALL", "PCSTALL", false},
    {"PCSTALL+WD", "PCSTALL", true},
};

/** A sweep cell for one (variant, fault config). */
bench::SweepCell
faultCell(const bench::SweepRunner &runner, const std::string &name,
          const Variant &variant, const faults::FaultConfig &faults)
{
    bench::SweepCell c = runner.cell(name, variant.design);
    c.opts.faults = faults;
    c.opts.watchdog = variant.watchdog;
    return c;
}

/**
 * Every V/f state a run emitted is a legal table index. The ledger
 * looks each CU's applied state up in the bounds-checked V/f table on
 * every epoch, so an illegal state throws and fails its cell (and,
 * through the sweep's failure tally, the process); a run that
 * finished accounted its residency over exactly the table's states.
 */
bool
statesLegal(const sim::RunResult &r, std::size_t num_states)
{
    return r.freqTimeShare.size() == num_states;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&] {
        auto opts = bench::BenchOptions::parse(argc, argv);
        bench::banner("FAULT RESILIENCE",
                      "EDP degradation under injected faults", opts);

        std::vector<std::string> names = {"hacc", "xsbench"};
        if (!opts.workloads.empty())
            names = opts.workloads;

        const std::size_t num_states =
            sim::ExperimentDriver(opts.runConfig()).table().numStates();
        bool states_legal = true;
        bench::SweepRunner runner(opts);

        const auto check = [&](const bench::CellOutcome &cell) {
            if (cell.run.ok &&
                !statesLegal(cell.run.result, num_states))
                states_legal = false;
        };

        // ------------------------------------------------------------
        // 1. Telemetry noise sweep.
        // ------------------------------------------------------------
        std::printf("--- (1) telemetry noise (relative sigma on every "
                    "counter) ---\n");
        const std::vector<double> sigmas = {0.0, 0.02, 0.05, 0.10,
                                            0.20};
        {
            // Per workload: 3 fault-free reference cells, then one
            // cell per (sigma, variant).
            const std::size_t block = 3 + sigmas.size() * 3;
            std::vector<bench::SweepCell> cells;
            for (const std::string &name : names) {
                for (const Variant &v : kVariants) {
                    cells.push_back(faultCell(runner, name, v,
                                              faults::FaultConfig{}));
                }
                for (const double sigma : sigmas) {
                    faults::FaultConfig fc = opts.faults;
                    fc.telemetry.sigma = sigma;
                    fc.telemetry.enabled = sigma > 0.0;
                    for (const Variant &v : kVariants)
                        cells.push_back(
                            faultCell(runner, name, v, fc));
                }
            }
            const std::vector<bench::CellOutcome> outcomes =
                runner.run(std::move(cells));
            for (const bench::CellOutcome &cell : outcomes)
                check(cell);

            for (std::size_t w = 0; w < names.size(); ++w) {
                const std::size_t at = w * block;
                if (!outcomes[at].run.ok)
                    continue;
                double base_edp[3];
                for (std::size_t v = 0; v < 3; ++v) {
                    base_edp[v] = outcomes[at + v].run.ok
                        ? outcomes[at + v].run.result.edp() : 0.0;
                }

                TableWriter table({"sigma", "STALL EDPx",
                                   "PCSTALL EDPx", "PCSTALL acc",
                                   "+WD EDPx", "+WD acc",
                                   "+WD fallback%", "+WD trips"});
                for (std::size_t s = 0; s < sigmas.size(); ++s) {
                    table.beginRow().cell(sigmas[s], 2);
                    for (std::size_t v = 0; v < 3; ++v) {
                        const bench::RunOutcome &run =
                            outcomes[at + 3 + s * 3 + v].run;
                        if (!run.ok || base_edp[v] <= 0.0) {
                            table.cell("-");
                            if (v >= 1)
                                table.cell("-");
                            if (v == 2)
                                table.cell("-").cell("-");
                            continue;
                        }
                        const sim::RunResult &r = run.result;
                        table.cell(r.edp() / base_edp[v], 3);
                        if (v == 1) {
                            table.cell(r.predictionAccuracy, 3);
                        } else if (v == 2) {
                            const double fallback_share =
                                r.epochs == 0 ? 0.0
                                : 100.0 *
                                  static_cast<double>(
                                      r.faults.fallbackEpochs) /
                                  static_cast<double>(r.epochs);
                            table.cell(r.predictionAccuracy, 3)
                                .cell(fallback_share, 1)
                                .cell(static_cast<long long>(
                                    r.faults.watchdogTrips));
                        }
                    }
                    table.endRow();
                }
                std::printf("%s:\n", names[w].c_str());
                bench::emit(opts, table);
                std::printf("\n");
            }
        }

        // ------------------------------------------------------------
        // 2. Predictor-storage upsets (PC-table bit flips).
        // ------------------------------------------------------------
        std::printf("--- (2) PC-table bit flips (PCSTALL, 2 "
                    "upsets/epoch) ---\n");
        {
            std::vector<bench::SweepCell> cells;
            for (const std::string &name : names) {
                cells.push_back(faultCell(runner, name, kVariants[1],
                                          faults::FaultConfig{}));
                for (const bool ecc : {false, true}) {
                    faults::FaultConfig fc = opts.faults;
                    fc.storage.enabled = true;
                    fc.storage.upsetsPerEpoch = 2.0;
                    bench::SweepCell c =
                        faultCell(runner, name, kVariants[1], fc);
                    c.opts.ecc = ecc;
                    cells.push_back(std::move(c));
                }
            }
            const std::vector<bench::CellOutcome> outcomes =
                runner.run(std::move(cells));
            for (const bench::CellOutcome &cell : outcomes)
                check(cell);

            TableWriter table({"workload", "ecc", "bit flips",
                               "scrubs", "accuracy", "EDPx"});
            for (std::size_t w = 0; w < names.size(); ++w) {
                const std::size_t at = w * 3;
                if (!outcomes[at].run.ok)
                    continue;
                const double base_edp =
                    outcomes[at].run.result.edp();
                for (std::size_t i = 0; i < 2; ++i) {
                    const bench::RunOutcome &run =
                        outcomes[at + 1 + i].run;
                    if (!run.ok)
                        continue;
                    const sim::RunResult &r = run.result;
                    table.beginRow()
                        .cell(names[w])
                        .cell(i == 0 ? "off" : "on")
                        .cell(static_cast<long long>(
                            r.faults.tableBitFlips))
                        .cell(static_cast<long long>(
                            r.faults.tableScrubs))
                        .cell(r.predictionAccuracy, 3)
                        .cell(r.edp() / base_edp, 3);
                    table.endRow();
                }
            }
            bench::emit(opts, table);
            std::printf("\n");
        }

        // ------------------------------------------------------------
        // 3. DVFS transition faults.
        // ------------------------------------------------------------
        std::printf("--- (3) V/f transition faults (25%% transient "
                    "fails, +1 us settle, 200 MHz grid) ---\n");
        {
            faults::FaultConfig fc = opts.faults;
            fc.dvfs.enabled = true;
            fc.dvfs.transitionFailProb = 0.25;
            fc.dvfs.extraSwitchLatency = tickUs;
            fc.dvfs.granularity = 200 * freqMHz;

            std::vector<bench::SweepCell> cells;
            for (const std::string &name : names) {
                for (const std::size_t v : {std::size_t{0},
                                            std::size_t{1}}) {
                    cells.push_back(faultCell(
                        runner, name, kVariants[v],
                        faults::FaultConfig{}));
                    cells.push_back(
                        faultCell(runner, name, kVariants[v], fc));
                }
            }
            const std::vector<bench::CellOutcome> outcomes =
                runner.run(std::move(cells));
            for (const bench::CellOutcome &cell : outcomes)
                check(cell);

            TableWriter table({"workload", "design", "transitions",
                               "failed", "EDPx"});
            for (std::size_t w = 0; w < names.size(); ++w) {
                for (std::size_t v = 0; v < 2; ++v) {
                    const std::size_t at = (w * 2 + v) * 2;
                    if (!outcomes[at].run.ok ||
                        !outcomes[at + 1].run.ok)
                        continue;
                    const double base_edp =
                        outcomes[at].run.result.edp();
                    const sim::RunResult &r =
                        outcomes[at + 1].run.result;
                    table.beginRow()
                        .cell(names[w])
                        .cell(kVariants[v].label)
                        .cell(static_cast<long long>(r.transitions))
                        .cell(static_cast<long long>(
                            r.faults.transitionFailures))
                        .cell(r.edp() / base_edp, 3);
                    table.endRow();
                }
            }
            bench::emit(opts, table);
            std::printf("\n");
        }

        std::printf("all emitted V/f states legal: %s\n",
                    states_legal ? "yes" : "NO - BUG");
        return states_legal ? 0 : 1;
    });
}
