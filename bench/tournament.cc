/**
 * @file
 * bench/tournament: rank every registered controller over every
 * workload under the EDP / ED^2P / energy-under-bound objectives and
 * print the leaderboard (see docs/controllers.md).
 *
 * The grid runs through SweepRunner, so the farm flags compose:
 * --store checkpoints cells so a crashed run restarts where it
 * stopped, --shard i/N splits the grid across workers, --threads N
 * parallelizes, --trace-cache DIR replays previously captured cells
 * (docs/replay_studies.md) - all with the leaderboard byte-identical
 * to a serial run.
 * --controllers a,b and --objectives edp,ed2p subset the grid;
 * --leaderboard-json FILE additionally writes the machine-readable
 * document.
 */

#include <cstdio>

#include "store/atomic_file.hh"
#include "tournament_lib.hh"
#include "zoo/registry.hh"

using namespace pcstall;

int
main(int argc, char **argv)
{
    return bench::guardedMain([&] {
        const CliOptions cli(argc, argv, bench::BenchOptions::flags(
            {{"objectives", "a,b"}, {"leaderboard-json", "FILE"}}));
        auto opts = bench::BenchOptions::parse(cli);
        const std::vector<bench::TournamentObjective> objectives =
            bench::tournamentObjectives(cli.get("objectives", ""));
        const std::string json_out = cli.get("leaderboard-json", "");

        bench::banner("TOURNAMENT",
                      "Controller leaderboard across objectives", opts);

        const std::vector<std::string> designs =
            opts.controllers.empty()
                ? dvfs::ControllerRegistry::instance()
                      .tournamentNames()
                : opts.controllers;
        const std::vector<std::string> workloads =
            opts.sweepWorkloadNames();

        bench::SweepRunner runner(opts);
        const bench::Leaderboard board = bench::runTournament(
            runner, designs, workloads, objectives);
        bench::publishTournamentMetrics(board);

        bench::emit(opts, bench::leaderboardTable(board));
        std::printf("\n(%zu controllers x %zu workloads x %zu "
                    "objectives; scores are geomean ratios vs the "
                    "static nominal baseline, lower is better; wins "
                    "count per-(workload, objective) minima)\n",
                    board.rows.size(), board.workloads.size(),
                    board.objectives.size());

        if (!json_out.empty()) {
            const std::string err = store::writeFileAtomic(
                json_out, bench::leaderboardJson(board));
            if (!err.empty())
                warn("--leaderboard-json: " + err);
            else
                inform("wrote leaderboard JSON to " + json_out);
        }
        return 0;
    });
}
