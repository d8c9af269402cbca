/**
 * @file
 * Decision provenance: the per-epoch "why this frequency" record
 * stream behind docs/provenance.md.
 *
 * Every epoch boundary of an audited run yields one DecisionRecord:
 * the predictor inputs the controller consulted (PC key, table
 * hit/miss counts, quantized sensitivity model, stall/memory
 * counters), the chosen and applied V/f state per domain, and - once
 * the next epoch has been observed - the realized outcome: hindsight
 * scores for every candidate state and the regret of the decision
 * against the best-in-hindsight (oracle) and the static-nominal
 * choice. Records are produced inside sim::EpochLedger, which both
 * the live ExperimentDriver and trace::ReplayDriver funnel through in
 * identical order, so a replayed trace re-derives the live run's
 * provenance exactly. Records are never stored: the epoch trace is
 * the one per-epoch record format, and `trace_inspect explain`
 * re-derives the records from it on demand; provenanceJson() renders
 * them.
 *
 * Regret definitions (also in docs/provenance.md):
 *
 *   score(s)      per-domain hindsight score of state s, computed by
 *                 dvfs::scoreStates() from the realized epoch record
 *                 via the STALL estimation model (lower is better).
 *   oracle regret = sum_d score(applied_d) - min_s score(s)_d  >= 0
 *   static regret = sum_d score(applied_d) - score(nominal)_d
 *
 * Relative forms divide by the respective reference sum, clamped away
 * from zero, so "+3.1% EDP vs oracle" style displays stay meaningful.
 */

#ifndef PCSTALL_OBS_PROVENANCE_HH
#define PCSTALL_OBS_PROVENANCE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pcstall::obs
{

/** One domain's slice of a DecisionRecord. */
struct DomainDecisionProv
{
    // --- predictor inputs (decision time) -------------------------
    /** PC-table key of the first resident wave (0 = none resident). */
    std::uint64_t pcKey = 0;
    /** Predictor-table lookups for the domain's waves this epoch. */
    std::uint32_t lookups = 0;
    /** Lookups that hit a stored entry. */
    std::uint32_t hits = 0;
    /** Waves predicted from their own fresh same-region model. */
    std::uint32_t sameRegion = 0;
    /** Waves predicted by the reactive fallback (table miss). */
    std::uint32_t reactive = 0;
    /** Predicted phase-model slope d(instr)/d(f GHz), post-lookup. */
    double predictedSens = 0.0;
    /** Predicted phase-model intercept (instruction floor I0). */
    double predictedLevel = 0.0;
    /** Instructions the domain committed in the elapsed (observed)
     *  epoch - what a reactive policy extrapolates from. */
    std::uint64_t elapsedInstr = 0;
    /** Load-stall time of the elapsed epoch, summed over CUs (ticks). */
    std::uint64_t loadStallTicks = 0;
    /** L2-level memory accesses of the elapsed epoch (hits+misses). */
    std::uint64_t memAccesses = 0;

    // --- the decision ---------------------------------------------
    /** Chosen V/f state (post-sanitize). */
    std::uint8_t chosenState = 0;
    /** State the domain really ran at (fault-injector outcome). */
    std::uint8_t appliedState = 0;
    /** Controller's instruction prediction (< 0 = none). */
    double predictedInstr = -1.0;

    // --- realized outcome (valid when the record is realized) -----
    /** Instructions actually committed in the decided epoch. */
    std::uint64_t realizedInstr = 0;
    /** Hindsight score of the applied state. */
    double chosenScore = 0.0;
    /** Hindsight score of the best state. */
    double bestScore = 0.0;
    /** Best-in-hindsight state index. */
    std::uint8_t bestState = 0;
    /** Hindsight score of the static-nominal state. */
    double nominalScore = 0.0;

    bool operator==(const DomainDecisionProv &) const = default;
};

/** One epoch's decision, inputs and realized outcome. */
struct DecisionRecord
{
    /** Epoch index of the *decided* epoch (0-based). */
    std::uint64_t epoch = 0;
    /** Start tick of the decided epoch. */
    std::int64_t start = 0;
    /** True when a watchdog fallback made this decision. */
    bool fallbackActive = false;
    /** False only for a run-final dangling record (the decided epoch
     *  never completed, so no outcome exists). */
    bool realized = false;
    std::vector<DomainDecisionProv> domains;
    /** Chip-level hindsight score per candidate state (each state's
     *  per-domain scores summed); empty unless realized. */
    std::vector<double> stateScores;

    double chosenScoreSum() const;
    double bestScoreSum() const;
    double nominalScoreSum() const;
    /** Absolute regret vs the best-in-hindsight decision (>= 0). */
    double oracleRegret() const;
    /** Absolute regret vs best-static (may be negative). */
    double staticRegret() const;
    /** Relative oracle regret (vs |bestScoreSum|, clamped). */
    double oracleRegretRel() const;
    /** Relative static regret (vs |nominalScoreSum|, clamped). */
    double staticRegretRel() const;

    bool operator==(const DecisionRecord &) const = default;
};

/**
 * Compact, order-deterministic regret rollup of one run: enough for
 * mean/p95 leaderboard columns without retaining the record stream.
 * Checkpointed with the cell result (store/cell_codec), so resumed
 * sweeps report identical regret columns.
 */
struct RegretSummary
{
    /** Log-scale bucket layout for relative oracle regret. */
    static constexpr int bucketsPerOctave = 4;
    static constexpr int minExp = -20;
    static constexpr int maxExp = 12;
    /** underflow + finite buckets + overflow. */
    static constexpr std::size_t numBuckets =
        2 + static_cast<std::size_t>(maxExp - minExp) * bucketsPerOctave;

    /** Realized decisions scored. */
    std::uint64_t count = 0;
    /** Sum / max of relative oracle regret. */
    double oracleSum = 0.0;
    double oracleMax = 0.0;
    /** Sum of relative static regret (may be negative). */
    double staticSum = 0.0;
    /** Bucket counts of relative oracle regret (empty until first
     *  add(); sized numBuckets after). */
    std::vector<std::uint64_t> buckets;

    void add(double oracle_rel, double static_rel);

    /** Fold @p other's decisions into this rollup (order-insensitive;
     *  the tournament merges one summary per controller design). */
    void merge(const RegretSummary &other);

    double meanOracle() const;
    double meanStatic() const;
    /** Estimated quantile of relative oracle regret (bucket upper
     *  edge; 0.95 = the leaderboard's p95). */
    double percentile(double p) const;

    bool empty() const { return count == 0; }

    bool operator==(const RegretSummary &) const = default;
};

/** Run identity of a provenance stream. */
struct ProvenanceMeta
{
    std::string workload;
    std::string controller;
    /** Objective display name (dvfs::objectiveName). */
    std::string objective;
    std::int64_t epochLen = 0;
    std::uint32_t numDomains = 0;
    std::uint32_t numStates = 0;
    std::uint32_t nominalState = 0;
    /** V/f table frequencies in MHz, ascending (display only). */
    std::vector<std::uint32_t> stateFreqMhz;

    bool operator==(const ProvenanceMeta &) const = default;
};

/** A full provenance stream: meta, records, and the regret rollup. */
struct ProvenanceLog
{
    ProvenanceMeta meta;
    std::vector<DecisionRecord> records;
    RegretSummary regret;

    bool operator==(const ProvenanceLog &) const = default;
};

/**
 * Render @p log as the "pcstall-provenance-v1" JSON document (schema
 * checked by tools/check_obs_schema.py provenance). Deterministic:
 * equal logs always render to identical text; non-finite numbers
 * render as null.
 */
std::string provenanceJson(const ProvenanceLog &log);

} // namespace pcstall::obs

#endif // PCSTALL_OBS_PROVENANCE_HH
