/**
 * @file
 * Wire codec for checkpointed sweep cells: the full sim::RunResult
 * (including the fault summary and regret rollup), the outcome
 * status, and the cell's deterministic metrics shard.
 *
 * Fidelity is the contract: every field round-trips exactly - doubles
 * travel as raw IEEE-754 bits - so a sweep that resumes cells from
 * the store emits byte-identical figure output (tables, CSV, merged
 * canonical metrics) to one that computed every cell live. The
 * metrics shard carries only Deterministic-kind metrics: wall-clock
 * (Timing) values are machine- and run-specific and are re-recorded
 * fresh on every run.
 */

#ifndef PCSTALL_STORE_CELL_CODEC_HH
#define PCSTALL_STORE_CELL_CODEC_HH

#include <string>

#include "obs/metrics.hh"
#include "sim/experiment.hh"

namespace pcstall::store
{

/** Payload codec version (inside the PCRS entry; see result_store).
 *  v2 added the RunResult regret summary (obs::RegretSummary); v3
 *  dropped the per-epoch trace entries (the PCTR epoch trace is the
 *  one per-epoch record). */
inline constexpr std::uint16_t cellCodecVersion = 3;

/** A checkpointed run outcome (mirrors bench::RunOutcome). */
struct StoredRun
{
    sim::RunResult result;
    bool ok = false;
    /** One-line diagnostic when !ok (not currently checkpointed;
     *  failures are always recomputed). */
    std::string error;
};

/** Everything one store entry carries. */
struct StoredCell
{
    StoredRun run;
    /** The cell's Deterministic-kind metrics shard, replayed into the
     *  merge on a store hit so canonical metrics stay byte-identical
     *  between resumed and uninterrupted sweeps. */
    obs::MetricsSnapshot metrics;
};

/**
 * Serialize @p cell into an opaque payload for ResultStore::put().
 * Timing-kind metrics are dropped from the shard.
 *
 * @param cell  The completed cell to encode.
 * @return The payload bytes.
 */
std::string encodeStoredCell(const StoredCell &cell);

/**
 * Decode a payload from ResultStore::get(). Strict: any truncation,
 * trailing garbage or version mismatch fails (so the caller treats
 * the entry as corrupt and recomputes).
 *
 * @param payload  Bytes previously produced by encodeStoredCell().
 * @param out      Receives the decoded cell on success.
 * @param error    Receives a one-line diagnostic on failure.
 * @return True on success.
 */
bool decodeStoredCell(const std::string &payload, StoredCell &out,
                      std::string &error);

} // namespace pcstall::store

#endif // PCSTALL_STORE_CELL_CODEC_HH
