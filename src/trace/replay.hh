/**
 * @file
 * The trace replay engine: re-drives a DVFS controller through the
 * epoch boundaries of a recorded trace without instantiating the GPU
 * timing model. All metric arithmetic goes through the same
 * sim::EpochLedger (and the same deterministic fault injector,
 * re-seeded from the recorded FaultConfig) in the same order as the
 * live driver, so replaying the trace under the captured controller
 * reproduces the live run's RunResult bit-for-bit — and replaying it
 * under a *different* controller answers "what would this policy have
 * decided on the exact same epochs" in milliseconds instead of a full
 * simulation.
 */

#ifndef PCSTALL_TRACE_REPLAY_HH
#define PCSTALL_TRACE_REPLAY_HH

#include <cstdint>
#include <string>

#include "dvfs/controller.hh"
#include "obs/provenance.hh"
#include "sim/experiment.hh"
#include "trace/format.hh"

namespace pcstall::trace
{

/** Options of one replay pass. */
struct ReplayOptions
{
    /**
     * Compare the replaying controller's decisions (and the fault
     * injector's transition outcomes) against what the trace recorded,
     * counting mismatches. Only meaningful when replaying the same
     * controller kind the trace was captured under.
     */
    bool verifyDecisions = true;
    /**
     * Compute the per-epoch regret summary (RunResult::regret)
     * without retaining individual decision records. Implied by
     * @ref provenance.
     */
    bool auditRegret = false;
    /**
     * Optional decision-provenance sink (not owned). When set, the
     * replay emits the full DecisionRecord stream — identical to what
     * a live run over the same trace would have captured, which is
     * how `trace_inspect explain` re-derives provenance from a PCTR
     * trace after the fact.
     */
    obs::ProvenanceLog *provenance = nullptr;
    /**
     * Record metrics exactly as the equivalent live run would have:
     * suppress the replay-only trace.replays / trace.replay_frames /
     * trace.replay_mismatches counters and synthesize the
     * deterministic oracle.sweeps / oracle.forks totals a live run of
     * a sweep-needing controller would have recorded (one sweep per
     * sweep-bearing frame, one fork per V/f state each). This is what
     * lets a --trace-cache sweep merge canonical metrics
     * byte-identical to a fresh simulation (docs/replay_studies.md);
     * the wall-clock trace.replay_wall_ns histogram stays recorded
     * either way (Timing kind, outside the canonical sections).
     */
    bool liveMetricProfile = false;
};

/** Outcome of one replay pass. */
struct ReplayOutcome
{
    /** Empty when the replay ran; a one-line diagnostic otherwise. */
    std::string error;
    /** The replayed run's metrics (same shape as a live run's). */
    sim::RunResult result;
    /** Epochs whose decisions differed from the recorded ones. */
    std::uint64_t decisionMismatches = 0;
    /** First mismatch, described for diagnostics ("" when none). */
    std::string firstMismatch;
    /** Wall-clock of the replay pass. */
    double replayWallMs = 0.0;
    /** Wall-clock of the captured live run (from the trailer). */
    double captureWallMs = 0.0;

    bool ok() const { return error.empty(); }
    bool deterministic() const
    {
        return ok() && decisionMismatches == 0;
    }
    /** Live-vs-replay wall-clock speedup (0 when unmeasurable). */
    double speedup() const
    {
        return replayWallMs > 0.0 ? captureWallMs / replayWallMs : 0.0;
    }
};

/**
 * Re-drives controllers from one decoded trace. The trace must stay
 * alive for the driver's lifetime.
 */
class ReplayDriver
{
  public:
    explicit ReplayDriver(const TraceData &trace);

    /**
     * Replay every recorded epoch boundary through @p controller.
     * The controller must be freshly constructed (same cold state the
     * live run started from) for decision verification to be
     * meaningful.
     */
    ReplayOutcome run(dvfs::DvfsController &controller,
                      const ReplayOptions &options = {});

    const TraceData &trace() const { return data; }

  private:
    const TraceData &data;
};

} // namespace pcstall::trace

#endif // PCSTALL_TRACE_REPLAY_HH
