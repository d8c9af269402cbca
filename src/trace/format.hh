/**
 * @file
 * The versioned, self-describing binary epoch-trace format
 * (docs/trace_format.md).
 *
 * A trace records everything an epoch-boundary observer of a live run
 * saw: the run's configuration (V/f table, power parameters, fault
 * seeds), one frame per DVFS epoch (the physical per-CU and
 * per-wavefront counters, resident-wave snapshots, optional
 * fork-pre-execute sweep, and the decisions the captured controller
 * made), an optional PC-table snapshot, and a trailer with run totals
 * and an FNV-1a checksum over the whole file. That is sufficient to
 * re-drive any controller through trace::ReplayDriver without
 * instantiating the GPU timing model.
 *
 * File layout (all multi-byte integers little-endian):
 *
 *   "PCTR"  u16 version  u16 reserved
 *   repeated sections: u8 tag, varint payload length, payload
 *     META   (exactly once, first)
 *     FRAME  (once per epoch, in time order)
 *     PCSNAP (at most once)
 *     END    (exactly once, last; trailer + checksum of all prior
 *             file bytes)
 *
 * Hot counters inside FRAME payloads are LEB128 varints, signed values
 * zigzag-coded, and epoch timestamps delta-coded against the previous
 * frame, so traces stay compact at fine epoch lengths.
 */

#ifndef PCSTALL_TRACE_FORMAT_HH
#define PCSTALL_TRACE_FORMAT_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dvfs/controller.hh"
#include "faults/fault_config.hh"
#include "gpu/epoch_stats.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"
#include "sim/experiment.hh"
#include "trace/snapshot.hh"

namespace pcstall::trace
{

/** Current trace format version (bumped on any wire change). */
inline constexpr std::uint16_t traceFormatVersion = 1;

/** Hierarchical power-cap wrapper of the captured controller, if any
 *  (needed to reconstruct a NAME+CAP controller for replay). */
struct HierarchicalMeta
{
    bool enabled = false;
    double powerCap = 0.0;
    std::uint32_t reviewEpochs = 0;
    double widenBelow = 0.0;
};

/** Run metadata: everything replay needs besides the frames. */
struct TraceMeta
{
    /** Workload (application) name of the captured run. */
    std::string workload;
    /** Display name of the captured controller (e.g. "PCSTALL"). */
    std::string controller;
    /** Sweep kind the captured controller requested (SweepNeed). */
    std::uint8_t sweepNeed = 0;
    HierarchicalMeta hierarchical;

    // --- RunConfig image ------------------------------------------
    std::uint32_t numCus = 0;
    std::uint32_t waveSlotsPerCu = 0;
    std::uint32_t cusPerDomain = 1;
    Tick epochLen = 0;
    std::uint8_t objective = 0;
    double perfDegradationLimit = 0.0;
    Freq nominalFreq = 0;
    Tick maxSimTime = 0;
    Tick transitionLatency = -1;
    bool collectTrace = false;
    bool watchdogFallback = false;
    bool eccProtectTables = false;
    power::PowerParams power;
    faults::FaultConfig faults;

    /** The run's V/f table (ascending frequency). */
    std::vector<power::VfState> vfStates;

    std::uint32_t numDomains() const
    {
        return cusPerDomain == 0 ? 0 : numCus / cusPerDomain;
    }
};

/** One decision of the captured controller, post-sanitize. */
struct FrameDecision
{
    /** V/f state the controller chose (after sanitizeDecisions). */
    std::size_t decided = 0;
    /** Its instruction prediction (< 0 = no prediction). */
    double predictedInstr = -1.0;
    /** State the domain really ran at (fault-injector outcome). */
    std::size_t applied = 0;
};

/** One epoch boundary of the captured run. */
struct EpochFrame
{
    Tick start = 0;
    Tick end = 0;
    /** End of the energy-accounted span (prorated final epoch). */
    Tick accountedEnd = 0;
    /** True on the application-finished frame (no decisions). */
    bool done = false;
    /** The physical epoch record (pre-telemetry-fault). */
    gpu::EpochRecord record;
    /** Waves resident at the boundary. */
    std::vector<gpu::WaveSnapshot> snapshots;
    /** Fork-pre-execute sweep taken at this boundary, if any. */
    bool hasSweep = false;
    dvfs::AccurateEstimates sweep;
    /** One entry per domain; empty on the final frame. */
    std::vector<FrameDecision> decisions;
};

/** Trailer of a trace file: run totals for replay finalization. */
struct TraceTrailer
{
    std::uint64_t frameCount = 0;
    /** Time of the captured run's last committed instruction. */
    Tick lastCommitTick = 0;
    std::uint64_t totalCommitted = 0;
    /** True when the captured application ran to completion. */
    bool completed = false;
    /** Wall-clock of the captured live run (replay speedup basis). */
    double captureWallMs = 0.0;
};

/** A fully decoded trace file. */
struct TraceData
{
    TraceMeta meta;
    std::vector<EpochFrame> frames;
    /** Embedded predictor snapshot (empty() when absent). */
    PcTableSnapshot pcSnapshot;
    TraceTrailer trailer;
};

/** Build the meta block for a run about to be captured. */
TraceMeta makeTraceMeta(const sim::RunConfig &config,
                        const power::VfTable &table,
                        const std::string &workload,
                        const dvfs::DvfsController &controller,
                        const HierarchicalMeta &hier = {});

/**
 * Reconstruct the RunConfig image a trace was captured under. The GPU
 * timing-model parameters not needed for replay keep their defaults.
 */
sim::RunConfig runConfigFromMeta(const TraceMeta &meta);

/** Reconstruct the captured run's V/f table. */
power::VfTable vfTableFromMeta(const TraceMeta &meta);

/**
 * Streaming trace writer. Writes the header and META section on
 * construction, one FRAME section per writeFrame(), and the END
 * trailer (with the whole-file checksum) on finish(). Any I/O failure
 * is sticky: ok() turns false and later calls are no-ops.
 *
 * Crash-safe: the stream goes to a temporary sibling of @p path that
 * is committed (fsync + atomic rename) only by finish(), so a crashed
 * or killed run never leaves a truncated file at the trace path. The
 * temporary is registered with the signal-exit cleanup list and
 * unlinked by the destructor if finish() was never reached.
 */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, const TraceMeta &meta);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    bool ok() const { return ok_; }
    const std::string &path() const { return path_; }
    std::uint64_t frameCount() const { return frames_; }

    void writeFrame(const EpochFrame &frame);

    /** Embed a predictor snapshot (call at most once, before finish). */
    void writePcSnapshot(const PcTableSnapshot &snap);

    /** Write the END trailer and close the file. */
    void finish(const TraceTrailer &trailer);

  private:
    void writeSection(std::uint8_t tag, const std::string &payload);

    std::string path_;
    /** Temporary the stream actually writes; renamed by finish(). */
    std::string temp_;
    std::ofstream os;
    std::uint64_t hash;
    std::uint64_t frames_ = 0;
    /** Previous frame's end tick (timestamp delta base). */
    Tick prevEnd_ = 0;
    bool ok_ = false;
    bool finished = false;
};

/** Result of reading a trace file. */
struct TraceReadResult
{
    std::optional<TraceData> trace;
    /** Empty on success; a one-line diagnostic otherwise. */
    std::string error;

    bool ok() const { return trace.has_value(); }
};

/**
 * Read and strictly validate a trace file: magic, version, section
 * ordering, per-frame geometry against the META block, trailer frame
 * count, and the whole-file checksum. Truncated or corrupt files are
 * rejected with a diagnostic, never partially decoded.
 */
TraceReadResult readTraceFile(const std::string &path);

/** Callback readTraceFile runs between sizing a file and reading it. */
using TraceReadHook = void (*)(const std::string &path);

/**
 * Test hook: install @p hook (nullptr removes it), so a test can
 * shrink a file inside readTraceFile's size-then-read window.
 */
void setTraceReadHook(TraceReadHook hook);

/**
 * Epoch observer that streams a live run into a TraceWriter. Wall
 * clock runs from construction to onRunEnd(), giving the trailer's
 * captureWallMs; an optional snapshot provider is invoked at run end
 * to embed the controller's learned PC table.
 */
class TraceCapture : public sim::EpochObserver
{
  public:
    using SnapshotProvider = std::function<PcTableSnapshot()>;

    explicit TraceCapture(TraceWriter &writer);

    /** Embed @p provider()'s snapshot at run end. */
    void setSnapshotProvider(SnapshotProvider provider)
    {
        snapProvider = std::move(provider);
    }

    void onEpoch(const sim::EpochCapture &epoch) override;
    void onRunEnd(const sim::RunResult &result) override;

    bool finished() const { return finished_; }

  private:
    TraceWriter &writer;
    SnapshotProvider snapProvider;
    std::int64_t startNs = 0;
    bool finished_ = false;
};

} // namespace pcstall::trace

#endif // PCSTALL_TRACE_FORMAT_HH
