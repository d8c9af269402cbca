/**
 * @file
 * In-memory span recording for the benchmark's traced runs.
 *
 * A span is one timed call into a simulator layer: its name, start and
 * end (steady clock), the span that caused it and the sweep cell it
 * belongs to. Spans are recorded from the benchmark's own code around
 * each layer's public entry points, kept in memory, and written out
 * when the benchmark ends. A layer's self time is its span's duration
 * minus the part its child spans (on the same thread) cover.
 */

#ifndef PCSTALL_PERFBENCH_SPAN_HH
#define PCSTALL_PERFBENCH_SPAN_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds. */
std::int64_t nowNs();

/** One recorded span. Names are string literals (no allocation). */
struct Span
{
    const char *name = "";
    std::int64_t id = 0;
    /** Causing span (-1 for a root). */
    std::int64_t parent = -1;
    /** Sweep cell the span belongs to (-1 outside any cell). */
    std::int64_t cell = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Small per-thread index (spans nest only within one thread). */
    std::uint32_t thread = 0;
};

/** Thread-safe span sink. */
class Tracer
{
  public:
    std::int64_t nextId();
    void record(const Span &span);
    /** Every span recorded so far, in completion order. */
    std::vector<Span> spans() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::int64_t next_ = 0;
};

/**
 * RAII span. With a null tracer it does nothing, so untraced code can
 * share a call site. The parent defaults to the innermost span open on
 * this thread; pass @p parent to link a span opened on a worker thread
 * to the span that submitted its work.
 */
class ScopedSpan
{
  public:
    static constexpr std::int64_t inherit = -2;

    ScopedSpan(Tracer *tracer, const char *name,
               std::int64_t parent = inherit);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return span_.id; }

  private:
    Tracer *tracer_;
    Span span_;
};

/** Sets the cell id stamped on spans opened by this thread. */
class ScopedCell
{
  public:
    explicit ScopedCell(std::int64_t cell);
    ~ScopedCell();

    ScopedCell(const ScopedCell &) = delete;
    ScopedCell &operator=(const ScopedCell &) = delete;

  private:
    std::int64_t saved_;
};

/** Per-name totals derived from a span set. */
struct SpanSummary
{
    /** Seconds of self time per span name. */
    std::map<std::string, double> selfS;
    /** Seconds of inclusive time per span name. */
    std::map<std::string, double> totalS;
    std::map<std::string, std::uint64_t> calls;
    /** Seconds inside cell spans, and the part of it their direct
     *  child spans (named layer calls) cover. */
    double cellS = 0.0;
    double cellCoveredS = 0.0;

    /** Share (0-100) of cell time that named layer calls cover. */
    double cellCoveragePct() const
    {
        return cellS > 0.0 ? 100.0 * cellCoveredS / cellS : 0.0;
    }

    /** Add @p other's totals to this summary. */
    void merge(const SpanSummary &other);

    /** Text form for passing a summary between processes. */
    std::string encode() const;
    /** Parse encode()'s output; false when malformed. */
    bool decode(const std::string &text);
};

/**
 * Summarize @p spans. Spans named in @p cell_names are the cell roots
 * whose coverage is reported.
 */
SpanSummary summarize(const std::vector<Span> &spans,
                      const std::vector<std::string> &cell_names);

/**
 * Write @p spans as tab-separated text (id, parent, cell, thread,
 * name, start_ns, end_ns). Returns false on an I/O error.
 */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PCSTALL_PERFBENCH_SPAN_HH
