/**
 * @file
 * Timeline event model and Chrome trace-event / Perfetto JSON writer.
 *
 * Events are stamped with *simulated* time (microseconds), never wall
 * clock, so a run's timeline is a pure function of the simulation and
 * byte-identical across --threads values. Each run becomes one Chrome
 * "process" (pid = collection order, assigned at write time); track 0
 * is the run-level track (oracle forks, injected faults) and tracks
 * 1..D are the V/f domains. Open the output in https://ui.perfetto.dev
 * or chrome://tracing (docs/observability.md has the schema).
 */

#ifndef PCSTALL_OBS_TIMELINE_HH
#define PCSTALL_OBS_TIMELINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pcstall::obs
{

/** One timeline event; maps 1:1 onto a Chrome trace-event object. */
struct TimelineEvent
{
    /** Chrome phase: 'X' span, 'i' instant, 'M' metadata. */
    char phase = 'X';
    std::string name;
    /** Track within the run (Chrome tid). 0 = run-level track. */
    std::uint32_t track = 0;
    /** Event start in simulated microseconds. */
    double tsUs = 0.0;
    /** Span duration in simulated microseconds ('X' only). */
    double durUs = 0.0;
    /** (key, raw JSON value) argument pairs, emitted in order. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Build a span ('X') event.
 *
 * @param name    Event name shown on the track.
 * @param track   Track within the run (0 = run-level).
 * @param ts_us   Span start in simulated microseconds.
 * @param dur_us  Span duration in simulated microseconds.
 * @return The populated event (args empty; append as needed).
 */
TimelineEvent spanEvent(std::string name, std::uint32_t track,
                        double ts_us, double dur_us);

/**
 * Build an instant ('i') event.
 *
 * @param name   Event name shown on the track.
 * @param track  Track within the run (0 = run-level).
 * @param ts_us  Instant in simulated microseconds.
 * @return The populated event (args empty; append as needed).
 */
TimelineEvent instantEvent(std::string name, std::uint32_t track,
                           double ts_us);

/**
 * Build the Chrome "thread_name" metadata event naming a track.
 *
 * @param track  Track to name.
 * @param name   Human-readable track name.
 * @return The metadata ('M') event.
 */
TimelineEvent trackNameEvent(std::uint32_t track, std::string name);

/**
 * @param v  Value to format.
 * @return JSON-number fragment of @p v ("%.9g"; null when @p v is
 *         NaN or infinite, which JSON cannot represent).
 */
std::string jsonNumber(double v);

/**
 * @param s  Text to quote.
 * @return JSON-string fragment of @p s (quoted, escaped).
 */
std::string jsonString(const std::string &s);

/** One collected run's timeline, labelled for the process name. */
struct RunTimeline
{
    std::string label;
    std::vector<TimelineEvent> events;
};

/**
 * Write collected timelines as one Chrome trace-event JSON document.
 * Process ids are the indices of @p runs, so a submission-ordered
 * collection yields byte-identical output for every thread count.
 *
 * @param os    Destination stream.
 * @param runs  One entry per run, in collection order.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<RunTimeline> &runs);

} // namespace pcstall::obs

#endif // PCSTALL_OBS_TIMELINE_HH
