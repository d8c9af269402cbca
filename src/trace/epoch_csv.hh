/**
 * @file
 * The run-trace CSV: an epoch trace exported for plotting pipelines
 * (tools/plot_traces.py, matplotlib/gnuplot) outside the simulator.
 * `trace_inspect csv` and examples/custom_workload both write it
 * through writeEpochCsv().
 */

#ifndef PCSTALL_TRACE_EPOCH_CSV_HH
#define PCSTALL_TRACE_EPOCH_CSV_HH

#include <ostream>

#include "trace/format.hh"

namespace pcstall::trace
{

/**
 * Schema version stamped into the CSV as a leading comment line
 * (`# pcstall-run-trace-csv v<N>`). Consumers should skip lines
 * starting with '#' and may use the comment to detect column-set
 * changes.
 */
inline constexpr int epochCsvSchemaVersion = 1;

/**
 * Write one row per (frame, domain) of @p data:
 * epoch_us, domain, state, freq_ghz, committed. The state is the one
 * the domain ran at, recovered from the operating frequency the frame
 * recorded for the domain's first CU; committed sums the domain's
 * CUs. Throws FatalError (via fatal()) when a recorded frequency is
 * not a V/f table state.
 */
void writeEpochCsv(std::ostream &os, const TraceData &data);

} // namespace pcstall::trace

#endif // PCSTALL_TRACE_EPOCH_CSV_HH
