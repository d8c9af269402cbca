#include "trace/epoch_csv.hh"

#include "common/logging.hh"
#include "dvfs/controller.hh"

namespace pcstall::trace
{

void
writeEpochCsv(std::ostream &os, const TraceData &data)
{
    const TraceMeta &meta = data.meta;
    const dvfs::DomainMap domains(meta.numCus, meta.cusPerDomain);
    os << "# pcstall-run-trace-csv v" << epochCsvSchemaVersion << '\n';
    os << "epoch_us,domain,state,freq_ghz,committed\n";
    for (const EpochFrame &f : data.frames) {
        const double epoch_us =
            static_cast<double>(f.start) / static_cast<double>(tickUs);
        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            const Freq freq = f.record.cus[domains.firstCu(d)].freq;
            const int state = meta.stateOf(freq);
            if (state < 0) {
                fatal("frame frequency " +
                      std::to_string(freq / freqMHz) +
                      " MHz is not a V/f table state");
            }
            const double committed = dvfs::sumOverDomain(
                domains, d, [&](std::uint32_t cu) {
                    return static_cast<double>(
                        f.record.cus[cu].committed);
                });
            os << epoch_us << ',' << d << ',' << state << ','
               << freqGHzD(freq) << ',' << committed << '\n';
        }
    }
}

} // namespace pcstall::trace
