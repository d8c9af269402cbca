#include "obs/timeline.hh"

#include <cmath>
#include <cstdio>

namespace pcstall::obs
{

TimelineEvent
spanEvent(std::string name, std::uint32_t track, double ts_us,
          double dur_us)
{
    TimelineEvent ev;
    ev.phase = 'X';
    ev.name = std::move(name);
    ev.track = track;
    ev.tsUs = ts_us;
    ev.durUs = dur_us;
    return ev;
}

TimelineEvent
instantEvent(std::string name, std::uint32_t track, double ts_us)
{
    TimelineEvent ev;
    ev.phase = 'i';
    ev.name = std::move(name);
    ev.track = track;
    ev.tsUs = ts_us;
    return ev;
}

TimelineEvent
trackNameEvent(std::uint32_t track, std::string name)
{
    TimelineEvent ev;
    ev.phase = 'M';
    ev.name = "thread_name";
    ev.track = track;
    ev.args.emplace_back("name", jsonString(name));
    return ev;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace
{

void
writeEvent(std::ostream &os, const TimelineEvent &ev, std::size_t pid)
{
    os << "{\"name\":" << jsonString(ev.name) << ",\"ph\":\""
       << ev.phase << "\",\"pid\":" << pid << ",\"tid\":" << ev.track;
    if (ev.phase != 'M') {
        os << ",\"ts\":" << jsonNumber(ev.tsUs);
        if (ev.phase == 'X')
            os << ",\"dur\":" << jsonNumber(ev.durUs);
        if (ev.phase == 'i')
            os << ",\"s\":\"t\"";
    }
    if (!ev.args.empty()) {
        os << ",\"args\":{";
        bool first = true;
        for (const auto &[key, raw] : ev.args) {
            if (!first)
                os << ',';
            first = false;
            os << jsonString(key) << ':' << raw;
        }
        os << '}';
    }
    os << '}';
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<RunTimeline> &runs)
{
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
          "\"pcstall-timeline-v1\"},\"traceEvents\":[";
    bool first = true;
    for (std::size_t pid = 0; pid < runs.size(); ++pid) {
        const RunTimeline &run = runs[pid];
        if (!run.label.empty()) {
            if (!first)
                os << ',';
            first = false;
            TimelineEvent meta;
            meta.phase = 'M';
            meta.name = "process_name";
            meta.track = 0;
            meta.args.emplace_back("name", jsonString(run.label));
            os << '\n';
            writeEvent(os, meta, pid);
        }
        for (const TimelineEvent &ev : run.events) {
            if (!first)
                os << ',';
            first = false;
            os << '\n';
            writeEvent(os, ev, pid);
        }
    }
    os << "\n]}\n";
}

} // namespace pcstall::obs
