#include "span.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench
{

namespace
{

struct ThreadState
{
    std::vector<std::int64_t> open;
    std::int64_t cell = -1;
    std::uint32_t index = 0;
};

ThreadState &
threadState()
{
    static std::atomic<std::uint32_t> next_index{0};
    thread_local ThreadState state{{}, -1, next_index.fetch_add(1)};
    return state;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
Tracer::nextId()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_++;
}

void
Tracer::record(const Span &span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

ScopedSpan::ScopedSpan(Tracer *tracer, const char *name,
                       std::int64_t parent)
    : tracer_(tracer)
{
    if (tracer_ == nullptr)
        return;
    ThreadState &ts = threadState();
    span_.name = name;
    span_.id = tracer_->nextId();
    span_.parent = parent != inherit ? parent
        : ts.open.empty()            ? -1
                                     : ts.open.back();
    span_.cell = ts.cell;
    span_.thread = ts.index;
    ts.open.push_back(span_.id);
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_ == nullptr)
        return;
    span_.endNs = nowNs();
    threadState().open.pop_back();
    tracer_->record(span_);
}

ScopedCell::ScopedCell(std::int64_t cell) : saved_(threadState().cell)
{
    threadState().cell = cell;
}

ScopedCell::~ScopedCell() { threadState().cell = saved_; }

SpanSummary
summarize(const std::vector<Span> &spans,
          const std::vector<std::string> &cell_names)
{
    std::unordered_map<std::int64_t, const Span *> by_id;
    by_id.reserve(spans.size());
    for (const Span &s : spans)
        by_id.emplace(s.id, &s);

    // Children on the same thread nest strictly inside their parent,
    // so their summed durations are the covered part of the parent.
    std::unordered_map<std::int64_t, std::int64_t> child_ns;
    for (const Span &s : spans) {
        const auto it = by_id.find(s.parent);
        if (it != by_id.end() && it->second->thread == s.thread)
            child_ns[s.parent] += s.endNs - s.startNs;
    }

    SpanSummary out;
    for (const Span &s : spans) {
        const std::int64_t dur = s.endNs - s.startNs;
        const auto covered = child_ns.find(s.id);
        const std::int64_t kids =
            covered == child_ns.end() ? 0 : covered->second;
        out.selfS[s.name] += 1e-9 * static_cast<double>(
            std::max<std::int64_t>(dur - kids, 0));
        out.totalS[s.name] += 1e-9 * static_cast<double>(dur);
        ++out.calls[s.name];
        if (std::find(cell_names.begin(), cell_names.end(), s.name) !=
            cell_names.end()) {
            out.cellS += 1e-9 * static_cast<double>(dur);
            out.cellCoveredS +=
                1e-9 * static_cast<double>(std::min(kids, dur));
        }
    }
    return out;
}

void
SpanSummary::merge(const SpanSummary &other)
{
    for (const auto &[name, v] : other.selfS)
        selfS[name] += v;
    for (const auto &[name, v] : other.totalS)
        totalS[name] += v;
    for (const auto &[name, v] : other.calls)
        calls[name] += v;
    cellS += other.cellS;
    cellCoveredS += other.cellCoveredS;
}

std::string
SpanSummary::encode() const
{
    std::ostringstream os;
    os.precision(17);
    os << cellS << ' ' << cellCoveredS << ' ' << calls.size() << '\n';
    for (const auto &[name, n] : calls) {
        os << name << ' ' << n << ' ' << selfS.at(name) << ' '
           << totalS.at(name) << '\n';
    }
    return os.str();
}

bool
SpanSummary::decode(const std::string &text)
{
    std::istringstream is(text);
    std::size_t names = 0;
    if (!(is >> cellS >> cellCoveredS >> names))
        return false;
    for (std::size_t i = 0; i < names; ++i) {
        std::string name;
        if (!(is >> name >> calls[name] >> selfS[name] >> totalS[name]))
            return false;
    }
    return true;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path, std::ios::trunc);
    os << "id\tparent\tcell\tthread\tname\tstart_ns\tend_ns\n";
    for (const Span &s : spans) {
        os << s.id << '\t' << s.parent << '\t' << s.cell << '\t'
           << s.thread << '\t' << s.name << '\t' << s.startNs << '\t'
           << s.endNs << '\n';
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
