#include "workload/trace.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.h"

namespace proteus {

Trace::Trace(std::vector<TraceEvent> events)
    : events_(std::move(events))
{
    sort();
}

void
Trace::append(Time at, FamilyId family)
{
    events_.push_back(TraceEvent{at, family});
}

void
Trace::sort()
{
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.at < b.at;
                     });
}

Time
Trace::endTime() const
{
    return events_.empty() ? 0 : events_.back().at;
}

std::vector<double>
Trace::demand(std::size_t num_families, Time from, Time to) const
{
    PROTEUS_ASSERT(to > from, "empty demand window");
    std::vector<double> qps(num_families, 0.0);
    auto lo = std::lower_bound(
        events_.begin(), events_.end(), from,
        [](const TraceEvent& e, Time t) { return e.at < t; });
    for (auto it = lo; it != events_.end() && it->at < to; ++it) {
        PROTEUS_ASSERT(it->family < num_families,
                       "trace family out of range");
        qps[it->family] += 1.0;
    }
    double window_s = toSeconds(to - from);
    for (auto& q : qps)
        q /= window_s;
    return qps;
}

double
Trace::averageQps() const
{
    if (events_.empty())
        return 0.0;
    double span = toSeconds(std::max<Time>(endTime(), 1));
    return static_cast<double>(events_.size()) / span;
}

void
Trace::writeCsv(std::ostream& os) const
{
    os << "time_us,family\n";
    for (const auto& e : events_)
        os << e.at << "," << e.family << "\n";
}

namespace {

/** Parse all of @p text as a decimal integer into @p out. */
template <typename Int>
bool
parseWhole(const std::string& text, Int* out)
{
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

}  // namespace

Trace
Trace::readCsv(std::istream& is, const std::string& path,
               std::size_t num_families)
{
    Trace trace;
    std::string line;
    bool first = true;
    for (std::size_t line_no = 1; std::getline(is, line); ++line_no) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();  // CRLF line ends
        if (line.empty())
            continue;
        if (first && line.rfind("time_us", 0) == 0) {
            first = false;
            continue;
        }
        first = false;
        const std::size_t comma = line.find(',');
        Time at = 0;
        FamilyId family = 0;
        if (comma == std::string::npos ||
            !parseWhole(line.substr(0, comma), &at) || at < 0 ||
            !parseWhole(line.substr(comma + 1), &family)) {
            PROTEUS_FATAL(path, ":", line_no, ": malformed trace row \"",
                          line, "\" (want time_us,family: two integers)");
        }
        if (family >= num_families) {
            PROTEUS_FATAL(path, ":", line_no, ": family id ", family,
                          " is out of range (", num_families,
                          " families in the model zoo)");
        }
        trace.append(at, family);
    }
    trace.sort();
    return trace;
}

}  // namespace proteus
