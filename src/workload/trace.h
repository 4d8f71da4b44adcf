/**
 * @file
 * Query traces: the time-ordered stream of (arrival time, query type)
 * pairs that drives an experiment, plus helpers to inspect demand.
 */

#ifndef PROTEUS_WORKLOAD_TRACE_H_
#define PROTEUS_WORKLOAD_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace proteus {

/** One query arrival in a trace. */
struct TraceEvent {
    Time at = 0;
    FamilyId family = 0;
};

/** A time-sorted stream of query arrivals. */
class Trace
{
  public:
    Trace() = default;

    /** Construct from events; sorts them by time. */
    explicit Trace(std::vector<TraceEvent> events);

    /** Append one arrival (must keep time order or call sort()). */
    void append(Time at, FamilyId family);

    /** Restore time order after unordered appends. */
    void sort();

    /** @return all events in time order. */
    const std::vector<TraceEvent>& events() const { return events_; }

    /** @return number of arrivals. */
    std::size_t size() const { return events_.size(); }

    /** @return true when there are no arrivals. */
    bool empty() const { return events_.empty(); }

    /** @return the time of the last arrival (0 when empty). */
    Time endTime() const;

    /**
     * Demand in QPS per family over [from, to).
     * @param num_families size of the returned vector.
     */
    std::vector<double> demand(std::size_t num_families, Time from,
                               Time to) const;

    /** Average aggregate QPS over the whole trace. */
    double averageQps() const;

    /** Write as CSV ("time_us,family") for offline inspection. */
    void writeCsv(std::ostream& os) const;

    /**
     * Parse a trace from CSV as produced by writeCsv() (an optional
     * "time_us,family" header is skipped). A malformed row, or a
     * family id not below @p num_families, exits 1 with a message
     * naming @p path and the line.
     */
    static Trace readCsv(std::istream& is, const std::string& path,
                         std::size_t num_families);

  private:
    std::vector<TraceEvent> events_;
};

}  // namespace proteus

#endif  // PROTEUS_WORKLOAD_TRACE_H_
