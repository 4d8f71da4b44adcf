#include "obs/trace.h"

#include "common/logging.h"

namespace proteus {
namespace obs {

const char*
toString(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Query: return "query";
      case SpanKind::Route: return "route";
      case SpanKind::Queue: return "queue";
      case SpanKind::Exec: return "exec";
      case SpanKind::Batch: return "batch";
      case SpanKind::Load: return "load";
      case SpanKind::Solve: return "solve";
      case SpanKind::Apply: return "apply";
      case SpanKind::Alarm: return "alarm";
      case SpanKind::SloAlarm: return "slo_alarm";
    }
    return "unknown";
}

const char*
toString(LinkKind kind)
{
    switch (kind) {
      case LinkKind::QueryInBatch: return "query_in_batch";
      case LinkKind::BatchOnDevice: return "batch_on_device";
      case LinkKind::BatchOnEpoch: return "batch_on_epoch";
      case LinkKind::StageHandoff: return "stage_handoff";
      case LinkKind::QueuedBehind: return "queued_behind";
    }
    return "unknown";
}

Tracer::Tracer(std::size_t capacity, std::size_t link_capacity)
    : capacity_(capacity),
      link_capacity_(link_capacity == 0 ? capacity : link_capacity)
{
    PROTEUS_ASSERT(capacity >= 1, "tracer capacity must be >= 1");
    ring_.resize(capacity);
    links_.resize(link_capacity_);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::vector<SpanRecord> out;
    if (recorded_ <= ring_.size()) {
        out.assign(ring_.begin(),
                   ring_.begin() + static_cast<std::ptrdiff_t>(recorded_));
        return out;
    }
    out.reserve(ring_.size());
    // Full ring: oldest span sits at the next write position.
    out.insert(out.end(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
}

std::vector<LinkRecord>
Tracer::links() const
{
    std::vector<LinkRecord> out;
    if (links_recorded_ <= links_.size()) {
        out.assign(links_.begin(),
                   links_.begin() +
                       static_cast<std::ptrdiff_t>(links_recorded_));
        return out;
    }
    out.reserve(links_.size());
    // Full ring: oldest link sits at the next write position.
    out.insert(out.end(),
               links_.begin() + static_cast<std::ptrdiff_t>(link_next_),
               links_.end());
    out.insert(out.end(), links_.begin(),
               links_.begin() + static_cast<std::ptrdiff_t>(link_next_));
    return out;
}

}  // namespace obs
}  // namespace proteus
