/**
 * @file
 * Time-series telemetry: periodic sampling of registered probes on a
 * fixed simulated-time cadence (DESIGN.md, "Observability").
 *
 * The recorder owns one preallocated value column per channel and a
 * shared time column. Channels are registered once at setup — either
 * as instantaneous probes (gauges: queue depth, burn rate) or as
 * cumulative probes from which the recorder derives a per-second rate
 * (counters: arrivals, busy time). Sampling runs as a periodic
 * simulator event that only *reads* system state, so enabling the
 * recorder never changes the simulated behaviour, and every sampled
 * value is a deterministic function of simulated time — the exported
 * CSV/JSON of a run is byte-identical across same-seed repetitions.
 *
 * Storage is bounded: columns are preallocated to `capacity` samples
 * and recording stops (counting overflowed ticks) once full, so a
 * runaway horizon cannot grow memory or slow the run down.
 */

#ifndef PROTEUS_OBS_TIMESERIES_H_
#define PROTEUS_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace proteus {
namespace obs {

/** Sampling cadence and storage bounds of a TimeSeriesRecorder. */
struct TimeSeriesOptions {
    /** Sampling period on the simulated timeline. */
    Duration sample_interval = seconds(1.0);
    /** Preallocated samples per channel; ticks beyond are dropped. */
    std::size_t capacity = 1 << 12;
};

/** Periodic sampler building per-channel time series. */
class TimeSeriesRecorder
{
  public:
    /** Reads one value from live system state (must not mutate it). */
    using ProbeFn = std::function<double()>;

    TimeSeriesRecorder(Simulator* sim, TimeSeriesOptions options = {});

    TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
    TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

    /**
     * Register an instantaneous channel: each tick stores the probe's
     * current value. Register every channel before start().
     */
    void addProbe(std::string name, ProbeFn probe);

    /**
     * Register a cumulative channel: the probe returns a monotonic
     * total (a counter, accumulated busy seconds, ...) and each tick
     * stores the per-second rate over the elapsed interval.
     */
    void addCounterRate(std::string name, ProbeFn cumulative);

    /** Begin periodic sampling (first tick one interval from now). */
    void start();

    /**
     * Take one final sample at the current time when it lies past the
     * last periodic tick (the trailing partial interval of a run).
     */
    void finalize();

    /** @return the number of committed samples. */
    std::size_t numSamples() const { return times_.size(); }

    /** @return sampling ticks discarded because columns were full. */
    std::uint64_t droppedSamples() const { return dropped_; }

    /** @return channel names in registration order. */
    std::vector<std::string> channelNames() const;

    /** @return the sample times (simulated microseconds). */
    const std::vector<Time>& times() const { return times_; }

    /** @return the value column of channel @p name (empty if unknown). */
    const std::vector<double>& values(const std::string& name) const;

    /**
     * @return the CSV export: header `t_s,<channel>,...` followed by
     * one row per sample. Deterministic for same-seed runs.
     */
    std::string toCsv() const;

    /**
     * @return the JSON export: sampling metadata, the time column and
     * one `{"name":..., "values":[...]}` object per channel, in
     * registration order.
     */
    std::string toJson() const;

    /** Write toCsv() to @p path. @return false on IO failure. */
    bool writeCsv(const std::string& path) const;

    /** Write toJson() to @p path. @return false on IO failure. */
    bool writeJson(const std::string& path) const;

  private:
    struct Channel {
        std::string name;
        ProbeFn probe;
        bool rate = false;      ///< derive per-second rate of deltas
        double last_total = 0.0;
        std::vector<double> samples;
    };

    void sample(Time now);

    Simulator* sim_;
    TimeSeriesOptions options_;
    std::vector<Channel> channels_;
    std::vector<Time> times_;
    Time last_sample_ = kNoTime;
    std::uint64_t dropped_ = 0;
    bool started_ = false;
};

/**
 * One family's trailing-window SLO violation ratio and burn-rate
 * alarm, advanced once per sampling tick from the cumulative
 * finished/violated totals the metrics collector already keeps.
 *
 * A ring of `ticks + 1` cumulative snapshots makes the window exactly
 * the last `ticks` sampling intervals; the ring starts at zero, as the
 * totals do when sampling starts. The burn rate is the window ratio
 * divided by the error budget. The alarm raises at kBurnHigh once the
 * window holds kMinCount finished queries and clears below kBurnLow,
 * so a burn rate hovering between the two cannot flap.
 */
class SloBurnWindow
{
  public:
    /** Error budget: the tolerated violation ratio. */
    static constexpr double kBudget = 0.02;
    /** Burn rate at or above which the alarm raises. */
    static constexpr double kBurnHigh = 1.0;
    /** Burn rate below which a raised alarm clears. */
    static constexpr double kBurnLow = 0.5;
    /** Finished queries the window must hold before it may raise. */
    static constexpr std::uint64_t kMinCount = 20;

    /** What one tick did to the alarm. */
    enum class Crossing { None, Raised, Cleared };

    /** A window of @p ticks sampling intervals (at least one). */
    explicit SloBurnWindow(std::size_t ticks);

    /**
     * Push one tick's cumulative totals: queries finished (served,
     * late or dropped) and SLO violations among them.
     */
    Crossing tick(std::uint64_t finished, std::uint64_t violated);

    /** @return violations / finished inside the window (0 if none). */
    double ratio() const;

    /** @return ratio() divided by the error budget. */
    double burnRate() const { return ratio() / kBudget; }

    /** @return true while the alarm is raised. */
    bool alarm() const { return alarm_; }

    /** @return queries finished inside the window. */
    std::uint64_t windowFinished() const;

  private:
    struct Totals {
        std::uint64_t finished = 0;
        std::uint64_t violated = 0;
    };

    const Totals& oldest() const;

    std::vector<Totals> ring_;
    std::size_t head_ = 0;
    bool alarm_ = false;
};

}  // namespace obs
}  // namespace proteus

#endif  // PROTEUS_OBS_TIMESERIES_H_
