#include "obs/timeseries.h"

#include <cstdio>
#include <fstream>

#include "common/logging.h"

namespace proteus {
namespace obs {

namespace {

void
appendNumber(std::string* out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out->append(buf);
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(Simulator* sim,
                                       TimeSeriesOptions options)
    : sim_(sim), options_(options)
{
    PROTEUS_ASSERT(options_.sample_interval > 0,
                   "time-series sample interval must be positive, got ",
                   options_.sample_interval, " us");
    times_.reserve(options_.capacity);
}

void
TimeSeriesRecorder::addProbe(std::string name, ProbeFn probe)
{
    Channel ch;
    ch.name = std::move(name);
    ch.probe = std::move(probe);
    ch.rate = false;
    ch.samples.reserve(options_.capacity);
    channels_.push_back(std::move(ch));
}

void
TimeSeriesRecorder::addCounterRate(std::string name, ProbeFn cumulative)
{
    Channel ch;
    ch.name = std::move(name);
    ch.probe = std::move(cumulative);
    ch.rate = true;
    ch.samples.reserve(options_.capacity);
    channels_.push_back(std::move(ch));
}

void
TimeSeriesRecorder::start()
{
    if (started_)
        return;
    started_ = true;
    last_sample_ = sim_->now();
    // Prime the cumulative baselines so the first tick reports the
    // rate over its own interval, not since time zero.
    for (Channel& ch : channels_) {
        if (ch.rate)
            ch.last_total = ch.probe();
    }
    sim_->schedulePeriodic(options_.sample_interval,
                           [this] { sample(sim_->now()); });
}

void
TimeSeriesRecorder::finalize()
{
    if (!started_)
        return;
    if (sim_->now() > last_sample_)
        sample(sim_->now());
}

void
TimeSeriesRecorder::sample(Time now)
{
    if (times_.size() >= options_.capacity) {
        ++dropped_;
        return;
    }
    const double dt = toSeconds(now - last_sample_);
    times_.push_back(now);
    for (Channel& ch : channels_) {
        double v = ch.probe();
        if (ch.rate) {
            const double delta = v - ch.last_total;
            ch.last_total = v;
            v = dt > 0.0 ? delta / dt : 0.0;
        }
        ch.samples.push_back(v);
    }
    last_sample_ = now;
}

std::vector<std::string>
TimeSeriesRecorder::channelNames() const
{
    std::vector<std::string> names;
    names.reserve(channels_.size());
    for (const Channel& ch : channels_)
        names.push_back(ch.name);
    return names;
}

const std::vector<double>&
TimeSeriesRecorder::values(const std::string& name) const
{
    static const std::vector<double> kEmpty;
    for (const Channel& ch : channels_) {
        if (ch.name == name)
            return ch.samples;
    }
    return kEmpty;
}

std::string
TimeSeriesRecorder::toCsv() const
{
    std::string out;
    out.reserve(64 + times_.size() * (channels_.size() + 1) * 8);
    out += "t_s";
    for (const Channel& ch : channels_) {
        out += ',';
        out += ch.name;
    }
    out += '\n';
    for (std::size_t i = 0; i < times_.size(); ++i) {
        appendNumber(&out, toSeconds(times_[i]));
        for (const Channel& ch : channels_) {
            out += ',';
            appendNumber(&out, ch.samples[i]);
        }
        out += '\n';
    }
    return out;
}

std::string
TimeSeriesRecorder::toJson() const
{
    std::string out;
    out.reserve(128 + times_.size() * (channels_.size() + 1) * 10);
    out += "{\n  \"sample_interval_s\": ";
    appendNumber(&out, toSeconds(options_.sample_interval));
    out += ",\n  \"samples\": ";
    appendNumber(&out, static_cast<double>(times_.size()));
    out += ",\n  \"dropped_samples\": ";
    appendNumber(&out, static_cast<double>(dropped_));
    out += ",\n  \"t_s\": [";
    for (std::size_t i = 0; i < times_.size(); ++i) {
        if (i)
            out += ',';
        appendNumber(&out, toSeconds(times_[i]));
    }
    out += "],\n  \"channels\": [\n";
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const Channel& ch = channels_[c];
        out += "    {\"name\": \"";
        out += ch.name;
        out += "\", \"values\": [";
        for (std::size_t i = 0; i < ch.samples.size(); ++i) {
            if (i)
                out += ',';
            appendNumber(&out, ch.samples[i]);
        }
        out += "]}";
        if (c + 1 < channels_.size())
            out += ',';
        out += '\n';
    }
    out += "  ]\n}\n";
    return out;
}

bool
TimeSeriesRecorder::writeCsv(const std::string& path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    const std::string body = toCsv();
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
    return static_cast<bool>(f);
}

bool
TimeSeriesRecorder::writeJson(const std::string& path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    const std::string body = toJson();
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
    return static_cast<bool>(f);
}

SloBurnWindow::SloBurnWindow(std::size_t ticks) : ring_(ticks + 1)
{
    PROTEUS_ASSERT(ticks >= 1,
                   "an SLO window spans at least one sample interval");
}

const SloBurnWindow::Totals&
SloBurnWindow::oldest() const
{
    return ring_[(head_ + 1) % ring_.size()];
}

SloBurnWindow::Crossing
SloBurnWindow::tick(std::uint64_t finished, std::uint64_t violated)
{
    head_ = (head_ + 1) % ring_.size();
    ring_[head_] = {finished, violated};
    const double burn = burnRate();
    if (!alarm_ && burn >= kBurnHigh && windowFinished() >= kMinCount) {
        alarm_ = true;
        return Crossing::Raised;
    }
    if (alarm_ && burn < kBurnLow) {
        alarm_ = false;
        return Crossing::Cleared;
    }
    return Crossing::None;
}

std::uint64_t
SloBurnWindow::windowFinished() const
{
    return ring_[head_].finished - oldest().finished;
}

double
SloBurnWindow::ratio() const
{
    const std::uint64_t finished = windowFinished();
    if (finished == 0)
        return 0.0;
    return static_cast<double>(ring_[head_].violated -
                               oldest().violated) /
           static_cast<double>(finished);
}

}  // namespace obs
}  // namespace proteus
