#include "common/tracer.h"

#include <cinttypes>
#include <cstdio>

namespace mempod {

namespace {

/** splitmix64: cheap, well-mixed 64-bit hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

/** Render a ps timestamp as a decimal microsecond value. */
void
appendTsUs(std::string &out, TimePs ps)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  ps / 1'000'000, ps % 1'000'000);
    out += buf;
}

} // namespace

TraceArgs &
TraceArgs::add(const char *key, std::uint64_t v)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    appendU64(body_, v);
    return *this;
}

TraceArgs &
TraceArgs::add(const char *key, const char *v)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":\"";
    body_ += v; // callers pass identifier-like strings; no escaping
    body_ += '"';
    return *this;
}

Tracer::Tracer(const TracerConfig &cfg) : cfg_(cfg)
{
    if (cfg_.sampleEvery == 0)
        cfg_.sampleEvery = 1;
    events_.reserve(4096);
}

std::uint32_t
Tracer::track(const std::string &name)
{
    auto it = tracks_.find(name);
    if (it != tracks_.end())
        return it->second;
    const auto tid = static_cast<std::uint32_t>(trackNames_.size());
    tracks_.emplace(name, tid);
    trackNames_.push_back(name);
    return tid;
}

bool
Tracer::sampleDemand(std::uint64_t record_idx) const
{
    if (cfg_.sampleEvery <= 1)
        return true;
    return mix64(cfg_.seed ^ mix64(record_idx)) % cfg_.sampleEvery == 0;
}

void
Tracer::durBegin(std::uint32_t tid, TimePs ts, const char *name,
                 std::string args)
{
    events_.push_back({ts, 'B', tid, 0, name, nullptr, std::move(args)});
}

void
Tracer::durEnd(std::uint32_t tid, TimePs ts)
{
    events_.push_back({ts, 'E', tid, 0, "", nullptr, {}});
}

void
Tracer::instant(std::uint32_t tid, TimePs ts, const char *name,
                std::string args)
{
    events_.push_back({ts, 'i', tid, 0, name, nullptr, std::move(args)});
}

void
Tracer::asyncBegin(std::uint32_t tid, TimePs ts, const char *cat,
                   std::uint64_t id, const char *name, std::string args)
{
    events_.push_back({ts, 'b', tid, id, name, cat, std::move(args)});
}

void
Tracer::asyncEnd(std::uint32_t tid, TimePs ts, const char *cat,
                 std::uint64_t id, const char *name, std::string args)
{
    events_.push_back({ts, 'e', tid, id, name, cat, std::move(args)});
}

void
Tracer::flowStart(std::uint32_t tid, TimePs ts, const char *cat,
                  std::uint64_t id, const char *name)
{
    events_.push_back({ts, 's', tid, id, name, cat, {}});
}

void
Tracer::flowStep(std::uint32_t tid, TimePs ts, const char *cat,
                 std::uint64_t id, const char *name)
{
    events_.push_back({ts, 't', tid, id, name, cat, {}});
}

void
Tracer::flowEnd(std::uint32_t tid, TimePs ts, const char *cat,
                std::uint64_t id, const char *name)
{
    events_.push_back({ts, 'f', tid, id, name, cat, {}});
}

std::string
Tracer::toJson() const
{
    std::string out;
    out.reserve(128 + events_.size() * 96);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Process/track names first: Perfetto applies metadata regardless
    // of position, but leading metadata keeps the file human-scannable.
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
           "\"args\":{\"name\":\"mempod-sim\"}}";
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        sep();
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
        appendU64(out, t);
        out += ",\"args\":{\"name\":\"";
        out += trackNames_[t];
        out += "\"}}";
    }

    for (const Event &e : events_) {
        sep();
        out += "{\"name\":\"";
        out += e.name;
        out += "\",\"ph\":\"";
        out += e.ph;
        out += "\",\"ts\":";
        appendTsUs(out, e.ts);
        out += ",\"pid\":0,\"tid\":";
        appendU64(out, e.tid);
        if (e.cat != nullptr) {
            out += ",\"cat\":\"";
            out += e.cat;
            out += "\",\"id\":\"";
            appendU64(out, e.id);
            out += '"';
        }
        // Flow "s"/"t"/"f" events require a binding point; "e" enclosing
        // slice binding is the default for flow ends.
        if (e.ph == 's' || e.ph == 't' || e.ph == 'f')
            out += ",\"bp\":\"e\"";
        out += ",\"args\":";
        out += e.args.empty() ? "{}" : e.args;
        out += '}';
    }

    out += "\n]}\n";
    return out;
}

} // namespace mempod
