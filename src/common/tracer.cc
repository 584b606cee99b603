#include "common/tracer.h"

#include <charconv>

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

} // namespace

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
    // One event per line, unindented: trace_tool summary reads the
    // file a line at a time.
    json::Writer w(out, {json::ColonSpace::kNever, 0});
    w.beginObject()
        .member("displayTimeUnit", "ns")
        .key("traceEvents")
        .beginArray(json::Wrap::kLines);

    // Process/track names first: Perfetto applies metadata regardless
    // of position, but leading metadata keeps the file human-scannable.
    auto metadata = [&w](const char *what, std::size_t tid,
                         std::string_view name) {
        w.beginObject()
            .member("name", what)
            .member("ph", "M")
            .member("pid", 0)
            .member("tid", tid)
            .key("args")
            .beginObject()
            .member("name", name)
            .endObject()
            .endObject();
    };
    metadata("process_name", 0, "mempod-sim");
    for (std::size_t t = 0; t < trackNames_.size(); ++t)
        metadata("thread_name", t, trackNames_[t]);

    for (const Event &e : events_) {
        w.beginObject()
            .member("name", e.name)
            .member("ph", std::string_view(&e.ph, 1))
            .key("ts")
            .scaled(e.ts, 6) // ps as µs, exactly
            .member("pid", 0)
            .member("tid", e.tid);
        if (e.cat != nullptr) {
            char id[24];
            const auto end = std::to_chars(id, id + sizeof id, e.id).ptr;
            w.member("cat", e.cat)
                .member("id", std::string_view(id, end - id));
        }
        // Flow "s"/"t"/"f" events require a binding point; "e" enclosing
        // slice binding is the default for flow ends.
        if (e.ph == 's' || e.ph == 't' || e.ph == 'f')
            w.member("bp", "e");
        w.key("args");
        if (e.args.empty())
            w.beginObject().endObject();
        else
            w.raw(e.args);
        w.endObject();
    }

    w.endArray().endObject();
    out += '\n';
    return out;
}

} // namespace mempod
