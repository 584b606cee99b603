#include "trace/manifest.h"

#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/log.h"

namespace mempod {

namespace {

std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

std::string
resolvePath(const std::string &base, const std::string &path)
{
    if (!path.empty() && path[0] == '/')
        return path;
    return base + "/" + path;
}

using Kind = json::Value::Kind;

/** Require a specific kind, with the manifest path in the error. */
const json::Value &
require(const json::Value *v, Kind kind, const char *what,
        const std::string &manifest)
{
    if (v == nullptr) {
        MEMPOD_FATAL("trace manifest '%s': missing required key %s",
                     manifest.c_str(), what);
    }
    if (!v->is(kind)) {
        MEMPOD_FATAL("trace manifest '%s': %s must be a %s (got %s)",
                     manifest.c_str(), what, json::kindName(kind),
                     json::kindName(v->kind()));
    }
    return *v;
}

/** A required number read exactly from its literal, never a double. */
std::uint64_t
requireU64(const json::Value *v, const char *what,
           const std::string &manifest)
{
    const std::optional<std::uint64_t> n =
        require(v, Kind::kNumber, what, manifest).asU64();
    if (!n) {
        MEMPOD_FATAL("trace manifest '%s': %s must be a non-negative "
                     "integer (got %s)",
                     manifest.c_str(), what, v->text().c_str());
    }
    return *n;
}

void
rejectUnknownKeys(const json::Value &obj,
                  const std::set<std::string> &known,
                  const char *where, const std::string &manifest)
{
    for (const auto &[k, v] : obj.members()) {
        (void)v;
        if (known.count(k) == 0) {
            MEMPOD_FATAL("trace manifest '%s': unknown key \"%s\" in "
                         "%s — check for a typo (known keys are "
                         "documented in EXPERIMENTS.md)",
                         manifest.c_str(), k.c_str(), where);
        }
    }
}

} // namespace

std::vector<ExternalTraceSpec>
loadTraceManifest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        MEMPOD_FATAL("cannot open trace manifest '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    const std::string base = dirnameOf(path);
    const json::Parsed doc = json::parse(text.str());
    if (doc.error) {
        MEMPOD_FATAL("'%s' line %zu: %s (at byte %zu)", path.c_str(),
                     doc.error->line, doc.error->what.c_str(),
                     doc.error->offset);
    }
    const json::Value &root = doc.value;
    if (!root.is(Kind::kObject))
        MEMPOD_FATAL("trace manifest '%s': top level must be an object",
                     path.c_str());
    rejectUnknownKeys(root, {"version", "traces"}, "the manifest", path);
    if (requireU64(root.find("version"), "\"version\"", path) != 1) {
        MEMPOD_FATAL("trace manifest '%s': version %s, but this build "
                     "reads version 1",
                     path.c_str(), root.find("version")->text().c_str());
    }
    const json::Value &traces =
        require(root.find("traces"), Kind::kArray, "\"traces\"", path);

    std::vector<ExternalTraceSpec> out;
    std::set<std::string> names;
    for (const json::Value &entry : traces.items()) {
        if (!entry.is(Kind::kObject)) {
            MEMPOD_FATAL("trace manifest '%s': each \"traces\" entry "
                         "must be an object",
                         path.c_str());
        }
        rejectUnknownKeys(entry,
                          {"name", "format", "file", "files", "timing",
                           "period_ps", "addr_bias", "time_scale"},
                          "a trace entry", path);
        ExternalTraceSpec spec;
        spec.name =
            require(entry.find("name"), Kind::kString, "\"name\"", path)
                .text();
        spec.format = require(entry.find("format"), Kind::kString,
                              "\"format\"", path)
                          .text();
        if (spec.format != "native" && spec.format != "champsim" &&
            spec.format != "sift") {
            MEMPOD_FATAL("trace manifest '%s': trace \"%s\" has format "
                         "\"%s\"; supported formats are native, "
                         "champsim, sift",
                         path.c_str(), spec.name.c_str(),
                         spec.format.c_str());
        }
        if (!names.insert(spec.name).second) {
            MEMPOD_FATAL("trace manifest '%s': duplicate trace name "
                         "\"%s\"",
                         path.c_str(), spec.name.c_str());
        }

        const json::Value *file = entry.find("file");
        const json::Value *files = entry.find("files");
        if (spec.format == "native") {
            const json::Value &f =
                require(file, Kind::kString, "\"file\"", path);
            if (files != nullptr) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" is "
                             "native; use \"file\", not \"files\"",
                             path.c_str(), spec.name.c_str());
            }
            spec.files.push_back({resolvePath(base, f.text()), 0});
        } else {
            if (file != nullptr) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" is "
                             "%s; use per-core \"files\", not "
                             "\"file\"",
                             path.c_str(), spec.name.c_str(),
                             spec.format.c_str());
            }
            const json::Value &fs = require(
                files, Kind::kArray, "\"files\"", path);
            if (fs.items().empty()) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" has an "
                             "empty \"files\" list",
                             path.c_str(), spec.name.c_str());
            }
            std::set<std::uint64_t> cores;
            for (const json::Value &fe : fs.items()) {
                if (!fe.is(Kind::kObject)) {
                    MEMPOD_FATAL("trace manifest '%s': \"files\" "
                                 "entries must be objects with "
                                 "\"path\" and \"core\"",
                                 path.c_str());
                }
                rejectUnknownKeys(fe, {"path", "core"},
                                  "a \"files\" entry", path);
                ManifestFile mf;
                mf.path = resolvePath(
                    base, require(fe.find("path"), Kind::kString,
                                  "\"path\"", path)
                              .text());
                const std::uint64_t core =
                    requireU64(fe.find("core"), "\"core\"", path);
                if (core > 255 || !cores.insert(core).second) {
                    MEMPOD_FATAL("trace manifest '%s': trace \"%s\" "
                                 "core %llu is out of range or "
                                 "duplicated",
                                 path.c_str(), spec.name.c_str(),
                                 static_cast<unsigned long long>(core));
                }
                mf.core = static_cast<std::uint8_t>(core);
                spec.files.push_back(mf);
            }
        }

        for (const char *key : {"timing", "addr_bias"}) {
            if (entry.find(key) != nullptr && spec.format != "champsim") {
                MEMPOD_FATAL("trace manifest '%s': \"%s\" only applies "
                             "to champsim traces (trace \"%s\" is %s)",
                             path.c_str(), key, spec.name.c_str(),
                             spec.format.c_str());
            }
        }
        if (const json::Value *t = entry.find("timing")) {
            spec.timing =
                require(t, Kind::kString, "\"timing\"", path).text();
            if (spec.timing != "period" && spec.timing != "ip") {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" timing "
                             "\"%s\"; supported timings are period, "
                             "ip",
                             path.c_str(), spec.name.c_str(),
                             spec.timing.c_str());
            }
        }
        if (const json::Value *p = entry.find("period_ps"))
            spec.periodPs = requireU64(p, "\"period_ps\"", path);
        if (const json::Value *b = entry.find("addr_bias"))
            spec.addrBias = requireU64(b, "\"addr_bias\"", path);
        if (const json::Value *s = entry.find("time_scale")) {
            spec.timeScale =
                require(s, Kind::kNumber, "\"time_scale\"", path)
                    .asDouble();
            if (!(spec.timeScale > 0) || !std::isfinite(spec.timeScale)) {
                MEMPOD_FATAL("trace manifest '%s': trace \"%s\" "
                             "time_scale must be finite and > 0",
                             path.c_str(), spec.name.c_str());
            }
        }
        out.push_back(std::move(spec));
    }
    return out;
}

} // namespace mempod
