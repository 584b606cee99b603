/**
 * @file
 * Dotted-path view of a JSON document for the CLI tools (perf_tool,
 * explain_tool): every numeric leaf keyed by its path
 * ("summary.ammat_ns", "wall_seconds.median", "benchmarks[0].wall_ms").
 * Object members extend the path with ".key", array elements with
 * "[i]"; strings, booleans and nulls are dropped. Parsing is
 * json::parse, the repo's one JSON reader.
 */
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.h"

namespace mempod::tools {

/** Numeric leaves of one JSON document, keyed by dotted path. */
using FlatDoc = std::map<std::string, double>;

/** Compact numeric rendering: integers plain, else 6 significant. */
inline std::string
num(double v)
{
    char buf[64];
    if (std::fabs(v) < 1e15 && v == std::floor(v))
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/** Add every numeric leaf under `v` to `out`, prefixed by `path`. */
inline void
flatten(const json::Value &v, const std::string &path, FlatDoc &out)
{
    if (v.is(json::Value::Kind::kNumber) && !path.empty()) {
        out[path] = v.asDouble();
    } else if (v.is(json::Value::Kind::kObject)) {
        for (const auto &[key, member] : v.members())
            flatten(member, path.empty() ? key : path + "." + key, out);
    } else if (v.is(json::Value::Kind::kArray)) {
        for (std::size_t i = 0; i < v.items().size(); ++i)
            flatten(v.items()[i], path + "[" + std::to_string(i) + "]",
                    out);
    }
}

/**
 * Load and flatten one JSON file; exits(2) with context (prefixed by
 * `tool`, the calling program's name) on open or parse failure.
 */
inline FlatDoc
loadFlat(const char *tool, const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open '%s'\n", tool, path);
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const json::Parsed doc = json::parse(ss.str());
    if (doc.error) {
        std::fprintf(stderr,
                     "%s: '%s' is not valid JSON (error near byte "
                     "%zu: %s)\n",
                     tool, path, doc.error->offset,
                     doc.error->what.c_str());
        std::exit(2);
    }
    FlatDoc flat;
    flatten(doc.value, "", flat);
    return flat;
}

} // namespace mempod::tools
