#!/usr/bin/env python3
"""MemPod simulator benchmark: one command per workload.

    python3 perfbench/run.py --workload fig8-detailed --seed 42 \
        --seconds 30 --trace 0

Builds perfbench_harness (the simulator library plus perfbench/harness.cc,
Release) under $CARGO_TARGET_DIR (default .bench_build), runs the named
workload, checks the simulated outputs and prints a report; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": <cells>, "failed": <cells>,
     "metrics": {name: {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics (tracing off; pass times
scaled to a reference host speed by the host gauge that runs beside
each cell), --trace 1 the per-layer ones (a separate profiled run with
ablations and isolated layer loops). See perfbench/README.md for the
workloads, the metric map and which numbers are deterministic.

Outputs are checked against perfbench/references.json when it holds
the run's (workload, seed); otherwise the report says so. The extra
option --write-references records this run's per-cell statistics there
as the reference for (workload, seed).
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig8-detailed", "fig8-sampled", "replay-artifacts")
# Trace records per cell. 400k is the shortest length at which HMA's
# 2 ms epoch (40x MemPod's, as fig8 scales it) fires on both traces, so
# every mechanism does real work; see README.md.
DEMANDS = 400_000
MECHANISMS = ("TLM", "MemPod", "HMA", "THM", "CAMEO", "HBM-only")
HARNESS_TIMEOUT_S = 170
REFERENCES = HERE / "references.json"
MEASURED_KINDS = ("base", "traced", "no_decisions", "no_validate")
REF_FIELDS = ("ammat_ns", "demands", "completed", "migrations",
              "bytes_moved", "row_hit_rate", "row_hit_rate_fast",
              "simulated_ps", "events", "sampled_ammat_ns",
              "sampled_ci_ns", "sample_windows", "digest")
# What a replay twin shares with its fig8-detailed cell: the twin also
# runs the 50 us stats sampler, whose events change only these two.
MODEL_FIELDS = tuple(f for f in REF_FIELDS if f not in ("events", "digest"))
ARTIFACT_KINDS = ("stats", "traces", "decisions")
# The host gauge's reading at the reference host speed, in seconds per
# run of its kernel: a round value between its readings in the first
# host's fast (about 7 ms) and slow (about 13 ms) regimes.
# wall_s and demands_per_s are scaled by this over the gauge's readings
# in the pass; see README.md, "Host gauge".
GAUGE_REF_S = 0.010

E2E = {  # name -> unit
    "wall_s": "s",
    "demands_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "events_per_demand": "count",
}

# Per-layer metric -> unit, grouped under the end-to-end metric it
# should move (the README's layer -> metric -> workload table).
LAYERS = {
    "setup_s": {
        "trace.build_s": "s", "trace.open_s": "s", "sim.setup_s": "s"},
    "demands_per_s": {"trace.ns_per_record": "ns"},
    "peak_rss_mib": {"trace.max_resident_kib": "KiB"},
    "events_per_demand": {
        "dram.ticks_per_demand": "count",
        "dram.issued_per_demand": "count"},
    "wall_s": {
        "host.raw_wall_s": "s",
        "host.gauge_ms": "ms",
        "common.eq.ns_per_event": "ns",
        "common.eq.cascades_per_kevent": "count",
        "dram.arb_passes_per_issue": "count",
        "core.mempod.ns_per_demand": "ns",
        "tracking.mea.touch_ns": "ns",
        "core.remap.lookup_ns": "ns",
        "baselines.hma.ns_per_demand": "ns",
        "baselines.thm.ns_per_demand": "ns",
        "baselines.cameo.ns_per_demand": "ns",
        "common.decision_log.overhead_pct": "%",
        "sim.validate.overhead_pct": "%",
        "sim.report_s": "s",
        **{f"sim.run_s.{m}": "s" for m in MECHANISMS},
        "sim.stats_writer.serialize_s": "s",
        "sim.stats_writer.write_s": "s",
        "bench.trace_overhead_pct": "%"},
    "artifacts (replay-artifacts)": {
        "artifact_bytes_per_demand": "B",
        "sim.artifacts.bytes.stats": "B",
        "sim.artifacts.bytes.traces": "B",
        "sim.artifacts.bytes.decisions": "B",
        "common.decision_log.records_per_kdemand": "count"},
    "accuracy (fig8-sampled)": {
        "sampled_ammat_err_pct": "%",
        "sampled_ci_miss": "count",
        "sim.fidelity.windows": "count"},
    "failures": {"cell_fail_frac": "frac"},
}
PER_LAYER = {k: u for group in LAYERS.values() for k, u in group.items()}
# Metrics that depend only on (workload, seed): they must repeat
# exactly between runs of the same code.
DETERMINISTIC = {"events_per_demand", "dram.ticks_per_demand",
                 "dram.issued_per_demand", "dram.arb_passes_per_issue",
                 "artifact_bytes_per_demand", "sim.artifacts.bytes.stats",
                 "sim.artifacts.bytes.traces",
                 "sim.artifacts.bytes.decisions",
                 "common.decision_log.records_per_kdemand",
                 "sampled_ammat_err_pct", "sampled_ci_miss",
                 "sim.fidelity.windows", "common.eq.cascades_per_kevent",
                 "cell_fail_frac"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise SystemExit("perfbench: cmake not found")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = bdir / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j4",
                    "--target", "perfbench_harness"],
                   stdout=sys.stderr, check=True)
    return bdir / "perfbench_harness"


def cell_key(c):
    return f"{c['trace']}/{c['label']}"


def passes_of(rep, *kinds):
    return [p for p in rep["passes"] if p["kind"] in kinds]


def stored(refs, workload, rep):
    """Stored per-cell reference of `workload` at the run's seed."""
    return (refs.get(workload, {}).get(str(rep["demands"]), {})
            .get(str(rep["seed"])))


def check(rep, refs):
    """Map each failed cell to its reasons; empty when all is correct."""
    fails = {}

    def fail(key, why):
        fails.setdefault(key, []).append(why)

    measured = passes_of(rep, *MEASURED_KINDS)
    first = {cell_key(c): c for c in measured[0]["cells"]}
    for p in measured:
        for c in p["cells"]:
            key = cell_key(c)
            if not c["ok"]:
                fail(key, f"{p['kind']} pass threw: {c['error']}")
                continue
            s = c["stats"]
            if not s["completed"] == s["demands"] == rep["demands"]:
                fail(key, f"{p['kind']} pass completed {s['completed']} of "
                          f"{s['demands']} demands")
            if s["digest"] != first[key]["stats"]["digest"]:
                fail(key, f"{p['kind']} pass output differs from the "
                          "first base pass")

    def compare(key, stats, ref, fields, what):
        if ref is None:
            return
        if key not in ref:
            fail(key, f"no stored {what} reference")
            return
        for f in fields:
            if stats[f] != ref[key][f]:
                fail(key, f"{f} {stats[f]!r} != stored {what} reference "
                          f"{ref[key][f]!r}")

    mine = stored(refs, rep["workload"], rep)
    for key, c in first.items():
        compare(key, c["stats"], mine, REF_FIELDS, rep["workload"])

    # The live detailed cells (fig8-sampled's accuracy reference,
    # replay-artifacts' twins) must run and match fig8-detailed's stored
    # reference when there is one. A twin must also equal its replayed
    # cell, statistics and every artifact file alike.
    detailed = stored(refs, "fig8-detailed", rep)
    for p in passes_of(rep, "reference", "twin"):
        twin = p["kind"] == "twin"
        for c in p["cells"]:
            key = cell_key(c)
            if not c["ok"]:
                fail(key, f"{p['kind']} cell threw: {c['error']}")
                continue
            compare(key, c["stats"], detailed,
                    MODEL_FIELDS if twin else REF_FIELDS,
                    f"fig8-detailed ({p['kind']} cell)")
            if not twin or key not in first:
                continue
            if first[key]["stats"]["digest"] != c["stats"]["digest"]:
                fail(key, "replayed cell differs from its live twin")
            kinds = {name.split("/")[0] for name in c["artifacts"]}
            if kinds != set(ARTIFACT_KINDS):
                fail(key, f"live twin wrote artifact kinds {sorted(kinds)}")
            # The ablation passes differ from the twin by configuration.
            for q in passes_of(rep, "base", "traced"):
                mine_files = next(x for x in q["cells"]
                                  if cell_key(x) == key)["artifacts"]
                if mine_files != c["artifacts"]:
                    fail(key, f"{q['kind']} pass artifacts differ from "
                              "the live twin's (BatchRunner) files")
    return fails


def unchecked(rep, refs):
    """Lines naming the stored references this run could not use."""
    out = []
    need = [rep["workload"]]
    if passes_of(rep, "reference", "twin"):
        need.append("fig8-detailed")
    for w in dict.fromkeys(need):
        if stored(refs, w, rep) is None:
            out.append(f"outputs not checked against a reference: "
                       f"{REFERENCES.name} has no {w} cells for seed "
                       f"{rep['seed']} at {rep['demands']} demands")
    return out


def pass_sum(p, field):
    return sum(c[field] for c in p["cells"])


def stat_sum(p, field):
    return sum(c["stats"][field] for c in p["cells"])


def perf_sum(p, field):
    return sum(c["perf"][field] for c in p["cells"])


def pass_speed(p):
    """Factor that takes the pass's host seconds to seconds at the
    reference host speed; the gauge ran before each cell and once after
    the last."""
    readings = len(p["cells"]) + 1
    return GAUGE_REF_S * readings / (pass_sum(p, "calib_s")
                                     + p["calib_end_s"])


def calibrated_wall(p):
    return p["wall_s"] * pass_speed(p)


def end_to_end(rep):
    base = passes_of(rep, "base")
    demands = stat_sum(base[0], "demands")
    return {
        "wall_s": median([calibrated_wall(p) for p in base]),
        "demands_per_s": median([demands / (pass_sum(p, "run_s")
                                            * pass_speed(p))
                                 for p in base]),
        # Not calibrated: set-up follows the gauge only weakly.
        "setup_s": median([pass_sum(p, "build_s") + pass_sum(p, "open_s")
                           + pass_sum(p, "setup_s") + p["manifest_s"]
                           for p in base] + rep["setup_rounds_s"]),
        "peak_rss_mib": rep["peak_rss_kib"] / 1024.0,
        "events_per_demand": stat_sum(base[0], "events") / demands,
    }


def by_label(p, label):
    return [c for c in p["cells"] if c["label"] == label]


def workload_metrics(rep, fails, attempted):
    """Metrics every run can compute: artifacts, accuracy, failures."""
    base = passes_of(rep, "base")
    p0 = base[0]
    demands = stat_sum(p0, "demands")
    b = {k: 0 for k in ARTIFACT_KINDS}
    for c in p0["cells"]:
        for name, f in c["artifacts"].items():
            b[name.split("/")[0]] += f["bytes"]
    m = {
        "artifact_bytes_per_demand": sum(b.values()) / demands,
        **{f"sim.artifacts.bytes.{k}": v for k, v in b.items()},
        "common.decision_log.records_per_kdemand":
            pass_sum(p0, "decisions") * 1000.0 / demands,
        "sim.fidelity.windows": stat_sum(p0, "sample_windows"),
        "sampled_ammat_err_pct": 0.0,
        "sampled_ci_miss": 0,
        "cell_fail_frac": len(fails) / attempted,
    }
    ref = passes_of(rep, "reference")
    if ref:
        detailed = {cell_key(c): c["stats"]["ammat_ns"]
                    for c in ref[0]["cells"] if c["ok"]}
        errs, miss = [], 0
        for c in p0["cells"]:
            truth = detailed.get(cell_key(c))
            if truth is None:
                continue
            s = c["stats"]
            errs.append(abs(s["sampled_ammat_ns"] - truth) / truth * 100)
            miss += abs(s["sampled_ammat_ns"] - truth) > s["sampled_ci_ns"]
        m["sampled_ammat_err_pct"] = max(errs, default=0.0)
        m["sampled_ci_miss"] = miss
    return m


def paired_pct(rep, kind, other):
    """Median over rounds of kind's calibrated wall time over other's,
    in % more; the passes of a round ran next to each other."""
    rounds = {}
    for p in passes_of(rep, *MEASURED_KINDS):
        rounds.setdefault(p["round"], {})[p["kind"]] = calibrated_wall(p)
    return median([(r[kind] - r[other]) / r[other] * 100.0
                   for r in rounds.values() if kind in r and other in r])


def per_layer(rep, wm):
    base = passes_of(rep, "base")
    traced = passes_of(rep, "traced")
    demands = stat_sum(base[0], "demands")
    t0 = traced[0]
    iso = rep["isolated"]

    def vs_tlm(label):
        # Run-time difference to the TLM cell on the same trace, per
        # demand of the mechanism's cells.
        cells = by_label(base[0], label)
        return median([
            sum(c["run_s"] for c in by_label(p, label))
            - sum(c["run_s"] for c in by_label(p, "TLM"))
            for p in base]) / sum(c["stats"]["demands"] for c in cells) * 1e9

    m = {
        "host.raw_wall_s": median([p["wall_s"] for p in base]),
        "host.gauge_ms": median([c["calib_s"] * 1e3 for p in base
                                 for c in p["cells"]]),
        "trace.build_s": median([pass_sum(p, "build_s") for p in traced]),
        "trace.open_s": median([pass_sum(p, "open_s") + p["manifest_s"]
                                for p in traced]),
        "sim.setup_s": median([perf_sum(p, "setup_ns") * 1e-9
                               for p in traced]),
        "trace.ns_per_record": iso["trace_ns_per_record"],
        "trace.max_resident_kib": iso["trace_max_resident_kib"],
        "dram.ticks_per_demand": perf_sum(t0, "channel_ticks") / demands,
        "dram.issued_per_demand": perf_sum(t0, "channel_issued") / demands,
        "dram.arb_passes_per_issue": perf_sum(t0, "channel_arb_passes")
        / perf_sum(t0, "channel_issued"),
        "common.eq.ns_per_event": median([
            perf_sum(p, "run_ns") / perf_sum(p, "events") for p in traced]),
        "common.eq.cascades_per_kevent":
            perf_sum(t0, "eq_cascades") * 1000.0 / perf_sum(t0, "events"),
        "core.mempod.ns_per_demand": vs_tlm("MemPod"),
        "baselines.hma.ns_per_demand": vs_tlm("HMA"),
        "baselines.thm.ns_per_demand": vs_tlm("THM"),
        "baselines.cameo.ns_per_demand": vs_tlm("CAMEO"),
        "tracking.mea.touch_ns": iso["mea_touch_ns"],
        "core.remap.lookup_ns": iso["remap_lookup_ns"],
        "common.decision_log.overhead_pct":
            paired_pct(rep, "base", "no_decisions"),
        "sim.validate.overhead_pct": paired_pct(rep, "base", "no_validate"),
        "sim.report_s": median([perf_sum(p, "report_ns") * 1e-9
                                for p in traced]),
        "sim.stats_writer.serialize_s": median([
            pass_sum(p, "serialize_s") for p in traced]),
        "sim.stats_writer.write_s": median([
            pass_sum(p, "write_s") for p in traced]),
        "bench.trace_overhead_pct": paired_pct(rep, "traced", "base"),
    }
    for label in MECHANISMS:
        m[f"sim.run_s.{label}"] = median([
            sum(c["run_s"] for c in by_label(p, label)) for p in base])
    m.update(wm)
    return m


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(rep, e2e, layers, wm, fails, attempted, notes):
    base = passes_of(rep, "base")
    host = rep["host"]
    print(f"perfbench {rep['workload']}: seed {rep['seed']}, "
          f"{rep['demands']} demands per cell, {len(base[0]['cells'])} "
          f"cells run one at a time, {len(base)} base passes; "
          f"{host['sysname']} {host['machine']}, {host['cpus']} CPUs, "
          "Release build")
    print("The detailed DRAM model is unvalidated against hardware; no "
          "error against the paper is reported. Migration state starts "
          "cold in every cell.")
    for what, walls in (("host", [p["wall_s"] for p in base]),
                        ("calibrated", [calibrated_wall(p) for p in base])):
        print(f"per-pass {what} wall s: median {median(walls):.4f}, min "
              f"{min(walls):.4f}, max {max(walls):.4f} (n={len(walls)})")
    gauge = [c["calib_s"] * 1e3 for p in base for c in p["cells"]]
    print(f"host gauge: median {median(gauge):.3f} ms, min {min(gauge):.3f}"
          f", max {max(gauge):.3f} (reference {GAUGE_REF_S * 1e3:g} ms); "
          "wall_s and demands_per_s are at the reference speed")
    for name, unit in E2E.items():
        det = " (deterministic)" if name in DETERMINISTIC else ""
        print(f"  {name:<22} {fmt(e2e[name]):>14} {unit}{det}")
        for lname, lunit in LAYERS.get(name, {}).items():
            if layers is not None:
                det = " (deterministic)" if lname in DETERMINISTIC else ""
                print(f"      {lname:<38} {fmt(layers[lname]):>14} "
                      f"{lunit}{det}")
    for group in ("artifacts (replay-artifacts)",
                  "accuracy (fig8-sampled)", "failures"):
        print(f"  {group}")
        for lname, lunit in LAYERS[group].items():
            v = (layers or wm)[lname]
            det = " (deterministic)" if lname in DETERMINISTIC else ""
            print(f"      {lname:<38} {fmt(v):>14} {lunit}{det}")
    for line in notes:
        print(line)
    print(f"cells attempted {attempted}, failed {len(fails)}")
    for key, why in sorted(fails.items()):
        for w in why:
            print(f"  FAIL {key}: {w}")


def reference_cells(p):
    """A pass's per-cell statistics, in the form references.json keeps."""
    return {cell_key(c): {f: c["stats"][f] for f in REF_FIELDS}
            for c in p["cells"]}


def write_references(rep):
    refs = load_references()
    (refs.setdefault(rep["workload"], {})
         .setdefault(str(rep["demands"]), {})[str(rep["seed"])]) = (
        reference_cells(passes_of(rep, "base")[0]))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: wrote references for {rep['workload']} seed "
        f"{rep['seed']} to {REFERENCES}")


def load_references():
    return (json.loads(REFERENCES.read_text()) if REFERENCES.is_file()
            else {})


def run_harness(harness, workload, seed, seconds, trace, demands=DEMANDS):
    """Run the harness once; returns its raw report."""
    work = ROOT / ".bench_work"
    rundir = work / "run" / str(os.getpid())
    report_path = work / (f"report-{workload}-seed{seed}-"
                          f"trace{trace}.json")
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--demands", str(demands), "--cache", str(work / "cache"),
           "--rundir", str(rundir), "--report", str(report_path)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: harness exceeded "
                         f"{HARNESS_TIMEOUT_S} s and was stopped")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if proc.returncode != 0:
        # A panic (e.g. a tripped InvariantChecker) aborts the harness
        # mid-cell: the run as a whole has failed.
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    return json.loads(report_path.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        harness = build()
    except (subprocess.CalledProcessError, OSError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")

    rep = run_harness(harness, args.workload, args.seed, args.seconds,
                      args.trace)
    refs = load_references()
    fails = check(rep, refs)
    attempted = len(passes_of(rep, "base")[0]["cells"])
    e2e = end_to_end(rep)
    wm = workload_metrics(rep, fails, attempted)
    layers = per_layer(rep, wm) if args.trace else None
    report(rep, e2e, layers, wm, fails, attempted, unchecked(rep, refs))
    if args.write_references:
        if fails:
            raise SystemExit("perfbench: not writing references for a "
                             "run that failed its checks")
        write_references(rep)

    chosen = layers if args.trace else e2e
    units = PER_LAYER if args.trace else E2E
    for name, v in chosen.items():
        if not math.isfinite(v):
            raise SystemExit(f"perfbench: metric {name} is not finite")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
