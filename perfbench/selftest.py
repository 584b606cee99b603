#!/usr/bin/env python3
"""Shows that perfbench's output check catches a wrong simulated result.

    python3 perfbench/selftest.py

Runs replay-artifacts once, briefly and at a short trace length, then
calls run.check() on its report with references made in memory from the
run itself: the unchanged references must pass; a replayed cell's AMMAT
moved by one unit in the last place, a live twin's fig8-detailed AMMAT
moved likewise, and one byte more in a twin's artifact file must each
fail exactly one cell. Exits 0 when all four behave.
"""
import copy
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

DEMANDS = 50_000
SEED = 42


def bump_ammat(refs, workload, cell):
    entry = refs[workload][str(DEMANDS)][str(SEED)][cell]
    entry["ammat_ns"] = math.nextafter(entry["ammat_ns"], math.inf)


def main():
    rep = run.run_harness(run.build(), "replay-artifacts", SEED, 1, 0,
                          DEMANDS)
    base = run.passes_of(rep, "base")[0]
    twin = run.passes_of(rep, "twin")[0]
    refs = {w: {str(DEMANDS): {str(SEED): run.reference_cells(p)}}
            for w, p in (("replay-artifacts", base), ("fig8-detailed", twin))}

    replayed = copy.deepcopy(refs)
    bump_ammat(replayed, "replay-artifacts", "mix5/MemPod")
    detailed = copy.deepcopy(refs)
    bump_ammat(detailed, "fig8-detailed", "mix5/HMA")
    grown = copy.deepcopy(rep)
    files = next(c for c in run.passes_of(grown, "twin")[0]["cells"]
                 if c["label"] == "CAMEO")["artifacts"]
    files[min(files)]["bytes"] += 1

    cases = [
        ("references made from the run", rep, refs, 0),
        ("replayed mix5/MemPod ammat_ns + 1 ulp", rep, replayed, 1),
        ("fig8-detailed mix5/HMA ammat_ns + 1 ulp", rep, detailed, 1),
        ("one more byte in a CAMEO twin artifact", grown, refs, 1),
    ]
    ok = True
    for what, r, refs_in, want in cases:
        fails = run.check(r, refs_in)
        good = len(fails) == want
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {what}: {len(fails)} failed "
              f"cell(s) {sorted(fails)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
