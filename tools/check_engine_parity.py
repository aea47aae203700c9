#!/usr/bin/env python3
"""Engine-parity gate for the end-to-end benchmark's smoke results.

The hot-trace tier is a pure host-side accelerator: with it on or off
(PALLADIUM_NO_TRACE=1) every simulated result must be identical. This tool
compares two directories of `bench/e2e/run.py --smoke` results
(smoke-*.json) and fails if any `sim_*` metric, or any counter outside the
engine's own `cpuN.trace.*` / `cpuN.block.*` bookkeeping, differs.

  python3 bench/e2e/run.py --smoke && cp build/e2e/results/smoke-*.json on/
  PALLADIUM_NO_TRACE=1 python3 bench/e2e/run.py --smoke && \\
      cp build/e2e/results/smoke-*.json off/
  python3 tools/check_engine_parity.py on/ off/

The data fast path is a host-side accelerator too, and the same tool checks
it on and off (PALLADIUM_NO_DTLB=1): when the two files' provenance shows
the switch set differently, the fast path's own `cpuN.dtlb.*` counters are
left out as well. Runs with the same setting keep comparing them, so the
engine legs still hold the D-TLB counters equal across engines.

Exit status: 0 when every file pair agrees, 1 on any difference or a missing
file.
"""

import glob
import json
import os
import re
import sys

# Counters that describe the execution engine itself and legitimately differ
# between tiers.
ENGINE_COUNTER = re.compile(r"^cpu\d+\.(trace|block)\.")
# The data fast path's own counters, which differ only with its switch.
DTLB_COUNTER = re.compile(r"^cpu\d+\.dtlb\.")


def dtlb_enabled(result):
    """The fast-path switch a run had: PALLADIUM_NO_DTLB unset, empty or "0"
    leaves it on (RuntimeConfig's rule for every boolean switch)."""
    value = result.get("provenance", {}).get("env", {}).get("PALLADIUM_NO_DTLB")
    return value in (None, "", "0")


def load(directory):
    results = {}
    for path in sorted(glob.glob(os.path.join(directory, "smoke-*.json"))):
        with open(path) as f:
            results[os.path.basename(path)] = json.load(f)
    return results


def simulated_view(result, skip_dtlb):
    """Every value the parity contract covers, keyed by a printable name."""
    view = {}
    for name, metric in result.get("metrics", {}).items():
        if name.startswith("sim_"):
            view["metric " + name] = metric.get("value")
    for name, value in result.get("counters", {}).items():
        if not ENGINE_COUNTER.match(name) and not (skip_dtlb and DTLB_COUNTER.match(name)):
            view["counter " + name] = value
    return view


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    if not a:
        print("no smoke-*.json results in %s" % argv[1])
        return 1
    failures = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print("%s: present in only one directory" % name)
            failures += 1
            continue
        skip_dtlb = dtlb_enabled(a[name]) != dtlb_enabled(b[name])
        va, vb = simulated_view(a[name], skip_dtlb), simulated_view(b[name], skip_dtlb)
        diffs = [k for k in sorted(set(va) | set(vb)) if va.get(k) != vb.get(k)]
        for k in diffs:
            print("%s: %s differs: %r vs %r" % (name, k, va.get(k), vb.get(k)))
        failures += len(diffs)
        print("%-40s %s (%d values compared)" % (name, "ok" if not diffs else "DIFFERS",
                                                 len(va)))
    print("engine parity %s" % ("ok" if failures == 0 else "FAILED (%d differences)" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
