#!/usr/bin/env python3
"""Bench-smoke gate: fail if a gated benchmark metric regressed.

Usage: check_bench_regression.py BASELINE.json FRESH.json

Both files must have the same format: BenchJson output (a "metrics" object,
from bench_dataplane and bench_protection) or google-benchmark JSON (a
"benchmarks" list, from bench_simspeed, gated on each row's sim_mips with
`_median` aggregates preferred so `--benchmark_repetitions` runs gate on the
median).

Every gate is one row of GATES. A row applies when the baseline carries its
key (or its `when` key), and then the fresh run must carry it too. A
baseline that carries no rate or cost row (one with a tolerance) is
refused: drop counters alone cannot tell a regression from the wrong file. Keys that only the fresh run
carries are new telemetry (e.g. the federated "obs." registry counters):
they are listed so the baseline refresh is a conscious step, not gated.
Keys that only the baseline carries are listed in full, also as a note, so
losing a counter is a visible step too. Neither list changes the exit
status.

For google-benchmark JSON it also prints, report-only, each sim_mips row
normalized by BM_AssembleFilter from the same file: the row's sim_mips times
BM_AssembleFilter's time in microseconds, i.e. the simulated instructions
the engine retires in the host time of one filter assembly. BM_AssembleFilter
runs host code only, so a host that is uniformly slower moves both and
leaves the normalized row where it was.
"""
import collections
import json
import sys

# key        a metric or row name; "a|b" gates the first of a and b that the
#            baseline carries; "a/b" gates the ratio a/b; "*_x" gates every
#            google-benchmark row whose name ends in "_x".
# better     "higher" or "lower": the fresh value may be at most `tolerance`
#            worse than the baseline's; "zero": it must be exactly 0, and
#            the baseline's value is not consulted.
# paired     for "*_x" rows, the in-binary reference row "*_y". When the
#            absolute check fails, the x/y ratio from the same JSON is held
#            to the baseline's ratio instead: a runner that is uniformly
#            slower than the baseline's machine moves both rows and keeps
#            the ratio, so only a genuine regression (ratio collapse) fails.
# when       the baseline key that makes the row apply, if not `key` itself.
Gate = collections.namedtuple("Gate", "key better tolerance paired when",
                              defaults=(None, None))
GATES = (
    # Engine sim-MIPS (host time, so runner dependent): block engine vs the
    # per-instruction path, trace tier vs the block engine.
    Gate("*_block", "higher", 0.20, paired="*_insn"),
    Gate("*_trace", "higher", 0.20, paired="*_block"),
    # Dataplane rate in simulated cycles: machine independent, the tolerance
    # only absorbs scheduling nondeterminism. The soak reports requests/sec.
    Gate("dataplane_packets_per_sec|requests_per_sec", "higher", 0.10),
    Gate("queue_full_drops", "lower", 0.0),
    # Protection overhead: both sides are simulated cycles per invocation.
    Gate("palladium_cycles_per_invocation/unprotected_cycles_per_invocation", "lower", 0.10),
    # The live filter upgrade must not lose frames: every protection run
    # must report it, whether or not the baseline does.
    Gate("upgrade_dropped_frames", "zero", 0.0, when="palladium_cycles_per_invocation"),
)


NORMALIZER = "BM_AssembleFilter"
TIME_UNIT_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def load(path):
    """Returns (format, {name: value}, label) for one bench JSON file.

    For google-benchmark JSON the values are each row's sim_mips, plus
    NORMALIZER's real time in microseconds under its own name."""
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and isinstance(data.get("metrics"), dict):
        return "metrics", data["metrics"], data.get("bench", path)
    plain, median = {}, {}
    for bench in data.get("benchmarks", []):
        # The SMP rows run with UseRealTime, which suffixes the name with
        # "/real_time"; strip it so suffix matching stays clock-agnostic.
        name = bench.get("name", "").replace("/real_time", "")
        if name in (NORMALIZER, NORMALIZER + "_median"):
            value = float(bench["real_time"]) * TIME_UNIT_US[bench.get("time_unit", "ns")]
        elif "sim_mips" in bench:
            value = float(bench["sim_mips"])
        else:
            continue
        if name.endswith("_median"):
            median[name[: -len("_median")]] = value
        elif "_" in name:
            plain[name] = value
    plain.update(median)  # median aggregates win over per-repetition entries
    return "benchmarks", plain, path


def normalized(values):
    """{row: sim_mips x NORMALIZER's microseconds} for every sim_mips row
    (spread aggregates such as _stddev are not rows)."""
    asm_us = values.get(NORMALIZER)
    if not asm_us:
        return {}
    return {name: v * asm_us for name, v in values.items()
            if name != NORMALIZER and not name.endswith(("_mean", "_stddev", "_cv"))}


def report_normalized(label, base_values, fresh_values):
    """Prints each engine row normalized by NORMALIZER, baseline and fresh."""
    base, fresh = normalized(base_values), normalized(fresh_values)
    rows = sorted(set(base) & set(fresh))
    if not rows:
        return
    print(f"note: {label}: sim_mips x {NORMALIZER} time (simulated instructions per "
          f"assembly; report-only):")
    for name in rows:
        change = f" ({fresh[name] / base[name]:.2f}x)" if base[name] else ""
        print(f"  {name}: baseline {base[name]:.6g} -> fresh {fresh[name]:.6g}{change}")


def ratio(values, num, den):
    """values[num] / values[den]; None when either is missing or den is 0."""
    if num not in values or not float(values.get(den, 0)):
        return None
    return float(values[num]) / float(values[den])


def value(values, name):
    """values[name]; for a GATES key "a/b", the ratio a/b. None when missing."""
    if name in values:
        return float(values[name])
    return ratio(values, *name.split("/", 1)) if "/" in name else None


def gated_names(gate, values):
    """The names a row gates, given the baseline's values."""
    if gate.when is not None:
        return [gate.key] if gate.when in values else []
    if gate.key.startswith("*"):
        return sorted(n for n in values if n.endswith(gate.key[1:]))
    for name in gate.key.split("|"):
        if name.partition("/")[0] in values:
            return [name]
    return []


def within(base, fresh, better, tolerance):
    if better == "higher":
        return fresh >= base * (1.0 - tolerance)
    return fresh <= base * (1.0 + tolerance)


def check(label, name, gate, base_values, fresh_values):
    """Prints one gate's verdict; returns True when it passes."""
    key, better, tolerance, paired, _ = gate
    base = value(base_values, name)
    fresh = value(fresh_values, name)
    if fresh is None:
        print(f"FAIL: {label}: fresh run is missing {name}")
        return False
    if better == "zero":
        print(f"{label} {name}: {fresh:.6g} " + ("ok" if fresh == 0 else "FAIL (must be 0)"))
        return fresh == 0
    if base is None:
        print(f"FAIL: {label}: baseline is missing {name}")
        return False
    change = f" ({fresh / base:.2f}x)" if base else ""
    line = f"{label} {name}: baseline {base:.6g} -> fresh {fresh:.6g}{change}"
    if within(base, fresh, better, tolerance):
        print(f"{line} ok")
        return True
    bound = f"more than {tolerance:.0%} worse than baseline"
    if paired is None:
        print(f"{line} FAIL ({bound})")
        return False
    ref = name[: -len(key[1:])] + paired[1:]
    base_pair = ratio(base_values, name, ref)
    fresh_pair = ratio(fresh_values, name, ref)
    if base_pair is None or fresh_pair is None:
        print(f"{line} FAIL ({bound}; no {ref} pair to normalize against)")
        return False
    pair = f"{name}/{ref} ratio {base_pair:.2f}x -> {fresh_pair:.2f}x"
    if within(base_pair, fresh_pair, better, tolerance):
        print(f"{line} ok (absolute {bound}, but the {pair} held: slower machine, "
              f"not a regression)")
        return True
    print(f"{line} FAIL ({pair} collapsed)")
    return False


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    base_fmt, base_values, label = load(sys.argv[1])
    fresh_fmt, fresh_values, _ = load(sys.argv[2])
    if base_fmt != fresh_fmt:
        print(f"FAIL: {sys.argv[1]} and {sys.argv[2]} are different bench JSON "
              f"formats (one has a 'metrics' object, the other does not)")
        return 1
    applicable = [(gate, name) for gate in GATES for name in gated_names(gate, base_values)]
    if not any(gate.tolerance for gate, _ in applicable):
        print(f"FAIL: {label}: baseline {sys.argv[1]} carries none of the rate or "
              f"cost gates: {', '.join(g.key for g in GATES if g.tolerance)}")
        return 1
    failed = False
    for gate, name in applicable:
        failed |= not check(label, name, gate, base_values, fresh_values)
    fresh_only = sorted(set(fresh_values) - set(base_values))
    if fresh_only:
        more = f", ... ({len(fresh_only)} total)" if len(fresh_only) > 5 else ""
        print(f"note: {label}: {len(fresh_only)} fresh metrics have no committed "
              f"baseline yet (not gated): {', '.join(fresh_only[:5])}{more}")
    lost = sorted(set(base_values) - set(fresh_values))
    if lost:
        print(f"note: {label}: {len(lost)} baseline metrics are missing from the fresh "
              f"run (not gated): {', '.join(lost)}")
    if base_fmt == "benchmarks":
        report_normalized(label, base_values, fresh_values)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
