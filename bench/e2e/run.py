#!/usr/bin/env python3
"""End-to-end benchmark runner: builds bench/e2e against this repository and
runs its seeded workloads.

  python3 bench/e2e/run.py                 full set: every workload, seed 1,
                                           end-to-end metrics
  python3 bench/e2e/run.py --trace         full set plus a traced run per
                                           workload (per-layer metrics, traces)
  python3 bench/e2e/run.py --smoke         every workload at --scale 0.02 with
                                           every correctness check
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                           one run; the last stdout line is
                                           the JSON result
  python3 bench/e2e/run.py compare A B     alternating A/B pairs (A, B: git
                                           revisions or source trees)

Everything is built into build/e2e/ and written under build/e2e/. The exit
status is non-zero on any build failure, failed operation or failed check.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
RESULTS = os.path.join(BUILD, "results")
TRACES = os.path.join(BUILD, "traces")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.02
COMPARE_PAIRS = 10  # a gain needs 9 of 10 alternating pairs won


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_quiet(cmd, timeout, cwd=None):
    """Runs cmd to completion, returning (exit code, combined output)."""
    try:
        p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout)
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return 124, out + "\n(timed out after %d s)" % timeout
    except OSError as e:
        return 127, str(e)


def build(build_dir=BUILD, source_dir=None):
    """Configures and builds palladium_e2e; returns the binary path or exits 1."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if source_dir is not None:
            configure.append("-DPALLADIUM_SOURCE_DIR=" + os.path.abspath(source_dir))
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in (configure, ["cmake", "--build", build_dir, "-j", str(nproc()),
                                "--target", "palladium_e2e"]):
            code, out = run_quiet(cmd, max(1, deadline - time.monotonic()))
            if code != 0:
                log(out[-4000:])
                log("build failed: " + " ".join(cmd))
                sys.exit(1)
    return os.path.join(build_dir, "palladium_e2e")


def git(*args, cwd=ROOT):
    code, out = run_quiet(["git", "-C", cwd] + list(args), 30)
    return out.strip() if code == 0 else None


def git_stamp(tree=ROOT):
    rev = git("rev-parse", "HEAD", cwd=tree)
    if rev is None:
        return {"git_rev": "unknown", "git_dirty": None}
    return {"git_rev": rev, "git_dirty": bool(git("status", "--porcelain", cwd=tree))}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def stamp_files(result_path, trace_path, stamp):
    """Adds the git half of the provenance stamp (the binary writes the rest)
    and the quartiles of the per-round samples of every metric that has them."""
    with open(result_path) as f:
        result = json.load(f)
    result["provenance"].update(stamp)
    for m in result["metrics"].values():
        if m.get("samples"):
            m["q1"], m["q3"] = quartiles(m["samples"])
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)
    if trace_path and os.path.exists(trace_path):
        with open(trace_path) as f:
            trace = json.load(f)
        trace["metadata"].update(stamp)
        with open(trace_path, "w") as f:
            json.dump(trace, f)
    return result


def run_binary(binary, workload, seed, result_path, seconds=None, rounds=None, scale=None,
               trace_path=None, echo=True, stamp=None):
    """Runs one workload process; returns its stamped result, or None when the
    process died without writing one."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--json", result_path]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if trace_path:
        cmd += ["--trace", trace_path]
    if os.path.exists(result_path):
        os.remove(result_path)
    code, out = run_quiet(cmd, RUN_TIMEOUT_S)
    if echo:
        print(out, end="", flush=True)
    if code not in (0, 1) or not os.path.exists(result_path):
        log("%s exited with %d" % (workload, code))
        return None
    result = stamp_files(result_path, trace_path, stamp or git_stamp())
    result["exit_code"] = code
    if echo:
        for name, m in result["metrics"].items():
            if m.get("samples"):
                print("%-32s %.6g; per-round quartiles [%.6g, %.6g] over %d rounds" % (
                    name, m["value"], m["q1"], m["q3"], len(m["samples"])))
    return result


def result_line(result, spec, traced):
    """The last-line result object with every metric BENCHMARK.json names for
    this mode (end-to-end, or per-layer when traced); None if one is missing."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            log("metric %s missing or in the wrong unit" % m["name"])
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]) and result["exit_code"] == 0,
            "attempted": int(result["attempted"]), "failed": int(result["failed"]),
            "metrics": metrics}


def single_run(args, spec):
    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    traced = args.trace == "1"
    tag = "%s-seed%d%s" % (args.workload, args.seed, "-traced" if traced else "")
    trace_path = None
    if traced:
        os.makedirs(TRACES, exist_ok=True)
        trace_path = os.path.join(TRACES, args.workload + "-seed%d.json" % args.seed)
    result = run_binary(binary, args.workload, args.seed, os.path.join(RESULTS, tag + ".json"),
                        seconds=args.seconds, trace_path=trace_path)
    if result is None:
        return 1
    line = result_line(result, spec, traced)
    if line is None:
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def full_set(args, spec):
    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(TRACES, exist_ok=True)
    stamp = git_stamp()
    seconds = args.seconds or spec["run_seconds"]
    summary, ok = {}, True
    started = time.monotonic()
    for w in [x["name"] for x in spec["workloads"]]:
        modes = [False, True] if args.trace else [False]
        for traced in modes:
            print("\n=== %s (seed %d, %s) ===" % (w, args.seed, "traced" if traced else "untraced"),
                  flush=True)
            tag = "%s-seed%d%s" % (w, args.seed, "-traced" if traced else "")
            trace_path = os.path.join(TRACES, w + "-seed%d.json" % args.seed) if traced else None
            result = run_binary(binary, w, args.seed, os.path.join(RESULTS, tag + ".json"),
                                seconds=seconds, trace_path=trace_path, stamp=stamp)
            if result is None or result_line(result, spec, traced) is None:
                ok = False
                continue
            ok = ok and result["correct"] and result["exit_code"] == 0
            summary.setdefault(w, {}).update(
                {k: v["value"] for k, v in result["metrics"].items()})
            summary[w]["fail_ratio"] = result["failed"] / max(1, result["attempted"])
            if trace_path:
                print("trace: " + os.path.relpath(trace_path, ROOT))
    names = [m["name"] for m in spec["end_to_end"]] + ["fail_ratio"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_ratio"] = "fraction"
    print("\n%-26s %-9s" % ("end-to-end metric", "unit") +
          "".join("%18s" % w for w in summary))
    for n in names:
        print("%-26s %-9s" % (n, units[n]) +
              "".join("%18.6g" % summary[w].get(n, float("nan")) for w in summary))
    path = os.path.join(RESULTS, "set-seed%d-%d.json" % (args.seed, int(time.time())))
    with open(path, "w") as f:
        json.dump({"provenance": stamp, "seed": args.seed, "seconds": seconds,
                   "metrics": summary}, f, indent=1)
    print("\n%s in %.0f s; summary: %s" % ("ok" if ok else "FAILED", time.monotonic() - started,
                                          os.path.relpath(path, ROOT)))
    return 0 if ok else 1


def smoke(spec):
    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(TRACES, exist_ok=True)
    stamp = git_stamp()
    started, ok = time.monotonic(), True
    for w in [x["name"] for x in spec["workloads"]]:
        for traced in (False, True):
            tag = "smoke-%s%s" % (w, "-traced" if traced else "")
            trace_path = os.path.join(TRACES, tag + ".json") if traced else None
            result = run_binary(binary, w, 1, os.path.join(RESULTS, tag + ".json"),
                                rounds=1 if traced else 2, scale=SMOKE_SCALE,
                                trace_path=trace_path, echo=False, stamp=stamp)
            good = (result is not None and result["correct"] and result["exit_code"] == 0
                    and result_line(result, spec, traced) is not None)
            if result is not None and trace_path:
                with open(trace_path) as f:
                    good = good and len(json.load(f)["traceEvents"]) > 1
            print("%-20s %-8s %s" % (w, "traced" if traced else "untraced",
                                     "ok" if good else "FAILED"), flush=True)
            if not good and result is not None:
                for d in result["diagnostics"]:
                    print("  " + d)
            ok = ok and good
    print("smoke %s in %.1f s" % ("ok" if ok else "FAILED", time.monotonic() - started))
    return 0 if ok else 1


# --- compare ---------------------------------------------------------------------

def resolve_tree(name):
    """A source tree for `name`: an existing directory, or a git revision
    exported under build/e2e/trees/."""
    if os.path.isdir(name):
        return os.path.abspath(name), git_stamp(name)
    rev = git("rev-parse", "--verify", name + "^{commit}")
    if rev is None:
        log("compare: %s is neither a directory nor a git revision" % name)
        sys.exit(2)
    tree = os.path.join(BUILD, "trees", rev)
    if not os.path.isdir(tree):
        tmp = tree + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        tar_path = os.path.join(BUILD, "trees", rev + ".tar")
        code, out = run_quiet(["git", "-C", ROOT, "archive", "-o", tar_path, rev], 120)
        if code != 0:
            log(out)
            sys.exit(2)
        with tarfile.open(tar_path) as t:
            t.extractall(tmp)
        os.remove(tar_path)
        os.rename(tmp, tree)
    return tree, {"git_rev": rev, "git_dirty": False}


def compare(args, spec):
    sides = []
    for i, name in enumerate((args.a, args.b)):
        tree, stamp = resolve_tree(name)
        binary = build(os.path.join(BUILD, "compare-%s" % "ab"[i]), tree)
        sides.append({"name": name, "binary": binary, "stamp": stamp})
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(RESULTS, exist_ok=True)
    runs = {(w, s): [] for w in workloads for s in (0, 1)}  # per (workload, side), by pair
    for pair in range(COMPARE_PAIRS):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for w in workloads:
            for s in order:
                path = os.path.join(RESULTS, "compare-%s-%s-pair%d.json" % ("ab"[s], w, pair))
                r = run_binary(sides[s]["binary"], w, pair + 1, path, seconds=seconds,
                               echo=False, stamp=sides[s]["stamp"])
                if r is None or not r["correct"]:
                    log("compare: %s on side %s failed (pair %d)" % (w, sides[s]["name"], pair))
                    return 1
                runs[(w, s)].append(r)
            log("pair %d/%d %s done" % (pair + 1, COMPARE_PAIRS, w))
    # Stamps must agree in everything but the revision.
    def comparable(p):
        return {k: v for k, v in p.items() if k not in ("git_rev", "git_dirty")}
    a0, b0 = runs[(workloads[0], 0)][0], runs[(workloads[0], 1)][0]
    if comparable(a0["provenance"]) != comparable(b0["provenance"]):
        print("refusing to compare: provenance differs beyond the revision")
        print(" A: %s\n B: %s" % (json.dumps(a0["provenance"]), json.dumps(b0["provenance"])))
        return 2
    print("A = %s (%s)\nB = %s (%s)\n%d pairs, %s s per run\n" % (
        sides[0]["name"], sides[0]["stamp"]["git_rev"], sides[1]["name"],
        sides[1]["stamp"]["git_rev"], COMPARE_PAIRS, seconds))
    print("%-18s %-18s %26s %26s %5s  %s" % ("workload", "metric", "A median [q1, q3]",
                                             "B median [q1, q3]", "win", "verdict"))
    regressions = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
            a = [r["metrics"][name]["value"] for r in runs[(w, 0)]]
            b = [r["metrics"][name]["value"] for r in runs[(w, 1)]]
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            better = [(y < x) if lower else (y > x) for x, y in zip(a, b) if x != y]
            win = sum(better) / len(a)
            worse_by = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
            if name.startswith("sim_"):
                verdict = "identical" if a == b else "SIM CHANGED"
            elif (qa[1] - qa[0]) / ma > bound and not (
                    (max(b) < min(a)) if lower else (min(b) > max(a))):
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * (qa[1] - qa[0]) / ma)
            elif worse_by > bound:
                verdict = "REGRESSION (%.1f%% worse, bound %.0f%%)" % (100 * worse_by,
                                                                      100 * bound)
                regressions += 1
            elif win >= 0.9 and abs(mb - ma) > qa[1] - qa[0] and worse_by < 0:
                verdict = "gain (%.1f%%)" % (-100 * worse_by)
            else:
                verdict = "no change"
            print("%-18s %-18s %26s %26s %5.2f  %s" % (
                w, name, "%.5g [%.5g, %.5g]" % (ma, qa[0], qa[1]),
                "%.5g [%.5g, %.5g]" % (mb, qb[0], qb[1]), win, verdict))
        changed = sorted({k for ra, rb in zip(runs[(w, 0)], runs[(w, 1)])
                          for k in set(ra["counters"]) | set(rb["counters"])
                          if ra["counters"].get(k) != rb["counters"].get(k)})
        if changed:
            print("%-18s counters changed: %s" % (w, ", ".join(changed)))
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="*", help="'compare A B'")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", nargs="?", const="1", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.command:
        if len(args.command) != 3 or args.command[0] != "compare":
            parser.error("the only command is: compare A B")
        args.a, args.b = args.command[1], args.command[2]
        return compare(args, spec)
    if args.smoke:
        return smoke(spec)
    if args.workload is not None:
        if args.workload not in known:
            parser.error("unknown workload %s (known: %s)" % (args.workload, ", ".join(known)))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return single_run(args, spec)
    args.trace = args.trace == "1"
    return full_set(args, spec)


if __name__ == "__main__":
    sys.exit(main())
