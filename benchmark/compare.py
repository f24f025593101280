#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets by the benchmark's own rule.

  python3 benchmark/compare.py collect OUT.json [--seeds 1-10]
  python3 benchmark/compare.py compare A.json B.json

`collect` does what the driver does: from the repo root it runs the command of
BENCHMARK.json once per workload and seed with tracing off, plus one traced run
per workload (first seed), one process at a time, and stores every result with
the run's envelope and fingerprints. It ends with the spread of every end-to-end
metric (quartile distance over median, `statistics.quantiles(values, n=4)`).

`compare` takes A as the parent and B as the change. Per workload and end-to-end
metric, B's median may be worse than A's by at most the metric's bound; where a
set's spread exceeds the bound the pairing is "unresolved", not "unchanged",
unless every B run beats every A run. Values that repeat exactly for a seed
(per-layer counts, fingerprints, store_mb, throughput_share) are diffed exactly.
Exit code 0 means no regression, nothing unresolved, no exact difference.

This is a script beside the harness and not a subcommand of it because it has
to read JSON, and the workspace has no JSON reader to share.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# End-to-end metrics that are a pure function of workload, seed and size.
EXACT_END_TO_END = ("store_mb", "throughput_share")
ENVELOPE = ("available_parallelism", "kernel_workers", "profile", "rustc", "git_rev", "crate_lines")


def run_once(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    detail = json.loads((ROOT / "benchmark" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    facts = {k: v for k, v in detail.items() if k.endswith("fingerprint") or k in ("intervals", "records", "passes")}
    # Raw wall-clock figures and the host's slowdown: kept, never compared.
    raw = {k: float(v) for k, v in detail.items() if k.startswith("raw_") or k == "host_slowdown"}
    envelope = {k: detail[k] for k in ENVELOPE}
    return {"workload": workload, "seed": seed, "trace": trace, "facts": facts, "raw": raw, "result": result}, envelope


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def values_of(runs, workload, metric, trace=0):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace]


def print_spreads(runs):
    print(f"{'workload':<14} {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}")
    for w in BENCH["workloads"]:
        for m in BENCH["end_to_end"]:
            v = values_of(runs, w["name"], m["name"])
            flag = "" if spread(v) <= m["bound"] / 3 or m["name"] == "setup_s" else (
                "  > bound/3" if spread(v) <= m["bound"] else "  > BOUND")
            print(f"{w['name']:<14} {m['name']:<18} {statistics.median(v):>14.6g} "
                  f"{spread(v):>8.4f} {m['bound']:>6}{flag}")


def collect(out_path, seeds):
    runs, envelope = [], None
    for w in (w["name"] for w in BENCH["workloads"]):
        for trace, seed_list in ((0, seeds), (1, seeds[:1])):
            for seed in seed_list:
                run, envelope = run_once(w, seed, trace)
                runs.append(run)
                r = run["result"]
                print(f"{w} seed {seed} trace {trace}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
    Path(out_path).write_text(json.dumps({"envelope": envelope, "runs": runs}, indent=1) + "\n")
    print_spreads(runs)
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    return 1 if bad else 0


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b))
    problems = 0
    print(f"{'workload':<14} {'metric':<18} {'A median':>12} {'B median':>12} {'worse by':>9} "
          f"{'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for w in (w["name"] for w in BENCH["workloads"]):
        for m in BENCH["end_to_end"]:
            va, vb = values_of(a, w, m["name"]), values_of(b, w, m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = m["better"] == "lower"
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            b_always_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if worse_by > m["bound"]:
                verdict = "REGRESSED"
            elif max(sa, sb) > m["bound"] and not b_always_better and m["name"] != "setup_s":
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            problems += verdict != "ok"
            print(f"{w:<14} {m['name']:<18} {ma:>12.6g} {mb:>12.6g} {worse_by:>+9.2%} "
                  f"{m['bound']:>6} {sa:>9.4f} {sb:>9.4f}  {verdict}")

    def exact(runs):
        out = {}
        for r in runs:
            key = (r["workload"], r["seed"], r["trace"])
            out[key + ("failed",)] = r["result"]["failed"]
            for k, v in r["facts"].items():
                out[key + (k,)] = v
            for name, mv in r["result"]["metrics"].items():
                if mv["unit"] == "count" or name in EXACT_END_TO_END:
                    out[key + (name,)] = mv["value"]
        return out

    ea, eb = exact(a), exact(b)
    diffs = [(k, ea.get(k), eb.get(k)) for k in sorted(set(ea) | set(eb), key=str) if ea.get(k) != eb.get(k)]
    for (w, seed, trace, name), x, y in diffs:
        print(f"exact difference: {w} seed {seed} trace {trace} {name}: {x} -> {y}")
    print(f"{len(ea)} exact values compared, {len(diffs)} differ")
    return 1 if problems or diffs else 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "collect":
        lo, _, hi = (argv[4] if len(argv) >= 5 and argv[3] == "--seeds" else "1-10").partition("-")
        return collect(argv[2], list(range(int(lo), int(hi or lo) + 1)))
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
