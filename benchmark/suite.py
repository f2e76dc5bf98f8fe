#!/usr/bin/env python3
"""Suite and compare modes of benchmark/run.sh (which builds, then calls this).

Suite:   every workload in its own process, one after the other, untraced then
         traced; prints every metric with unit and bound; writes
         <out>/results.json and <out>/<workload>.spans.tsv; exits 1 if a
         correctness check failed or a workload's peak RSS passed 2.5 GB.
Compare: two results.json side by side under the bounds of BENCHMARK.json;
         exits 1 if any (metric, workload) is worse than its bound allows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
RSS_LIMIT_MB = 2560.0
# Rows that must repeat exactly between two runs on the same seed.
EXACT = (
    "gen.input_hash",
    "core.reactor.frames_per_session",
    "core.client.deploys_per_session",
    "protocols.payload_bytes_per_page.",
    "vm.fuel_per_page.",
)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, quick, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if spans:
        cmd += ["--spans", spans]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    *lines, last = out.strip().splitlines()
    result = json.loads(last)
    for line in lines:
        if line.split(" ", 1)[0] not in result["metrics"]:  # the caller prints those
            print("    " + line)
    return result


def suite(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.only:
        if args.only not in workloads:
            sys.exit(f"unknown workload {args.only}; BENCHMARK.json lists {workloads}")
        workloads = [args.only]
    seconds = 1 if args.quick else spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    results = {"seed": args.seed, "quick": args.quick, "nproc": os.cpu_count(),
               "seconds": seconds, "runs": {w: [] for w in workloads}}
    ok = True
    for w in workloads:
        for rep in range(args.repeat):
            print(f"== {w} (seed {args.seed}, run {rep + 1}/{args.repeat}): end to end, tracing off")
            e2e = run_once(args.bin, w, args.seed, seconds, 0, args.quick, None)
            for name, m in e2e["metrics"].items():
                print(f"  {name:<44} {m['value']:>16.4f} {m['unit']:<6} bound {bounds[name]:.0%}")
            share = e2e["failed"] / e2e["attempted"]
            print(f"  {'failed_share':<44} {share:>16.4f}        any increase is a regression")
            print(f"== {w}: per layer, traced rounds and probe pass")
            spans = os.path.join(args.out, f"{w}.spans.tsv")
            layers = run_once(args.bin, w, args.seed, seconds, 1, args.quick, spans)
            for name, m in layers["metrics"].items():
                print(f"  {name:<44} {m['value']:>16.4f} {m['unit']}")
            results["runs"][w].append({"end_to_end": e2e, "per_layer": layers})
            rss = e2e["metrics"]["peak_rss_mb"]["value"]
            if not (e2e["correct"] and layers["correct"]):
                print(f"FAILED: {w}: a correctness check did not hold", file=sys.stderr)
                ok = False
            if rss > RSS_LIMIT_MB:
                print(f"FAILED: {w}: peak RSS {rss:.0f} MB is over {RSS_LIMIT_MB:.0f} MB", file=sys.stderr)
                ok = False
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results → {path}")
    sys.exit(0 if ok else 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(args):
    spec = load_spec()
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    worse = 0
    for w in (w["name"] for w in spec["workloads"]):
        if w not in a["runs"] or w not in b["runs"]:
            continue
        print(f"== {w}: A {len(a['runs'][w])} run(s), B {len(b['runs'][w])} run(s)")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["end_to_end"]["metrics"][name]["value"] for r in a["runs"][w]]
            vb = [r["end_to_end"]["metrics"][name]["value"] for r in b["runs"][w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
            change = (mb - ma) / ma if lower else (ma - mb) / ma  # > 0: B is worse
            spread = (a3 - a1) / ma
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if change > bound:
                verdict, worse = "WORSE", worse + 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "resolved"
            print(f"  {name:<20} A {ma:>12.4f} [{a1:.4f}, {a3:.4f}]  B {mb:>12.4f} "
                  f"[{b1:.4f}, {b3:.4f}]  {change:+7.1%} worse, bound {bound:.0%}: {verdict}")
        fa = sum(r["end_to_end"]["failed"] for r in a["runs"][w])
        fb = sum(r["end_to_end"]["failed"] for r in b["runs"][w])
        if fb > fa:
            print(f"  failed sessions rose from {fa} to {fb}: WORSE")
            worse += 1
        if a.get("seed") == b.get("seed") and a.get("quick") == b.get("quick"):
            la = a["runs"][w][0]["per_layer"]["metrics"]
            lb = b["runs"][w][0]["per_layer"]["metrics"]
            differ = [n for n in la if n.startswith(EXACT) and la[n]["value"] != lb[n]["value"]]
            print(f"  exact-count rows: {'agree' if not differ else 'DIFFER: ' + ', '.join(differ)}")
            worse += len(differ)
    print("no (metric, workload) is worse than its bound" if not worse
          else f"{worse} finding(s) worse than the bounds allow")
    sys.exit(0 if not worse else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--bin", required=True, help="the built fractal-benchmark binary")
    p.add_argument("--quick", action="store_true", help="smoke sizes, under 15 s in all")
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--only", metavar="WORKLOAD")
    p.add_argument("--repeat", type=int, default=1, help="runs per workload (compare then has quartiles)")
    p.add_argument("--out", default=os.path.join(HERE, "out"))
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    compare(args) if args.compare else suite(args)


if __name__ == "__main__":
    main()
