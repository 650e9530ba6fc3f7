#!/usr/bin/env python3
"""Collect and compare sets of benchmark runs.

    # run every workload once per seed, appending one JSON record per run
    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-10 [--workloads paper6,grid16] [--trace 0|1]
    # run-to-run spread of one set: median, quartiles, (q3-q1)/median per metric
    python3 perfbench/compare.py spread runs.jsonl
    # two sets (parent, change): each side's median and quartiles per metric
    python3 perfbench/compare.py compare parent.jsonl change.jsonl

A record is {"workload", "seed", "trace", "result"}, where "result" is the
JSON line perfbench/run.py prints. `compare` marks each end-to-end metric
"agree" when the medians differ by no more than the metric's bound in
BENCHMARK.json, "worse"/"better" when they differ by more, and "unresolved"
when either side's run-to-run spread is wider than the bound. Per-layer
metrics have no bound and are listed for reading only. When a set holds
both untraced and traced runs of a workload, `spread` also prints the
tracing overhead: trace.op_p50_ms against op_p50_ms.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{w} seed {seed}: run failed ({proc.returncode})", file=sys.stderr)
                    continue
                rec = {"workload": w, "seed": seed, "trace": args.trace, "result": json.loads(lines[-1])}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                r = rec["result"]
                print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']}", file=sys.stderr)


def load_runs(path):
    """{(workload, trace): {metric: [values]}} plus failure totals."""
    runs, failures = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            res = rec["result"]
            att, fail = failures.get(key, (0, 0))
            failures[key] = (att + res["attempted"], fail + res["failed"] + (0 if res["correct"] else 1))
            for name, m in res["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return runs, failures


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
    return med, q1, q3, spread


def fmt(v):
    return f"{v:.6g}"


def spread(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, failures = load_runs(args.runs)
    worst_ok = True
    for (w, trace), metrics in sorted(runs.items()):
        att, fail = failures[(w, trace)]
        n = len(next(iter(metrics.values())))
        print(f"== {w} (trace {trace}, {n} runs, {fail} failed of {att} attempted)")
        for name, values in sorted(metrics.items()):
            med, q1, q3, s = summary(values)
            note = ""
            if name in bounds:
                limit = bounds[name] / 3
                ok = name == "setup_s" or s < limit
                worst_ok &= ok
                note = f"  bound {bounds[name]}  spread {'<' if s < limit else '>='} bound/3" + ("" if ok else "  WIDE")
            print(f"  {name:34s} median {fmt(med):>12s}  q1 {fmt(q1):>12s}  q3 {fmt(q3):>12s}  "
                  f"spread {s:.4f}{note}")
        if trace == 1 and (w, 0) in runs and "op_p50_ms" in runs[(w, 0)]:
            untraced = statistics.median(runs[(w, 0)]["op_p50_ms"])
            traced = statistics.median(metrics["trace.op_p50_ms"])
            print(f"  tracing overhead: op_p50_ms {fmt(untraced)} untraced, {fmt(traced)} traced "
                  f"({(traced / untraced - 1) * 100:+.2f}%)")
    return 0 if worst_ok else 1


def compare(args):
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, _ = load_runs(args.parent)
    head, _ = load_runs(args.change)
    for key in sorted(set(base) & set(head)):
        w, trace = key
        print(f"== {w} (trace {trace})")
        for name in sorted(set(base[key]) & set(head[key])):
            mb, q1b, q3b, sb = summary(base[key][name])
            mh, q1h, q3h, sh = summary(head[key][name])
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                # Positive = the change is worse, as a share of the parent's median.
                worse = (mh - mb) / mb if better[name] == "lower" else (mb - mh) / mb
                if max(sb, sh) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = f"worse by {worse * 100:.1f}%"
                elif -worse > bound:
                    verdict = f"better by {-worse * 100:.1f}%"
                else:
                    verdict = f"agree ({worse * 100:+.1f}% worse, bound {bound * 100:.0f}%)"
            print(f"  {name:34s} parent {fmt(mb)} [{fmt(q1b)}, {fmt(q3b)}]  "
                  f"change {fmt(mh)} [{fmt(q1h)}, {fmt(q3h)}]  {verdict}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    d = sub.add_parser("compare")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return spread(args) if args.cmd == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
