#!/usr/bin/env python3
"""Summarise or compare benchmark result sets.

    python3 perfbench/compare.py RESULTS            # spread of one set
    python3 perfbench/compare.py PARENT CHANGE      # parent vs change

RESULTS, PARENT and CHANGE are results.jsonl files written by
perfbench/run.py (or directories holding such files).

One set: for each workload and end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median against the metric's bound
in BENCHMARK.json.

Two sets: for each workload and metric, each side's median and quartiles
and the share of pairs the change wins. Pair i is the i-th run of the
workload on each side, so run the two sides alternately (parent first,
then change first, ...) with the same seeds. Verdicts:
  gain        the change wins >= 90% of the pairs and the medians differ
              by more than the parent's own quartile spread; withheld,
              with the reason, when the change fails more operations
              than the parent, has incorrect runs, or simulates a seed
              differently (sim_digest);
  worse      the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's spread exceeds the bound, unless every run
              of the change beats every run of the parent;
  same        otherwise.
Runs whose outputs were wrong (correct: false) enter no median. It also
lists the (workload, seed) pairs whose sim_* values differ between the
sides, and per-layer medians of traced runs side by side.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    records = []
    for name in files:
        with open(name, encoding="utf-8") as f:
            records += [json.loads(line) for line in f if line.strip()]
    return records


def runs(records, workload, trace):
    """The correct runs of a workload; a run whose outputs were wrong
    measured something else, so it never enters a median."""
    return [r for r in records if r["workload"] == workload
            and r["trace"] == trace and r["result"]["correct"]]


def incorrect(records, workload):
    return sum(1 for r in records
               if r["workload"] == workload and not r["result"]["correct"])


def failed_ops(records, workload):
    return sum(r["result"]["failed"] for r in records if r["workload"] == workload)


def sim_digests(records, workload):
    return {r["seed"]: r["sim_digest"]["digest"] for r in records
            if r["workload"] == workload and "sim_digest" in r}


def values(rs, metric):
    return [r["result"]["metrics"][metric]["value"]
            for r in rs if metric in r["result"]["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0]) if v else (0.0, 0.0)
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(v):
    q1, q3 = quartiles(v)
    med = statistics.median(v)
    return (q3 - q1) / med if med else 0.0


def better(a, b, direction):
    """+1 when a beats b, -1 when it loses, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a < b) == (direction == "lower") else -1


def fmt(x):
    return f"{x:.6g}"


def summarise(records, spec):
    print(f"{'workload':24s} {'metric':20s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in [w["name"] for w in spec["workloads"]]:
        rs = runs(records, w, 0)
        if incorrect(records, w):
            print(f"{w:24s} {incorrect(records, w)} incorrect run(s) left out")
        for m in spec["end_to_end"]:
            v = values(rs, m["name"])
            if not v:
                continue
            q1, q3 = quartiles(v)
            s = spread(v)
            flag = "" if s <= m["bound"] / 3 or m["name"] == "setup_s" else "  <- wide"
            print(f"{w:24s} {m['name']:20s} {len(v):3d} {fmt(statistics.median(v)):>12s} "
                  f"{fmt(q1):>12s} {fmt(q3):>12s} {s:8.4f} {m['bound']:6.2f}{flag}")


def compare(parent, change, spec):
    print(f"{'workload':24s} {'metric':20s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'won':>6s}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        pr, cr = runs(parent, w, 0), runs(change, w, 0)
        # A gain does not count when the change fails more operations,
        # has wrong runs, or simulates a seed differently.
        pd, cd = sim_digests(parent, w), sim_digests(change, w)
        withhold = []
        if failed_ops(change, w) > failed_ops(parent, w):
            withhold.append(f"failed {failed_ops(change, w)} > "
                            f"{failed_ops(parent, w)}")
        if incorrect(change, w):
            withhold.append(f"{incorrect(change, w)} incorrect run(s)")
        if any(pd[s] != cd[s] for s in pd.keys() & cd.keys()):
            withhold.append("sim_digest differs")
        for m in spec["end_to_end"]:
            pv, cv = values(pr, m["name"]), values(cr, m["name"])
            if not pv or not cv:
                continue
            pairs = [better(c, p, m["better"]) for p, c in zip(pv, cv)]
            won = sum(1 for x in pairs if x > 0) / len(pairs)
            pmed, cmed = statistics.median(pv), statistics.median(cv)
            pq, cq = quartiles(pv), quartiles(cv)
            worse_by = (cmed - pmed) / pmed if pmed else 0.0
            if m["better"] == "higher":
                worse_by = -worse_by
            if won >= 0.9 and abs(cmed - pmed) > pq[1] - pq[0]:
                verdict = ("gain" if not withhold else
                           "gain withheld: " + ", ".join(withhold))
            elif worse_by > m["bound"]:
                verdict = "worse"
            elif spread(pv) > m["bound"] and not all(
                    better(c, p, m["better"]) > 0 for c in cv for p in pv):
                verdict = "unresolved"
            else:
                verdict = "same"
            side = lambda med, q: f"{fmt(med)} [{fmt(q[0])}, {fmt(q[1])}]"
            print(f"{w:24s} {m['name']:20s} {side(pmed, pq):>36s} "
                  f"{side(cmed, cq):>36s} {won:6.2f}  {verdict}")

    digests = {}
    for side, records in (("parent", parent), ("change", change)):
        for r in records:
            if "sim_digest" in r:
                key = (r["workload"], r["seed"])
                digests.setdefault(key, {})[side] = r["sim_digest"]["digest"]
    both = {k: d for k, d in digests.items() if len(d) == 2}
    differ = sorted(k for k, d in both.items() if d["parent"] != d["change"])
    print(f"\nsim_* digests: {len(both) - len(differ)} of {len(both)} "
          f"(workload, seed) pairs identical")
    for w, seed in differ:
        print(f"  differs: {w} seed {seed}")

    traced = [(w["name"], runs(parent, w["name"], 1), runs(change, w["name"], 1))
              for w in spec["workloads"]]
    if any(p and c for _, p, c in traced):
        print(f"\n{'workload':24s} {'per-layer metric':30s} {'parent':>12s} "
              f"{'change':>12s} {'change':>8s}")
        for w, pr, cr in traced:
            if not pr or not cr:
                continue
            for m in spec["per_layer"]:
                pv, cv = values(pr, m["name"]), values(cr, m["name"])
                if not pv or not cv:
                    continue
                pmed, cmed = statistics.median(pv), statistics.median(cv)
                rel = f"{(cmed - pmed) / pmed * 100:+.1f}%" if pmed else "-"
                print(f"{w:24s} {m['name']:30s} {fmt(pmed):>12s} "
                      f"{fmt(cmed):>12s} {rel:>8s}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    sets = [load(p) for p in sys.argv[1:]]
    if len(sets) == 1:
        summarise(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    main()
