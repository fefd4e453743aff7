#!/usr/bin/env python3
"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/sweep.py --seeds 10
    python3 perfbench/sweep.py --workloads campaign --seeds 5
    python3 perfbench/sweep.py --seeds 10 --record "label of this entry"

For every workload and end-to-end metric this prints the median over the
seeds and the spread, (Q3 - Q1) / median with Python's
statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged (setup_s
is exempt).  --record appends the medians, with the machine's core count,
OCaml version and commit, as one line of perfbench/history.jsonl.
"""

import argparse
import datetime
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", metavar="LABEL",
                    help="append the medians to perfbench/history.jsonl")
    a = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    if not run.build():
        return 2
    seconds = str(spec["run_seconds"])
    summary, flagged, machine = {}, [], {}
    for w in names:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            code, out = run.run_bench(["--workload", w, "--seed", str(seed),
                                       "--seconds", seconds, "--trace", "0"],
                                      capture=True)
            lines = (out or "").strip().splitlines()
            if code != 0 or not lines:
                run.log(f"sweep: {w} seed {seed}: exit {code}")
                return 1
            machine = json.loads(lines[-2])["detail"]["machine"]
            for k, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        summary[w] = {}
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            s = spread(vs)
            summary[w][m["name"]] = {"median": statistics.median(vs),
                                     "spread": s, "unit": m["unit"]}
            bad = m["name"] != "setup_s" and s > m["bound"] / 3
            if bad:
                flagged.append(f"{w}/{m['name']}")
            print(f"{w:9} {m['name']:26} {statistics.median(vs):14.6g} "
                  f"{m['unit']:6} spread {s:7.4f}  bound {m['bound']:5.3f}"
                  f"{'  <-- above bound/3' if bad else ''}", flush=True)
    print("flagged: " + (", ".join(flagged) if flagged else "none"))
    if a.record:
        entry = {
            "label": a.record,
            "date": datetime.date.today().isoformat(),
            "machine": machine,
            "seeds": a.seeds,
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }
        with open(os.path.join(HERE, "history.jsonl"), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
