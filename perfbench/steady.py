"""Steadiness check: repeat workloads over seeds, compare spreads to bounds.

    python3 perfbench/steady.py [--seed0 0] [--save FILE] [--baseline FILE]

Runs run.py RUNS times per workload, on seeds seed0 .. seed0+RUNS-1, with
--trace 0 and the run_seconds of BENCHMARK.json.  Per end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and the metric's bound from BENCHMARK.json.  A
spread counts as steady below a third of the bound, setup_s included.
--save keeps the values; --baseline compares this set's medians with a
saved set and flags any metric worse by more than its bound (compare
sets made with the same --seed0, so that only the machine differs).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode} on {workload} "
                         f"seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    base = json.loads(Path(args.baseline).read_text()) if args.baseline else {}

    values = {}
    steady = True
    for workload in workloads:
        rows = []
        for i in range(RUNS):
            seed = args.seed0 + i
            vals, result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
            rows.append(vals)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v:.6g}" for k, v in vals.items()), flush=True)
        values[workload] = {m["name"]: [r[m["name"]] for r in rows]
                            for m in metrics}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = values[workload][name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3.0
            line = (f"  {workload:12s} {name:12s} median {med:<12.6g} "
                    f"Q1 {q1:<12.6g} Q3 {q3:<12.6g} spread {spread:7.4f} "
                    f"bound {bound:.3f} {'ok' if ok else 'TOO WIDE'}")
            if workload in base:
                old = statistics.median(base[workload][name])
                worse = (old - med) / old if m["better"] == "higher" \
                    else (med - old) / old
                ok = ok and worse <= bound
                line += f"  vs baseline {old:.6g}: worse by {worse:+.4f}"
            steady = steady and ok
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
