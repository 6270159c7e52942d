"""polardirac benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pipeline-33|verify|flowlines \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; polardirac is imported from src/ and
nothing is installed.  Every worker is a fresh python3 process with BLAS
and OpenMP threads pinned to one, started one at a time:

* SETUP_PROBES set-up-only workers, half before and half after the
  measuring worker; setup_s is the median of all their set-up times;
* the measuring worker runs a warm-up op and then ops for --seconds.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics (from a run whose
ops alternate untraced and traced).  The lines before it print every
figure by name with its unit, the op count, the output checks and the
run environment.  A full record of the run goes to .perfbench/runs/.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0

# per-workload names for the work rate, as printed in the summary
RATE_NAMES = {
    "pipeline-33": ("pipeline_sites_per_s", "sites/s"),
    "verify": ("verify_per_s", "runs/s"),
    "flowlines": ("flow_steps_per_s", "steps/s"),
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def worker(args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def high_percentile(values):
    """(q, value): the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    if n <= 10:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    return q, ordered[min(n - 1, math.ceil(q / 100.0 * n) - 1)]


def end_to_end(workload, rec, setups, ops):
    times = [op["seconds"] for op in ops]
    # work done over time spent in ops: every op counts, where a median of
    # the three to five long ops of a run would rest on one or two of them
    rate = sum(op["work"] for op in ops) / sum(times) if ops else 0.0
    metrics = {
        "work_per_s": rate,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    name, unit = RATE_NAMES[workload]
    lines = [f"{name:24s} {rate:14.6g} {unit}  (over {len(ops)} ops)"]
    if workload == "verify" and times:
        lines.append(f"{'verify_s':24s} {statistics.median(times):14.6g} s"
                     f"  (median of {len(ops)} ops)")
    hp = high_percentile(times)
    lines.append(
        f"{'op_s':24s} {statistics.median(times) if times else 0:14.6g} s"
        + (f"  p{hp[0]} {hp[1]:.6g} s" if hp else
           "  (no percentile has 10 ops beyond it)")
    )
    lines.append(f"{'setup_s':24s} {metrics['setup_s']:14.6g} s  "
                 f"(median of {len(setups)} set-ups)")
    lines.append(f"{'peak_rss_mb':24s} {metrics['peak_rss_mb']:14.6g} MB")
    return metrics, lines


def per_layer(rec, ops, names):
    layers = rec["layers"]
    funcs, mods = layers["functions"], layers["modules"]
    untraced = [op["seconds"] for op in ops if not op["traced"] and op["ok"]]
    traced = [op for op in ops if op["traced"] and op["ok"]]
    digest = traced[0]["digest"] if traced else {}
    steps = statistics.median(op["work"] for op in traced) if traced else 0
    special = {
        "trace_overhead_frac": (
            statistics.median(op["seconds"] for op in traced)
            / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0
        ),
        "trajectories.interp_calls_per_step": (
            funcs["fields.interp_values"]["calls"] / steps
            if digest.get("terminations") and steps else 0.0
        ),
        "trajectories.write_csv.bytes": digest.get("csv_bytes", 0),
    }
    for reason in ("completed", "left_domain", "singular"):
        special[f"trajectories.terminated.{reason}"] = sum(
            t == reason for t in digest.get("terminations", [])
        )
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        key, _, stat = name.rpartition(".")
        table = mods if key in mods else funcs
        if key not in table:
            raise KeyError(f"per-layer metric {name} names no module or function")
        out[name] = table[key][stat]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "polardirac" / "__init__.py").is_file():
        return fail("no src/polardirac here; run from a polardirac checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload}")
    if args.seed < 0:
        return fail("--seed must be >= 0")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    try:
        # The machine's speed shifts by up to ~40 % for seconds at a time,
        # so the probes bracket the measuring worker rather than precede it.
        def probes(n):
            return [worker(args, deadline, ["--setup-only"])["setup_s"]
                    for _ in range(n)]

        setups = probes(SETUP_PROBES // 2)
        rec = worker(args, deadline, ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)])
        setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    setups.append(rec["setup_s"])

    ops = rec["ops"]
    measured = [op for op in ops if op["ok"]]
    attempted = len(ops) + 1  # the warm-up op is checked too
    failed = sum(not op["ok"] for op in ops) + (not rec["warm"]["ok"])
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
             f"  ops {len(ops)} (+1 warm-up)"]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(rec, ops, names)
        lines += [f"{n:46s} {v:14.6g} {units[n]}" for n, v in metrics.items()]
        lines.append(f"spans: {rec['sidecar']}")
    else:
        metrics, more = end_to_end(args.workload, rec, setups, measured)
        lines += more
    with_ref = [op for op in ops if op.get("reference")]
    identical = [op["byte_identical"] for op in with_ref
                 if op["byte_identical"] is not None]
    lines += [
        f"{'failed_frac':24s} {failed / attempted:14.6g} ratio"
        f"  ({failed} of {attempted} ops failed)",
        f"checks: {len(with_ref)} of {len(ops)} ops had a stored reference"
        + (f"; byte-identical to it: {sum(identical)} of {len(identical)}"
           if identical else ""),
        f"env: threads {rec['threads']}  calibration loop "
        f"{1e3 * rec['calib_s']:.2f} ms",
    ]
    print("\n".join(lines))

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "setups": setups, "worker": rec,
              "metrics": metrics}
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
