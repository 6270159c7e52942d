"""One benchmark worker process: set up one workload, then run its ops.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

BLAS and OpenMP threads are pinned to one before numpy is imported: with
the default two OpenBLAS threads one 4x4 scipy expm call (the kernel of
clifford.exp_lorentz) takes about 8 ms against 0.05-0.3 ms pinned (see
environment.json), so timings would measure the thread hand-off rather
than the program.

Set-up time runs from the first line of this file until the workload's
inputs exist (importing polardirac included).  A warm-up op follows and
is not measured.  Ops then run back to back until `--seconds` have
passed and at least MIN_OPS ops are done.  With `--trace 1` the ops
alternate untraced / traced; the traced ones run with the recorder
installed and give the per-layer figures and the tracing overhead.  The last stdout line is a JSON record for run.py.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("POLARDIRAC_CONFIG_DIR", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polardirac  # noqa: E402

from workloads import WORKLOADS, check, load_references  # noqa: E402

MIN_OPS = 3  # a run's medians rest on at least this many ops
WORKDIR = ROOT / ".perfbench" / "work"
TRACEDIR = ROOT / ".perfbench" / "trace"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: context for drift, not a divisor."""
    best = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        best.append(time.perf_counter() - t)
    return sorted(best)[1]


def run_ops(workload, seed, seconds, trace, refs):
    recorder = None
    if trace:
        from tracer import Recorder

        recorder = Recorder()
    records = []
    traced_ops = []

    def one(op_index, traced):
        ref = None
        if op_index >= 0:
            ref = refs.get(workload.reference_key(seed, op_index))
        if traced:
            recorder.install(op_index)
        try:
            try:
                start, cpu = time.perf_counter(), time.process_time()
                work, raw = workload.run(op_index)
                elapsed = time.perf_counter() - start
                cpu = time.process_time() - cpu
            finally:
                if traced:
                    recorder.uninstall()
            digest = workload.digest(raw)
            result = check(workload, digest, ref)
        except Exception:  # an op that raises counts as failed; keep going
            traceback.print_exc()
            return {"op": op_index, "ok": False, "problems": ["raised"],
                    "traced": traced}
        if not result["ok"]:
            print(f"op {op_index} failed its checks: {result['problems']}",
                  file=sys.stderr)
        return {"op": op_index, "seconds": elapsed, "cpu_s": cpu, "work": work,
                "traced": traced, "reference": ref is not None,
                "digest": digest, **result}

    warm = one(-1, False)
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        records.append(one(k, traced))
        if traced:
            traced_ops.append(k)
        k += 1
        if time.perf_counter() - start >= seconds and k >= MIN_OPS:
            break
    sidecar = None
    if trace:
        TRACEDIR.mkdir(parents=True, exist_ok=True)
        sidecar = TRACEDIR / f"{workload.name}-seed{seed}.json"
        doc = recorder.sidecar(traced_ops)
        doc.update(workload=workload.name, seed=seed)
        sidecar.write_text(json.dumps(doc))
        layers = recorder.summary(traced_ops)
    else:
        layers = None
    return warm, records, layers, sidecar


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if Path(polardirac.__file__).resolve().parent != ROOT / "src" / "polardirac":
        print(f"imported polardirac from {polardirac.__file__}, not src/",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    calib_s = calibrate()
    refs = load_references().get(args.workload, {})
    warm, records, layers, sidecar = run_ops(
        workload, args.seed, args.seconds, bool(args.trace), refs
    )
    print(json.dumps({
        "setup_s": setup_s,
        "calib_s": calib_s,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warm": {k: warm.get(k) for k in ("ok", "problems", "seconds")},
        "ops": records,
        "layers": layers,
        "sidecar": str(sidecar.relative_to(ROOT)) if sidecar else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
