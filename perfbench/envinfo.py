"""Record the machine and the thread setting the benchmark runs with.

    python3 perfbench/envinfo.py        # rewrites perfbench/environment.json

Writes the CPU count and model, the Python, numpy, scipy and PyYAML
versions, the BLAS/OpenMP thread pin the workers apply, and the measured
reason for that pin: the time of one 4x4 scipy.linalg.expm call (the
kernel behind clifford.exp_lorentz) right after an idle gap and right
after another call, under the default thread setting and under the pin.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

OUT = Path(__file__).with_name("environment.json")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}

PROBE = r"""
import json, statistics, time
import numpy as np
from scipy.linalg import expm
a = np.random.default_rng(0).normal(size=(4, 4))
expm(a)
idle, busy = [], []
for _ in range(15):
    time.sleep(0.3)
    t = time.perf_counter(); expm(a); idle.append(time.perf_counter() - t)
    t = time.perf_counter(); expm(a); busy.append(time.perf_counter() - t)
print(json.dumps({"after_idle_ms": 1e3 * statistics.median(idle),
                  "back_to_back_ms": 1e3 * statistics.median(busy)}))
"""

CALIBRATE = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
from worker import calibrate
print(calibrate())
"""


def expm_probe(env) -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, text=True,
                         stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    import numpy
    import scipy
    import yaml

    default_env = {k: v for k, v in os.environ.items() if k not in PIN}
    pinned_env = {**default_env, **PIN}
    doc = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "worker_threads": PIN,
        "why_pinned": (
            "under the default OpenBLAS threads a 4x4 expm (clifford."
            "exp_lorentz) is dominated by thread hand-off (compare the two "
            "probes below); timings would measure that, not the program"
        ),
        "expm_4x4_default_threads": expm_probe(default_env),
        "expm_4x4_pinned": expm_probe(pinned_env),
        "calibration_loop_s": statistics.median(
            float(subprocess.run(
                [sys.executable, "-c", CALIBRATE, str(OUT.parent)],
                env=pinned_env, text=True, stdout=subprocess.PIPE,
                check=True,
            ).stdout)
            for _ in range(3)
        ),
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
