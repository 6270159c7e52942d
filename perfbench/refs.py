"""Regenerate perfbench/references.json: the outputs the checks compare to.

    python3 perfbench/refs.py

Runs one op of every workload for each default seed and for the held-out
seed (for verify: the eight config seeds each of those run seeds uses) and
stores the digests.  Also records the known false rejection of the
divergence identities on the pipeline's gaussian field.  Regenerate only
when an output change is intended; a speed-up must leave these unchanged.
"""

import json
import sys

# the worker's preamble: BLAS threads pinned, src/ first on the path
from worker import WORKDIR

import polardirac as pdc
from polardirac.errors import PreconditionViolated

import workloads as wl

DEFAULT_SEEDS = list(range(10))
HELD_OUT_SEED = 1000


def digests(cls, seed: int) -> dict:
    w = cls(seed, WORKDIR)
    indices = range(8) if cls is wl.Verify else range(1)
    out = {}
    for k in indices:
        _, raw = w.run(k)
        digest = w.digest(raw)
        bad = w.invariants(digest)
        if bad:
            raise SystemExit(f"{cls.name} seed {seed} op {k}: {bad}")
        out[w.reference_key(seed, k)] = digest
    return out


def gaussian_defect(seed: int) -> str:
    """divergence_constraints on the pipeline's gaussian connections."""
    grid_path, _ = wl.Pipeline(seed, WORKDIR).inputs
    pf = pdc.PolarFields.from_grid(pdc.load_grid(grid_path))
    try:
        pdc.divergence_constraints(pf.cf)
    except PreconditionViolated as exc:
        return str(exc)
    return "accepted"


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    seeds = DEFAULT_SEEDS + [HELD_OUT_SEED]
    doc = {
        "default_seeds": DEFAULT_SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "tolerance": {"rtol": wl.RTOL, "atol": wl.ATOL},
    }
    for cls in wl.WORKLOADS.values():
        doc[cls.name] = {}
        for seed in seeds:
            doc[cls.name].update(digests(cls, seed))
            print(f"{cls.name} seed {seed} done", file=sys.stderr)
    doc["known_defects"] = {
        "divergence_constraints_on_gaussian": {
            str(seed): gaussian_defect(seed) for seed in seeds
        }
    }
    wl.REFERENCES.write_text(dumps(doc))
    return 0


def dumps(doc: dict) -> str:
    """JSON with one line per seed, so a changed output shows as one line."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict) and key in wl.WORKLOADS:
            inner = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                     for k, v in value.items()]
            lines.append(f" {json.dumps(key)}: {{\n" + ",\n".join(inner) + "\n }")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
