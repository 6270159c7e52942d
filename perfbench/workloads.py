"""The three benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client: the worker starts the next
operation ("op") only after the previous one returned.  A workload object
is built once per worker (that is the set-up), then `run()` performs one op
and returns its raw result, `digest()` reduces that result to the numbers
the checks compare, and `check()` applies the invariants plus, when the
seed has one, the stored reference.

Reference comparison uses |value - reference| <= RTOL |reference| + ATOL
on every number; strings, flags and counts must match exactly.  Byte
identity of the verify report and of the flow-line CSV is counted
separately and does not fail an op.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

import polardirac as pdc
from polardirac import cli

RTOL = 1e-6
ATOL = 1e-10
HJ_TOL = 1e-10  # hj_residuals = -1/2 polar_dirac_residuals, pointwise
DRIFT_TOL = 1e-12  # max |u.u - 1| along every flow line
GRID_N = 33
BYTE_KEYS = ("sha256", "csv_bytes")  # byte identity, counted apart

REFERENCES = Path(__file__).with_name("references.json")


def _amax(a) -> float:
    return float(np.max(np.abs(a)))


def _close(value, ref) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def compare(digest, ref, path: str = "") -> list[str]:
    """Paths at which a digest departs from its reference."""
    if isinstance(ref, dict):
        if not isinstance(digest, dict) or digest.keys() != ref.keys():
            return [path or "."]
        return [
            bad
            for key in ref
            for bad in compare(digest[key], ref[key], f"{path}.{key}")
        ]
    if isinstance(ref, list):
        if not isinstance(digest, list) or len(digest) != len(ref):
            return [path]
        return [
            bad
            for i, (d, r) in enumerate(zip(digest, ref))
            for bad in compare(d, r, f"{path}[{i}]")
        ]
    if isinstance(ref, float) and isinstance(digest, (int, float)):
        return [] if _close(float(digest), ref) else [path]
    return [] if digest == ref else [path]


def _finite(tree) -> bool:
    if isinstance(tree, dict):
        return all(_finite(v) for v in tree.values())
    if isinstance(tree, list):
        return all(_finite(v) for v in tree)
    return not isinstance(tree, float) or math.isfinite(tree)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


class Pipeline:
    """pipeline-33: the full polar chain on two 33^3 fields per op.

    A static gaussian packet (seeded spin axis and width k) goes through
    save_grid at set-up and load_grid in every op, then the polar
    decomposition, connections, every residual family and the dynamics.
    A flat pure-gauge field (seeded smooth boost and rotation parameters)
    goes through the Goldstone derivatives, connections, curvatures and the
    divergence identities.  The identities run on the pure-gauge field
    because they are stated for flat, nonzero connections; on the gaussian
    divergence_constraints falsely rejects some seeds (see NOTES.md).
    """

    name = "pipeline-33"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # runs are sequential, so every seed reuses the same input files
        self.inputs = self._inputs(rng, GRID_N, workdir / "gaussian.grid")
        # the warm-up op runs the same chain on 9^3 fields
        self.warm_inputs = self._inputs(rng, 9, workdir / "gaussian-warm.grid")
        self.work = 2 * GRID_N**3

    @staticmethod
    def _inputs(rng, n: int, grid_path: Path):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        # keep clear of the decomposition's chart string at spin -e3
        axis[2] = abs(axis[2])
        k = float(rng.uniform(0.6, 1.6))
        gauss = pdc.gaussian_packet(k, s_axis=axis, dims=(1, n, n, n))
        pdc.save_grid(gauss, grid_path)

        ax = np.linspace(-1.0, 1.0, n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        params = np.zeros((1, n, n, n, 6))
        for c in range(6):
            amp = rng.uniform(0.1, 0.3)
            kx, ky, kz = rng.uniform(0.5, 1.5, 3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            params[0, ..., c] = amp * np.sin(kx * x + ky * y + kz * z + phase)
        xi = 0.4 * np.sin(x) * np.cos(z)
        h = 2.0 / (n - 1)
        gauge = pdc.transform_from_params(
            xi[None], params, (0.0, -1.0, -1.0, -1.0), (1.0, h, h, h),
            (1, n, n, n),
        )
        return grid_path, gauge

    def run(self, op_index: int):
        """One op; the warm-up (op_index < 0) runs on the 9^3 fields."""
        grid_path, gauge = self.warm_inputs if op_index < 0 else self.inputs
        return self.work, {
            "gaussian": self._gaussian(grid_path),
            "gauge": self._gauge(gauge),
        }

    @staticmethod
    def _gaussian(grid_path: Path) -> dict:
        ext = pdc.ExternalPotentials()
        g = pdc.load_grid(grid_path)
        pf = pdc.PolarFields.from_grid(g, ext)
        qp = pdc.quantum_potentials(pf)
        dep = pdc.polar_dirac_residuals(pf)
        hj = pdc.hj_residuals(pf, qp)
        gm = pdc.guidance_momentum(pf, qp)
        so = pdc.second_order_residuals(pf, qp)
        energy, newton = pdc.energy_and_newton(pf, qp)
        cov = pdc.covariant_derivative_check(g, ext)
        dirac = pdc.dirac_residual(g, ext)
        return {
            "polar_dirac": [_amax(dep.res1), _amax(dep.res2)],
            "hj": [_amax(hj.res1), _amax(hj.res2)],
            "quantum_potentials": [_amax(qp.Y), _amax(qp.Z)],
            "guidance": _amax(gm - pf.cf.P),
            "second_order": [
                _amax(so.res_general),
                _amax(so.res_standard),
                _amax(so.res_effective),
            ],
            "energy": [_amax(energy.T), _amax(energy.E)],
            "newton": _amax(newton),
            "covariant": [
                _amax(cov.spinor),
                _amax(cov.s_transport),
                _amax(cov.u_transport),
            ],
            "dirac": _amax(dirac),
            "P_sum": [float(v) for v in pf.cf.P.sum(axis=(0, 1, 2, 3))],
            "R_sum": float(pf.cf.R.sum()),
            "R_abs_sum": float(np.abs(pf.cf.R).sum()),
            # invariant, not compared with the reference beyond ATOL
            "hj_plus_half_polar": max(
                _amax(hj.res1 + 0.5 * dep.res1),
                _amax(hj.res2 + 0.5 * dep.res2),
            ),
        }

    @staticmethod
    def _gauge(lf) -> dict:
        ext = pdc.ExternalPotentials(q=lf.q)
        gd = pdc.goldstone_derivatives(lf)
        cf = pdc.build_connections(gd, ext)
        cd = pdc.curvatures(cf, q=lf.q, lfield=lf)
        dc = pdc.divergence_constraints(cf)
        return {
            "leak": _amax(gd.leak),
            "curvature": [_amax(cd.riemann), _amax(cd.F), _amax(cd.goldstone_flat)],
            "divergence": [_amax(dc.resB), _amax(dc.resR), dc.riemann_max],
            "P_sum": [float(v) for v in cf.P.sum(axis=(0, 1, 2, 3))],
            "R_sum": float(cf.R.sum()),
            "R_abs_sum": float(np.abs(cf.R).sum()),
        }

    def digest(self, raw) -> dict:
        return raw

    def reference_key(self, seed: int, op_index: int) -> str:
        return str(seed)

    def invariants(self, digest) -> list[str]:
        bad = []
        if not _finite(digest):
            bad.append("non-finite output")
        if digest["gaussian"]["hj_plus_half_polar"] > HJ_TOL:
            bad.append("hj_residuals != -1/2 polar_dirac_residuals")
        return bad


class Verify:
    """verify: one in-process `polardirac verify` with the default config.

    Op k of a run with seed n uses config seed 8 n + (k mod 8), so every
    op draws different random transforms and spinors while the reference
    set stays finite.
    """

    name = "verify"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def vseed(self, op_index: int) -> int:
        return 8 * self.seed + max(op_index, 0) % 8

    def run(self, op_index: int):
        vseed = self.vseed(op_index)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--set", f"seed={vseed}"])
        return 1, (vseed, code, out.getvalue())

    def digest(self, raw) -> dict:
        vseed, code, text = raw
        report = json.loads(text)
        return {
            "seed": vseed,
            "exit": code,
            "passed": report["passed"],
            "checks": [
                [suite["name"], c["name"], c["passed"], c["residual"]]
                for suite in report["suites"]
                for c in suite["checks"]
            ],
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    def reference_key(self, seed: int, op_index: int) -> str:
        return str(self.vseed(op_index))

    def invariants(self, digest) -> list[str]:
        bad = []
        if digest["exit"] != 0 or not digest["passed"]:
            bad.append(f"verify exited {digest['exit']}")
        if not _finite(digest["checks"]):
            bad.append("non-finite residual")
        return bad


class Flowlines:
    """flowlines: one in-process `polardirac trajectories` per op.

    The config (written at set-up) holds a superposition of four on-shell
    plane waves with mixed spins and complex coefficients on an
    (11, 17, 17, 17) grid over t in [0, 1], x, y, z in [-1, 1], and 32 start
    points drawn in the box +-0.9, integrated over t 0 -> 0.5 with dt 0.01
    into one combined CSV.  The op includes the config load and the CSV
    write.
    """

    name = "flowlines"
    POINTS = 32
    WARM_POINTS = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        components = []
        for i in range(4):
            p = rng.uniform(-0.8, 0.8, 3)
            energy = float(np.sqrt(1.0 + p @ p))
            components.append({
                "momentum": [energy] + [float(v) for v in p],
                "spin_up": i % 2 == 0,
                "coeff": [float(v) for v in rng.normal(size=2)],
            })
        points = rng.uniform(-0.9, 0.9, (self.POINTS, 3))
        self.csv_path = workdir / "flow.csv"
        self.config_path = self._write_config(
            workdir / "flow.yaml", components, points, self.csv_path
        )
        self.warm_csv_path = workdir / "flow-warm.csv"
        self.warm_config_path = self._write_config(
            workdir / "flow-warm.yaml", components,
            points[: self.WARM_POINTS], self.warm_csv_path,
        )

    @staticmethod
    def _write_config(path: Path, components, points, csv_path: Path) -> Path:
        cfg = {
            "field": {"kind": "superposition", "mass": 1.0,
                      "components": components},
            "grid": {
                "origin": [0.0, -1.0, -1.0, -1.0],
                "spacing": [0.1, 0.125, 0.125, 0.125],
                "dims": [11, 17, 17, 17],
            },
            "trajectories": {
                "points": [[float(v) for v in pt] for pt in points],
                "t0": 0.0,
                "t1": 0.5,
                "dt": 0.01,
            },
            "output": {"csv": str(csv_path), "combined": True},
        }
        path.write_text(yaml.safe_dump(cfg))
        return path

    def run(self, op_index: int):
        """One op; the warm-up (op_index < 0) runs the first few points."""
        config, csv_path = (
            (self.warm_config_path, self.warm_csv_path)
            if op_index < 0 else (self.config_path, self.csv_path)
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["trajectories", str(config)])
        summary = json.loads(out.getvalue())
        steps = sum(t["samples"] - 1 for t in summary["trajectories"])
        return steps, (code, summary, csv_path.read_bytes())

    def digest(self, raw) -> dict:
        code, summary, blob = raw
        rows = list(csv.reader(io.StringIO(blob.decode())))
        body = [[float(v) for v in row] for row in rows[1:]]
        last = {}
        for row in body:
            last[int(row[0])] = row[1:]
        trajs = summary["trajectories"]
        return {
            "exit": code,
            "terminations": [t["termination"] for t in trajs],
            "samples": [t["samples"] for t in trajs],
            "drift": [t["normalization_drift"] for t in trajs],
            "csv_rows": len(body),
            "csv_last_rows": [last.get(i, []) for i in range(len(trajs))],
            "csv_column_sums": [float(v) for v in np.sum(body, axis=0)[1:]],
            "csv_bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }

    def reference_key(self, seed: int, op_index: int) -> str:
        return str(seed)

    def invariants(self, digest) -> list[str]:
        bad = []
        if digest["exit"] != 0:
            bad.append(f"trajectories exited {digest['exit']}")
        if max(digest["drift"]) > DRIFT_TOL:
            bad.append("normalization drift above 1e-12")
        if digest["csv_rows"] != sum(digest["samples"]):
            bad.append("CSV rows do not match the recorded samples")
        if not _finite(digest):
            bad.append("non-finite output")
        return bad


WORKLOADS = {w.name: w for w in (Pipeline, Verify, Flowlines)}


def check(workload, digest, reference) -> dict:
    """Invariants for any seed; the reference, when the seed has one.

    `byte_identical` is None without a reference, else whether the
    report or CSV bytes match the reference exactly.
    """
    problems = workload.invariants(digest)
    identical = None
    if reference is not None:
        if "sha256" in reference:
            identical = digest["sha256"] == reference["sha256"]
        mine, ref = (
            {k: v for k, v in d.items() if k not in BYTE_KEYS}
            for d in (digest, reference)
        )
        problems += [f"differs from reference at {p}" for p in compare(mine, ref)]
    return {"ok": not problems, "problems": problems, "byte_identical": identical}
