"""Command-line entry point.

Subcommands:

* verify       — run the invariant suites against a field/grid catalog and
                 emit a structured pass/fail report;
* decompose    — print the polar variables of a literal spinor;
* trajectories — integrate flow lines from configured initial points and
                 write CSV files plus a summary document;
* report       — re-render a stored report as a plain-text table.

Configuration is a single YAML file; every key has a built-in default, so
all subcommands also run bare.  Repeated `--set key.path=value` flags
override individual entries.  The POLARDIRAC_CONFIG_DIR environment
variable names a directory whose polardirac.yaml is picked up when no
config path is given.  Exit codes: 0 all checks pass, 1 a suite or data
check failed, 2 configuration problem.

Reports are JSON with sorted keys and no timestamps, so identical
config + seed reruns produce byte-identical output.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from .bilinears import compute_bilinears, fierz_residuals
from .clifford import (
    BASIS,
    METRIC,
    exp_lorentz,
    goldstone_matrices,
    induced_vector,
    minkowski_dot,
)
from .connections import (
    ConnectionField,
    ExternalPotentials,
    build_connections,
    curvatures,
    divergence_constraints,
    goldstone_derivatives,
    irreducible_split,
    polar_pipeline,
    reassemble_split,
    transform_from_params,
)
from .dynamics import (
    PolarFields,
    dirac_residual,
    guidance_momentum,
    hj_residuals,
    polar_dirac_residuals,
    quantum_potentials,
)
from .errors import ConfigError, PolarDiracError
from .fields import convergence_order, plane_wave, sample, superpose
from .polar import decompose, reconstruct
from .trajectories import (
    LatticeCurrent,
    continuity_residual,
    integrate_many,
    write_csv,
)

CONFIG_ENV = "POLARDIRAC_CONFIG_DIR"
CONFIG_NAME = "polardirac.yaml"
SUITES = (
    "algebraic",
    "roundtrip",
    "equivalence",
    "curvature",
    "constraints",
    "continuity",
)

_BOOSTED_E = float(np.hypot(1.0, 0.5))

# the defaults are also the schema: _conform types each entry of a config
# by its default
DEFAULTS = {
    "seed": 0,
    "field": {
        "kind": "superposition",
        "mass": 1.0,
        "momentum": [1.0, 0.0, 0.0, 0.0],
        "spin_up": True,
        "components": [
            {"momentum": [1.0, 0.0, 0.0, 0.0], "spin_up": True,
             "coeff": [1.0, 0.0]},
            {"momentum": [_BOOSTED_E, 0.0, 0.0, 0.5], "spin_up": True,
             "coeff": [0.7, 0.0]},
        ],
    },
    "grid": {
        "origin": [0.0, 0.0, 0.0, 0.0],
        "spacing": [0.2, 1.0, 1.0, 0.2],
        "dims": [9, 1, 1, 9],
    },
    "couplings": {"q": 1.0, "m": 1.0},
    "tolerances": {
        "algebraic": 1e-10,
        "roundtrip": 1e-9,
        "equivalence": 1e-10,
        "curvature": 1e-10,
        "constraints": 1e-12,
        "continuity": 1e-12,
        "order_band": 0.2,
    },
    "counts": {"transforms": 100, "spinors": 200},
    "suites": list(SUITES),
    "output": {"report": None, "csv": "trajectories.csv", "combined": False},
    "trajectories": {
        "points": [[0.0, 0.0, 0.8]],
        "t0": 0.0,
        "t1": 1.0,
        "dt": 0.001,
    },
    "decompose": {"spinor": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]},
}

# a float in the YAML 1.2 core schema: the exponent form 1e-8, which YAML 1.1
# reads as a string, too
_FLOAT_TEXT = re.compile(
    r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?"
)
# libyaml's parser when PyYAML was built with it: the same documents, parsed
# in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_NUMBER = (int, float)  # matched by exact type, so a bool is no number


def _conform(value, default, where: str = ""):
    """value checked against default, the schema it is read by, and
    returned with the types of its default: wherever a float is expected,
    a number or the text of a float, such as 1e-8, is read as that float.

    A mapping takes only its default's keys.  A float default takes any
    finite number, None takes a string or None, and every other leaf the
    type of its default.  A list of numbers is a vector with its default's
    length; any other list takes any number of entries, each checked like
    the default's first.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"'{where}' must be a mapping")
        for key in value:
            here = f"{where}.{key}" if where else str(key)
            if key not in default:
                raise ConfigError(f"unknown config key '{here}'")
            value[key] = _conform(value[key], default[key], here)
        return value
    if isinstance(default, list):
        if all(type(d) in _NUMBER for d in default):
            if not isinstance(value, list) or len(value) != len(default):
                raise ConfigError(
                    f"'{where}' must have {len(default)} entries"
                )
            try:
                return [_conform(v, d, where) for v, d in zip(value, default)]
            except ConfigError:
                wanted = {float: "finite numbers", int: "integers"}
                raise ConfigError(
                    f"'{where}' entries must be {wanted[type(default[0])]}"
                ) from None
        if isinstance(value, list):
            return [
                _conform(v, default[0], f"{where}[{i}]")
                for i, v in enumerate(value)
            ]
        kinds = (list,)
    elif isinstance(default, float):
        if isinstance(value, str) and _FLOAT_TEXT.fullmatch(value):
            value = float(value)
        if type(value) in _NUMBER:
            # false for NaN, for +-inf and for an int beyond a float's range
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(f"'{where}' must be finite, got {value}")
            return float(value)
        kinds = _NUMBER
    else:
        kinds = (str, type(None)) if default is None else (type(default),)
    if type(value) not in kinds:
        raise ConfigError(
            f"'{where}' has type {type(value).__name__}, expected "
            + ("number" if kinds is _NUMBER else kinds[0].__name__)
        )
    return value


def _merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _set_path(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def load_config(path: str | None, overrides=()) -> dict:
    """Defaults, then the YAML file (explicit path or the env-dir one),
    then --set overrides; checked against DEFAULTS, then by value."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is None:
        env_dir = os.environ.get(CONFIG_ENV)
        if env_dir:
            candidate = Path(env_dir) / CONFIG_NAME
            if candidate.exists():
                path = str(candidate)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _merge(cfg, data)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = yaml.load(raw, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse --set value {raw!r}: {exc}") from exc
        _set_path(cfg, key.strip(), value)
    _conform(cfg, DEFAULTS)
    _check_semantics(cfg)
    return cfg


def _check_semantics(cfg: dict) -> None:
    """The rules on the values of a config that _conform has typed."""
    if cfg["seed"] < 0:
        raise ConfigError("'seed' must not be negative")
    if any(h <= 0 for h in cfg["grid"]["spacing"]):
        raise ConfigError("'grid.spacing' entries must be positive")
    if any(d != 1 and d < 5 for d in cfg["grid"]["dims"]):
        raise ConfigError("'grid.dims' entries must be 1 or integers >= 5")
    if cfg["couplings"]["q"] == 0:
        raise ConfigError("'couplings.q' must be nonzero")
    if cfg["couplings"]["m"] <= 0:
        raise ConfigError("'couplings.m' must be positive")
    if cfg["counts"]["transforms"] < 0:
        raise ConfigError("'counts.transforms' must not be negative")
    if cfg["counts"]["spinors"] < 1:
        raise ConfigError("'counts.spinors' must be at least 1")
    for name in cfg["suites"]:
        if name not in SUITES:
            raise ConfigError(
                f"unknown suite '{name}'; choose from {', '.join(SUITES)}"
            )
    tcfg = cfg["trajectories"]
    if tcfg["dt"] <= 0:
        raise ConfigError("'trajectories.dt' must be positive")
    if tcfg["t1"] < tcfg["t0"]:
        raise ConfigError("'trajectories.t1' must not precede 't0'")
    kind = cfg["field"]["kind"]
    if kind not in ("plane_wave", "superposition"):
        raise ConfigError(f"unknown field kind '{kind}'")


def build_field(cfg: dict):
    """AnalyticField described by the config, with off-shell data reported
    as a configuration problem.  A plane wave is the one-component
    superposition of the field entry itself."""
    fcfg = cfg["field"]
    mass = fcfg["mass"]
    if fcfg["kind"] == "plane_wave":
        parts = {"field": fcfg}
    else:
        parts = {
            f"field.components[{i}]": comp
            for i, comp in enumerate(fcfg["components"])
        }
        if not parts:
            raise ConfigError("'field.components' must not be empty")
    waves, coeffs = [], []
    for where, comp in parts.items():
        if "momentum" not in comp:
            raise ConfigError(f"'{where}' is missing 'momentum'")
        try:
            waves.append(plane_wave(
                np.asarray(comp["momentum"], dtype=float),
                spin_up=comp.get("spin_up", True), m=mass,
            ))
        except PolarDiracError as exc:
            raise ConfigError(f"field spec rejected: {exc}") from exc
        coeffs.append(complex(*comp.get("coeff", (1.0, 0.0))))
    return superpose(waves, coeffs)


def grid_spec(cfg: dict):
    g = cfg["grid"]
    return tuple(g["origin"]), tuple(g["spacing"]), tuple(g["dims"])


def _refined(origin, spacing, dims):
    """Same physical box with doubled resolution on every active axis."""
    spacing2 = tuple(
        h / 2.0 if d > 1 else h for h, d in zip(spacing, dims)
    )
    dims2 = tuple(2 * d - 1 if d > 1 else 1 for d in dims)
    return origin, spacing2, dims2


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _refinement_checks(coarse, fine, prefix: str, band: float) -> list:
    """Second-order checks of residual grids under grid halving.

    coarse and fine are {key: residual grid} of a level and its refinement,
    whole or a window of it: convergence_order reads which from the two
    shapes.  One check per key, named prefix + key + "_order", in the
    order the keys come; its residual is |order - 2|, and 0.0 where the
    residual vanishes identically (order None), with nothing left to
    converge.
    """
    checks = []
    for key in coarse:
        order = convergence_order(coarse[key], fine[key])[0]
        deviation = 0.0 if order is None else abs(order - 2.0)
        checks.append(_check(f"{prefix}{key}_order", deviation, band))
    return checks


def _random_spinors(rng, n: int) -> np.ndarray:
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    mod = np.sum(np.abs(psi) ** 2, axis=-1)
    # keep the draws comfortably away from the singular set
    psi[mod < 1e-2] += 1.0
    return psi


def suite_algebraic(cfg: dict, rng) -> list:
    tol = cfg["tolerances"]["algebraic"]
    n = cfg["counts"]["transforms"]
    g = BASIS.gamma
    checks = []

    anti = np.einsum("aij,bjk->abik", g, g) + np.einsum(
        "bij,ajk->abik", g, g
    )
    expect = 2.0 * METRIC[:, :, None, None] * np.eye(4)
    checks.append(_check("clifford_algebra", np.max(np.abs(anti - expect)), tol))

    eta_diag = np.diag(METRIC)
    sig_low = (
        BASIS.sigma
        * eta_diag[:, None, None, None]
        * eta_diag[None, :, None, None]
    )
    dual = np.einsum(
        "abcd,ij,cdjk->abik", BASIS.epsilon, BASIS.pi, BASIS.sigma
    )
    checks.append(
        _check("sigma_duality", np.max(np.abs(2j * sig_low - dual)), tol)
    )

    st = exp_lorentz(0.7 * rng.uniform(-1.0, 1.0, (n, 6)))
    lam, v = st.lorentz, st.vector
    metric = np.swapaxes(v, -1, -2) @ METRIC @ v - METRIC
    sandwich = np.einsum("nij,ajk,nkl->nail", np.linalg.inv(lam), g, lam)
    vec = sandwich - np.einsum("nab,bij->naij", v, g)
    hom = induced_vector(lam[:-1] @ lam[1:]) - v[:-1] @ v[1:]
    for name, res in (
        ("metric_preservation", metric),
        ("vector_transform", vec),
        ("homomorphism", hom),
    ):
        checks.append(_check(name, np.max(np.abs(res), initial=0.0), tol))

    psi = _random_spinors(rng, cfg["counts"]["spinors"])
    fr = fierz_residuals(compute_bilinears(psi))
    worst = max(
        float(np.max(np.abs(fr.r1_norm))),
        float(np.max(np.abs(fr.r2_norm))),
        float(np.max(np.abs(fr.r3_norm))),
    )
    checks.append(_check("fierz_identities", worst, tol))
    return checks


def suite_roundtrip(cfg: dict, rng) -> list:
    tol = cfg["tolerances"]["roundtrip"]
    q = cfg["couplings"]["q"]
    n = cfg["counts"]["spinors"]
    checks = []

    psi = _random_spinors(rng, n)
    pd = decompose(psi, q=q)
    back = reconstruct(pd)
    checks.append(
        _check("reconstruct", np.max(np.abs(back - psi)), tol)
    )

    bil = compute_bilinears(psi)
    two_phi2 = 2.0 * pd.phi**2
    worst = max(
        float(np.max(np.abs(bil.U - two_phi2[..., None] * pd.u))),
        float(np.max(np.abs(bil.S - two_phi2[..., None] * pd.s))),
        float(np.max(np.abs(bil.phi_scalar - two_phi2 * np.cos(pd.beta)))),
        float(np.max(np.abs(bil.theta - two_phi2 * np.sin(pd.beta)))),
    )
    checks.append(_check("bilinear_consistency", worst, tol))

    st = exp_lorentz(0.6 * rng.uniform(-1.0, 1.0, (20, 6)))
    pd2 = decompose(psi @ np.swapaxes(st.matrix, -1, -2), q=q)
    vt = np.swapaxes(st.vector, -1, -2)
    worst = max(
        float(np.max(np.abs(pd2.u - pd.u @ vt))),
        float(np.max(np.abs(pd2.s - pd.s @ vt))),
        float(np.max(np.abs(pd2.phi - pd.phi))),
        float(np.max(np.abs(pd2.beta - pd.beta))),
    )
    checks.append(_check("covariance", worst, tol))
    return checks


def _wave_grid(m: float, chi: float, n: int, extent: float = 0.8):
    p = m * np.array([np.cosh(chi), 0.0, 0.0, np.sinh(chi)])
    f = plane_wave(p, m=m)
    h = extent / (n - 1)
    if chi == 0.0:
        dims, spacing = (n, 1, 1, 1), (h, 1.0, 1.0, 1.0)
    else:
        dims, spacing = (n, 1, 1, n), (h, 1.0, 1.0, h)
    return sample(f, (0.0, 0.0, 0.0, 0.0), spacing, dims)


def _random_polar_fields(rng, ext: ExternalPotentials, dims=(1, 5, 5, 5)):
    """Synthetic smooth polar data with hand-set connections: exercises
    the algebraic content of the residual builders without any FD."""
    shape = tuple(dims)
    phi = rng.uniform(0.6, 1.6, shape)
    beta = rng.uniform(-1.2, 1.2, shape)
    params = 0.8 * rng.uniform(-1.0, 1.0, shape + (6,))
    _, v = goldstone_matrices(params)
    u = v[..., :, 0]
    s = v[..., :, 3]
    p = rng.uniform(-1.0, 1.0, shape + (4,))
    r = rng.uniform(-1.0, 1.0, shape + (4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    cf = ConnectionField(P=p, R=r, origin=np.zeros(4), spacing=np.ones(4))
    return PolarFields(phi=phi, beta=beta, u=u, s=s, cf=cf, ext=ext)


def suite_equivalence(cfg: dict, rng) -> list:
    tol = cfg["tolerances"]["equivalence"]
    band = cfg["tolerances"]["order_band"]
    q = cfg["couplings"]["q"]
    m = cfg["couplings"]["m"]
    checks = []

    ext_rand = ExternalPotentials(
        W=rng.uniform(-0.5, 0.5, (1, 5, 5, 5, 4)),
        q=q,
        X=0.7,
        m=m,
    )
    pf = _random_polar_fields(rng, ext_rand)
    dep = polar_dirac_residuals(pf)
    hj = hj_residuals(pf, quantum_potentials(pf))
    worst = max(
        float(np.max(np.abs(hj.res1 + 0.5 * dep.res1))),
        float(np.max(np.abs(hj.res2 + 0.5 * dep.res2))),
    )
    checks.append(_check("hj_dep_identity", worst, tol))

    ext = ExternalPotentials(q=q, m=m)
    for label, chi in (("rest", 0.0), ("boosted", 0.4)):
        def evaluate(n):
            g = _wave_grid(m, chi, n)
            pf = PolarFields.from_grid(g, ext)
            qp = quantum_potentials(pf)
            dep = polar_dirac_residuals(pf)
            return {
                "dirac": dirac_residual(g, ext),
                "pair": np.abs(dep.res1) + np.abs(dep.res2),
                "guidance": np.abs(guidance_momentum(pf, qp) - pf.cf.P),
            }

        checks += _refinement_checks(
            evaluate(9), evaluate(17), f"{label}_", band
        )
    return checks


# Sites of the 17-site pure-gauge level left out at each end of every
# spatial axis.  convergence_order reads its sites 4 ... 12; every residual
# of the curvature and constraints suites chains at most two central
# stencils (L -> X -> dX, X -> R or P -> their derivatives, X -> R -> B and
# R vectors -> div), so sites 2 ... 14 keep the read sites' whole-grid
# bits.  (Those curls and divergences never difference a component along
# its own axis, so one site of halo keeps them today.)  The 9-site level
# reads sites 2 ... 6 plus that halo: its whole grid.
_FINE_TRIM = 2


def _gauge_params_grid(n: int, boost: bool, trim: int = 0):
    """Pure-gauge transform field over a static spatial box: the n-site
    grid on [-1, 1]^3, less trim sites at each end of every spatial axis.

    The kept coordinates are sliced from the whole grid's axis, so every
    site has its whole-grid bits; the field's origin is the first of them.
    """
    h = 2.0 / (n - 1)
    ax = np.linspace(-1.0, 1.0, n)[trim:n - trim]
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    params = np.zeros((1,) + x.shape + (6,))
    if boost:
        params[..., 0] = 0.3 * np.sin(x) * np.cos(y)
        params[..., 1] = 0.25 * np.sin(z)
        params[..., 2] = 0.2 * np.cos(x + z)
    else:
        params[..., 3] = 0.3 * np.sin(x)
        params[..., 4] = 0.25 * np.cos(y + z)
        params[..., 5] = 0.2 * np.sin(y)
    xi = (0.4 * np.sin(x) * np.cos(z))[None]
    origin = (0.0,) + (float(ax[0]),) * 3
    spacing = (1.0, h, h, h)
    return transform_from_params(xi, params, origin, spacing, xi.shape)


def _pure_gauge_curvature(n: int, trim: int = 0) -> dict:
    """{key: residual grid} of the curvature suite's order checks on
    _gauge_params_grid(n, boost=False, trim)."""
    lf = _gauge_params_grid(n, boost=False, trim=trim)
    gd = goldstone_derivatives(lf)
    cf = build_connections(gd, ExternalPotentials(q=lf.q))
    cd = curvatures(cf, q=lf.q, lfield=lf)
    return {"F": np.abs(cd.F), "riemann": cd.riemann, "flat": cd.goldstone_flat}


def _pure_gauge_constraints(n: int, trim: int = 0) -> dict:
    """{key: residual grid} of the constraints suite's order checks on
    _gauge_params_grid(n, boost=True, trim)."""
    lf = _gauge_params_grid(n, boost=True, trim=trim)
    gd = goldstone_derivatives(lf)
    cf = build_connections(gd, ExternalPotentials(q=lf.q))
    dc = divergence_constraints(cf)
    return {"resB": np.abs(dc.resB), "resR": np.abs(dc.resR)}


def suite_curvature(cfg: dict, rng) -> list:
    tol = cfg["tolerances"]["curvature"]
    band = cfg["tolerances"]["order_band"]
    q = cfg["couplings"]["q"]

    checks = _refinement_checks(
        _pure_gauge_curvature(9), _pure_gauge_curvature(17, _FINE_TRIM),
        "pure_gauge_", band,
    )

    # a plane wave's transform is an identity multiple: its spin
    # connection, and hence its curvature, vanish exactly
    m = cfg["couplings"]["m"]
    g = _wave_grid(m, 0.4, 9)
    _, _, cf = polar_pipeline(g, ExternalPotentials(q=q, m=m))
    cd = curvatures(cf, q=q)
    worst = max(float(np.max(np.abs(cf.R))), float(np.max(cd.riemann)))
    checks.append(_check("wave_spin_connection", worst, tol))
    return checks


def suite_constraints(cfg: dict, rng) -> list:
    tol = cfg["tolerances"]["constraints"]
    band = cfg["tolerances"]["order_band"]
    checks = []

    r = rng.uniform(-1.0, 1.0, (40, 4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    back = reassemble_split(irreducible_split(r))
    checks.append(_check("split_reassembly", np.max(np.abs(back - r)), tol))

    return checks + _refinement_checks(
        _pure_gauge_constraints(9), _pure_gauge_constraints(17, _FINE_TRIM),
        "", band,
    )


def suite_continuity(cfg: dict, rng) -> list:
    tol = cfg["tolerances"]["continuity"]
    band = cfg["tolerances"]["order_band"]
    m = cfg["couplings"]["m"]
    checks = []

    wave = plane_wave((m, 0.0, 0.0, 0.0), m=m)
    res = continuity_residual(
        sample(wave, (0.0, 0.0, 0.0, 0.0), (0.1, 1.0, 1.0, 1.0), (9, 1, 1, 1))
    )
    checks.append(_check("plane_wave_flat", np.max(np.abs(res)), tol))

    f = build_field(cfg)
    origin, spacing, dims = grid_spec(cfg)
    coarse = continuity_residual(sample(f, origin, spacing, dims))
    fine = continuity_residual(sample(f, *_refined(origin, spacing, dims)))
    return checks + _refinement_checks(
        {"config_field": coarse}, {"config_field": fine}, "", band
    )


SUITE_FUNCS = {
    "algebraic": suite_algebraic,
    "roundtrip": suite_roundtrip,
    "equivalence": suite_equivalence,
    "curvature": suite_curvature,
    "constraints": suite_constraints,
    "continuity": suite_continuity,
}


def run_verify(cfg: dict) -> int:
    selected = set(cfg["suites"])
    if "continuity" in selected and max(cfg["grid"]["dims"]) == 1:
        # a constant grid's residual vanishes on both levels: nothing refines
        raise ConfigError(
            "'grid.dims' has no axis longer than 1: the continuity suite's "
            "order check refines the grid along one"
        )
    rng = np.random.default_rng(cfg["seed"])
    suites = []
    all_pass = True
    for name in SUITES:
        if name not in selected:
            suites.append({
                "name": name,
                "status": "skipped",
                "max_residual": None,
                "tolerance": None,
                "checks": [],
            })
            continue
        checks = SUITE_FUNCS[name](cfg, rng)
        passed = all(c["passed"] for c in checks)
        all_pass = all_pass and passed
        suites.append({
            "name": name,
            "status": "pass" if passed else "fail",
            "max_residual": max(c["residual"] for c in checks),
            "tolerance": min(c["tolerance"] for c in checks),
            "checks": checks,
        })
    report = {
        "command": "verify",
        "seed": cfg["seed"],
        "passed": all_pass,
        "suites": suites,
    }
    _emit(report, cfg)
    return 0 if all_pass else 1


def run_decompose(cfg: dict) -> int:
    vals = np.asarray(cfg["decompose"]["spinor"], dtype=float).reshape(4, 2)
    psi = vals[:, 0] + 1j * vals[:, 1]
    try:
        pd = decompose(psi, q=cfg["couplings"]["q"])
    except PolarDiracError as exc:
        print(f"decompose failed: {exc}", file=sys.stderr)
        return 1
    doc = {
        "command": "decompose",
        "phi": float(pd.phi),
        "beta": float(pd.beta),
        "u": [float(v) for v in pd.u],
        "s": [float(v) for v in pd.s],
        "goldstone": [float(v) for v in pd.goldstone],
        "alpha": float(pd.alpha),
        "passed": True,
    }
    _emit(doc, cfg)
    return 0


def run_trajectories(cfg: dict) -> int:
    f = build_field(cfg)
    origin, spacing, dims = grid_spec(cfg)
    cur = LatticeCurrent(f, origin, spacing, dims)
    tcfg = cfg["trajectories"]
    trajs = integrate_many(cur, tcfg["points"], tcfg["t0"], tcfg["t1"],
                           tcfg["dt"])
    paths = write_csv(trajs, cfg["output"]["csv"],
                      combined=cfg["output"]["combined"])
    drifts = [t.normalization_drift() for t in trajs]
    ends = [t.termination for t in trajs]
    doc = {
        "command": "trajectories",
        "seed": cfg["seed"],
        "trajectories": [
            {
                "index": i,
                "termination": t.termination,
                "samples": len(t.rows),
                "normalization_drift": d,
                "stop_event": t.events()[-1].tolist() if len(t.rows) else None,
            }
            for i, (t, d) in enumerate(zip(trajs, drifts))
        ],
        "terminations": {r: ends.count(r) for r in set(ends)},
        "max_normalization_drift": max(drifts) if drifts else 0.0,
        "csv_files": [str(p) for p in paths],
        "passed": True,
    }
    _emit(doc, cfg)
    return 0


def _read(entry, key: str, where: str, kinds=None, default=None):
    """entry[key] of the stored report's entry where, or default (if
    given) when key is absent.  Raises ConfigError naming the entry when
    it is no JSON object, lacks key or has there a value whose type is
    not in kinds."""
    if not isinstance(entry, dict):
        raise ConfigError(f"stored report {where} is not a JSON object")
    if key not in entry:
        if default is not None:
            return default
        raise ConfigError(f"stored report {where} lacks '{key}'")
    value = entry[key]
    if kinds is not None and type(value) not in kinds:
        raise ConfigError(
            f"stored report {where} has {key} = {value!r}, expected a "
            + ("number" if kinds is _NUMBER else kinds[0].__name__)
        )
    return value


def run_report(cfg: dict) -> int:
    path = cfg["output"]["report"]
    if not path:
        raise ConfigError("'output.report' must point at a stored report")
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse report {path}: {exc}") from exc
    top = f"{path} top level"
    lines = [f"command: {_read(doc, 'command', top, default='?')}"]
    for i, suite in enumerate(_read(doc, "suites", top, (list,), [])):
        at = f"suites[{i}]"
        line = f"{_read(suite, 'name', at)}: {_read(suite, 'status', at)}"
        if suite.get("max_residual") is not None:
            worst = _read(suite, "max_residual", at, _NUMBER)
            tol = _read(suite, "tolerance", at, _NUMBER)
            line += f" (max residual {worst:.3e}, tolerance {tol:.3e})"
        lines.append(line)
        for j, c in enumerate(_read(suite, "checks", at, (list,), [])):
            where = f"{at}.checks[{j}]"
            mark = "ok" if _read(c, "passed", where, (bool,)) else "FAIL"
            lines.append(
                f"  {_read(c, 'name', where)}: {mark} "
                f"({_read(c, 'residual', where, _NUMBER):.3e} vs "
                f"{_read(c, 'tolerance', where, _NUMBER):.3e})"
            )
    for i, t in enumerate(_read(doc, "trajectories", top, (list,), [])):
        at = f"trajectories[{i}]"
        drift = _read(t, "normalization_drift", at, _NUMBER)
        lines.append(
            f"trajectory {_read(t, 'index', at)}: {_read(t, 'termination', at)}"
            f" ({_read(t, 'samples', at)} samples, drift {drift:.3e})"
        )
    passed = _read(doc, "passed", top, (bool,), False)
    lines.append("result: pass" if passed else "result: FAIL")
    print("\n".join(lines))
    return 0 if passed else 1


def _emit(doc: dict, cfg: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    target = cfg["output"]["report"]
    if target and doc["command"] != "report":
        path = Path(target)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")


DISPATCH = {
    "verify": run_verify,
    "decompose": run_decompose,
    "trajectories": run_trajectories,
    "report": run_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polardirac",
        description="verification suites and flow-line runs for the polar "
        "form of the spinor field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "run the invariant suites and write a report"),
        ("decompose", "print the polar variables of a literal spinor"),
        ("trajectories", "integrate configured flow lines to CSV"),
        ("report", "re-render a stored report as plain text"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument(
            "config",
            nargs="?",
            default=None,
            help=f"YAML config (default: ${CONFIG_ENV}/{CONFIG_NAME} "
            "if set, else built-in defaults)",
        )
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config entry (repeatable), e.g. "
            "--set tolerances.algebraic=1e-8",
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
