"""Config handling, verify/trajectories/decompose/report subcommands."""

import copy
import json

import numpy as np
import pytest
import yaml

from polardirac import cli
from polardirac.cli import DEFAULTS, SUITES, load_config, main
from polardirac.errors import ConfigError
from polardirac.fields import convergence_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_default_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [s["name"] for s in doc["suites"]]
    assert names == list(SUITES)
    assert all(s["status"] == "pass" for s in doc["suites"])
    for suite in doc["suites"]:
        assert suite["checks"], "every selected suite carries its checks"


# every residual of the default report, in report order: a move of any of
# its bits fails here, where test_reports_byte_identical compares only
# two runs of the same code
_PINNED_RESIDUALS = {
    ("algebraic", "clifford_algebra"): 0.0,
    ("algebraic", "sigma_duality"): 0.0,
    ("algebraic", "metric_preservation"): 1.3322676295501878e-15,
    ("algebraic", "vector_transform"): 1.3340734093775518e-15,
    ("algebraic", "homomorphism"): 8.881784197001252e-16,
    ("algebraic", "fierz_identities"): 3.311841633668558e-13,
    ("roundtrip", "reconstruct"): 1.4895204919483639e-15,
    ("roundtrip", "bilinear_consistency"): 3.552713678800501e-15,
    ("roundtrip", "covariance"): 4.618527782440651e-14,
    ("equivalence", "hj_dep_identity"): 8.881784197001252e-16,
    ("equivalence", "rest_dirac_order"): 0.0005410186927401472,
    ("equivalence", "rest_pair_order"): 0.0005410186964900365,
    ("equivalence", "rest_guidance_order"): 0.0005410186964900365,
    ("equivalence", "boosted_dirac_order"): 0.0006423376991728791,
    ("equivalence", "boosted_pair_order"): 0.0006322995886243188,
    ("equivalence", "boosted_guidance_order"): 0.0006322995875078785,
    ("curvature", "pure_gauge_F_order"): 0.10711346602506522,
    ("curvature", "pure_gauge_riemann_order"): 0.08031580590365106,
    ("curvature", "pure_gauge_flat_order"): 0.044780109561945336,
    ("curvature", "wave_spin_connection"): 8.60046253236147e-14,
    ("constraints", "split_reassembly"): 2.220446049250313e-16,
    ("constraints", "resB_order"): 0.058024330828784665,
    ("constraints", "resR_order"): 0.03600280535491596,
    ("continuity", "plane_wave_flat"): 1.1102230246251565e-15,
    ("continuity", "config_field_order"): 0.0005711782483950323,
}


def test_default_verify_keeps_the_pure_gauge_residual_bits(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    got = {
        (suite["name"], c["name"]): c["residual"]
        for suite in json.loads(out)["suites"]
        for c in suite["checks"]
    }
    assert list(got.items()) == list(_PINNED_RESIDUALS.items())


def test_verify_builds_the_fine_gauge_levels_windowed(capsys, monkeypatch):
    # curvature, then constraints: each the 7^3 window of its 9^3 level and
    # the 11^3 window of its 17^3 level
    built = []
    real = cli.transform_from_params

    def spy(*args, **kwargs):
        lf = real(*args, **kwargs)
        built.append(lf.grid_shape)
        return lf

    monkeypatch.setattr(cli, "transform_from_params", spy)
    assert run_cli(capsys, "verify")[0] == 0
    assert built == [(1, 7, 7, 7), (1, 11, 11, 11)] * 2


def _level(residuals, key):
    """The level (origin, spacing, residual grid) of key in residuals, an
    (origin, spacing, {key: residual grid}) of the pure-gauge suites."""
    origin, spacing, grids = residuals
    return origin, spacing, grids[key]


# the sites the pure-gauge order checks read, in the whole 9- and 17-site
# levels and in a window less trim sites at each end
def _read_sites(first, last, trim=0):
    return (slice(None),) + (slice(first - trim, last + 1 - trim),) * 3


@pytest.mark.parametrize(
    "residuals", [cli._pure_gauge_curvature, cli._pure_gauge_constraints]
)
def test_windowed_fine_level_keeps_the_bits_the_order_check_reads(residuals):
    # fine sites 4 ... 12 of every spatial axis hold the sites
    # convergence_order reads
    trim = cli._FINE_TRIM
    coarse = residuals(9, cli._COARSE_TRIM)
    whole, window = residuals(17), residuals(17, trim)
    for key in whole[2]:
        assert window[2][key].shape[1:4] == (17 - 2 * trim,) * 3
        assert np.array_equal(
            window[2][key][_read_sites(4, 12, trim)], whole[2][key][_read_sites(4, 12)]
        ), key
        assert convergence_order(
            _level(coarse, key), _level(window, key), cli._GAUGE_BOX
        ) == convergence_order(
            _level(coarse, key), _level(whole, key), cli._GAUGE_BOX
        )


@pytest.mark.parametrize(
    "residuals", [cli._pure_gauge_curvature, cli._pure_gauge_constraints]
)
def test_windowed_coarse_level_keeps_the_bits_the_order_check_reads(
    residuals
):
    # coarse sites 2 ... 6 of every spatial axis, the sites of _GAUGE_BOX,
    # keep their bits in the 7^3 window, and the order check over the box
    # reads the window as it reads the whole level; the default box of a
    # whole level is that same box
    trim = cli._COARSE_TRIM
    whole, window = residuals(9), residuals(9, trim)
    fine = residuals(17, cli._FINE_TRIM)
    for key in whole[2]:
        assert window[2][key].shape[1:4] == (9 - 2 * trim,) * 3
        assert np.array_equal(
            window[2][key][_read_sites(2, 6, trim)], whole[2][key][_read_sites(2, 6)]
        ), key
        by_window = convergence_order(
            _level(window, key), _level(fine, key), cli._GAUGE_BOX
        )
        assert by_window == convergence_order(
            _level(whole, key), _level(fine, key), cli._GAUGE_BOX
        ) == convergence_order(
            _level(whole, key), _level(residuals(17), key)
        ), key


@pytest.mark.parametrize(
    "residuals", [cli._pure_gauge_curvature, cli._pure_gauge_constraints]
)
def test_a_window_without_halo_changes_read_bits(residuals):
    # the one-site halo of _FINE_TRIM is the least that holds: the window
    # of the read sites alone (trim 4) changes some read bit of each suite
    (_, _, whole), (_, _, window) = residuals(17), residuals(17, 4)
    assert any(
        not np.array_equal(window[key], whole[key][_read_sites(4, 12)])
        for key in whole
    )


@pytest.mark.parametrize(
    "residuals", [cli._pure_gauge_curvature, cli._pure_gauge_constraints]
)
def test_a_coarse_window_without_halo_changes_read_bits(residuals):
    # likewise for _COARSE_TRIM: the coarse window of the read sites alone
    # (trim 2) changes some read bit of each suite
    (_, _, whole), (_, _, window) = residuals(9), residuals(9, 2)
    assert any(
        not np.array_equal(window[key], whole[key][_read_sites(2, 6)])
        for key in whole
    )


def test_zero_tolerances_fail_with_residuals(tmp_path, capsys):
    cfg = {"tolerances": {name: 0.0 for name in SUITES}}
    path = write_cfg(tmp_path, cfg)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = [s for s in doc["suites"] if s["status"] == "fail"]
    assert failing
    listed = [c["residual"] for s in failing for c in s["checks"]
              if not c["passed"]]
    assert listed and all(r > 0.0 for r in listed)


def test_malformed_yaml_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("tolerances: [unclosed\n  nested: 3\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "config error" in err
    assert "line" in err  # parser diagnostics point at the spot


def test_unknown_key_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {"tolerancez": {"algebraic": 1.0}})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "tolerancez" in err


def test_wrong_type_and_bad_suite(tmp_path, capsys):
    path = write_cfg(tmp_path, {"seed": "zero"})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "seed" in err

    path2 = write_cfg(tmp_path, {"suites": ["algebraic", "nonsense"]},
                      name="cfg2.yaml")
    code2, _, err2 = run_cli(capsys, "verify", path2)
    assert code2 == 2
    assert "nonsense" in err2


@pytest.mark.parametrize("command, override, key", [
    ("trajectories", "grid.spacing=[0,1,1,1]", "grid.spacing"),
    ("trajectories", "grid.spacing=[0.2,1,1,-1]", "grid.spacing"),
    ("trajectories", "grid.origin=[0,a,0,0]", "grid.origin"),
    ("trajectories", "grid.dims=[3,1,1,9]", "grid.dims"),
    ("trajectories", "grid.dims=[9,1,1,0]", "grid.dims"),
    ("trajectories", "trajectories.points=[[a,0,0]]", "trajectories.points[0]"),
    ("trajectories", "trajectories.t1=-1.0", "trajectories.t1"),
    ("trajectories", "trajectories.dt=.nan", "trajectories.dt"),
    ("trajectories", "trajectories.t0=.nan", "trajectories.t0"),
    ("trajectories", "trajectories.t1=.inf", "trajectories.t1"),
    ("trajectories", "trajectories.eps_sing=.nan", "trajectories.eps_sing"),
    ("trajectories", "grid.origin=[0,.nan,0,0]", "grid.origin"),
    ("trajectories", "grid.spacing=[.nan,1,1,0.2]", "grid.spacing"),
    ("decompose", "decompose.spinor=[a,0,0,0,1,0,0,0]", "decompose.spinor"),
    ("decompose", "couplings.X=0.5", "couplings.X"),
    ("decompose", "couplings.M_torsion=2.0", "couplings.M_torsion"),
    ("decompose", "command=decompose", "command"),
    ("verify", "couplings.q=0", "couplings.q"),
    ("decompose", "couplings.q=0.0", "couplings.q"),
    ("decompose", "couplings.q=.nan", "couplings.q"),
    ("verify", "counts.spinors=0", "counts.spinors"),
    ("verify", "counts.transforms=-1", "counts.transforms"),
    ("verify", "couplings.m=0", "couplings.m"),
    ("verify", "couplings.m=-1", "couplings.m"),
    ("verify", "couplings.m=.inf", "couplings.m"),
    ("decompose", "couplings.m=-1", "couplings.m"),
    ("trajectories", "couplings.m=.nan", "couplings.m"),
    ("trajectories", "field.mass=.nan", "field.mass"),
    ("trajectories", "field.mass=.inf", "field.mass"),
    ("verify", "tolerances.algebraic=.nan", "tolerances.algebraic"),
])
def test_invalid_config_exit_2(capsys, command, override, key):
    code, out, err = run_cli(capsys, command, "--set", override)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert f"'{key}'" in err


@pytest.mark.parametrize("suites", [None, "suites=[continuity]"])
def test_verify_refuses_continuity_on_a_grid_with_no_active_axis(
    tmp_path, capsys, monkeypatch, suites
):
    # a constant grid's continuity residual vanishes on both levels, so the
    # order check read 0.0 and passed whatever the field; verify now stops
    # before any suite runs, and trajectories on that grid still runs
    from polardirac import cli

    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    ran = []
    monkeypatch.setattr(cli, "SUITE_FUNCS", {
        name: lambda cfg, rng, name=name: ran.append(name) or []
        for name in cli.SUITE_FUNCS
    })
    flat = ["--set", "grid.dims=[1,1,1,1]"]
    code, out, err = run_cli(
        capsys, "verify", *flat, *(["--set", suites] if suites else [])
    )
    assert code == 2 and out == "" and ran == []
    assert "config error: 'grid.dims' has no axis longer than 1" in err
    code, out, _ = run_cli(capsys, "trajectories", *flat, "--set",
                           f"output.csv={tmp_path / 'flow.csv'}")
    assert code == 0
    assert json.loads(out)["terminations"] == {"completed": 1}


def test_verify_refuses_continuity_on_a_five_site_axis(
    tmp_path, capsys, monkeypatch
):
    # the order check reads the coarse grid less two sites at each end,
    # one site of a 5-site axis, and needs two: verify stops at load with
    # exit 2, not with a traceback once its suites have run, and without
    # continuity it runs
    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    five = ["--set", "grid.dims=[5,1,1,9]"]
    code, out, err = run_cli(capsys, "verify", *five)
    assert code == 2 and out == ""
    assert "config error: 'grid.dims' has an axis of 5 sites" in err
    code, out, _ = run_cli(capsys, "verify", *five, "--set", "suites=[algebraic]")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "--set", "grid.dims=[6,1,1,9]",
                         "--set", "suites=[continuity]")
    assert code == 0


@pytest.mark.parametrize("command", ["verify", "trajectories", "decompose"])
def test_negative_seed_exits_2(capsys, monkeypatch, command):
    # verify seeds np.random.default_rng with it, which takes no negative
    # value; the rule holds at load, for every command
    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    code, out, err = run_cli(capsys, command, "--set", "seed=-1")
    assert code == 2 and out == ""
    assert "config error: 'seed' must not be negative" in err
    assert load_config(None, ["seed=0"])["seed"] == 0


def test_number_leaves_read_exponent_floats(tmp_path, capsys, monkeypatch):
    # YAML 1.1 reads 1e-8 as a string; a leaf whose default is a float
    # takes it as the float, in a config file and in --set alike, and a
    # string leaf keeps the text
    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    path = tmp_path / "c.yaml"
    path.write_text("tolerances:\n  curvature: 1e-8\n  algebraic: 5E+3\n")
    cfg = load_config(str(path), [
        "couplings.q=-2e-1", "output.report=1e-8", "output.csv=5E+3",
    ])
    assert cfg["tolerances"]["curvature"] == 1e-8
    assert cfg["tolerances"]["algebraic"] == 5e3
    assert cfg["couplings"]["q"] == -0.2
    assert cfg["output"]["report"] == "1e-8"
    assert cfg["output"]["csv"] == "5E+3"
    code, out, _ = run_cli(
        capsys, "verify", "--set", "tolerances.curvature=1e-8",
        "--set", "suites=[curvature]",
    )
    assert code == 0
    curvature = json.loads(out)["suites"][SUITES.index("curvature")]
    assert curvature["tolerance"] == 1e-8
    code, out, err = run_cli(capsys, "verify", "--set", "tolerances.curvature=1e")
    assert code == 2 and out == ""
    assert "'tolerances.curvature' has type str, expected number" in err


def test_vector_entries_read_exponent_floats(monkeypatch):
    # the entries of a list of numbers take the 1e-8 form too, at any depth
    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    cfg = load_config(None, [
        "grid.spacing=[1e-1,1,1,2E-1]", "trajectories.points=[[0,0,8e-1]]",
        "field.components=[{momentum: [1e0,0,0,0], coeff: [5e-1, -1e-3]}]",
    ])
    assert cfg["grid"]["spacing"] == [0.1, 1, 1, 0.2]
    assert cfg["trajectories"]["points"] == [[0, 0, 0.8]]
    comp = cfg["field"]["components"][0]
    assert comp == {"momentum": [1.0, 0, 0, 0], "coeff": [0.5, -1e-3]}
    assert all(type(v) is float for v in comp["coeff"])


def test_config_leaves_come_back_with_their_defaults_types(tmp_path,
                                                          monkeypatch):
    # every whole-number float default written as an int reads back as a
    # float, so no command needs to re-cast a config value
    def as_ints(node):
        if isinstance(node, dict):
            return {k: as_ints(v) for k, v in node.items()}
        if isinstance(node, list):
            return [as_ints(v) for v in node]
        if type(node) is float and node.is_integer():
            return int(node)
        return node

    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    cfg = load_config(write_cfg(tmp_path, as_ints(DEFAULTS)))
    # JSON writes 1 and 1.0 apart
    assert json.dumps(cfg, sort_keys=True) == json.dumps(
        DEFAULTS, sort_keys=True
    )


def test_field_mass_not_positive_exit_2(tmp_path, capsys):
    # plane_wave rejects the mass, and the CLI maps that to a config error
    for command in ("trajectories", "verify"):
        code, out, err = run_cli(
            capsys, command, "--set", "field.mass=-1",
            "--set", f"output.csv={tmp_path / 'f.csv'}",
        )
        assert code == 2 and out == ""
        assert "field spec rejected" in err and "m = -1" in err


def _config_nodes(node, path=()):
    """(path, default) of every entry of a config tree but the root, the
    entries of lists that are not vectors of numbers included."""
    if path:
        yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and any(
        type(v) not in (int, float) for v in node
    ):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _config_nodes(value, path + (key,))


def _config_key(path) -> str:
    """The name a config error gives path, such as field.components[0].coeff."""
    return "".join(
        f"[{p}]" if isinstance(p, int) else f".{p}" for p in path
    ).lstrip(".")


def _wrong_values(default) -> list:
    """Values that default's entry must refuse: wrong types, numbers that
    are not finite and, for a list of numbers, other lengths and bad
    entries."""
    if isinstance(default, dict):
        return [3, "text", [default]]
    if isinstance(default, list):
        if any(type(v) not in (int, float) for v in default):
            return ["text", 3, {"a": default}]
        entries = _wrong_values(default[0])
        return [default[:-1], default + default[:1], default[0], "text"] + [
            [bad] + default[1:] for bad in entries if not isinstance(bad, list)
        ]
    if isinstance(default, bool):
        return ["true", 1, None, [default]]
    if isinstance(default, int):
        return [1.5, "1", True, None, [default]]
    if isinstance(default, float):
        return ["text", "1e999", True, None, [default],
                float("nan"), float("inf"), -float("inf"), 10**400]
    if default is None:
        return [1, True, [default]]
    return [1, True, None, [default]]


@pytest.mark.parametrize("path, default", [
    pytest.param(path, default, id=_config_key(path))
    for path, default in _config_nodes(DEFAULTS)
])
def test_every_config_entry_refuses_wrong_values(
    tmp_path, capsys, path, default
):
    # generated from DEFAULTS, so a new key is covered with no test edit:
    # each wrong value at path exits 2 at load and names the entry
    for bad in _wrong_values(default):
        cfg = copy.deepcopy(DEFAULTS)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        code, out, err = run_cli(capsys, "decompose", write_cfg(tmp_path, cfg))
        assert (code, out) == (2, ""), bad
        assert "config error: " in err, bad
        assert f"'{_config_key(path)}'" in err, (bad, err)


@pytest.mark.parametrize("overrides, message", [
    (["field.kind=plane_wave", "field.momentum=[1,0]"],
     "'field.momentum' must have 4 entries"),
    (["field.kind=plane_wave", "field.momentum=[a,0,0,0]"],
     "'field.momentum' entries must be finite numbers"),
    (["field.kind=plane_wave", "field.momentum=[.nan,0,0,0]"],
     "'field.momentum' entries must be finite numbers"),
    (["field.components=[{momentum: [1,0,0,0], coeff: [1]}]"],
     "'field.components[0].coeff' must have 2 entries"),
    (["field.components=[{momentum: [1,0,0,0]}, {momentum: [1,0,0,a]}]"],
     "'field.components[1].momentum' entries must be finite numbers"),
    (["field.components=[{momentum: 1}]"],
     "'field.components[0].momentum' must have 4 entries"),
    (["field.components=[{coeff: [1, 0]}]"],
     "'field.components[0]' is missing 'momentum'"),
    (["field.components=[]"], "'field.components' must not be empty"),
    (["field.components=[{momentum: [1,0,0,0], coef: [0.5, 0]}]"],
     "unknown config key 'field.components[0].coef'"),
    (["field.components=[{momentum: [1,0,0,0], spin_up: 'false'}]"],
     "'field.components[0].spin_up' has type str, expected bool"),
    (["field.components=[{momentum: [1,0,0,0]}, [1, 0]]"],
     "'field.components[1]' must be a mapping"),
    (["field.components=[{momentum: [1,0,0,0], coeff: [1, .nan]}]"],
     "'field.components[0].coeff' entries must be finite numbers"),
])
def test_malformed_field_entries_exit_2(tmp_path, capsys, overrides, message):
    sets = [f"output.csv={tmp_path / 'f.csv'}", *overrides]
    code, out, err = run_cli(
        capsys, "trajectories", *(a for s in sets for a in ("--set", s))
    )
    assert code == 2 and out == ""
    assert f"config error: {message}" in err


def test_plane_wave_kind_is_its_one_component_superposition(monkeypatch):
    # kind plane_wave builds the superposition of the field entry alone,
    # which samples bit for bit as plane_wave itself
    from polardirac import cli
    from polardirac.fields import plane_wave, sample

    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    p = [float(np.hypot(1.3, 0.4)), 0.0, 0.4, 0.0]
    cfg = load_config(None, [
        "field.kind=plane_wave", f"field.momentum={p}", "field.mass=1.3",
        "field.spin_up=false",
    ])
    got = cli.build_field(cfg)
    want = plane_wave(p, spin_up=False, m=1.3)
    for name in ("momenta", "coefficients", "amplitudes"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.mass == want.mass
    grid = ((0.0, -1.0, -1.0, -1.0), (0.1, 0.25, 0.25, 0.25), (5, 9, 9, 9))
    assert np.array_equal(
        sample(got, *grid).values, sample(want, *grid).values
    )


def test_set_override_and_skip_marking(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", "suites=[algebraic]", "--set", "seed=7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    status = {s["name"]: s["status"] for s in doc["suites"]}
    assert status["algebraic"] == "pass"
    skipped = [n for n, st in status.items() if st == "skipped"]
    assert sorted(skipped) == sorted(set(SUITES) - {"algebraic"})
    assert set(status) == set(SUITES)  # never omitted


def test_set_override_failure_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", "tolerances.roundtrip=0",
        "--set", "suites=[roundtrip]"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


def test_reports_byte_identical(tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code, out, _ = run_cli(
            capsys, "verify", "--set", f"output.report={target}"
        )
        assert code == 0
        outputs.append((out, target.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_env_var_default_config(tmp_path, capsys, monkeypatch):
    cfgdir = tmp_path / "confdir"
    cfgdir.mkdir()
    (cfgdir / "polardirac.yaml").write_text(
        yaml.safe_dump({"suites": ["algebraic"], "seed": 3})
    )
    monkeypatch.setenv("POLARDIRAC_CONFIG_DIR", str(cfgdir))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 3
    assert [s["status"] for s in doc["suites"] if s["name"] != "algebraic"] \
        == ["skipped"] * (len(SUITES) - 1)


def trajectories_cfg(tmp_path, points, momentum=(1.0, 0.0, 0.0, 0.0)):
    return {
        "field": {"kind": "plane_wave", "momentum": list(momentum),
                  "mass": 1.0},
        "grid": {
            "origin": [-0.1, 0.0, 0.0, -1.0],
            "spacing": [0.3, 1.0, 1.0, 0.25],
            "dims": [5, 1, 1, 9],
        },
        "trajectories": {"points": points, "t0": 0.0, "t1": 1.0, "dt": 0.05},
        "output": {"csv": str(tmp_path / "flow.csv"), "combined": True},
    }


@pytest.mark.parametrize(
    "seed, transforms",
    [(0, 100), (1, 100), (17, 100), (8003, 100), (3, 2), (3, 1), (3, 0)],
)
def test_transform_suites_equal_the_per_row_oracles(seed, transforms, monkeypatch):
    # the batched algebraic and roundtrip transform checks give the
    # residuals of one exp_lorentz (and one decompose) per row exactly;
    # under two transforms there is no pair, and homomorphism reads 0
    import oracles

    from polardirac import cli

    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    cfg = load_config(None, [f"seed={seed}", f"counts.transforms={transforms}"])
    checks = cli.suite_algebraic(cfg, np.random.default_rng(seed))
    got = {c["name"]: c["residual"] for c in checks}
    rng = np.random.default_rng(seed)
    params = 0.7 * rng.uniform(-1.0, 1.0, (transforms, 6))
    names = ("metric_preservation", "vector_transform", "homomorphism")
    assert tuple(got[n] for n in names) == oracles.transform_residuals(params)
    assert all(c["passed"] for c in checks)

    checks = cli.suite_roundtrip(cfg, np.random.default_rng(seed))
    got = {c["name"]: c["residual"] for c in checks}
    rng = np.random.default_rng(seed)
    psi = cli._random_spinors(rng, cfg["counts"]["spinors"])
    rows = 0.6 * rng.uniform(-1.0, 1.0, (20, 6))
    assert got["covariance"] == oracles.covariance_residual(psi, rows, 1.0)


def test_config_parses_alike_with_the_pure_python_loader(tmp_path, monkeypatch):
    # load_config takes libyaml's parser when PyYAML has it; the documents
    # it reads give the same config either way
    from polardirac import cli

    monkeypatch.delenv("POLARDIRAC_CONFIG_DIR", raising=False)
    doc = {
        "seed": 4,
        "field": {"kind": "superposition", "components": [
            {"momentum": [1.25, 0.75, 0.0, 0.0], "spin_up": False,
             "coeff": [0.3, -1.5e-3]},
        ]},
        "grid": {"origin": [0.0, -1.0, -1.0, -1.0], "dims": [11, 17, 17, 17],
                 "spacing": [0.1, 0.125, 0.125, 0.125]},
        "trajectories": {"points": [[0.1, -0.2, 0.3]], "dt": 1e-3},
        "output": {"csv": str(tmp_path / "f.csv"), "combined": True},
    }
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(doc))
    sets = ["tolerances.algebraic=2.5e-8", "suites=[algebraic]"]
    fast = load_config(str(path), sets)
    monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
    assert load_config(str(path), sets) == fast


def test_trajectories_sixteen_static(tmp_path, capsys):
    points = [[0.0, 0.0, float(z)] for z in np.linspace(-0.9, 0.9, 16)]
    path = write_cfg(tmp_path, trajectories_cfg(tmp_path, points))
    code, out, _ = run_cli(capsys, "trajectories", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["trajectories"]) == 16
    assert all(t["termination"] == "completed"
               for t in doc["trajectories"])
    assert doc["max_normalization_drift"] < 1e-8
    csv_path = tmp_path / "flow.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 16 * 21  # header + 16 lines of 21 samples
    # a rest wave holds every point fixed
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[4]) == points[0][2]
    assert float(last[4]) == points[-1][2]


def test_trajectories_summary_counts_reasons_and_stop_events(
    tmp_path, capsys
):
    # a wave moving up z at 0.6: the seed at z = 0.5 leaves the box before
    # t1, the one at -0.5 completes, the one outside has no samples; each
    # stop event is the (t, x, y, z) of the seed's last CSV row
    points = [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.0, 0.0, 55.0]]
    cfg = trajectories_cfg(tmp_path, points, momentum=(1.25, 0.0, 0.0, 0.75))
    code, out, _ = run_cli(capsys, "trajectories", write_cfg(tmp_path, cfg))
    assert code == 0
    doc = json.loads(out)
    trajs = doc["trajectories"]
    assert [t["termination"] for t in trajs] == [
        "left_domain", "completed", "left_domain"
    ]
    assert doc["terminations"] == {"completed": 1, "left_domain": 2}
    rows = [line.split(",") for line in
            (tmp_path / "flow.csv").read_text().splitlines()[1:]]
    for i in (0, 1):
        last = [r for r in rows if r[0] == str(i)][-1]
        assert trajs[i]["stop_event"] == [float(v) for v in last[1:5]]
    assert 0.0 < trajs[0]["stop_event"][0] < 1.0
    assert trajs[1]["stop_event"][0] == pytest.approx(1.0)
    assert trajs[2]["samples"] == 0 and trajs[2]["stop_event"] is None


def test_trajectories_build_current_once(tmp_path, capsys, monkeypatch):
    # the field is evaluated only at lattice sites, each at most once in a
    # run for all its seeds, and not at every site of the lattice
    import polardirac.fields as fields

    evaluated = []  # the events of each AnalyticField.at call
    real = fields.AnalyticField.at

    def at(self, x):
        evaluated.append(np.reshape(x, (-1, 4)))
        return real(self, x)

    monkeypatch.setattr(fields.AnalyticField, "at", at)
    points = [[0.0, 0.0, z] for z in (-0.5, 0.0, 0.5)]
    cfg = trajectories_cfg(tmp_path, points)
    path = write_cfg(tmp_path, cfg)
    code, out, _ = run_cli(capsys, "trajectories", path)
    assert code == 0
    assert len(json.loads(out)["trajectories"]) == 3
    lattice = fields._lattice_events(**cfg["grid"]).reshape(-1, 4)
    # a lone site is evaluated beside a copy of itself, so count each
    # batch's sites once
    sites = np.concatenate([np.unique(ev, axis=0) for ev in evaluated])
    assert 0 < len(np.unique(sites, axis=0)) == len(sites) < len(lattice)
    assert len(np.unique(np.concatenate([lattice, sites]), axis=0)) == len(
        lattice
    )


@pytest.mark.parametrize("points", [
    [[0.1, -0.2, 0.0]],  # one seed: lookups that fill few sites
    [[x, -x, 0.0] for x in (-0.5, 0.0, 0.5)],
    [[0.3, 0.3, 0.0], [55.0, 0.0, 0.0], [-0.4, 0.6, 0.0]],  # one outside
])
def test_trajectories_csv_equals_integrate_many_on_the_eager_current(
    tmp_path, capsys, points
):
    # the sites a run fills as its flow lines read them hold the bits of
    # the whole-lattice current, so the CSV is byte for byte that of
    # integrate_many on the GridField sample(...); the lattice's
    # last axis has one site, where that takes a batch shape of its own
    from polardirac.cli import build_field, grid_spec
    from polardirac.fields import sample
    from polardirac.trajectories import integrate_many, write_csv

    cfg = trajectories_cfg(tmp_path, points)
    cfg["field"] = {"kind": "superposition", "mass": 1.0, "components": [
        {"momentum": [float(np.sqrt(1.29)), 0.5, -0.2, 0.0],
         "coeff": [1.0, 0.0]},
        {"momentum": [float(np.sqrt(1.25)), -0.3, 0.4, 0.0],
         "spin_up": False, "coeff": [0.3, -0.4]},
    ]}
    cfg["grid"] = {"origin": [0.0, -1.0, -1.0, 0.0],
                   "spacing": [0.1, 0.25, 0.25, 1.0], "dims": [11, 9, 9, 1]}
    code, _, _ = run_cli(capsys, "trajectories", write_cfg(tmp_path, cfg))
    assert code == 0
    origin, spacing, dims = grid_spec(cfg)
    g = sample(build_field(cfg), origin, spacing, dims)
    trajs = integrate_many(g, points, 0.0, 1.0, 0.05)
    (eager,) = write_csv(trajs, tmp_path / "eager.csv", combined=True)
    assert (tmp_path / "flow.csv").read_bytes() == eager.read_bytes()


def test_trajectories_interpolate_once_per_stage_for_all_seeds(
    tmp_path, capsys, monkeypatch
):
    import polardirac.fields as fields

    calls = []  # per lattice lookup: the seeds given, the seeds evaluated
    real = fields._Lookup.__call__

    def counting(self, frac):
        inside, vals = real(self, frac)
        calls.append((len(frac), len(vals)))
        return inside, vals

    monkeypatch.setattr(fields._Lookup, "__call__", counting)
    points = [[0.0, 0.0, z] for z in (-0.5, 0.0, 0.5, 55.0)]
    path = write_cfg(tmp_path, trajectories_cfg(tmp_path, points))
    code, out, _ = run_cli(capsys, "trajectories", path)
    assert code == 0
    trajs = json.loads(out)["trajectories"]
    assert [t["termination"] for t in trajs] == ["completed"] * 3 + [
        "left_domain"
    ]
    steps = max(t["samples"] for t in trajs) - 1
    assert steps == 20
    assert len(calls) == 1 + 4 * steps
    # the seed outside leaves at the start sample and is never evaluated
    assert calls == [(4, 3)] + [(3, 3)] * (len(calls) - 1)


def test_trajectories_point_outside_grid(tmp_path, capsys):
    path = write_cfg(
        tmp_path, trajectories_cfg(tmp_path, [[0.0, 0.0, 55.0]])
    )
    code, out, _ = run_cli(capsys, "trajectories", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["trajectories"][0]["termination"] == "left_domain"
    assert doc["trajectories"][0]["samples"] == 0


def test_decompose_reference(capsys):
    code, out, _ = run_cli(capsys, "decompose")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["phi"] - 1.0) < 1e-12
    assert abs(doc["beta"]) < 1e-12
    assert np.allclose(doc["u"], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(doc["s"], [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_decompose_zero_spinor_fails(tmp_path, capsys):
    path = write_cfg(tmp_path, {"decompose": {"spinor": [0.0] * 8}})
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 1
    assert "decompose failed" in err


def test_report_rerender(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--set", f"output.report={target}",
        "--set", "suites=[algebraic]"
    )
    assert code == 0
    code2, out2, _ = run_cli(
        capsys, "report", "--set", f"output.report={target}"
    )
    assert code2 == 0
    assert "algebraic: pass" in out2
    assert "result: pass" in out2
    assert "continuity: skipped" in out2

    # a failing stored report renders with exit 1
    code3, _, _ = run_cli(
        capsys, "verify", "--set", f"output.report={target}",
        "--set", "suites=[algebraic]", "--set", "tolerances.algebraic=0"
    )
    assert code3 == 1
    code4, out4, _ = run_cli(
        capsys, "report", "--set", f"output.report={target}"
    )
    assert code4 == 1
    assert "result: FAIL" in out4


def test_report_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "report", "--set",
        f"output.report={tmp_path / 'absent.json'}"
    )
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "doc, entry",
    [
        ([], "top level is not a JSON object"),
        ({"suites": [{}]}, "suites[0] lacks 'name'"),
        ({"suites": 3}, "top level has suites = 3"),
        ({"suites": [{"name": "a", "status": "pass", "max_residual": "x",
                      "tolerance": 1.0}]},
         "suites[0] has max_residual = 'x'"),
        ({"suites": [{"name": "a", "status": "pass", "checks": [
            {"name": "c", "passed": True, "residual": "1e-3",
             "tolerance": 1.0}]}]},
         "suites[0].checks[0] has residual = '1e-3'"),
        ({"suites": [{"name": "a", "status": "pass", "checks": [None]}]},
         "suites[0].checks[0] is not a JSON object"),
        ({"trajectories": [{"index": 0, "samples": 3,
                            "normalization_drift": 0.0}]},
         "trajectories[0] lacks 'termination'"),
        ({"passed": "false"}, "top level has passed = 'false'"),
        ({"suites": [{"name": "a", "status": "pass", "checks": [
            {"name": "c", "passed": "no", "residual": 1.0,
             "tolerance": 1.0}]}]},
         "suites[0].checks[0] has passed = 'no'"),
    ],
)
def test_report_names_a_malformed_entry(tmp_path, capsys, doc, entry):
    target = tmp_path / "report.json"
    target.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "report", "--set", f"output.report={target}")
    assert code == 2
    assert "config error" in err
    assert entry in err


def test_load_config_validation_direct(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, ["tolerances.algebraic"])  # missing '='
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.yaml"))
    cfg = load_config(None, ["couplings.q=2.5"])
    assert cfg["couplings"]["q"] == 2.5
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"grid": {"dims": [9, 1, 1]}}))
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_offshell_momentum_is_config_error(tmp_path, capsys):
    cfg = trajectories_cfg(tmp_path, [[0.0, 0.0, 0.0]],
                           momentum=(1.0, 0.0, 0.0, 0.7))
    path = write_cfg(tmp_path, cfg)
    code, _, err = run_cli(capsys, "trajectories", path)
    assert code == 2
    assert "field spec rejected" in err
