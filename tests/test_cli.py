"""Config handling, verify/trajectories/decompose/report subcommands."""

import json

import numpy as np
import pytest
import yaml

from polardirac.cli import SUITES, load_config, main
from polardirac.errors import ConfigError


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
])
def test_invalid_config_exit_2(capsys, command, override, key):
    code, out, err = run_cli(capsys, command, "--set", override)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert f"'{key}'" in err


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
    import polardirac.trajectories as trajectories

    calls = []
    real = trajectories._observables

    def counting(values, **kwargs):
        calls.append(values.shape)
        return real(values, **kwargs)

    monkeypatch.setattr(trajectories, "_observables", counting)
    points = [[0.0, 0.0, z] for z in (-0.5, 0.0, 0.5)]
    path = write_cfg(tmp_path, trajectories_cfg(tmp_path, points))
    code, out, _ = run_cli(capsys, "trajectories", path)
    assert code == 0
    assert len(json.loads(out)["trajectories"]) == 3
    assert len(calls) == 1


def test_trajectories_interpolate_once_per_stage_for_all_seeds(
    tmp_path, capsys, monkeypatch
):
    import polardirac.trajectories as trajectories

    calls = []
    real = trajectories._interp

    def counting(*args):
        calls.append(len(args[3]))
        return real(*args)

    monkeypatch.setattr(trajectories, "_interp", counting)
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
    assert calls == [3] * len(calls)  # the seed outside is never evaluated


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
