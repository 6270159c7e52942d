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
    ("decompose", "decompose.spinor=[a,0,0,0,1,0,0,0]", "decompose.spinor"),
    ("decompose", "couplings.X=0.5", "couplings.X"),
    ("decompose", "couplings.M_torsion=2.0", "couplings.M_torsion"),
    ("decompose", "command=decompose", "command"),
    ("verify", "couplings.q=0", "couplings.q"),
    ("decompose", "couplings.q=0.0", "couplings.q"),
    ("decompose", "couplings.q=.nan", "couplings.q"),
])
def test_invalid_config_exit_2(capsys, command, override, key):
    code, out, err = run_cli(capsys, command, "--set", override)
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert f"'{key}'" in err


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


def test_trajectories_build_current_once(tmp_path, capsys, monkeypatch):
    import polardirac.trajectories as trajectories

    calls = []
    real = trajectories.compute_bilinears

    def counting(values):
        calls.append(values.shape)
        return real(values)

    monkeypatch.setattr(trajectories, "compute_bilinears", counting)
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
    real = trajectories.interp_values

    def counting(*args):
        calls.append(len(args[3]))
        return real(*args)

    monkeypatch.setattr(trajectories, "interp_values", counting)
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
