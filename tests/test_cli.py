import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from thinwall import cli, harness
from thinwall.cli import (_acceptance_checks, _config_of, _eval_number,
                          _floats, _params_from, _parser, _study_config,
                          _windows, main, parse_config)
from thinwall.geometry import build_cone_geometry
from thinwall.harness import ConvergenceReport, StudyConfig
from thinwall.nearfield import side_polygon
from thinwall.params import HoleSpec
from thinwall.triangulate import triangulate

ROOT = Path(__file__).resolve().parents[1]


def test_eval_number():
    np.testing.assert_allclose(_eval_number("5*pi"), 5 * math.pi, rtol=1e-15)
    np.testing.assert_allclose(_eval_number("pi"), math.pi, rtol=1e-15)
    np.testing.assert_allclose(_eval_number("11*pi/8"), 11 * math.pi / 8,
                               rtol=1e-15)
    np.testing.assert_allclose(_eval_number("pi/2"), math.pi / 2, rtol=1e-15)
    np.testing.assert_allclose(_eval_number(" 7 * pi / 4"), 1.75 * math.pi,
                               rtol=1e-15)
    with pytest.raises(ValueError):
        _eval_number("pi*2")
    np.testing.assert_allclose(_eval_number("1/8"), 0.125, rtol=1e-15)
    np.testing.assert_allclose(_eval_number(" 0.3 "), 0.3, rtol=1e-15)
    assert _floats("1/8, 1/16,0.5") == (0.125, 0.0625, 0.5)


def test_parse_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header comment\n"
                    "k0 = 5*pi  # inline comment\n"
                    "\n"
                    "deltas = 1/8, 1/16\n")
    cfg = parse_config(path)
    assert cfg == {"k0": "5*pi", "deltas": "1/8, 1/16"}
    path.write_text("this line has no equals sign\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_repeated_config_key_names_its_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("limit_h0 = 0.04\nalpha = 0.25\nlimit_h0 = 0.02\n")
    with pytest.raises(ValueError, match=f"{path}:3: limit_h0 is set twice"):
        parse_config(path)


def test_unknown_config_key_raises():
    with pytest.raises(ValueError, match="unknown config key: limit_h$"):
        _study_config({"limit_h": "0.02"})
    # the study's own config loads, its check_* windows included
    cfg = parse_config(ROOT / "configs" / "study.cfg")
    assert _study_config(cfg).limit_h0 == 0.04


def test_shipped_study_config_is_the_default():
    # test_1 runs StudyConfig() and checks it against report/, which
    # `thinwall study --config configs/study.cfg` writes
    cfg = parse_config(ROOT / "configs" / "study.cfg")
    assert _study_config(cfg) == StudyConfig()


def test_params_from_overrides():
    p = _params_from({})
    assert p.L == 0.5 and not p.hole.is_empty
    assert p == StudyConfig().params
    p = _params_from({"k0": "4.25*pi", "L": "0.5", "hole_radius": "0"})
    np.testing.assert_allclose(p.k0, 4.25 * math.pi)
    assert p.hole.is_empty
    p = _params_from({"hole_radius": "0.2", "theta": "1.5*pi"})
    assert p.hole.radius == 0.2
    np.testing.assert_allclose(p.theta, 1.5 * math.pi)


def test_study_config_from_flat_keys():
    cfg = {"k0": "5*pi", "deltas": "1/8,1/16", "alpha": "0.3",
           "exact_degree": "2", "cutoff": "poly", "exact_max_dofs": "100000",
           # every float key reads like deltas
           "exact_h0": "1/20", "cell_T": "12/2", "L": "1/2", "Hp": "3/4",
           "hole_radius": "3/20"}
    sc = _study_config(cfg)
    assert sc.deltas == (0.125, 0.0625)
    assert (sc.exact_h0, sc.cell_T) == (0.05, 6.0)
    assert (sc.params.L, sc.params.Hp, sc.params.hole.radius) == (0.5, 0.75,
                                                                   0.15)
    assert sc.alpha == 0.3
    assert sc.exact_degree == 2
    assert sc.cutoff == "poly"
    assert sc.exact_max_dofs == 100000


def test_acceptance_checks_logic():
    rep = ConvergenceReport()
    rep.slopes = {"e0": (0.95, 0.0, 0.0), "e1": (1.30, 0.0, 0.0)}
    cfg = {"check_e0": "0.85,1.10", "check_e1": "1.40,1.60",
           "check_e2": "1.75,2.05", "unrelated": "x"}
    lines, ok = _acceptance_checks(_windows(cfg), rep)
    assert not ok
    assert len(lines) == 3
    assert any(line.startswith("PASS e0") for line in lines)
    assert any(line.startswith("FAIL e1") for line in lines)
    assert any(line == "FAIL e2: no fitted slope" for line in lines)
    lines, ok = _acceptance_checks({"e0": (0.85, 1.10)}, rep)
    assert ok and len(lines) == 1


@pytest.mark.parametrize("window", ["0.85", "0.85, 1.1, 2", "1.1, 0.85",
                                    "0.85, x"])
def test_check_windows_are_read_before_the_sweep(tmp_path, monkeypatch,
                                                 capsys, window):
    path = tmp_path / "c.cfg"
    path.write_text(f"check_e1 = 1.2, 1.45\ncheck_e0 = {window}\n")

    def no_study(*args, **kwargs):
        raise AssertionError("the sweep ran before the windows were read")

    monkeypatch.setattr(cli, "run_study", no_study)
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "check_e0" in capsys.readouterr().err


def test_cli_cell_constants_smoke(capsys):
    rc = main(["cell-constants", "--T", "4", "--h0", "0.12", "--degree", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"D1", "D2", "N1", "N2", "N3", "D_infty"}
    # symmetric default hole: the odd constants are tiny
    assert abs(out["D1"][0]) < 1e-3 * abs(out["D2"][0])


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("thinwall ")]
    assert len(lines) == 5
    for line in lines:
        _parser().parse_args(shlex.split(line, comments=True)[1:])


def test_flags_override_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("k0 = 3*pi\nnf_h0 = 0.5\nnf_Rmax = 25\n")
    args = _parser().parse_args(["nearfield", "--config", str(path),
                                 "--rmax", "30", "--degree", "1"])
    cfg = _config_of(args)
    assert (cfg.nf_Rmax, cfg.nf_degree, cfg.nf_h0) == (30.0, 1, 0.5)
    np.testing.assert_allclose(cfg.params.k0, 3 * math.pi)
    assert cfg.cell_h0 == StudyConfig().cell_h0
    # without --config every subcommand runs the study's defaults
    assert _config_of(_parser().parse_args(["cell-constants"])) == StudyConfig()


def test_config_of_builds_one_study_config(monkeypatch):
    # each StudyConfig build checks every geometry: --config and a flag
    # make one build, not one per layer of overrides
    runs = []
    post_init = StudyConfig.__post_init__
    monkeypatch.setattr(StudyConfig, "__post_init__",
                        lambda self: runs.append(1) or post_init(self))
    args = _parser().parse_args(["cell-constants", "--config",
                                 str(ROOT / "configs" / "study.cfg"),
                                 "--h0", "0.1"])
    assert _config_of(args).cell_h0 == 0.1
    assert len(runs) == 1


def test_number_flags_take_the_config_forms():
    args = _parser().parse_args(["cell-constants", "--h0", "1/20",
                                 "--T", "6"])
    assert (args.cell_h0, args.cell_T) == (0.05, 6.0)
    args = _parser().parse_args(["solve-exact", "--delta", "1/8",
                                 "--h0", "1/10"])
    assert (args.delta, args.exact_h0) == (0.125, 0.1)
    args = _parser().parse_args(["nearfield", "--rmax", "20", "--h0", "9/20",
                                 "--cell-h0", "3/50"])
    assert (args.nf_Rmax, args.nf_h0, args.cell_h0) == (20.0, 9 / 20, 3 / 50)


@pytest.mark.parametrize("value", ["1/0", "pi/0", "2*pi/0", "abc"])
def test_bad_number_flag_is_a_usage_error(value, capsys):
    # argparse exits 2 with its usage line, naming the type "number"
    with pytest.raises(SystemExit) as exc:
        _parser().parse_args(["cell-constants", "--h0", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"invalid number value: '{value}'" in err


def test_zero_denominator_in_a_config_raises_value_error():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        _study_config({"cell_h0": "1/0"})
    with pytest.raises(ValueError, match="zero denominator"):
        _study_config({"deltas": "1/8, 1/0"})


@pytest.mark.parametrize("line, message", [
    ("cell_h0 = 1/0", "zero denominator in '1/0'"),
    ("cell_h0 = -0.1", "cell_h0 must be positive"),
    ("cell_h = 0.1", "unknown config key: cell_h"),
    ("check_e0 = 1.1, 0.85", "check_e0 = 1.1, 0.85: expected 'lo, hi'"),
    ("hole_radius = 0.6", "hole must be strictly inside (0,1) x (-1,1)"),
    ("deltas = 1", "delta = 1.0 too large for the domain"),
])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                           line, message):
    path = tmp_path / "c.cfg"
    path.write_text(line + "\n")

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran on a bad config")

    monkeypatch.setattr(cli, "cell_constants", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["cell-constants", "--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"thinwall: error: {message}" in err


@pytest.mark.parametrize("argv, message", [
    (["cell-constants", "--degree", "4"], "cell_degree must be 1, 2 or 3"),
    (["solve-exact", "--delta", "0.3"], "delta 0.3 does not divide the wall"),
    (["cell-constants", "--T", "3"], "cell_T must be at least 4"),
    (["nearfield", "--rmax", "10"], "nf_Rmax must be at least 20"),
    (["cell-constants", "--cutoff", "tanh"], "unknown cut-off profile 'tanh'"),
    (["solve-exact", "--delta", "1"], "delta = 1.0 too large for the domain"),
])
def test_flag_the_study_rejects_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"thinwall: error: {message}" in err


def test_config_keys_are_the_dataclasses_float_int_str_fields():
    @dataclasses.dataclass
    class Probe:
        a: float = 0.0
        b: int = 0
        c: str = ""
        d: int | None = None
        e: tuple = ()

    assert cli._keys(Probe) == {"a": _eval_number, "b": int, "c": str}
    num = _eval_number
    assert cli._FIELDS == {
        "alpha": num, "exact_h0": num, "exact_degree": int, "limit_h0": num,
        "limit_degree": int, "cell_T": num, "cell_h0": num, "cell_degree": int,
        "nf_Rmax": num, "nf_h0": num, "nf_degree": int, "cutoff": str,
        "exact_max_dofs": int}
    assert cli._PARAMS == {key: num for key in ("L", "Lp", "H", "Hp", "theta",
                                                "k0")}


def test_non_positive_h0_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cell-constants", "--h0", "-0.1"])
    assert exc.value.code == 2
    assert "cell_h0 must be positive" in capsys.readouterr().err


def test_out_names_the_file_written(tmp_path, capsys):
    out = tmp_path / "ref.json"
    rc = main(["solve-exact", "--delta", "0.5", "--h0", "0.3", "--degree",
               "2", "--out", str(out)])
    assert rc == 0
    first, *_, wrote = capsys.readouterr().out.splitlines()
    # the full dof count and the unknowns SuperLU factored
    ndof, factored = map(int, re.match(r"ndof (\d+)  factored (\d+)  ",
                                       first).groups())
    assert 0 < factored <= ndof
    assert wrote.startswith("wrote ")
    path = Path(wrote[len("wrote "):])
    assert path.exists()
    assert np.load(path)["degree"] == 2


def _openblas_threads(code):
    """OPENBLAS_NUM_THREADS as seen when code, run in a fresh interpreter
    with the variable unset, first imports numpy, and as code leaves it:
    {"numpy": .., "after": ..}."""
    spy = (
        "import os, sys\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print('numpy', os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "            sys.meta_path.remove(self)\n"
        "sys.meta_path.insert(0, Spy())\n")
    after = "print('after', os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", spy + code + after],
                         env=env, capture_output=True, text=True, check=True)
    return dict(line.split() for line in out.stdout.splitlines()
                if line.startswith(("numpy ", "after ")))


def test_library_import_leaves_blas_threads_alone():
    code = "import thinwall, thinwall.cli, thinwall.fem\n"
    assert _openblas_threads(code) == {"numpy": "None", "after": "None"}


def test_cli_import_leaves_spline_and_optimize_unloaded():
    # scipy.interpolate, which pulls in scipy.optimize, loads only when the
    # cascade splines its interface data
    code = ("import sys, thinwall.cli\n"
            "print(*sorted(m for m in ('scipy.interpolate', 'scipy.optimize')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_solve_exact_and_nearfield_run_the_harness_stages(monkeypatch,
                                                          capsys):
    # each subcommand reaches its solver through the harness, with the
    # settings of its flags
    calls = {}

    def solve_exact(*args, **kwargs):
        calls["solve_exact"] = args, kwargs
        return SimpleNamespace(ndof=9, factored=5, residual=0.0,
                               flux_balance=lambda: 0.0)

    def solve_S(*args, **kwargs):
        calls["solve_S"] = args, kwargs
        return {"minus": SimpleNamespace(as_dict=lambda: {"ndof": 3})}

    monkeypatch.setattr(harness, "solve_exact", solve_exact)
    monkeypatch.setattr(harness, "solve_S", solve_S)
    monkeypatch.setattr(cli, "cell_constants", lambda cfg: "constants")
    assert main(["solve-exact", "--delta", "1/16", "--h0", "0.07",
                 "--degree", "2", "--max-dofs", "5000"]) == 0
    assert main(["nearfield", "--side", "minus", "--n", "2", "--rmax", "25",
                 "--h0", "0.5", "--degree", "1", "--cutoff", "poly"]) == 0
    p = StudyConfig().params
    assert calls["solve_exact"] == ((p, 1 / 16), dict(
        h0=0.07, degree=2, grading=None, max_dofs=5000))
    assert calls["solve_S"] == ((("minus",), 2, "constants", p.hole), dict(
        theta=p.theta, Rmax=25.0, h0=0.5, degree=1, cutoff="poly"))
    out = capsys.readouterr().out
    assert out.startswith("ndof 9  factored 5  ")
    assert json.loads(out.split("\n", 1)[1]) == {"ndof": 3}


# a coarse model: P2 cell and limit meshes, a P1 cone
COARSE = ("cell_T = 4\ncell_h0 = 0.3\ncell_degree = 2\n"
          "nf_h0 = 0.9\nnf_degree = 1\n"
          "limit_h0 = 0.15\nlimit_degree = 2\n")


def test_nearfield_end_to_end(tmp_path, capsys):
    path = tmp_path / "coarse.cfg"
    path.write_text(COARSE)
    assert main(["nearfield", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"side", "n", "Rmax", "ndof", "reused_factorization",
                        "ell", "radial_residual", "log_coefficient"}
    assert (out["side"], out["n"], out["Rmax"]) == ("plus", 1, 20.0)
    assert set(out["ell"]) == {"0", "1", "2", "3"}
    # a P1 cone has a dof at each node of its mesh
    cone = triangulate(build_cone_geometry(
        1.5 * math.pi, 20.0, side_polygon("plus", HoleSpec())), 0.9)
    assert out["ndof"] == len(cone.nodes)


def test_cascade_end_to_end(tmp_path, capsys):
    path = tmp_path / "coarse.cfg"
    path.write_text(COARSE)
    assert main(["cascade", "--config", str(path),
                 "--out", str(tmp_path / "terms")]) == 0
    wrote = capsys.readouterr().out.splitlines()[-1]
    ndof = int(re.fullmatch(r"wrote .*terms\.npz \((\d+) dofs per field\)",
                            wrote).group(1))
    data = np.load(tmp_path / "terms.npz")
    assert set(data.files) == {
        "nodes", "elements", "degree", "u00", "u01_hat", "u20_hat",
        "constants", "corner_ell_plus", "corner_ell_minus", "L_minus_1",
        "u20_lift_coeffs"}
    assert data["degree"] == 2
    # a P2 field has a dof at each node and at each edge of the mesh
    tri = np.sort(data["elements"], axis=1)
    edges = np.unique(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                      tri[:, [0, 2]]]), axis=0)
    assert ndof == len(data["nodes"]) + len(edges)
    for name in ("u00", "u01_hat", "u20_hat"):
        assert data[name].shape == (ndof,)
    # the default hole is symmetric, so are its two corners
    plus, minus = data["L_minus_1"]
    assert abs(plus - minus) <= 1e-4 * abs(plus)
