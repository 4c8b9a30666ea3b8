import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from thinwall.cli import (_acceptance_checks, _config_of, _eval_number,
                          _floats, _params_from, _parser, _study_config, main,
                          parse_config)
from thinwall.harness import ConvergenceReport, StudyConfig


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


def test_params_from_overrides():
    p = _params_from({})
    assert p.L == 0.5 and p.hole.kind != "none"
    assert p == StudyConfig().params
    p = _params_from({"k0": "4.25*pi", "L": "0.5", "hole_radius": "0"})
    np.testing.assert_allclose(p.k0, 4.25 * math.pi)
    assert p.hole.kind == "none"
    p = _params_from({"hole_radius": "0.2", "theta": "1.5*pi"})
    assert p.hole.radius == 0.2
    np.testing.assert_allclose(p.theta, 1.5 * math.pi)


def test_study_config_from_flat_keys():
    cfg = {"k0": "5*pi", "deltas": "1/8,1/16", "alpha": "0.3",
           "exact_degree": "2", "cutoff": "poly", "exact_max_dofs": "100000"}
    sc = _study_config(cfg)
    assert sc.deltas == (0.125, 0.0625)
    assert sc.alpha == 0.3
    assert sc.exact_degree == 2
    assert sc.cutoff == "poly"
    assert sc.exact_max_dofs == 100000


def test_acceptance_checks_logic():
    rep = ConvergenceReport()
    rep.slopes = {"e0": (0.95, 0.0, 0.0), "e1": (1.30, 0.0, 0.0)}
    cfg = {"check_e0": "0.85,1.10", "check_e1": "1.40,1.60",
           "check_e2": "1.75,2.05", "unrelated": "x"}
    lines, ok = _acceptance_checks(cfg, rep)
    assert not ok
    assert len(lines) == 3
    assert any(line.startswith("PASS e0") for line in lines)
    assert any(line.startswith("FAIL e1") for line in lines)
    assert any(line == "FAIL e2: no fitted slope" for line in lines)
    lines, ok = _acceptance_checks({"check_e0": "0.85,1.10"}, rep)
    assert ok and len(lines) == 1


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


def test_out_names_the_file_written(tmp_path, capsys):
    out = tmp_path / "ref.json"
    rc = main(["solve-exact", "--delta", "0.5", "--h0", "0.3", "--degree",
               "2", "--out", str(out)])
    assert rc == 0
    wrote = capsys.readouterr().out.splitlines()[-1]
    assert wrote.startswith("wrote ")
    path = Path(wrote[len("wrote "):])
    assert path.exists()
    assert np.load(path)["degree"] == 2
