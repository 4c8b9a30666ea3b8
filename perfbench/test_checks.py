"""Self-tests of the benchmark's checks; no workload is run.

Each test feeds a workload's checks a result doctored to be wrong and
confirms that the check fails, after confirming that the undoctored result
passes.  The good figures are those of the first benchmark runs.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks      # noqa: E402
import workloads   # noqa: E402

CONSTANTS = {"D1": 4.95e-9, "D2": 0.15164001, "N1": 4.3322947,
             "N2": 0.13085987, "N3": 2.39e-9, "D_infty": 0.07582001}
STUDY = {"slopes": {"e0": 0.9645, "e1": 1.4158, "e2": 1.9698},
         "degrees": [3, 3],
         "rows": [(1 / 8, 0.28011, 0.10419, 0.064666),
                  (1 / 16, 0.14355, 0.039048, 0.016508)],
         "constants": CONSTANTS,
         "L_minus_1": {"plus": -0.029846, "minus": -0.029835}}
CELL = [CONSTANTS, dict(CONSTANTS, D2=0.15164034, N2=0.13086008,
                        D_infty=0.07582017)]
REFERENCES = [{"degree": 3, "flux": 4.0e-16, "power": 6.8832178},
              {"degree": 3, "flux": 4.0e-16, "power": 6.7627745},
              {"degree": 3, "flux": 1.4e-15, "power": 6.7067993}]
LIMIT_POWER = 6.6521003


def _workload(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(HERE.parent)
    inputs["limit_power"] = LIMIT_POWER   # skip the limit solve
    return wl, inputs, wl.ops(inputs)


def _failures(name, datas):
    """Check messages of one round of workload `name` on `datas`."""
    wl, inputs, ops = _workload(name)
    out = []
    for op, data in zip(ops, datas):
        out += op.check(data)
    if wl.check_round is not None:
        out += wl.check_round(inputs, datas)
    return out


def test_good_results_pass():
    assert _failures("study", [STUDY]) == []
    assert _failures("cell", CELL) == []
    assert _failures("references", REFERENCES) == []


def test_slope_outside_window():
    bad = copy.deepcopy(STUDY)
    bad["slopes"]["e1"] = 1.50
    assert any("slope e1" in m for m in _failures("study", [bad]))


def test_missing_slope():
    bad = copy.deepcopy(STUDY)
    del bad["slopes"]["e2"]
    assert any("slope e2" in m for m in _failures("study", [bad]))


def test_degree_two_reference():
    bad = copy.deepcopy(REFERENCES)
    bad[2]["degree"] = 2
    assert any("degree 2" in m for m in _failures("references", bad))
    study = copy.deepcopy(STUDY)
    study["degrees"] = [3, 2]
    assert any("degree 2" in m for m in _failures("study", [study]))


def test_flux_defect():
    bad = copy.deepcopy(REFERENCES)
    bad[1]["flux"] = 1e-6
    assert any("flux" in m for m in _failures("references", bad))


def test_power_ratio_one():
    bad = copy.deepcopy(REFERENCES)
    for r, p in zip(bad, (6.90, 6.80, 6.70)):
        r["power"] = p
    assert any("shrink by 1.000" in m for m in _failures("references", bad))


def test_richardson_off():
    assert checks.power_sweep([r["power"] for r in REFERENCES],
                              LIMIT_POWER * 1.01)


def test_d_infty_off_by_one_percent():
    bad = copy.deepcopy(CELL)
    bad[0]["D_infty"] *= 1.01
    assert any("dipole-row" in m for m in _failures("cell", bad))


def test_odd_constant_of_symmetric_hole():
    bad = copy.deepcopy(CELL)
    bad[1]["N3"] = 1e-5
    assert any("symmetric hole" in m for m in _failures("cell", bad))
    study = copy.deepcopy(STUDY)
    study["constants"] = dict(CONSTANTS, D1=1e-5)
    assert any("symmetric hole" in m for m in _failures("study", [study]))


def test_refinement_moves_constant():
    bad = copy.deepcopy(CELL)
    bad[1]["N2"] += 1e-4
    assert any("refinement: N2" in m for m in _failures("cell", bad))


def test_cones_disagree():
    bad = copy.deepcopy(STUDY)
    bad["L_minus_1"]["minus"] = -0.0305
    assert any("cones" in m for m in _failures("study", [bad]))


def test_errors_not_decreasing():
    bad = copy.deepcopy(STUDY)
    bad["rows"][1] = (1 / 16, 0.14355, 0.039048, 0.04)
    assert any("do not decrease" in m for m in _failures("study", [bad]))


def test_polygon_area():
    assert abs(checks.regular_polygon_area(32, 0.15) - 0.0702325) < 1e-7
    assert abs(checks.regular_polygon_area(4, 1.0) - 2.0) < 1e-15


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main([__file__, "-q"]))
