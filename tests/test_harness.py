import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinwall.errors import DegenerateFit
from thinwall.harness import (CSV_HEADER, ConvergenceReport, StudyConfig,
                              _region_quadrature, emit_outputs, fit_slope,
                              read_report_csv)
from thinwall.params import DomainParams


def test_fit_slope_exact_power():
    deltas = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    slope, intercept, half = fit_slope([(d, 3.7 * d ** 1.5) for d in deltas])
    np.testing.assert_allclose(slope, 1.5, rtol=1e-12)
    np.testing.assert_allclose(intercept, math.log(3.7), rtol=1e-10)
    assert half < 1e-10


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=25, deadline=None)
def test_fit_slope_recovers_any_power(p, C):
    pairs = [(d, C * d ** p) for d in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
    slope, _, _ = fit_slope(pairs)
    np.testing.assert_allclose(slope, p, rtol=1e-7, atol=1e-9)


def test_fit_slope_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_slope([(0.1, 1.0)])
    with pytest.raises(DegenerateFit):
        fit_slope([(0.1, 1.0), (0.05, -1.0)])
    with pytest.raises(DegenerateFit):
        fit_slope([(0.1, 0.0), (0.05, 1.0)])
    with pytest.raises(DegenerateFit):
        fit_slope([(0.1, 1.0), (0.1, 2.0)])


def test_fit_slope_logarithmic_pollution():
    # delta^2 |ln delta| reads as a slightly depressed quadratic slope
    deltas = [2.0 ** -k for k in range(2, 8)]
    slope, _, _ = fit_slope([(d, d * d * abs(math.log(d))) for d in deltas])
    assert 1.5 < slope < 2.0
    # the depression fades as the window moves to smaller delta
    deltas = [2.0 ** -k for k in range(10, 16)]
    slope, _, _ = fit_slope([(d, d * d * abs(math.log(d))) for d in deltas])
    assert 1.85 < slope < 2.0


def test_emit_and_read_round_trip(tmp_path):
    assert CSV_HEADER == "delta,dofs,e0,e1,e2"
    rows = [(0.125, 1000, 1.1e-1, 2.2e-2, 3.3e-3),
            (0.0625, 4000, 5.5e-2, 6.6e-3, 7.7e-4)]
    rep = ConvergenceReport(rows=rows)
    rep.slopes["e0"] = (1.0, 0.0, 0.1)
    csv_path = emit_outputs(rep, tmp_path / "out")
    back = read_report_csv(csv_path)
    np.testing.assert_allclose(np.array(back), np.array(rows), rtol=1e-12)
    assert (tmp_path / "out" / "report.txt").exists()
    assert (tmp_path / "out" / "plot.gp").exists()
    with pytest.raises(ValueError):
        (tmp_path / "out" / "bad.csv").write_text("nope\n")
        read_report_csv(tmp_path / "out" / "bad.csv")


def test_region_quadrature_excludes_wall_strip():
    from thinwall.cascade import build_limit_space
    p = DomainParams()
    space = build_limit_space(p, h0=0.3, degree=1)
    alpha = 0.25
    pts, w, keep = _region_quadrature(space, p, alpha)
    assert np.all(w > 0)
    assert np.all((np.abs(pts[:, 1]) >= alpha)
                  | (np.abs(pts[:, 0]) >= p.L + alpha))
    # the strip really is removed: some quadrature points were dropped
    full_pts, _ = space.quad_global()
    assert keep.sum() == len(pts) < len(full_pts)


def test_study_config_validation():
    StudyConfig()  # defaults are consistent
    with pytest.raises(ValueError):
        StudyConfig(deltas=(0.3,))
    with pytest.raises(ValueError):
        StudyConfig(alpha=0.0)
