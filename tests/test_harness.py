import gc
import math
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinwall import harness
from thinwall.errors import DegenerateFit
from thinwall.geometry import (CELL_T_MIN, CONE_RMAX_MIN, build_cell_geometry,
                               build_cone_geometry)
from thinwall.harness import (CSV_HEADER, ConvergenceReport, Samples,
                              StudyConfig, emit_outputs, errors_on_region,
                              fit_slope, read_report_csv, reference_samples)
from thinwall.params import DomainParams, HoleSpec


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


def test_two_point_fit_has_no_error_bar():
    # two points leave no residual: the half-width is unknown, not zero
    slope, _, half = fit_slope([(1 / 8, 0.2), (1 / 16, 0.1)])
    np.testing.assert_allclose(slope, 1.0, rtol=1e-12)
    assert math.isnan(half)


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


class _Offsets:
    """A stub expansion whose truncations lie off u by 0, 1 and 2i."""

    def __init__(self, u):
        self.u = u

    def truncations(self, points, delta):
        return self.u, self.u + 1, self.u + 2j


def test_errors_read_only_the_samples():
    u, w = np.array([1.0 + 2.0j, -0.5j, 3.0]), np.array([0.25, 0.5, 2.0])
    samples = Samples(delta=0.125, ndof=0, degree=3, pts=np.zeros((3, 2)),
                      w=w, u=u)
    e = errors_on_region(samples, _Offsets(u))
    np.testing.assert_allclose(e, [0.0, math.sqrt(w.sum()),
                                   2.0 * math.sqrt(w.sum())], rtol=1e-15)


_COARSE = StudyConfig(exact_h0=0.15, exact_degree=1, deltas=(0.25,))


def test_region_quadrature_excludes_wall_strip():
    s = reference_samples(_COARSE, 0.25)
    alpha, L = _COARSE.alpha, _COARSE.params.L
    assert (s.delta, s.degree) == (0.25, 1)
    assert len(s.pts) == len(s.w) == len(s.u) > 0
    assert np.all(s.w > 0)
    assert np.all((np.abs(s.pts[:, 1]) >= alpha)
                  | (np.abs(s.pts[:, 0]) >= L + alpha))
    # the strip really is removed: some quadrature points were dropped
    full = harness.solve_exact(_COARSE.params, 0.25, h0=0.15, degree=1)
    assert s.ndof == full.ndof
    assert len(s.pts) < len(full.field.space.quad_global()[0])


def test_reference_samples_free_the_solve(monkeypatch):
    solve, spaces = harness.solve_exact, []

    def traced(*args, **kwargs):
        res = solve(*args, **kwargs)
        spaces.append(weakref.ref(res.field.space))
        return res

    monkeypatch.setattr(harness, "solve_exact", traced)
    reference_samples(_COARSE, 0.25)
    gc.collect()
    assert len(spaces) == 1 and spaces[0]() is None


def test_study_config_validation():
    StudyConfig()  # defaults are consistent
    with pytest.raises(ValueError):
        StudyConfig(deltas=(0.3,))
    with pytest.raises(ValueError):
        StudyConfig(alpha=0.0)


@pytest.mark.parametrize("field, value", [
    ("exact_degree", 4), ("limit_degree", 0), ("nf_degree", 5),
    ("cell_degree", 7)])
def test_degree_outside_1_to_3_raises_before_the_sweep(field, value):
    with pytest.raises(ValueError, match=f"{field} must be 1, 2 or 3"):
        StudyConfig(**{field: value})


def test_dof_cap_below_one_raises_before_the_sweep():
    with pytest.raises(ValueError, match="exact_max_dofs must be at least 1"):
        StudyConfig(exact_max_dofs=0)


@pytest.mark.parametrize("deltas", [(math.inf,), (1 / 8, math.inf), (0.3,)])
def test_delta_of_no_period_raises_before_the_sweep(deltas):
    # 2L / inf = 0 is a whole number, but not a positive one; the check is
    # the perforated domain's, which counts the periods
    with pytest.raises(ValueError, match=f"delta {deltas[-1]} does not "
                                         "divide the wall: 2L/delta = "):
        StudyConfig(deltas=deltas)


@pytest.mark.parametrize("deltas", [(0.0,), (-1 / 8, 1 / 16), (1 / 8, -0.25)])
def test_non_positive_delta_raises_before_the_sweep(deltas):
    # -1/8 divides the wall, so only the sign check stops it
    with pytest.raises(ValueError, match="must be positive"):
        StudyConfig(deltas=deltas)


@pytest.mark.parametrize("name", ["exact_h0", "limit_h0", "cell_h0", "nf_h0"])
@pytest.mark.parametrize("value", [0.0, -0.05])
def test_non_positive_mesh_size_raises_before_the_sweep(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        StudyConfig(**{name: value})


def test_negative_grading_raises_before_the_sweep():
    # a negative depth would mesh the references ungraded, as 0 does
    StudyConfig(exact_grading=None)
    StudyConfig(exact_grading=0)
    with pytest.raises(ValueError, match="exact_grading must be None or at "
                                         "least 0"):
        StudyConfig(exact_grading=-3)


@pytest.mark.parametrize("field, value, message", [
    ("cell_T", 3.5, "cell_T must be at least 4"),
    ("cell_T", math.nan, "cell_T must be at least 4"),
    ("nf_Rmax", 19.0, "nf_Rmax must be at least 20"),
    ("cutoff", "tanh", "unknown cut-off profile 'tanh'")])
def test_stage_limits_raise_before_the_sweep(field, value, message):
    with pytest.raises(ValueError, match=message):
        StudyConfig(**{field: value})


def test_stage_limits_are_the_geometrys():
    # the study admits the least cell and cone the geometry builds, and
    # nothing below them
    StudyConfig(cell_T=CELL_T_MIN, nf_Rmax=CONE_RMAX_MIN)
    build_cell_geometry(HoleSpec(), CELL_T_MIN)
    build_cone_geometry(1.5 * math.pi, CONE_RMAX_MIN, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        build_cell_geometry(HoleSpec(), 0.99 * CELL_T_MIN)
    with pytest.raises(ValueError):
        build_cone_geometry(1.5 * math.pi, 0.99 * CONE_RMAX_MIN,
                            np.zeros((0, 2)))


# a config whose every reference and cone setting is off its default
STAGE_CFG = StudyConfig(exact_h0=0.07, exact_degree=2, exact_grading=3,
                        exact_max_dofs=12345, nf_Rmax=25.0, nf_h0=0.5,
                        nf_degree=1, cutoff="poly", deltas=(1 / 8,))


def capture(monkeypatch, name, result):
    """Replace harness.<name> by a stub that records its call and returns
    result; returns the list of (args, kwargs) it records."""
    calls = []
    monkeypatch.setattr(harness, name, lambda *args, **kwargs:
                        calls.append((args, kwargs)) or result)
    return calls


def test_solve_reference_forwards_the_reference_settings(monkeypatch):
    calls = capture(monkeypatch, "solve_exact", "res")
    assert harness.solve_reference(STAGE_CFG, 1 / 16) == "res"
    assert calls == [((STAGE_CFG.params, 1 / 16),
                      dict(h0=0.07, degree=2, grading=3, max_dofs=12345))]


def test_near_fields_forwards_the_cone_settings(monkeypatch):
    calls = capture(monkeypatch, "solve_S", "sols")
    p = STAGE_CFG.params
    assert harness.near_fields(STAGE_CFG, "constants") == "sols"
    assert harness.near_fields(STAGE_CFG, "constants", ("minus",), 2) \
        == "sols"
    kwargs = dict(theta=p.theta, Rmax=25.0, h0=0.5, degree=1, cutoff="poly")
    assert calls == [((("plus", "minus"), 1, "constants", p.hole), kwargs),
                     ((("minus",), 2, "constants", p.hole), kwargs)]


class _StubExpansion:
    constants = types.SimpleNamespace(as_dict=dict)

    @staticmethod
    def truncations(pts, delta):
        return [np.zeros(len(pts))] * 3


def test_study_log_prints_delta_as_the_report_does(monkeypatch):
    # 1/delta is no whole number for either delta of this sweep
    cfg = StudyConfig(params=DomainParams(L=0.75), deltas=(0.3, 0.15))
    monkeypatch.setattr(harness, "build_model", lambda cfg, log: (
        _StubExpansion(), {"plus": -0.03, "minus": -0.03}, {}))
    monkeypatch.setattr(harness, "reference_samples", lambda cfg, delta: (
        Samples(delta, 7, 3, np.zeros((1, 2)), np.ones(1), np.ones(1))))
    lines = []
    rep = harness.run_study(cfg, log=lines.append)
    assert [r[:2] for r in rep.rows] == [(0.3, 7), (0.15, 7)]
    assert [line.split(" dofs=")[0] for line in lines
            if line.startswith("[study] delta=")] \
        == ["[study] delta=0.3", "[study] delta=0.15"]
