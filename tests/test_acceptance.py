"""End-to-end acceptance checks, one test (and one summary line) per
headline criterion.  Each test prints a [PASS]/[FAIL] line that conftest
re-emits in the terminal summary, then asserts it.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import record_acceptance, helmholtz_rate, transmission_rate
from thinwall.bessel import bessel_j_array, bessel_jy, bessel_y_array
from thinwall.cascade import build_expansion, build_limit_space, compute_u00
from thinwall.cell import build_cell, compute_constants
from thinwall.corner import (CornerFrame, jump_data, lambda_n,
                             solve_angular_profile, w_base)
from thinwall.harness import (StudyConfig, emit_outputs, read_report_csv,
                              run_study)
from thinwall.nearfield import extract_L, solve_S
from thinwall.params import DomainParams, HoleSpec

THETA = 1.5 * math.pi
K0 = 5.0 * math.pi


# -- shared production-resolution cell (criteria 3, 4 and 6) --------------------

@pytest.fixture(scope="module")
def base_cell():
    t0 = time.time()
    cell = build_cell(HoleSpec(), T=6.0, h0=0.045, degree=3)
    return cell, time.time() - t0


@pytest.fixture(scope="module")
def base_constants(base_cell):
    cell, secs = base_cell
    t0 = time.time()
    c = compute_constants(cell, K0)
    return c, secs + (time.time() - t0)


def _region_points(p: DomainParams, alpha):
    """Grid over the waveguide with the strip |x2| < alpha excluded
    (except beyond the interface tips, where the wall is absent)."""
    xs = np.linspace(-p.Lp + 0.05, p.Lp - 0.05, 40)
    ys = np.linspace(0.05, p.H - 0.05, 12)
    X, Y = np.meshgrid(xs, ys)
    upper = np.column_stack([X.ravel(), Y.ravel()])
    keep = (np.abs(upper[:, 1]) >= alpha) | (np.abs(upper[:, 0]) >= p.L + alpha)
    upper = upper[keep]
    xs = np.linspace(-p.L + 0.05, p.L - 0.05, 10)
    ys = np.linspace(-p.Hp + 0.05, -alpha - 0.05, 8)
    X, Y = np.meshgrid(xs, ys)
    lower = np.column_stack([X.ravel(), Y.ravel()])
    return np.vstack([upper, lower])


# -- criterion 1: convergence slopes of the truncated expansion -----------------

def test_1_convergence_slopes(tmp_path):
    t0 = time.time()
    cfg = StudyConfig()
    rep = run_study(cfg, log=lambda *a, **k: None)
    emit_outputs(rep, tmp_path)
    wall = time.time() - t0
    windows = {"e0": (0.85, 1.10), "e1": (1.20, 1.45), "e2": (1.75, 2.05)}
    # every reference runs at the configured degree (solve_exact raises
    # rather than lower it), and the record says so
    ok = wall <= 2700.0 and rep.degrees == [cfg.exact_degree] * len(cfg.deltas)
    parts = [f"degrees={rep.degrees}"]
    for name, (lo, hi) in windows.items():
        s = rep.slopes[name][0]
        good = lo <= s <= hi
        ok = ok and good
        parts.append(f"{name}={s:.3f}" + ("" if good
                                          else f" (outside [{lo},{hi}])"))
    # the sweep reproduces the committed report/report.csv: the same dofs,
    # and errors to its 12 printed digits, up to round-off
    committed = read_report_csv(Path(__file__).resolve().parents[1]
                                / "report" / "report.csv")
    same = len(committed) == len(rep.rows) and all(
        r[:2] == c[:2] and np.allclose(r[2:], c[2:], rtol=1e-9, atol=0.0)
        for r, c in zip(rep.rows, committed))
    ok = ok and same
    parts.append("report.csv " + ("reproduced" if same else "differs"))
    detail = ", ".join(parts) + f", wall={wall:.0f}s"
    assert record_acceptance("1 expansion convergence slopes", ok, detail)


# -- criterion 2: transparent layer collapses to the limit field ----------------

def test_2_transparent_layer():
    t0 = time.time()
    p = DomainParams(hole=HoleSpec(radius=0.0))
    cell = build_cell(p.hole, T=4.0, h0=0.3, degree=2)
    c = compute_constants(cell, p.k0)
    cmax = max(abs(c.D1), abs(c.D2), abs(c.N1), abs(c.N2), abs(c.N3))
    ok = cmax <= 1e-8
    # with zero jump data the first-order angular profiles vanish, so the
    # cone problems are solved by the growing mode alone and every decaying
    # amplitude is zero without any numerics
    for side in ("plus", "minus"):
        jv, jd = jump_data(lambda_n(1, p.theta), side, c)
        w11 = solve_angular_profile(1, jv, jd, p.theta)
        ok = ok and w11.a == w11.b == 0
    expansion = build_expansion(p, c, {"plus": 0.0, "minus": 0.0},
                                h0=0.1, degree=2)
    pts = _region_points(p, 0.25)
    v00, v01, v20 = expansion.evaluate_terms(pts)
    trunc2 = expansion.truncation(2, pts, 1.0 / 16.0)
    dev = float(np.max(np.abs(trunc2 - v00)))
    wall = time.time() - t0
    ok = ok and dev <= 1e-9 and wall <= 120.0
    assert record_acceptance(
        "2 transparency oracle", ok,
        f"max|constant|={cmax:.1e}, max|trunc2-u00|={dev:.1e}, "
        f"wall={wall:.0f}s")


# -- criterion 3: mirror-symmetric hole kills the odd constants -----------------

def test_3_symmetric_hole_odd_constants(base_constants):
    c, secs = base_constants
    scale = max(abs(c.D2), abs(c.N2))
    ratio = max(abs(c.D1), abs(c.N3)) / scale
    ok = ratio <= 1e-6 and secs <= 120.0
    assert record_acceptance(
        "3 symmetric-hole identities", ok,
        f"max(|D1|,|N3|)/max(|D2|,|N2|)={ratio:.2e}, wall={secs:.0f}s")


# -- criterion 4: constants robust to strip height, mesh and cutoff -------------

def test_4_constant_robustness(base_constants):
    base, _ = base_constants
    scale = max(abs(base.D2), abs(base.N2))

    def changes(c):
        out = {}
        for k in ("D1", "D2", "N1", "N2", "N3"):
            a, b = getattr(base, k), getattr(c, k)
            den = abs(a) if abs(a) > 1e-3 * scale else scale
            out[k] = abs(a - b) / den
        return out

    def variant(**kw):
        kw = dict(T=6.0, h0=0.045, degree=3) | kw
        cell = build_cell(HoleSpec(), **kw)
        c = compute_constants(cell, K0)
        del cell
        return changes(c)

    dT = variant(T=8.0)
    dchi = variant(cutoff="poly")
    dref = variant(h0=0.0225)
    worst_T = max(dT.values())
    worst_ref = max(dref.values())
    worst_chi = max(dchi[k] for k in ("D2", "N1", "N2"))
    ok = worst_T <= 1e-6 and worst_ref <= 1e-4 and worst_chi <= 1e-6
    assert record_acceptance(
        "4 cell robustness", ok,
        f"T 6->8 {worst_T:.1e} (<=1e-6), refine {worst_ref:.1e} (<=1e-4), "
        f"cutoff swap {worst_chi:.1e} (<=1e-6)")


# -- criterion 5: manufactured-solution convergence of the FEM core -------------

def test_5_fem_orders():
    ok, parts = True, []
    for degree in (1, 2, 3):
        rh, res = helmholtz_rate(degree)
        rt = transmission_rate(degree)
        good = (abs(rh - (degree + 1)) <= 0.2 and res <= 1e-10
                and abs(rt - (degree + 1)) <= 0.2)
        ok = ok and good
        parts.append(f"p{degree}: {rh:.2f}/{rt:.2f}")
    assert record_acceptance(
        "5 FEM manufactured orders", ok,
        "L2 rates helmholtz/transmission " + ", ".join(parts))


# -- criterion 6: stability of the corner/near-field extractions ----------------

def test_6_extraction_stability(base_constants):
    constants, _ = base_constants
    ok, notes = True, []

    # (a) cross-radius scatter of the corner coefficients of the limit field;
    # modes below 1% of the leading amplitude are dominated by their own
    # extraction noise and carry no information, so they are not gated
    p = DomainParams()
    u00, corners = compute_u00(p, build_limit_space(p, h0=0.04, degree=3))
    worst = 0.0
    for side in ("plus", "minus"):
        cd = corners[side]
        lead = max(abs(v) for v in cd.ell.values())
        for m, v in cd.ell.items():
            if abs(v) >= 1e-2 * lead:
                worst = max(worst, cd.ell_scatter[m])
    ok = ok and worst <= 0.01
    notes.append(f"ell scatter {worst:.2e}")
    del u00

    # (b) leading decaying amplitude stable under doubling the cone radius,
    # and no spurious logarithmic content in its radial fit
    worst_drift, worst_log = 0.0, 0.0
    sols = {R: solve_S(("plus", "minus"), 1, constants, HoleSpec(), Rmax=R,
                       h0=0.45, degree=2) for R in (20.0, 40.0)}
    for side in ("plus", "minus"):
        near, far = sols[20.0][side], sols[40.0][side]
        drift = abs(far.ell[1] - near.ell[1]) / abs(far.ell[1])
        worst_drift = max(worst_drift, drift)
        worst_log = max(worst_log, far.log_coefficient[1])
    ok = ok and worst_drift <= 0.02 and worst_log <= 1e-3
    notes.append(f"Rmax 20->40 drift {worst_drift:.2e}")
    notes.append(f"log coeff {worst_log:.2e}")

    # (c) synthetic injection: fields with known decaying amplitudes are
    # recovered exactly by the windowed extraction
    lam1 = lambda_n(1, THETA)
    amps = {0: 0.31, 1: -0.042, 2: 0.0075, 3: -0.0011}
    worst_inj = 0.0
    for side in ("plus", "minus"):
        frame = CornerFrame(side, 0.0, THETA)
        w0 = w_base(1, THETA)
        w1 = solve_angular_profile(1, 0.4 - 0.1j, 0.2j, THETA)
        modes = {m: w_base(m, THETA) for m in amps}

        def u(pts):
            r, th = frame.polar(pts[:, 0], pts[:, 1])
            out = r ** lam1 * w0(th) + r ** (lam1 - 1.0) * w1(th)
            for m, a in amps.items():
                out = out + a * r ** (-lambda_n(m, THETA)) * modes[m](th)
            return out

        ell, _, _ = extract_L(u, frame, 1, w0, w1, 40.0)
        for m, a in amps.items():
            worst_inj = max(worst_inj, abs(ell[m] - a) / abs(a))
    ok = ok and worst_inj <= 1e-6
    notes.append(f"injection error {worst_inj:.2e}")
    assert record_acceptance("6 extraction stability", ok, ", ".join(notes))


# -- criterion 7: special functions against the frozen table --------------------

def test_7_special_functions():
    worst_tab = 0.0
    path = Path(__file__).parent / "data" / "bessel_oracle.csv"
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        nu_s, x_s, j_s, y_s = line.split(",")
        nu, x = eval(nu_s), float(x_s)
        j_ref, y_ref = float(j_s), float(y_s)
        j, y = bessel_jy(nu, x)
        worst_tab = max(worst_tab,
                        abs(j - j_ref) / max(abs(j_ref), 1e-280),
                        abs(y - y_ref) / max(abs(y_ref), 1e-280))
    # cross-product identity J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi x)
    xs = np.linspace(0.5, 100.0, 797)
    worst_id = 0.0
    for nu in (0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0):
        j0, j1 = bessel_j_array(nu, xs), bessel_j_array(nu + 1.0, xs)
        y0, y1 = bessel_y_array(nu, xs), bessel_y_array(nu + 1.0, xs)
        res = np.abs(j1 * y0 - j0 * y1 - 2.0 / (math.pi * xs))
        res /= np.maximum(1.0, np.abs(j1 * y0) + np.abs(j0 * y1))
        worst_id = max(worst_id, float(res.max()))
    ok = worst_tab <= 1e-12 and worst_id <= 1e-12
    assert record_acceptance(
        "7 special functions", ok,
        f"table error {worst_tab:.1e}, identity residual {worst_id:.1e}")
