"""Special-function accuracy against the frozen high-precision table."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinwall.bessel import (
    bessel_j,
    bessel_j_array,
    bessel_jy,
    bessel_y_array,
)
from thinwall.errors import DomainError

ORACLE = Path(__file__).parent / "data" / "bessel_oracle.csv"


def load_oracle():
    rows = []
    for line in ORACLE.read_text().splitlines():
        if line.startswith("#"):
            continue
        nu_s, x_s, j_s, y_s = line.split(",")
        nu = eval(nu_s)  # "2/3" etc., trusted file
        rows.append((float(nu), float(x_s), float(j_s), float(y_s)))
    return rows


@pytest.mark.parametrize("nu,x,j_ref,y_ref", load_oracle())
def test_against_frozen_table(nu, x, j_ref, y_ref):
    j, y = bessel_jy(nu, x)
    assert abs(j - j_ref) <= 1e-12 * max(abs(j_ref), 1e-280)
    assert abs(y - y_ref) <= 1e-12 * max(abs(y_ref), 1e-280)


def test_j0_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_y_rejects_nonpositive_x():
    with pytest.raises(DomainError):
        bessel_jy(2 / 3, 0.0)
    with pytest.raises(DomainError):
        bessel_jy(2 / 3, -1.0)
    for x in (0.0, -1.0):
        with pytest.raises(DomainError):
            bessel_y_array(2 / 3, np.array([1.0, x]))
    with pytest.raises(DomainError):
        bessel_j_array(2 / 3, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        bessel_j_array(-1 / 3, np.array([1.0, 0.0]))


def test_connection_identity_residual():
    # Y_nu = (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi) at nu = 2/3, x = 1
    nu = 2.0 / 3.0
    j, y = bessel_jy(nu, 1.0)
    jm, _ = bessel_jy(-nu, 1.0)
    rhs = (j * math.cos(nu * math.pi) - jm) / math.sin(nu * math.pi)
    assert abs(y - rhs) <= 1e-12


@pytest.mark.parametrize("nu", [2 / 3, 4 / 3])
def test_small_argument_power_law(nu):
    # J_nu(x) / ((x/2)^nu / Gamma(nu+1)) -> 1 as x -> 0
    for x in (1e-2, 1e-4, 1e-6):
        ratio = bessel_j(nu, x) / ((0.5 * x) ** nu / math.gamma(nu + 1.0))
        assert abs(ratio - 1.0) < x**2


@given(st.floats(-1.0, 3.0), st.floats(0.05, 90.0))
@settings(max_examples=80, deadline=None)
@example(nu=0.99999, x=1.0)  # order just below an integer
@example(nu=5e-324, x=1.0)  # subnormal order
@example(nu=-5e-324, x=1.0)
def test_wronskian(nu, x):
    # cross-product identity J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi x)
    j0, y0 = bessel_jy(nu, x)
    j1, y1 = bessel_jy(nu + 1.0, x)
    w = j1 * y0 - j0 * y1
    scale = max(1.0, abs(j1 * y0), abs(j0 * y1))
    assert abs(w - 2.0 / (math.pi * x)) <= 1e-11 * scale


def test_array_paths_match_scalar():
    xs = np.array([0.02, 0.5, 1.7, 4.4, 7.9, 8.1, 30.0, 99.0])
    for nu in (2 / 3, -1 / 3, 4 / 3):
        ja = bessel_j_array(nu, xs)
        js = np.array([bessel_j(nu, float(v)) for v in xs])
        np.testing.assert_allclose(ja, js, rtol=5e-13, atol=1e-300)
    for nu in (2 / 3, 4 / 3, 2.0):
        ya = bessel_y_array(nu, xs)
        ys = np.array([bessel_jy(nu, float(v))[1] for v in xs])
        np.testing.assert_allclose(ya, ys, rtol=5e-12, atol=1e-300)
