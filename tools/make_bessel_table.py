#!/usr/bin/env python3
"""Regenerate the frozen high-precision Bessel oracle table.

Run from the repository root:

    python3 tools/make_bessel_table.py > tests/data/bessel_oracle.csv

The committed table was produced once with mpmath at 50 decimal digits;
tests compare the scipy.special wrapper `thinwall.bessel` against the
frozen file, not against mpmath at runtime.
"""

import mpmath as mp

mp.mp.dps = 50

ORDERS = ["0", "2/3", "4/3", "2"]
XS = [
    "0.001", "0.003", "0.01", "0.03", "0.1", "0.3", "0.5", "0.8",
    "1", "1.5", "1.9", "2", "2.1", "2.5", "3", "4", "5", "7",
    "10", "13", "17", "22", "28", "35", "45", "55", "70", "85", "100",
]


def main():
    print("# nu,x,J,Y  (25 significant digits; generated at 50 dps)")
    for nu_s in ORDERS:
        nu = mp.mpf(mp.fraction(*map(int, nu_s.split("/"))) if "/" in nu_s else nu_s)
        for x_s in XS:
            x = mp.mpf(x_s)
            j = mp.besselj(nu, x)
            y = mp.bessely(nu, x)
            print(f"{nu_s},{x_s},{mp.nstr(j, 25)},{mp.nstr(y, 25)}")


if __name__ == "__main__":
    main()
