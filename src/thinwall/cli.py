"""Command-line front end.

Subcommands:
  cell-constants   effective layer constants of the periodicity cell
  nearfield        corner problem on the perforated cone + mode amplitudes
  solve-exact      direct reference solve of the perforated domain
  cascade          build the macroscopic expansion terms and store them
  study            full period sweep, error table, slopes, acceptance checks

Study configs are flat "key = value" text files (see configs/study.cfg);
the exit code of `study` is 0 iff every `check_*` window in the config is
satisfied by the fitted slopes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

import numpy as np

from .exact import solve_exact
from .harness import (StudyConfig, build_model, cell_constants, emit_outputs,
                      run_study)
from .nearfield import solve_S
from .params import DomainParams, HoleSpec

__all__ = ["main", "parse_config"]


def parse_config(path):
    """Flat key = value file -> dict of strings; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _floats(s):
    return tuple(float(_eval_number(v)) for v in s.split(",") if v.strip())


_PI_MULTIPLE = re.compile(r"(?:(.+)\*)?pi(?:/(.+))?")


def _eval_number(s):
    """Float literal, fraction 'a/b', or a multiple of pi '[a*]pi[/b]'
    such as '5*pi', 'pi/2' or '11*pi/8'."""
    s = "".join(s.split())
    m = _PI_MULTIPLE.fullmatch(s)
    if m:
        a, b = m.groups()
        return (float(a) if a else 1.0) * math.pi / (float(b) if b else 1.0)
    if "/" in s:
        num, den = s.split("/")
        return float(num) / float(den)
    return float(s)


# StudyConfig fields set by a flat key, with the type each value is read as
_FIELDS = {"alpha": float, "exact_h0": float, "exact_degree": int,
           "limit_h0": float, "limit_degree": int, "cell_T": float,
           "cell_h0": float, "cell_degree": int, "nf_Rmax": float,
           "nf_h0": float, "nf_degree": int, "cutoff": str,
           "exact_max_dofs": int}


def _params_from(cfg: dict) -> DomainParams:
    """The study's default parameters with the keys of cfg on top."""
    kw = {}
    for key in ("L", "Lp", "H", "Hp"):
        if key in cfg:
            kw[key] = float(cfg[key])
    if "theta" in cfg:
        kw["theta"] = _eval_number(cfg["theta"])
    if "k0" in cfg:
        kw["k0"] = _eval_number(cfg["k0"])
    if "hole_radius" in cfg:
        r = float(cfg["hole_radius"])
        kw["hole"] = (HoleSpec(kind="none") if r == 0.0
                      else HoleSpec(kind="disk", center=(0.5, 0.0), radius=r))
    return dataclasses.replace(StudyConfig().params, **kw)


def _study_config(cfg: dict) -> StudyConfig:
    kw = {"params": _params_from(cfg)}
    if "deltas" in cfg:
        kw["deltas"] = _floats(cfg["deltas"])
    for key, cast in _FIELDS.items():
        if key in cfg:
            kw[key] = cast(cfg[key])
    return StudyConfig(**kw)


def _config_of(args) -> StudyConfig:
    """--config (or the defaults) with every flag given on the command line
    on top; a flag's dest is the StudyConfig field it sets."""
    cfg = parse_config(args.config) if args.config else {}
    cfg.update({k: v for k, v in vars(args).items()
                if k in _FIELDS and v is not None})
    return _study_config(cfg)


def _acceptance_checks(cfg: dict, report):
    """Evaluate every check_<slope> = lo,hi window; returns (lines, ok)."""
    lines, ok = [], True
    for key, val in sorted(cfg.items()):
        if not key.startswith("check_"):
            continue
        name = key[len("check_"):]
        lo, hi = _floats(val)
        if name not in report.slopes:
            lines.append(f"FAIL {name}: no fitted slope")
            ok = False
            continue
        s = report.slopes[name][0]
        good = lo <= s <= hi
        ok = ok and good
        lines.append(f"{'PASS' if good else 'FAIL'} {name}: slope {s:.3f} "
                     f"target [{lo:.2f}, {hi:.2f}]")
    return lines, ok


def _save_npz(path, **arrays):
    """np.savez_compressed, returning the file written: numpy appends
    .npz to a name without it."""
    path = path if path.endswith(".npz") else path + ".npz"
    np.savez_compressed(path, **arrays)
    return path


def cmd_cell_constants(args):
    constants = cell_constants(_config_of(args))
    print(json.dumps({k: [v.real, v.imag] if isinstance(v, complex) else v
                      for k, v in constants.as_dict().items()}, indent=2))
    return 0


def cmd_nearfield(args):
    cfg = _config_of(args)
    p = cfg.params
    sol = solve_S((args.side,), args.n, cell_constants(cfg), p.hole,
                  theta=p.theta, Rmax=cfg.nf_Rmax, h0=cfg.nf_h0,
                  degree=cfg.nf_degree, cutoff=cfg.cutoff)[args.side]
    print(json.dumps(sol.as_dict(), indent=2))
    return 0


def cmd_solve_exact(args):
    cfg = _config_of(args)
    res = solve_exact(cfg.params, args.delta, h0=cfg.exact_h0,
                      degree=cfg.exact_degree, grading=cfg.exact_grading,
                      max_dofs=cfg.exact_max_dofs)
    print(f"ndof {res.ndof}  residual {res.residual:.3e}  "
          f"flux-balance defect {res.flux_balance():.3e}")
    if args.out:
        space = res.field.space
        path = _save_npz(args.out, nodes=space.mesh.nodes,
                         elements=space.mesh.elements, degree=res.degree,
                         delta=res.delta, coeffs=res.field.coeffs)
        print(f"wrote {path}")
    return 0


def cmd_cascade(args):
    cfg = _config_of(args)
    exp, L_minus_1, _ = build_model(cfg)
    space = exp.u00.space
    payload = {
        "nodes": space.mesh.nodes, "elements": space.mesh.elements,
        "degree": cfg.limit_degree,
        "u00": exp.u00.coeffs, "u01_hat": exp.u01.hat.coeffs,
        "u20_hat": exp.u20.hat.coeffs,
        "constants": np.array([[k, repr(v)] for k, v in
                               exp.constants.as_dict().items()]),
        "corner_ell_plus": np.array([exp.corners["plus"].ell[m]
                                     for m in range(4)]),
        "corner_ell_minus": np.array([exp.corners["minus"].ell[m]
                                      for m in range(4)]),
        "L_minus_1": np.array([L_minus_1["plus"], L_minus_1["minus"]]),
        "u20_lift_coeffs": np.array([lift.coeff for lift in exp.u20.lifts]),
    }
    path = _save_npz(args.out, **payload)
    print(f"wrote {path} ({space.ndof} dofs per field)")
    return 0


def cmd_study(args):
    cfg = parse_config(args.config)
    scfg = _study_config(cfg)
    rep = run_study(scfg)
    csv_path = emit_outputs(rep, args.out)
    print(f"wrote {csv_path}")
    lines, ok = _acceptance_checks(cfg, rep)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _parser():
    ap = argparse.ArgumentParser(
        prog="thinwall",
        description="Second-order expansion of wave transmission through a "
                    "thin perforated wall, with a direct-solve harness.")
    sub = ap.add_subparsers(dest="command", required=True)
    # flags without a default leave the value of --config (or the study's
    # default) in place

    c = sub.add_parser("cell-constants", help="effective layer constants")
    c.add_argument("--config")
    c.add_argument("--T", dest="cell_T", type=float)
    c.add_argument("--h0", dest="cell_h0", type=float)
    c.add_argument("--degree", dest="cell_degree", type=int)
    c.add_argument("--cutoff")
    c.set_defaults(fn=cmd_cell_constants)

    c = sub.add_parser("nearfield", help="perforated-cone corner problem")
    c.add_argument("--config")
    c.add_argument("--side", choices=("plus", "minus"), default="plus")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--rmax", dest="nf_Rmax", type=float)
    c.add_argument("--h0", dest="nf_h0", type=float)
    c.add_argument("--degree", dest="nf_degree", type=int)
    c.add_argument("--T", dest="cell_T", type=float)
    c.add_argument("--cell-h0", dest="cell_h0", type=float)
    c.add_argument("--cutoff")
    c.set_defaults(fn=cmd_nearfield)

    c = sub.add_parser("solve-exact", help="direct perforated-domain solve")
    c.add_argument("--config")
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--h0", dest="exact_h0", type=float)
    c.add_argument("--degree", dest="exact_degree", type=int)
    c.add_argument("--max-dofs", dest="exact_max_dofs", type=int)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_solve_exact)

    c = sub.add_parser("cascade", help="build + store the expansion terms")
    c.add_argument("--config")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_cascade)

    c = sub.add_parser("study", help="period sweep + slopes + checks")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_study)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
