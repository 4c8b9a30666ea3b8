"""Command-line front end, run as `thinwall` or `python -m thinwall`
(__main__.py).

Subcommands:
  cell-constants   effective layer constants of the periodicity cell
  nearfield        corner problem on the perforated cone + mode amplitudes
  solve-exact      direct reference solve of the perforated domain
  cascade          build the macroscopic expansion terms and store them
  study            full period sweep, error table, slopes, acceptance checks

Study configs are flat "key = value" text files (see configs/study.cfg);
a key may appear once, and a key the study does not read is an error.  The
exit code of `study` is 0 iff every `check_*` window in the config is
satisfied by the fitted slopes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re

import numpy as np

from .harness import (STUDY_PARAMS, StudyConfig, build_model, cell_constants,
                      emit_outputs, near_fields, run_study, solve_reference)
from .params import DomainParams, HoleSpec

__all__ = ["main", "parse_config", "cmd_cell_constants", "cmd_nearfield",
           "cmd_solve_exact", "cmd_cascade", "cmd_study"]


def parse_config(path):
    """Flat key = value file -> dict of strings; '#' starts a comment.
    A key may appear once."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{ln}: {key} is set twice")
            out[key] = val
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
        num, den = (float(a) if a else 1.0) * math.pi, float(b) if b else 1.0
    elif "/" in s:
        num, den = (float(t) for t in s.split("/"))
    else:
        return float(s)
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return num / den


# argparse names a flag's type in its errors: "invalid number value: 'abc'"
_eval_number.__name__ = "number"


_READ = {"float": _eval_number, "int": int, "str": str}


def _keys(cls):
    """{field: how a flat value is read} of cls's float, int, str fields."""
    return {f.name: _READ[t] for f in dataclasses.fields(cls)
            if (t := getattr(f.type, "__name__", f.type)) in _READ}


# the StudyConfig and DomainParams fields a flat key sets; hole_radius sets
# the hole and deltas the sweep
_FIELDS, _PARAMS = _keys(StudyConfig), _keys(DomainParams)


def _params_from(cfg: dict) -> DomainParams:
    """The study's default parameters with the keys of cfg on top."""
    kw = {key: cast(cfg[key]) for key, cast in _PARAMS.items() if key in cfg}
    if "hole_radius" in cfg:
        kw["hole"] = HoleSpec(radius=_eval_number(cfg["hole_radius"]))
    return dataclasses.replace(STUDY_PARAMS, **kw)


def _study_config(cfg: dict, **flags) -> StudyConfig:
    """The StudyConfig of a flat config, with the StudyConfig fields flags
    on top; check_* windows are left to _windows, and any other key the
    study does not read raises."""
    unknown = [key for key in cfg if key not in _FIELDS and key not in _PARAMS
               and key not in ("deltas", "hole_radius")
               and not key.startswith("check_")]
    if unknown:
        raise ValueError(f"unknown config key: {', '.join(unknown)}")
    kw = {"params": _params_from(cfg)}
    if "deltas" in cfg:
        kw["deltas"] = _floats(cfg["deltas"])
    for key, cast in _FIELDS.items():
        if key in cfg:
            kw[key] = cast(cfg[key])
    return StudyConfig(**{**kw, **flags})


def _config_of(args) -> StudyConfig:
    """--config (or the defaults) with every flag given on the command line
    on top; a flag's dest is the StudyConfig field it sets, and --delta is
    the sweep, so that it is checked as a study's delta is."""
    flags = {k: v for k, v in vars(args).items()
             if k in _FIELDS and v is not None}
    if getattr(args, "delta", None) is not None:
        flags["deltas"] = (args.delta,)
    return _study_config(parse_config(args.config) if args.config else {},
                         **flags)


def _windows(cfg: dict) -> dict:
    """Every check_<slope> = lo, hi window of cfg, as {slope: (lo, hi)}."""
    out = {}
    for key, val in cfg.items():
        if not key.startswith("check_"):
            continue
        try:
            lo, hi = _floats(val)
        except ValueError:
            lo = hi = math.nan
        if not lo <= hi:
            raise ValueError(f"{key} = {val}: expected 'lo, hi' with lo <= hi")
        out[key[len("check_"):]] = (lo, hi)
    return out


def _acceptance_checks(windows: dict, report):
    """Evaluate every {slope: (lo, hi)} window; returns (lines, ok)."""
    lines, ok = [], True
    for name, (lo, hi) in sorted(windows.items()):
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


def cmd_cell_constants(args, cfg):
    constants = cell_constants(cfg)
    print(json.dumps({k: [v.real, v.imag] if isinstance(v, complex) else v
                      for k, v in constants.as_dict().items()}, indent=2))
    return 0


def cmd_nearfield(args, cfg):
    sol = near_fields(cfg, cell_constants(cfg), (args.side,),
                      args.n)[args.side]
    print(json.dumps(sol.as_dict(), indent=2))
    return 0


def cmd_solve_exact(args, cfg):
    res = solve_reference(cfg, args.delta)
    print(f"ndof {res.ndof}  factored {res.factored}  "
          f"residual {res.residual:.3e}  "
          f"flux-balance defect {res.flux_balance():.3e}")
    if args.out:
        space = res.field.space
        path = _save_npz(args.out, nodes=space.mesh.nodes,
                         elements=space.mesh.elements, degree=res.degree,
                         delta=res.delta, coeffs=res.field.coeffs)
        print(f"wrote {path}")
    return 0


def cmd_cascade(args, cfg):
    exp, L_minus_1, _ = build_model(cfg)
    space = exp.u00.space
    payload = {
        "nodes": space.mesh.nodes, "elements": space.mesh.elements,
        "degree": cfg.limit_degree,
        "u00": exp.u00.coeffs, "u01_hat": exp.u01.hat.coeffs,
        "u20_hat": exp.u20.hat.coeffs,
        "constants": np.array([[k, repr(v)] for k, v in
                               exp.constants.as_dict().items()]),
        "corner_ell_plus": np.array(list(exp.corners["plus"].ell.values())),
        "corner_ell_minus": np.array(list(exp.corners["minus"].ell.values())),
        "L_minus_1": np.array([L_minus_1["plus"], L_minus_1["minus"]]),
        "u20_lift_coeffs": np.array([lift.coeff for lift in exp.u20.lifts]),
    }
    path = _save_npz(args.out, **payload)
    print(f"wrote {path} ({space.ndof} dofs per field)")
    return 0


def cmd_study(args, cfg):
    rep = run_study(cfg)
    csv_path = emit_outputs(rep, args.out)
    print(f"wrote {csv_path}")
    lines, ok = _acceptance_checks(args.windows, rep)
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
    c.add_argument("--T", dest="cell_T", type=_eval_number)
    c.add_argument("--h0", dest="cell_h0", type=_eval_number)
    c.add_argument("--degree", dest="cell_degree", type=int)
    c.add_argument("--cutoff")
    c.set_defaults(fn=cmd_cell_constants)

    c = sub.add_parser("nearfield", help="perforated-cone corner problem")
    c.add_argument("--config")
    c.add_argument("--side", choices=("plus", "minus"), default="plus")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--rmax", dest="nf_Rmax", type=_eval_number)
    c.add_argument("--h0", dest="nf_h0", type=_eval_number)
    c.add_argument("--degree", dest="nf_degree", type=int)
    c.add_argument("--T", dest="cell_T", type=_eval_number)
    c.add_argument("--cell-h0", dest="cell_h0", type=_eval_number)
    c.add_argument("--cutoff")
    c.set_defaults(fn=cmd_nearfield)

    c = sub.add_parser("solve-exact", help="direct perforated-domain solve")
    c.add_argument("--config")
    c.add_argument("--delta", type=_eval_number, required=True)
    c.add_argument("--h0", dest="exact_h0", type=_eval_number)
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
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        # before any work, and a usage error as the same value as a flag is
        args.windows = _windows(parse_config(args.config) if args.config
                                else {})
        cfg = _config_of(args)
    except ValueError as err:
        ap.error(str(err))
    return args.fn(args, cfg)
