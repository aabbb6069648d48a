"""Command-line front end: solve, certify, energy, curvature, gallery, convert.

Artifacts are written atomically (temp file + rename).  Exit status is 0 on
success, 2 when a certificate check fails, and 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import certificate as cert
from . import gallery as gal
from . import energy
from .errors import LingradError
from .fields import field_to_csv, read_grid_field, write_lgf
from .geometry import generalized_mean_curvature
from .solver import SolverConfig, _gap_scale, duality_gap, solve, trace_error
from .specfile import parse_spec

__all__ = ["main"]


def _atomic_write(path, writer):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".lingrad-tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path, payload: dict):
    def w(tmp):
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
            fh.write("\n")
    _atomic_write(path, w)


def _write_field(path, values, h):
    _atomic_write(path, lambda tmp: write_lgf(tmp, values, h))


def _cmd_solve(args):
    bundle = parse_spec(args.spec, nx=args.nx)
    cfg = bundle.solver_config
    if args.max_iters is not None:
        cfg.max_iters = args.max_iters
    if args.gap_tol is not None:
        cfg.gap_tol = args.gap_tol
    res = solve(bundle.spec, cfg)
    domain = bundle.spec.domain
    if args.out:
        _write_field(args.out, domain.pad(res.u), domain.h)
    if args.dual_out:
        # the n x d components as n * d channels
        _write_field(args.dual_out,
                     domain.pad(res.z).reshape((-1,) + domain.grid_shape),
                     domain.h)
    if args.zeta_out:
        _write_field(args.zeta_out, res.zeta.T[:, :, None], domain.h)
    if args.history:
        def w(tmp):
            with open(tmp, "w") as fh:
                fh.write("iter,energy,gap\n")
                for i, e, g in zip(res.check_iters, res.energy_history_raw,
                                   res.gap_history):
                    fh.write(f"{i},{e:.17g},{g:.17g}\n")
        _atomic_write(args.history, w)
    print(f"iterations: {res.iterations}")
    print("levels: " + " ".join(f"{nx}:{its}" for nx, its, _ in res.levels))
    print(f"energy: {res.energy_history_raw[-1]:.12g}")
    print(f"relative_gap: {res.gap_relative:.6g}")
    print(f"trace_error: {trace_error(bundle.spec, res.u):.12g}")
    print(f"converged: {res.converged}")
    return 0


def _cmd_certify(args):
    bundle = parse_spec(args.spec, nx=args.nx)
    spec = bundle.spec
    domain = spec.domain
    n = spec.n_channels
    u = read_grid_field(args.u, domain, n)
    z = read_grid_field(args.z, domain, n * domain.dim)
    z = z.reshape(-1, n, domain.dim)
    zeta = (read_grid_field(args.zeta, domain, n, faces=True) if args.zeta
            else np.zeros((len(domain.boundary_faces), n)))
    tol = args.tol
    if tol is None:
        # solve's convergence rule: the gap at most gap_tol times the
        # denominator of its relative gap, whose -inf dual bound, where the
        # given dual is infeasible, leaves the scale to the primal
        dg = duality_gap(spec, u, z, zeta)
        tol = bundle.solver_config.gap_tol * _gap_scale(
            dg.primal, dg.dual if dg.dual_feasible else 0.0)
    verify = cert.verify_scalar if n == 1 else cert.verify_vector
    report = verify(spec, u, z, tol=tol, zeta=zeta)
    payload = report.as_flat_dict()
    if args.report:
        _write_report(args.report, payload)
    for key, val in payload.items():
        print(f"{key}: {val}")
    return 0 if report.overall_pass else 2


def _cmd_energy(args):
    bundle = parse_spec(args.spec, nx=args.nx)
    spec = bundle.spec
    u = read_grid_field(args.u, spec.domain, spec.n_channels)
    dens = energy._densities(spec, u)
    payload = {
        "energy": energy._total(dens.cell, dens.face, dens.lower),
        "boundary_penalty": energy._total(dens.face),
        "lower_order": energy._total(dens.lower),
        "trace_error": trace_error(spec, u),
    }
    if args.report:
        _write_report(args.report, payload)
    for key, val in payload.items():
        print(f"{key}: {val:.12g}")
    return 0


def _cmd_curvature(args):
    bundle = parse_spec(args.spec, nx=args.nx)
    spec = bundle.spec
    bf = spec.domain.boundary_faces
    H = np.atleast_1d(generalized_mean_curvature(spec.integrand, spec.domain,
                                                 bf.point))
    if args.out:
        def w(tmp):
            with open(tmp, "w") as fh:
                fh.write("x,y,H\n")
                for p, hv in zip(bf.point, H):
                    y = p[1] if spec.domain.dim > 1 else 0.0
                    fh.write(f"{p[0]:.17g},{y:.17g},{hv:.17g}\n")
        _atomic_write(args.out, w)
    print(f"boundary_points: {len(H)}")
    print(f"H_min: {H.min():.12g}")
    print(f"H_max: {H.max():.12g}")
    return 0


def _cmd_gallery(args):
    if args.action == "list":
        for name in gal.case_names():
            print(name)
        return 0
    case = gal.get_case(args.name)
    payload = {"case": case.name, "note": case.expected.note}
    ok = True
    if case.analytic is not None:
        report = case.verify_reference()
        payload.update({f"certificate.{k}": v
                        for k, v in report.as_flat_dict().items()})
        ok = ok and report.overall_pass
    if case.spec_builder is not None and (case.analytic is None or args.solve):
        spec = case.build_spec(args.nx)
        res = solve(spec, SolverConfig(max_iters=args.max_iters,
                                       gap_tol=args.gap_tol))
        energy = res.energy_history_raw[-1]
        payload["solve.energy"] = energy
        payload["solve.gap_relative"] = res.gap_relative
        payload["solve.trace_error"] = trace_error(spec, res.u)
        payload["solve.iterations"] = res.iterations
        payload["solve.levels"] = [list(level) for level in res.levels]
        if case.expected.energy is not None:
            rel = abs(energy - case.expected.energy) / abs(
                case.expected.energy)
            payload["solve.energy_expected"] = case.expected.energy
            payload["solve.energy_relative_error"] = rel
            ok = ok and rel <= case.expected.energy_rtol
    payload["pass"] = ok
    if args.report:
        _write_report(args.report, payload)
    for key, val in payload.items():
        print(f"{key}: {val}")
    return 0 if ok else 2


def _cmd_convert(args):
    bundle = parse_spec(args.spec, nx=args.nx)
    domain = bundle.spec.domain
    values = read_grid_field(args.infile, domain)
    _atomic_write(args.out, lambda tmp: field_to_csv(tmp, domain, values))
    print(f"wrote {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="lingrad",
        description="Linear-growth variational problems: solve, certify, "
                    "curvature, gallery.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--spec", required=True, help="problem spec file")
        sp.add_argument("--nx", type=int, default=None, help="grid resolution")

    sp = sub.add_parser("solve", help="minimize the relaxed functional")
    add_common(sp)
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--gap-tol", type=float, default=None)
    sp.add_argument("--out", help="primal field (LGF1)")
    sp.add_argument("--dual-out", help="dual field (LGF1, n*d channels)")
    sp.add_argument("--zeta-out", help="boundary multiplier (LGF1)")
    sp.add_argument("--history", help="iteration history CSV")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("certify", help="check the optimality certificate")
    add_common(sp)
    sp.add_argument("--u", required=True)
    sp.add_argument("--z", required=True)
    sp.add_argument("--zeta", default=None,
                    help="boundary multiplier (LGF1); default: zero")
    sp.add_argument("--tol", type=float, default=None,
                    help="absolute bound on each share of the duality gap "
                         "(not relative, unlike solve's --gap-tol); a pass "
                         "proves gap <= 3 tol; default: the spec's [solver] "
                         "gap_tol times max(|primal|, |dual|) of this gap, "
                         "which passes a state that solve reports converged "
                         "at that gap_tol")
    sp.add_argument("--report", default=None)
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("energy", help="evaluate the relaxed energy of a field")
    add_common(sp)
    sp.add_argument("--u", required=True)
    sp.add_argument("--report", default=None)
    sp.set_defaults(fn=_cmd_energy)

    sp = sub.add_parser("curvature", help="generalized boundary curvature")
    add_common(sp)
    sp.add_argument("--out", default=None, help="CSV output")
    sp.set_defaults(fn=_cmd_curvature)

    sp = sub.add_parser("gallery", help="list or run shipped example cases")
    sp.add_argument("action", choices=["list", "run"])
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--nx", type=int, default=None)
    sp.add_argument("--max-iters", type=int, default=20000)
    sp.add_argument("--gap-tol", type=float, default=1e-4)
    sp.add_argument("--solve", action="store_true",
                    help="also run the grid solver on cases with references")
    sp.add_argument("--report", default=None)
    sp.set_defaults(fn=_cmd_gallery)

    sp = sub.add_parser("convert", help="LGF1 field to CSV")
    add_common(sp)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_convert)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gallery" and args.action == "run" and not args.name:
        parser.error("gallery run needs a case name")
    try:
        return args.fn(args)
    except (LingradError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
