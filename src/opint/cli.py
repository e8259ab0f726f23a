"""Command-line front end.

`main` reads the problem file, checks the matrices the subcommand needs,
and writes the subcommand's report once: JSON for a dict, the CSV text
of the integration convergence study as it is.  Each `cmd_*` maps
(problem, args) to (report, exit code).  Exit codes: 0 success, 2
invalid input or an unwritable report, 4 an integration study that did
not converge; a failure exits with its error class's `exit_code`
(`errors.py`: 2 invalid input, 3 precondition, 4 non-convergence).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .enorm import check_enorm_sandwich
from .errors import (CertificateViolationError, InvalidProblemError, NoConvergenceError,
                     OpintError, ShapeMismatchError)
from .probfile import load_problem, matrix_to_json
from .riccati import RiccatiProblem, posterior_check, solve_fixed_point
from .spectral import decompose_normal, spectral_invariant_residuals
from .stieltjes import OperatorFunction, _refinement, exact_right_integral
from .linalg import operator_norm
from .sylvester import (
    SylvesterProblem,
    solve_contour,
    solve_double_spectral,
    solve_kronecker,
    solve_spectral,
    verify_bounds,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = OpintError.exit_code
EXIT_NO_CONVERGENCE = NoConvergenceError.exit_code

_SOLVERS = {
    "spectral": solve_spectral,
    "kronecker": solve_kronecker,
    "contour": solve_contour,
    "double": solve_double_spectral,
}


def _clean(obj):
    """Make a report JSON-safe: NaN/inf become null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.floating, np.integer)):
        return _clean(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _bounds_json(checks):
    return {name: {"bound": chk.bound, "observed": chk.observed, "ok": chk.ok}
            for name, chk in checks.items()}


def cmd_spectral(problem, args):
    C = problem["matrices"]["C"]
    sm = decompose_normal(C, problem["tolerances"])
    return {
        "dim": sm.dim,
        "eigenvalues": [[z.real, z.imag] for z in sm.eigenvalues],
        "multiplicities": [int(m) for m in sm.multiplicities],
        "residuals": spectral_invariant_residuals(sm, C),
    }, EXIT_OK


def cmd_enorm(problem, args):
    sm = decompose_normal(problem["matrices"]["C"], problem["tolerances"])
    op, en, hs = check_enorm_sandwich(problem["matrices"]["Y"], sm)
    return {"op_norm": op, "e_norm": en, "hs_norm": hs}, EXIT_OK


def cmd_sylvester(problem, args):
    m = problem["matrices"]
    prob = SylvesterProblem(m["A"], m["C"], m["D"],
                            tolerances=problem["tolerances"])
    report = _SOLVERS[args.method](prob)
    verify_bounds(prob, report)
    return {
        "method": report.method,
        "X": matrix_to_json(report.X),
        "residual": report.residual,
        "gap_d": report.gap_d,
        "gap_numrange": report.gap_numrange,
        "bounds": _bounds_json(report.bounds),
    }, EXIT_OK


def cmd_riccati(problem, args):
    m = problem["matrices"]
    prob = RiccatiProblem(m["A"], m["B"], m["C"], m["D"],
                          tolerances=problem["tolerances"])
    try:
        report = solve_fixed_point(prob, tol=args.tol, max_iter=args.max_iter,
                                   override_certificate=args.override_certificate)
    except CertificateViolationError as exc:
        # the failed certificate itself is the report, so callers can inspect it
        return ({"certificate": vars(exc.certificate), "error": str(exc)},
                exc.exit_code)
    checks = posterior_check(prob, report)
    return {
        "certificate": vars(report.certificate),
        "X": matrix_to_json(report.X),
        "iterations": report.iterations,
        "residual": report.residual,
        "enorm_x": report.enorm_x,
        "converged": report.converged,
        "posterior": _bounds_json(checks),
    }, EXIT_OK


def _parse_function(spec, problem, dim):
    try:
        kind, _, argstr = spec.partition(":")
        if kind == "affine":
            p, q = (float(v) for v in argstr.split(","))
            return OperatorFunction.affine(p, q, dim)
        if kind == "poly":
            coeffs = [float(v) for v in argstr.split(",")]
            return OperatorFunction.polynomial(coeffs, dim)
        if kind == "resolvent":
            name_a, name_d = (s.strip() for s in argstr.split(","))
            mats = problem["matrices"]
            if name_a not in mats or name_d not in mats:
                raise InvalidProblemError(
                    f"function spec {spec!r} refers to missing matrices")
            A = mats[name_a]
            F = OperatorFunction.resolvent_family(A, mats[name_d], problem["tolerances"])
            if A.shape[1] != dim:
                raise InvalidProblemError(
                    f"D (A - z)^{{-1}} must have {dim} columns to integrate "
                    f"against this measure; A has {A.shape[1]}")
            return F
    except (ValueError, ShapeMismatchError) as exc:
        raise InvalidProblemError(f"bad function spec {spec!r}: {exc}") from exc
    raise InvalidProblemError(f"unknown function spec {spec!r}")


def cmd_integrate(problem, args):
    rect = problem["rect"]
    if rect is None:
        raise InvalidProblemError("integrate requires a rect in the problem file")
    sm = decompose_normal(problem["matrices"]["C"], problem["tolerances"])
    F = _parse_function(args.function, problem, sm.dim)
    exact = exact_right_integral(F, sm, rect)
    # one refinement pass: each level's sum lives only for its row
    lines = ["level,m,n,mesh,diff_prev,err_vs_exact"]
    for i, ((mesh, diff), value, converged) in enumerate(
            _refinement(F, sm, rect, args.tol, args.grid_levels), 1):
        with np.errstate(all="ignore"):
            delta = value() - exact
        err = operator_norm(delta) if np.isfinite(delta).all() else math.inf
        lines.append(f"{i},{2 ** i},{2 ** i},{mesh!r},{diff!r},{err!r}")
    lines.append("# converged" if converged else "# not-converged")
    return "\n".join(lines) + "\n", EXIT_OK if converged else EXIT_NO_CONVERGENCE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opint",
        description="Spectral-measure operator integrals and equation solvers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="spectral measure of a normal matrix")
    p.add_argument("file", help="problem file with matrix C")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_spectral, needs=("C",))

    p = sub.add_parser("enorm", help="operator, E-, and Hilbert-Schmidt norms")
    p.add_argument("file", help="problem file with matrices C and Y")
    p.add_argument("--output")
    p.set_defaults(func=cmd_enorm, needs=("C", "Y"))

    p = sub.add_parser("sylvester", help="solve XA - CX = D")
    p.add_argument("file", help="problem file with matrices A, C, D")
    p.add_argument("--method", choices=sorted(_SOLVERS), default="spectral")
    p.add_argument("--output")
    p.set_defaults(func=cmd_sylvester, needs=("A", "C", "D"))

    p = sub.add_parser("riccati", help="solve XA - CX + XBX = D by fixed point")
    p.add_argument("file", help="problem file with matrices A, B, C, D")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--override-certificate", action="store_true",
                   help="iterate even when the contraction certificate fails")
    p.add_argument("--output")
    p.set_defaults(func=cmd_riccati, needs=("A", "B", "C", "D"))

    p = sub.add_parser("integrate",
                       help="dyadic convergence study of a right integral")
    p.add_argument("file", help="problem file with matrix C and a rect")
    p.add_argument("--function", required=True,
                   help='one of "affine:p,q", "poly:c0,c1,...", '
                        '"resolvent:A,D" (matrix names from the file)')
    p.add_argument("--grid-levels", type=int, default=60)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--output")
    p.set_defaults(func=cmd_integrate, needs=("C",))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.file)
        missing = [k for k in args.needs if k not in problem["matrices"]]
        if missing:
            raise InvalidProblemError(
                f"problem file is missing matrices: {', '.join(missing)}")
        report, code = args.func(problem, args)
    except (OpintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INVALID_INPUT)
    if isinstance(report, dict):
        if problem.get("seed") is not None:
            report["seed"] = problem["seed"]
        report = json.dumps(_clean(report), indent=2) + "\n"
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
