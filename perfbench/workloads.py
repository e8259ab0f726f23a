"""The four workloads: instances, reports and the correctness gate.

A report is what a user of opint waits for: one solve plus its bound
checks, one measure pipeline, or one CLI subprocess.  Each report is a
`run` callable, timed by the worker, and a `check` callable, untimed,
that returns None when the output is correct and a message otherwise.
Checks use numpy/scipy oracles and the generators' own data, never the
opint function under test.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

import opint
import opint.cli
import opint.sylvester

import gen


class Report(NamedTuple):
    label: str
    run: Callable
    check: Callable


def _norm(M):
    return float(np.linalg.norm(M, 2))


def _rel(X, ref):
    return _norm(X - ref) / max(_norm(ref), 1e-300)


def _no_span(name):
    return nullcontext()


# Per-method agreement with scipy.linalg.solve_sylvester, as in the
# acceptance criterion for the cross-method check.
SYLVESTER_TOL = {"spectral": 1e-10, "kronecker": 1e-10,
                 "contour": 1e-8, "double": 1e-10}
# Looked up on the package at call time, so a traced run sees its wrappers.
SOLVERS = {"spectral": "solve_spectral", "kronecker": "solve_kronecker",
           "contour": "solve_contour", "double": "solve_double_spectral"}


def sylvester_problem_check(A, C, D, method, X, span):
    """Agreement with the scipy reference and a recomputed residual."""
    with span("ref.scipy_solve_sylvester"):
        ref = scipy.linalg.solve_sylvester(-C, A, D)
    rel = _rel(X, ref)
    if not rel <= SYLVESTER_TOL[method]:
        return f"{method}: relative difference to scipy {rel:.3e}"
    res = _norm(X @ A - C @ X - D)
    scale = (_norm(A) + _norm(C)) * _norm(X) + _norm(D)
    if not res <= 1e-9 * scale:
        return f"{method}: residual {res:.3e} above 1e-9 * {scale:.3e}"
    return None


def riccati_check(A, B, C, D, X, converged, failed_checks, r_max):
    if not converged:
        return "fixed point not converged"
    if failed_checks:
        return f"posterior checks failed: {failed_checks}"
    nx = _norm(X)
    if not nx < r_max:
        return f"||X|| = {nx:.6g} not below r_max = {r_max:.6g}"
    res = _norm(X @ A - C @ X + X @ B @ X - D)
    scale = (_norm(A) + _norm(C) + _norm(B) * nx) * nx + _norm(D)
    if not res <= 1e-8 * scale:
        return f"residual {res:.3e} above 1e-8 * {scale:.3e}"
    return None


class Workload:
    """A fixed round of reports built from one seed.

    tail_pct is the report_tail_s percentile and min_reports the fewest
    reports a run measures, chosen so that at least ten samples lie
    beyond the tail percentile.  peak_rss names whose memory counts:
    the workload process itself or its largest child.
    """

    name = ""
    tail_pct = 90
    peak_rss = "self"

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.span = _no_span
        self.manifest = []
        self.round = []
        self.warm = []

    @property
    def min_reports(self):
        return math.ceil(10 / (1 - self.tail_pct / 100))

    def trace_round(self):
        return self.round

    def warmup(self):
        """Run the warm-up reports and their checks once.  A failure here
        is not fatal: the same code fails again, and is counted, in the
        measured rounds."""
        for rep in self.warm:
            try:
                rep.check(rep.run())
            except Exception:
                pass

    def trace_metrics(self, untraced_samples):
        return {"cli.startup_s": (0.0, "s"), "cli.inprocess_s": (0.0, "s")}


class SylvesterXcheck(Workload):
    """Every Sylvester method on one instance ladder, checked against scipy."""

    name = "sylvester_xcheck"
    tail_pct = 90
    # (h, k, A normal); the ring instance forces the per-atom contour.
    # Four like-sized instances give the median ten reports of one cost
    # to land among, with as many cheaper reports below them as dearer
    # ones above, rather than a gap between two costs.
    LADDER = [(4, 4, True), (4, 6, False), (6, 4, True), (6, 6, False),
              (4, 4, False), (6, 6, True),
              (10, 10, True), (10, 10, False), (10, 10, True), (10, 10, False),
              (12, 16, False), (24, 24, True)]
    RING = (8, 12)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        specs = [(h, k, normal, False) for h, k, normal in self.LADDER]
        specs.append((*self.RING, True, True))
        for idx, (h, k, normal, ring) in enumerate(specs):
            if ring:
                A, C, D = gen.make_ring_sylvester(self.rng, h, k)
            else:
                A, C, D = gen.make_sylvester(self.rng, h, k, normal)
            methods = ["spectral", "kronecker", "contour"] + (["double"] if normal else [])
            self.manifest.append({
                "instance": idx, "h": h, "k": k, "atoms": len(C.atoms),
                "a_normal": normal, "ring": ring,
                "contour_path": self._contour_path(A, C), "methods": methods})
            for method in methods:
                self.round.append(self._report(idx, A, C.M, D, method))
        self.warm = [r for r in self.round if r.label.startswith("i0-")]

    @staticmethod
    def _contour_path(A, C):
        build = getattr(opint.sylvester, "_build_circles", None)
        if build is None:
            return "unknown"
        eig_a = np.linalg.eigvals(A)
        gap = float(np.abs(eig_a[:, None] - C.atoms[None, :]).min())
        circles = build(eig_a, C.atoms, gap)
        return "single-circle" if len(circles) == 1 else f"per-atom:{len(circles)}"

    def _report(self, idx, A, C, D, method):
        def run():
            prob = opint.SylvesterProblem(A, C, D)
            rep = getattr(opint, SOLVERS[method])(prob)
            opint.verify_bounds(prob, rep)
            return rep

        def check(rep):
            bad = [name for name, chk in rep.bounds.items() if not chk.ok]
            if bad:
                return f"{method}: bound checks failed: {bad}"
            return sylvester_problem_check(A, C, D, method, rep.X, self.span)

        return Report(f"i{idx}-{method}", run, check)


class RiccatiClustered(Workload):
    """Certified Riccati solves with clustered spec(C), near the certificate edge."""

    name = "riccati_clustered"
    tail_pct = 90
    MARGIN = 0.45
    # (h, k, A normal) with k a multiple of 4.  Sizes run from 8 to 48;
    # five like-sized non-normal instances in the middle give the median
    # one cost to land among, rather than a gap between two.
    LADDER = [(8, 8, True), (8, 8, False), (12, 12, True), (12, 12, False),
              (16, 16, True), (12, 12, False), (32, 32, True), (12, 12, False),
              (48, 48, True), (12, 12, False), (20, 20, False), (12, 12, False),
              (32, 32, False)]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for idx, (h, k, normal) in enumerate(self.LADDER):
            A, B, C, D = gen.make_certified_riccati(self.rng, h, k, normal, self.MARGIN)
            self.manifest.append({"instance": idx, "h": h, "k": k,
                                  "atoms": len(C.atoms), "a_normal": normal,
                                  "margin": self.MARGIN})
            self.round.append(self._report(idx, A, B, C.M, D))
        self.warm = self.round[:2]

    @staticmethod
    def _report(idx, A, B, C, D):
        def run():
            prob = opint.RiccatiProblem(A, B, C, D)
            cert = opint.certify(prob)
            sol = opint.solve_fixed_point(prob)
            checks = opint.posterior_check(prob, sol)
            return cert, sol, checks

        def check(out):
            cert, sol, checks = out
            failed = [name for name, chk in checks.items() if not chk.ok]
            return riccati_check(A, B, C, D, sol.X, sol.converged, failed, cert.r_max)

        return Report(f"i{idx}", run, check)


RECT = opint.Rect(-1.5, 1.5, -1.5, 1.5)


class MeasureStieltjes(Workload):
    """Spectral measure, dyadic right integral, exact limit and E-norm."""

    name = "measure_stieltjes"
    tail_pct = 75
    # (integrand, spectrum, n); every spectrum lies inside RECT.  Nine
    # reports a round put the median inside one report's cluster of
    # samples instead of on the edge between two.
    LADDER = [("affine", "simple", 32), ("affine", "clustered", 64),
              ("affine", "simple", 64), ("affine", "clustered", 96),
              ("affine", "clustered", 112), ("affine", "simple", 80),
              ("affine", "clustered", 128),
              ("resolvent", "simple", 16), ("resolvent", "simple", 20)]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        for idx, (kind, spectrum, n) in enumerate(self.LADDER):
            C, Y, make_f, oracle = self._instance(self.rng, kind, spectrum, n)
            self.manifest.append({"instance": idx, "integrand": kind, "n": n,
                                  "spectrum": spectrum, "atoms": len(C.atoms),
                                  "projection_mb": len(C.atoms) * n * n * 16 / 1e6})
            self.round.append(self._report(idx, C, Y, make_f, oracle, kind))
        warm_rng = np.random.default_rng(0)
        self.warm = [self._report(-1, *self._instance(warm_rng, kind, "simple", 8), kind)
                     for kind in ("affine", "resolvent")]

    @staticmethod
    def _instance(rng, kind, spectrum, n):
        """C, Y, an integrand factory and an oracle for its exact integral."""
        C = gen.simple_normal(rng, n) if spectrum == "simple" else gen.clustered_normal(rng, n)
        Y = gen.random_complex(rng, n, n, scale=2.0)
        if kind == "affine":
            p, q = 1.0, 2.0
            # sum_k (p Re zeta_k + q Im zeta_k) P_k over all atoms
            oracle = p * (C.M + C.M.conj().T) / 2 + q * (C.M - C.M.conj().T) / 2j
            return C, Y, lambda: opint.OperatorFunction.affine(p, q, n), oracle
        A = gen.shifted_a(rng, n, True, re=(2.5, 3.5))
        D = np.eye(n) + 0.3 * gen.random_complex(rng, n, n)
        # sum_k (A - zeta_k)^{-1} P_k = Z with A Z - Z C = I
        oracle = D @ scipy.linalg.solve_sylvester(A, -C.M, np.eye(n))
        return C, Y, lambda: opint.OperatorFunction.resolvent_family(A, D), oracle

    @staticmethod
    def _report(idx, C, Y, make_f, oracle, kind):
        def run():
            sm = opint.decompose_normal(C.M)
            F = make_f()
            J, _ = opint.integrate_right(F, sm, RECT, tol=1e-10, max_levels=60)
            exact = opint.exact_right_integral(F, sm, RECT)
            return J, exact, opint.e_norm(Y, sm)

        def check(out):
            J, exact, en = out
            scale = max(1.0, _norm(exact))
            if not _norm(J - exact) <= 1e-8 * scale:
                return f"integral differs from exact by {_norm(J - exact):.3e}"
            if not _norm(exact - oracle) <= 1e-9 * scale:
                return f"exact integral differs from oracle by {_norm(exact - oracle):.3e}"
            ref = C.e_norm(Y)
            if not abs(en - ref) <= 1e-10 * max(1.0, ref):
                return f"E-norm {en!r} differs from oracle {ref!r}"
            op, hs = _norm(Y), float(np.linalg.norm(Y, "fro"))
            slack = 1e-12 * max(1.0, op, en, hs)
            if not (op <= en + slack and en <= hs + slack):
                return f"E-norm sandwich fails: {op!r} <= {en!r} <= {hs!r}"
            return None

        return Report(f"i{idx}-{kind}", run, check)


class CliSmall(Workload):
    """Sequential `python -m opint` subprocesses on n = 8 problem files."""

    name = "cli_small"
    tail_pct = 75
    peak_rss = "children"
    N = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        n, rng = self.N, self.rng
        os.makedirs(workdir, exist_ok=True)
        rect = {"a": -1.5, "b": 1.5, "c": -1.5, "d": 1.5}
        C = gen.simple_normal(rng, n)
        Y = gen.random_complex(rng, n, 3, scale=2.0)
        self.enorm_oracle = C.e_norm(Y)
        A_syl, C_syl, D_syl = gen.make_sylvester(rng, n, n, True)
        A_int = gen.shifted_a(rng, n, True, re=(2.5, 3.5))
        D_int = np.eye(n) + 0.3 * gen.random_complex(rng, n, n)
        C_spec = gen.clustered_normal(rng, n)
        self.spectral_atoms = np.sort_complex(C_spec.atoms)
        files = {
            "spectral": {"C": C_spec.M},
            "enorm": {"C": C.M, "Y": Y},
            "sylvester": {"A": A_syl, "C": C_syl.M, "D": D_syl},
            "integrate_affine": {"C": C.M},
            "integrate_resolvent": {"C": C.M, "A": A_int, "D": D_int},
        }
        A, B, Cr, D = gen.make_certified_riccati(rng, n, n, False, 0.45)
        files["riccati"] = {"A": A, "B": B, "C": Cr.M, "D": D}
        self.paths = {}
        for name, mats in files.items():
            doc = {key: gen.matrix_json(M) for key, M in mats.items()}
            if name.startswith("integrate"):
                doc["rect"] = rect
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.paths[name] = path
        self.mats = files
        # (label, problem file, subcommand and options); the default
        # --grid-levels 20 cannot reach --tol 1e-10, so integrate gets 60
        calls = [("spectral", "spectral", ["spectral"]), ("enorm", "enorm", ["enorm"])]
        calls += [(f"sylvester-{m}", "sylvester", ["sylvester", "--method", m])
                  for m in ("spectral", "kronecker", "contour", "double")]
        calls += [("riccati", "riccati", ["riccati"])]
        calls += [(name, name, ["integrate", "--function", fn, "--grid-levels", "60"])
                  for name, fn in (("integrate_affine", "affine:1,2"),
                                   ("integrate_resolvent", "resolvent:A,D"))]
        self.argvs = [(label, name, args[:1] + [self.paths[name]] + args[1:])
                      for label, name, args in calls]
        # the in-process outputs every subprocess must reproduce; producing
        # them is the warm-up pass (a wrong one fails the oracle checks of
        # every matching report)
        self.expected = {}
        out = os.path.join(workdir, "inprocess.out")
        for label, name, argv in self.argvs:
            with suppress(FileNotFoundError):
                os.remove(out)
            try:
                opint.cli.main(argv + ["--output", out])
                with open(out, encoding="utf-8") as fh:
                    self.expected[label] = fh.read()
            except Exception:
                self.expected[label] = None
        self.manifest = [{"call": label, "n": n, "argv": argv}
                         for label, _, argv in self.argvs]
        self.round = [self._report(*call) for call in self.argvs]
        self.warm = self.round[:1]

    def _check_oracle(self, name, argv, code, text):
        """Independent checks of one CLI output."""
        if code != 0:
            return f"exit code {code}"
        mats = self.mats[name]
        if name.startswith("integrate"):
            rows = text.strip().splitlines()
            if rows[-1] != "# converged":
                return f"integration not converged: {rows[-1]!r}"
            err = float(rows[-2].split(",")[-1])
            return None if err <= 1e-8 else f"err_vs_exact {err:.3e}"
        doc = json.loads(text)
        if name == "enorm":
            op, en, hs = doc["op_norm"], doc["e_norm"], doc["hs_norm"]
            if not abs(en - self.enorm_oracle) <= 1e-10 * max(1.0, en):
                return f"E-norm {en!r} differs from oracle {self.enorm_oracle!r}"
            if not (op <= en * (1 + 1e-12) and en <= hs * (1 + 1e-12)):
                return f"E-norm sandwich fails: {op!r} <= {en!r} <= {hs!r}"
            return None
        if name == "spectral":
            eigs = np.sort_complex(np.array([complex(*z) for z in doc["eigenvalues"]]))
            if len(eigs) != len(self.spectral_atoms) or set(doc["multiplicities"]) != {4}:
                return f"atoms or multiplicities wrong: {doc['multiplicities']}"
            err = float(np.abs(eigs - self.spectral_atoms).max())
            return None if err <= 1e-10 else f"eigenvalues off by {err:.3e}"
        X = _from_json(doc["X"])
        if name == "sylvester":
            method = argv[argv.index("--method") + 1]
            return sylvester_problem_check(mats["A"], mats["C"], mats["D"], method, X,
                                           self.span)
        failed = [name for name, chk in doc["posterior"].items() if not chk["ok"]]
        return riccati_check(mats["A"], mats["B"], mats["C"], mats["D"], X,
                             doc["converged"], failed, doc["certificate"]["r_max"])

    def _report(self, label, name, argv, inprocess=False):
        cmd = [sys.executable, "-m", "opint"] + argv
        out = os.path.join(self.workdir, "traced.out")

        def run():
            if inprocess:
                code = opint.cli.main(argv + ["--output", out])
                with open(out, encoding="utf-8") as fh:
                    return code, fh.read()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            return proc.returncode, proc.stdout

        def check(out):
            code, text = out
            msg = self._check_oracle(name, argv, code, text)
            expected = self.expected[label]
            if msg is None and (expected is None or not _same_output(text, expected)):
                msg = "output differs from the in-process result"
            return msg

        return Report(label, run, check)

    def trace_round(self):
        """The same calls made in-process, so the tracer sees every layer."""
        return [self._report(*call, inprocess=True) for call in self.argvs]

    def trace_metrics(self, untraced_samples):
        walls = []
        cmd = [sys.executable, "-m", "opint", "--version"]
        for _ in range(5):
            t0 = time.perf_counter()
            subprocess.run(cmd, capture_output=True, check=True, timeout=60)
            walls.append(time.perf_counter() - t0)
        return {"cli.startup_s": (float(np.median(walls)), "s"),
                "cli.inprocess_s": (float(np.median(untraced_samples)), "s")}


def _from_json(obj):
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _same_output(text, expected, rtol=1e-12):
    """Equal up to the last digits of each number (JSON or CSV)."""
    if text == expected:
        return True
    try:
        a, b = json.loads(text), json.loads(expected)
    except json.JSONDecodeError:
        a = [row.split(",") for row in text.strip().splitlines()]
        b = [row.split(",") for row in expected.strip().splitlines()]
    return _close(a, b, rtol)


def _close(a, b, rtol):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, rtol) for x, y in zip(a, b))
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if math.isnan(x) and math.isnan(y):
        return True
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


WORKLOADS = {w.name: w for w in (SylvesterXcheck, RiccatiClustered,
                                 MeasureStieltjes, CliSmall)}
