"""Span tracing of opint from outside the package.

Each traced function is wrapped at the module boundary: the wrapper is
bound in place of the original under every name that holds it in a
loaded opint module, including values of module-level dicts (the CLI
keeps its solvers in a table).  Spans live in memory as
[name, start, end, parent, report, extra] lists and are written out when
the run ends.  Nothing here is imported on an untraced run.
"""

import inspect
import json
import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".
TRACED = [
    ("spectral", "decompose_normal"),
    ("linalg", "numrange_distances"),
    ("linalg", "resolvent"),
    ("linalg", "operator_norm"),
    ("linalg", "is_normal"),
    ("sylvester", "spectral_gap"),
    ("sylvester", "solve_spectral"),
    ("sylvester", "solve_kronecker"),
    ("sylvester", "solve_contour"),
    ("sylvester", "solve_double_spectral"),
    ("sylvester", "verify_bounds"),
    ("sylvester", "contour_quadrature"),
    ("enorm", "e_norm"),
    ("riccati", "certify"),
    ("riccati", "solve_fixed_point"),
    ("riccati", "posterior_check"),
    ("stieltjes", "integrate_right"),
    ("stieltjes", "exact_right_integral"),
    ("probfile", "load_problem"),
]

# The span the benchmark opens itself around its reference solves.
REFERENCE = "ref.scipy_solve_sylvester"


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _decompose_extra(fn, args, kwargs, result):
    return {"atoms": len(result.eigenvalues), "n": int(result.dim)}


def _numrange_extra(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    points = len(result)
    refine = int(a["refine_iters"])
    return {"eigensolves": int(a["n_angles"]) + 2 * max(refine, 0) * points}


def _contour_extra(fn, args, kwargs, result):
    # nodes double from n_nodes until converged: n0 + 2 n0 + ... + n_final
    a = _bound(fn, args, kwargs)
    n0 = max(int(a["n_nodes"]), 4)
    circles = len(a["circles"])
    return {"circles": circles, "nodes": circles * (2 * int(result[1]) - n0)}


def _fixed_point_extra(fn, args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _integrate_extra(fn, args, kwargs, result):
    return {"levels": len(result[1].levels)}


EXTRAS = {
    "spectral.decompose_normal": _decompose_extra,
    "linalg.numrange_distances": _numrange_extra,
    "sylvester.contour_quadrature": _contour_extra,
    "riccati.solve_fixed_point": _fixed_point_extra,
    "stieltjes.integrate_right": _integrate_extra,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._report = None
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._report, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name, report=None):
        """A span the benchmark opens itself; `report` starts a new report id."""
        if report is not None:
            self._report = report
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            if report is not None:
                self._report = None

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][5] = extra(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Rebind every traced function in every loaded opint module."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "opint" or key.startswith("opint."))]
        for modname, fname in TRACED:
            orig = getattr(sys.modules[f"opint.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for mod in modules:
                space = vars(mod)
                for attr, value in list(space.items()):
                    if value is orig:
                        self._patches.append((space, attr, orig))
                        space[attr] = wrapper
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is orig:
                                self._patches.append((value, key, orig))
                                value[key] = wrapper

    def uninstall(self):
        for space, key, orig in reversed(self._patches):
            space[key] = orig
        self._patches = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report, extra in self.spans:
                fh.write(json.dumps([name, start, end, parent, report, extra]) + "\n")


def layer_names():
    return [f"{m}.{f}" for m, f in TRACED]


def per_layer(spans, rounds):
    """Per-round layer metrics from the spans of `rounds` traced rounds.

    busy_s is inclusive time (outermost span of a name only), self_s is
    span duration minus the time its child spans cover.
    """
    names = layer_names() + [REFERENCE]
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    self_t = dict.fromkeys(names, 0.0)
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            children[parent].append(i)

    def has_ancestor(i, name):
        p = spans[i][3]
        while p is not None:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    atoms = eigensolves = nodes = circles = iterations = levels = 0
    projection_mb = 0.0
    map_time = 0.0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        if name not in calls:
            continue
        dur = end - start
        calls[name] += 1
        self_t[name] += dur - child_time[i]
        if not has_ancestor(i, name):
            busy[name] += dur
        if not extra:
            continue
        if name == "spectral.decompose_normal":
            atoms += extra["atoms"]
            projection_mb = max(projection_mb,
                                extra["atoms"] * extra["n"] ** 2 * 16 / 1e6)
        elif name == "linalg.numrange_distances":
            eigensolves += extra["eigensolves"]
        elif name == "sylvester.contour_quadrature":
            nodes += extra["nodes"]
            circles += extra["circles"]
        elif name == "stieltjes.integrate_right":
            levels += extra["levels"]
        elif name == "riccati.solve_fixed_point":
            iterations += extra["iterations"]
            setup = sum(spans[c][2] - spans[c][1] for c in children[i]
                        if spans[c][0] in ("riccati.certify",
                                           "spectral.decompose_normal",
                                           "enorm.e_norm"))
            map_time += dur - setup

    out = {}
    for name in layer_names():
        out[f"{name}.calls"] = (calls[name] / rounds, "count")
        out[f"{name}.busy_s"] = (busy[name] / rounds, "s")
        out[f"{name}.self_s"] = (self_t[name] / rounds, "s")
    out[f"{REFERENCE}.calls"] = (calls[REFERENCE] / rounds, "count")
    out[f"{REFERENCE}.busy_s"] = (busy[REFERENCE] / rounds, "s")
    out["spectral.atoms"] = (atoms / rounds, "count")
    out["spectral.projection_mb"] = (projection_mb, "MB")
    out["linalg.numrange_distances.eigensolves"] = (eigensolves / rounds, "count")
    out["sylvester.contour_quadrature.nodes"] = (nodes / rounds, "count")
    out["sylvester.contour_quadrature.circles"] = (circles / rounds, "count")
    out["riccati.iterations"] = (iterations / rounds, "count")
    out["riccati.map_step_s"] = (map_time / iterations if iterations else 0.0, "s")
    out["stieltjes.levels"] = (levels / rounds, "count")
    out["stieltjes.level_s"] = (
        busy["stieltjes.integrate_right"] / levels if levels else 0.0, "s")
    out["trace.spans"] = (len(spans) / rounds, "count")
    return out
