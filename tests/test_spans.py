"""perfbench/spans.py names opint functions and parameters by string; a
rename inside opint would break `perfbench/run.py --trace 1` silently."""

import importlib
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

from opint import OperatorFunction, Rect

from conftest import make_certified_riccati, make_sylvester

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # executed from source, so that no bytecode is written into perfbench/
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def _traced(name):
    module, function = name.split(".")
    return getattr(importlib.import_module(f"opint.{module}"), function)


def test_every_traced_function_exists(spans):
    for module, function in spans.TRACED:
        assert callable(_traced(f"{module}.{function}")), (module, function)
    assert set(spans.EXTRAS) <= {f"{m}.{f}" for m, f in spans.TRACED}


def test_extras_bind_parameters_that_exist(spans):
    bound = {name: set(re.findall(r'a\["(\w+)"\]', inspect.getsource(extra)))
             for name, extra in spans.EXTRAS.items()}
    assert bound["linalg.numrange_distances"] >= {"n_angles", "refine_iters"}
    assert bound["sylvester.contour_quadrature"] >= {"n_nodes", "circles"}
    for name, params in bound.items():
        assert params <= set(inspect.signature(_traced(name)).parameters), name


def test_extras_read_real_calls(spans, rng):
    prob = make_sylvester(rng, 3, 3, normal_a=False)
    fn = _traced("linalg.numrange_distances")
    args = (prob.A, np.array([5.0, 6.0j]))
    extra = spans.EXTRAS["linalg.numrange_distances"](fn, args, {}, fn(*args))
    assert extra["eigensolves"] >= 32
    fn = _traced("sylvester.contour_quadrature")
    args = (prob, [(complex(z), 0.1) for z in np.linalg.eigvals(prob.C)])
    extra = spans.EXTRAS["sylvester.contour_quadrature"](fn, args, {}, fn(*args))
    assert extra["circles"] == 3 and extra["nodes"] >= 3 * 32


def test_extras_read_real_reports(spans, rng):
    fn = _traced("spectral.decompose_normal")
    C = np.diag([0.5, 0.5, 1j])
    sm = fn(C)
    assert spans.EXTRAS["spectral.decompose_normal"](fn, (C,), {}, sm) == {"atoms": 2, "n": 3}
    fn = _traced("stieltjes.integrate_right")
    args = (OperatorFunction.affine(1.0, 2.0, 3), sm, Rect(-2.0, 2.0, -2.0, 2.0))
    kwargs = {"tol": 1e-10, "max_levels": 60}
    extra = spans.EXTRAS["stieltjes.integrate_right"](fn, args, kwargs, fn(*args, **kwargs))
    assert extra["levels"] >= 2
    fn = _traced("riccati.solve_fixed_point")
    prob = make_certified_riccati(rng, 3, 3)
    extra = spans.EXTRAS["riccati.solve_fixed_point"](fn, (prob,), {}, fn(prob))
    assert extra["iterations"] >= 1
