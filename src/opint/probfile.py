"""Reading and writing the JSON problem-file format.

Matrices are objects {"rows": n, "cols": m, "data": [[re, im], ...]}
with the entries flattened in row-major order; complex numbers are
always [re, im] pairs so that serialization round-trips bit-exactly.
"""

import json
from dataclasses import fields

import numpy as np

from .errors import InvalidProblemError
from .linalg import Tolerances
from .spectral import Rect

__all__ = ["matrix_to_json", "matrix_from_json", "load_problem"]

MATRIX_KEYS = ("A", "B", "C", "D", "Y")


def matrix_to_json(M):
    M = np.asarray(M, dtype=np.complex128)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in M.ravel(order="C")],
    }


def matrix_from_json(obj, name="matrix"):
    if not isinstance(obj, dict):
        raise InvalidProblemError(f"{name} must be an object, got {type(obj).__name__}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise InvalidProblemError(f"{name} is missing rows/cols/data") from exc
    # exact type tests: bool is a subclass of int, and true/false are not sizes
    if not all(type(v) is int and v >= 1 for v in (rows, cols)):
        raise InvalidProblemError(
            f"{name} rows and cols must be positive integers, got {rows!r}, {cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InvalidProblemError(
            f"{name} data must hold {rows * cols} [re, im] pairs")
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(type(v) in (int, float) for v in pair)):
            raise InvalidProblemError(
                f"{name} data entry {i} is not a [re, im] pair")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise InvalidProblemError(f"{name} data entry {i} exceeds the float range") from exc
    if not np.all(np.isfinite(out)):
        raise InvalidProblemError(f"{name} contains non-finite entries")
    return out.reshape((rows, cols), order="C")


def _numbers(obj, name):
    """The values of a JSON object of numbers, as floats."""
    # exact type test: bool is a subclass of int, and strings are not numbers
    bad = sorted(k for k, v in obj.items() if type(v) not in (int, float))
    if bad:
        raise InvalidProblemError(f"{name} values must be JSON numbers: {bad}")
    return {k: float(v) for k, v in obj.items()}


def load_problem(path):
    """Parse a problem file into matrices, tolerances, rect, and seed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidProblemError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidProblemError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidProblemError("problem file must be a JSON object")
    problem = {"matrices": {}, "tolerances": Tolerances(), "rect": None,
               "seed": raw.get("seed")}
    for key in MATRIX_KEYS:
        if key in raw:
            problem["matrices"][key] = matrix_from_json(raw[key], key)
    if "tolerances" in raw:
        obj = raw["tolerances"]
        if not isinstance(obj, dict):
            raise InvalidProblemError("tolerances must be an object")
        unknown = set(obj) - {f.name for f in fields(Tolerances)}
        if unknown:
            raise InvalidProblemError(f"unknown tolerance keys: {sorted(unknown)}")
        try:
            problem["tolerances"] = Tolerances(**_numbers(obj, "tolerances"))
        except (ValueError, OverflowError) as exc:
            raise InvalidProblemError(f"invalid tolerances: {exc}") from exc
    if "rect" in raw:
        obj = raw["rect"]
        if not isinstance(obj, dict) or set(obj) != {f.name for f in fields(Rect)}:
            raise InvalidProblemError('rect must be an object {"a","b","c","d"}')
        try:
            problem["rect"] = Rect(**_numbers(obj, "rect"))
        except (ValueError, OverflowError) as exc:
            raise InvalidProblemError(f"invalid rect: {exc}") from exc
    return problem
