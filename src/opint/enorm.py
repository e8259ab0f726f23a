"""Norm of an operator with respect to a spectral measure.

The E-norm of Y is the square root of the supremum, over systems of
mutually disjoint Borel sets, of  sum_k ||Y* E(Omega_k) Y||.  It sits
between the operator norm and the Hilbert-Schmidt norm and is the
quantity all solvability certificates for the quadratic equation are
measured in.
"""

from typing import NamedTuple

import numpy as np

from .errors import BoundViolationError, ShapeMismatchError
from .linalg import _pow2_scale, adjoint, hs_norm, operator_norm
from .stieltjes import OperatorFunction, exact_left_integral

__all__ = ["BoundCheck", "e_norm", "check_enorm_sandwich", "bounded_integral_bound_check"]


class BoundCheck(NamedTuple):
    """An asserted bound together with the observed value; `ok` allows
    1e-12 slack relative to the bound, at every scale."""

    bound: float
    observed: float

    @property
    def ok(self):
        return self.observed <= self.bound + 1e-12 * abs(self.bound)


def e_norm(Y, sm):
    """E-norm of Y with respect to the spectral measure sm.

    Evaluated in closed form at the atomic partition: refining a set
    splits one projection sum into several, and since the measure is
    additive and the operator norm subadditive the partition sum can
    only grow under refinement, so for a finite spectrum the supremum
    over Borel partitions is attained when every atom is its own set.
    Each term ||Y* P_k Y|| = ||Q_k* Y||^2 is a row block of Q* Y, with one
    stacked norm per multiplicity and the squares added in atom order,
    scaled by a power of two where a square would leave the normal range.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.ndim != 2 or Y.shape[0] != sm.dim:
        raise ShapeMismatchError(
            f"Y must have {sm.dim} rows to match the measure, got {Y.shape}")
    W = adjoint(sm.basis) @ Y
    norms = np.empty(len(sm))
    for m in np.unique(sm.multiplicities):
        atoms = np.flatnonzero(sm.multiplicities == m)
        blocks = W[np.add.outer(sm._offsets[atoms], np.arange(m))]
        norms[atoms] = np.linalg.norm(blocks, 2, axis=(-2, -1))
    s = _pow2_scale(float(norms.max()), len(norms))
    return s * float(np.sqrt(sum((x / s) ** 2 for x in norms.tolist())))


def check_enorm_sandwich(Y, sm):
    """The triple (||Y||, ||Y||_E, ||Y||_2), verifying its ordering.

    Raises BoundViolationError when the sandwich
    ||Y|| <= ||Y||_E <= ||Y||_2 fails a `BoundCheck`, which would
    indicate a broken measure rather than a borderline instance.
    """
    op = operator_norm(Y)
    en = e_norm(Y, sm)
    hs = hs_norm(Y)
    if not BoundCheck(en, op).ok:
        raise BoundViolationError(f"||Y|| = {op} exceeds ||Y||_E = {en}")
    if not BoundCheck(hs, en).ok:
        raise BoundViolationError(f"||Y||_E = {en} exceeds ||Y||_2 = {hs}")
    return op, en, hs


def bounded_integral_bound_check(Y, F, sm, rect):
    """Evaluate both sides of the E-norm bound for a weighted integral.

    lhs is the norm of the left integral of  z -> Y F(z)  over rect, rhs
    is ||Y||_E times the sup of ||F|| over the eigenvalues in rect.
    Returns (lhs, rhs), raising BoundViolationError unless lhs <= rhs
    up to the measure's solver slack.
    """
    enorm_y = e_norm(Y, sm)  # validates the shape of Y
    Y = np.asarray(Y, dtype=np.complex128)
    h = Y.shape[1]
    probe = F(rect.a, rect.c)
    if probe.shape != (h, h):
        raise ShapeMismatchError(
            f"F must return ({h} x {h}) matrices to compose with Y, "
            f"got {probe.shape}")
    weighted = OperatorFunction(lambda lam, mu: Y @ F(lam, mu))
    lhs = operator_norm(exact_left_integral(weighted, sm, rect))
    atoms = sm.atoms_in(rect)
    sup_F = max((operator_norm(F(sm.eigenvalues[k].real, sm.eigenvalues[k].imag))
                 for k in atoms), default=0.0)
    rhs = enorm_y * sup_F
    slack = sm.tolerances.tol_solve * rhs
    if not lhs <= rhs + slack:
        raise BoundViolationError(
            f"integral bound violated: {lhs} > {rhs} + {slack}")
    return lhs, rhs
