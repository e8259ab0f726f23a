"""Seeded instance generators owned by the benchmark.

The constructions follow the ones the test suite uses (random unitary
similarity of a chosen diagonal, spectra of A shifted right of spec(C),
Riccati data scaled to a fixed certificate margin), but they live here so
that editing a test cannot change a workload.  Nothing in this module
calls opint: every scale factor and every oracle value is computed with
numpy alone, so a change to the program cannot change its own inputs.
"""

import numpy as np


def random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_complex(rng, rows, cols, scale=1.0):
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return scale * M / max(1.0, np.linalg.norm(M, 2))


def box_points(rng, n, re=(-1.0, 1.0), im=(-1.0, 1.0)):
    return rng.uniform(*re, n) + 1j * rng.uniform(*im, n)


GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def sunflower(rng, n, center=0.0, radius=1.0, jitter=0.02):
    """n evenly spread points in a disk, each moved by a small seeded jitter.

    The solvers' paths (single contour circle or one per atom, quadrature
    node counts, fixed-point iteration counts) depend on how the spectra
    sit relative to each other.  A fixed pattern keeps those paths the
    same for every seed, so the seed changes the numbers a report works
    on but not how much work it does.
    """
    j = np.arange(n)
    z = center + radius * np.sqrt((j + 0.5) / n) * np.exp(1j * GOLDEN_ANGLE * j)
    return z + jitter * radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


class NormalMatrix:
    """U diag(eigs) U* together with its atoms, kept as an E-norm oracle.

    groups[j] lists the columns of U spanning the eigenspace of atoms[j].
    """

    def __init__(self, rng, eigs, groups, atoms):
        self.U = random_unitary(rng, len(eigs))
        self.eigs = np.asarray(eigs, dtype=np.complex128)
        self.M = (self.U * self.eigs) @ self.U.conj().T
        self.groups = groups
        self.atoms = np.asarray(atoms, dtype=np.complex128)

    def e_norm(self, Y):
        """sqrt(sum_k ||U_k* Y||^2), the atomic-partition E-norm."""
        return float(np.sqrt(sum(np.linalg.norm(self.U[:, g].conj().T @ Y, 2) ** 2
                                 for g in self.groups)))


def simple_normal(rng, n, points=None):
    """Normal matrix with n distinct eigenvalues (K = n atoms)."""
    eigs = box_points(rng, n) if points is None else points
    return NormalMatrix(rng, eigs, [[i] for i in range(n)], eigs)


def clustered_normal(rng, n, mult=4, atoms=None):
    """Normal matrix whose atoms each repeat `mult` times (K = n / mult)."""
    if n % mult:
        raise ValueError(f"n = {n} is not a multiple of {mult}")
    atoms = box_points(rng, n // mult) if atoms is None else atoms
    eigs = np.repeat(atoms, mult)
    groups = [list(range(j * mult, (j + 1) * mult)) for j in range(len(atoms))]
    return NormalMatrix(rng, eigs, groups, atoms)


def shifted_a(rng, h, normal, re=(2.0, 4.0), strength=0.2, points=None):
    """A with spectrum right of the unit box (or at the given points);
    optionally made non-normal by a strictly upper-triangular
    perturbation, which keeps the spectrum."""
    eigs = box_points(rng, h, re=re) if points is None else points
    U = random_unitary(rng, h)
    T = np.diag(eigs)
    if not normal:
        T = T + strength * np.triu(random_complex(rng, h, h), 1)
    return U @ T @ U.conj().T


def make_sylvester(rng, h, k, normal_a):
    """(A, C, D) with spec(C) in the unit disk and spec(A) in the unit disk
    around 3, so the spectral gap is about 1 and one contour circle fits."""
    C = simple_normal(rng, k, points=sunflower(rng, k))
    A = shifted_a(rng, h, normal_a, points=sunflower(rng, h, center=3.0))
    D = random_complex(rng, k, h)
    return A, C, D


def make_ring_sylvester(rng, h, k):
    """spec(C) on the unit circle and one eigenvalue of A near its centre.

    A single circle around spec(C) would enclose that eigenvalue, so the
    contour solver must fall back to one circle per atom.
    """
    phi = 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, k)) / k
    C = simple_normal(rng, k, points=np.exp(1j * phi))
    inner = 0.05 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    pts = np.concatenate([[inner], sunflower(rng, h - 1, center=3.0)])
    A = shifted_a(rng, h, True, points=pts)
    D = random_complex(rng, k, h)
    return A, C, D


def numrange_gap(A, points, n_angles=360):
    """Lower bound on dist(points, W(A)) from a sampled support function.

    Sampling can only miss the best separating angle, so the value never
    exceeds the true distance.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    phase = np.exp(-1j * thetas)[:, None, None]
    H = 0.5 * (phase * A + np.conj(np.transpose(phase * A, (0, 2, 1))))
    h = np.linalg.eigvalsh(H)[:, -1]
    g = np.real(np.exp(-1j * thetas)[:, None] * points[None, :]) - h[:, None]
    return float(max(g.max(axis=0).min(), 0.0))


def make_certified_riccati(rng, h, k, normal_a, margin, mult=4):
    """(A, B, C, D) scaled so that sqrt(||B|| ||D||_E) = margin * d.

    d is the spectral gap for normal A and a sampled lower bound on
    dist(spec C, W(A)) otherwise, so the program's own certificate sees
    a margin of at most `margin`.
    """
    C = clustered_normal(rng, k, mult, atoms=sunflower(rng, k // mult))
    A = shifted_a(rng, h, normal_a, strength=0.1,
                  points=sunflower(rng, h, center=3.25, radius=0.75))
    B = random_complex(rng, h, k)
    D = random_complex(rng, k, h)
    if normal_a:
        eig_a = np.linalg.eigvals(A)
        d = float(np.abs(eig_a[:, None] - C.atoms[None, :]).min())
    else:
        d = numrange_gap(A, C.atoms)
    bd = np.linalg.norm(B, 2) * C.e_norm(D)
    s = np.sqrt((margin * d) ** 2 / bd)
    return A, s * B, C, s * D


def matrix_json(M):
    """Problem-file encoding of a matrix: row-major [re, im] pairs."""
    M = np.asarray(M, dtype=np.complex128)
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
            "data": [[float(v.real), float(v.imag)] for v in M.ravel()]}
