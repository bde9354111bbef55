"""Kernel solvers kept as oracles for the intertwiner and commutant tests.

``eigenspace_kernel`` solves phi R(g) = S(g) phi directly: in the
eigenbases of two algebra elements drawn with the same coefficients, phi
only connects eigenspaces with equal eigenvalues, and the generator
constraints are solved for those entries alone by ``null_space``.
"""

import numpy as np

from equirep import linalg
from equirep.decompose import _algebra_element, _cluster_labels
from equirep.linalg import DEFAULT_TOL, Tolerance
from equirep.representations import require_unitary

_KERNEL_SEED = 2210


def null_space(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of ``m`` as matrix columns.

    Singular values below ``max(tol.absolute, tol.relative * sigma_max)`` are
    classified as zero.  The returned array has shape ``(cols, k)`` and may
    have ``k = 0``.  Tall inputs take the thin SVD, whose square ``vh``
    already spans the row space; wide inputs need the full ``vh``.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    smax = s[0] if s.size else 0.0
    cutoff = tol.threshold(smax)
    rank = int(np.sum(s >= cutoff))
    return linalg.dagger(vh[rank:])


def eigenspace_kernel(r, s, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Every phi with phi R(g) = S(g) phi, as an orthonormal (k, d_s, d_r) stack.

    Diagonalize A_R = v_r diag(a) v_r^dag and A_S = v_s diag(b) v_s^dag, two
    algebra elements with the same coefficients; X = v_s^dag phi v_r then
    obeys X diag(a) = diag(b) X and is found by matched_kernel.
    Orthonormality under Tr[A^dag B] holds because the rotation back to phi
    is unitary on both sides.
    """
    require_unitary(r)
    if s is not r:
        require_unitary(s)
    w_r, v_r = np.linalg.eigh(_algebra_element(r, np.random.default_rng(_KERNEL_SEED)))
    w_s, v_s = (w_r, v_r) if s is r else np.linalg.eigh(
        _algebra_element(s, np.random.default_rng(_KERNEL_SEED)))
    k_r = linalg.dagger(v_r) @ r.generator_images @ v_r
    k_s = linalg.dagger(v_s) @ s.generator_images @ v_s
    x = matched_kernel(k_r, w_r, k_s, w_s, tol)
    return v_s @ x @ linalg.dagger(v_r)


def matched_kernel(k_r, w_r, k_s, w_s, tol: Tolerance) -> np.ndarray:
    """Orthonormal (k, d_s, d_r) basis of X with X K_r = K_s X for stacked K.

    The caller guarantees X diag(w_r) = diag(w_s) X for every solution, so
    only entries X[p, q] with w_s[p] and w_r[q] in one eigenvalue cluster
    are unknowns, and the constraints are solved for those entries alone.
    """
    d_s, d_r = len(w_s), len(w_r)
    # Cluster both spectra together; equal labels mark allowed entries.
    labels = _cluster_labels(np.concatenate([w_s, w_r]))
    p, q = np.nonzero(labels[:d_s, None] == labels[None, d_s:])
    n = p.size
    if n == 0:
        return np.zeros((0, d_s, d_r), dtype=complex)
    # Column t of the constraint matrix is E_pq K_r - K_s E_pq for every
    # generator, with (p, q) the t-th unknown entry.
    e_p = np.eye(d_s)[p]
    e_q = np.eye(d_r)[q]
    rows = np.einsum("ti,gtj->gijt", e_p, k_r[:, q, :])
    rows -= np.einsum("git,tj->gijt", k_s[:, :, p], e_q)
    ker = null_space(rows.reshape(-1, n), tol)
    x = np.zeros((ker.shape[1], d_s, d_r), dtype=complex)
    x[:, p, q] = ker.T
    return x
