"""Independent output checks, in numpy only.

Each check runs after its op's timer has stopped and raises ``CheckFailed``
with a reason; it never calls into equirep, so a defect in the library
cannot hide in its own oracle.  Operators and generators reach the checks as
plain arrays taken from the inputs before the op ran.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

RESIDUAL = 1e-8


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def require(cond: bool, why: str):
    if not cond:
        raise CheckFailed(why)


def frob(a) -> float:
    return float(np.linalg.norm(a))


def commutant(basis, gens, dim: int, known_dim: int):
    """Hermitian orthonormal basis of the known dimension commuting with gens."""
    require(len(basis) == known_dim, f"commutant dim {len(basis)} != {known_dim}")
    stack = np.array(basis).reshape(len(basis), dim, dim)
    gram = np.einsum("aij,bij->ab", stack.conj(), stack)
    require(frob(gram - np.eye(len(basis))) <= RESIDUAL, "basis not orthonormal")
    require(frob(stack - stack.conj().transpose(0, 2, 1)) <= RESIDUAL,
            "basis not Hermitian")
    for k in gens:
        c = np.einsum("aij,jk->aik", stack, k) - np.einsum("ij,ajk->aik", k, stack)
        require(frob(c) <= RESIDUAL * max(1.0, frob(k)), "basis does not commute")


def decomposition(q, blocks, offsets, gens, dim: int, known_comm_dim: int):
    """Block census and the exact q^dag K q = sum_k 1_m x U_k form."""
    require(sum(d * m for d, m in blocks) == dim, f"census {blocks} does not sum to {dim}")
    require(sum(m * m for _, m in blocks) == known_comm_dim,
            f"census {blocks} gives commutant dim != {known_comm_dim}")
    require(q.shape == (dim, dim), "change of basis has the wrong shape")
    require(frob(q.conj().T @ q - np.eye(dim)) <= RESIDUAL, "q is not unitary")
    for k in gens:
        t = q.conj().T @ k @ q
        model = np.zeros_like(t)
        for (d, m), (a, b) in zip(blocks, offsets):
            blk = t[a:b, a:b].reshape(m, d, m, d)
            model[a:b, a:b] = np.kron(np.eye(m), blk[0, :, 0, :])
        require(frob(t - model) <= RESIDUAL * max(1.0, frob(k)), "blocks are not aligned")


def intertwiner(result, gens_r, gens_s, verdict: str, kernel_dim: int):
    require(result.verdict == verdict, f"verdict {result.verdict} != {verdict}")
    require(result.kernel_dim == kernel_dim,
            f"kernel dim {result.kernel_dim} != {kernel_dim}")
    if verdict == "zero-only":
        require(result.phi is None, "zero-only verdict with a map")
        return
    phi = np.asarray(result.phi)
    scale = frob(phi)
    require(scale > 0, "zero intertwiner")
    for kr, ks in zip(gens_r, gens_s):
        require(frob(phi @ kr - ks @ phi) <= RESIDUAL * scale * max(1.0, frob(kr)),
                "map does not intertwine")
    if verdict == "equivalent":
        s = np.linalg.svd(phi, compute_uv=False)
        require(s[-1] > 1e-8 * s[0], "equivalence map is singular")


@functools.lru_cache(maxsize=None)
def perm_span_basis(d: int, k: int) -> np.ndarray:
    """Orthonormal rows spanning vec(P_pi) over S_k acting on (C^d)^(x k).

    By Schur-Weyl this span is the commutant of U^(x k), so projecting onto
    it is the U(d) Haar twirl and the SU(2) tensor-power twirl at d = 2.
    """
    dim = d ** k
    idx = np.array(list(itertools.product(range(d), repeat=k)))
    vecs = []
    for perm in itertools.permutations(range(k)):
        p = np.zeros((dim, dim))
        rows = np.ravel_multi_index(tuple(idx[:, perm[a]] for a in range(k)), [d] * k)
        p[rows, np.arange(dim)] = 1.0
        vecs.append(p.reshape(-1))
    u, s, _ = np.linalg.svd(np.array(vecs).T, full_matrices=False)
    return u[:, s > 1e-10 * s[0]].T


def perm_span_projection(o: np.ndarray, d: int, k: int) -> np.ndarray:
    b = perm_span_basis(d, k)
    return (b.T @ (b.conj() @ o.reshape(-1))).reshape(o.shape)


def group_average(o: np.ndarray, elements) -> np.ndarray:
    return sum(r @ o @ r.conj().T for r in elements) / len(elements)


def close(got, want, why: str):
    got = np.asarray(got)
    require(got.shape == want.shape, f"{why}: shape {got.shape} != {want.shape}")
    require(frob(got - want) <= RESIDUAL * max(1.0, frob(want)), why)


def monte_carlo(got, exact, n_samples: int):
    """Acceptance criterion 07's bound for a unit-norm operator."""
    bound = 5.0 / math.sqrt(n_samples)
    require(frob(got - exact) <= bound, f"Monte Carlo error above 5/sqrt(n) = {bound:.3g}")


def channel_twirl(got, phi, elements):
    want = sum(np.kron(r, r.conj()).conj().T @ phi @ np.kron(r, r.conj())
               for r in elements) / len(elements)
    close(got, want, "channel twirl differs from the group average")


def circuit(gens, layers):
    """W = prod_l exp(-i theta_l H_l), through numpy's eigh."""
    w = np.eye(gens[0].shape[0], dtype=complex)
    for idx, theta in layers:
        vals, vecs = np.linalg.eigh(gens[idx])
        w = w @ (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T
    return w


def lift(rho: np.ndarray, copies: int) -> np.ndarray:
    out = rho
    for _ in range(copies - 1):
        out = np.kron(out, rho)
    return out


def trained_model(w, m, readout, threshold, states, labels, copies, gens_k,
                  final_loss, acc, deviation):
    """Re-evaluate a trained model and compare loss, accuracy and symmetry."""
    a, b = readout
    lifted = np.stack([lift(rho, copies) for rho in states])
    raw = np.einsum("ij,njk,lk,li->n", w, lifted, w.conj(), m).real
    scores = a * raw + b
    require(abs(float(np.mean((scores - labels) ** 2)) - final_loss) <= 1e-9,
            "final loss does not match the trained model")
    decided = np.abs(scores - threshold) > 1e-9
    preds = (scores > threshold).astype(float)
    want_acc = float(np.mean(preds == labels))
    require(abs(acc - want_acc) <= np.count_nonzero(~decided) / len(labels) + 1e-12,
            f"accuracy {acc} != {want_acc}")
    require(deviation <= RESIDUAL, f"label invariance deviation {deviation:.3g}")
    for k in gens_k:
        require(frob(w @ k - k @ w) <= RESIDUAL * max(1.0, frob(k)),
                "circuit is not equivariant")
