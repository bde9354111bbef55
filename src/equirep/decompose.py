"""Commutants, isotypic decomposition, intertwiners, and the Schur-Weyl check.

Commutants and intertwiners come from one kernel solver.  Any phi with
phi R(g) = S(g) phi also satisfies phi A_R = A_S phi for a Hermitian element
A of the representation's algebra taken with the same coefficients on both
sides, so in the eigenbases of A_R and A_S phi only connects eigenspaces
with equal eigenvalues.  The unknowns shrink from d_s d_r to the entries on matched
eigenvalue clusters (sum_k d_k m_k^2 for a commutant), and the generator
constraints are solved in that reduced space (the route of RepLAB and of
Maehara & Murota's block-diagonalization of matrix *-algebras).  The
argument needs the algebra to be closed under the adjoint, so the solver
rejects non-unitary representations.

The decomposition algorithm follows the classic two-element strategy: a
generic Hermitian element A of the representation's algebra has, inside each
isotypic block, the form 1_m x A_k with simple A_k spectrum, while a generic
Hermitian element C of the commutant has the complementary form C_k x 1_d.
Joint eigenspaces of the commuting pair (A, C) are then one-dimensional and
their eigenvalue bipartite graph reconstructs the blocks; copies inside a
block are aligned into the exact 1_m x U_k form with explicit unitary
intertwiners.  Degenerate draws are handled by redrawing with a derived seed,
never by perturbing, so the change of basis stays numerically unitary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DecompositionFailedError,
    DimensionTooLargeError,
    NumericalError,
    SourceMismatchError,
)
from .linalg import DEFAULT_TOL, Tolerance, haar_unitary
from .representations import (
    Representation,
    perm_matrix_on_tensor,
    perm_rep_tensor,
    require_unitary,
    sources_match,
    tensor_power,
    unitary_algebra_rep,
)

__all__ = [
    "CommutantBasis", "IsotypicDecomposition", "Intertwiner", "SchurWeylReport",
    "commutant_basis", "isotypic_decompose", "is_irreducible", "find_intertwiner",
    "schur_weyl_check", "block_projectors", "block_diagonal_part", "irrep_blocks",
    "decomposition_residuals",
]

MAX_REDRAWS = 8
# Eigenvalues of the splitting element closer than this, relative to its
# spectral scale, share a cluster.  Merging clusters only enlarges the search
# space, while splitting a true eigenspace would lose solutions, so the cut
# sits far above eigh's rounding and far below the gaps of a generic element.
_CLUSTER_GAP = 1e-6
_KERNEL_SEED = 2210


@dataclass
class CommutantBasis:
    """Hermitian basis of everything commuting with a representation.

    ``basis`` is an ``(n, d, d)`` complex128 stack, orthonormal under
    Tr[A^dag B]; because the commutant is closed under the adjoint, its
    Hermitian part has the same (real) dimension as the commutant itself has
    over the complex numbers, so ``dim`` doubles as both counts.
    """

    rep: Representation
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)


def commutant_basis(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> CommutantBasis:
    """Solve [B, R(g)] = 0 over generators (finite) or images (lie).

    Commuting with the generators implies commuting with the whole group by
    the homomorphism property.  The kernel is solved only over the blocks
    that a generic algebra element's eigenspaces allow (see the module
    docstring), which costs O(sum_k d_k m_k^2) unknowns instead of d^2.  The
    returned elements are Hermitian and orthonormal; their real span is the
    full commutant's Hermitian part.

    Raises:
        ValidationError: if the representation is not unitary.
    """
    kernel = _eigenspace_kernel(rep, rep, tol)
    complex_dim = len(kernel)
    adj = kernel.conj().transpose(0, 2, 1)
    # Rows interleave h_0, a_0, h_1, a_1, ...; the basis the SVD returns
    # depends on that order.
    herm = np.stack([(kernel + adj) / 2, (kernel - adj) / 2j], axis=1).reshape(-1, *kernel.shape[1:])
    basis = linalg.orthonormalize_hermitian(herm, tol)
    if len(basis) != complex_dim:
        # Hermitian closure must preserve the dimension; a mismatch signals
        # a rank decision sitting on the tolerance threshold.
        basis = linalg.orthonormalize_hermitian(herm, Tolerance(tol.absolute * 10,
                                                                tol.relative * 10))
        if len(basis) != complex_dim:
            raise NumericalError(
                f"commutant rank is ambiguous at this tolerance "
                f"({len(basis)} Hermitian vs {complex_dim} complex dimensions)")
    return CommutantBasis(rep, basis)


def is_irreducible(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Schur test: irreducible iff the commutant is spanned by the identity."""
    return commutant_basis(rep, tol).dim == 1


@dataclass
class IsotypicDecomposition:
    """Unitary change of basis q with q^dag R(g) q = sum_k 1_{m_k} x U_k(g)."""

    q: np.ndarray
    blocks: list[tuple[int, int]]          # (irrep dim d_k, multiplicity m_k)
    block_offsets: list[tuple[int, int]]   # column ranges in q, copy-major

    def block_slice(self, k: int) -> slice:
        a, b = self.block_offsets[k]
        return slice(a, b)


@dataclass
class Intertwiner:
    """A solution of phi R(g) = S(g) phi with a Schur-style verdict."""

    phi: np.ndarray | None
    verdict: str                      # "zero-only" | "equivalent" | "partial"
    kernel_dim: int


# ---------------------------------------------------------------------------
# random splitting elements

def _algebra_element(rep: Representation, rng: np.random.Generator) -> np.ndarray:
    """Generic Hermitian element of the associative algebra of the rep.

    Finite flavor: random Hermitian combination of all representatives,
    using both symmetrized and anti-symmetrized parts (conjugate-pair
    one-dimensional irreps are inseparable without the latter).  Lie flavor:
    random combination of the images and their symmetrized pairwise products
    (plain combinations leave e.g. adjoint-type weight-zero spaces degenerate
    against trivial blocks).
    """
    if rep.flavor == "finite":
        mats = rep.representatives()
        a = np.zeros((rep.dim, rep.dim), dtype=complex)
        w = rng.standard_normal(len(mats))
        v = rng.standard_normal(len(mats))
        for wi, vi, m in zip(w, v, mats):
            a += wi * (m + linalg.dagger(m)) + vi * 1j * (m - linalg.dagger(m))
        return a
    imgs = rep.generator_images
    words = list(imgs)
    for i in range(len(imgs)):
        for j in range(i, len(imgs)):
            words.append((imgs[i] @ imgs[j] + imgs[j] @ imgs[i]) / 2)
    w = rng.standard_normal(len(words))
    a = np.zeros((rep.dim, rep.dim), dtype=complex)
    for wi, m in zip(w, words):
        a += wi * m
    return a


def _commutant_element(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.tensordot(rng.standard_normal(len(basis)), basis, 1)


def _cluster(values: np.ndarray, gap_tol: float):
    """Split a sorted eigenvalue array where consecutive gaps exceed gap_tol."""
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > gap_tol:
            groups.append([idx])
        else:
            groups[-1].append(idx)
    return groups


def _eigenspace_kernel(r: Representation, s: Representation,
                       tol: Tolerance) -> np.ndarray:
    """Every phi with phi R(g) = S(g) phi, as an orthonormal (k, d_s, d_r) stack.

    Diagonalize A_R = v_r diag(a) v_r^dag and A_S = v_s diag(b) v_s^dag, two
    algebra elements with the same coefficients; X = v_s^dag phi v_r then
    obeys X diag(a) = diag(b) X and is found by _matched_kernel.
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
    x = _matched_kernel(k_r, w_r, k_s, w_s, tol)
    return v_s @ x @ linalg.dagger(v_r)


def _matched_kernel(k_r: np.ndarray, w_r: np.ndarray, k_s: np.ndarray,
                    w_s: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal (k, d_s, d_r) basis of X with X K_r = K_s X for stacked K.

    The caller guarantees X diag(w_r) = diag(w_s) X for every solution, so
    only entries X[p, q] with w_s[p] and w_r[q] in one eigenvalue cluster
    are unknowns, and the constraints are solved for those entries alone.
    """
    d_s, d_r = len(w_s), len(w_r)
    # Cluster both spectra together; equal labels mark allowed entries.
    w = np.concatenate([w_s, w_r])
    order = np.argsort(w, kind="stable")
    scale = max(float(np.ptp(w)), float(np.abs(w).max())) if w.size else 0.0
    labels = np.empty(w.size, dtype=np.int64)
    labels[order] = np.concatenate(
        [[0], np.cumsum(np.diff(w[order]) > _CLUSTER_GAP * scale)])
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
    ker = linalg.null_space(rows.reshape(-1, n), tol)
    x = np.zeros((ker.shape[1], d_s, d_r), dtype=complex)
    x[:, p, q] = ker.T
    return x


class _Genericity(Exception):
    """Internal: the random draw was degenerate, redraw."""


def _verification_set(rep: Representation, rng: np.random.Generator):
    """Operators whose block alignment certifies the decomposition."""
    if rep.flavor == "finite":
        g = rep.group
        if g.order <= 64:
            ops = rep.representatives()
        else:
            ops = list(rep.generator_images)
            ops += [rep.representative(int(rng.integers(g.order))) for _ in range(20)]
    else:
        ops = list(rep.generator_images)
        for _ in range(5):
            w = rng.standard_normal(len(rep.generator_images))
            h = sum(wi * hi for wi, hi in zip(w, rep.generator_images))
            ops.append(linalg.exp_unitary(h, float(rng.uniform(0, 2 * np.pi))))
    return ops


def _attempt_decomposition(rep, comm_basis, rng, tol):
    d_total = rep.dim
    a = _algebra_element(rep, rng)
    c = _commutant_element(comm_basis, rng)

    wa, va = np.linalg.eigh(a)
    wc = np.linalg.eigvalsh(c)
    gap_a = max(1e-8 * max(1.0, wa[-1] - wa[0]), 1e-10)
    gap_c = max(1e-8 * max(1.0, wc[-1] - wc[0]), 1e-10)
    a_groups = _cluster(wa, gap_a)
    c_groups = _cluster(wc, gap_c)
    c_values = np.array([np.mean(wc[g]) for g in c_groups])

    # Joint eigenvectors, labeled by (alpha cluster, gamma cluster).
    joint: dict[tuple[int, int], np.ndarray] = {}
    edges: set[tuple[int, int]] = set()
    for ai, grp in enumerate(a_groups):
        v_alpha = va[:, grp]
        c_alpha = linalg.dagger(v_alpha) @ c @ v_alpha
        wloc, wvec = np.linalg.eigh((c_alpha + linalg.dagger(c_alpha)) / 2)
        loc_groups = _cluster(wloc, gap_c)
        for lg in loc_groups:
            if len(lg) != 1:
                raise _Genericity("joint eigenspace not one-dimensional")
            val = wloc[lg[0]]
            dist = np.abs(c_values - val)
            gi = int(np.argmin(dist))
            if dist[gi] > 10 * gap_c + 1e-9:
                raise _Genericity("commutant eigenvalue failed to match globally")
            key = (ai, gi)
            if key in joint:
                raise _Genericity("duplicate joint eigenvalue pair")
            joint[key] = v_alpha @ wvec[:, lg[0]]
            edges.add(key)

    # Connected components of the eigenvalue bipartite graph are the blocks.
    a_adj: dict[int, set[int]] = {}
    c_adj: dict[int, set[int]] = {}
    for ai, gi in edges:
        a_adj.setdefault(ai, set()).add(gi)
        c_adj.setdefault(gi, set()).add(ai)
    seen_a: set[int] = set()
    components = []
    for start in range(len(a_groups)):
        if start in seen_a:
            continue
        comp_a, comp_c = set(), set()
        stack_a = [start]
        while stack_a:
            x = stack_a.pop()
            if x in comp_a:
                continue
            comp_a.add(x)
            for gi in a_adj.get(x, ()):
                if gi not in comp_c:
                    comp_c.add(gi)
                    stack_a.extend(c_adj.get(gi, ()))
        seen_a |= comp_a
        components.append((sorted(comp_a, key=lambda i: np.mean(wa[a_groups[i]])),
                           sorted(comp_c, key=lambda i: c_values[i])))

    constraints = rep.generator_images
    blocks = []
    for alphas, gammas in components:
        d_k, m_k = len(alphas), len(gammas)
        if any((ai, gi) not in joint for ai in alphas for gi in gammas):
            raise _Genericity("component is not a complete bipartite block")
        copies = []
        for gi in gammas:
            cols = np.column_stack([joint[(ai, gi)] for ai in alphas])
            copies.append(cols)
        # Align copies 1.. with copy 0 through explicit unitary intertwiners.
        # Every copy's columns are eigenvectors of a for the same clusters,
        # so the intertwiners are diagonal in them up to merged clusters.
        w_k = np.array([np.mean(wa[a_groups[ai]]) for ai in alphas])
        ref = copies[0]
        u_ref = linalg.dagger(ref) @ constraints @ ref
        for j in range(1, m_k):
            u_j = linalg.dagger(copies[j]) @ constraints @ copies[j]
            ker = _matched_kernel(u_ref, w_k, u_j, w_k, tol)
            if len(ker) == 0:
                raise _Genericity("copies in one block are not equivalent")
            s = ker[0]
            gram = linalg.dagger(s) @ s
            scale = float(np.real(np.trace(gram))) / d_k
            if scale < 1e-12 or linalg.frob(gram - scale * np.eye(d_k)) > 1e-6 * scale * d_k:
                raise _Genericity("intertwiner is not proportional to a unitary")
            copies[j] = copies[j] @ (s / np.sqrt(scale))
        first_alpha = float(np.mean(wa[a_groups[alphas[0]]]))
        blocks.append((d_k, m_k, first_alpha, np.hstack(copies)))

    blocks.sort(key=lambda t: (-t[0], -t[1], t[2]))
    q = np.hstack([b[3] for b in blocks])
    if q.shape != (d_total, d_total):
        raise _Genericity("assembled basis is not square")
    offsets = []
    pos = 0
    out_blocks = []
    for d_k, m_k, _, _ in blocks:
        offsets.append((pos, pos + d_k * m_k))
        out_blocks.append((d_k, m_k))
        pos += d_k * m_k
    dec = IsotypicDecomposition(q, out_blocks, offsets)

    # Certify before returning: unitarity and the exact 1_m x U block form.
    if linalg.frob(linalg.dagger(q) @ q - np.eye(d_total)) > 1e-9 * d_total:
        raise _Genericity("change of basis is not unitary")
    check_ops = _verification_set(rep, rng)
    if _alignment_residual(dec, check_ops) > 1e-8:
        raise _Genericity("block alignment residual too large")
    return dec


def _alignment_residual(dec: IsotypicDecomposition, ops) -> float:
    """Worst deviation of q^dag K q from the declared sum_k 1_m x U_k form."""
    q = dec.q
    res = 0.0
    for k_op in ops:
        t = linalg.dagger(q) @ k_op @ q
        model = np.zeros_like(t)
        for (d_k, m_k), (a, b) in zip(dec.blocks, dec.block_offsets):
            blk = t[a:b, a:b].reshape(m_k, d_k, m_k, d_k)
            u0 = blk[0, :, 0, :]
            model[a:b, a:b] = np.kron(np.eye(m_k), u0)
        res = max(res, linalg.frob(t - model))
    return res


def decomposition_residuals(rep: Representation, dec: IsotypicDecomposition,
                            rng_seed: int = 0) -> dict:
    rng = np.random.default_rng([rng_seed, 17])
    ops = _verification_set(rep, rng)
    return {
        "unitarity": linalg.frob(linalg.dagger(dec.q) @ dec.q - np.eye(rep.dim)),
        "block_alignment": _alignment_residual(dec, ops),
    }


def isotypic_decompose(rep: Representation, rng_seed: int = 0,
                       tol: Tolerance = DEFAULT_TOL,
                       commutant: CommutantBasis | None = None) -> IsotypicDecomposition:
    """Decompose a unitary representation into aligned isotypic blocks.

    Deterministic given ``rng_seed``; degenerate random draws trigger a
    redraw with a derived seed, at most 8 attempts, after which
    DecompositionFailedError signals tolerance or non-unitarity problems.
    Blocks are sorted by descending irrep dimension, then descending
    multiplicity, ties by first occurrence at ascending splitting eigenvalue.

    ``commutant`` reuses a basis already solved for this same ``rep``.  The
    certified block census must reproduce its dimension as sum_k m_k^2; a
    mismatch raises NumericalError, since one of the two rank decisions is
    wrong.
    """
    if commutant is None:
        commutant = commutant_basis(rep, tol)
    elif commutant.rep is not rep:
        raise SourceMismatchError(
            f"commutant was solved for {commutant.rep.name}, not for {rep.name}")
    last = "no attempt run"
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng([int(rng_seed), attempt])
        try:
            dec = _attempt_decomposition(rep, commutant.basis, rng, tol)
        except _Genericity as exc:
            last = str(exc)
            continue
        census = sum(m * m for _, m in dec.blocks)
        if census != commutant.dim:
            raise NumericalError(
                f"block census {dec.blocks} gives a commutant of dimension "
                f"{census}, the kernel solver found {commutant.dim}")
        return dec
    raise DecompositionFailedError(
        f"no certified decomposition after {MAX_REDRAWS} redraws: {last}")


def block_projectors(dec: IsotypicDecomposition) -> list[np.ndarray]:
    """Orthogonal projectors onto the isotypic components, original basis."""
    out = []
    for a, b in dec.block_offsets:
        cols = dec.q[:, a:b]
        out.append(cols @ linalg.dagger(cols))
    return out


def block_diagonal_part(dec: IsotypicDecomposition, rho: np.ndarray) -> np.ndarray:
    """Pinch an operator to the block-diagonal part seen by equivariant models."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for p in block_projectors(dec):
        out += p @ rho @ p
    return out


def irrep_blocks(rep: Representation, dec: IsotypicDecomposition) -> list[Representation]:
    """One representative irrep per block (the first aligned copy)."""
    out = []
    for (d_k, m_k), (a, b) in zip(dec.blocks, dec.block_offsets):
        cols = dec.q[:, a:a + d_k]
        imgs = linalg.dagger(cols) @ rep.generator_images @ cols
        if rep.flavor == "lie":
            imgs = (imgs + imgs.conj().transpose(0, 2, 1)) / 2
        out.append(Representation(rep.source, rep.flavor, d_k,
                                  f"{rep.name}[block{len(out)}]", imgs))
    return out


def find_intertwiner(r: Representation, s: Representation,
                     tol: Tolerance = DEFAULT_TOL) -> Intertwiner:
    """Solve phi R(g) = S(g) phi over generators; classify per Schur.

    Uses the same eigenspace-reduced kernel solver as commutant_basis, so
    both representations must be unitary.  "equivalent" requires an
    invertible kernel element (smallest singular value above tolerance);
    between irreducibles the verdict is never "partial".
    """
    if not sources_match(r, s):
        raise SourceMismatchError("intertwiner needs a common group or algebra")
    mats = _eigenspace_kernel(r, s, tol)
    kdim = len(mats)
    if kdim == 0:
        return Intertwiner(None, "zero-only", 0)
    if r.dim == s.dim:
        rng = np.random.default_rng(7)
        candidates = list(mats)
        for _ in range(4):
            w = rng.standard_normal(kdim) + 1j * rng.standard_normal(kdim)
            candidates.append(np.tensordot(w, mats, 1))
        best, best_smin = None, -1.0
        for m in candidates:
            svals = np.linalg.svd(m, compute_uv=False)
            smin = svals[-1] / max(svals[0], 1e-300)
            if smin > best_smin:
                best, best_smin = m, smin
        if best_smin > max(tol.relative, tol.absolute):
            return Intertwiner(best, "equivalent", kdim)
    return Intertwiner(mats[0], "partial", kdim)


# ---------------------------------------------------------------------------
# Schur-Weyl

@dataclass
class SchurWeylReport:
    d: int
    n: int
    perm_commutant_dim: int
    tensor_commutant_dim: int
    projector_distance_perm_side: float
    projector_distance_tensor_side: float
    perm_blocks: list[tuple[int, int]]
    tensor_blocks: list[tuple[int, int]]
    pairing_ok: bool
    haar_samples_used: int = 0
    residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.pairing_ok
                and self.projector_distance_perm_side < 1e-8
                and self.projector_distance_tensor_side < 1e-8)


def _span_projector(stack: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthogonal projector onto the span of the flattened stack elements."""
    u, s, _ = np.linalg.svd(stack.reshape(len(stack), -1).T, full_matrices=False)
    rank = int(np.sum(s >= tol.threshold(s[0] if s.size else 0.0)))
    u = u[:, :rank]
    return u @ linalg.dagger(u)


def schur_weyl_check(d: int, n: int, tol: Tolerance = DEFAULT_TOL,
                     rng_seed: int = 0) -> SchurWeylReport:
    """Verify that U(d)^(x n) and the S_n index permutations are mutual commutants.

    (a) the commutant of the permutation action equals the span of sampled
    U^(x n); (b) the commutant of the tensor action equals span{P_pi};
    (c) the isotypic block data of the two sides pair up transposed:
    each (d_k, m_k) on one side appears as (m_k, d_k) on the other.
    """
    if d ** n > 64:
        raise DimensionTooLargeError("schur_weyl_check capped at d^n <= 64")
    perm_rep = perm_rep_tensor(n, d)
    tensor_rep = tensor_power(unitary_algebra_rep(d), n)

    perm_comm = commutant_basis(perm_rep, tol)
    tensor_comm = commutant_basis(tensor_rep, tol)

    # (a) saturate span{U^(x n)} with Haar samples.
    rng = np.random.default_rng([rng_seed, 101])
    vecs: list[np.ndarray] = []
    rank, stall, used = 0, 0, 0
    cap = 2 * perm_comm.dim + 12
    while used < cap and stall < 3:
        u = haar_unitary(d, rng)
        un = u
        for _ in range(n - 1):
            un = np.kron(un, u)
        vecs.append(linalg.vectorize(un))
        used += 1
        s = np.linalg.svd(np.column_stack(vecs), compute_uv=False)
        new_rank = int(np.sum(s >= tol.threshold(s[0])))
        stall = stall + 1 if new_rank == rank else 0
        rank = new_rank
    p_samples = _span_projector(np.array(vecs), tol)
    p_perm_comm = _span_projector(perm_comm.basis, tol)
    dist_perm = linalg.frob(p_samples - p_perm_comm)

    # (b) commutant of the tensor action against the permutation span.
    perm_ops = np.array([perm_matrix_on_tensor(p, d) for p in
                         itertools.permutations(range(n))])
    p_perm_span = _span_projector(perm_ops, tol)
    p_tensor_comm = _span_projector(tensor_comm.basis, tol)
    dist_tensor = linalg.frob(p_perm_span - p_tensor_comm)

    dec_perm = isotypic_decompose(perm_rep, rng_seed, tol, perm_comm)
    dec_tensor = isotypic_decompose(tensor_rep, rng_seed, tol, tensor_comm)
    pairing_ok = sorted((dk, mk) for dk, mk in dec_perm.blocks) == \
        sorted((mk, dk) for dk, mk in dec_tensor.blocks)

    return SchurWeylReport(
        d, n, perm_comm.dim, tensor_comm.dim, dist_perm, dist_tensor,
        dec_perm.blocks, dec_tensor.blocks, pairing_ok, used,
        residuals={
            "perm_projector_distance": dist_perm,
            "tensor_projector_distance": dist_tensor,
        },
    )
