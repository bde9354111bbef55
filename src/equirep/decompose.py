"""Isotypic decomposition, commutants, intertwiners, and the Schur-Weyl check.

The decomposition is the cluster-graph block diagonalisation of matrix
*-algebras (Murota, Kanno, Kojima & Kojima 2010; de Klerk, Dobre &
Pasechnik 2011).  A generic Hermitian element A of the representation's
algebra has, inside each isotypic block, the form 1_m x A_k with simple A_k
spectrum, so each eigenvalue cluster of A is one weight of one irrep type
and has that type's multiplicity as its size.  A random combination K of the
generator images, rotated into A's eigenbasis, has non-zero blocks K_cc'
only between clusters of one irrep type, and each is a scalar times a
unitary.  The connected components of this cluster graph are the isotypic
blocks, and polar factors of K_cc' carried along a spanning tree align the
copies into the exact 1_m x U_k form.  Degenerate draws are caught (cluster
sizes that differ within a component, a K block that is not a multiple of a
unitary, a failed certification) and handled by redrawing with a derived
seed, never by perturbing, so the change of basis stays numerically unitary.
The certificate, ``decomposition_residuals``, is computed once per attempt
and the accepted one travels with the decomposition as ``residuals``.

Schur's lemma then gives the commutant without any linear solve: it is
q(sum_k M_k x 1_{d_k})q^dag, so a Hermitian orthonormal basis of every
m_k x m_k block, sent through the certified q, spans it.

Intertwiners come from the same decomposition.  Hom(R, S) is the S-R
corner of the commutant of R (+) S, so the direct sum is decomposed once.
In block k the projector onto R's carrier is q(G_k x 1)q^dag, with
G_k[a, b] = Tr(r_a^dag r_b)/d_k and r_a the R rows of copy a; one eigh of
G_k rotates the copies into m_k^R copies inside R and m_k^S inside S, and
the products s_b r_a^dag / sqrt(d_k) are an orthonormal basis of Hom(R, S)
(the route of RepLAB).  Every route here needs the algebra to be closed
under the adjoint, so non-unitary representations are rejected.

The Schur-Weyl check compares spans, never dense projectors.  Its Haar
samples are drawn in one batch; with r the dimension of the permutation
commutant, an SVD of the first r and one of the first r + 3 samples show
when the per-sample rule (add samples until three in a row leave the rank
unchanged) stops at r + 3, and only otherwise are the prefixes walked one
by one.  The distance ||P1 - P2||_F of two projectors comes from
orthonormal bases u1, u2 of their ranges as the root of
||u1 - u2 u2^dag u1||^2 + ||u2 - u1 u1^dag u2||^2.
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
    _require_positive_int,
    _require_seed,
)
from .linalg import DEFAULT_TOL, Tolerance
from .representations import (
    Representation,
    _max_frob,
    direct_sum,
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
# Finite groups up to this order certify their decomposition on every element.
EAGER_ORDER = 64
# Eigenvalues of the splitting element closer than this, relative to its
# spectral scale, share a cluster.  The cut sits far above eigh's rounding,
# so a true eigenspace is never split, and far below the gaps of a generic
# element; a draw that merges two eigenspaces is caught and redrawn by
# _attempt_decomposition.
_CLUSTER_GAP = 1e-6
# Largest relative spread of the singular values of a K block that still
# counts as a multiple of a unitary; rounding leaves under 1e-12.
_POLAR_SPREAD = 1e-6
# Largest distance of an eigenvalue of a copy Gram G_k from 0 or 1: a
# certified decomposition of R (+) S leaves rounding far below it.
_PURITY_GAP = 1e-8


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
    """Hermitian orthonormal basis of everything commuting with the representation.

    Built from the certified decomposition ``isotypic_decompose(rep, 0, tol)``
    by Schur's lemma, with no linear solve: the commutant is
    q(sum_k M_k x 1_{d_k})q^dag, and its basis holds, block after block, the
    images of E_ii, then (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2 for
    i < j, scaled by 1/sqrt(d_k).  Their real span is the full commutant's
    Hermitian part.

    Raises:
        ValidationError: if the representation is not unitary.
    """
    return CommutantBasis(rep, _block_commutant(isotypic_decompose(rep, 0, tol)))


def _block_commutant(dec: IsotypicDecomposition) -> np.ndarray:
    """``(sum_k m_k^2, d, d)`` stack q(M x 1_{d_k})q^dag / sqrt(d_k), as in commutant_basis."""
    out = []
    for (d_k, m_k), (a, b) in zip(dec.blocks, dec.block_offsets):
        # copies[i] holds copy i's columns, so q(E_ij x 1)q^dag = copies[i] copies[j]^dag.
        copies = dec.q[:, a:b].reshape(-1, m_k, d_k).transpose(1, 0, 2)
        adj = copies.conj().transpose(0, 2, 1)
        diag = copies @ adj
        out.append((diag + diag.conj().transpose(0, 2, 1)) / (2 * np.sqrt(d_k)))
        if m_k > 1:
            i, j = np.triu_indices(m_k, 1)
            off = copies[i] @ adj[j] / np.sqrt(2 * d_k)
            off_adj = off.conj().transpose(0, 2, 1)
            out += [off + off_adj, 1j * (off - off_adj)]
    return np.concatenate(out)


def is_irreducible(rep: Representation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Schur test: irreducible iff the census is one block of multiplicity 1."""
    return [m for _, m in isotypic_decompose(rep, 0, tol).blocks] == [1]


@dataclass
class IsotypicDecomposition:
    """Unitary change of basis q with q^dag R(g) q = sum_k 1_{m_k} x U_k(g).

    ``residuals`` is the certificate ``isotypic_decompose`` accepted,
    ``decomposition_residuals(rep, dec, rng_seed)`` bit for bit, so a caller
    reports it without certifying again.
    """

    q: np.ndarray
    blocks: list[tuple[int, int]]          # (irrep dim d_k, multiplicity m_k)
    block_offsets: list[tuple[int, int]]   # column ranges in q, copy-major
    residuals: dict = field(default_factory=dict)  # "unitarity", "block_alignment"


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
    against trivial blocks).  The terms are formed as stacks and added in
    order by ``_ordered_sum``, so A has the bits of a one-term-at-a-time sum.
    """
    # Coefficients are cast to complex up front, as a scalar coefficient
    # would be; that keeps each product's bits and the fast ufunc loop.
    if rep.flavor == "finite":
        mats = rep.representatives()
        w = rng.standard_normal(len(mats)).astype(complex)[:, None, None]
        v = (rng.standard_normal(len(mats)) * 1j)[:, None, None]

        def terms(part: slice) -> np.ndarray:
            m = mats[part]
            adj = m.conj().transpose(0, 2, 1)
            return w[part] * (m + adj) + v[part] * (m - adj)
    else:
        imgs = rep.generator_images
        i, j = np.triu_indices(len(imgs))
        words = np.concatenate([imgs, (imgs[i] @ imgs[j] + imgs[j] @ imgs[i]) / 2])
        w = rng.standard_normal(len(words)).astype(complex)[:, None, None]

        def terms(part: slice) -> np.ndarray:
            return w[part] * words[part]
    return _ordered_sum(terms, len(w), rep.dim)


def _ordered_sum(terms, n: int, d: int) -> np.ndarray:
    """Sum of n (d, d) terms, added one after another to a zero matrix.

    ``terms(part)`` gives the stack of the terms in the slice ``part``; the
    stacks come ``linalg._CHUNK_BYTES`` at a time (one term when a term is
    larger), and the running sum is added to the first term of each.  A
    stack is summed along its first axis as real (re, im) pairs: numpy sums
    pairwise only along the fast axis in memory, and the pairs keep a fast
    axis of at least 2 even at d = 1, so the terms are added in order.
    """
    acc = np.zeros((d, d), dtype=complex)
    step = max(1, linalg._CHUNK_BYTES // acc.nbytes)
    for start in range(0, n, step):
        t = terms(slice(start, start + step))
        t[0] += acc
        acc = t[0] if len(t) == 1 else np.add.reduce(t.view(float), axis=0).view(complex)
    return acc


def _cluster_labels(w: np.ndarray) -> np.ndarray:
    """Cluster index of every eigenvalue, ascending with the eigenvalue.

    A new cluster starts wherever the sorted spectrum jumps by more than
    _CLUSTER_GAP times its scale, so an ascending spectrum gets ascending,
    contiguous labels.
    """
    order = np.argsort(w, kind="stable")
    scale = max(float(np.ptp(w)), float(np.abs(w).max())) if w.size else 0.0
    labels = np.empty(w.size, dtype=np.int64)
    labels[order] = np.concatenate(
        [[0], np.cumsum(np.diff(w[order]) > _CLUSTER_GAP * scale)])
    return labels


class _Genericity(Exception):
    """Internal: the random draw was degenerate, redraw."""


def _verification_set(rep: Representation, rng_seed: int) -> np.ndarray:
    """``(n, d, d)`` stack of operators whose block alignment certifies the decomposition.

    Every element of a finite group of order up to EAGER_ORDER; otherwise the
    generator images followed by ``rep.sample_elements([rng_seed, 17], n,
    depth=1)``: 20 uniform elements of a finite group, 5 one-factor
    exponentials of a Lie algebra.
    """
    if rep.flavor == "finite" and rep.group.order <= EAGER_ORDER:
        return rep.representatives()
    extra = rep.sample_elements([rng_seed, 17], 20 if rep.flavor == "finite" else 5, depth=1)
    return np.concatenate([rep.generator_images, extra])


def _polar(x: np.ndarray) -> np.ndarray:
    """Unitary polar factor of x, which must be a multiple of a unitary."""
    u, s, vh = np.linalg.svd(x)
    if s[0] - s[-1] > _POLAR_SPREAD * s[0]:
        raise _Genericity("a cluster block is not a multiple of a unitary")
    return u @ vh


def _attempt_decomposition(rep: Representation, rng: np.random.Generator,
                           tol: Tolerance) -> IsotypicDecomposition:
    wa, va = np.linalg.eigh(_algebra_element(rep, rng))
    labels = _cluster_labels(wa)
    sizes = np.bincount(labels).tolist()
    starts = [0, *itertools.accumulate(sizes)]
    rows = [slice(a, b) for a, b in zip(starts, starts[1:])]  # eigh sorts ascending
    imgs = rep.generator_images
    k = linalg.dagger(va) @ np.tensordot(rng.standard_normal(len(imgs)), imgs, 1) @ va
    # Squared Frobenius norm of every cluster block K_cc', by one one-hot product.
    onehot = np.eye(len(sizes))[labels]
    weight = onehot.T @ (np.abs(k) ** 2) @ onehot
    joined = weight > tol.threshold(linalg.frob(k)) ** 2

    # Each connected component is one isotypic block; Z_c carries the copy
    # basis of its first cluster to cluster c along a spanning tree.  A
    # component that misses a cluster of its irrep (possible only if K has an
    # invariant set of clusters there) leaves cross-block terms that fail
    # certification.
    blocks = []
    seen = np.zeros(len(sizes), dtype=bool)
    for root in range(len(sizes)):
        if seen[root]:
            continue
        m_k = sizes[root]
        seen[root] = True
        component, z = [root], {root: np.eye(m_k, dtype=complex)}
        for c in component:
            for c2 in np.flatnonzero(joined[c] & ~seen):
                if sizes[c2] != m_k:
                    raise _Genericity("clusters in one component differ in size")
                seen[c2] = True
                component.append(c2)
                z[c2] = z[root] if m_k == 1 else _polar(
                    linalg.dagger(k[rows[c], rows[c2]]) @ z[c])
        component.sort()
        # (d, m_k, d_k) -> copy-major columns: copy i holds one vector per cluster.
        cols = np.stack([va[:, rows[c]] @ z[c] for c in component], axis=2)
        blocks.append((len(component), m_k, cols.reshape(rep.dim, -1)))

    # Stable sort: ties keep the ascending order of their first eigenvalue.
    blocks.sort(key=lambda b: (-b[0], -b[1]))
    q = np.hstack([b[2] for b in blocks])
    ends = list(itertools.accumulate(d_k * m_k for d_k, m_k, _ in blocks))
    return IsotypicDecomposition(q, [(d_k, m_k) for d_k, m_k, _ in blocks],
                                 [(b - d_k * m_k, b) for (d_k, m_k, _), b in zip(blocks, ends)])


def _alignment_residual(dec: IsotypicDecomposition, ops: np.ndarray) -> float:
    """Worst deviation of q^dag K q from the declared sum_k 1_m x U_k form."""
    t = linalg.dagger(dec.q) @ ops @ dec.q
    model = np.zeros_like(t)
    for (d_k, m_k), (a, b) in zip(dec.blocks, dec.block_offsets):
        u0 = t[:, a:a + d_k, a:a + d_k]
        for c in range(a, b, d_k):
            model[:, c:c + d_k, c:c + d_k] = u0
    return _max_frob(t - model)


def decomposition_residuals(rep: Representation, dec: IsotypicDecomposition,
                            rng_seed: int = 0) -> dict:
    """The certificate of a decomposition: how far q is from unitary and from the block form.

    ``unitarity`` is ||q^dag q - 1||_F; ``block_alignment`` is the worst
    Frobenius deviation of q^dag K q from the declared sum_k 1_m x U_k form
    over the verification set of ``rng_seed`` (every element of a finite
    group up to order EAGER_ORDER, else the generator images and samples
    drawn from ``[rng_seed, 17]``).  ``isotypic_decompose(rep, rng_seed)``
    keeps exactly this dict as ``dec.residuals``.
    """
    _require_seed("rng_seed", rng_seed)
    ops = _verification_set(rep, rng_seed)
    return {
        "unitarity": linalg.frob(linalg.dagger(dec.q) @ dec.q - np.eye(rep.dim)),
        "block_alignment": _alignment_residual(dec, ops),
    }


def isotypic_decompose(rep: Representation, rng_seed: int = 0,
                       tol: Tolerance = DEFAULT_TOL) -> IsotypicDecomposition:
    """Decompose a unitary representation into aligned isotypic blocks.

    A generic Hermitian algebra element A is diagonalised; each eigenvalue
    cluster is one weight of one irrep type k, with size m_k.  A random
    combination K of the generator images, rotated into A's eigenbasis,
    joins clusters of one irrep type: the connected components of the
    cluster graph are the blocks (d_k clusters of size m_k), and each K
    block is a scalar times a unitary, whose polar factors align the copies.
    Each attempt is certified by ``decomposition_residuals(rep, dec,
    rng_seed)``: q unitary and in the exact 1_m x U_k form on a verification
    set.  The accepted certificate is kept as ``dec.residuals``.  Since A
    has a simple spectrum on each irrep and each component is connected,
    every U_k is irreducible and the census is exact.

    Deterministic given ``rng_seed``; degenerate random draws trigger a
    redraw with a derived seed, at most 8 attempts, after which
    DecompositionFailedError names the reason of every attempt.  Blocks are
    sorted by descending irrep dimension, then descending multiplicity, ties
    by ascending splitting eigenvalue.

    Raises:
        ValidationError: if the carrier is zero-dimensional or not unitary,
            or the seed is not a non-negative integer.
    """
    _require_seed("rng_seed", rng_seed)
    _require_positive_int("carrier dimension", rep.dim)
    require_unitary(rep)
    reasons = []
    for attempt in range(MAX_REDRAWS):
        try:
            dec = _attempt_decomposition(rep, np.random.default_rng([rng_seed, attempt]), tol)
            dec.residuals = decomposition_residuals(rep, dec, rng_seed)
            if dec.residuals["unitarity"] > 1e-9 * rep.dim:
                raise _Genericity("change of basis is not unitary")
            if dec.residuals["block_alignment"] > 1e-8:
                raise _Genericity("block alignment residual too large")
            return dec
        except _Genericity as exc:
            reasons.append(f"attempt {attempt}: {exc}")
    raise DecompositionFailedError(
        f"no certified decomposition after {MAX_REDRAWS} redraws: " + "; ".join(reasons))


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


def _split_copies(r: Representation, s: Representation,
                  tol: Tolerance) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The copies of every block of R (+) S, split into those inside R and S.

    One eigh of the copy Gram G_k (see the module docstring) rotates the
    copies of block k, whose entry holds d_k, the R rows ``(m_k^R, d_r, d_k)``
    of the copies inside R and the S rows ``(m_k^S, d_s, d_k)`` of those in S.

    Raises:
        NumericalError: if G_k has an eigenvalue farther than _PURITY_GAP from
            both 0 and 1, i.e. the copies do not split into R and S.
    """
    dec = isotypic_decompose(direct_sum(r, s), 0, tol)
    out = []
    for (d_k, m_k), (a, b) in zip(dec.blocks, dec.block_offsets):
        copies = dec.q[:, a:b].reshape(-1, m_k, d_k).transpose(1, 0, 2)
        rows = copies[:, :r.dim]
        w, v = np.linalg.eigh(np.einsum("aij,bij->ab", rows.conj(), rows) / d_k)
        off = np.minimum(np.abs(w), np.abs(w - 1)).max()
        if off > _PURITY_GAP:
            raise NumericalError(
                f"block {len(out)} of the direct sum mixes R and S copies "
                f"(Gram eigenvalue {off:.3e} away from 0 and 1)")
        pure = np.tensordot(v, copies, (0, 0))
        in_r = w > 0.5
        out.append((d_k, pure[in_r, :r.dim], pure[~in_r, r.dim:]))
    return out


def find_intertwiner(r: Representation, s: Representation,
                     tol: Tolerance = DEFAULT_TOL) -> Intertwiner:
    """Solve phi R(g) = S(g) phi over generators; classify per Schur.

    Read off one decomposition of R (+) S (see the module docstring), so
    both representations must be unitary.  The kernel has dimension
    sum_k m_k^R m_k^S.  "equivalent" holds exactly when the censuses of R
    and S match, and phi = sum_a s_a r_a^dag is then unitary; otherwise a
    non-empty kernel is "partial", with phi the first basis element
    s_b r_a^dag / sqrt(d_k).  Between irreducibles the verdict is never
    "partial".

    Raises:
        NumericalError: if the copies of a block do not split into R and S.
    """
    if not sources_match(r, s):
        raise SourceMismatchError("intertwiner needs a common group or algebra")
    blocks = _split_copies(r, s, tol)
    kdim = sum(len(rc) * len(sc) for _, rc, sc in blocks)
    if kdim == 0:
        return Intertwiner(None, "zero-only", 0)
    if all(len(rc) == len(sc) for _, rc, sc in blocks):
        phi = sum(np.tensordot(sc, rc.conj(), ((0, 2), (0, 2))) for _, rc, sc in blocks)
        return Intertwiner(phi, "equivalent", kdim)
    d_k, rc, sc = next(b for b in blocks if len(b[1]) and len(b[2]))
    return Intertwiner(sc[0] @ linalg.dagger(rc[0]) / np.sqrt(d_k), "partial", kdim)


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

    @property
    def ok(self) -> bool:
        return (self.pairing_ok
                and self.projector_distance_perm_side < 1e-8
                and self.projector_distance_tensor_side < 1e-8)


def _span_basis(cols: np.ndarray, tol: Tolerance):
    """Orthonormal basis of the column span, with the singular values it was cut from."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :int(np.sum(s >= tol.threshold(s[0])))], s


def _span_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """||u1 u1^dag - u2 u2^dag||_F for two matrices with orthonormal columns.

    The difference of the projectors splits into P1(1 - P2) - (1 - P1)P2,
    two terms orthogonal under Tr[A^dag B], so its squared norm is
    ||u1 - u2 u2^dag u1||^2 + ||u2 - u1 u1^dag u2||^2.  Neither projector
    is formed, and unlike r1 + r2 - 2||u1^dag u2||^2 nothing cancels.
    """
    c = linalg.dagger(u1) @ u2
    return float(np.hypot(linalg.frob(u1 - u2 @ linalg.dagger(c)), linalg.frob(u2 - u1 @ c)))


def _saturate(cols: np.ndarray, rest, r: int, tol: Tolerance) -> tuple[int, np.ndarray]:
    """Leading columns the per-sample stall rule takes, and their span's basis.

    The rule adds one column at a time and stops after three additions that
    leave the rank unchanged.  Adding a column raises every singular value
    and the threshold, and the rank by at most one, so if the first r
    columns keep rank r even under the threshold of the first r + 3, and the
    first r + 3 have rank r even under the threshold of the first r, then
    the j-th prefix has rank j up to r and rank r from r to r + 3: the rule
    stops at r + 3.  ``cols`` holds those first r + 3 columns.  Otherwise
    ``rest()`` gives the columns that follow them, and the prefixes are
    walked one at a time.
    """
    s_r = np.linalg.svd(cols[:, :r], compute_uv=False)
    basis, s = _span_basis(cols, tol)
    if (np.sum(s_r >= tol.threshold(s[0])) == r
            and np.sum(s >= tol.threshold(s_r[0])) == r):
        return r + 3, basis
    cols = np.hstack([cols, rest()])
    rank, stall, used = 0, 0, 0
    while used < cols.shape[1] and stall < 3:
        used += 1
        s = np.linalg.svd(cols[:, :used], compute_uv=False)
        new_rank = int(np.sum(s >= tol.threshold(s[0])))
        stall = stall + 1 if new_rank == rank else 0
        rank = new_rank
    return used, _span_basis(cols[:, :used], tol)[0]


def schur_weyl_check(d: int, n: int, tol: Tolerance = DEFAULT_TOL,
                     rng_seed: int = 0) -> SchurWeylReport:
    """Verify that U(d)^(x n) and the S_n index permutations are mutual commutants.

    (a) the commutant of the permutation action equals the span of sampled
    U^(x n); (b) the commutant of the tensor action equals span{P_pi};
    (c) the isotypic block data of the two sides pair up transposed:
    each (d_k, m_k) on one side appears as (m_k, d_k) on the other.

    For (a), Haar samples are used as far as a one-at-a-time rule would
    take them, at most 2r + 12 (r the permutation commutant's dimension),
    until three in a row leave the rank unchanged.  The first r + 3 come
    from one ``haar_unitaries`` call (Gram-Schmidt in real arithmetic on one
    Gaussian stack, no LAPACK QR), raised to tensor powers by
    ``linalg.tensor_powers_last``, whose sample-last ``(d^2n, count)``
    reshape holds vec(U_s^(x n)) in column s.  SVDs of the first r and
    first r + 3 show when the rule stops at r + 3, and only otherwise are
    the other r + 9 drawn from the same generator and the prefixes walked
    (``_saturate``).  A split draw equals one draw of all 2r + 12.  Every
    rank counts the singular values at or above ``tol.threshold`` of the
    largest.  The distances of (a) and (b) compare orthonormal bases of the
    two spans by ``_span_distance``: the samples' and the permutations' left
    singular vectors against the commutant stacks, already orthonormal under
    Tr[A^dag B].
    """
    _require_positive_int("d", d)
    _require_positive_int("n", n)
    _require_seed("rng_seed", rng_seed)
    if d ** n > 64:
        raise DimensionTooLargeError("schur_weyl_check capped at d^n <= 64")
    perm_rep = perm_rep_tensor(n, d)
    tensor_rep = tensor_power(unitary_algebra_rep(d), n)

    dec_perm = isotypic_decompose(perm_rep, rng_seed, tol)
    dec_tensor = isotypic_decompose(tensor_rep, rng_seed, tol)
    perm_comm = _block_commutant(dec_perm)
    tensor_comm = _block_commutant(dec_tensor)

    # (a) saturate span{U^(x n)} with Haar samples.
    r = len(perm_comm)
    rng = np.random.default_rng([rng_seed, 101])

    def columns(count):  # column s is vec(U_s^(x n))
        us = linalg.haar_unitaries(d, count, rng).transpose(1, 2, 0)
        return linalg.tensor_powers_last(us, n).reshape(-1, count)

    used, samples = _saturate(columns(r + 3), lambda: columns(r + 9), r, tol)
    dist_perm = _span_distance(samples, perm_comm.reshape(r, -1).T)

    # (b) commutant of the tensor action against the permutation span.
    perm_ops = perm_rep.representatives()  # built by dec_perm, one per permutation
    perm_span, _ = _span_basis(perm_ops.reshape(len(perm_ops), -1).T, tol)
    dist_tensor = _span_distance(perm_span, tensor_comm.reshape(len(tensor_comm), -1).T)

    pairing_ok = sorted((dk, mk) for dk, mk in dec_perm.blocks) == \
        sorted((mk, dk) for dk, mk in dec_tensor.blocks)

    return SchurWeylReport(
        d, n, len(perm_comm), len(tensor_comm), dist_perm, dist_tensor,
        dec_perm.blocks, dec_tensor.blocks, pairing_ok, used)
