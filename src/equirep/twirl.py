"""Projection onto invariant operators: group averages and Haar twirls.

Finite groups are twirled by exact averaging over all elements.  When every
generator image is a permutation matrix, the commutant is spanned by the
orbital matrices of the group acting on index pairs, so the average is the
mean of the operator's entries over each orbit of pairs: O(d^2) work and no
element stack, for any group order.  Other finite representations sum over
the representatives with ``linalg.conjugation_sum``, fed in
``linalg._CHUNK_BYTES``.  Compact (Lie) symmetries never touch quadrature
over the group manifold: their Haar twirl equals the orthogonal projection
onto the commutant, computed exactly.  A channel is twirled as its Choi
matrix under dual(R_in) x R_out, which is again a permutation representation
when R_in and R_out are.  The U(d) k-fold twirl has the closed permutation
form from Schur-Weyl duality, solved through the permutation Gram system.
The Monte Carlo twirl shares ``linalg.conjugation_sum`` with the average;
its Haar samples and their tensor powers are formed with the sample axis
last, a block of chunks at a time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .decompose import CommutantBasis, commutant_basis
from .errors import (
    DimensionTooLargeError,
    InvalidParameterError,
    NotCPTPError,
    _require_positive_int,
    _require_seed,
)
from .linalg import DEFAULT_TOL, Tolerance
from .representations import (Representation, dual, perm_matrix_on_tensor, require_unitary,
                              tensor_product)

__all__ = [
    "TwirlContext", "twirl_context", "twirl_operator", "twirl_channel",
    "k_design_twirl", "haar_sample_unitary", "monte_carlo_k_design_twirl",
    "choi_matrix", "is_cptp",
]


@dataclass(frozen=True)
class PairOrbits:
    """The orbits of the index pairs (i, j), numbered by their smallest row-major pair.

    ``orbit`` is the ``(d^2,)`` orbit number of each pair, ``order`` lists
    the pairs orbit by orbit, and orbit k fills ``order[starts[k]:][:sizes[k]]``.
    """

    orbit: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


@dataclass
class TwirlContext:
    """How to twirl against a representation.

    mode "average" averages R(g) o R(g)^dag over the whole finite group; mode
    "projection" projects onto an orthonormal commutant basis (exact for
    compact groups, also valid for finite ones).  ``orbits`` is set in
    average mode when every generator image is a permutation matrix; the
    average is then the mean over each orbit of index pairs.
    """

    rep: Representation
    mode: str
    commutant: CommutantBasis | None = None
    orbits: PairOrbits | None = None


def twirl_context(rep: Representation, mode: str | None = None,
                  tol: Tolerance = DEFAULT_TOL) -> TwirlContext:
    if mode is None:
        mode = "average" if rep.flavor == "finite" else "projection"
    if mode == "average":
        if rep.flavor != "finite":
            raise InvalidParameterError("exact averaging needs a finite group")
        return TwirlContext(rep, "average", orbits=_pair_orbits(rep.generator_images))
    if mode == "projection":
        return TwirlContext(rep, "projection", commutant_basis(rep, tol))
    raise InvalidParameterError(f"unknown twirl mode {mode!r}")


def _pair_orbits(images: np.ndarray) -> PairOrbits | None:
    """Orbits of (i, j) -> (pi_s(i), pi_s(j)) under the generator permutations.

    None unless every image is exactly a permutation matrix.  Each pair is
    labelled by the smallest pair known to share its orbit: every round
    pulls the smaller label across each generator map and its inverse, then
    jumps every label to its label's label, until a round changes nothing.
    Only the generator maps are read, so the cost does not grow with |G|,
    and each pair map is built in its turn, so one is held at a time.
    """
    if not (np.all((images == 0) | (images == 1))
            and np.all(images.sum(axis=1) == 1) and np.all(images.sum(axis=2) == 1)):
        return None
    d = images.shape[-1]
    pis = np.nonzero(images.transpose(0, 2, 1))[2].reshape(len(images), d)  # R e_i = e_pi(i)
    pis = np.concatenate([pis, np.argsort(pis, axis=1)])
    labels = np.arange(d * d)
    while True:
        new = labels.copy()
        for pi in pis:  # the pair map (i, j) -> (pi(i), pi(j))
            np.minimum(new, new[(pi[:, None] * d + pi).reshape(-1)], out=new)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    orbit = (np.cumsum(labels == np.arange(d * d)) - 1)[labels]
    sizes = np.bincount(orbit)
    return PairOrbits(orbit, np.argsort(orbit, kind="stable"), np.cumsum(sizes) - sizes, sizes)


def twirl_operator(ctx: TwirlContext, o: np.ndarray) -> np.ndarray:
    """Twirl an operator; the output commutes with every representative.

    Average mode over permutation matrices is the mean of o's entries over
    each orbit of index pairs: one gather in orbit order, one
    ``np.add.reduceat``, one divide and one gather back.  Average mode over
    other finite representations reads the ``representatives()`` stack in
    element chunks of ``linalg._CHUNK_BYTES`` and sums R(g) o R(g)^dag over
    each chunk with ``linalg.conjugation_sum`` (two GEMMs).  Projection mode
    is ``linalg.orthonormal_projection`` onto the commutant stack.  Text
    raises ``ValidationError``; so does a non-finite entry, found in the
    orbit sums, the projection coefficients or the dense average, each of
    which reads every entry of o.
    """
    if ctx.mode == "projection":
        return linalg.orthonormal_projection(ctx.commutant.basis, o)
    d = ctx.rep.dim
    o = linalg._shaped(o, (d, d))
    if ctx.orbits is not None:
        orb = ctx.orbits
        sums = linalg._require_finite(np.add.reduceat(o.reshape(-1)[orb.order], orb.starts))
        return (sums / orb.sizes)[orb.orbit].reshape(d, d)
    reps = ctx.rep.representatives()
    chunk = max(1, linalg._CHUNK_BYTES // reps[0].nbytes)
    acc = np.zeros_like(o)
    for start in range(0, len(reps), chunk):
        acc += linalg.conjugation_sum(reps[start:start + chunk], o)
    return linalg._require_finite(acc) / len(reps)


def choi_matrix(superop: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| x phi(|i><j|) of a row-major superoperator phi."""
    superop = linalg.require_operator(superop, (dim_out * dim_out, dim_in * dim_in))
    c = superop.reshape(dim_out, dim_out, dim_in, dim_in)
    return c.transpose(2, 0, 3, 1).reshape(dim_in * dim_out, dim_in * dim_out)


def is_cptp(superop: np.ndarray, dim_in: int, dim_out: int,
            tol: Tolerance = DEFAULT_TOL) -> bool:
    choi = choi_matrix(superop, dim_in, dim_out)
    if not linalg.is_psd(choi, Tolerance(max(tol.absolute, 1e-9), tol.relative)):
        return False
    reduced = linalg.partial_trace(choi, [dim_in, dim_out], keep=[0])
    return linalg.frob(reduced - np.eye(dim_in)) <= 1e-8 * dim_in


def twirl_channel(rep_in: Representation, rep_out: Representation,
                  phi: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Average a CPTP superoperator ``phi`` into an equivariant one, finite or compact.

    The twirled map's Choi matrix is the operator twirl of phi's under
    g -> conj(R_in(g)) x R_out(g), the rep ``tensor_product(dual(rep_in),
    rep_out)`` when both are unitary (others are rejected).  So
    ``twirl_operator`` averages it (finite) or projects it (compact).
    """
    require_unitary(rep_out)
    rep = tensor_product(dual(rep_in), rep_out)
    din, dout = rep_in.dim, rep_out.dim
    if not is_cptp(phi, din, dout, tol):
        raise NotCPTPError("input channel is not CPTP within tolerance")
    j = twirl_operator(twirl_context(rep, tol=tol), choi_matrix(phi, din, dout))
    return j.reshape(din, dout, din, dout).transpose(1, 3, 0, 2).reshape(dout * dout, din * din)


@functools.lru_cache(maxsize=None)
def _permutation_gram(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k! vectorised index permutations and the pseudo-inverse of their Gram.

    Both are read-only; the cap of ``k_design_twirl`` keeps the cache to a
    few dozen small entries.
    """
    perms = np.array([perm_matrix_on_tensor(p, d).reshape(-1)
                      for p in itertools.permutations(range(k))])
    gram_pinv = np.linalg.pinv(perms.conj() @ perms.T, rcond=1e-10)
    perms.setflags(write=False)
    gram_pinv.setflags(write=False)
    return perms, gram_pinv


def k_design_twirl(d: int, k: int, o: np.ndarray) -> np.ndarray:
    """Exact Haar twirl of an operator on (C^d)^(x k) over U(d).

    By Schur-Weyl the image is the span of the k! index permutations, so the
    twirl is the orthogonal projection solved from the permutation Gram
    system G c = b with G[pi, sigma] = Tr[P_pi^dag P_sigma].  A pseudo-inverse
    with cutoff 1e-10 sigma_max handles the linear dependence at d < k; it
    and the permutations are built once per (d, k).
    """
    _require_positive_int("d", d)
    _require_positive_int("k", k)
    if k > 4 or d ** k > 64:
        raise DimensionTooLargeError("k_design_twirl capped at k <= 4, d^k <= 64")
    dim = d ** k
    o = linalg.require_operator(o, (dim, dim))
    perms, gram_pinv = _permutation_gram(d, k)
    coeff = gram_pinv @ (perms.conj() @ o.reshape(-1))
    return (coeff @ perms).reshape(dim, dim)


# Chunks per Haar draw of the Monte Carlo twirl: the draw's numpy calls are
# spread over many samples, while a block's powers (at most
# 8 * linalg._CHUNK_BYTES, 1 MiB) stay within a per-core L2 cache.
_SAMPLE_BLOCK_CHUNKS = 8


def haar_sample_unitary(d: int, rng_seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic per seed."""
    _require_positive_int("d", d)
    _require_seed("rng_seed", rng_seed)
    return linalg.haar_unitary(d, np.random.default_rng(rng_seed))


def monte_carlo_k_design_twirl(d: int, k: int, o: np.ndarray, n_samples: int,
                               rng_seed: int = 0) -> np.ndarray:
    """Monte Carlo oracle for the Haar twirl: empirical mean of U^k o U^k dag.

    Used to cross-check the exact permutation-projection route; the error
    scale is O(1/sqrt(n_samples)).  Deterministic per seed.  Samples are
    drawn in blocks of ``_SAMPLE_BLOCK_CHUNKS`` chunks, a chunk being the
    samples whose powers fill ``linalg._CHUNK_BYTES``: each block is one
    ``linalg.haar_unitaries_last`` draw (real-arithmetic Gram-Schmidt,
    sample axis last), raised to its k-fold powers by
    ``linalg.tensor_powers_last``, and each chunk of those is summed by
    ``linalg.conjugation_sum``, the kernel of the average twirl, as an
    ``(n, d^k, d^k)`` view.  So every sum covers the same samples as a
    draw of one chunk at a time would.
    """
    for name, value in (("d", d), ("k", k), ("n_samples", n_samples)):
        _require_positive_int(name, value)
    _require_seed("rng_seed", rng_seed)
    dim = d ** k
    o = linalg.require_operator(o, (dim, dim))
    rng = np.random.default_rng(rng_seed)
    chunk = max(1, linalg._CHUNK_BYTES // (dim * dim * 16))
    block = _SAMPLE_BLOCK_CHUNKS * chunk
    acc = np.zeros((dim, dim), dtype=complex)
    for start in range(0, n_samples, block):
        us = linalg.haar_unitaries_last(d, min(block, n_samples - start), rng)
        powers = linalg.tensor_powers_last(us, k)
        for first in range(0, powers.shape[-1], chunk):
            acc += linalg.conjugation_sum(powers[..., first:first + chunk].transpose(2, 0, 1), o)
    return acc / n_samples
