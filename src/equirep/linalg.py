"""Dense complex linear algebra used by every other module.

Conventions fixed here and relied on everywhere else:

* Matrices are numpy ``complex128`` arrays; nothing is wrapped.
* The Hilbert-Schmidt inner product is ``<A, B> = Tr[A^dag B]`` with no
  dimension-dependent normalization.
* ``vectorize`` stacks rows (C order), so ``vec(A X B) = (A kron B^T) vec(X)``
  and the conjugation superoperator of ``u`` is ``u kron conj(u)``.
* Matrix exponentials of Hermitian generators go through the
  eigendecomposition, never scaling-and-squaring.
* Tensor-factor ordering is big-endian: qubit 1 is the leftmost factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError

__all__ = [
    "I2", "X", "Y", "Z",
    "Tolerance", "DEFAULT_TOL",
    "dagger", "comm", "frob", "kron", "kron_all",
    "is_hermitian", "is_unitary", "is_psd", "is_trace_one",
    "herm_eig", "exp_unitary", "partial_trace", "hs_inner",
    "vectorize", "devectorize", "conjugation_superoperator",
    "commutator_superoperator", "conjugation_sum", "random_hermitian",
    "haar_unitary", "haar_unitaries", "kron_rows", "tensor_powers", "hvec",
    "orthonormalize_hermitian",
]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _p in (I2, X, Y, Z):
    _p.setflags(write=False)


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by rank and residual decisions."""

    absolute: float = 1e-10
    relative: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.absolute) and np.isfinite(self.relative)):
            raise ValueError("tolerances must be finite")
        if self.absolute < 0 or self.relative < 0:
            raise ValueError("tolerances must be non-negative")

    def threshold(self, scale: float) -> float:
        """Cutoff for treating a quantity as zero at the given scale."""
        return max(self.absolute, self.relative * scale)


DEFAULT_TOL = Tolerance()

# Bytes of (n, d, d) operands per step wherever a stack is processed in
# chunks (average and Monte Carlo twirls, homomorphism check, splitting
# element): each chunk's temporaries stay cache-sized and below the
# allocator's trim threshold, and a large stack is never copied whole.
_CHUNK_BYTES = 1 << 17


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of a sequence, left factor first."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def is_hermitian(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return frob(a - dagger(a)) <= tol.threshold(max(frob(a), 1.0))


def is_unitary(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    n = a.shape[0]
    return frob(dagger(a) @ a - np.eye(n)) <= tol.threshold(np.sqrt(n))


def is_psd(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh(a)
    return bool(w.min() >= -tol.threshold(max(abs(w).max(), 1.0)))


def is_trace_one(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return abs(np.trace(a) - 1.0) <= tol.threshold(1.0)


def herm_eig(h: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix or an ``(n, d, d)`` stack of them.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary
    eigenvector matrix ``v`` so that ``h = v diag(w) v^dag``; a stack gives
    ``(n, d)`` and ``(n, d, d)`` from one batched ``eigh``.  Ties are broken
    by the LAPACK column ordering, which is deterministic but not canonical.

    Raises:
        NotHermitianError: if ``||h - h^dag||_F > tol * ||h||_F`` for any matrix.
    """
    h = np.asarray(h, dtype=complex)
    skew = np.linalg.norm(h - dagger(h), axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(h, axis=(-2, -1)), 1.0)
    if np.any(skew > np.maximum(tol.absolute, tol.relative * scale)):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return w, v


def exp_unitary(h: np.ndarray, theta, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary ``exp(-i theta h)`` for Hermitian ``h`` via eigendecomposition.

    An ``(n, d, d)`` stack with ``n`` angles gives the ``(n, d, d)`` stack of
    exponentials from one batched ``eigh``, equal to the one-at-a-time ones.
    """
    w, v = herm_eig(h, tol)
    phases = np.exp(-1j * np.asarray(theta)[..., None] * w)
    return (v * phases[..., None, :]) @ dagger(v)


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions left to right; ``keep`` is an
    iterable of factor indices whose order in the output follows their order
    in ``dims``.  Preserves trace and Hermiticity.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise DimensionMismatchError(
            f"product of dims {dims} is {total}, matrix is {rho.shape}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {n} factors")
    if len(keep) == n:
        return rho.copy()
    t = rho.reshape(dims + dims)
    # Trace highest traced index first so remaining axis numbers stay valid.
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        m = t.ndim // 2
        t = np.trace(t, axis1=idx, axis2=idx + m)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr[a^dag b]`` (no 1/2 factor)."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def vectorize(op: np.ndarray) -> np.ndarray:
    """Row-major stacking of a matrix into a vector."""
    return np.asarray(op, dtype=complex).reshape(-1)


def devectorize(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vectorize`; square by default."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise DimensionMismatchError(f"length {v.size} is not a square")
    return v.reshape(dim, dim)


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Matrix acting on vectorized operators as ``vec(A) -> vec(u A u^dag)``."""
    u = np.asarray(u, dtype=complex)
    if u.shape[0] != u.shape[1]:
        raise DimensionMismatchError("conjugation requires a square matrix")
    return np.kron(u, u.conj())


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """Matrix acting on vectorized operators as ``vec(B) -> vec([h, B])``."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    eye = np.eye(n)
    return np.kron(h, eye) - np.kron(eye, h.T)


def conjugation_sum(stack: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Sum of A_n o A_n^dag over an ``(n, d, d)`` stack, by two GEMMs.

    The stack is copied once as B = [A_1 | A_2 | ...] with rows j and
    columns (n, k); one GEMM gives the rows of A_n o in the same layout and
    a second contracts them with B^dag over (n, k).  Callers pass stacks in
    chunks of ``_CHUNK_BYTES``, so the copy stays cache-sized.
    """
    d = o.shape[0]
    b = np.ascontiguousarray(stack.transpose(1, 0, 2))
    ro = b.reshape(-1, d) @ o
    return ro.reshape(d, -1) @ b.reshape(d, -1).conj().T


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with iid Gaussian entries, for tests and probes."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + dagger(a)) / 2


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, d, d)`` stack of Haar-distributed unitaries (Mezzadri 2007).

    One ``(n, 2, d, d)`` complex Gaussian draw Z (real then imaginary part
    of each sample, the order one sample at a time would draw them in),
    orthonormalised in place by classical Gram-Schmidt with one
    reorthogonalisation pass (CGS2): one loop over the d columns, each step
    projecting the earlier columns out twice with batched ``matmul`` over
    the whole stack, then normalising.  That gives the Q of the QR whose R
    has a positive real diagonal, the factor Mezzadri's phase correction
    selects, so the stack is exactly left- and right-invariant with no
    phase fix.  Sample i is bit-identical to the i-th of n successive
    single draws from the same generator.
    """
    g = rng.standard_normal((n, 2, d, d))
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)
    for j in range(d):
        v, q = z[:, :, j:j + 1], z[:, :, :j]
        if j:
            v -= q @ (dagger(q) @ v)
            v -= q @ (dagger(q) @ v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return z


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed d x d unitary, by the same Gram-Schmidt draw:
    ``haar_unitaries(d, 1, rng)[0]``.
    """
    return haar_unitaries(d, 1, rng)[0]


def kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker products a_n (x) b_n of two ``(n, ., .)`` stacks.

    One broadcast product on the ``(n, p, r, q, s)`` index split, elementwise
    the same multiplications as ``np.kron``, so row n is bit-equal to
    ``np.kron(a[n], b[n])``.
    """
    n, (p, q), (r, s) = len(a), a.shape[1:], b.shape[1:]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, p * r, q * s)


def tensor_powers(us: np.ndarray, k: int) -> np.ndarray:
    """``(n, d^k, d^k)`` stack of the k-fold tensor powers of an ``(n, d, d)`` stack.

    Factors are multiplied in from the right by ``kron_rows``, so power i
    is bit-equal to ``kron_all(*[us[i]] * k)`` and depends on ``us[i]``
    alone: splitting the stack into chunks keeps every bit.
    """
    out = us
    for _ in range(k - 1):
        out = kron_rows(out, us)
    return out


def hvec(m: np.ndarray) -> np.ndarray:
    """Real vectorization; the real dot product equals Re Tr[A^dag B].

    On Hermitian matrices that is exactly the Hilbert-Schmidt inner product,
    so Hermitian spans can be orthonormalized with real linear algebra.  A
    stack of matrices maps to one row per matrix.
    """
    v = m.reshape(m.shape[:-2] + (-1,))
    return np.concatenate([v.real, v.imag], axis=-1)


def orthonormalize_hermitian(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (under Tr[A^dag B]) of the real span of Hermitian mats.

    ``mats`` is an ``(n, d, d)`` stack or anything ``np.asarray`` turns into
    one; the result is an ``(r, d, d)`` complex128 stack with ``r <= n``.
    """
    mats = np.asarray(mats, dtype=complex)
    n, dim = mats.shape[0], mats.shape[-1]
    if n == 0:
        return np.zeros((0, dim, dim), dtype=complex)
    _, s, vh = np.linalg.svd(hvec(mats), full_matrices=False)
    rows = vh[s >= tol.threshold(s[0])]
    half = dim * dim
    out = (rows[:, :half] + 1j * rows[:, half:]).reshape(-1, dim, dim)
    return (out + out.conj().transpose(0, 2, 1)) / 2  # strip rounding noise
