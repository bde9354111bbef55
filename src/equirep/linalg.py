"""Dense complex linear algebra used by every other module.

Conventions fixed here and relied on everywhere else:

* Matrices are numpy ``complex128`` arrays; nothing is wrapped.
* The Hilbert-Schmidt inner product is ``<A, B> = Tr[A^dag B]`` with no
  dimension-dependent normalization.
* Operators are vectorized row-major (C order, ``a.reshape(-1)``), so
  ``vec(A X B) = (A ⊗ Bᵀ) vec(X)`` and conjugation by ``u`` acts on
  ``vec(A)`` as ``u ⊗ conj(u)``.
* Matrix exponentials of Hermitian generators go through the
  eigendecomposition, never scaling-and-squaring.
* Tensor-factor ordering is big-endian: qubit 1 is the leftmost factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NotHermitianError, ValidationError

__all__ = [
    "I2", "X", "Y", "Z",
    "Tolerance", "DEFAULT_TOL", "require_operator", "orthonormal_projection",
    "dagger", "frob", "kron_all", "is_hermitian", "is_unitary", "is_psd",
    "herm_eig", "exp_unitary", "partial_trace", "conjugation_sum", "random_hermitian",
    "haar_unitary", "haar_unitaries", "haar_unitaries_last", "kron_rows",
    "tensor_powers", "tensor_powers_last", "hvec",
    "orthonormalize_hermitian",
]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

for _p in (I2, X, Y, Z):
    _p.setflags(write=False)


_FLOAT_MAX = float(np.finfo(float).max)  # an int above it cannot become a float


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by rank and residual decisions.

    Each is a finite non-negative real number; anything else raises
    InvalidParameterError.
    """

    absolute: float = 1e-10
    relative: float = 1e-9

    def __post_init__(self):
        for name, value in (("absolute", self.absolute), ("relative", self.relative)):
            real = isinstance(value, (int, float, np.integer, np.floating))
            if isinstance(value, bool) or not real or not 0 <= value <= _FLOAT_MAX:
                raise InvalidParameterError(
                    f"{name} tolerance must be a finite non-negative number, got {value!r}")

    def threshold(self, scale: float) -> float:
        """Cutoff for treating a quantity as zero at the given scale."""
        return max(self.absolute, self.relative * scale)


DEFAULT_TOL = Tolerance()

# Bytes of (n, d, d) operands per step wherever a stack is processed in
# chunks (average and Monte Carlo twirls, homomorphism check, splitting
# element): each chunk's temporaries stay cache-sized and below the
# allocator's trim threshold, and a large stack is never copied whole.
_CHUNK_BYTES = 1 << 17


def _shaped(o, shape=None, stack: bool = False) -> np.ndarray:
    """:func:`require_operator` less the finiteness pass, for callers that find
    a non-finite entry in an array they form from every entry anyway."""
    try:
        o = np.asarray(o, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"operator is not numeric: {exc}") from exc
    if (o.ndim != 2 and not (stack and o.ndim == 3)
            or o.shape[-2:] != (shape or o.shape[-1:] * 2)):
        want = f"{shape or 'a square matrix'}{' or a stack of them' if stack else ''}"
        raise DimensionMismatchError(f"operator shape {o.shape}, expected {want}")
    return o


def _require_finite(values: np.ndarray) -> np.ndarray:
    if np.count_nonzero(np.isfinite(values)) != values.size:  # faster than .all() on small arrays
        raise ValidationError("operator has a non-finite entry")
    return values


def require_operator(o, shape: tuple | None = None, stack: bool = False) -> np.ndarray:
    """The operator check: ``o`` as a finite complex array of matrix ``shape``
    (rows, columns), any square one if None, or with ``stack`` an ``(n, *shape)``
    stack of them.  Text or objects and a non-finite entry raise ValidationError,
    another shape DimensionMismatchError.  This module's arithmetic does not call it.
    """
    return _require_finite(_shaped(o, shape, stack))


def orthonormal_projection(basis: np.ndarray, o) -> np.ndarray:
    """Orthogonal projection of a ``(d, d)`` operator onto the span of an
    orthonormal ``(n, d, d)`` basis, with the operator check.

    Reads the basis as an ``(n, d^2)`` matrix C and takes two matrix-vector
    products: the coefficients Tr[b^dag o] = conj(C vec(conj o)), which needs
    no conjugate copy of C, then their combination of the rows of C.  A
    non-finite entry of o is found in the coefficients, each of which reads
    every entry.
    """
    d = basis.shape[-1]
    o = _shaped(o, (d, d))
    flat = basis.reshape(-1, d * d)
    coeffs = _require_finite(np.dot(flat, o.reshape(-1).conj())).conj()
    return np.dot(coeffs, flat).reshape(d, d)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


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


def herm_eig(h: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix or an ``(n, d, d)`` stack of them.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary
    eigenvector matrix ``v`` so that ``h = v diag(w) v^dag``; a stack gives
    ``(n, d)`` and ``(n, d, d)`` from one batched ``eigh``.  Ties are broken
    by the LAPACK column ordering, which is deterministic but not canonical.

    Raises:
        ValidationError: unless ``require_operator`` passes h as a square or a stack.
        NotHermitianError: if ``||h - h^dag||_F > tol * ||h||_F`` for any matrix.
    """
    h = require_operator(h, stack=True)
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
    dims = list(dims)
    n = len(dims)
    total = int(np.prod(dims))
    rho = require_operator(rho, (total, total))
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


def _halving_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by halving: slice i is added to slice i + half, and an
    odd last slice carried, so the order of the adds depends on the length
    of axis 0 alone, never on the other axes."""
    while len(x) > 1:
        half = len(x) // 2
        pairs = x[:half] + x[half:2 * half]
        x = np.concatenate([pairs, x[2 * half:]]) if len(x) % 2 else pairs
    return x[0]


def haar_unitaries_last(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``(d, d, n)`` stack of Haar-distributed unitaries, sample axis last (Mezzadri 2007).

    One ``(n, 2, d, d)`` Gaussian draw (real then imaginary part of each
    sample, the order one sample at a time would draw them in), moved to
    real and imaginary planes of shape (column, row, n) and orthonormalised
    in place by classical Gram-Schmidt with one reorthogonalisation pass
    (CGS2): one loop over the d columns, each step projecting the earlier
    columns out twice, then normalising.  Every step is a real multiply,
    add, divide or square root across the sample axis, and every sum over
    rows or columns adds in an order set by d alone (``_halving_sum``), so
    sample s depends on its own draw alone, on any BLAS kernel, and is
    bit-identical to the s-th of n successive single draws.  The
    result is the Q of the QR whose R has a positive real diagonal, the
    factor Mezzadri's phase correction selects (the Gaussian's 1/sqrt(2)
    scale does not change Q), so the stack is exactly left- and
    right-invariant with no phase fix.
    """
    re, im = np.ascontiguousarray(rng.standard_normal((n, 2, d, d)).transpose(1, 3, 2, 0))
    for j in range(d):
        vr, vi, qr, qi = re[j], im[j], re[:j], im[:j]
        for _ in range(2 if j else 0):
            # c_i = <q_i, v> over the rows, then v -= sum_i c_i q_i
            cr = _halving_sum((qr * vr + qi * vi).swapaxes(0, 1))[:, None]
            ci = _halving_sum((qr * vi - qi * vr).swapaxes(0, 1))[:, None]
            vr -= _halving_sum(qr * cr - qi * ci)
            vi -= _halving_sum(qr * ci + qi * cr)
        norm = np.sqrt(_halving_sum(vr * vr + vi * vi))
        vr /= norm
        vi /= norm
    u = np.empty((d, d, n), dtype=complex)
    u.real, u.imag = re.transpose(1, 0, 2), im.transpose(1, 0, 2)
    return u


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, d, d)`` stack of Haar-distributed unitaries: ``haar_unitaries_last``
    with the sample axis moved to the front, in C order."""
    return np.ascontiguousarray(haar_unitaries_last(d, n, rng).transpose(2, 0, 1))


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


def tensor_powers_last(us: np.ndarray, k: int) -> np.ndarray:
    """``(d^k, d^k, n)`` k-fold tensor powers of a ``(d, d, n)`` stack, sample axis last.

    Each factor is multiplied in from the right by one complex broadcast
    product on the ``(p, r, q, s, n)`` index split, elementwise the same
    multiplications as ``np.kron``, so power s is bit-equal to
    ``kron_all(*[us[..., s]] * k)`` and depends on sample s alone:
    splitting the stack into chunks keeps every bit.
    """
    out = us
    for _ in range(k - 1):
        (p, q, n), (r, s) = out.shape, us.shape[:2]
        out = (out[:, None, :, None] * us[None, :, None]).reshape(p * r, q * s, n)
    return out


def tensor_powers(us: np.ndarray, k: int) -> np.ndarray:
    """``(n, d^k, d^k)`` k-fold tensor powers of an ``(n, d, d)`` stack:
    ``tensor_powers_last`` with the sample axis moved to the front, in C order."""
    return np.ascontiguousarray(tensor_powers_last(us.transpose(1, 2, 0), k).transpose(2, 0, 1))


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
