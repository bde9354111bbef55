"""Concrete representations of finite groups and Lie algebras.

Either flavor is fixed by one ``(g, d, d)`` stack of generator images: the
unitaries of the group generators, or the Hermitian images of the algebra
basis.  Finite-flavor elements are word products of those images, built
one at a time on demand, or all at once (each as its BFS parent times one
image) on the first read of the element stack; lie-flavor group-level
elements are produced by exponentiating algebra samples.

Basis ordering on qubit registers is big-endian: qubit 1 is the leftmost
tensor factor, so the transposition (1,2) is represented by SWAP of the two
leftmost factors.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
    SourceMismatchError,
    ValidationError,
    _require_int,
    _require_positive_int,
)
from .groups import FiniteGroup, LieAlgebraBasis, _bracket_residual, make_cyclic, make_symmetric
from .linalg import Tolerance

__all__ = [
    "Representation",
    "finite_rep_from_images", "trivial_rep", "perm_rep_qubits", "perm_rep_tensor",
    "bitflip_rep", "swap_rep", "dihedral_rep_s3", "su2_fundamental",
    "unitary_algebra_rep", "tensor_product", "tensor_power", "direct_sum", "dual",
    "adjoint_action", "left_regular_rep", "translation_rep",
    "verify_homomorphism", "require_unitary", "sources_match",
    "perm_matrix_on_tensor", "swap_matrix",
]

_UNITARITY_TOL = Tolerance(1e-8, 1e-8)


class Representation:
    """A group or Lie algebra together with matrices realizing it.

    ``generator_images`` is a complex128 ``(g, d, d)`` stack: the unitary
    images of the group generators (flavor "finite") or the Hermitian images
    of the algebra basis (flavor "lie"), in the source's order.  Everything
    else is derived from it: finite-flavor elements are word products of the
    images, none of them built at construction, and lie-flavor group
    elements are exponentials of algebra combinations.
    """

    def __init__(self, source, flavor: str, dim: int, name: str, generator_images):
        if flavor == "finite":
            if not isinstance(source, FiniteGroup):
                raise SourceMismatchError("finite flavor needs a FiniteGroup source")
            count = len(source.generators)
        elif flavor == "lie":
            if not isinstance(source, LieAlgebraBasis):
                raise SourceMismatchError("lie flavor needs a LieAlgebraBasis source")
            count = source.dim
        else:
            raise InvalidParameterError(f"unknown flavor {flavor!r}")
        self.source = source
        self.flavor = flavor
        self.dim = int(dim)
        self.name = name
        images = _image_stack(generator_images)
        if images.shape != (count, self.dim, self.dim):
            raise DimensionMismatchError(
                f"{flavor} images must form a ({count}, {self.dim}, {self.dim}) "
                f"stack, got shape {images.shape}")
        self.generator_images = images
        self._words = None
        self._all = None

    @property
    def group(self) -> FiniteGroup:
        if self.flavor != "finite":
            raise SourceMismatchError("not a finite-flavor representation")
        return self.source

    @property
    def algebra(self) -> LieAlgebraBasis:
        if self.flavor != "lie":
            raise SourceMismatchError("not a lie-flavor representation")
        return self.source

    # -- finite flavor ---------------------------------------------------

    def representative(self, element: int) -> np.ndarray:
        """Unitary for a group element (finite flavor): its shortest word's product,
        read from the element stack once that exists, with the same bits."""
        if self._all is not None:
            return self._all[element]
        if self._words is None:
            self._words = self.group.element_words()
        m = np.eye(self.dim, dtype=complex)
        for gi in self._words[element]:
            m = m @ self.generator_images[gi]
        return m

    def representatives(self) -> np.ndarray:
        """``(order, d, d)`` stack of every unitary, in element order (finite flavor).

        Built on the first call and kept, along the BFS tree of
        ``group.element_tree()``: each element is its parent's matrix times
        one generator image, the same products in the same order as its
        word walk, with one product per element.
        """
        if self._all is None:
            out = np.empty((self.group.order, self.dim, self.dim), dtype=complex)
            out[self.group.identity] = np.eye(self.dim)
            for f, e, gi in self.group.element_tree():
                out[f] = out[e] @ self.generator_images[gi]
            self._all = out
        return self._all

    def generator_representatives(self) -> np.ndarray:
        """The ``generator_images`` stack.

        These are the matrices against which commutants and equivariance are
        checked; correctness for the whole group follows from the
        homomorphism property.
        """
        return self.generator_images

    # -- shared ----------------------------------------------------------

    def sample_elements(self, rng_seed, n: int, depth: int = 3) -> np.ndarray:
        """Deterministic ``(n, d, d)`` sample of group-level unitaries.

        Finite flavor: uniform over elements.  Lie flavor: products of
        ``depth`` exponentials exp(-i theta sum_j w_j X_j) with Gaussian w and
        uniform theta, drawn per factor in sample order and diagonalised as
        one stack.  ``rng_seed`` is anything ``np.random.default_rng`` takes:
        an integer or a sequence of them, such as the ``[seed, 17]`` of a
        decomposition's verification set.
        """
        _require_int("n", n, 0)
        _require_positive_int("depth", depth)
        rng = np.random.default_rng(rng_seed)
        if self.flavor == "finite":
            picks = [self.representative(int(rng.integers(self.group.order))) for _ in range(n)]
            return np.array(picks, dtype=complex).reshape(n, self.dim, self.dim)
        imgs = self.generator_images
        ws, thetas = [], []
        for _ in range(n * depth):
            ws.append(rng.standard_normal(len(imgs)))
            thetas.append(float(rng.uniform(0.0, 2.0 * np.pi)))
        w = np.array(ws).reshape(n * depth, len(imgs))
        # the same left-to-right sum as one factor at a time, so samples stay bit-identical
        hs = sum(w[:, j, None, None] * imgs[j] for j in range(len(imgs)))
        factors = linalg.exp_unitary(hs, np.array(thetas)).reshape(n, depth, self.dim, self.dim)
        u = np.tile(np.eye(self.dim, dtype=complex), (n, 1, 1))
        for j in range(depth):
            u = u @ factors[:, j]
        return u

    def __repr__(self):
        return f"Representation({self.name!r}, flavor={self.flavor}, dim={self.dim})"


def _image_stack(images) -> np.ndarray:
    """Matrices as one complex128 stack; ragged input raises DimensionMismatchError."""
    try:
        return np.array(images, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatchError(f"images do not form one stack: {exc}") from exc


def sources_match(r: Representation, s: Representation) -> bool:
    if r.flavor != s.flavor:
        return False
    if r.source is s.source:
        return True
    if r.flavor == "finite":
        return np.array_equal(r.group.mul, s.group.mul)
    a, b = r.algebra.generators, s.algebra.generators
    return a.shape == b.shape and bool(np.all(np.linalg.norm(a - b, axis=(1, 2)) < 1e-12))


def finite_rep_from_images(group: FiniteGroup, images, name: str) -> Representation:
    """Extend generator images to the whole group via shortest words; the
    dimension is the first image's, and ``Representation`` makes the one copy."""
    try:
        dim = np.shape(images[0])[-1] if len(images) else 0
    except (ValueError, IndexError):    # ragged or scalar: Representation refuses it
        dim = 0
    return Representation(group, "finite", dim, name, images)


def trivial_rep(source, dim: int) -> Representation:
    """Identity on everything (finite) or zero images (lie)."""
    _require_int("dim", dim, 0)
    if isinstance(source, FiniteGroup):
        flavor, image, count = "finite", np.eye(dim), len(source.generators)
    else:
        flavor, image, count = "lie", np.zeros((dim, dim)), source.dim
    return Representation(source, flavor, dim, f"trivial({dim})",
                          np.broadcast_to(image, (count, dim, dim)))


def perm_matrix_on_tensor(perm, d: int) -> np.ndarray:
    """Index-permutation matrix: P |i_1 .. i_n> = |i_{pi^-1(1)} .. i_{pi^-1(n)}>."""
    perm = list(perm)
    n = len(perm)
    dim = d ** n
    cols = np.arange(dim)
    digits = np.array(np.unravel_index(cols, [d] * n))        # (n, dim)
    inv = np.argsort(perm)
    rows = np.ravel_multi_index(tuple(digits[inv[a]] for a in range(n)), [d] * n)
    p = np.zeros((dim, dim), dtype=complex)
    p[rows, cols] = 1.0
    return p


def swap_matrix(n_qubits: int = 2, a: int = 0, b: int = 1, d: int = 2) -> np.ndarray:
    """SWAP of tensor factors a and b on n factors of local dimension d."""
    perm = list(range(n_qubits))
    perm[a], perm[b] = perm[b], perm[a]
    return perm_matrix_on_tensor(perm, d)


def perm_rep_tensor(n: int, d: int) -> Representation:
    """Index-permutation representation of S_n on (C^d)^(x n); ``make_symmetric`` checks n."""
    _require_positive_int("d", d)
    group = make_symmetric(n)
    # the adjacent transpositions; S_1's one generator is its identity
    images = [swap_matrix(n, k, k + 1, d) for k in range(n - 1)] or [np.eye(d, dtype=complex)]
    return finite_rep_from_images(group, images, f"perm(S_{n},d={d})")


def perm_rep_qubits(n: int) -> Representation:
    """Qubit-permutation representation of S_n; (j,k) maps to SWAP_{j,k}."""
    return perm_rep_tensor(n, 2)


def bitflip_rep(n: int) -> Representation:
    """Z_2 on n qubits: the nonidentity element flips every qubit (X^(x n))."""
    _require_positive_int("n", n)
    group = make_cyclic(2)
    flip = linalg.kron_all(*([linalg.X] * n)) if n > 1 else linalg.X.copy()
    return finite_rep_from_images(group, [flip], f"bitflip({n})")


def swap_rep() -> Representation:
    """Z_2 on two qubits: the nonidentity element is SWAP."""
    group = make_cyclic(2)
    return finite_rep_from_images(group, [swap_matrix()], "swap")


def dihedral_rep_s3() -> Representation:
    """Two-dimensional representation of S_3 acting on one qubit.

    The 3-cycle (1 2 3) maps to diag(w, w^-1) with w = exp(2 pi i / 3) and the
    transposition (1 2) maps to X; all six representatives follow from the
    homomorphism property via shortest words in {(1 2), (2 3)}.
    """
    group = make_symmetric(3)
    w = np.exp(2j * np.pi / 3)
    r123 = np.diag([w, w.conjugate()])
    r12 = linalg.X.copy()
    # group generators are (1 2) and (2 3); (2 3) = (1 2) * (1 2 3)
    r23 = r12 @ r123
    return finite_rep_from_images(group, [r12, r23], "dihedral-S3")


def su2_fundamental() -> Representation:
    """Spin-1/2: algebra basis and images are both {X/2, Y/2, Z/2}."""
    gens = [linalg.X / 2, linalg.Y / 2, linalg.Z / 2]
    alg = LieAlgebraBasis(gens, name="su2")
    return Representation(alg, "lie", 2, "su2-fundamental", alg.generators)


def unitary_algebra_rep(d: int) -> Representation:
    """Fundamental representation of u(d) with an orthonormal Hermitian basis."""
    _require_positive_int("d", d)
    basis = []
    for j in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[j, j] = 1.0
        basis.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1 / np.sqrt(2)
            basis.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1j / np.sqrt(2)
            a[k, j] = 1j / np.sqrt(2)
            basis.append(a)
    alg = LieAlgebraBasis(basis, name=f"u({d})")
    return Representation(alg, "lie", d, f"u{d}-fundamental", alg.generators)


def tensor_product(r: Representation, s: Representation) -> Representation:
    """Tensor product of two representations of one source.

    Finite images are a x b, lie images 0 + a x 1 + 1 x b (the product rule,
    summed from zeros so that every zero entry is +0): broadcast products on
    the (g, p, q, p, q) index split.
    """
    if not sources_match(r, s):
        raise SourceMismatchError("tensor product requires the same group or algebra")
    p, q = r.dim, s.dim
    a = r.generator_images[:, :, None, :, None]
    b = s.generator_images[:, None, :, None, :]
    if r.flavor == "finite":
        images = a * b
    else:
        images = np.zeros((len(a), p, q, p, q), dtype=complex)
        images += a * np.eye(q)[:, None, :]
        images += np.eye(p)[:, None, :, None] * b
    return Representation(r.source, r.flavor, p * q, f"{r.name}(x){s.name}",
                          images.reshape(len(a), p * q, p * q))


def tensor_power(r: Representation, k: int) -> Representation:
    """k-fold tensor representation: ``tensor_product`` of k copies, left first.

    Finite flavor: g -> R(g)^(x k).  Lie flavor: X -> sum over slots of
    1 x .. x r(X) x .. x 1, with the bits of the slots' kron chains summed in order.
    """
    _require_positive_int("k", k)
    if k == 1:
        return r
    out = functools.reduce(tensor_product, [r] * k)
    out.name = f"{r.name}^x{k}"
    return out


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum; both summands must share the same source."""
    if not sources_match(r1, r2):
        raise SourceMismatchError("direct sum requires the same group or algebra")
    d1 = r1.dim
    images = np.zeros((len(r1.generator_images), d1 + r2.dim, d1 + r2.dim), dtype=complex)
    images[:, :d1, :d1] = r1.generator_images
    images[:, d1:, d1:] = r2.generator_images
    return Representation(r1.source, r1.flavor, d1 + r2.dim, f"{r1.name}(+){r2.name}", images)


def dual(r: Representation) -> Representation:
    """Dual (contragredient) representation: R*(g) = R(g^-1)^T, r*(X) = -r(X)^T.

    The rep must be unitary (else ``ValidationError``), so a finite rep has
    R(g^-1)^T = conj R(g): its dual images are its conjugated images.
    """
    require_unitary(r)
    if r.flavor == "finite":
        images = r.generator_images.conj()
    else:
        images = -r.generator_images.transpose(0, 2, 1)
    return Representation(r.source, r.flavor, r.dim, f"dual[{r.name}]", images)


def adjoint_action(r: Representation) -> Representation:
    """Conjugation A -> R(g) A R(g)^-1 on row-major vectorized operators: r x dual(r).

    For unitary r its images are ``linalg.conjugation_superoperator`` (finite)
    or ``linalg.commutator_superoperator`` (lie) of r's generator images.
    """
    out = tensor_product(r, dual(r))
    out.name = f"ad[{r.name}]"
    return out


def left_regular_rep(group: FiniteGroup) -> Representation:
    """Permutation matrices of left translation: L_h |g> = |h g>, one scatter."""
    if group.order > 512:
        raise InvalidParameterError("left regular representation capped at order 512")
    n, count = group.order, len(group.generators)
    images = np.zeros((count, n, n), dtype=complex)
    images[np.arange(count)[:, None], group.mul[group.generators], np.arange(n)] = 1.0
    return finite_rep_from_images(group, images, f"regular[{group.name}]")


def translation_rep(n_sites: int) -> Representation:
    """Cyclic translation of qubits on a ring, as a representation of Z_n."""
    group = make_cyclic(n_sites)
    perm = [(i - 1) % n_sites for i in range(n_sites)]  # shift right by one site
    return finite_rep_from_images(group, [perm_matrix_on_tensor(perm, 2)],
                                  f"translation({n_sites})")


def _max_frob(stack: np.ndarray) -> float:
    """Largest Frobenius norm in an ``(n, d, d)`` stack, 0 if it is empty.

    Each squared norm is two BLAS dot products, over the real and the
    imaginary parts, as ``np.linalg.norm`` takes them for one matrix, so
    every norm has the bits of ``linalg.frob`` of that matrix.
    """
    flat = stack.reshape(len(stack), 1, stack.shape[-1] ** 2)
    re, im = flat.real, flat.imag
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return float(np.sqrt(sq.max(initial=0.0)))


def verify_homomorphism(r: Representation) -> float:
    """Max homomorphism residual of a unitary representation; ``require_unitary``
    refuses any other, so a non-finite image is never read as a residual.

    Finite flavor: max over generators s and elements h of
    ||R(sh) - R(s)R(h)||_F, which implies R(gh) = R(g)R(h) for all pairs by
    induction on the word of g, and over generators of the distance between
    each generator image and the word product that represents its element.
    For each generator s the pairs are taken as stacks: R(sh) for a chunk of
    h by one fancy index of ``representatives()``, less R(s) times that
    chunk's stack by one batched matmul.  Chunks hold
    ``linalg._CHUNK_BYTES`` of representatives.
    Lie flavor: max over basis pairs of ||r([X,Y]) - [r(X), r(Y)]||_F with the
    left side expanded through the source's structure constants.
    """
    require_unitary(r)
    if r.flavor == "finite":
        g = r.group
        mats = r.representatives()
        chunk = max(1, linalg._CHUNK_BYTES // max(mats[0].nbytes, 1))
        res = 0.0
        for a in g.generators:
            for start in range(0, g.order, chunk):
                stop = start + chunk
                res = max(res, _max_frob(mats[g.mul[a, start:stop]]
                                         - mats[a] @ mats[start:stop]))
        # A generator that is the identity, or repeats an earlier one, is
        # never walked in a word, so its image is compared directly.
        return max(res, _max_frob(mats[g.generators] - r.generator_images))
    return _bracket_residual(r.algebra.structure_constants(), r.generator_images)


def require_unitary(r: Representation) -> None:
    """Raise unless the representation is unitary.

    Finite flavor: every generator image is a square unitary.  Lie flavor:
    every image is Hermitian, so its exponentials are unitary.  Either way
    the algebra the images generate is closed under the adjoint, which the
    decomposition, and the commutants and intertwiners built from it, rely on.
    """
    for i, m in enumerate(r.generator_images):
        if r.flavor == "lie":
            if not linalg.is_hermitian(m, _UNITARITY_TOL):
                raise NotHermitianError("lie generator images must be Hermitian")
        elif not linalg.is_unitary(m, _UNITARITY_TOL):
            raise ValidationError(f"finite generator image {i} is not unitary")
