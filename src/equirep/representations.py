"""Concrete representations of finite groups and Lie algebras.

A finite-flavor representation stores one unitary per group element (eagerly
for order <= 64, otherwise generated on demand from generator words).  A
lie-flavor representation stores only the Hermitian images of the algebra
basis; group-level elements are produced by exponentiating algebra samples.

Basis ordering on qubit registers is big-endian: qubit 1 is the leftmost
tensor factor, so the transposition (1,2) is represented by SWAP of the two
leftmost factors.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
    SourceMismatchError,
    ValidationError,
)
from .groups import FiniteGroup, LieAlgebraBasis, _bracket_residual, make_cyclic, make_symmetric
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "Representation", "RepOnOperators",
    "finite_rep_from_images", "trivial_rep", "perm_rep_qubits", "perm_rep_tensor",
    "bitflip_rep", "swap_rep", "dihedral_rep_s3", "su2_fundamental",
    "unitary_algebra_rep", "tensor_power", "direct_sum", "dual",
    "adjoint_action", "left_regular_rep", "translation_rep",
    "verify_homomorphism", "require_unitary", "sources_match",
    "perm_matrix_on_tensor", "swap_matrix",
]

EAGER_ORDER = 64
_UNITARITY_TOL = Tolerance(1e-8, 1e-8)


class Representation:
    """A group or Lie algebra together with matrices realizing it.

    flavor "finite": unitaries indexed by group element; flavor "lie":
    Hermitian generator images aligned with the source basis.
    """

    def __init__(self, source, flavor: str, dim: int, name: str,
                 gen_images=None, matrices=None, generator_images=None):
        self.source = source
        self.flavor = flavor
        self.dim = int(dim)
        self.name = name
        if flavor == "finite":
            if not isinstance(source, FiniteGroup):
                raise SourceMismatchError("finite flavor needs a FiniteGroup source")
            self._gen_images = [np.asarray(m, dtype=complex) for m in gen_images]
            self._cache: dict[int, np.ndarray] = {}
            if matrices is not None:
                self._cache = {i: np.asarray(m, dtype=complex) for i, m in enumerate(matrices)}
            self._words = None
            if source.order <= EAGER_ORDER:
                self._materialize_all()
        elif flavor == "lie":
            if not isinstance(source, LieAlgebraBasis):
                raise SourceMismatchError("lie flavor needs a LieAlgebraBasis source")
            self.generator_images = [np.asarray(m, dtype=complex) for m in generator_images]
            if len(self.generator_images) != source.dim:
                raise DimensionMismatchError("one image per algebra basis element required")
        else:
            raise InvalidParameterError(f"unknown flavor {flavor!r}")

    # -- finite flavor ---------------------------------------------------

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

    def _materialize_all(self):
        words = self.group.element_words()
        for i, w in enumerate(words):
            if i in self._cache:
                continue
            m = np.eye(self.dim, dtype=complex)
            for gi in w:
                m = m @ self._gen_images[gi]
            self._cache[i] = m

    def representative(self, element: int) -> np.ndarray:
        """Unitary for a group element (finite flavor)."""
        g = self.group
        if element in self._cache:
            return self._cache[element]
        if self._words is None:
            self._words = g.element_words()
        m = np.eye(self.dim, dtype=complex)
        for gi in self._words[element]:
            m = m @ self._gen_images[gi]
        self._cache[element] = m
        return m

    def representatives(self):
        """All unitaries, in element order (finite flavor)."""
        return [self.representative(i) for i in range(self.group.order)]

    def generator_representatives(self):
        """Images of the group generators / the algebra basis.

        These are the matrices against which commutants and equivariance are
        checked; correctness for the whole group follows from the
        homomorphism property.
        """
        if self.flavor == "finite":
            return [self.representative(g) for g in self.group.generators]
        return list(self.generator_images)

    # -- shared ----------------------------------------------------------

    def sample_elements(self, rng_seed: int, n: int, depth: int = 3):
        """Deterministic sample of group-level unitaries.

        Finite flavor: uniform over elements.  Lie flavor: products of
        ``depth`` exponentials of random algebra combinations.
        """
        rng = np.random.default_rng(rng_seed)
        out = []
        if self.flavor == "finite":
            for _ in range(n):
                out.append(self.representative(int(rng.integers(self.group.order))))
            return out
        for _ in range(n):
            u = np.eye(self.dim, dtype=complex)
            for _ in range(depth):
                w = rng.standard_normal(len(self.generator_images))
                h = sum(wi * hi for wi, hi in zip(w, self.generator_images))
                theta = float(rng.uniform(0.0, 2.0 * np.pi))
                u = u @ linalg.exp_unitary(h, theta)
            out.append(u)
        return out

    def __repr__(self):
        return f"Representation({self.name!r}, flavor={self.flavor}, dim={self.dim})"


class RepOnOperators(Representation):
    """Conjugation action lifted to the vectorized operator space (dim d^2)."""

    def __init__(self, base: Representation):
        self.base = base
        d2 = base.dim ** 2
        if base.flavor == "finite":
            imgs = [linalg.conjugation_superoperator(m) for m in base._gen_images]
            super().__init__(base.source, "finite", d2, f"ad[{base.name}]", gen_images=imgs)
        else:
            imgs = [linalg.commutator_superoperator(h) for h in base.generator_images]
            super().__init__(base.source, "lie", d2, f"ad[{base.name}]",
                             generator_images=imgs)


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
    """Extend generator images to the whole group via shortest words."""
    images = [np.asarray(m, dtype=complex) for m in images]
    if len(images) != len(group.generators):
        raise DimensionMismatchError("one image per group generator required")
    dim = images[0].shape[0]
    return Representation(group, "finite", dim, name, gen_images=images)


def trivial_rep(source, dim: int) -> Representation:
    """Identity on everything (finite) or zero images (lie)."""
    if isinstance(source, FiniteGroup):
        eye = np.eye(dim, dtype=complex)
        return Representation(source, "finite", dim, f"trivial({dim})",
                              gen_images=[eye] * len(source.generators))
    zero = np.zeros((dim, dim), dtype=complex)
    return Representation(source, "lie", dim, f"trivial({dim})",
                          generator_images=[zero] * source.dim)


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
    """Index-permutation representation of S_n on (C^d)^(x n)."""
    if not (1 <= n <= 6):
        raise InvalidParameterError("supported for 1 <= n <= 6")
    group = make_symmetric(n)
    images = []
    for k in range(max(n - 1, 1)):
        if n == 1:
            images.append(np.eye(d, dtype=complex))
            break
        perm = list(range(n))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        images.append(perm_matrix_on_tensor(perm, d))
    return finite_rep_from_images(group, images, f"perm(S_{n},d={d})")


def perm_rep_qubits(n: int) -> Representation:
    """Qubit-permutation representation of S_n; (j,k) maps to SWAP_{j,k}."""
    return perm_rep_tensor(n, 2)


def bitflip_rep(n: int) -> Representation:
    """Z_2 on n qubits: the nonidentity element flips every qubit (X^(x n))."""
    if n < 1:
        raise InvalidParameterError("need n >= 1 qubits")
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
    return Representation(alg, "lie", 2, "su2-fundamental", generator_images=gens)


def unitary_algebra_rep(d: int) -> Representation:
    """Fundamental representation of u(d) with an orthonormal Hermitian basis."""
    if d < 1:
        raise InvalidParameterError("need d >= 1")
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
    return Representation(alg, "lie", d, f"u{d}-fundamental",
                          generator_images=[b.copy() for b in basis])


def tensor_power(r: Representation, k: int) -> Representation:
    """k-fold tensor representation.

    Finite flavor: g -> R(g)^(x k).  Lie flavor: X -> sum over slots of
    1 x .. x r(X) x .. x 1 (the derivative of the product rule).
    """
    if k < 1:
        raise InvalidParameterError("need k >= 1")
    if k == 1:
        return r
    if r.flavor == "finite":
        images = [linalg.kron_all(*([m] * k)) for m in r._gen_images]
        return Representation(r.source, "finite", r.dim ** k, f"{r.name}^x{k}",
                              gen_images=images)
    eye = np.eye(r.dim, dtype=complex)
    images = []
    for h in r.generator_images:
        total = np.zeros((r.dim ** k, r.dim ** k), dtype=complex)
        for slot in range(k):
            factors = [eye] * k
            factors[slot] = h
            total += linalg.kron_all(*factors)
        images.append(total)
    return Representation(r.source, "lie", r.dim ** k, f"{r.name}^x{k}",
                          generator_images=images)


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum; both summands must share the same source."""
    if not sources_match(r1, r2):
        raise SourceMismatchError("direct sum requires the same group or algebra")

    def blk(a, b):
        out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
        out[:a.shape[0], :a.shape[0]] = a
        out[a.shape[0]:, a.shape[0]:] = b
        return out

    dim = r1.dim + r2.dim
    name = f"{r1.name}(+){r2.name}"
    if r1.flavor == "finite":
        images = [blk(a, b) for a, b in zip(r1._gen_images, r2._gen_images)]
        return Representation(r1.source, "finite", dim, name, gen_images=images)
    images = [blk(a, b) for a, b in zip(r1.generator_images, r2.generator_images)]
    return Representation(r1.source, "lie", dim, name, generator_images=images)


def dual(r: Representation) -> Representation:
    """Dual (contragredient) representation: R*(g) = R(g^-1)^T, r*(X) = -r(X)^T."""
    if r.flavor == "finite":
        g = r.group
        images = [r.representative(g.inverse(gi)).T for gi in g.generators]
        return Representation(r.source, "finite", r.dim, f"dual[{r.name}]",
                              gen_images=images)
    images = [-h.T for h in r.generator_images]
    return Representation(r.source, "lie", r.dim, f"dual[{r.name}]",
                          generator_images=images)


def adjoint_action(r: Representation) -> RepOnOperators:
    """Conjugation action A -> R(g) A R(g)^dag on vectorized operators."""
    return RepOnOperators(r)


def left_regular_rep(group: FiniteGroup) -> Representation:
    """Permutation matrices of left translation: L_h |g> = |h g>."""
    if group.order > 512:
        raise InvalidParameterError("left regular representation capped at order 512")

    def l_matrix(h):
        m = np.zeros((group.order, group.order), dtype=complex)
        for g in range(group.order):
            m[group.multiply(h, g), g] = 1.0
        return m

    images = [l_matrix(h) for h in group.generators]
    return finite_rep_from_images(group, images, f"regular[{group.name}]")


def translation_rep(n_sites: int) -> Representation:
    """Cyclic translation of qubits on a ring, as a representation of Z_n."""
    group = make_cyclic(n_sites)
    perm = [(i - 1) % n_sites for i in range(n_sites)]  # shift right by one site
    return finite_rep_from_images(group, [perm_matrix_on_tensor(perm, 2)],
                                  f"translation({n_sites})")


def verify_homomorphism(r: Representation, tol: Tolerance = DEFAULT_TOL) -> float:
    """Max homomorphism residual.

    Finite flavor: max over pairs of ||R(gh) - R(g)R(h)||_F (all pairs up to
    order 64, generator x element beyond, which is equivalent by induction).
    Lie flavor: max over basis pairs of ||r([X,Y]) - [r(X), r(Y)]||_F with the
    left side expanded through the source's structure constants.
    """
    if r.flavor == "finite":
        res = 0.0
        g = r.group
        mats = r.representatives()
        firsts = range(g.order) if g.order <= EAGER_ORDER else g.generators
        for a in firsts:
            ma = mats[a]
            for b in range(g.order):
                res = max(res, linalg.frob(mats[g.multiply(a, b)] - ma @ mats[b]))
        return res
    f = r.algebra.structure_constants(tol)
    require_unitary(r)
    return _bracket_residual(f, np.array(r.generator_images))


def require_unitary(r: Representation) -> None:
    """Raise unless the representation is unitary.

    Finite flavor: every generator image is a square unitary.  Lie flavor:
    every image is Hermitian, so its exponentials are unitary.  Either way
    the algebra the images generate is closed under the adjoint, which the
    commutant and intertwiner solvers rely on.
    """
    for i, m in enumerate(r.generator_representatives()):
        if m.shape != (r.dim, r.dim):
            raise DimensionMismatchError(
                f"image {i} has shape {m.shape}, carrier dim is {r.dim}")
        if r.flavor == "lie":
            if not linalg.is_hermitian(m, _UNITARITY_TOL):
                raise NotHermitianError("lie generator images must be Hermitian")
        elif not linalg.is_unitary(m, _UNITARITY_TOL):
            raise ValidationError(f"finite generator image {i} is not unitary")
