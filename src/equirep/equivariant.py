"""Equivariant QNN generators, layer products, and measurement operators.

A layer product W(theta) = prod_l exp(-i theta_l H_l) commutes with every
representative as soon as each generator H_l does, so the full space of
admissible generators is exactly the Hermitian part of the commutant.  That
complete basis is what gets exposed; hand-picked sets (like the six-element
swap-symmetric family) are provided as named presets and verified to lie in
its span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import linalg
from .decompose import commutant_basis
from .errors import DimensionMismatchError, NumericalError
from .linalg import DEFAULT_TOL, Tolerance
from .representations import Representation

__all__ = [
    "EquivariantGeneratorSet", "QnnCircuit", "EquivariantMeasurement",
    "equivariant_generators", "build_qnn", "equivariant_measurement",
    "check_equivariance", "swap_symmetric_six", "GENERATOR_PRESETS",
]


@dataclass
class EquivariantGeneratorSet:
    """Hermitian orthonormal basis of the commutant, identity direction first.

    ``generators`` is an ``(n, d, d)`` complex128 stack whose element 0 is
    the normalized identity, so ``includes_identity`` is always true.
    """

    rep: Representation
    generators: np.ndarray
    includes_identity = True

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def traceless(self) -> np.ndarray:
        """Sub-basis orthogonal to the identity (hence traceless)."""
        return self.generators[1:]

    def project(self, h: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an operator onto the generator span."""
        b = self.generators
        return np.tensordot(np.tensordot(b.conj(), np.asarray(h, dtype=complex), 2), b, 1)

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs ``(w, v)`` of every generator, ``(n, d)`` and ``(n, d, d)``.

        Computed once, by one batched ``eigh``, so that circuits built on this
        set never diagonalise a generator again.
        """
        return linalg.herm_eig(self.generators)

    def layer_unitaries(self, layout) -> np.ndarray:
        """``(P, d, d)`` stack of exp(-i theta_l H_l), one per ``(index, theta)`` layer."""
        layout = list(layout)
        idx = np.array([i for i, _ in layout], dtype=int)
        thetas = np.array([t for _, t in layout], dtype=float)
        bad = [int(i) for i in idx if not 0 <= i < self.dim]
        if bad:
            raise IndexError(f"generator index {bad[0]} out of range 0..{self.dim - 1}")
        w, v = self.eig
        v = v[idx]
        return (v * np.exp(-1j * thetas[:, None] * w[idx])[:, None, :]) @ linalg.dagger(v)


def equivariant_generators(rep: Representation,
                           tol: Tolerance = DEFAULT_TOL) -> EquivariantGeneratorSet:
    """All Hermitian generators commuting with the representation.

    The identity direction (always present) is isolated as element 0 so the
    traceless sub-basis is directly available.
    """
    comm = commutant_basis(rep, tol)
    d = rep.dim
    ident = np.eye(d, dtype=complex) / np.sqrt(d)
    c = np.einsum("nii->n", comm.basis).real / np.sqrt(d)  # Tr[ident^dag b], real
    rest = linalg.orthonormalize_hermitian(comm.basis - c[:, None, None] * ident, tol)
    basis = np.concatenate([ident[None], rest])
    if len(basis) != comm.dim:
        raise NumericalError(
            "isolating the identity direction changed the commutant rank; "
            "the tolerance sits on a rank threshold")
    return EquivariantGeneratorSet(rep, basis)


@dataclass
class QnnCircuit:
    """Ordered parameterized layers over a fixed equivariant generator set."""

    gens: EquivariantGeneratorSet
    layers: list[tuple[int, float]]

    @property
    def dim(self) -> int:
        return self.gens.rep.dim

    @property
    def parameters(self) -> np.ndarray:
        return np.array([theta for _, theta in self.layers])

    def with_parameters(self, thetas) -> "QnnCircuit":
        thetas = list(thetas)
        if len(thetas) != len(self.layers):
            raise DimensionMismatchError("one parameter per layer required")
        return QnnCircuit(self.gens, [(idx, float(t))
                                      for (idx, _), t in zip(self.layers, thetas)])

    def unitary(self) -> np.ndarray:
        return build_qnn(self.gens, self.layers)


def build_qnn(gens: EquivariantGeneratorSet, layout) -> np.ndarray:
    """Ordered product of exp(-i theta_l H_l); empty layout gives the identity.

    Layer order matters: commutant generators need not commute with each
    other, only with the representation.  Each layer is built from the
    generator set's cached eigenpairs.
    """
    return reduce(np.matmul, gens.layer_unitaries(layout), np.eye(gens.rep.dim, dtype=complex))


@dataclass
class EquivariantMeasurement:
    """Hermitian measurement m = sum_i c_i B_i commuting with every representative.

    ``basis`` is the ``(n, d, d)`` stack of the B_i.
    """

    m: np.ndarray
    coefficients: np.ndarray
    basis: np.ndarray


def equivariant_measurement(rep: Representation, coefficients, basis=None,
                            tol: Tolerance = DEFAULT_TOL) -> EquivariantMeasurement:
    """Hermitian combination sum_i c_i B_i over an equivariant Hermitian basis.

    ``basis`` defaults to the full Hermitian commutant basis; pass e.g. block
    projectors to use the direct-sum parameterization c_0 1_{d_0} (+) c_1
    1_{d_1} (+) ...
    """
    if basis is None:
        basis = equivariant_generators(rep, tol).generators
    basis = np.asarray(basis, dtype=complex).reshape(len(basis), rep.dim, rep.dim)
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(basis),):
        raise DimensionMismatchError(
            f"{len(basis)} coefficients required, got {coefficients.shape}")
    return EquivariantMeasurement(np.tensordot(coefficients, basis, 1), coefficients, basis)


def check_equivariance(w: np.ndarray, rep: Representation, n_samples: int = 20,
                       rng_seed: int = 0) -> float:
    """Max commutator residual ||[w, K]||_F of an operator against the representation.

    Finite flavor: exact over the group generators.  Lie flavor: over the
    algebra images (sufficient for the connected component) plus
    ``n_samples`` sampled group elements as a smoke test.  With
    ``n_samples=0`` this is the commutation check against the generator
    images alone, for either flavor.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(
            f"operator shape {w.shape} does not match carrier dim {rep.dim}")
    res = 0.0
    for k in rep.generator_images:
        res = max(res, linalg.frob(linalg.comm(w, k)))
    if rep.flavor == "lie" and n_samples > 0:
        for u in rep.sample_elements(rng_seed, n_samples):
            res = max(res, linalg.frob(linalg.comm(w, u)))
    return res


def swap_symmetric_six() -> list[np.ndarray]:
    """The six named two-qubit generators commuting with SWAP.

    span{X(x)1 + 1(x)X, Y(x)1 + 1(x)Y, Z(x)1 + 1(x)Z, XX, YY, ZZ}; a strict
    subspace of the full ten-dimensional swap commutant.
    """
    out = []
    for p in (linalg.X, linalg.Y, linalg.Z):
        out.append(np.kron(p, linalg.I2) + np.kron(linalg.I2, p))
    for p in (linalg.X, linalg.Y, linalg.Z):
        out.append(np.kron(p, p))
    return out


GENERATOR_PRESETS = {
    "paper-swap-six": swap_symmetric_six,
}
