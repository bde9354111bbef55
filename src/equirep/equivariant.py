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
from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL, Tolerance
from .representations import Representation, _max_frob

__all__ = [
    "EquivariantGeneratorSet", "QnnCircuit", "EquivariantMeasurement",
    "equivariant_generators", "build_qnn", "equivariant_measurement",
    "check_equivariance", "swap_symmetric_six", "GENERATOR_PRESETS",
]


@dataclass
class EquivariantGeneratorSet:
    """Hermitian orthonormal basis of the commutant, identity direction first.

    ``generators`` is an ``(n, d, d)`` complex128 stack in the commutant's order
    whose element 0 is the normalized identity, so ``includes_identity`` is true.
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
        """Orthogonal projection of a ``(d, d)`` operator onto the generator span,
        by ``linalg.orthonormal_projection``."""
        return linalg.orthonormal_projection(self.generators, h)

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

    The commutant basis B in its own order, with the identity direction made
    element 0 by one Householder reflection: u_n = Tr[B_n]/sqrt(d) is the unit
    coefficient vector of 1/sqrt(d) (u_0 = sqrt(d_0/d) > 0), and with v = u + e_0
    the stack B - 2 v (v.B)/(v.v) stays orthonormal, with elements 1.. traceless.
    """
    basis = commutant_basis(rep, tol).basis
    d = rep.dim
    v = np.einsum("nii->n", basis).real / np.sqrt(d)
    v[0] += 1.0
    basis -= (2 / (v @ v)) * v[:, None, None] * np.tensordot(v, basis, 1)
    basis[0] = np.eye(d) / np.sqrt(d)
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
    """Hermitian measurement m = sum_i c_i B_i commuting with every representative."""

    m: np.ndarray


def equivariant_measurement(rep: Representation, coefficients, basis=None,
                            tol: Tolerance = DEFAULT_TOL) -> EquivariantMeasurement:
    """Hermitian combination sum_i c_i B_i over an equivariant Hermitian basis.

    ``basis`` defaults to the full Hermitian commutant basis; pass e.g. block
    projectors to use the direct-sum parameterization c_0 1_{d_0} (+) c_1
    1_{d_1} (+) ...  One ``(d, d)`` matrix is a basis of one.
    """
    if basis is None:
        basis = equivariant_generators(rep, tol).generators
    d = rep.dim
    basis = linalg.require_operator(basis, (d, d), stack=True).reshape(-1, d, d)
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(basis),):
        raise DimensionMismatchError(
            f"{len(basis)} coefficients required, got {coefficients.shape}")
    return EquivariantMeasurement(np.tensordot(coefficients, basis, 1))


def check_equivariance(w: np.ndarray, rep: Representation) -> float:
    """Max commutator residual ||[w, K]||_F of an operator over the generator images K.

    ``w`` is one ``(d, d)`` operator or an ``(n, d, d)`` stack of them.  The
    images are the only actions read: commuting with them is commuting with
    every product of group generators (finite flavor) and with every
    exponential of algebra combinations (lie flavor, the connected group).
    The commutators of a chunk of operators with every K are formed as one
    stack, and each norm has the bits of ``linalg.frob`` of that commutator.
    """
    d = rep.dim
    ws = linalg.require_operator(w, (d, d), stack=True).reshape(-1, d, d)
    ks = rep.generator_images
    per = max(1, linalg._CHUNK_BYTES // max(ks.nbytes, 1))
    res = 0.0
    for start in range(0, len(ws), per):
        chunk = ws[start:start + per, None]
        res = max(res, _max_frob((chunk @ ks - ks @ chunk).reshape(-1, rep.dim, rep.dim)))
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
