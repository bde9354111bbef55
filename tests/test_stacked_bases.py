"""Operator bases are (n, d, d) stacks, and every contraction over one agrees
with the per-element loop it replaced.  The loops below are kept as the
reference implementations: results must be equal where the arithmetic is
unchanged, and agree to 1e-12 where a contraction sums in another order."""

import itertools

import numpy as np
import pytest

from equirep.decompose import commutant_basis
from equirep.equivariant import check_equivariance, equivariant_generators, equivariant_measurement
from equirep.errors import DimensionMismatchError, ValidationError
from equirep.groups import LieAlgebraBasis, lie_closure, make_cyclic, make_dihedral
from equirep.linalg import (
    X,
    Y,
    Z,
    comm,
    dagger,
    frob,
    haar_unitary,
    hs_inner,
    hvec,
    orthonormalize_hermitian,
    random_hermitian,
)
from equirep.representations import (
    Representation,
    finite_rep_from_images,
    left_regular_rep,
    perm_matrix_on_tensor,
    perm_rep_qubits,
    su2_fundamental,
    swap_rep,
    tensor_power,
    translation_rep,
    trivial_rep,
    unitary_algebra_rep,
    verify_homomorphism,
)
from equirep.twirl import k_design_twirl, twirl_context, twirl_operator

AGREE = 1e-12


def conjugated(rep, u):
    """The same representation in the basis given by the unitary u."""
    mats = [u @ k @ dagger(u) for k in rep.generator_representatives()]
    if rep.flavor == "finite":
        return finite_rep_from_images(rep.group, mats, rep.name + "~u")
    return Representation(rep.source, "lie", rep.dim, rep.name + "~u",
                          generator_images=mats)


def projection_reps():
    rng = np.random.default_rng(31)
    reps = [tensor_power(su2_fundamental(), k) for k in (3, 4, 5)]
    reps += [perm_rep_qubits(n) for n in (3, 4)]
    reps.append(left_regular_rep(make_dihedral(6)))
    return reps + [conjugated(r, haar_unitary(r.dim, rng)) for r in list(reps)]


def assert_stack(basis, dim, d):
    assert isinstance(basis, np.ndarray)
    assert basis.dtype == np.complex128
    assert basis.shape == (dim, d, d)


# -- reference loops ---------------------------------------------------------

def loop_projection(basis, o):
    out = np.zeros_like(o)
    for b in basis:
        out += b * hs_inner(b, o)
    return out


def loop_k_design_twirl(d, k, o):
    perms = [perm_matrix_on_tensor(p, d) for p in itertools.permutations(range(k))]
    m = len(perms)
    gram = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.trace(dagger(perms[i]) @ perms[j])
    b = np.array([np.trace(dagger(p) @ o) for p in perms])
    coeff = np.linalg.pinv(gram, rcond=1e-10) @ b
    out = np.zeros_like(o)
    for c, p in zip(coeff, perms):
        out += c * p
    return out


def loop_structure_constants(gens):
    n = len(gens)
    cols = np.array([hvec(h) for h in gens]).T
    f = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            target = hvec(-1j * comm(gens[i], gens[j]))
            f[i, j], *_ = np.linalg.lstsq(cols, target, rcond=None)
    return f


def loop_closure_residual(gens, f):
    res = 0.0
    for i in range(len(gens)):
        for j in range(len(gens)):
            lhs = -1j * comm(gens[i], gens[j])
            rhs = sum(f[i, j, k] * gens[k] for k in range(len(gens)))
            res = max(res, frob(lhs - rhs))
    return res


def loop_lie_homomorphism_residual(rep):
    f = rep.algebra.structure_constants()
    imgs = rep.generator_images
    res = 0.0
    for i in range(len(imgs)):
        for j in range(len(imgs)):
            lhs = 1j * sum(f[i, j, k] * imgs[k] for k in range(len(imgs)))
            res = max(res, frob(lhs - comm(imgs[i], imgs[j])))
    return res


def loop_orthonormalize_hermitian(mats, tol_rel=1e-9, tol_abs=1e-10):
    dim = mats[0].shape[0]
    rows = np.array([hvec(m) for m in mats])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    out = []
    for row in vh[s >= max(tol_abs, tol_rel * s[0])]:
        half = row.size // 2
        m = (row[:half] + 1j * row[half:]).reshape(dim, dim)
        out.append((m + dagger(m)) / 2)
    return out


def svd_generators(rep):
    """The SVD route: the commutant with its identity direction subtracted,
    orthonormalised again by one SVD, behind the normalized identity."""
    basis = commutant_basis(rep).basis
    ident = np.eye(rep.dim, dtype=complex) / np.sqrt(rep.dim)
    c = np.einsum("nii->n", basis).real / np.sqrt(rep.dim)
    rest = orthonormalize_hermitian(basis - c[:, None, None] * ident)
    return np.concatenate([ident[None], rest])


# -- contractions against loops ------------------------------------------------

def test_projection_twirl_and_generator_projection_match_loops():
    rng = np.random.default_rng(32)
    for rep in projection_reps():
        ctx = twirl_context(rep, "projection")
        gens = equivariant_generators(rep)
        assert_stack(ctx.commutant.basis, ctx.commutant.dim, rep.dim)
        assert_stack(gens.generators, gens.dim, rep.dim)
        o = rng.standard_normal((rep.dim,) * 2) + 1j * rng.standard_normal((rep.dim,) * 2)
        assert frob(twirl_operator(ctx, o) - loop_projection(ctx.commutant.basis, o)) <= AGREE
        assert frob(gens.project(o) - loop_projection(gens.generators, o)) <= AGREE


@pytest.mark.parametrize("k", [2, 3, 4])
def test_k_design_twirl_matches_gram_loop(k):
    o = random_hermitian(2 ** k, np.random.default_rng(40 + k))
    assert frob(k_design_twirl(2, k, o) - loop_k_design_twirl(2, k, o)) <= AGREE


def lie_cases():
    su2 = su2_fundamental()
    u2 = unitary_algebra_rep(2)
    return [su2, tensor_power(su2, 3), u2, tensor_power(u2, 3), unitary_algebra_rep(3)]


def test_structure_constants_and_closure_match_loops():
    for rep in lie_cases():
        alg = rep.algebra
        gens = list(alg.generators)
        f = alg.structure_constants()
        assert f.shape == (alg.dim,) * 3 and f.dtype == np.float64
        assert np.abs(f - loop_structure_constants(gens)).max() <= AGREE
        assert abs(alg.closure_residual() - loop_closure_residual(gens, f)) <= AGREE


def test_lie_homomorphism_residual_matches_loop():
    for rep in lie_cases():
        assert abs(verify_homomorphism(rep) - loop_lie_homomorphism_residual(rep)) <= AGREE


def test_orthonormalize_hermitian_matches_row_loop():
    rng = np.random.default_rng(50)
    mats = [random_hermitian(4, rng) for _ in range(5)]
    mats.append(mats[0] + 2 * mats[3])  # one dependent direction
    got = orthonormalize_hermitian(mats)
    assert_stack(got, 5, 4)
    # Same SVD input, same elementwise arithmetic: equal to the last bit.
    assert np.array_equal(got, np.array(loop_orthonormalize_hermitian(mats)))
    assert_stack(orthonormalize_hermitian(np.array(mats)), 5, 4)


def generator_reps():
    """``projection_reps``, one block of multiplicity 3, an irrep and SWAP (x) SWAP."""
    return projection_reps() + [
        translation_rep(3), trivial_rep(make_cyclic(1), 3), su2_fundamental(),
        tensor_power(swap_rep(), 2)]


def test_generator_set_matches_the_svd_oracle():
    for rep in generator_reps():
        d = rep.dim
        got = equivariant_generators(rep).generators
        assert_stack(got, commutant_basis(rep).dim, d)
        assert np.array_equal(got[0], np.eye(d) / np.sqrt(d)), rep.name
        assert frob(np.einsum("aij,bij->ab", got.conj(), got) - np.eye(len(got))) <= AGREE
        assert np.abs(np.einsum("nii->n", got[1:])).max(initial=0.0) <= AGREE, rep.name
        assert check_equivariance(got, rep) <= AGREE, rep.name
        if d <= 16:  # keeps the (n, 2 d^2) SVD of the oracle small
            a, b = hvec(got), hvec(svd_generators(rep))
            assert frob(a.T @ a - b.T @ b) <= AGREE, rep.name


def test_generator_set_of_a_zero_dimensional_carrier_is_refused():
    with pytest.raises(ValidationError, match="carrier dimension"):
        equivariant_generators(trivial_rep(make_cyclic(1), 0))


def test_measurement_matches_combination_loop():
    rep = perm_rep_qubits(3)
    gens = equivariant_generators(rep)
    coeffs = np.random.default_rng(51).standard_normal(gens.dim)
    meas = equivariant_measurement(rep, coeffs)
    ref = np.zeros((rep.dim, rep.dim), dtype=complex)
    for c, b in zip(coeffs, gens.generators):
        ref += c * b
    assert frob(meas.m - ref) <= AGREE


# -- the stack format ----------------------------------------------------------

def test_lie_bases_are_stacks():
    alg = LieAlgebraBasis([X / 2, Y / 2, Z / 2])
    assert_stack(alg.generators, 3, 2)
    closed = lie_closure([X, Y])
    assert_stack(closed.generators, 3, 2)
    assert_stack(unitary_algebra_rep(3).algebra.generators, 9, 3)


def test_commutant_and_generator_stacks_of_an_irrep():
    rep = su2_fundamental()
    assert_stack(commutant_basis(rep).basis, 1, 2)
    gens = equivariant_generators(rep)
    assert_stack(gens.generators, 1, 2)
    assert gens.includes_identity


@pytest.mark.parametrize("gens", [[], [X, np.eye(3)], [np.zeros((2, 3))]])
def test_lie_basis_rejects_what_is_not_a_square_stack(gens):
    with pytest.raises(DimensionMismatchError):
        LieAlgebraBasis(gens)
