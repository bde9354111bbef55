import itertools

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import equirep.decompose
from equirep import linalg
from equirep.decompose import (
    SchurWeylReport,
    _algebra_element,
    _block_commutant,
    _span_basis,
    _span_distance,
    _split_copies,
    _verification_set,
    block_diagonal_part,
    block_projectors,
    commutant_basis,
    decomposition_residuals,
    find_intertwiner,
    irrep_blocks,
    is_irreducible,
    isotypic_decompose,
    schur_weyl_check,
)
from equirep.errors import (
    DecompositionFailedError,
    DimensionTooLargeError,
    InvalidParameterError,
    NotHermitianError,
    NumericalError,
    SourceMismatchError,
    ValidationError,
)
from equirep.groups import make_cyclic, make_symmetric
from equirep.linalg import (
    DEFAULT_TOL,
    I2,
    X,
    Y,
    Z,
    comm,
    commutator_superoperator,
    dagger,
    frob,
    haar_unitaries,
    haar_unitary,
    hs_inner,
    kron,
    vectorize,
)
from equirep.groups import make_dihedral
from equirep.representations import (
    Representation,
    adjoint_action,
    bitflip_rep,
    dihedral_rep_s3,
    direct_sum,
    finite_rep_from_images,
    left_regular_rep,
    perm_matrix_on_tensor,
    perm_rep_qubits,
    perm_rep_tensor,
    su2_fundamental,
    swap_rep,
    tensor_power,
    translation_rep,
    trivial_rep,
    unitary_algebra_rep,
)
from kernel_oracle import eigenspace_kernel, null_space

SIGMA_MINUS = (X + 1j * Y) / 2
SIGMA_PLUS = (X - 1j * Y) / 2


def brute_force_commutant_dim(constraints):
    """Independent oracle: entrywise loops, eigen-count of the normal matrix."""
    d = constraints[0].shape[0]
    rows = []
    for k in constraints:
        mat = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for a in range(d):
                    for b in range(d):
                        coeff = 0.0 + 0.0j
                        if i == a:
                            coeff += k[b, j]      # (B K)_{ij} term
                        if j == b:
                            coeff -= k[i, a]      # (K B)_{ij} term
                        mat[i * d + j, a * d + b] = coeff
        rows.append(mat)
    stacked = np.vstack(rows)
    normal = dagger(stacked) @ stacked
    evals = np.linalg.eigvalsh(normal)
    return int(np.sum(evals < 1e-18 + 1e-12 * max(evals.max(), 1.0)))


# -- commutants --------------------------------------------------------------

def test_commutant_su2_fundamental_is_identity_line():
    comm_basis = commutant_basis(su2_fundamental())
    assert comm_basis.dim == 1
    b = comm_basis.basis[0]
    assert frob(b - np.trace(b) / 2 * np.eye(2)) < 1e-10


def test_commutant_su2_tensor2():
    comm_basis = commutant_basis(tensor_power(su2_fundamental(), 2))
    assert comm_basis.dim == 2
    # span contains 1 and SWAP
    from equirep.representations import swap_matrix
    for target in (np.eye(4, dtype=complex), swap_matrix()):
        proj = sum(b * hs_inner(b, target) for b in comm_basis.basis)
        assert frob(proj - target) < 1e-9


@pytest.mark.parametrize("rep,expected", [
    (su2_fundamental(), 1),
    (tensor_power(su2_fundamental(), 2), 2),
    (swap_rep(), 10),
    (perm_rep_qubits(3), 20),
])
def test_commutant_dims_match_brute_force(rep, expected):
    comm_basis = commutant_basis(rep)
    assert comm_basis.dim == expected
    oracle = brute_force_commutant_dim(rep.generator_representatives())
    assert oracle == expected


def test_commutant_basis_properties():
    for rep in (swap_rep(), perm_rep_qubits(3), dihedral_rep_s3(),
                tensor_power(su2_fundamental(), 2)):
        cb = commutant_basis(rep)
        gram = np.array([[hs_inner(a, b) for b in cb.basis] for a in cb.basis])
        assert frob(gram - np.eye(cb.dim)) < 1e-10
        for b in cb.basis:
            assert frob(b - dagger(b)) < 1e-10
            for k in rep.generator_representatives():
                assert frob(comm(b, k)) < 1e-9


def test_commutant_projection_of_random_operator_commutes():
    rng = np.random.default_rng(0)
    for rep in (swap_rep(), perm_rep_qubits(3), tensor_power(su2_fundamental(), 2)):
        cb = commutant_basis(rep)
        a = rng.standard_normal((rep.dim, rep.dim)) \
            + 1j * rng.standard_normal((rep.dim, rep.dim))
        proj = sum(b * hs_inner(b, a) for b in cb.basis)
        for k in rep.generator_representatives():
            assert frob(comm(proj, k)) < 1e-9


def test_commutant_of_trivial_rep_is_everything():
    rep = trivial_rep(make_cyclic(3), 3)
    assert commutant_basis(rep).dim == 9


def test_adjoint_action_of_swap_has_136_dim_superoperator_commutant():
    # commutant ON the operator space: SWAP (x) SWAP splits 10 + 6, so 136
    rep = adjoint_action(swap_rep())
    assert commutant_basis(rep).dim == 10 * 10 + 6 * 6


def conjugated(rep, u):
    """The same representation in the basis given by the unitary u."""
    mats = [u @ k @ dagger(u) for k in rep.generator_representatives()]
    if rep.flavor == "finite":
        return finite_rep_from_images(rep.group, mats, rep.name + "~u")
    return Representation(rep.source, "lie", rep.dim, rep.name + "~u",
                          generator_images=mats)


def superoperator_kernel(r, s):
    """The stacked d^2 x d^2 kernel the eigenspace solver replaced (d <= 16)."""
    if r is s:
        blocks = [commutator_superoperator(k) for k in r.generator_representatives()]
    else:
        blocks = [np.kron(np.eye(s.dim), kr.T) - np.kron(ks, np.eye(r.dim))
                  for kr, ks in zip(r.generator_representatives(),
                                    s.generator_representatives())]
    return null_space(np.vstack(blocks))


def span_distance(stack, columns):
    """Frobenius distance between the projectors onto two operator spans."""
    vecs = stack.reshape(len(stack), -1).T
    return frob(vecs @ dagger(vecs) - columns @ dagger(columns))


def oracle_reps(rng):
    """Reps checked against the slower solvers, and their Haar conjugates."""
    su2 = su2_fundamental()
    reps = [tensor_power(su2, k) for k in (2, 3, 4)]
    reps += [perm_rep_qubits(n) for n in (2, 3, 4)]
    reps.append(left_regular_rep(make_dihedral(6)))
    return reps + [conjugated(r, haar_unitary(r.dim, rng)) for r in reps]


def test_eigenspace_kernel_matches_superoperator_oracle():
    rng = np.random.default_rng(12)
    su2 = su2_fundamental()
    for rep in oracle_reps(rng):
        got = eigenspace_kernel(rep, rep, DEFAULT_TOL)
        oracle = superoperator_kernel(rep, rep)
        assert got.shape == (oracle.shape[1], rep.dim, rep.dim), rep.name
        assert span_distance(got, oracle) <= 1e-10, rep.name

    su2x3 = tensor_power(su2, 3)
    pairs = [(su2x3, conjugated(su2x3, haar_unitary(8, rng)), "equivalent", 5),
             (su2x3, su2, "partial", 2),
             (tensor_power(su2, 2), su2, "zero-only", 0)]
    for r, s, verdict, kdim in pairs:
        oracle = superoperator_kernel(r, s)
        it = find_intertwiner(r, s)
        assert (it.verdict, it.kernel_dim, oracle.shape[1]) == (verdict, kdim, kdim)
        got = eigenspace_kernel(r, s, DEFAULT_TOL)
        assert got.shape == (kdim, s.dim, r.dim)
        if kdim:
            assert span_distance(got, oracle) <= 1e-10


def test_commutant_matches_the_kernel_solver_oracle():
    # The commutant built from the decomposition spans what the kernel
    # solver finds; both spans are complex spans of orthonormal stacks.
    for rep in oracle_reps(np.random.default_rng(13)):
        kernel = eigenspace_kernel(rep, rep, DEFAULT_TOL)
        basis = commutant_basis(rep).basis
        assert len(basis) == len(kernel), rep.name
        assert span_distance(basis, kernel.reshape(len(kernel), -1).T) <= 1e-10, rep.name


def spin_rep(source, twice_j):
    """Spin-j irrep of su(2) on the basis X/2, Y/2, Z/2 of ``source``."""
    j = twice_j / 2
    m = j - np.arange(twice_j + 1)
    raise_ = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jx = (raise_ + dagger(raise_)) / 2
    jy = (raise_ - dagger(raise_)) / 2j
    return Representation(source, "lie", twice_j + 1, f"spin{twice_j}/2",
                          generator_images=[jx, jy, np.diag(m).astype(complex)])


def s3_irreps():
    """Trivial, sign and standard irreps of S_3."""
    g = make_symmetric(3)
    return [trivial_rep(g, 1),
            finite_rep_from_images(g, [-np.eye(1, dtype=complex)] * 2, "sign"),
            dihedral_rep_s3()]


def census_rep(irreps, mults, seed):
    """Haar-conjugated direct sum with mults[i] copies of irreps[i]."""
    summands = [irrep for irrep, m in zip(irreps, mults) for _ in range(m)]
    rep = summands[0]
    for extra in summands[1:]:
        rep = direct_sum(rep, extra)
    return conjugated(rep, haar_unitary(rep.dim, np.random.default_rng(seed)))


MULTS = st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any)


@settings(max_examples=25, deadline=None)
@given(flavor=st.sampled_from(["finite", "lie"]), mults=MULTS,
       seed=st.integers(0, 2 ** 32 - 1), other_mults=MULTS, same=st.booleans(),
       other_seed=st.integers(0, 2 ** 32 - 1))
def test_commutant_dim_of_conjugated_direct_sums_is_the_census(
        flavor, mults, seed, other_mults, same, other_seed):
    if flavor == "finite":
        irreps = s3_irreps()
    else:
        source = su2_fundamental().source
        irreps = [spin_rep(source, twice_j) for twice_j in (0, 1, 2)]
    rep = census_rep(irreps, mults, seed)
    basis = commutant_basis(rep).basis
    assert len(basis) == sum(m * m for m in mults)
    assert sorted(isotypic_decompose(rep, 0).blocks) == sorted(
        (irrep.dim, m) for irrep, m in zip(irreps, mults) if m)
    kernel = eigenspace_kernel(rep, rep, DEFAULT_TOL)
    assert span_distance(basis, kernel.reshape(len(kernel), -1).T) <= 1e-10

    # Hom(R, S) between two independently conjugated sums is fixed by the censuses.
    if same:
        other_mults = mults
    other = census_rep(irreps, other_mults, other_seed)
    it = find_intertwiner(rep, other)
    assert it.kernel_dim == sum(m * n for m, n in zip(mults, other_mults))
    assert (it.verdict == "equivalent") == (mults == other_mults)
    if it.kernel_dim == 0:
        assert (it.verdict, it.phi) == ("zero-only", None)
        return
    for kr, ks in zip(rep.generator_images, other.generator_images):
        assert frob(it.phi @ kr - ks @ it.phi) <= 1e-9 * max(1.0, frob(kr))
    if it.verdict == "equivalent":
        assert frob(dagger(it.phi) @ it.phi - np.eye(rep.dim)) <= 1e-10


def test_commutant_rejects_non_unitary_finite_images():
    g = make_cyclic(2)
    rep = finite_rep_from_images(g, [np.array([[1, 1], [0, -1]], dtype=complex)], "shear")
    with pytest.raises(ValidationError, match="not unitary"):
        commutant_basis(rep)
    with pytest.raises(ValidationError):
        find_intertwiner(rep, finite_rep_from_images(g, [-np.eye(2)], "sign2"))


def test_commutant_rejects_non_hermitian_lie_images():
    su2 = su2_fundamental()
    rep = Representation(su2.source, "lie", 2, "skew",
                         generator_images=[X / 2, 1j * Y / 2, Z / 2])
    with pytest.raises(NotHermitianError):
        commutant_basis(rep)


# -- irreducibility ----------------------------------------------------------

def test_is_irreducible():
    assert is_irreducible(su2_fundamental())
    assert not is_irreducible(tensor_power(su2_fundamental(), 2))
    assert not is_irreducible(trivial_rep(make_cyclic(2), 2))
    assert is_irreducible(dihedral_rep_s3())


def test_is_irreducible_agrees_with_the_commutant_dimension():
    for rep in oracle_reps(np.random.default_rng(16)):
        assert is_irreducible(rep) == (commutant_basis(rep).dim == 1), rep.name


# -- isotypic decomposition ---------------------------------------------------

def test_isotypic_su2_tensor2_blocks():
    dec = isotypic_decompose(tensor_power(su2_fundamental(), 2), 0)
    assert dec.blocks == [(3, 1), (1, 1)]


def test_isotypic_adjoint_su2_blocks():
    dec = isotypic_decompose(adjoint_action(su2_fundamental()), 0)
    assert dec.blocks == [(3, 1), (1, 1)]


def test_isotypic_regular_z3():
    rep = left_regular_rep(make_cyclic(3))
    dec = isotypic_decompose(rep, 0)
    assert dec.blocks == [(1, 1)] * 3


def test_isotypic_trivial():
    dec = isotypic_decompose(trivial_rep(make_cyclic(4), 5), 0)
    assert dec.blocks == [(1, 5)]


def test_isotypic_perm3():
    dec = isotypic_decompose(perm_rep_qubits(3), 0)
    assert sorted(dec.blocks) == [(1, 4), (2, 2)]


def test_isotypic_regular_s3_contains_every_irrep_with_its_dimension():
    rep = left_regular_rep(make_symmetric(3))
    dec = isotypic_decompose(rep, 0)
    assert sorted(dec.blocks) == [(1, 1), (1, 1), (2, 2)]


def test_isotypic_unitarity_and_alignment():
    for rep in (tensor_power(su2_fundamental(), 2), perm_rep_qubits(3),
                left_regular_rep(make_cyclic(6)), adjoint_action(swap_rep())):
        dec = isotypic_decompose(rep, 0)
        res = decomposition_residuals(rep, dec)
        assert res["unitarity"] < 1e-9
        assert res["block_alignment"] < 1e-8
        total = sum(d * m for d, m in dec.blocks)
        assert total == rep.dim


def test_isotypic_seed_stability_of_blocks():
    for rep in (perm_rep_qubits(3), tensor_power(su2_fundamental(), 2),
                left_regular_rep(make_symmetric(3))):
        blocks = [tuple(sorted(isotypic_decompose(rep, seed).blocks))
                  for seed in range(4)]
        assert len(set(blocks)) == 1


def test_commutant_dim_equals_sum_of_multiplicity_squares():
    corpus = [
        su2_fundamental(),
        tensor_power(su2_fundamental(), 2),
        swap_rep(),
        perm_rep_qubits(2),
        perm_rep_qubits(3),
        dihedral_rep_s3(),
        left_regular_rep(make_symmetric(3)),
        left_regular_rep(make_cyclic(5)),
        adjoint_action(su2_fundamental()),
    ]
    for rep in corpus:
        dim = commutant_basis(rep).dim
        blocks = isotypic_decompose(rep, 1).blocks
        assert dim == sum(m * m for _, m in blocks), rep.name


def test_failed_decomposition_names_every_redraw(monkeypatch):
    # A zero splitting element leaves one cluster, so no draw can certify.
    monkeypatch.setattr(equirep.decompose, "_algebra_element",
                        lambda rep, rng: np.zeros((rep.dim, rep.dim), dtype=complex))
    with pytest.raises(DecompositionFailedError) as info:
        isotypic_decompose(perm_rep_qubits(3), 0)
    for attempt in range(equirep.decompose.MAX_REDRAWS):
        assert f"attempt {attempt}: block alignment residual too large" in str(info.value)


def test_block_projectors_resolve_identity():
    rep = perm_rep_qubits(3)
    dec = isotypic_decompose(rep, 0)
    projs = block_projectors(dec)
    acc = sum(projs)
    assert frob(acc - np.eye(8)) < 1e-10
    for p in projs:
        assert frob(p @ p - p) < 1e-10


def test_block_diagonal_part_is_idempotent_pinch():
    rng = np.random.default_rng(1)
    rep = tensor_power(su2_fundamental(), 2)
    dec = isotypic_decompose(rep, 0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pinched = block_diagonal_part(dec, a)
    assert frob(block_diagonal_part(dec, pinched) - pinched) < 1e-10


# -- intertwiners -------------------------------------------------------------

def test_intertwiner_rep_with_itself_contains_identity():
    rep = tensor_power(su2_fundamental(), 2)
    it = find_intertwiner(rep, rep)
    assert it.verdict == "equivalent"
    assert it.kernel_dim == 2  # one scalar per isotypic block


def test_intertwiner_adjoint_vs_tensor_equivalent():
    ad = adjoint_action(su2_fundamental())
    t2 = tensor_power(su2_fundamental(), 2)
    it = find_intertwiner(ad, t2)
    assert it.verdict == "equivalent"
    # phi maps the ad carrier into the tensor carrier: phi R(g) = S(g) phi
    for kr, ks in zip(ad.generator_representatives(), t2.generator_representatives()):
        assert frob(it.phi @ kr - ks @ it.phi) < 1e-8


def test_intertwiner_explicit_ladder_map_on_symmetric_part():
    # Pairing forced by the raising chain phi(R v) = [sigma+, phi(v)]:
    # |00> -> sigma-, |10>+|01> -> -Z, |11> -> -sigma+.  The eigenvalue
    # bookkeeping matches ascending Z-generator spectra on both carriers; the
    # relative signs are fixed by the ladder, not by eigenvalues alone.
    t2 = tensor_power(su2_fundamental(), 2)
    ad = adjoint_action(su2_fundamental())
    sym = [np.array([1, 0, 0, 0], dtype=complex),                 # |00>
           np.array([0, 1, 1, 0], dtype=complex),                 # |10>+|01>
           np.array([0, 0, 0, 1], dtype=complex)]                 # |11>
    targets = [vectorize(SIGMA_MINUS), -vectorize(Z), -vectorize(SIGMA_PLUS)]
    phi = np.zeros((4, 4), dtype=complex)
    coeff = np.linalg.pinv(np.column_stack(sym))
    for t, row in zip(targets, coeff):
        phi += np.outer(t, row)
    for kr, ks in zip(t2.generator_images, ad.generator_images):
        # check the intertwining equation on the symmetric subspace only
        for v in sym:
            lhs = phi @ (kr @ v)
            rhs = ks @ (phi @ v)
            assert np.linalg.norm(lhs - rhs) < 1e-12


def test_intertwiner_zero_between_distinct_one_dim_reps():
    from equirep.representations import finite_rep_from_images
    g = make_symmetric(2)
    triv = finite_rep_from_images(g, [np.eye(1, dtype=complex)], "trivial")
    sign = finite_rep_from_images(g, [-np.eye(1, dtype=complex)], "sign")
    it = find_intertwiner(triv, sign)
    assert it.verdict == "zero-only"
    assert it.kernel_dim == 0


def test_intertwiner_source_mismatch():
    with pytest.raises(SourceMismatchError):
        find_intertwiner(perm_rep_qubits(3), bitflip_rep(1))


def test_intertwiner_between_irreducibles_never_partial():
    reps = [dihedral_rep_s3(), su2_fundamental()]
    decs = [irrep_blocks(perm_rep_qubits(3), isotypic_decompose(perm_rep_qubits(3), 0))]
    candidates = [r for r in reps] + decs[0]
    for a in candidates:
        for b in candidates:
            try:
                it = find_intertwiner(a, b)
            except SourceMismatchError:
                continue
            assert it.verdict in ("zero-only", "equivalent")


def test_irrep_blocks_reproduce_block_dims_and_verify():
    from equirep.representations import verify_homomorphism
    rep = perm_rep_qubits(3)
    dec = isotypic_decompose(rep, 0)
    blocks = irrep_blocks(rep, dec)
    assert [b.dim for b in blocks] == [d for d, _ in dec.blocks]
    for b in blocks:
        assert verify_homomorphism(b) < 1e-9


@pytest.mark.parametrize("rep,expected_blocks", [
    # Z_4 qubit translation on 4 qubits: character multiplicities 6, 3, 4, 3
    (translation_rep(4), [(1, 3), (1, 3), (1, 4), (1, 6)]),
    # D_5 regular: irreps of dims 1, 1, 2, 2
    (left_regular_rep(make_dihedral(5)), [(1, 1), (1, 1), (2, 2), (2, 2)]),
    # four spin-1/2s: spin-2 x1, spin-1 x3, spin-0 x2
    (tensor_power(su2_fundamental(), 4), [(1, 2), (3, 3), (5, 1)]),
    # adjoint on M_4 is equivalent to the 4-fold tensor square
    (adjoint_action(tensor_power(su2_fundamental(), 2)), [(1, 2), (3, 3), (5, 1)]),
    # standard (x) standard of S_3 = trivial + sign + standard
    (tensor_power(dihedral_rep_s3(), 2), [(1, 1), (1, 1), (2, 1)]),
])
def test_isotypic_census_against_theory(rep, expected_blocks):
    dec = isotypic_decompose(rep, 0)
    assert sorted(dec.blocks) == expected_blocks
    assert commutant_basis(rep).dim == sum(m * m for _, m in dec.blocks)


def test_twirl_image_is_adjoint_fixed_point_space():
    # the null space of (adjoint action - id) on operators IS the commutant:
    # 10-dim for the swap rep, even though the superoperator rep itself has a
    # 136-dim commutant one level up
    rep = swap_rep()
    ad = adjoint_action(rep)
    fixed = np.eye(16) - ad.representative(1)  # identity element contributes 0
    kernel = null_space(fixed)
    assert kernel.shape[1] == commutant_basis(rep).dim == 10


def test_isotypic_regular_s4_full_irrep_census():
    # the regular representation carries every irrep with multiplicity = dim:
    # S_4 has irreps of dims 1, 1, 2, 3, 3
    rep = left_regular_rep(make_symmetric(4))
    dec = isotypic_decompose(rep, 0)
    assert sorted(dec.blocks) == [(1, 1), (1, 1), (2, 2), (3, 3), (3, 3)]
    res = decomposition_residuals(rep, dec)
    assert res["unitarity"] < 1e-9
    assert res["block_alignment"] < 1e-8
    assert commutant_basis(rep).dim == sum(m * m for _, m in dec.blocks)


def test_commutant_perm5_lazy_representation_path():
    # order 120 > eager cap: representatives are generated from words on demand
    rep = perm_rep_qubits(5)
    # Schur-Weyl: multiplicities of the S_5 irreps are the two-row
    # unitary-side dimensions 6, 4, 2, so the commutant has dim 36 + 16 + 4
    assert commutant_basis(rep).dim == 56


def test_commutant_of_swap_cubed_at_dim_64():
    # SWAP(x)3 on 64 dims: multiplicities 36 and 28, so 36^2 + 28^2
    assert commutant_basis(tensor_power(swap_rep(), 3)).dim == 2080


def test_su2_seventh_power_at_dim_128():
    # seven spin-1/2s: spin-7/2 x1, spin-5/2 x6, spin-3/2 x14, spin-1/2 x14
    rep = tensor_power(su2_fundamental(), 7)
    assert isotypic_decompose(rep, 0).blocks == [(8, 1), (6, 6), (4, 14), (2, 14)]
    assert commutant_basis(rep).dim == 1 + 36 + 196 + 196


# -- schur-weyl ----------------------------------------------------------------

def test_schur_weyl_d2_n2():
    rep = schur_weyl_check(2, 2)
    assert rep.ok
    assert rep.tensor_commutant_dim == 2
    assert rep.perm_commutant_dim == 10
    assert sorted(rep.tensor_blocks) == [(1, 1), (3, 1)]
    # P_SWAP in the tensor-side decomposition basis is 1_3 (+) (-1_1)
    from equirep.representations import swap_matrix, unitary_algebra_rep
    t2 = tensor_power(unitary_algebra_rep(2), 2)
    dec = isotypic_decompose(t2, 0)
    s_rot = dagger(dec.q) @ swap_matrix() @ dec.q
    assert frob(s_rot - np.diag([1, 1, 1, -1])) < 1e-8


def test_schur_weyl_d2_n3():
    rep = schur_weyl_check(2, 3)
    assert rep.ok
    assert rep.perm_commutant_dim == 20
    assert rep.tensor_commutant_dim == 5
    assert sorted(rep.perm_blocks) == [(1, 4), (2, 2)]
    assert sorted(rep.tensor_blocks) == [(2, 2), (4, 1)]


def test_schur_weyl_d2_n4():
    # two-row partitions of 4: (4) pairs 1 x 5, (3,1) pairs 3 x 3, (2,2) pairs 2 x 1
    rep = schur_weyl_check(2, 4)
    assert rep.ok
    assert rep.perm_commutant_dim == 35
    assert rep.tensor_commutant_dim == 14
    assert sorted(rep.perm_blocks) == [(1, 5), (2, 1), (3, 3)]


def test_schur_weyl_d2_n5_desk_scale_boundary():
    rep = schur_weyl_check(2, 5)
    assert rep.ok
    assert rep.perm_commutant_dim == 56
    assert rep.tensor_commutant_dim == 42
    assert sorted(rep.perm_blocks) == [(1, 6), (4, 4), (5, 2)]


def test_schur_weyl_d3_n3():
    # three-row partitions of 3: (3) pairs 1 x 10, (2,1) pairs 2 x 8, (1^3) pairs 1 x 1
    rep = schur_weyl_check(3, 3)
    assert rep.ok
    assert rep.perm_commutant_dim == 165
    assert rep.tensor_commutant_dim == 6
    assert sorted(rep.perm_blocks) == [(1, 1), (1, 10), (2, 8)]


def test_schur_weyl_d1_degenerate():
    rep = schur_weyl_check(1, 3)
    assert rep.ok
    assert rep.perm_commutant_dim == 1
    assert rep.tensor_commutant_dim == 1


def test_schur_weyl_dimension_cap():
    with pytest.raises(DimensionTooLargeError):
        schur_weyl_check(3, 4)


def _schur_weyl_by_samples(d, n, rng_seed=0, draws=None, tol=DEFAULT_TOL):
    """The per-sample Schur-Weyl check: one Haar draw, kron power and SVD per
    sample until three leave the rank unchanged, then four dense projectors."""
    dec_perm = isotypic_decompose(perm_rep_tensor(n, d), rng_seed, tol)
    dec_tensor = isotypic_decompose(tensor_power(unitary_algebra_rep(d), n), rng_seed, tol)
    perm_comm, tensor_comm = _block_commutant(dec_perm), _block_commutant(dec_tensor)
    if draws is None:
        rng = np.random.default_rng([rng_seed, 101])
        draws = (haar_unitary(d, rng) for _ in itertools.count())
    vecs, rank, stall, used = [], 0, 0, 0
    while used < 2 * len(perm_comm) + 12 and stall < 3:
        u = un = next(draws)
        for _ in range(n - 1):
            un = np.kron(un, u)
        vecs.append(vectorize(un))
        used += 1
        s = np.linalg.svd(np.column_stack(vecs), compute_uv=False)
        new_rank = int(np.sum(s >= tol.threshold(s[0])))
        stall = stall + 1 if new_rank == rank else 0
        rank = new_rank

    def projector(stack):
        u, s, _ = np.linalg.svd(stack.reshape(len(stack), -1).T, full_matrices=False)
        u = u[:, :int(np.sum(s >= tol.threshold(s[0])))]
        return u @ dagger(u)

    perm_ops = np.array([perm_matrix_on_tensor(p, d) for p in itertools.permutations(range(n))])
    dist_perm = frob(projector(np.array(vecs)) - projector(perm_comm))
    dist_tensor = frob(projector(perm_ops) - projector(tensor_comm))
    pairing = sorted(dec_perm.blocks) == sorted((m, k) for k, m in dec_tensor.blocks)
    return {"used": used, "dist_perm": dist_perm, "dist_tensor": dist_tensor,
            "ok": pairing and dist_perm < 1e-8 and dist_tensor < 1e-8,
            "blocks": (dec_perm.blocks, dec_tensor.blocks),
            "dims": (len(perm_comm), len(tensor_comm))}


def _assert_matches_the_sample_loop(got, want):
    assert got.haar_samples_used == want["used"]
    assert got.ok == want["ok"]
    assert (got.perm_blocks, got.tensor_blocks) == want["blocks"]
    assert (got.perm_commutant_dim, got.tensor_commutant_dim) == want["dims"]
    assert abs(got.projector_distance_perm_side - want["dist_perm"]) <= 1e-12
    assert abs(got.projector_distance_tensor_side - want["dist_tensor"]) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d, n", [(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3)])
def test_schur_weyl_matches_the_per_sample_loop(d, n, seed):
    got = schur_weyl_check(d, n, rng_seed=seed)
    _assert_matches_the_sample_loop(got, _schur_weyl_by_samples(d, n, seed))
    assert got.ok


def test_schur_weyl_walks_the_prefixes_when_a_sample_repeats(monkeypatch):
    # Sample 1 repeats sample 0, so the first r samples have rank r - 1 and
    # the two-SVD shortcut cannot decide; the walk takes one sample more.
    d, n = 2, 3
    drawn = haar_unitaries(d, 64, np.random.default_rng([0, 101]))
    forced = np.concatenate([drawn[:1], drawn[:-1]])
    served = [0]

    def draw(d_, count, rng):  # successive calls read on along the forced stream
        served[0] += count
        return forced[served[0] - count:served[0]]

    monkeypatch.setattr(linalg, "haar_unitaries", draw)
    got = schur_weyl_check(d, n)
    assert served[0] == 2 * got.perm_commutant_dim + 12  # the walk drew the rest
    _assert_matches_the_sample_loop(got, _schur_weyl_by_samples(d, n, draws=iter(forced)))
    assert got.haar_samples_used == got.perm_commutant_dim + 4
    assert got.ok
    served[0] = 0
    assert got == _schur_weyl_in_one_draw(d, n)


def _schur_weyl_in_one_draw(d, n, rng_seed=0, tol=DEFAULT_TOL):
    """The single-draw Schur-Weyl check: all 2r + 12 Haar samples from one
    ``haar_unitaries`` call, each raised to its power by a ``kron_all`` chain,
    then the stall rule on them."""
    dec_perm = isotypic_decompose(perm_rep_tensor(n, d), rng_seed, tol)
    dec_tensor = isotypic_decompose(tensor_power(unitary_algebra_rep(d), n), rng_seed, tol)
    perm_comm, tensor_comm = _block_commutant(dec_perm), _block_commutant(dec_tensor)
    r = len(perm_comm)
    cap = 2 * r + 12
    us = linalg.haar_unitaries(d, cap, np.random.default_rng([rng_seed, 101]))
    powers = np.stack([linalg.kron_all(*[u] * n) for u in us])
    cols = powers.reshape(cap, -1).T
    s_r = np.linalg.svd(cols[:, :r], compute_uv=False)
    samples, s = _span_basis(cols[:, :r + 3], tol)
    used = r + 3
    if not (np.sum(s_r >= tol.threshold(s[0])) == r
            and np.sum(s >= tol.threshold(s_r[0])) == r):
        rank, stall, used = 0, 0, 0
        while used < cap and stall < 3:
            used += 1
            s = np.linalg.svd(cols[:, :used], compute_uv=False)
            new_rank = int(np.sum(s >= tol.threshold(s[0])))
            stall = stall + 1 if new_rank == rank else 0
            rank = new_rank
        samples = _span_basis(cols[:, :used], tol)[0]
    perm_ops = np.array([perm_matrix_on_tensor(p, d) for p in itertools.permutations(range(n))])
    perm_span, _ = _span_basis(perm_ops.reshape(len(perm_ops), -1).T, tol)
    dist_perm = _span_distance(samples, perm_comm.reshape(r, -1).T)
    dist_tensor = _span_distance(perm_span, tensor_comm.reshape(len(tensor_comm), -1).T)
    return SchurWeylReport(
        d, n, r, len(tensor_comm), dist_perm, dist_tensor, dec_perm.blocks, dec_tensor.blocks,
        sorted(dec_perm.blocks) == sorted((m, k) for k, m in dec_tensor.blocks), used,
        residuals={"perm_projector_distance": dist_perm,
                   "tensor_projector_distance": dist_tensor})


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (4, 2)])
def test_schur_weyl_report_equals_the_single_draw_check(d, n):
    # Drawing the first r + 3 samples, and the rest only for the walk, keeps every bit.
    assert schur_weyl_check(d, n) == _schur_weyl_in_one_draw(d, n)


@pytest.mark.parametrize("call", [
    lambda: schur_weyl_check(2.0, 2),
    lambda: schur_weyl_check(True, 3),
    lambda: schur_weyl_check(-2, 2),
    lambda: schur_weyl_check(2, 0),
    lambda: schur_weyl_check(2, 2, rng_seed=-1),
    lambda: schur_weyl_check(2, 2, rng_seed=1.5),
    lambda: isotypic_decompose(su2_fundamental(), -1),
    lambda: isotypic_decompose(su2_fundamental(), 2.5),
    lambda: isotypic_decompose(su2_fundamental(), "0"),
], ids=["d-float", "d-bool", "d-negative", "n-zero", "sw-seed-negative", "sw-seed-float",
        "iso-seed-negative", "iso-seed-float", "iso-seed-str"])
def test_bad_integer_parameters_raise_invalid_parameter(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_numpy_integer_parameters_are_accepted():
    assert schur_weyl_check(np.int64(2), np.int64(2), rng_seed=np.int64(1)).ok
    assert isotypic_decompose(su2_fundamental(), np.int64(3)).blocks == [(2, 1)]


def _algebra_element_by_loop(rep, rng):
    """The one-term-at-a-time sum the stacked _algebra_element replaced."""
    if rep.flavor == "finite":
        mats = rep.representatives()
        a = np.zeros((rep.dim, rep.dim), dtype=complex)
        w = rng.standard_normal(len(mats))
        v = rng.standard_normal(len(mats))
        for wi, vi, m in zip(w, v, mats):
            a += wi * (m + dagger(m)) + vi * 1j * (m - dagger(m))
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


ALGEBRA_REPS = {
    "trivial(Z_12,1)": lambda: trivial_rep(make_cyclic(12), 1),
    "perm3": lambda: perm_rep_qubits(3),
    "regular-S4": lambda: left_regular_rep(make_symmetric(4)),
    "perm5": lambda: perm_rep_qubits(5),
    "regular-Z128": lambda: left_regular_rep(make_cyclic(128)),
    **{f"su2x{k}": (lambda k=k: tensor_power(su2_fundamental(), k)) for k in (2, 3, 4, 5)},
    "u3x2": lambda: tensor_power(unitary_algebra_rep(3), 2),
}


@pytest.mark.parametrize("name", list(ALGEBRA_REPS))
def test_algebra_element_matches_the_loop_bit_for_bit(name):
    rep = ALGEBRA_REPS[name]()
    if name in ("perm5", "regular-Z128"):  # these cross a chunk boundary
        assert rep.group.order * rep.dim ** 2 * 16 > linalg._CHUNK_BYTES
    for seed in (0, 1):
        got = _algebra_element(rep, np.random.default_rng(seed))
        want = _algebra_element_by_loop(rep, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def _alignment_residual_by_loop(dec, ops):
    t = dagger(dec.q) @ ops @ dec.q
    model = np.zeros_like(t)
    for (d_k, m_k), (a, b) in zip(dec.blocks, dec.block_offsets):
        for c in range(a, b, d_k):
            model[:, c:c + d_k, c:c + d_k] = t[:, a:a + d_k, a:a + d_k]
    return max(frob(x) for x in t - model)


@pytest.mark.parametrize("name", ["perm3", "regular-S4", "perm5", "su2x3", "u3x2"])
def test_decomposition_residuals_match_the_loop_bit_for_bit(name):
    rep = ALGEBRA_REPS[name]()
    for seed in (0, 4):
        dec = isotypic_decompose(rep, seed)
        ops = _verification_set(rep, np.random.default_rng([seed, 17]))
        got = decomposition_residuals(rep, dec, seed)
        assert got["block_alignment"] == _alignment_residual_by_loop(dec, ops)
        assert got["unitarity"] == frob(dagger(dec.q) @ dec.q - np.eye(rep.dim))


def _intertwiner_by_kernel(r, s):
    """Verdict and kernel stack of the kernel solver and its conditioning rule.

    This is how find_intertwiner chose before it read the census of R (+) S:
    "equivalent" when the kernel basis or one of four random mixes has a
    smallest relative singular value above tolerance.
    """
    mats = eigenspace_kernel(r, s, DEFAULT_TOL)
    kdim = len(mats)
    if kdim == 0:
        return "zero-only", mats
    if r.dim == s.dim:
        rng = np.random.default_rng(7)
        candidates = list(mats)
        for _ in range(4):
            w = rng.standard_normal(kdim) + 1j * rng.standard_normal(kdim)
            candidates.append(np.tensordot(w, mats, 1))
        svals = np.array([np.linalg.svd(m, compute_uv=False) for m in candidates])
        if (svals[:, -1] / np.maximum(svals[:, 0], 1e-300)).max() > \
                max(DEFAULT_TOL.relative, DEFAULT_TOL.absolute):
            return "equivalent", mats
    return "partial", mats


def hom_basis(r, s):
    """The basis s_b r_a^dag / sqrt(d_k) of Hom(R, S) built from the split copies."""
    out = [sb @ dagger(ra) / np.sqrt(d_k)
           for d_k, rc, sc in _split_copies(r, s, DEFAULT_TOL) for ra in rc for sb in sc]
    return np.array(out).reshape(-1, s.dim, r.dim)


def test_find_intertwiner_matches_the_kernel_oracle():
    rng = np.random.default_rng(21)
    su2 = su2_fundamental()
    su2x3, perm4, s3 = tensor_power(su2, 3), perm_rep_qubits(4), dihedral_rep_s3()
    pairs = [(su2x3, conjugated(su2x3, haar_unitary(8, rng))),
             (perm4, conjugated(perm4, haar_unitary(16, rng))),
             (s3, conjugated(s3, haar_unitary(2, rng))),
             (perm4, perm4), (su2x3, su2), (tensor_power(su2, 2), su2),
             (tensor_power(su2, 5), su2x3), (adjoint_action(su2), tensor_power(su2, 2))]
    pairs += [(rep, rep) for rep in oracle_reps(rng)]
    for r, s in pairs:
        got = find_intertwiner(r, s)
        verdict, kernel = _intertwiner_by_kernel(r, s)
        assert (got.verdict, got.kernel_dim) == (verdict, len(kernel)), (r.name, s.name)
        basis = hom_basis(r, s)
        assert len(basis) == len(kernel)
        if not len(kernel):
            assert got.phi is None
            continue
        assert span_distance(basis, kernel.reshape(len(kernel), -1).T) <= 1e-10
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        assert frob(gram - np.eye(len(basis))) <= 1e-10
        if verdict == "equivalent":
            assert frob(dagger(got.phi) @ got.phi - np.eye(r.dim)) <= 1e-10
        else:
            assert np.array_equal(got.phi, basis[0])


def test_find_intertwiner_rejects_copies_that_mix_r_and_s(monkeypatch):
    # Rotating an R row into an S row keeps q unitary but moves the copy
    # Gram G_k of the one block of su2 (+) su2 off its 0/1 spectrum.
    su2 = su2_fundamental()
    mix = np.eye(4, dtype=complex)
    mix[np.ix_([0, 2], [0, 2])] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
    decompose = equirep.decompose.isotypic_decompose

    def corrupted(rep, rng_seed=0, tol=DEFAULT_TOL):
        dec = decompose(rep, rng_seed, tol)
        dec.q = mix @ dec.q
        return dec

    dec = corrupted(direct_sum(su2, su2))
    assert dec.blocks == [(2, 2)]
    rows = dec.q.reshape(-1, 2, 2).transpose(1, 0, 2)[:, :2]
    w = np.linalg.eigvalsh(np.einsum("aij,bij->ab", rows.conj(), rows) / 2)
    assert np.all((w > 0.01) & (w < 0.99))
    monkeypatch.setattr(equirep.decompose, "isotypic_decompose", corrupted)
    with pytest.raises(NumericalError, match="mixes R and S"):
        find_intertwiner(su2, su2)
